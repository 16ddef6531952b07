//! Without the `trace` feature every observability facade is built
//! empty: constructing and driving `Tracer`, `Profiler`, `Hub`, `Wall`,
//! their handles and the `wall` span guards performs no heap
//! allocation. A counting global allocator (per thread, so the test
//! harness's own threads do not count) pins that.

#![cfg(not(feature = "trace"))]

use execmig_obs::wall::{self, families};
use execmig_obs::{Beat, EventKind, Hub, ProfileCumulative, Profiler, Tracer, Wall};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request to `System` unchanged; the counter is a
// const-initialised thread-local with no destructor, so reading it
// never allocates or recurses.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn inactive_facades_allocate_nothing() {
    let n = allocations_in(|| {
        let mut tracer = Tracer::default();
        tracer.emit(1, EventKind::L2Miss);
        assert!(tracer.is_empty());

        let mut profiler = Profiler::default();
        profiler.record_sample(&ProfileCumulative::default());
        assert!(!profiler.sample_due(u64::MAX));
        assert_eq!(profiler.next_due(), u64::MAX);

        let hub = Hub::with_workers(8);
        let worker = hub.worker(0).expect("inert handle");
        assert!(hub.worker(0).is_some(), "inactive handles claim nothing");
        worker.publish(Beat::idle());
        assert_eq!(hub.snapshot().epoch, 0);

        let wall = Wall::with_threads(8);
        let thread = wall.thread(0).expect("inert handle");
        let id = thread.enter(families::SWEEP);
        assert_eq!(id, 0);
        thread.exit(id);
        assert_eq!(wall.snapshot().epoch, 0);

        assert!(wall::attach(&wall, 0));
        let guard = wall::span(families::TASK);
        assert_eq!(guard.id(), 0);
        assert_eq!(wall::current_id(), 0);
        drop(guard);
        wall::span_with_parent(families::RUN, 7).cancel();
        wall::detach();
    });
    assert_eq!(n, 0, "inactive observability allocated {n} times");
}
