//! Seeded inputs: the suite streams, relocated by a seed-derived offset.
//!
//! Seed 0 is the identity, so it replays exactly the `suite::by_name`
//! streams Table 2 and the goldens use. Any other seed shifts every
//! address of a member's stream by a line-aligned offset derived from
//! the seed and the member's name. The shift changes which skewed-L2
//! sets lines conflict in and which lines the controller's `e mod 31`
//! sampler keeps, while access kinds, pointer tags and instruction
//! counts stay exactly those of the seed-0 stream.

use execmig_trace::{suite, Access, Addr, BoxedWorkload, Workload, WorkloadEvent};

/// Line size every configured machine uses; offsets are multiples of it.
pub const LINE_BYTES: u64 = 64;

/// Offsets stay below 2^28 lines (16 GiB), far above every generator's
/// footprint and far below the top of the address space.
const OFFSET_LINES: u64 = 1 << 28;

/// The byte offset seed `seed` applies to member `member`'s stream.
pub fn offset_for(seed: u64, member: &str) -> u64 {
    if seed == 0 {
        return 0;
    }
    let mut h = 0xcbf2_9ce4_8422_2325_u64; // FNV-1a over the name
    for b in member.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let lines = splitmix64(seed ^ h) % OFFSET_LINES;
    lines.max(1) * LINE_BYTES
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A suite stream whose addresses are shifted by a fixed offset, applied
/// to each block between the generator's `fill_block` and the machine.
pub struct Relocated {
    inner: BoxedWorkload,
    offset: u64,
}

impl Relocated {
    /// Member `member`'s stream under seed `seed`, or `None` for a name
    /// the suite does not know.
    pub fn member(member: &str, seed: u64) -> Option<Relocated> {
        Some(Relocated {
            inner: suite::by_name(member)?,
            offset: offset_for(seed, member),
        })
    }

    fn shift(&self, access: Access) -> Access {
        Access {
            addr: Addr::new(access.addr.raw().wrapping_add(self.offset)),
            ..access
        }
    }
}

impl Workload for Relocated {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_access(&mut self) -> Access {
        let access = self.inner.next_access();
        self.shift(access)
    }

    fn instructions(&self) -> u64 {
        self.inner.instructions()
    }

    fn fill_block(&mut self, buf: &mut Vec<WorkloadEvent>, until: u64, max_events: usize) -> usize {
        let start = buf.len();
        let filled = self.inner.fill_block(buf, until, max_events);
        for e in &mut buf[start..] {
            e.access = self.shift(e.access);
        }
        filled
    }
}
