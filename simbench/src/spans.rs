//! Benchmark-side spans: name, start, end and parent, kept in memory
//! and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or, while `end_ns == 0`, open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based id; 0 is "no span".
    pub id: u64,
    /// The id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// Layer or operation name.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Opens a span now and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Closes span `id` now and returns its duration.
    pub fn close(&mut self, id: u64) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.dur_ns()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Writes the log as tab-separated `id parent name start_ns end_ns`
    /// lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        *out.entry(s.name).or_insert(0) += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}
