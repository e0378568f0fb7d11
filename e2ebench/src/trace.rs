//! In-process tracing for the per-layer run: wall-clock spans around
//! calls into the crates' public leaf functions, a counting allocator,
//! and the self-time arithmetic that turns nested spans into layer
//! figures.
//!
//! Spans live in a thread-local recorder (the traced compositions run on
//! one thread, and the chain simulator's interval hook runs inline on
//! that thread), are kept in memory while the composition runs, and are
//! written out once at the end.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A `#[global_allocator]` that counts allocator calls (allocations and
/// reallocations) on top of the system allocator.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocator calls made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One recorded span: a named interval on the recorder's clock, its
/// parent (index into the same span list) and the run it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `browser.load`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Run id (one traced run records one id).
    pub run: u32,
    /// Allocator calls made while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread under run id `run`, dropping
/// anything recorded before.
pub fn start(run: u32) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            stack: Vec::new(),
        })
    });
}

/// Stops recording and returns the spans, in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Runs `f` inside a span named `name`. Without an active recorder this
/// is a plain call, so the same composition code serves untraced runs.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = enter(name);
    let out = f();
    if let Some(id) = id {
        exit(id);
    }
    out
}

fn enter(name: &'static str) -> Option<usize> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let id = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: rec.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: rec.stack.last().copied(),
            run: rec.run,
            allocs: allocs(),
        });
        rec.stack.push(id);
        Some(id)
    })
}

fn exit(id: usize) {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else { return };
        let end = rec.origin.elapsed().as_nanos() as u64;
        let popped = rec.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        let s = &mut rec.spans[id];
        s.end_ns = end;
        s.allocs = allocs() - s.allocs;
    });
}

/// Self time of every span: its duration minus the part of it covered
/// by its children. Children may nest further or overlap one another
/// (spans recorded from concurrent workers); covered time is the union
/// of the children's intervals clipped to the parent, so overlap is not
/// subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Summed self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 / 1e9;
    }
    out
}

/// Writes spans as tab-separated rows: id, parent, run, name, start and
/// end nanoseconds, allocator calls.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\trun\tname\tstart_ns\tend_ns\tallocs")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.run, s.name, s.start_ns, s.end_ns, s.allocs
        )?;
    }
    w.flush()
}

/// This process's resident set size in MB, from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
            allocs: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100) ⊃ child [10,60) ⊃ grandchild [20,30)
        let spans = vec![
            sp("root", 0, 100, None),
            sp("child", 10, 60, Some(0)),
            sp("grand", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // children [10,40) and [30,70) overlap on [30,40): union is 60.
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 30, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 40]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![sp("root", 10, 50, None), sp("late", 40, 90, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![30, 50]);
    }

    #[test]
    fn contained_child_inside_another_child_is_not_double_counted() {
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 80, Some(0)),
            sp("b", 20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 70, 10]);
    }

    #[test]
    fn layer_sums_add_self_times_by_name() {
        let spans = vec![
            sp("x", 0, 1_000_000_000, None),
            sp("y", 0, 250_000_000, Some(0)),
            sp("y", 500_000_000, 750_000_000, Some(0)),
            sp("x", 2_000_000_000, 2_500_000_000, None),
        ];
        let by = self_seconds_by_name(&spans);
        assert!((by["x"] - 1.0).abs() < 1e-12);
        assert!((by["y"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_links_parents_and_is_inert_when_off() {
        assert_eq!(span("off", || 7), 7);
        assert!(finish().is_empty());
        start(3);
        span("outer", || {
            span("inner", || {
                let v: Vec<u64> = Vec::with_capacity(16);
                std::hint::black_box(v);
            })
        });
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
    }
}
