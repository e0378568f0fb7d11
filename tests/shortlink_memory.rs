//! The heap a §4.1 study holds and peaks at. The walk keeps one
//! fixed-size sighting per live link, with no heap allocation of its
//! own, so a finished study holds a few hundred heap blocks however many
//! links it found, and the study's peak live heap stays within a bound
//! per generated link.
//!
//! A global allocator counts this thread's live blocks and live bytes,
//! as `crates/web/tests/page_allocations.rs` does. The studies run on
//! the sequential backend, so every allocation they make is counted on
//! the test's own thread.

use minedig::core::shortlink_study::{run_study, StudyConfig, StudyResult};
use minedig::shortlink::model::ModelConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live heap of one thread: blocks and requested bytes, and the most
/// bytes live at once since the last [`measure`] began. Blocks freed by
/// another thread than the one that allocated them move the counts of
/// both, so only differences over a stretch of one thread's work mean
/// anything.
#[derive(Clone, Copy, Default)]
struct Heap {
    blocks: isize,
    bytes: isize,
    peak: isize,
}

thread_local! {
    static HEAP: Cell<Heap> = const {
        Cell::new(Heap {
            blocks: 0,
            bytes: 0,
            peak: 0,
        })
    };
}

fn note(blocks: isize, bytes: isize) {
    // A thread being torn down has no counter left; its allocations
    // belong to no test.
    let _ = HEAP.try_with(|h| {
        let mut now = h.get();
        now.blocks += blocks;
        now.bytes += bytes;
        now.peak = now.peak.max(now.bytes);
        h.set(now);
    });
}

/// Counts live blocks and bytes on top of the system allocator.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counts
// are a thread-local statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(1, layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(1, layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(0, new_size as isize - layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-1, -(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` on this thread; returns its result, the blocks it left
/// live, and the most bytes it had live at once beyond those live
/// before it began.
fn measure<T>(f: impl FnOnce() -> T) -> (T, isize, isize) {
    let before = HEAP.with(|h| {
        let mut now = h.get();
        now.peak = now.bytes;
        h.set(now);
        now
    });
    let out = f();
    let after = HEAP.with(Cell::get);
    (out, after.blocks - before.blocks, after.peak - before.bytes)
}

/// Links of the measured study: the CLI's default.
const LINKS: u64 = 50_000;

/// The CLI's study of [`LINKS`] links at seed 2018, on the sequential
/// backend.
fn study() -> StudyResult {
    let config = StudyConfig {
        model: ModelConfig {
            total_links: LINKS,
            users: 12_000,
            seed: 2018,
        },
        ..StudyConfig::default()
    };
    run_study(&config, 2018, None)
        .expect("a straight run cannot fail")
        .0
}

/// A finished study holds its distributions and tables, not a heap
/// block per live link. It holds 311 blocks; a result that kept a doc
/// with its own code string for each of the 50,000 live links held
/// 50,312.
#[test]
fn a_finished_study_holds_no_heap_block_per_link() {
    let (result, held, _) = measure(study);
    assert!(
        held < 1_000,
        "the result of a {LINKS}-link study holds {held} live heap blocks"
    );
    drop(result);
}

/// Most bytes of live heap a study may reach per generated link. With
/// a 16-byte sighting per live link the study peaks at 110.8 bytes per
/// link (5,538,389 bytes); with a 40-byte doc and its own code string
/// per live link, and 56-byte link records, it peaked at 182.8
/// (9,142,257 bytes).
const PEAK_BYTES_PER_LINK: f64 = 150.0;

/// The study's peak live heap stays within [`PEAK_BYTES_PER_LINK`].
#[test]
fn a_study_peaks_below_the_bound_per_link() {
    let (result, _, peak) = measure(study);
    let per_link = peak as f64 / LINKS as f64;
    assert!(
        per_link < PEAK_BYTES_PER_LINK,
        "a {LINKS}-link study peaked at {peak} live heap bytes, {per_link:.1} per link"
    );
    drop(result);
}
