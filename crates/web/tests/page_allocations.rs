//! A page hidden beyond the 256 kB zgrab cut is written into one
//! buffer: synthesizing it, or fetching its zgrab view, makes exactly
//! one allocation of 64 KiB or more.

use minedig_web::deploy::ArtifactKind;
use minedig_web::page::{synthesize_page, zgrab_fetch, ZGRAB_CUT};
use minedig_web::universe::Domain;
use minedig_web::zone::Zone;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations of this many bytes or more count as large.
const LARGE: usize = 64 * 1024;

thread_local! {
    /// Large allocations and reallocations made by this thread. The
    /// test harness runs tests on their own threads, so each test sees
    /// only its own.
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if size >= LARGE {
        // A thread being torn down has no counter left; its allocations
        // belong to no test.
        let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Counts large allocations on top of the system allocator.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a thread-local statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Large allocations `f` makes on this thread, and its result.
fn large_allocs<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = LARGE_ALLOCS.with(Cell::get);
    let out = f();
    (LARGE_ALLOCS.with(Cell::get) - before, out)
}

fn beyond_cut_domain() -> Domain {
    Domain {
        name: "site-0000001.com".to_string(),
        zone: Zone::Com,
        tls: true,
        artifact: Some(ArtifactKind::ConsentMiner),
        beyond_cut: true,
        wasm_version: 0,
        token_id: 7,
        latent_categories: vec![],
    }
}

#[test]
fn a_beyond_cut_page_is_one_large_allocation() {
    let d = beyond_cut_domain();
    let (n, page) = large_allocs(|| synthesize_page(&d, 2018));
    assert!(page.html.len() > ZGRAB_CUT);
    assert_eq!(n, 1, "synthesize_page: large allocations");
}

#[test]
fn a_beyond_cut_zgrab_view_is_one_large_allocation() {
    let d = beyond_cut_domain();
    let (n, html) = large_allocs(|| zgrab_fetch(&d, 2018));
    assert_eq!(html.map(|h| h.len()), Some(ZGRAB_CUT));
    assert_eq!(n, 1, "zgrab_fetch: large allocations");
}
