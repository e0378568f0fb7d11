//! Mutation robustness of snapshot journals and of the campaigns'
//! `restore` decoders.
//!
//! A journal on disk is untrusted input: a kill can leave an append
//! half-written, and bytes can rot. The resume contract holds only if
//! no damage can restore a wrong walk. Random byte flips, truncations
//! and insertions applied to a §4.1 walk's journal must give, through
//! `SnapshotStore::load` and `restore`, a typed error or exactly the
//! state of the last confirmed checkpoint — never a panic, and never
//! older progress.
//!
//! Journal checksums reject file-level damage before any `restore` runs,
//! so the §3 and §4.2 decoders are fuzzed directly: each mutant of a
//! real snapshot payload is wrapped in a valid `Snapshot` and handed to
//! `ZgrabCampaign`, `ChromeCampaign` and `ScenarioCampaign` (with and
//! without the health layer). Each must give a typed error or `Ok`,
//! never a panic, and no decoder may size an allocation by a decoded
//! count beyond what the payload can hold.

use minedig::analysis::poller::{FaultyJobSource, Observer, PollPolicy};
use minedig::analysis::scenario::{ScenarioCampaign, ScenarioConfig};
use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::scan::{build_reference_db, FetchModel};
use minedig::pool::Pool;
use minedig::primitives::ckpt::{Checkpointable, Snapshot, SnapshotStore};
use minedig::primitives::fault::{FaultConfig, FaultPlan};
use minedig::primitives::health::HealthConfig;
use minedig::primitives::retry::RetryPolicy;
use minedig::primitives::supervise::{run_to_end, Backend, Campaign};
use minedig::primitives::DetRng;
use minedig::shortlink::campaign::{EnumCampaign, EnumCampaignOutput};
use minedig::shortlink::model::{LinkPopulation, ModelConfig};
use minedig::shortlink::probe::{FaultyProber, ProbePolicy};
use minedig::shortlink::service::{ShortlinkService, VisitDoc};
use minedig::web::universe::Population;
use minedig::web::zone::Zone;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::AtomicU64;

thread_local! {
    /// The largest allocation or reallocation this thread has made since
    /// the last [`largest_alloc`] began. The test harness runs tests on
    /// their own threads, so each test sees only its own.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A thread being torn down has no counter left; its allocations
    // belong to no test.
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

/// Tracks the largest allocation on top of the system allocator.
struct TrackingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the tracker
// is a thread-local statistic that publishes no other data.
unsafe impl GlobalAlloc for TrackingAlloc {
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
static ALLOC: TrackingAlloc = TrackingAlloc;

/// The largest single allocation `f` makes on this thread, and its result.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|n| n.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

/// Checkpoints in the journal, each one a frame.
const FRAMES: usize = 6;

/// Items between checkpoints.
const EVERY: u64 = 60;

/// Everything a finished walk yields, in comparable form.
type Outcome = (Vec<VisitDoc>, [u64; 3], Vec<(String, String)>, [u64; 3]);

fn outcome(out: EnumCampaignOutput) -> Outcome {
    let (e, r) = (out.enumeration, out.resolve_report);
    (
        e.docs,
        [e.probed, e.failed_probes, e.probe_retries],
        r.resolved,
        [r.skipped_over_budget, r.visit_failures, r.hashes_spent],
    )
}

/// Writes `bytes` as the journal at `path`, then loads and restores it
/// into `fresh`: a typed error, or the restored walk run to completion
/// with the progress it resumed from.
fn load_and_finish<C: Campaign>(
    store: &SnapshotStore,
    path: &Path,
    bytes: &[u8],
    mut fresh: C,
) -> Result<(u64, C::Output), String> {
    std::fs::write(path, bytes).expect("write journal");
    let snap = store
        .load("walk")
        .map_err(|e| e.to_string())?
        .expect("the journal exists");
    fresh.restore(&snap).map_err(|e| e.to_string())?;
    let resumed_at = fresh.progress_key();
    Ok((resumed_at, run_to_end(fresh)))
}

#[test]
fn damaged_journals_give_a_typed_error_or_the_last_confirmed_state() {
    let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
        total_links: 600,
        users: 40,
        seed: 11,
    }));
    let plan = FaultPlan::transient_only(3, 0.3);
    let policy = ProbePolicy::outlasting(&plan);
    let prober = FaultyProber::new(&service, plan);
    let walk = || {
        EnumCampaign::new(&prober, &policy, 32, Backend::Sequential)
            .with_tail_resolver(&service, 10_000)
    };
    let clean = outcome(run_to_end(walk()));

    let dir = std::env::temp_dir().join(format!("minedig-ckpt-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::open(&dir).expect("open store");
    let mut campaign = walk();
    for _ in 0..FRAMES {
        campaign.run_items(EVERY, &AtomicU64::new(0));
        store
            .save("walk", &campaign.snapshot())
            .expect("save a checkpoint");
    }
    let confirmed_key = campaign.progress_key();
    assert_eq!(confirmed_key, FRAMES as u64 * EVERY);
    let confirmed_path = store.path("walk").expect("a saved journal");
    let confirmed_len = std::fs::read(&confirmed_path).expect("read journal").len();
    // One more checkpoint whose append was killed before its confirming
    // rename: its frame is on disk past the confirmed length.
    campaign.run_items(EVERY, &AtomicU64::new(0));
    store
        .save("walk", &campaign.snapshot())
        .expect("save a checkpoint");
    let appended_path = store.path("walk").expect("a saved journal");
    let journal = std::fs::read(&appended_path).expect("read journal");
    std::fs::rename(&appended_path, &confirmed_path).expect("undo the rename");
    assert!(journal.len() > confirmed_len);

    // Damage to a confirmed frame must be rejected; damage confined to
    // the killed append's bytes must restore the last confirmed state.
    let check = |bytes: &[u8], in_confirmed: bool, what: &str| match load_and_finish(
        &store,
        &confirmed_path,
        bytes,
        walk(),
    ) {
        Err(e) => assert!(in_confirmed, "{what}: rejected ({e})"),
        Ok((resumed_at, out)) => {
            assert!(!in_confirmed, "{what}: damage was restored");
            assert_eq!(resumed_at, confirmed_key, "{what}: resumed elsewhere");
            assert!(outcome(out) == clean, "{what}: restored a different walk");
        }
    };
    check(&journal, false, "pristine");
    let mut rng = DetRng::seed(0xc4e7);
    for round in 0..300 {
        let mut flipped = journal.clone();
        let mut lowest = flipped.len();
        for _ in 0..1 + rng.gen_range(3) {
            let i = rng.range_usize(0, flipped.len());
            flipped[i] ^= 1 << rng.gen_range(8);
            lowest = lowest.min(i);
        }
        check(&flipped, lowest < confirmed_len, &format!("flip {round}"));
        let mut inserted = journal.clone();
        let at = rng.range_usize(0, inserted.len() + 1);
        inserted.insert(at, rng.gen_range(256) as u8);
        check(&inserted, at < confirmed_len, &format!("insert {round}"));
    }
    for cut in (0..journal.len()).step_by(7) {
        check(
            &journal[..cut],
            cut < confirmed_len,
            &format!("cut at {cut}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes of memory a decoder may allocate per payload byte: no element
/// it reads takes less than one payload byte or more than 64 bytes in
/// memory, and a container grown by pushes holds at most twice what it
/// was given.
const BYTES_PER_PAYLOAD_BYTE: usize = 128;

/// Restores mutants of each of `snaps` into a fresh `make()`: per
/// snapshot, `rounds` copies with 1–3 bit flips, `rounds` single-byte
/// insertions and `rounds` cuts. Each restore must return (`restore`'s
/// type makes any error a `CkptError`) without panicking, and make no
/// allocation larger than the restores of the pristine snapshots made or
/// [`BYTES_PER_PAYLOAD_BYTE`] per payload byte allows. Returns how many
/// mutants restored.
fn fuzz_restore<C: Checkpointable>(
    what: &str,
    snaps: &[Snapshot],
    make: impl Fn() -> C,
    rng: &mut DetRng,
    rounds: usize,
) -> usize {
    let payloads: Vec<Vec<u8>> = snaps
        .iter()
        .map(|s| s.full_payload().expect("a full snapshot").to_vec())
        .collect();
    let mut pristine = 0;
    for (snap, payload) in snaps.iter().zip(&payloads) {
        let mut fresh = make();
        let (largest, result) = largest_alloc(|| fresh.restore(snap));
        result.unwrap_or_else(|e| panic!("{what}: pristine snapshot refused: {e}"));
        assert_eq!(
            fresh.snapshot().full_payload().unwrap(),
            &payload[..],
            "{what}"
        );
        pristine = pristine.max(largest);
    }
    let mut restored = 0;
    let mut check = |key: u64, mutant: Vec<u8>, how: &str| {
        let bound = pristine.max(BYTES_PER_PAYLOAD_BYTE * mutant.len());
        let snap = Snapshot::new(key, mutant);
        let mut fresh = make();
        let (largest, result) = largest_alloc(|| fresh.restore(&snap));
        assert!(
            largest <= bound,
            "{what}, {how}: {largest} bytes allocated, bound {bound}"
        );
        restored += usize::from(result.is_ok());
    };
    for (snap, payload) in snaps.iter().zip(&payloads) {
        let key = snap.last_key();
        for round in 0..rounds {
            let mut flipped = payload.clone();
            for _ in 0..1 + rng.gen_range(3) {
                let i = rng.range_usize(0, flipped.len());
                flipped[i] ^= 1 << rng.gen_range(8);
            }
            check(key, flipped, &format!("flip {round}"));
            let mut inserted = payload.clone();
            inserted.insert(
                rng.range_usize(0, payload.len() + 1),
                rng.gen_range(256) as u8,
            );
            check(key, inserted, &format!("insert {round}"));
            let cut = rng.range_usize(0, payload.len());
            check(key, payload[..cut].to_vec(), &format!("cut at {cut}"));
        }
    }
    restored
}

/// Snapshots of `campaign` after each of `chunks` items, then at its end.
fn snapshots_along<C: Campaign>(mut campaign: C, chunks: &[u64]) -> Vec<Snapshot> {
    let mut snaps = Vec::new();
    for &n in chunks {
        campaign.run_items(n, &AtomicU64::new(0));
        snaps.push(campaign.snapshot());
    }
    campaign.run_items(u64::MAX, &AtomicU64::new(0));
    snaps.push(campaign.snapshot());
    snaps
}

#[test]
fn mutated_scan_payloads_restore_or_give_a_typed_error() {
    let model = FetchModel::outlasting(FaultPlan::transient_only(3, 0.3));
    let mut rng = DetRng::seed(0x5ca7);

    let pop = Population::generate(Zone::Org, 42, 40);
    let zgrab = || ZgrabCampaign::new(&pop, 9, &model, Backend::Sequential);
    let snaps = snapshots_along(zgrab(), &[16, 24]);
    let restored = fuzz_restore("zgrab", &snaps, zgrab, &mut rng, 300);
    assert!(restored > 0, "some zgrab mutants must still restore");

    let pop = Population::generate(Zone::Org, 21, 30);
    let db = build_reference_db(0.7);
    let chrome = || ChromeCampaign::new(&pop, &db, 9, &model, None, Backend::Sequential);
    let snaps = snapshots_along(chrome(), &[8, 16]);
    let restored = fuzz_restore("chrome", &snaps, chrome, &mut rng, 300);
    assert!(restored > 0, "some chrome mutants must still restore");
}

#[test]
fn mutated_scenario_payloads_restore_or_give_a_typed_error() {
    // One day on a 10-minute poll grid under transient and permanent
    // faults, so every part of the observer's state is populated. A 16×
    // initial difficulty ends the day after 64 blocks, so even a mutant
    // that replays all of it stays cheap.
    let plan = FaultPlan::with_config(
        5,
        FaultConfig {
            fault_prob: 0.3,
            permanent_prob: 0.3,
            ..FaultConfig::default()
        },
    );
    let config = ScenarioConfig {
        duration_days: 1,
        poll_interval_secs: 600,
        poll_retry: RetryPolicy::attempts(plan.attempts_to_clear()),
        seed: 9,
        initial_difficulty: ScenarioConfig::default().initial_difficulty * 16,
        ..ScenarioConfig::default()
    };
    let mut rng = DetRng::seed(0x5ce4);
    for health in [None, Some(HealthConfig::default())] {
        let make = || {
            let pool = Pool::new(config.pool.clone());
            let policy = PollPolicy {
                retry: config.poll_retry.clone(),
                jitter_seed: plan.seed(),
            };
            let source = FaultyJobSource::new(pool.clone(), plan.clone());
            let mut observer = Observer::with_source(source, true, policy);
            if let Some(h) = &health {
                observer = observer.with_health(h.clone());
            }
            ScenarioCampaign::new(config.clone(), pool, observer)
        };
        let what = format!("scenario, health {}", health.is_some());
        let snaps = snapshots_along(make(), &[6, 12]);
        let restored = fuzz_restore(&what, &snaps, make, &mut rng, 100);
        assert!(restored > 0, "{what}: some mutants must still restore");
    }
}
