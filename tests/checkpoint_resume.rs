//! Crash-safety properties of the supervised campaign drivers.
//!
//! Headline invariant: a campaign killed at **any** progress point and
//! resumed from its latest on-disk snapshot produces results
//! bit-identical to an uninterrupted run — for all three campaign
//! families (§3 scans, §4.1 enumeration, the §4.2 attribution
//! scenario), on every executor backend, clean or under an injected
//! fault schedule — and its work accounting stays balanced around the
//! crashes (`SuperviseReport::balanced`). Snapshots themselves are covered
//! adversarially: corrupted, truncated, or foreign bytes must be
//! rejected loudly, never silently restored.
//!
//! `MINEDIG_FAULT_SEED` offsets every fault-plan seed (the CI
//! crash-recovery matrix axis), so each job replays the properties
//! under a different schedule without touching the test code.

use minedig::analysis::scenario::{run_scenario, ScenarioConfig};
use minedig::chain::netsim::MinedEvent;
use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::scan::{build_reference_db, chrome_scan_with, zgrab_scan_with, FetchModel};
use minedig::core::shortlink_study::{run_study, StudyConfig};
use minedig::primitives::ckpt::{CkptError, SnapshotStore};
use minedig::primitives::fault::{FaultConfig, FaultPlan};
use minedig::primitives::retry::RetryPolicy;
use minedig::primitives::supervise::{
    Backend, Campaign, Ckpt, CrashPolicy, SuperviseError, Supervisor,
};
use minedig::primitives::{sha256, to_hex, Hash32};
use minedig::shortlink::campaign::EnumCampaign;
use minedig::shortlink::enumerate::enumerate_links_with;
use minedig::shortlink::model::{LinkPopulation, ModelConfig};
use minedig::shortlink::probe::{FaultyProber, ProbePolicy};
use minedig::shortlink::service::ShortlinkService;
use minedig::web::universe::Population;
use minedig::web::zone::Zone;
use proptest::prelude::*;
use std::sync::atomic::AtomicU64;

/// Base fault seed from `MINEDIG_FAULT_SEED` (the CI matrix axis), 0
/// when unset; a malformed value panics naming the variable.
fn base_seed() -> u64 {
    FaultPlan::parse(|name| std::env::var(name).ok())
        .unwrap_or_else(|e| panic!("{e}"))
        .map_or(0, |plan| plan.seed())
}

/// Maps a drawn percentage into the kill window selected by
/// `MINEDIG_KILL_POINT` (the other CI matrix axis): `early`/`mid`/
/// `late` confine kills to the matching third of the campaign's
/// progress range; unset draws across the whole range, and any other
/// value panics naming the variable.
fn kill_at(frac: u64, horizon: u64) -> u64 {
    let (lo, hi) = match std::env::var("MINEDIG_KILL_POINT").ok().as_deref() {
        Some("early") => (0, horizon / 3),
        Some("mid") => (horizon / 3, (2 * horizon) / 3),
        Some("late") => ((2 * horizon) / 3, horizon),
        None => (0, horizon),
        Some(other) => panic!("MINEDIG_KILL_POINT={other:?}: expected early, mid or late"),
    };
    (lo + frac * (hi - lo) / 100).max(1)
}

/// Every campaign backend.
const BACKENDS: [Backend; 2] = [Backend::Sequential, Backend::Sharded(3)];

fn backend(ix: usize) -> Backend {
    BACKENDS[ix % BACKENDS.len()]
}

/// A fresh snapshot directory under the system temp dir.
fn tmp_store(tag: &str) -> (std::path::PathBuf, SnapshotStore) {
    let dir =
        std::env::temp_dir().join(format!("minedig-ckpt-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::open(&dir).expect("open snapshot store");
    (dir, store)
}

/// Length of the journal that
/// [`a_checkpointed_study_writes_the_golden_journal`] pins.
const GOLDEN_JOURNAL_LEN: usize = 58_328;

/// SHA-256 of that journal.
const GOLDEN_JOURNAL_SHA256: &str =
    "8640caedd146174535cf37a8be45ab50a91b1ed6a5c2ed372bf8b43484c55247";

fn supervisor_with_kills(every: u64, kills: Vec<u64>) -> Supervisor {
    Supervisor::new(CrashPolicy {
        ckpt_every_items: every,
        ..CrashPolicy::default()
    })
    .with_kills(kills)
}

// ---------------------------------------------------------------------
// §3 scans: kill-at-item-k × backend × fault seed ≡ uninterrupted
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn zgrab_kill_and_resume_is_uninterrupted(
        frac in 0u64..100,
        backend_ix in 0usize..4,
        seed_off in 0u64..3,
    ) {
        let kill = kill_at(frac, 59);
        let fault_seed = base_seed().wrapping_add(seed_off);
        let model = if fault_seed % 2 == 0 {
            FetchModel::default()
        } else {
            FetchModel::outlasting(FaultPlan::transient_only(fault_seed, 0.3))
        };
        let pop = Population::generate(Zone::Org, 42, 40);
        let expected = zgrab_scan_with(&pop, 9, &model);

        let (dir, store) = tmp_store(&format!("zgrab-{kill}-{backend_ix}-{seed_off}"));
        let sup = supervisor_with_kills(16, vec![kill, kill + 17]);
        let run = sup
            .run(
                &store,
                "zgrab",
                || ZgrabCampaign::new(&pop, 9, &model, backend(backend_ix)),
                false,
            )
            .unwrap();
        prop_assert_eq!(&run.output, &expected);
        prop_assert!(run.report.crashes >= 1, "kill at {} never fired", kill);
        prop_assert!(run.report.balanced(), "{:?}", run.report);
        prop_assert!(run.output.fetch.balanced(), "{:?}", run.output.fetch);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chrome_kill_and_resume_is_uninterrupted(
        frac in 0u64..100,
        backend_ix in 0usize..4,
        seed_off in 0u64..3,
    ) {
        let kill = kill_at(frac, 49);
        let fault_seed = base_seed().wrapping_add(seed_off);
        let model = if fault_seed % 2 == 0 {
            FetchModel::default()
        } else {
            FetchModel::outlasting(FaultPlan::transient_only(fault_seed, 0.3))
        };
        let pop = Population::generate(Zone::Org, 21, 30);
        let db = build_reference_db(0.7);
        let expected = chrome_scan_with(&pop, &db, 9, &model);

        let (dir, store) = tmp_store(&format!("chrome-{kill}-{backend_ix}-{seed_off}"));
        let sup = supervisor_with_kills(8, vec![kill]);
        let run = sup
            .run(
                &store,
                "chrome",
                || ChromeCampaign::new(&pop, &db, 9, &model, None, backend(backend_ix)),
                false,
            )
            .unwrap();
        prop_assert_eq!(&run.output, &expected);
        prop_assert!(run.report.crashes >= 1, "kill at {} never fired", kill);
        prop_assert!(run.report.balanced(), "{:?}", run.report);
        prop_assert!(run.output.fetch.balanced(), "{:?}", run.output.fetch);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// §4.1 enumeration: the walk's stop rule survives kills, with faults
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn enum_walk_kill_and_resume_is_uninterrupted(
        frac in 0u64..100,
        backend_ix in 0usize..4,
        seed_off in 0u64..3,
    ) {
        let kill = kill_at(frac, 699);
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: 600,
            users: 40,
            seed: 11,
        }));
        let plan = FaultPlan::transient_only(base_seed().wrapping_add(seed_off), 0.3);
        let policy = ProbePolicy::outlasting(&plan);
        let prober = FaultyProber::new(&service, plan);
        let expected = enumerate_links_with(&prober, 32, &policy);

        let (dir, store) = tmp_store(&format!("enum-{kill}-{backend_ix}-{seed_off}"));
        let sup = supervisor_with_kills(64, vec![kill]);
        let run = sup
            .run(
                &store,
                "enum",
                || EnumCampaign::new(&prober, &policy, 32, backend(backend_ix)),
                false,
            )
            .unwrap();
        let e = &run.output.enumeration;
        prop_assert_eq!(&e.docs, &expected.docs);
        prop_assert_eq!(e.probed, expected.probed);
        prop_assert_eq!(e.failed_probes, expected.failed_probes);
        prop_assert_eq!(e.probe_retries, expected.probe_retries);
        prop_assert!(run.report.balanced(), "{:?}", run.report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The journal of a checkpointed §4.1 study, byte for byte: 5,000 links
/// checkpointed every 64 items, as `MINEDIG_CKPT_DIR=… minedig shortlink
/// 5000 2018` writes it, on every backend. A change to the journal's
/// layout, or to what the walk finds or resolves, fails here.
#[test]
fn a_checkpointed_study_writes_the_golden_journal() {
    let config = StudyConfig {
        model: ModelConfig {
            total_links: 5_000,
            users: 1_250,
            seed: 2018,
        },
        ..StudyConfig::default()
    };
    for backend in BACKENDS {
        let (dir, store) = tmp_store(&format!("golden-{backend}"));
        let ckpt = Ckpt {
            store,
            supervisor: supervisor_with_kills(64, vec![]),
            resume: false,
        };
        let config = StudyConfig {
            backend,
            ..config.clone()
        };
        run_study(&config, 2018, Some(&ckpt)).expect("a checkpointed study");
        let path = ckpt
            .store
            .path("shortlink-5000-2018")
            .expect("a saved journal");
        let journal = std::fs::read(&path).expect("read the journal");
        assert_eq!(journal.len(), GOLDEN_JOURNAL_LEN, "{backend}");
        assert_eq!(
            to_hex(&sha256(&journal)),
            GOLDEN_JOURNAL_SHA256,
            "{backend}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// §4.2 attribution: the scenario `minedig attribute` runs survives kills
// ---------------------------------------------------------------------

/// The block ids of `events`, which carry no equality of their own.
fn block_ids(events: &[MinedEvent]) -> Vec<Hash32> {
    events.iter().map(|e| e.block_id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn scenario_kill_and_resume_is_uninterrupted(
        frac in 0u64..100,
        seed_off in 0u64..3,
    ) {
        // One day on a 10-minute poll grid: every poll path runs, and an
        // odd fault seed adds permanent faults to the disconnects.
        let fault_seed = base_seed().wrapping_add(seed_off);
        let plan = if fault_seed % 2 == 0 {
            FaultPlan::transient_only(fault_seed, 0.3)
        } else {
            FaultPlan::with_config(
                fault_seed,
                FaultConfig {
                    fault_prob: 0.3,
                    permanent_prob: 0.3,
                    ..FaultConfig::default()
                },
            )
        };
        let config = ScenarioConfig {
            duration_days: 1,
            poll_interval_secs: 600,
            poll_retry: RetryPolicy::attempts(plan.attempts_to_clear()),
            poll_faults: Some(plan),
            seed: 9,
            ..ScenarioConfig::default()
        };
        let (expected, _) = run_scenario(config.clone(), None).unwrap();
        let kill = kill_at(frac, expected.total_blocks);

        let (dir, store) = tmp_store(&format!("scenario-{kill}-{seed_off}"));
        let ckpt = Ckpt {
            store,
            supervisor: supervisor_with_kills(64, vec![kill]),
            resume: false,
        };
        let (result, report) = run_scenario(config, Some(&ckpt)).unwrap();
        let report = report.expect("a checkpointed run reports");
        prop_assert_eq!(report.crashes, 1, "kill at {} never fired", kill);
        prop_assert!(report.balanced(), "{:?}", report);
        prop_assert_eq!(&result.attributed, &expected.attributed);
        prop_assert_eq!(block_ids(&result.ground_truth), block_ids(&expected.ground_truth));
        prop_assert_eq!(result.total_blocks, expected.total_blocks);
        prop_assert_eq!(&result.poll_stats, &expected.poll_stats);
        prop_assert!(result.poll_stats.balanced(), "{:?}", result.poll_stats);
        prop_assert_eq!(result.network.median_difficulty, expected.network.median_difficulty);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Cross-process resume: restart budget exhausted, then `--resume`
// ---------------------------------------------------------------------

/// A supervisor whose restart budget runs out mid-campaign leaves a
/// valid snapshot behind; a *fresh* supervisor started with
/// `resume = true` — the CLI's `--resume` — finishes the campaign and
/// the result is still bit-identical to an uninterrupted run.
#[test]
fn resume_after_restart_budget_exhaustion_completes_the_campaign() {
    let pop = Population::generate(Zone::Org, 42, 40);
    let model = FetchModel::default();
    let expected = zgrab_scan_with(&pop, 9, &model);
    let (dir, store) = tmp_store("exhausted");

    let doomed = Supervisor::new(CrashPolicy {
        ckpt_every_items: 16,
        max_restarts: 0,
    })
    .with_kills(vec![20]);
    let err = doomed
        .run(
            &store,
            "zgrab",
            || ZgrabCampaign::new(&pop, 9, &model, Backend::Sequential),
            false,
        )
        .unwrap_err();
    assert!(matches!(err, SuperviseError::RestartsExhausted(_)));

    // Simulated new process: fresh supervisor, --resume.
    let sup = Supervisor::new(CrashPolicy {
        ckpt_every_items: 16,
        ..CrashPolicy::default()
    });
    let run = sup
        .run(
            &store,
            "zgrab",
            || ZgrabCampaign::new(&pop, 9, &model, Backend::Sequential),
            true,
        )
        .unwrap();
    assert_eq!(run.output, expected);
    assert!(run.report.balanced(), "{:?}", run.report);
    assert!(
        run.report.start_progress > 0,
        "resume must continue from the snapshot, not item 0"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Snapshot integrity: damaged bytes are rejected, never restored
// ---------------------------------------------------------------------

/// Writes a checkpoint, then damages the on-disk bytes in every way the
/// format guards against; each damaged variant must be rejected with
/// the matching error instead of restoring a wrong campaign state.
#[test]
fn damaged_snapshots_are_rejected() {
    let pop = Population::generate(Zone::Org, 42, 20);
    let model = FetchModel::default();
    let (dir, store) = tmp_store("damage");

    let mut campaign = ZgrabCampaign::new(&pop, 9, &model, Backend::Sequential);
    campaign.run_items(10, &AtomicU64::new(0));
    let snap = minedig::primitives::ckpt::Checkpointable::snapshot(&campaign);
    store.save("zgrab", &snap).expect("save");
    let path = store.path("zgrab").expect("a saved snapshot");
    let pristine = std::fs::read(&path).expect("read snapshot");

    // Flip one payload byte: checksum trailer must catch it.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).expect("write");
    assert!(matches!(
        store.load("zgrab"),
        Err(CkptError::ChecksumMismatch)
    ));

    // Truncate at every prefix length: never a silent partial restore.
    // Short prefixes die on the header checks; longer ones leave a
    // plausible-looking file whose trailer no longer matches.
    for keep in [0, 3, 7, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&path, &pristine[..keep]).expect("write");
        assert!(
            matches!(
                store.load("zgrab"),
                Err(CkptError::Truncated) | Err(CkptError::ChecksumMismatch)
            ),
            "prefix of {keep} bytes must not load"
        );
    }

    // Foreign magic: rejected before any parsing.
    let mut foreign = pristine.clone();
    foreign[0] ^= 0xFF;
    std::fs::write(&path, &foreign).expect("write");
    assert!(matches!(store.load("zgrab"), Err(CkptError::BadMagic)));

    // The supervisor surfaces the damage instead of restarting from
    // scratch over a corrupt snapshot.
    std::fs::write(&path, &flipped).expect("write");
    let sup = Supervisor::new(CrashPolicy::default());
    let err = sup
        .run(
            &store,
            "zgrab",
            || ZgrabCampaign::new(&pop, 9, &model, Backend::Sequential),
            true,
        )
        .unwrap_err();
    assert!(matches!(err, SuperviseError::Ckpt(_)), "{err:?}");

    // And the pristine bytes still restore exactly.
    std::fs::write(&path, &pristine).expect("write");
    let expected = zgrab_scan_with(&pop, 9, &model);
    let run = sup
        .run(
            &store,
            "zgrab",
            || ZgrabCampaign::new(&pop, 9, &model, Backend::Sequential),
            true,
        )
        .unwrap();
    assert_eq!(run.output, expected);

    // A multi-frame journal: the §4.1 walk's full snapshot, then the
    // deltas of three more checkpoints.
    let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
        total_links: 600,
        users: 40,
        seed: 11,
    }));
    let policy = ProbePolicy::default();
    let walk = || EnumCampaign::new(&service, &policy, 32, Backend::Sequential);
    let mut campaign = walk();
    let mut frames = Vec::new();
    for _ in 0..4 {
        campaign.run_items(50, &AtomicU64::new(0));
        let snap = minedig::primitives::ckpt::Checkpointable::snapshot(&campaign);
        frames.push(store.save("walk", &snap).expect("save") as usize);
    }
    let path = store.path("walk").expect("a saved journal");
    let journal = std::fs::read(&path).expect("read journal");
    assert_eq!(journal.len(), frames.iter().sum::<usize>());
    let last = journal.len() - frames[3];

    // A flipped byte in a middle frame breaks its checksum, and a cut
    // inside the last confirmed frame leaves the journal short of the
    // length its name confirms. The supervisor surfaces either.
    let mut flipped = journal.clone();
    flipped[frames[0] + frames[1] / 2] ^= 0x40;
    std::fs::write(&path, &flipped).expect("write");
    assert!(matches!(
        store.load("walk"),
        Err(CkptError::ChecksumMismatch)
    ));
    let err = sup.run(&store, "walk", walk, true).unwrap_err();
    assert!(matches!(err, SuperviseError::Ckpt(_)), "{err:?}");
    std::fs::write(&path, &journal[..last + frames[3] / 2]).expect("write");
    assert!(matches!(store.load("walk"), Err(CkptError::Truncated)));
    let err = sup.run(&store, "walk", walk, true).unwrap_err();
    assert!(matches!(err, SuperviseError::Ckpt(_)), "{err:?}");

    // The pristine journal resumes the walk bit-identically.
    std::fs::write(&path, &journal).expect("write");
    let run = sup.run(&store, "walk", walk, true).unwrap();
    assert_eq!(run.report.start_progress, 200);
    let clean = enumerate_links_with(&service, 32, &policy);
    assert_eq!(run.output.enumeration.docs, clean.docs);
    assert_eq!(run.output.enumeration.probed, clean.probed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot from one campaign must not restore into a campaign over
/// different inputs (the zone guard in the scan snapshot).
#[test]
fn snapshot_for_another_population_is_rejected() {
    let org = Population::generate(Zone::Org, 7, 10);
    let net = Population::generate(Zone::Net, 7, 10);
    let model = FetchModel::default();
    let mut source = ZgrabCampaign::new(&org, 9, &model, Backend::Sequential);
    source.run_items(5, &AtomicU64::new(0));
    let snap = minedig::primitives::ckpt::Checkpointable::snapshot(&source);
    let mut target = ZgrabCampaign::new(&net, 9, &model, Backend::Sequential);
    assert!(matches!(
        minedig::primitives::ckpt::Checkpointable::restore(&mut target, &snap),
        Err(CkptError::Corrupt(_))
    ));
}
