//! Mutation robustness of snapshot journals: random byte flips,
//! truncations and insertions applied to a §4.1 walk's journal must
//! give, through `SnapshotStore::load` and `restore`, a typed error or
//! exactly the state of the last confirmed checkpoint — never a panic,
//! and never older progress.
//!
//! A journal on disk is untrusted input: a kill can leave an append
//! half-written, and bytes can rot. The resume contract holds only if
//! no damage can restore a wrong walk.

use minedig::primitives::ckpt::{Checkpointable, SnapshotStore};
use minedig::primitives::fault::FaultPlan;
use minedig::primitives::supervise::{run_to_end, Backend, Campaign};
use minedig::primitives::DetRng;
use minedig::shortlink::campaign::{EnumCampaign, EnumCampaignOutput};
use minedig::shortlink::model::{LinkPopulation, ModelConfig};
use minedig::shortlink::probe::{FaultyProber, ProbePolicy};
use minedig::shortlink::service::{ShortlinkService, VisitDoc};
use std::path::Path;
use std::sync::atomic::AtomicU64;

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
