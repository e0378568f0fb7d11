//! The supervised path: the three experiments at reduced scale as
//! checkpointed campaigns under injected transient faults (and, for the
//! poller, the endpoint-health layer), then a resume pass over the same
//! snapshot directory.
//!
//! The traced run drives each campaign through the `Campaign` and
//! `Checkpointable` traits with the supervisor's default cadence (a
//! snapshot every 64 items and one at the end), so snapshot encoding,
//! the atomic save and the restore can each be timed.

use crate::trace::span;
use crate::{attribute, scan, shortlink, Layers};
use minedig::analysis::poller::{FaultyJobSource, Observer, PollPolicy};
use minedig::analysis::scenario::ScenarioCampaign;
use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::scan::{build_reference_db, FetchModel};
use minedig::pool::Pool;
use minedig::primitives::health::HealthConfig;
use minedig::primitives::retry::RetryPolicy;
use minedig::primitives::{Backend, Campaign, FaultPlan, SnapshotStore};
use minedig::shortlink::campaign::EnumCampaign;
use minedig::shortlink::probe::ProbePolicy;
use minedig::wasm::FingerprintCache;
use minedig::web::universe::Population;
use minedig::web::zone::Zone;
use std::path::Path;
use std::sync::atomic::AtomicU64;

/// Zones of the reduced scan: the two the paper loaded in Chrome.
pub const ZONES: [Zone; 2] = [Zone::Alexa, Zone::Org];

/// Links of the reduced short-link study (the CLI's default).
pub const LINKS: u64 = 50_000;

/// Days of the reduced attribution run.
pub const DAYS: u64 = 1;

/// The supervisor's default checkpoint cadence, in items.
const CKPT_EVERY: u64 = 64;

/// The reduced inputs: both scan zones and the reference DB, the link
/// universe and service, the pool and chain simulator.
pub fn setup(seed: u64) {
    for zone in ZONES {
        std::hint::black_box(Population::generate(zone, seed, 500));
    }
    std::hint::black_box(build_reference_db(0.7));
    std::hint::black_box(shortlink::setup(LINKS, seed));
    std::hint::black_box(attribute::setup(&attribute::config(DAYS, seed)));
}

/// One pass over the three supervised campaigns, checkpointing into
/// `dir`; with `resume`, each campaign first restores its latest
/// snapshot. Returns the CLI's result lines.
pub fn traced(dir: &Path, seed: u64, resume: bool, layers: &mut Layers) -> Vec<String> {
    let store = SnapshotStore::open(dir).expect("open the checkpoint directory");
    let plan = FaultPlan::new(seed);
    let backend = Backend::Sequential;
    let mut lines = Vec::new();

    let model = FetchModel::outlasting(plan.clone());
    for zone in ZONES {
        let tag = scan::zone_arg(zone);
        let pop = span("web.population", || Population::generate(zone, seed, 500));
        lines.push(format!(
            "ground truth: {} active miners",
            pop.true_active_miners()
        ));
        let zg = drive(
            &store,
            &format!("scan-zgrab-{tag}-{seed}"),
            ZgrabCampaign::new(&pop, seed, &model, backend),
            resume,
            layers,
        );
        lines.extend(scan::zgrab_lines(&zg));
        let db = span("web.population", || build_reference_db(0.7));
        let cache = FingerprintCache::new();
        let ch = drive(
            &store,
            &format!("scan-chrome-{tag}-{seed}"),
            ChromeCampaign::new(&pop, &db, seed, &model, Some(&cache), backend),
            resume,
            layers,
        );
        lines.extend(scan::chrome_lines(&ch));
    }

    let service = span("shortlink.service", || shortlink::setup(LINKS, seed));
    let probe = ProbePolicy::default();
    let walk = EnumCampaign::new(&service, &probe, shortlink::DEAD_RUN_LIMIT, backend)
        .with_tail_resolver(&service, shortlink::RESOLVE_BUDGET);
    let out = drive(
        &store,
        &format!("shortlink-{LINKS}-{seed}"),
        walk,
        resume,
        layers,
    );
    lines.extend(shortlink::analyze(
        &service,
        out.enumeration,
        out.resolve_report,
        seed,
        layers,
    ));

    let mut config = attribute::config(DAYS, seed);
    config.poll_retry = RetryPolicy::attempts(plan.attempts_to_clear());
    config.poll_faults = Some(plan.clone());
    config.poll_health = Some(HealthConfig {
        seed,
        ..HealthConfig::default()
    });
    let pool = Pool::new(config.pool.clone());
    let policy = PollPolicy {
        retry: config.poll_retry.clone(),
        jitter_seed: plan.seed(),
    };
    let source = FaultyJobSource::new(pool.clone(), plan);
    let observer = Observer::with_source(source, true, policy)
        .with_health(config.poll_health.clone().expect("set above"));
    let campaign = ScenarioCampaign::new(config, pool, observer);
    let result = drive(
        &store,
        &format!("attribute-{DAYS}-{seed}"),
        campaign,
        resume,
        layers,
    );
    lines.extend(attribute::scenario_lines(&result));
    lines
}

/// Runs `campaign` to completion the way the supervisor does without
/// kills: chunks of at most `CKPT_EVERY` items, a snapshot after each
/// full chunk and one at the end, optionally restoring the latest
/// snapshot first.
fn drive<C: Campaign>(
    store: &SnapshotStore,
    name: &str,
    mut campaign: C,
    resume: bool,
    layers: &mut Layers,
) -> C::Output {
    if resume {
        span("ckpt.restore", || {
            let snap = store.load(name).expect("load the latest snapshot");
            if let Some(snap) = snap {
                campaign.restore(&snap).expect("restore the snapshot");
            }
        });
    }
    let heartbeat = AtomicU64::new(0);
    let mut restore_point = campaign.progress_key();
    let checkpoint = |campaign: &C, layers: &mut Layers| {
        let snap = span("ckpt.snapshot", || campaign.snapshot());
        let bytes = span("ckpt.save", || store.save(name, &snap)).expect("save a snapshot");
        layers.count("ckpt.snapshots", 1.0);
        layers.count("ckpt.snapshot_bytes", bytes as f64);
    };
    while !campaign.is_done() {
        let progress = campaign.progress_key();
        let budget = CKPT_EVERY.saturating_sub(progress - restore_point).max(1);
        span("supervise.run_items", || {
            campaign.run_items(budget, &heartbeat)
        });
        let after = campaign.progress_key();
        if after - restore_point >= CKPT_EVERY {
            checkpoint(&campaign, layers);
            restore_point = after;
        }
    }
    checkpoint(&campaign, layers);
    campaign.finish()
}
