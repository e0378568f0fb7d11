//! The §3 scans as campaigns: the one way the CLI and the benches
//! (Fig 2's two scan dates among them) run them, on any [`Backend`].
//!
//! Each campaign maps the population's scan order through a per-domain
//! kernel with [`Backend::map_fold`] and folds the verdicts in that
//! order. It runs straight through with
//! [`run_to_end`](minedig_primitives::supervise::run_to_end), or under
//! the [`Supervisor`](minedig_primitives::supervise::Supervisor), which
//! can kill and resume it: the snapshot is the folded outcome so far
//! plus the domain cursor into the scan order. Because per-domain
//! verdicts are pure functions of `(seed, domain name, model)`, a
//! campaign on any backend, resumed or not, is bit for bit identical to
//! the sequential [`zgrab_scan_with`](crate::scan::zgrab_scan_with) and
//! [`chrome_scan_with`](crate::scan::chrome_scan_with) — the property
//! pinned by `tests/backend_matrix.rs` and `tests/checkpoint_resume.rs`.
//!
//! The snapshot codec below is hand-rolled over
//! [`SnapWriter`]/[`SnapReader`] (no serde in the workspace): enums are
//! encoded as stable small tags (`Category` by its position in
//! [`Category::all`], whose order is part of the format), collections
//! are length-prefixed, and decoding rejects unknown tags rather than
//! guessing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::scan::{
    chrome_fold, chrome_probe_domain, scan_item, scan_len, zgrab_fold, zgrab_probe_domain,
    ChromeProbeCtx, ChromeScanOutcome, DomainRef, FetchModel, FetchStats, ZgrabProbeCtx,
    ZgrabScanOutcome,
};
use minedig_nocoin::list::ServiceLabel;
use minedig_nocoin::NoCoinEngine;
use minedig_primitives::ckpt::{Checkpointable, CkptError, SnapReader, SnapWriter, Snapshot};
use minedig_primitives::supervise::{Backend, Campaign};
use minedig_wasm::{FingerprintCache, SignatureDb};
use minedig_web::{Category, Population, Zone};

// ---------------------------------------------------------------------
// Enum tags. Tag values are part of the on-disk format: append-only.
// ---------------------------------------------------------------------

fn put_zone(w: &mut SnapWriter, zone: Zone) {
    w.u64(match zone {
        Zone::Alexa => 0,
        Zone::Com => 1,
        Zone::Net => 2,
        Zone::Org => 3,
    });
}

fn take_zone(r: &mut SnapReader) -> Result<Zone, CkptError> {
    Ok(match r.u64()? {
        0 => Zone::Alexa,
        1 => Zone::Com,
        2 => Zone::Net,
        3 => Zone::Org,
        _ => return Err(CkptError::Corrupt("unknown zone tag")),
    })
}

fn put_label(w: &mut SnapWriter, label: ServiceLabel) {
    w.u64(match label {
        ServiceLabel::Coinhive => 0,
        ServiceLabel::Authedmine => 1,
        ServiceLabel::WpMonero => 2,
        ServiceLabel::Cryptoloot => 3,
        ServiceLabel::Cpmstar => 4,
        ServiceLabel::JsMiner => 5,
        ServiceLabel::Other => 6,
    });
}

fn take_label(r: &mut SnapReader) -> Result<ServiceLabel, CkptError> {
    Ok(match r.u64()? {
        0 => ServiceLabel::Coinhive,
        1 => ServiceLabel::Authedmine,
        2 => ServiceLabel::WpMonero,
        3 => ServiceLabel::Cryptoloot,
        4 => ServiceLabel::Cpmstar,
        5 => ServiceLabel::JsMiner,
        6 => ServiceLabel::Other,
        _ => return Err(CkptError::Corrupt("unknown service-label tag")),
    })
}

fn put_category(w: &mut SnapWriter, cat: Category) {
    let tag = Category::all()
        .iter()
        .position(|c| *c == cat)
        .expect("Category::all covers every variant");
    w.len(tag);
}

fn take_category(r: &mut SnapReader) -> Result<Category, CkptError> {
    Category::all()
        .get(r.len()?)
        .copied()
        .ok_or(CkptError::Corrupt("unknown category tag"))
}

// ---------------------------------------------------------------------
// Struct codecs.
// ---------------------------------------------------------------------

/// Encodes [`FetchStats`] into `w`.
pub fn put_fetch_stats(w: &mut SnapWriter, f: &FetchStats) {
    w.u64(f.attempted);
    w.u64(f.responded);
    w.u64(f.unreachable);
    w.u64(f.silent);
    w.u64(f.retries);
}

/// Decodes [`FetchStats`] from `r`.
pub fn take_fetch_stats(r: &mut SnapReader) -> Result<FetchStats, CkptError> {
    Ok(FetchStats {
        attempted: r.u64()?,
        responded: r.u64()?,
        unreachable: r.u64()?,
        silent: r.u64()?,
        retries: r.u64()?,
    })
}

fn put_dref(w: &mut SnapWriter, d: &DomainRef) {
    w.str(&d.name);
    w.len(d.categories.len());
    for c in &d.categories {
        put_category(w, *c);
    }
    w.bool(d.obscure);
}

fn take_dref(r: &mut SnapReader) -> Result<DomainRef, CkptError> {
    let name = r.str()?;
    let n = r.len()?;
    let mut categories = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        categories.push(take_category(r)?);
    }
    let obscure = r.bool()?;
    Ok(DomainRef {
        name,
        categories,
        obscure,
    })
}

fn put_refs(w: &mut SnapWriter, refs: &[DomainRef]) {
    w.len(refs.len());
    for d in refs {
        put_dref(w, d);
    }
}

fn take_refs(r: &mut SnapReader) -> Result<Vec<DomainRef>, CkptError> {
    let n = r.len()?;
    let mut refs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        refs.push(take_dref(r)?);
    }
    Ok(refs)
}

/// Encodes a [`ZgrabScanOutcome`] into `w`.
pub fn put_zgrab_outcome(w: &mut SnapWriter, o: &ZgrabScanOutcome) {
    put_zone(w, o.zone);
    w.u64(o.total_domains);
    w.u64(o.hit_domains);
    w.len(o.label_counts.len());
    for (label, count) in &o.label_counts {
        put_label(w, *label);
        w.u64(*count);
    }
    w.u64(o.clean_sample_hits);
    w.u64(o.clean_sample_size);
    put_refs(w, &o.hit_refs);
    put_fetch_stats(w, &o.fetch);
}

/// Decodes a [`ZgrabScanOutcome`] from `r`.
pub fn take_zgrab_outcome(r: &mut SnapReader) -> Result<ZgrabScanOutcome, CkptError> {
    let zone = take_zone(r)?;
    let total_domains = r.u64()?;
    let hit_domains = r.u64()?;
    let n = r.len()?;
    let mut label_counts = BTreeMap::new();
    for _ in 0..n {
        let label = take_label(r)?;
        let count = r.u64()?;
        label_counts.insert(label, count);
    }
    let clean_sample_hits = r.u64()?;
    let clean_sample_size = r.u64()?;
    let hit_refs = take_refs(r)?;
    let fetch = take_fetch_stats(r)?;
    Ok(ZgrabScanOutcome {
        zone,
        total_domains,
        hit_domains,
        label_counts,
        clean_sample_hits,
        clean_sample_size,
        hit_refs,
        fetch,
    })
}

/// Encodes a [`ChromeScanOutcome`] into `w`.
pub fn put_chrome_outcome(w: &mut SnapWriter, o: &ChromeScanOutcome) {
    put_zone(w, o.zone);
    w.u64(o.nocoin_domains);
    w.u64(o.wasm_domains);
    w.u64(o.miner_wasm_domains);
    w.u64(o.blocked_by_nocoin);
    w.u64(o.missed_by_nocoin);
    w.u64(o.nocoin_without_wasm);
    w.len(o.class_counts.len());
    for (class, count) in &o.class_counts {
        w.str(class);
        w.u64(*count);
    }
    w.u64(o.unclassified_wasm);
    w.u64(o.clean_sample_miner_hits);
    put_refs(w, &o.nocoin_refs);
    put_refs(w, &o.miner_refs);
    put_fetch_stats(w, &o.fetch);
}

/// Decodes a [`ChromeScanOutcome`] from `r`.
pub fn take_chrome_outcome(r: &mut SnapReader) -> Result<ChromeScanOutcome, CkptError> {
    let zone = take_zone(r)?;
    let nocoin_domains = r.u64()?;
    let wasm_domains = r.u64()?;
    let miner_wasm_domains = r.u64()?;
    let blocked_by_nocoin = r.u64()?;
    let missed_by_nocoin = r.u64()?;
    let nocoin_without_wasm = r.u64()?;
    let n = r.len()?;
    let mut class_counts = BTreeMap::new();
    for _ in 0..n {
        let class = r.str()?;
        let count = r.u64()?;
        class_counts.insert(class, count);
    }
    let unclassified_wasm = r.u64()?;
    let clean_sample_miner_hits = r.u64()?;
    let nocoin_refs = take_refs(r)?;
    let miner_refs = take_refs(r)?;
    let fetch = take_fetch_stats(r)?;
    Ok(ChromeScanOutcome {
        zone,
        nocoin_domains,
        wasm_domains,
        miner_wasm_domains,
        blocked_by_nocoin,
        missed_by_nocoin,
        nocoin_without_wasm,
        class_counts,
        unclassified_wasm,
        clean_sample_miner_hits,
        nocoin_refs,
        miner_refs,
        fetch,
    })
}

// ---------------------------------------------------------------------
// Campaigns.
// ---------------------------------------------------------------------

/// The zgrab + NoCoin scan as a killable, resumable campaign.
///
/// One item = one domain of the population's scan order (artifacts
/// first, then the clean sample). The cursor is the index of the next
/// unscanned domain; the snapshot is `(cursor, outcome-so-far)`.
pub struct ZgrabCampaign<'a> {
    population: &'a Population,
    seed: u64,
    model: &'a FetchModel,
    engine: NoCoinEngine,
    backend: Backend,
    outcome: ZgrabScanOutcome,
    cursor: u64,
}

impl<'a> ZgrabCampaign<'a> {
    /// A fresh campaign at cursor 0.
    pub fn new(
        population: &'a Population,
        seed: u64,
        model: &'a FetchModel,
        backend: Backend,
    ) -> ZgrabCampaign<'a> {
        ZgrabCampaign {
            population,
            seed,
            model,
            engine: NoCoinEngine::new(),
            backend,
            outcome: ZgrabScanOutcome::empty(population.zone),
            cursor: 0,
        }
    }

    fn total_items(&self) -> u64 {
        scan_len(self.population) as u64
    }
}

impl Checkpointable for ZgrabCampaign<'_> {
    fn progress_key(&self) -> u64 {
        self.cursor
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapWriter::new();
        w.u64(self.cursor);
        put_zgrab_outcome(&mut w, &self.outcome);
        Snapshot::new(self.cursor, w.finish())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), CkptError> {
        let mut r = SnapReader::new(snapshot.full_payload()?);
        let cursor = r.u64()?;
        let outcome = take_zgrab_outcome(&mut r)?;
        r.expect_end()?;
        if outcome.zone != self.population.zone {
            return Err(CkptError::Corrupt("snapshot is for a different zone"));
        }
        if cursor > self.total_items() {
            return Err(CkptError::Corrupt("cursor beyond population"));
        }
        self.cursor = cursor;
        self.outcome = outcome;
        Ok(())
    }
}

impl Campaign for ZgrabCampaign<'_> {
    type Output = ZgrabScanOutcome;

    fn is_done(&self) -> bool {
        self.cursor >= self.total_items()
    }

    fn run_items(&mut self, budget: u64, heartbeat: &AtomicU64) {
        let end = self.cursor.saturating_add(budget).min(self.total_items());
        if end == self.cursor {
            return;
        }
        let (population, model) = (self.population, self.model);
        let ctx = ZgrabProbeCtx {
            seed: self.seed,
            model,
            engine: &self.engine,
        };
        let outcome =
            std::mem::replace(&mut self.outcome, ZgrabScanOutcome::empty(population.zone));
        self.outcome = self.backend.map_fold(
            self.cursor..end,
            |i| {
                let (d, clean) = scan_item(population, i as usize);
                (zgrab_probe_domain(&ctx, d), clean)
            },
            outcome,
            |acc, (verdict, clean)| {
                zgrab_fold(acc, verdict, clean);
                ControlFlow::Continue(())
            },
        );
        heartbeat.fetch_add(end - self.cursor, Ordering::Relaxed);
        self.cursor = end;
    }

    fn finish(mut self) -> ZgrabScanOutcome {
        self.outcome.total_domains = self.population.total;
        self.outcome
    }
}

/// The instrumented-browser scan as a killable, resumable campaign —
/// the Chrome counterpart of [`ZgrabCampaign`], with the same
/// cursor-plus-outcome snapshot.
pub struct ChromeCampaign<'a> {
    population: &'a Population,
    db: &'a SignatureDb,
    seed: u64,
    model: &'a FetchModel,
    engine: NoCoinEngine,
    cache: Option<&'a FingerprintCache>,
    backend: Backend,
    outcome: ChromeScanOutcome,
    cursor: u64,
}

impl<'a> ChromeCampaign<'a> {
    /// A fresh campaign at cursor 0. `cache`, when given, memoizes Wasm
    /// fingerprints across domains on every backend; it stores pure
    /// per-module fingerprints only, so outcomes are identical without
    /// it.
    pub fn new(
        population: &'a Population,
        db: &'a SignatureDb,
        seed: u64,
        model: &'a FetchModel,
        cache: Option<&'a FingerprintCache>,
        backend: Backend,
    ) -> ChromeCampaign<'a> {
        ChromeCampaign {
            population,
            db,
            seed,
            model,
            engine: NoCoinEngine::new(),
            cache,
            backend,
            outcome: ChromeScanOutcome::empty(population.zone),
            cursor: 0,
        }
    }

    fn total_items(&self) -> u64 {
        scan_len(self.population) as u64
    }
}

impl Checkpointable for ChromeCampaign<'_> {
    fn progress_key(&self) -> u64 {
        self.cursor
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapWriter::new();
        w.u64(self.cursor);
        put_chrome_outcome(&mut w, &self.outcome);
        Snapshot::new(self.cursor, w.finish())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), CkptError> {
        let mut r = SnapReader::new(snapshot.full_payload()?);
        let cursor = r.u64()?;
        let outcome = take_chrome_outcome(&mut r)?;
        r.expect_end()?;
        if outcome.zone != self.population.zone {
            return Err(CkptError::Corrupt("snapshot is for a different zone"));
        }
        if cursor > self.total_items() {
            return Err(CkptError::Corrupt("cursor beyond population"));
        }
        self.cursor = cursor;
        self.outcome = outcome;
        Ok(())
    }
}

impl Campaign for ChromeCampaign<'_> {
    type Output = ChromeScanOutcome;

    fn is_done(&self) -> bool {
        self.cursor >= self.total_items()
    }

    fn run_items(&mut self, budget: u64, heartbeat: &AtomicU64) {
        thread_local! {
            /// Each thread's reusable Wasm encode buffer.
            static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        let end = self.cursor.saturating_add(budget).min(self.total_items());
        if end == self.cursor {
            return;
        }
        let (population, model) = (self.population, self.model);
        let ctx = ChromeProbeCtx::new(self.seed, model, &self.engine, self.db, self.cache);
        let outcome =
            std::mem::replace(&mut self.outcome, ChromeScanOutcome::empty(population.zone));
        self.outcome = self.backend.map_fold(
            self.cursor..end,
            |i| {
                let (d, clean) = scan_item(population, i as usize);
                let verdict =
                    SCRATCH.with_borrow_mut(|scratch| chrome_probe_domain(&ctx, d, scratch));
                (verdict, clean)
            },
            outcome,
            |acc, (verdict, clean)| {
                chrome_fold(acc, verdict, clean);
                ControlFlow::Continue(())
            },
        );
        heartbeat.fetch_add(end - self.cursor, Ordering::Relaxed);
        self.cursor = end;
    }

    fn finish(self) -> ChromeScanOutcome {
        self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{build_reference_db, chrome_scan, zgrab_scan};
    use minedig_primitives::ckpt::SnapshotStore;
    use minedig_primitives::supervise::{CrashPolicy, Supervisor};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("minedig-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn zgrab_outcome_codec_roundtrips() {
        let pop = Population::generate(Zone::Org, 11, 25);
        let outcome = zgrab_scan(&pop, 11);
        let mut w = SnapWriter::new();
        put_zgrab_outcome(&mut w, &outcome);
        let payload = w.finish();
        let mut r = SnapReader::new(&payload);
        let back = take_zgrab_outcome(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, outcome);
    }

    #[test]
    fn chrome_outcome_codec_roundtrips() {
        let pop = Population::generate(Zone::Net, 12, 25);
        let db = build_reference_db(0.7);
        let outcome = chrome_scan(&pop, &db, 12);
        let mut w = SnapWriter::new();
        put_chrome_outcome(&mut w, &outcome);
        let payload = w.finish();
        let mut r = SnapReader::new(&payload);
        let back = take_chrome_outcome(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, outcome);
    }

    #[test]
    fn supervised_zgrab_with_kills_matches_uninterrupted() {
        let pop = Population::generate(Zone::Org, 42, 40);
        let model = FetchModel::default();
        let expected = zgrab_scan(&pop, 1);
        let dir = tmpdir("zgrab");
        let store = SnapshotStore::open(&dir).unwrap();
        let sup = Supervisor::new(CrashPolicy {
            ckpt_every_items: 16,
            ..CrashPolicy::default()
        })
        .with_kills(vec![3, 20, 33]);
        let run = sup
            .run(
                &store,
                "zgrab-org",
                || ZgrabCampaign::new(&pop, 1, &model, Backend::Sequential),
                false,
            )
            .unwrap();
        assert_eq!(run.output, expected);
        assert_eq!(run.report.crashes, 3);
        assert!(run.report.balanced(), "{:?}", run.report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervised_chrome_with_kills_matches_uninterrupted_on_every_backend() {
        let pop = Population::generate(Zone::Org, 42, 30);
        let db = build_reference_db(0.7);
        let model = FetchModel::default();
        let expected = chrome_scan(&pop, &db, 1);
        for backend in [Backend::Sequential, Backend::Sharded(3)] {
            let dir = tmpdir(&format!("chrome-{backend}"));
            let store = SnapshotStore::open(&dir).unwrap();
            let sup = Supervisor::new(CrashPolicy {
                ckpt_every_items: 8,
                ..CrashPolicy::default()
            })
            .with_kills(vec![5, 19]);
            let run = sup
                .run(
                    &store,
                    "chrome-org",
                    || ChromeCampaign::new(&pop, &db, 1, &model, None, backend),
                    false,
                )
                .unwrap();
            assert_eq!(run.output, expected, "backend={backend}");
            assert!(run.report.balanced(), "{:?}", run.report);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unbounded_budget_after_a_restore_finishes_the_scan() {
        // A restored cursor plus `u64::MAX` must saturate at the end of
        // the population, not wrap back and rescan into the restored
        // outcome.
        let pop = Population::generate(Zone::Org, 42, 40);
        let db = build_reference_db(0.7);
        let model = FetchModel::default();
        let heartbeat = AtomicU64::new(0);
        for backend in [Backend::Sequential, Backend::Sharded(2)] {
            let mut zg = ZgrabCampaign::new(&pop, 1, &model, backend);
            zg.run_items(17, &heartbeat);
            let snap = zg.snapshot();
            let mut zg = ZgrabCampaign::new(&pop, 1, &model, backend);
            zg.restore(&snap).unwrap();
            while !zg.is_done() {
                zg.run_items(u64::MAX, &heartbeat);
            }
            assert_eq!(zg.finish(), zgrab_scan(&pop, 1), "backend={backend}");

            let mut ch = ChromeCampaign::new(&pop, &db, 1, &model, None, backend);
            ch.run_items(23, &heartbeat);
            let snap = ch.snapshot();
            let mut ch = ChromeCampaign::new(&pop, &db, 1, &model, None, backend);
            ch.restore(&snap).unwrap();
            while !ch.is_done() {
                ch.run_items(u64::MAX, &heartbeat);
            }
            assert_eq!(ch.finish(), chrome_scan(&pop, &db, 1), "backend={backend}");
        }
    }

    #[test]
    fn restore_rejects_a_snapshot_from_another_zone() {
        let org = Population::generate(Zone::Org, 7, 10);
        let net = Population::generate(Zone::Net, 7, 10);
        let model = FetchModel::default();
        let mut a = ZgrabCampaign::new(&org, 1, &model, Backend::Sequential);
        a.run_items(5, &AtomicU64::new(0));
        let snap = a.snapshot();
        let mut b = ZgrabCampaign::new(&net, 1, &model, Backend::Sequential);
        assert!(matches!(b.restore(&snap), Err(CkptError::Corrupt(_))));
    }
}
