//! The §4.1 enumeration (plus optional accounted resolution of the
//! unbiased tail) as a killable, resumable [`Campaign`].
//!
//! One item = one probed ID. The walk keeps one [`Sighting`] per live
//! link: the link's index, its creator's token and its requirement, the
//! two fields the paper scraped from each link, in 16 bytes with no heap
//! allocation of their own. The map step turns each probe's
//! [`VisitDoc`] into a sighting on the worker that probed it, so each
//! doc's code string is freed on the thread that allocated it.
//!
//! The first snapshot is the ledger so far (sightings, counters), the
//! current dead run, and — when resolution rides along — the accounted
//! [`ResolveReport`]. Both ledgers only grow, so every later snapshot is
//! a delta: the sightings and resolved links appended since the
//! snapshot before it, plus the counters. A sighting is written in a
//! doc's layout (its code, token and requirement), so the journal holds
//! the docs the walk found. A checkpoint thus costs what the walk did
//! since the last one, and the bytes a walk writes grow linearly with
//! it. Because probe results and retry jitter are keyed by link code
//! (never probing order), re-probing `[cursor, …)` after a restore
//! replays exactly the suffix the sequential walk would have produced,
//! so kill-and-resume is bit-identical to an uninterrupted run on any
//! backend.

use crate::enumerate::Enumeration;
use crate::ids::{code_to_index, index_to_code};
use crate::probe::{probe_with_retry, LinkProber, ProbeError, ProbePolicy};
use crate::resolve::{resolve_step, ResolveReport};
use crate::service::{ShortlinkService, VisitDoc};
use minedig_primitives::ckpt::{Checkpointable, CkptError, SnapReader, SnapWriter, Snapshot};
use minedig_primitives::supervise::{Backend, Campaign};
use minedig_primitives::IdSet;
use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicU64;

// ---------------------------------------------------------------------
// The walk's ledger.
// ---------------------------------------------------------------------

/// One live link as the walk keeps it: what the link's document told
/// the walk, keyed by the link's index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sighting {
    /// The link's index; its code is [`index_to_code`] of it.
    pub index: u32,
    /// The creator's token.
    pub token: u32,
    /// Hashes required to release the redirect.
    pub required_hashes: u64,
}

impl Sighting {
    /// The sighting of `doc`, the document the probe of link `index`
    /// returned.
    ///
    /// # Panics
    ///
    /// If `index` or the doc's token does not fit a `u32`: a walk that
    /// finds a live link past `u32::MAX` probes, or a prober that hands
    /// out tokens the link model cannot generate.
    pub fn of(index: u64, doc: &VisitDoc) -> Sighting {
        Sighting {
            index: u32::try_from(index)
                .unwrap_or_else(|_| panic!("link index {index} does not fit a sighting's u32")),
            token: u32::try_from(doc.token_id)
                .unwrap_or_else(|_| panic!("token {} does not fit a sighting's u32", doc.token_id)),
            required_hashes: doc.required_hashes,
        }
    }

    /// The link's short code.
    pub fn code(&self) -> String {
        index_to_code(u64::from(self.index))
    }

    /// The document the link's probe returned.
    pub fn doc(&self) -> VisitDoc {
        VisitDoc {
            code: self.code(),
            token_id: u64::from(self.token),
            required_hashes: self.required_hashes,
        }
    }
}

/// The walk's probe counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkCounts {
    /// Number of codes probed (live + dead + failed up to the stop).
    pub probed: u64,
    /// Probes that exhausted their retry budget — transport casualties,
    /// deliberately kept distinct from dead IDs.
    pub failed_probes: u64,
    /// Total retries spent recovering transient probe failures.
    pub probe_retries: u64,
}

/// A finished walk as [`EnumCampaign`] keeps it, with no doc per live
/// link.
#[derive(Debug)]
pub struct WalkLedger {
    /// One sighting per live link, in index order.
    pub sightings: Vec<Sighting>,
    /// The walk's probe counters.
    pub counts: WalkCounts,
    /// The accounted resolution ledger, folded in ID order
    /// (default-empty when no resolver rode along).
    pub resolve_report: ResolveReport,
}

// ---------------------------------------------------------------------
// Snapshot codec.
// ---------------------------------------------------------------------

/// Writes `s` in a [`VisitDoc`]'s layout: its code, token and
/// requirement.
fn put_sighting(w: &mut SnapWriter, s: &Sighting) {
    w.str(&s.code());
    w.u64(u64::from(s.token));
    w.u64(s.required_hashes);
}

fn take_sighting(r: &mut SnapReader) -> Result<Sighting, CkptError> {
    let index = code_to_index(&r.str()?).ok_or(CkptError::Corrupt("short code does not decode"))?;
    Ok(Sighting {
        index: u32::try_from(index).map_err(|_| CkptError::Corrupt("link index beyond u32"))?,
        token: u32::try_from(r.u64()?).map_err(|_| CkptError::Corrupt("token beyond u32"))?,
        required_hashes: r.u64()?,
    })
}

/// Encodes `sightings` — all of a walk's, or the ones a delta appends —
/// then `counts`, in [`take_walk`]'s layout.
fn put_walk(w: &mut SnapWriter, sightings: &[Sighting], counts: &WalkCounts) {
    w.len(sightings.len());
    for s in sightings {
        put_sighting(w, s);
    }
    w.u64(counts.probed);
    w.u64(counts.failed_probes);
    w.u64(counts.probe_retries);
}

/// Decodes what [`put_walk`] wrote: appends the sightings to
/// `sightings` and returns the counters.
fn take_walk(r: &mut SnapReader, sightings: &mut Vec<Sighting>) -> Result<WalkCounts, CkptError> {
    for _ in 0..r.len()? {
        sightings.push(take_sighting(r)?);
    }
    Ok(WalkCounts {
        probed: r.u64()?,
        failed_probes: r.u64()?,
        probe_retries: r.u64()?,
    })
}

/// Encodes a [`ResolveReport`] into `w`.
pub fn put_resolve_report(w: &mut SnapWriter, rep: &ResolveReport) {
    put_resolved(w, &rep.resolved, rep);
}

/// Encodes `resolved` — all of `rep`'s, or the links a delta appends —
/// then `rep`'s counters, in [`take_resolve_report`]'s layout.
fn put_resolved(w: &mut SnapWriter, resolved: &[(String, String)], rep: &ResolveReport) {
    w.len(resolved.len());
    for (code, url) in resolved {
        w.str(code);
        w.str(url);
    }
    w.u64(rep.skipped_over_budget);
    w.u64(rep.visit_failures);
    w.u64(rep.hashes_spent);
}

/// Decodes a [`ResolveReport`] from `r`.
pub fn take_resolve_report(r: &mut SnapReader) -> Result<ResolveReport, CkptError> {
    let n = r.len()?;
    let mut resolved = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let code = r.str()?;
        let url = r.str()?;
        resolved.push((code, url));
    }
    Ok(ResolveReport {
        resolved,
        skipped_over_budget: r.u64()?,
        visit_failures: r.u64()?,
        hashes_spent: r.u64()?,
    })
}

// ---------------------------------------------------------------------
// The campaign.
// ---------------------------------------------------------------------

/// How far the snapshot journal reaches: the progress key and ledger
/// lengths of the last snapshot taken or restored.
#[derive(Clone, Copy, Debug)]
struct Journaled {
    key: u64,
    sightings: usize,
    resolved: usize,
}

/// The ID-space walk (optionally with accounted resolution of the
/// unbiased tail riding on each live find) as a supervised campaign.
pub struct EnumCampaign<'a, P: LinkProber + Sync> {
    prober: &'a P,
    policy: &'a ProbePolicy,
    dead_run_limit: u64,
    backend: Backend,
    /// `Some` when accounted resolution of the unbiased tail rides
    /// along (see [`EnumCampaign::with_tail_resolver`]): the service to
    /// redeem against and the per-link hash budget.
    resolver: Option<(&'a ShortlinkService, u64)>,
    /// The `(token, requirement)` pairs seen, when a resolver rides
    /// along. They are not snapshotted; they are rebuilt from
    /// `sightings` on restore, since every live link entered them
    /// exactly once.
    seen: IdSet<(u32, u64)>,
    /// One sighting per live link so far, in index order.
    sightings: Vec<Sighting>,
    counts: WalkCounts,
    resolve_report: ResolveReport,
    dead_run: u64,
    /// What the journal holds once a snapshot was taken or restored:
    /// the next snapshot is a delta over it. A `Cell` because
    /// `snapshot` takes `&self`. Should a delta go unsaved, the store
    /// refuses the next one, whose base key it does not hold.
    journaled: Cell<Option<Journaled>>,
}

/// What a finished [`EnumCampaign`] yields as its [`Campaign::Output`]:
/// the enumeration, with a [`VisitDoc`] rebuilt for every sighting, plus
/// the accounted resolution ledger (default-empty when no resolver rode
/// along). A caller that needs no docs takes
/// [`EnumCampaign::into_ledger`] instead.
#[derive(Clone, Debug)]
pub struct EnumCampaignOutput {
    /// The walk's ledger, identical to `enumerate_links_with`.
    pub enumeration: Enumeration,
    /// The accounted resolution ledger, folded in ID order.
    pub resolve_report: ResolveReport,
}

impl<'a, P: LinkProber + Sync> EnumCampaign<'a, P> {
    /// A fresh walk from index 0.
    pub fn new(
        prober: &'a P,
        policy: &'a ProbePolicy,
        dead_run_limit: u64,
        backend: Backend,
    ) -> EnumCampaign<'a, P> {
        EnumCampaign {
            prober,
            policy,
            dead_run_limit,
            backend,
            resolver: None,
            seen: IdSet::default(),
            sightings: Vec::new(),
            counts: WalkCounts::default(),
            resolve_report: ResolveReport::default(),
            dead_run: 0,
            journaled: Cell::new(None),
        }
    }

    /// Rides *unbiased-tail* resolution on the walk — the §4.1 study's
    /// resolve stage: only the first sighting of each
    /// `(token, requirement)` pair is resolved, and only when under
    /// `budget_per_link`. Because the tail [`ResolveReport`] is part of
    /// the campaign snapshot, a killed study resumes the resolve stage
    /// too instead of re-resolving from scratch.
    pub fn with_tail_resolver(
        mut self,
        service: &'a ShortlinkService,
        budget_per_link: u64,
    ) -> EnumCampaign<'a, P> {
        self.resolver = Some((service, budget_per_link));
        self
    }

    /// The walk's ledger as it keeps it: one sighting per live link, no
    /// doc.
    pub fn into_ledger(self) -> WalkLedger {
        WalkLedger {
            sightings: self.sightings,
            counts: self.counts,
            resolve_report: self.resolve_report,
        }
    }

    /// Folds the next probe of the walk, in index order: the sequential
    /// dead-run fold. Breaks once the dead run reaches the limit, so
    /// probes mapped past the stop are discarded.
    fn fold_probe(
        &mut self,
        result: Result<Option<Sighting>, ProbeError>,
        retries: u32,
    ) -> ControlFlow<()> {
        let counts = &mut self.counts;
        counts.probed += 1;
        counts.probe_retries += u64::from(retries);
        match result {
            Ok(Some(sighting)) => {
                self.dead_run = 0;
                if let Some((service, budget_per_link)) = self.resolver {
                    // Only the first sighting of a (token, requirement)
                    // pair under budget joins the resolve set — the
                    // §4.1 unbiased filter.
                    let wanted = self.seen.insert((sighting.token, sighting.required_hashes))
                        && sighting.required_hashes < budget_per_link;
                    if wanted {
                        resolve_step(
                            service,
                            &mut self.resolve_report,
                            &sighting.code(),
                            budget_per_link,
                        );
                    }
                }
                self.sightings.push(sighting);
            }
            Ok(None) => self.dead_run += 1,
            // Neutral: not evidence of a dead ID, not a live link.
            Err(_) => counts.failed_probes += 1,
        }
        if self.is_done() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

impl<P: LinkProber + Sync> Checkpointable for EnumCampaign<'_, P> {
    fn progress_key(&self) -> u64 {
        self.counts.probed
    }

    /// The full state the first time; after that, a delta carrying the
    /// sightings and resolved links appended since the last snapshot
    /// and the counters (the resolver flags are fixed by the base).
    fn snapshot(&self) -> Snapshot {
        let rep = &self.resolve_report;
        let now = Journaled {
            key: self.counts.probed,
            sightings: self.sightings.len(),
            resolved: rep.resolved.len(),
        };
        let mut w = SnapWriter::new();
        let snap = match self.journaled.get() {
            None => {
                put_walk(&mut w, &self.sightings, &self.counts);
                w.u64(self.dead_run);
                w.bool(self.resolver.is_some());
                if self.resolver.is_some() {
                    // The resolver's mode: the unbiased tail, the only
                    // one a walk resolves in.
                    w.bool(true);
                    put_resolve_report(&mut w, rep);
                }
                Snapshot::new(now.key, w.finish())
            }
            Some(base) => {
                put_walk(&mut w, &self.sightings[base.sightings..], &self.counts);
                w.u64(self.dead_run);
                if self.resolver.is_some() {
                    put_resolved(&mut w, &rep.resolved[base.resolved..], rep);
                }
                Snapshot::delta(base.key, now.key, w.finish())
            }
        };
        self.journaled.set(Some(now));
        snap
    }

    /// Applies the full snapshot, then each delta it carries, in order.
    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), CkptError> {
        if let Some(base_key) = snapshot.base_key {
            return Err(CkptError::BaseMismatch {
                base_key,
                last_key: None,
            });
        }
        let mut r = SnapReader::new(&snapshot.payload);
        let mut sightings = Vec::new();
        let mut counts = take_walk(&mut r, &mut sightings)?;
        let mut dead_run = r.u64()?;
        let had_resolver = r.bool()?;
        if had_resolver != self.resolver.is_some() {
            return Err(CkptError::Corrupt("resolver presence mismatch"));
        }
        let mut resolve_report = if had_resolver {
            if !r.bool()? {
                return Err(CkptError::Corrupt("resolver mode mismatch"));
            }
            take_resolve_report(&mut r)?
        } else {
            ResolveReport::default()
        };
        r.expect_end()?;
        let mut key = snapshot.progress_key;
        for delta in &snapshot.deltas {
            match delta.base_key {
                Some(base_key) if base_key == key => {}
                Some(base_key) => {
                    return Err(CkptError::BaseMismatch {
                        base_key,
                        last_key: Some(key),
                    })
                }
                None => return Err(CkptError::Corrupt("full snapshot among deltas")),
            }
            let mut r = SnapReader::new(&delta.payload);
            counts = take_walk(&mut r, &mut sightings)?;
            dead_run = r.u64()?;
            if had_resolver {
                let step = take_resolve_report(&mut r)?;
                resolve_report.resolved.extend(step.resolved);
                resolve_report.skipped_over_budget = step.skipped_over_budget;
                resolve_report.visit_failures = step.visit_failures;
                resolve_report.hashes_spent = step.hashes_spent;
            }
            r.expect_end()?;
            key = delta.progress_key;
        }
        if dead_run > self.dead_run_limit {
            return Err(CkptError::Corrupt("dead run beyond limit"));
        }
        // Rebuild the tail filter's pairs: every live link the
        // checkpointed walk saw inserted its pair exactly once.
        self.seen = if had_resolver {
            sightings
                .iter()
                .map(|s| (s.token, s.required_hashes))
                .collect()
        } else {
            IdSet::default()
        };
        self.journaled.set(Some(Journaled {
            key,
            sightings: sightings.len(),
            resolved: resolve_report.resolved.len(),
        }));
        self.sightings = sightings;
        self.counts = counts;
        self.dead_run = dead_run;
        self.resolve_report = resolve_report;
        Ok(())
    }
}

impl<P: LinkProber + Sync> Campaign for EnumCampaign<'_, P> {
    type Output = EnumCampaignOutput;

    fn is_done(&self) -> bool {
        self.dead_run >= self.dead_run_limit
    }

    fn run_items(&mut self, budget: u64, _heartbeat: &AtomicU64) {
        if self.is_done() {
            return;
        }
        let base = self.counts.probed;
        let (prober, policy) = (self.prober, self.policy);
        let backend = self.backend;
        backend.map_fold(
            base..base.saturating_add(budget),
            |i| {
                let (result, retries) = probe_with_retry(prober, &index_to_code(i), policy);
                // Converted on the worker that probed, which frees the
                // doc's code there.
                let sighting = result.map(|doc| doc.map(|d| Sighting::of(i, &d)));
                (sighting, retries)
            },
            (),
            |_, (result, retries)| self.fold_probe(result, retries),
        );
    }

    /// Rebuilds a [`VisitDoc`] for every sighting: callers that read
    /// [`Enumeration::docs`] need them.
    fn finish(self) -> EnumCampaignOutput {
        let WalkLedger {
            sightings,
            counts,
            resolve_report,
        } = self.into_ledger();
        EnumCampaignOutput {
            enumeration: Enumeration {
                docs: sightings.iter().map(Sighting::doc).collect(),
                probed: counts.probed,
                failed_probes: counts.failed_probes,
                probe_retries: counts.probe_retries,
            },
            resolve_report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_links_with;
    use crate::model::{LinkPopulation, ModelConfig};
    use crate::resolve::resolve_accounted;
    use minedig_primitives::ckpt::SnapshotStore;
    use minedig_primitives::supervise::{CrashPolicy, Supervisor};

    fn service() -> ShortlinkService {
        ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: 600,
            users: 40,
            seed: 11,
        }))
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("minedig-enum-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_enum_eq(a: &Enumeration, b: &Enumeration) {
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.probed, b.probed);
        assert_eq!(a.failed_probes, b.failed_probes);
        assert_eq!(a.probe_retries, b.probe_retries);
    }

    #[test]
    fn supervised_walk_with_kills_matches_sequential_on_every_backend() {
        let service = service();
        let policy = ProbePolicy::default();
        let expected = enumerate_links_with(&service, 32, &policy);
        for backend in [Backend::Sequential, Backend::Sharded(3)] {
            let dir = tmpdir(&format!("walk-{backend}"));
            let store = SnapshotStore::open(&dir).unwrap();
            let sup = Supervisor::new(CrashPolicy {
                ckpt_every_items: 64,
                ..CrashPolicy::default()
            })
            .with_kills(vec![40, 170, 600]);
            let run = sup
                .run(
                    &store,
                    "enum",
                    || EnumCampaign::new(&service, &policy, 32, backend),
                    false,
                )
                .unwrap();
            assert_enum_eq(&run.output.enumeration, &expected);
            assert!(run.report.balanced(), "{:?}", run.report);
            assert_eq!(run.report.crashes, 3, "backend={}", backend);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn tail_resolution_survives_kills_on_every_backend() {
        // The §4.1 resolve stage riding on the walk: the checkpointed
        // tail report must match the batch filter-then-resolve exactly,
        // even when the campaign is killed mid-resolve.
        let service = service();
        let policy = ProbePolicy::default();
        let clean = enumerate_links_with(&service, 32, &policy);
        let budget = 10_000u64;
        let mut seen = std::collections::HashSet::new();
        let tail_codes: Vec<String> = clean
            .docs
            .iter()
            .filter(|d| seen.insert((d.token_id, d.required_hashes)) && d.required_hashes < budget)
            .map(|d| d.code.clone())
            .collect();
        let expected = resolve_accounted(&service, &tail_codes, budget);
        assert!(!expected.resolved.is_empty(), "tail set must be non-empty");
        for backend in [Backend::Sequential, Backend::Sharded(3)] {
            let dir = tmpdir(&format!("tail-{backend}"));
            let store = SnapshotStore::open(&dir).unwrap();
            let sup = Supervisor::new(CrashPolicy {
                ckpt_every_items: 32,
                ..CrashPolicy::default()
            })
            .with_kills(vec![90, 300]);
            let run = sup
                .run(
                    &store,
                    "enum-tail",
                    || {
                        EnumCampaign::new(&service, &policy, 32, backend)
                            .with_tail_resolver(&service, budget)
                    },
                    false,
                )
                .unwrap();
            assert_eq!(run.report.crashes, 2, "backend={}", backend);
            assert_enum_eq(&run.output.enumeration, &clean);
            assert_eq!(
                run.output.resolve_report.resolved, expected.resolved,
                "backend={}",
                backend
            );
            assert_eq!(
                run.output.resolve_report.hashes_spent,
                expected.hashes_spent
            );
            assert_eq!(run.output.resolve_report.skipped_over_budget, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_checkpointed_walk_writes_bytes_linear_in_its_length() {
        // The tail-resolving walk checkpointed every 16 items and killed
        // twice: each checkpoint after the first appends only what the
        // walk did since, so the whole run writes less than two full
        // snapshots of the finished walk. Rewriting the folded state at
        // every checkpoint writes hundreds of them.
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: 20_000,
            users: 1_500,
            seed: 5,
        }));
        let policy = ProbePolicy::default();
        let budget = 10_000u64;
        let clean = enumerate_links_with(&service, 32, &policy);
        let mut seen = std::collections::HashSet::new();
        let tail_codes: Vec<String> = clean
            .docs
            .iter()
            .filter(|d| seen.insert((d.token_id, d.required_hashes)) && d.required_hashes < budget)
            .map(|d| d.code.clone())
            .collect();
        let expected = resolve_accounted(&service, &tail_codes, budget);
        let walk = || {
            EnumCampaign::new(&service, &policy, 32, Backend::Sequential)
                .with_tail_resolver(&service, budget)
        };
        let dir = tmpdir("linear");
        let store = SnapshotStore::open(&dir).unwrap();
        let run = Supervisor::new(CrashPolicy {
            ckpt_every_items: 16,
            ..CrashPolicy::default()
        })
        .with_kills(vec![7_000, 14_000])
        .run(&store, "walk", walk, false)
        .unwrap();
        assert_eq!(run.report.crashes, 2);
        assert!(run.report.balanced(), "{:?}", run.report);
        assert_enum_eq(&run.output.enumeration, &clean);
        let got = &run.output.resolve_report;
        assert_eq!(got.resolved, expected.resolved);
        assert_eq!(got.skipped_over_budget, expected.skipped_over_budget);
        assert_eq!(got.visit_failures, expected.visit_failures);
        assert_eq!(got.hashes_spent, expected.hashes_spent);

        let mut finished = walk();
        while !finished.is_done() {
            finished.run_items(u64::MAX, &AtomicU64::new(0));
        }
        let full = finished.snapshot().encode().len() as u64;
        assert!(
            run.report.bytes_written <= 2 * full,
            "{} checkpoints wrote {} bytes; one full snapshot is {full}",
            run.report.checkpoints,
            run.report.bytes_written
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_budget_after_a_restore_finishes_the_walk() {
        // `run_items(u64::MAX)` walks to the dead-run stop in one call,
        // so a restored walk driven with the largest budget still matches
        // the uninterrupted run.
        let service = service();
        let policy = ProbePolicy::default();
        let expected = enumerate_links_with(&service, 32, &policy);
        for backend in [Backend::Sequential, Backend::Sharded(2)] {
            let mut first = EnumCampaign::new(&service, &policy, 32, backend);
            first.run_items(250, &AtomicU64::new(0));
            let snap = first.snapshot();
            let mut resumed = EnumCampaign::new(&service, &policy, 32, backend);
            resumed.restore(&snap).unwrap();
            let heartbeat = AtomicU64::new(0);
            while !resumed.is_done() {
                resumed.run_items(u64::MAX, &heartbeat);
            }
            assert_enum_eq(&resumed.finish().enumeration, &expected);
        }
    }

    #[test]
    fn the_ledger_is_the_enumeration_as_sightings() {
        // `into_ledger` hands over what `finish` rebuilds docs from: one
        // 16-byte sighting per live link, in index order, on every
        // backend.
        assert_eq!(std::mem::size_of::<Sighting>(), 16);
        let service = service();
        let policy = ProbePolicy::default();
        let expected = enumerate_links_with(&service, 32, &policy);
        for backend in [Backend::Sequential, Backend::Sharded(3)] {
            let mut walk = EnumCampaign::new(&service, &policy, 32, backend);
            while !walk.is_done() {
                walk.run_items(100, &AtomicU64::new(0));
            }
            let ledger = walk.into_ledger();
            let docs: Vec<VisitDoc> = ledger.sightings.iter().map(Sighting::doc).collect();
            assert_eq!(docs, expected.docs, "backend={backend}");
            assert_eq!(
                ledger.counts,
                WalkCounts {
                    probed: expected.probed,
                    failed_probes: expected.failed_probes,
                    probe_retries: expected.probe_retries,
                },
                "backend={backend}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "link index 4294967296 does not fit a sighting's u32")]
    fn a_live_link_past_u32_probes_panics() {
        let doc = VisitDoc {
            code: index_to_code(1 << 32),
            token_id: 1,
            required_hashes: 512,
        };
        Sighting::of(1 << 32, &doc);
    }

    #[test]
    #[should_panic(expected = "token 4294967296 does not fit a sighting's u32")]
    fn a_token_beyond_u32_panics() {
        let doc = VisitDoc {
            code: "a".to_string(),
            token_id: 1 << 32,
            required_hashes: 512,
        };
        Sighting::of(0, &doc);
    }

    #[test]
    fn restore_rejects_a_base_that_resolves_every_link() {
        // A base whose mode byte is 0 (resolve every live link, a mode no
        // walk has) is refused; the same base with the tail's mode byte
        // is what a fresh tail walk writes, and restores.
        let service = service();
        let policy = ProbePolicy::default();
        let forged = |mode: bool| {
            let mut w = SnapWriter::new();
            put_walk(&mut w, &[], &WalkCounts::default());
            w.u64(0); // dead run
            w.bool(true); // a resolver rides along
            w.bool(mode);
            put_resolve_report(&mut w, &ResolveReport::default());
            Snapshot::new(0, w.finish())
        };
        let tail = || {
            EnumCampaign::new(&service, &policy, 8, Backend::Sequential)
                .with_tail_resolver(&service, 10_000)
        };
        assert_eq!(tail().snapshot(), forged(true));
        let mut walk = tail();
        assert!(matches!(
            walk.restore(&forged(false)),
            Err(CkptError::Corrupt("resolver mode mismatch"))
        ));
        walk.restore(&forged(true)).unwrap();
    }

    #[test]
    fn restore_rejects_resolver_mismatch() {
        let service = service();
        let policy = ProbePolicy::default();
        let mut with = EnumCampaign::new(&service, &policy, 8, Backend::Sequential)
            .with_tail_resolver(&service, 10_000);
        with.run_items(16, &AtomicU64::new(0));
        let snap = with.snapshot();
        let mut without = EnumCampaign::new(&service, &policy, 8, Backend::Sequential);
        assert!(matches!(without.restore(&snap), Err(CkptError::Corrupt(_))));
    }
}
