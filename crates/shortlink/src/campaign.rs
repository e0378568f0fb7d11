//! The §4.1 enumeration (plus optional accounted resolution) as a
//! killable, resumable [`Campaign`].
//!
//! One item = one probed ID. The first snapshot is the enumeration
//! ledger so far (`docs`, counters), the current dead run, and — when
//! resolution rides along — the accounted [`ResolveReport`]. Both
//! ledgers only grow, so every later snapshot is a delta: the docs and
//! resolved links appended since the snapshot before it, plus the
//! counters. A checkpoint thus costs what the walk did since the last
//! one, and the bytes a walk writes grow linearly with it. Because probe
//! results and retry jitter are keyed by link code (never probing
//! order), re-probing `[cursor, …)` after a restore
//! replays exactly the suffix the sequential walk would have produced,
//! so kill-and-resume is bit-identical to an uninterrupted run on any
//! backend — for every ledger the campaign owns. The service-side
//! creator-hash ledger is the one exception: replaying a lost window
//! re-redeems its links, re-crediting creators, just as a crashed
//! real-world crawler re-pays the PoW for work it had not yet
//! checkpointed.

use crate::enumerate::Enumeration;
use crate::ids::index_to_code;
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
// Snapshot codec.
// ---------------------------------------------------------------------

fn put_doc(w: &mut SnapWriter, d: &VisitDoc) {
    w.str(&d.code);
    w.u64(d.token_id);
    w.u64(d.required_hashes);
}

fn take_doc(r: &mut SnapReader) -> Result<VisitDoc, CkptError> {
    Ok(VisitDoc {
        code: r.str()?,
        token_id: r.u64()?,
        required_hashes: r.u64()?,
    })
}

/// Encodes an [`Enumeration`] into `w`.
pub fn put_enumeration(w: &mut SnapWriter, e: &Enumeration) {
    put_walk(w, &e.docs, e);
}

/// Encodes `docs` — all of `e`'s, or the ones a delta appends — then
/// `e`'s counters, in [`take_enumeration`]'s layout.
fn put_walk(w: &mut SnapWriter, docs: &[VisitDoc], e: &Enumeration) {
    w.len(docs.len());
    for d in docs {
        put_doc(w, d);
    }
    w.u64(e.probed);
    w.u64(e.failed_probes);
    w.u64(e.probe_retries);
}

/// Decodes an [`Enumeration`] from `r`.
pub fn take_enumeration(r: &mut SnapReader) -> Result<Enumeration, CkptError> {
    let n = r.len()?;
    let mut docs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        docs.push(take_doc(r)?);
    }
    Ok(Enumeration {
        docs,
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
    docs: usize,
    resolved: usize,
}

/// The ID-space walk (optionally with accounted resolution riding on
/// each live find) as a supervised campaign.
pub struct EnumCampaign<'a, P: LinkProber + Sync> {
    prober: &'a P,
    policy: &'a ProbePolicy,
    dead_run_limit: u64,
    backend: Backend,
    /// `Some` when accounted resolution rides along: the service to
    /// redeem against and the per-link hash budget.
    resolver: Option<(&'a ShortlinkService, u64)>,
    /// When set, only the *unbiased tail* is resolved: the first
    /// sighting of each `(token, requirement)` pair, and only when
    /// affordable — the §4.1 study's resolve set. The sighting state is
    /// not snapshotted; it is rebuilt from `enumeration.docs` on
    /// restore, since every live doc entered it exactly once.
    tail_only: bool,
    seen: IdSet<(u64, u64)>,
    enumeration: Enumeration,
    resolve_report: ResolveReport,
    dead_run: u64,
    /// What the journal holds once a snapshot was taken or restored:
    /// the next snapshot is a delta over it. A `Cell` because
    /// `snapshot` takes `&self`. Should a delta go unsaved, the store
    /// refuses the next one, whose base key it does not hold.
    journaled: Cell<Option<Journaled>>,
}

/// What a finished [`EnumCampaign`] yields: the enumeration plus the
/// accounted resolution ledger (default-empty when no resolver rode
/// along).
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
            tail_only: false,
            seen: IdSet::default(),
            enumeration: Enumeration {
                docs: Vec::new(),
                probed: 0,
                failed_probes: 0,
                probe_retries: 0,
            },
            resolve_report: ResolveReport::default(),
            dead_run: 0,
            journaled: Cell::new(None),
        }
    }

    /// Rides accounted resolution on the walk: every live doc is
    /// resolved (budget permitting) against `service` as the fold
    /// reaches it, so a checkpoint carries the resolution ledger too.
    pub fn with_resolver(
        mut self,
        service: &'a ShortlinkService,
        budget_per_link: u64,
    ) -> EnumCampaign<'a, P> {
        self.resolver = Some((service, budget_per_link));
        self
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
        self.tail_only = true;
        self
    }

    /// Folds the next probe of the walk, in index order: the sequential
    /// dead-run fold. Breaks once the dead run reaches the limit, so
    /// probes mapped past the stop are discarded.
    fn fold_probe(
        &mut self,
        result: Result<Option<VisitDoc>, ProbeError>,
        retries: u32,
    ) -> ControlFlow<()> {
        let e = &mut self.enumeration;
        e.probed += 1;
        e.probe_retries += u64::from(retries);
        match result {
            Ok(Some(doc)) => {
                self.dead_run = 0;
                if let Some((service, budget_per_link)) = self.resolver {
                    // In tail mode, only the first sighting of a
                    // (token, requirement) pair under budget joins the
                    // resolve set — the §4.1 unbiased filter.
                    let wanted = !self.tail_only
                        || (self.seen.insert((doc.token_id, doc.required_hashes))
                            && doc.required_hashes < budget_per_link);
                    if wanted {
                        resolve_step(
                            service,
                            &mut self.resolve_report,
                            &doc.code,
                            budget_per_link,
                        );
                    }
                }
                e.docs.push(doc);
            }
            Ok(None) => self.dead_run += 1,
            // Neutral: not evidence of a dead ID, not a live link.
            Err(_) => e.failed_probes += 1,
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
        self.enumeration.probed
    }

    /// The full state the first time; after that, a delta carrying the
    /// docs and resolved links appended since the last snapshot and the
    /// counters (the resolver flags are fixed by the base).
    fn snapshot(&self) -> Snapshot {
        let (e, rep) = (&self.enumeration, &self.resolve_report);
        let now = Journaled {
            key: e.probed,
            docs: e.docs.len(),
            resolved: rep.resolved.len(),
        };
        let mut w = SnapWriter::new();
        let snap = match self.journaled.get() {
            None => {
                put_enumeration(&mut w, e);
                w.u64(self.dead_run);
                w.bool(self.resolver.is_some());
                if self.resolver.is_some() {
                    w.bool(self.tail_only);
                    put_resolve_report(&mut w, rep);
                }
                Snapshot::new(now.key, w.finish())
            }
            Some(base) => {
                put_walk(&mut w, &e.docs[base.docs..], e);
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
        let mut enumeration = take_enumeration(&mut r)?;
        let mut dead_run = r.u64()?;
        let had_resolver = r.bool()?;
        if had_resolver != self.resolver.is_some() {
            return Err(CkptError::Corrupt("resolver presence mismatch"));
        }
        let mut resolve_report = if had_resolver {
            if r.bool()? != self.tail_only {
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
            let step = take_enumeration(&mut r)?;
            enumeration.docs.extend(step.docs);
            enumeration.probed = step.probed;
            enumeration.failed_probes = step.failed_probes;
            enumeration.probe_retries = step.probe_retries;
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
        // Rebuild the tail filter's sighting state: every live doc the
        // checkpointed walk saw inserted its pair exactly once.
        self.seen = if self.tail_only {
            enumeration
                .docs
                .iter()
                .map(|d| (d.token_id, d.required_hashes))
                .collect()
        } else {
            IdSet::default()
        };
        self.journaled.set(Some(Journaled {
            key,
            docs: enumeration.docs.len(),
            resolved: resolve_report.resolved.len(),
        }));
        self.enumeration = enumeration;
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
        let base = self.enumeration.probed;
        let (prober, policy) = (self.prober, self.policy);
        let backend = self.backend;
        backend.map_fold(
            base..base.saturating_add(budget),
            |i| probe_with_retry(prober, &index_to_code(i), policy),
            (),
            |_, (result, retries)| self.fold_probe(result, retries),
        );
    }

    fn finish(self) -> EnumCampaignOutput {
        EnumCampaignOutput {
            enumeration: self.enumeration,
            resolve_report: self.resolve_report,
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
    fn resolution_ledger_survives_kills() {
        let service = service();
        let policy = ProbePolicy::default();
        let clean = enumerate_links_with(&service, 32, &policy);
        let codes: Vec<String> = clean.docs.iter().map(|d| d.code.clone()).collect();
        let expected = resolve_accounted(&service, &codes, 10_000);
        let dir = tmpdir("resolve");
        let store = SnapshotStore::open(&dir).unwrap();
        let sup = Supervisor::new(CrashPolicy {
            ckpt_every_items: 32,
            ..CrashPolicy::default()
        })
        .with_kills(vec![100, 333]);
        let run = sup
            .run(
                &store,
                "enum-resolve",
                || {
                    EnumCampaign::new(&service, &policy, 32, Backend::Sequential)
                        .with_resolver(&service, 10_000)
                },
                false,
            )
            .unwrap();
        // The campaign-owned ledger is bit-identical: the restored
        // report is the checkpointed prefix and the replayed window
        // appends each lost doc exactly once. (The *service-side*
        // creator ledger may double-credit replayed links — a crashed
        // crawler really does re-pay the PoW for un-checkpointed work.)
        assert_eq!(run.output.resolve_report.resolved, expected.resolved);
        assert_eq!(
            run.output.resolve_report.skipped_over_budget,
            expected.skipped_over_budget
        );
        assert_eq!(
            run.output.resolve_report.hashes_spent,
            expected.hashes_spent
        );
        let _ = std::fs::remove_dir_all(&dir);
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
    fn restore_rejects_tail_mode_mismatch() {
        let service = service();
        let policy = ProbePolicy::default();
        let mut tail = EnumCampaign::new(&service, &policy, 8, Backend::Sequential)
            .with_tail_resolver(&service, 10_000);
        tail.run_items(16, &AtomicU64::new(0));
        let snap = tail.snapshot();
        let mut all = EnumCampaign::new(&service, &policy, 8, Backend::Sequential)
            .with_resolver(&service, 10_000);
        assert!(matches!(all.restore(&snap), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn restore_rejects_resolver_mismatch() {
        let service = service();
        let policy = ProbePolicy::default();
        let mut with = EnumCampaign::new(&service, &policy, 8, Backend::Sequential)
            .with_resolver(&service, 10_000);
        with.run_items(16, &AtomicU64::new(0));
        let snap = with.snapshot();
        let mut without = EnumCampaign::new(&service, &policy, 8, Backend::Sequential);
        assert!(matches!(without.restore(&snap), Err(CkptError::Corrupt(_))));
    }
}
