//! Campaign supervision: periodic checkpoints, simulated kills, and
//! bounded restart-with-restore.
//!
//! A [`Supervisor`] drives any [`Campaign`] in bounded chunks. After
//! each chunk it may write a [`Snapshot`](crate::ckpt::Snapshot)
//! (every K items); before each chunk it checks whether the kill
//! schedule ([`Supervisor::with_kills`]) kills the process at the chunk
//! boundary. A kill discards the in-memory campaign — exactly what
//! `SIGKILL` would do — and the supervisor rebuilds it from the
//! factory, restores the latest on-disk snapshot, and continues.
//!
//! Because campaign snapshots capture everything the remaining items
//! can observe, and every per-item result is a pure function of stable
//! identity, a supervised run killed at *any* point produces results
//! bit-identical to an uninterrupted run — the property
//! `tests/checkpoint_resume.rs` proves for all three campaigns on all
//! executor backends.

use crate::ckpt::{Checkpointable, CkptError, SnapshotStore};
use crate::par::ParallelExecutor;
use crate::parse_var;
use std::fmt;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::AtomicU64;

/// Environment variable naming the worker-thread count of
/// [`Backend::Sharded`].
pub const SHARDS_ENV: &str = "MINEDIG_SHARDS";

/// Which executor a campaign maps its items on.
///
/// Both backends fold per-item outputs in item order, so the choice
/// changes wall clock and nothing else: outcomes are bit-identical to
/// the sequential loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded, in item order.
    Sequential,
    /// [`ParallelExecutor`] with this many worker threads, taking items
    /// round-robin.
    Sharded(usize),
}

impl Default for Backend {
    /// One worker thread per available core.
    fn default() -> Backend {
        Backend::Sharded(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Sequential => f.write_str("sequential"),
            Backend::Sharded(n) => write!(f, "sharded({n})"),
        }
    }
}

impl Backend {
    /// Selects a backend from the variables `lookup` returns:
    /// `MINEDIG_SHARDS=n` picks `n` worker threads (`1` is
    /// [`Backend::Sequential`]); unset, [`Backend::default`]. A count
    /// that is not a positive integer is an error.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Backend, String> {
        let shards = parse_var(&lookup, SHARDS_ENV, "a positive integer", |&n: &usize| {
            n > 0
        })?;
        Ok(match shards {
            Some(1) => Backend::Sequential,
            Some(n) => Backend::Sharded(n),
            None => Backend::default(),
        })
    }

    /// Maps every index of `range` through the pure per-item `kernel`
    /// and folds the outputs into `acc` in index order — the one
    /// dispatcher every campaign runs its items through. A
    /// `ControlFlow::Break` from `fold` ends the run after that item;
    /// outputs mapped ahead of it are discarded.
    ///
    /// Sequentially the items run in-line; sharded, worker threads take
    /// them round-robin ([`ParallelExecutor::map_fold`]). Because
    /// `kernel` may depend only on the index, the folded result is the
    /// same on both backends.
    pub fn map_fold<T: Send, A>(
        &self,
        range: Range<u64>,
        kernel: impl Fn(u64) -> T + Sync,
        acc: A,
        fold: impl FnMut(&mut A, T) -> ControlFlow<()>,
    ) -> A {
        let workers = match *self {
            Backend::Sequential => 1,
            Backend::Sharded(n) => n,
        };
        ParallelExecutor::new(workers).map_fold(range, kernel, acc, fold)
    }
}

/// Runs `campaign` straight through to completion, without checkpoints:
/// the unsupervised counterpart of [`Supervisor::run`], driving the same
/// [`Campaign::run_items`] calls.
pub fn run_to_end<C: Campaign>(mut campaign: C) -> C::Output {
    let heartbeat = AtomicU64::new(0);
    while !campaign.is_done() {
        campaign.run_items(u64::MAX, &heartbeat);
    }
    campaign.finish()
}

/// Environment variable naming the snapshot directory; when set,
/// [`Ckpt::parse`] runs a program's campaigns supervised and
/// checkpointed.
pub const CKPT_DIR_ENV: &str = "MINEDIG_CKPT_DIR";

/// When to checkpoint and how many kills to survive.
#[derive(Clone, Debug)]
pub struct CrashPolicy {
    /// Checkpoint after at most this many items since the last one.
    pub ckpt_every_items: u64,
    /// Restarts after kills allowed before giving up.
    pub max_restarts: u32,
}

impl Default for CrashPolicy {
    fn default() -> CrashPolicy {
        CrashPolicy {
            ckpt_every_items: 64,
            max_restarts: 16,
        }
    }
}

/// Work accounting for one supervised run, split around crashes.
///
/// Every item executed lands in exactly one of two buckets: executed
/// by an attempt that was later killed (`items_before_crash`) or by
/// the attempt that completed (`items_after_resume`). Items executed
/// past the last snapshot of a killed attempt are re-executed after
/// restore and counted in `items_lost` — giving the balance identity
/// checked by [`balanced`](SuperviseReport::balanced).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuperviseReport {
    /// Execution attempts, including the completing one.
    pub attempts: u32,
    /// Simulated kills delivered, each followed by a restart.
    pub crashes: u32,
    /// Snapshots written.
    pub checkpoints: u64,
    /// Bytes the run wrote to the snapshot store, over every checkpoint.
    pub bytes_written: u64,
    /// Items executed by attempts that were later killed.
    pub items_before_crash: u64,
    /// Items executed by the attempt that completed.
    pub items_after_resume: u64,
    /// Items whose work was discarded by a kill (executed past the
    /// snapshot restored afterwards) and re-executed.
    pub items_lost: u64,
    /// Progress key at the start of the run (non-zero when resuming).
    pub start_progress: u64,
    /// Progress key at completion.
    pub final_progress: u64,
}

impl SuperviseReport {
    /// Total items executed, across every attempt.
    pub fn items_executed(&self) -> u64 {
        self.items_before_crash + self.items_after_resume
    }

    /// The crash-accounting balance identity: every executed item
    /// either contributed to final progress or was lost to a kill.
    pub fn balanced(&self) -> bool {
        self.items_executed() == (self.final_progress - self.start_progress) + self.items_lost
    }
}

/// Why a supervised run could not complete.
#[derive(Debug)]
pub enum SuperviseError {
    /// A snapshot write, read, or restore failed.
    Ckpt(CkptError),
    /// The kill schedule outlasted [`CrashPolicy::max_restarts`]; the
    /// report carries the partial accounting (progress up to the last
    /// snapshot survives on disk, so a later `--resume` run continues
    /// from there).
    RestartsExhausted(Box<SuperviseReport>),
}

impl fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperviseError::Ckpt(e) => write!(f, "checkpoint failure: {e}"),
            SuperviseError::RestartsExhausted(r) => {
                write!(f, "gave up after {} restarts", r.crashes)
            }
        }
    }
}

impl std::error::Error for SuperviseError {}

impl From<CkptError> for SuperviseError {
    fn from(e: CkptError) -> SuperviseError {
        SuperviseError::Ckpt(e)
    }
}

/// A checkpointable unit of long-running work the supervisor can
/// drive in bounded chunks.
pub trait Campaign: Checkpointable {
    /// What the campaign yields when complete.
    type Output;

    /// True once no items remain.
    fn is_done(&self) -> bool;

    /// Runs at most `budget` further items (fewer only if the campaign
    /// finishes). Any budget up to `u64::MAX` is valid. Nothing reads
    /// `heartbeat`: it stays only while the end-to-end benchmark's
    /// `drive` (`e2ebench/src/supervised.rs`) still passes one.
    fn run_items(&mut self, budget: u64, heartbeat: &AtomicU64);

    /// Consumes the finished campaign.
    fn finish(self) -> Self::Output;
}

/// A completed supervised run.
#[derive(Debug)]
pub struct SupervisedRun<T> {
    /// The campaign's output.
    pub output: T,
    /// Crash/checkpoint accounting.
    pub report: SuperviseReport,
}

/// Runs campaigns under a [`CrashPolicy`], with simulated kills at
/// explicit progress points.
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    policy: CrashPolicy,
    kills: Vec<u64>,
}

impl Supervisor {
    /// A supervisor with the given checkpoint/restart policy and no
    /// kill schedule.
    pub fn new(policy: CrashPolicy) -> Supervisor {
        Supervisor {
            policy,
            kills: Vec::new(),
        }
    }

    /// Kills the process when progress reaches each of `points`
    /// (absolute item counts, deduplicated and sorted) — the
    /// kill-at-item-k lever the resume proptests use.
    pub fn with_kills(mut self, mut points: Vec<u64>) -> Supervisor {
        points.sort_unstable();
        points.dedup();
        self.kills = points;
        self
    }

    /// The policy this supervisor runs under.
    pub fn policy(&self) -> &CrashPolicy {
        &self.policy
    }

    /// Runs `init()`'s campaign to completion under the crash policy,
    /// checkpointing into `store` under `name`. With `resume`, the
    /// latest snapshot (if any) is restored before the first item;
    /// without it, the run starts from scratch (and its checkpoints
    /// overwrite any stale snapshot).
    ///
    /// `init` must build the campaign in its *initial* state each time
    /// it is called — the supervisor calls it again after every kill,
    /// exactly as a freshly exec'd process would re-enter `main`.
    pub fn run<C: Campaign>(
        &self,
        store: &SnapshotStore,
        name: &str,
        mut init: impl FnMut() -> C,
        resume: bool,
    ) -> Result<SupervisedRun<C::Output>, SuperviseError> {
        let mut report = SuperviseReport::default();
        let heartbeat = AtomicU64::new(0);
        // Kill points not yet fired, in order; each fires once.
        let mut pending = self.kills.iter().copied().peekable();

        let mut campaign = init();
        if resume {
            if let Some(snap) = store.load(name)? {
                campaign.restore(&snap).map_err(SuperviseError::Ckpt)?;
            }
        }
        report.start_progress = campaign.progress_key();
        report.attempts = 1;

        // Progress of the snapshot a kill would restore.
        let mut restore_point = campaign.progress_key();
        let mut attempt_items = 0u64;

        loop {
            let progress = campaign.progress_key();
            let kill_at = pending.peek().copied();
            if kill_at.is_some_and(|k| k <= progress) {
                // Simulated process death: the in-memory campaign — and
                // everything since the last snapshot — is gone. The kill
                // check runs *before* any checkpoint write at the same
                // progress point, so work at the kill point itself is
                // genuinely lost; a checkpoint never hides the crash
                // window.
                pending.next();
                report.crashes += 1;
                report.items_before_crash += attempt_items;
                report.items_lost += progress - restore_point;
                drop(campaign);
                if report.crashes > self.policy.max_restarts {
                    report.final_progress = restore_point;
                    return Err(SuperviseError::RestartsExhausted(Box::new(report)));
                }
                campaign = init();
                if let Some(snap) = store.load(name)? {
                    campaign.restore(&snap).map_err(SuperviseError::Ckpt)?;
                }
                report.attempts += 1;
                attempt_items = 0;
                restore_point = campaign.progress_key();
                continue;
            }
            if campaign.is_done() {
                // Final snapshot: a later `--resume` of the same campaign
                // restores the completed state instead of re-running
                // anything.
                report.bytes_written += store.save(name, &campaign.snapshot())?;
                report.checkpoints += 1;
                break;
            }
            let every = self.policy.ckpt_every_items.max(1);
            let until_ckpt = every.saturating_sub(progress - restore_point).max(1);
            // Never run past the kill point: a chunk ends exactly where
            // the process is scheduled to die.
            let budget = kill_at.map_or(until_ckpt, |k| until_ckpt.min(k - progress));
            campaign.run_items(budget, &heartbeat);
            let after = campaign.progress_key();
            attempt_items += after - progress;
            if kill_at.is_none_or(|k| k > after) && after - restore_point >= every {
                report.bytes_written += store.save(name, &campaign.snapshot())?;
                report.checkpoints += 1;
                restore_point = after;
            }
        }

        report.items_after_resume += attempt_items;
        report.final_progress = campaign.progress_key();
        debug_assert!(report.balanced());
        Ok(SupervisedRun {
            output: campaign.finish(),
            report,
        })
    }
}

/// A checkpointed run: the snapshot store, the supervisor that writes
/// into it, and whether each campaign first restores its latest
/// snapshot.
pub struct Ckpt {
    /// Where every campaign of the run keeps its journal.
    pub store: SnapshotStore,
    /// The checkpoint cadence.
    pub supervisor: Supervisor,
    /// Continue each campaign from its latest snapshot.
    pub resume: bool,
}

impl Ckpt {
    /// The checkpointing that `lookup` names: `None` unless
    /// [`CKPT_DIR_ENV`] is set, else a store in that directory written
    /// at the [`CrashPolicy::default`] cadence of 64 items.
    pub fn parse(
        lookup: impl Fn(&str) -> Option<String>,
        resume: bool,
    ) -> Result<Option<Ckpt>, String> {
        let Some(dir) = lookup(CKPT_DIR_ENV) else {
            return Ok(None);
        };
        let store = SnapshotStore::open(&dir)
            .map_err(|e| format!("cannot open checkpoint dir '{dir}': {e}"))?;
        Ok(Some(Ckpt {
            store,
            supervisor: Supervisor::default(),
            resume,
        }))
    }
}

/// Runs `init()`'s campaign to completion: under the supervisor of
/// `ckpt`, checkpointed into its store as `name`, or straight through
/// ([`run_to_end`]) without one. The supervisor's accounting comes back
/// with the output of a checkpointed run; a straight run has none and
/// cannot fail.
pub fn run_campaign<C: Campaign>(
    ckpt: Option<&Ckpt>,
    name: &str,
    mut init: impl FnMut() -> C,
) -> Result<(C::Output, Option<SuperviseReport>), SuperviseError> {
    match ckpt {
        Some(ck) => {
            let run = ck.supervisor.run(&ck.store, name, init, ck.resume)?;
            Ok((run.output, Some(run.report)))
        }
        None => Ok((run_to_end(init()), None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{SnapReader, SnapWriter, Snapshot};

    /// Toy campaign: folds a keyed hash of each index into an
    /// accumulator — order-sensitive, so any lost or repeated item
    /// changes the result.
    struct HashFold {
        total: u64,
        done: u64,
        acc: u64,
    }

    impl HashFold {
        fn new(total: u64) -> HashFold {
            HashFold {
                total,
                done: 0,
                acc: 0,
            }
        }

        fn item(i: u64) -> u64 {
            crate::Hash32::keccak(format!("item.{i}").as_bytes()).low_u64()
        }
    }

    impl Checkpointable for HashFold {
        fn progress_key(&self) -> u64 {
            self.done
        }

        fn snapshot(&self) -> Snapshot {
            let mut w = SnapWriter::new();
            w.u64(self.done);
            w.u64(self.acc);
            Snapshot::new(self.done, w.finish())
        }

        fn restore(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
            let mut r = SnapReader::new(snap.full_payload()?);
            self.done = r.u64()?;
            self.acc = r.u64()?;
            r.expect_end()
        }
    }

    impl Campaign for HashFold {
        type Output = u64;

        fn is_done(&self) -> bool {
            self.done >= self.total
        }

        fn run_items(&mut self, budget: u64, _heartbeat: &AtomicU64) {
            for _ in 0..budget {
                if self.is_done() {
                    return;
                }
                self.acc = self
                    .acc
                    .rotate_left(7)
                    .wrapping_add(HashFold::item(self.done));
                self.done += 1;
            }
        }

        fn finish(self) -> u64 {
            self.acc
        }
    }

    /// A snapshot store in a fresh temp directory, removed on drop.
    struct TempStore(SnapshotStore);

    impl std::ops::Deref for TempStore {
        type Target = SnapshotStore;

        fn deref(&self) -> &SnapshotStore {
            &self.0
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.0.dir());
        }
    }

    fn store(tag: &str) -> TempStore {
        let dir =
            std::env::temp_dir().join(format!("minedig-supervise-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempStore(SnapshotStore::open(dir).unwrap())
    }

    fn uninterrupted(total: u64) -> u64 {
        let mut c = HashFold::new(total);
        let hb = AtomicU64::new(0);
        c.run_items(total, &hb);
        c.finish()
    }

    #[test]
    fn clean_run_matches_direct_execution() {
        let st = store("clean");
        let run = Supervisor::new(CrashPolicy::default())
            .run(&st, "hf", || HashFold::new(500), false)
            .unwrap();
        assert_eq!(run.output, uninterrupted(500));
        assert_eq!(run.report.crashes, 0);
        assert_eq!(run.report.final_progress, 500);
        assert!(run.report.checkpoints > 0);
        assert!(run.report.balanced());
    }

    #[test]
    fn kill_at_every_point_resumes_bit_identically() {
        let want = uninterrupted(200);
        for kill in [1u64, 17, 63, 64, 65, 100, 199] {
            let st = store(&format!("kill{kill}"));
            let run = Supervisor::new(CrashPolicy {
                ckpt_every_items: 16,
                ..CrashPolicy::default()
            })
            .with_kills(vec![kill])
            .run(&st, "hf", || HashFold::new(200), false)
            .unwrap();
            assert_eq!(run.output, want, "kill at {kill}");
            assert_eq!(run.report.crashes, 1, "kill at {kill}");
            assert!(run.report.items_lost > 0, "kill at {kill} must lose work");
            assert!(run.report.balanced(), "kill at {kill}");
        }
    }

    #[test]
    fn restart_budget_is_enforced_and_resume_completes() {
        let st = store("budget");
        // Kill at every item past the first checkpoint: two restarts
        // allowed, so the run must give up...
        let err = Supervisor::new(CrashPolicy {
            ckpt_every_items: 4,
            max_restarts: 2,
        })
        .with_kills((5..10_000).collect())
        .run(&st, "hf", || HashFold::new(100), false)
        .unwrap_err();
        let SuperviseError::RestartsExhausted(report) = err else {
            panic!("expected RestartsExhausted");
        };
        assert!(report.crashes > 0);
        // ...but its surviving checkpoints feed a later clean resume.
        let run = Supervisor::new(CrashPolicy::default())
            .run(&st, "hf", || HashFold::new(100), true)
            .unwrap();
        assert_eq!(run.output, uninterrupted(100));
        assert!(run.report.start_progress > 0, "must resume mid-way");
        assert!(run.report.balanced());
    }

    #[test]
    fn run_to_end_matches_direct_execution() {
        assert_eq!(run_to_end(HashFold::new(300)), uninterrupted(300));
    }

    #[test]
    fn run_campaign_is_straight_without_a_store_and_supervised_with_one() {
        let (output, report) = run_campaign(None, "hf", || HashFold::new(300)).unwrap();
        assert_eq!(output, uninterrupted(300));
        assert!(report.is_none());
        let dir = store("run");
        let killed = Ckpt {
            store: SnapshotStore::open(dir.dir()).unwrap(),
            supervisor: Supervisor::new(CrashPolicy {
                ckpt_every_items: 16,
                ..CrashPolicy::default()
            })
            .with_kills(vec![100]),
            resume: false,
        };
        let (output, report) = run_campaign(Some(&killed), "hf", || HashFold::new(300)).unwrap();
        assert_eq!(output, uninterrupted(300));
        assert_eq!(report.expect("a supervised run reports").crashes, 1);
        // Resumed, the finished campaign restores its final snapshot.
        let resumed = Ckpt {
            store: killed.store,
            supervisor: Supervisor::default(),
            resume: true,
        };
        let (output, report) = run_campaign(Some(&resumed), "hf", || HashFold::new(300)).unwrap();
        assert_eq!(output, uninterrupted(300));
        assert_eq!(
            report.expect("a supervised run reports").start_progress,
            300
        );
    }

    #[test]
    fn ckpt_parse_opens_the_named_directory() {
        assert!(matches!(Ckpt::parse(|_| None, false), Ok(None)));
        let dir = std::env::temp_dir().join(format!("minedig-ckpt-parse-{}", std::process::id()));
        let lookup = |name: &str| (name == CKPT_DIR_ENV).then(|| dir.display().to_string());
        let ck = Ckpt::parse(lookup, true)
            .unwrap()
            .expect("a directory is set");
        assert_eq!(ck.store.dir(), dir.as_path());
        assert_eq!(ck.supervisor.policy().ckpt_every_items, 64);
        assert!(ck.resume);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn parse(vars: &[(&str, &str)]) -> Result<Backend, String> {
        Backend::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn backend_parse_defaults_and_normalizes() {
        assert_eq!(parse(&[]), Ok(Backend::default()));
        assert_eq!(parse(&[("MINEDIG_SHARDS", " 3 ")]), Ok(Backend::Sharded(3)));
        assert_eq!(parse(&[("MINEDIG_SHARDS", "1")]), Ok(Backend::Sequential));
    }

    #[test]
    fn backend_parse_rejects_nonsense() {
        for bad in ["abc", "0", "-2", ""] {
            assert!(parse(&[("MINEDIG_SHARDS", bad)]).is_err(), "shards {bad:?}");
        }
    }

    #[test]
    fn backend_display_names_the_width() {
        assert_eq!(Backend::Sequential.to_string(), "sequential");
        assert_eq!(Backend::Sharded(4).to_string(), "sharded(4)");
    }

    #[test]
    fn every_backend_folds_in_index_order_until_a_break() {
        let reference: Vec<u64> = (5..=250).map(|i| i * 7).collect();
        for backend in [
            Backend::Sequential,
            Backend::Sharded(1),
            Backend::Sharded(3),
        ] {
            let got = backend.map_fold(
                5..300,
                |i| i * 7,
                Vec::new(),
                |acc, x| {
                    acc.push(x);
                    if x == 7 * 250 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(got, reference, "backend={backend}");
        }
    }
}
