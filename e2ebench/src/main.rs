//! End-to-end and per-layer benchmark of the `minedig` CLI.
//!
//! ```text
//! e2ebench --workload <scan|shortlink|attribute|supervised> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the benchmark drives the CLI the way users run it —
//! a closed loop of runs, one at a time, each run one or more child
//! processes with the CLI's default worker count — for `--seconds`, and
//! reports the median wall time, CPU time and peak RSS of a run plus the
//! median time to build the workload's inputs. With `--trace 1` it runs
//! the CLI a few times for reference figures, then composes the same
//! experiment in-process from the crates' public leaf functions with a
//! span around each call, and reports per-layer figures.
//!
//! Every run's result lines are checked against the sequential backend
//! (`MINEDIG_SHARDS=1`) at the same seed, and the traced composition's
//! against the untraced CLI. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod attribute;
mod oracle;
mod proc;
mod scan;
mod shortlink;
mod stats;
mod supervised;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Counters and gauges a traced composition reports beside its spans.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.values.entry(name).or_insert(0.0) += n;
    }

    /// Sets gauge `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Passes of all four zones per scan run; a single pass is short enough
/// that scheduler noise would dominate its wall time.
const SCAN_PASSES: u64 = 1;

/// Days of the Fig 5 window the attribute workload simulates: one day
/// keeps a run near 1.5 s, so a run holds enough samples for a steady
/// median despite the sharded poller's scheduling noise.
const ATTRIBUTE_DAYS: u64 = 1;

/// Set-up is timed in a round of repetitions before every measured run
/// (see `setup_round`), and at least `SETUP_MIN_REPS` times in all;
/// `setup_s` is the median repetition.
const SETUP_ROUND_S: f64 = 0.1;
const SETUP_ROUND_REPS: usize = 50;
const SETUP_MIN_REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Scan,
    Shortlink,
    Attribute,
    Supervised,
}

/// One CLI invocation: arguments and extra environment.
struct Invocation {
    args: Vec<String>,
    env: Vec<(String, String)>,
}

impl Invocation {
    fn new(args: &[&str], seed: u64) -> Invocation {
        let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        args.push(seed.to_string());
        Invocation {
            args,
            env: Vec::new(),
        }
    }
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan" => Some(Workload::Scan),
            "shortlink" => Some(Workload::Shortlink),
            "attribute" => Some(Workload::Attribute),
            "supervised" => Some(Workload::Supervised),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::Shortlink => "shortlink",
            Workload::Attribute => "attribute",
            Workload::Supervised => "supervised",
        }
    }

    /// The plain CLI invocations of one run, in order.
    fn plain(self, seed: u64) -> Vec<Invocation> {
        let links = shortlink::PAPER_LINKS.to_string();
        let days = ATTRIBUTE_DAYS.to_string();
        match self {
            Workload::Scan => (seed..seed + SCAN_PASSES)
                .flat_map(|s| {
                    scan::ZONES
                        .iter()
                        .map(move |&z| Invocation::new(&["scan", scan::zone_arg(z)], s))
                })
                .collect(),
            Workload::Shortlink => vec![Invocation::new(&["shortlink", &links], seed)],
            Workload::Attribute => vec![Invocation::new(&["attribute", &days], seed)],
            Workload::Supervised => {
                let links = supervised::LINKS.to_string();
                let days = supervised::DAYS.to_string();
                let mut v: Vec<Invocation> = supervised::ZONES
                    .iter()
                    .map(|&z| Invocation::new(&["scan", scan::zone_arg(z)], seed))
                    .collect();
                v.push(Invocation::new(&["shortlink", &links], seed));
                v.push(Invocation::new(&["attribute", &days], seed));
                v
            }
        }
    }

    /// The invocations of one measured run. The supervised run is its
    /// plain commands checkpointing into `ckpt_dir` under injected
    /// faults and the health layer, then the same commands again with
    /// `--resume`.
    fn measured(self, seed: u64, ckpt_dir: &Path) -> Vec<Invocation> {
        if self != Workload::Supervised {
            return self.plain(seed);
        }
        let env = vec![
            (
                "MINEDIG_CKPT_DIR".to_string(),
                ckpt_dir.display().to_string(),
            ),
            ("MINEDIG_FAULT_SEED".to_string(), seed.to_string()),
            ("MINEDIG_HEALTH".to_string(), "1".to_string()),
        ];
        let mut runs = Vec::new();
        for resume in [false, true] {
            for mut inv in self.plain(seed) {
                if resume {
                    inv.args.push("--resume".to_string());
                }
                inv.env = env.clone();
                runs.push(inv);
            }
        }
        runs
    }

    /// Invocations per result pass (the supervised run has two passes).
    fn pass_len(self, seed: u64) -> usize {
        self.plain(seed).len()
    }

    /// Builds the workload's inputs once, untraced.
    fn setup(self, seed: u64) {
        match self {
            Workload::Scan => {
                for s in seed..seed + SCAN_PASSES {
                    std::hint::black_box(scan::setup(s));
                }
            }
            Workload::Shortlink => {
                std::hint::black_box(shortlink::setup(shortlink::PAPER_LINKS, seed));
            }
            Workload::Attribute => {
                std::hint::black_box(attribute::setup(&attribute::config(ATTRIBUTE_DAYS, seed)));
            }
            Workload::Supervised => supervised::setup(seed),
        }
    }

    /// The traced composition: one result pass per entry.
    fn traced(self, seed: u64, scratch: &Path, layers: &mut Layers) -> Vec<Vec<String>> {
        match self {
            Workload::Scan => vec![(seed..seed + SCAN_PASSES)
                .flat_map(|s| scan::traced(&scan::ZONES, s, layers))
                .collect()],
            Workload::Shortlink => vec![shortlink::traced(shortlink::PAPER_LINKS, seed, layers)],
            Workload::Attribute => vec![attribute::traced(ATTRIBUTE_DAYS, seed, layers)],
            Workload::Supervised => {
                let dir = scratch.join(format!("ckpt-traced-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let passes = vec![
                    supervised::traced(&dir, seed, false, layers),
                    supervised::traced(&dir, seed, true, layers),
                ];
                let _ = std::fs::remove_dir_all(&dir);
                passes
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2018;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad("seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed, by the run's own accounting plus the
/// oracle's comparisons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Where the benchmark keeps its scratch files and finds the CLI: the
/// cargo target directory both were built into.
struct Env {
    cli: PathBuf,
    scratch: PathBuf,
}

fn locate() -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?;
    let cli = bin_dir.join("minedig");
    if !cli.is_file() {
        return Err(format!("no minedig CLI at {}", cli.display()));
    }
    let scratch = bin_dir.parent().unwrap_or(bin_dir).join("e2ebench");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("cannot create scratch dir: {e}"))?;
    Ok(Env { cli, scratch })
}

/// One measured run of the CLI.
struct RunSample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    children: Vec<proc::ChildRun>,
}

fn run_cli(env: &Env, invocations: &[Invocation]) -> Result<RunSample, String> {
    let start = Instant::now();
    let mut children = Vec::with_capacity(invocations.len());
    for inv in invocations {
        let child = proc::run(&env.cli, &inv.args, &inv.env)
            .map_err(|e| format!("cannot run minedig {}: {e}", inv.args.join(" ")))?;
        children.push(child);
    }
    Ok(RunSample {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: children.iter().map(|c| c.cpu_s).sum(),
        peak_rss_mb: children.iter().map(|c| c.peak_rss_mb).fold(0.0, f64::max),
        children,
    })
}

/// Result lines of each pass of `children` (`pass_len` invocations per
/// pass), concatenated in invocation order.
fn passes(children: &[proc::ChildRun], pass_len: usize) -> Vec<Vec<String>> {
    children
        .chunks(pass_len)
        .map(|pass| {
            pass.iter()
                .flat_map(|c| oracle::result_lines(&c.stdout))
                .collect()
        })
        .collect()
}

/// `lines`, with retry counts removed when `masked` (supervised runs
/// reach the fault-free result through retries).
fn normalized(lines: &[String], masked: bool) -> Vec<String> {
    lines
        .iter()
        .map(|l| {
            if masked {
                oracle::without_retries(l)
            } else {
                l.clone()
            }
        })
        .collect()
}

/// Compares result passes with the reference and tallies the run's own
/// loss accounting, comparing `normalized` lines. Returns the number of
/// mismatched lines.
fn check(
    children: &[proc::ChildRun],
    got: &[Vec<String>],
    reference: &[String],
    masked: bool,
    tally: &mut Tally,
) -> usize {
    let want = normalized(reference, masked);
    let mut mismatched = 0;
    for pass in got {
        let n = oracle::mismatches(&want, &normalized(pass, masked));
        tally.add(want.len() as u64, n as u64);
        mismatched += n;
    }
    for c in children {
        let d = oracle::degradation(&c.stdout);
        let bugs = oracle::self_reported_bugs(&c.stdout) as u64;
        tally.add(d.attempted + 1, d.lost + bugs + u64::from(!c.ok));
    }
    mismatched
}

fn report_mismatch(what: &str, reference: &[String], got: &[String]) {
    eprintln!("e2ebench: {what} differs from the sequential reference:");
    for (i, (a, b)) in reference.iter().zip(got).enumerate() {
        if a != b {
            eprintln!("  line {i}: want {a:?}\n           got  {b:?}");
        }
    }
    if reference.len() != got.len() {
        eprintln!("  {} lines wanted, {} got", reference.len(), got.len());
    }
}

/// A metric as printed: name, value, unit, how many samples it is the
/// median of (1 for single measurements) and their interquartile range
/// as a share of the median.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    spread: Option<f64>,
}

fn median_metric(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
    Metric {
        name,
        value: stats::median(values).unwrap_or(0.0),
        unit,
        samples: values.len(),
        spread: stats::relative_spread(values),
    }
}

/// The final JSON line.
fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// A finite float as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it (which never uses an exponent).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let note = match m.spread {
            Some(s) if m.samples > 1 => {
                format!("(median of {}, IQR {:.1}% of median)", m.samples, s * 100.0)
            }
            _ => String::new(),
        };
        println!("  {:<26} {:>16.6} {:<6} {note}", m.name, m.value, m.unit);
    }
}

/// Times the workload's set-up repeatedly for about `SETUP_ROUND_S`
/// (at least once, at most `SETUP_ROUND_REPS` times), appending each
/// repetition's seconds to `samples`. Rounds are spread across the
/// closed loop so that a burst of interference on the machine hits only
/// some of them.
fn setup_round(workload: Workload, seed: u64, samples: &mut Vec<f64>) {
    let started = Instant::now();
    for _ in 0..SETUP_ROUND_REPS {
        let t = Instant::now();
        workload.setup(seed);
        samples.push(t.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= SETUP_ROUND_S {
            break;
        }
    }
}

/// Runs the CLI in a closed loop until the runs have taken `seconds`
/// (at least one run), calling `between` before each run and checking
/// every run against `reference`.
fn closed_loop(
    env: &Env,
    args: &Args,
    seconds: f64,
    reference: &[String],
    tally: &mut Tally,
    mut between: impl FnMut(),
) -> Result<(Vec<RunSample>, usize), String> {
    let w = args.workload;
    let ckpt = env.scratch.join(format!("ckpt-{}", std::process::id()));
    let mut measured = 0.0;
    let mut samples = Vec::new();
    let mut mismatched = 0;
    while samples.is_empty() || measured < seconds {
        between();
        let _ = std::fs::remove_dir_all(&ckpt);
        let run = run_cli(env, &w.measured(args.seed, &ckpt))?;
        let _ = std::fs::remove_dir_all(&ckpt);
        measured += run.wall_s;
        let got = passes(&run.children, w.pass_len(args.seed));
        let n = check(
            &run.children,
            &got,
            reference,
            w == Workload::Supervised,
            tally,
        );
        if n > 0 && mismatched == 0 {
            report_mismatch("a measured run", reference, &got[0]);
        }
        mismatched += n;
        samples.push(run);
    }
    Ok((samples, mismatched))
}

/// Per-layer metrics, in `BENCHMARK.json` order: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("web.population_s", "s"),
    ("web.synth_s", "s"),
    ("web.pages", "count"),
    ("browser.load_s", "s"),
    ("browser.loads", "count"),
    ("browser.wasm_dumps", "count"),
    ("nocoin.match_s", "s"),
    ("nocoin.pages", "count"),
    ("wasm.fingerprint_s", "s"),
    ("wasm.cache_hit_rate", "ratio"),
    ("wasm.classify_s", "s"),
    ("core.fold_s", "s"),
    ("shortlink.model_s", "s"),
    ("shortlink.service_s", "s"),
    ("shortlink.probe_s", "s"),
    ("shortlink.probes", "count"),
    ("shortlink.live_ratio", "ratio"),
    ("shortlink.resolve_s", "s"),
    ("shortlink.resolved", "count"),
    ("shortlink.analyze_s", "s"),
    ("mem.after_setup_mb", "MB"),
    ("mem.after_enumerate_mb", "MB"),
    ("chain.step_s", "s"),
    ("chain.blocks", "count"),
    ("pool.fetch_job_s", "s"),
    ("pool.fetch_jobs", "count"),
    ("analysis.sweep_s", "s"),
    ("analysis.sweeps", "count"),
    ("analysis.answered_ratio", "ratio"),
    ("analysis.judge_s", "s"),
    ("ckpt.snapshots", "count"),
    ("ckpt.snapshot_bytes", "bytes"),
    ("ckpt.snapshot_s", "s"),
    ("ckpt.save_s", "s"),
    ("ckpt.restore_s", "s"),
    ("retry.retries", "count"),
    ("health.hedges", "count"),
    ("health.quarantined", "count"),
    ("supervise.items_redone", "count"),
    ("exec.wall_s", "s"),
    ("exec.speedup", "x"),
    ("proc.allocs", "count"),
    ("trace.overhead_s", "s"),
];

/// Share `num / den`, 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn untraced(
    env: &Env,
    args: &Args,
    reference: &[String],
    tally: &mut Tally,
) -> Result<(Vec<Metric>, bool), String> {
    let mut setup = Vec::new();
    let (runs, mismatched) = closed_loop(env, args, args.seconds, reference, tally, || {
        setup_round(args.workload, args.seed, &mut setup)
    })?;
    while setup.len() < SETUP_MIN_REPS {
        setup_round(args.workload, args.seed, &mut setup);
    }
    let col = |f: fn(&RunSample) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    // Wall time is printed but not reported: on a shared two-vCPU host
    // its run-to-run spread exceeds any bound the benchmark may set (see
    // README.md); the traced run reports it as `exec.wall_s`.
    print_metrics(&[median_metric("wall_s", "s", &col(|r| r.wall_s))]);
    let metrics = vec![
        median_metric("cpu_s", "s", &col(|r| r.cpu_s)),
        median_metric("setup_s", "s", &setup),
        median_metric("peak_rss_mb", "MB", &col(|r| r.peak_rss_mb)),
    ];
    Ok((metrics, mismatched == 0))
}

fn traced(
    env: &Env,
    args: &Args,
    reference: &[String],
    tally: &mut Tally,
) -> Result<(Vec<Metric>, bool), String> {
    let w = args.workload;
    // Untraced reference figures for the speedup and overhead ratios,
    // and the run's own retry/health/crash counters.
    let (runs, mismatched) = closed_loop(env, args, args.seconds / 2.0, reference, tally, || ())?;
    let wall = stats::median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
    // Counters of the first pass only: a resume pass re-reports the
    // restored totals.
    let first = &runs[0].children[..w.pass_len(args.seed)];
    let out: String = first.iter().map(|c| c.stdout.as_str()).collect();
    let mut degr = oracle::Degradation::default();
    for c in first {
        degr.absorb(oracle::degradation(&c.stdout));
    }

    // The composition once untraced (sequential busy time, and a
    // warm-up), then traced.
    let t0 = Instant::now();
    w.traced(args.seed, &env.scratch, &mut Layers::default());
    let plain_wall = t0.elapsed().as_secs_f64();
    let mut layers = Layers::default();
    let allocs0 = trace::allocs();
    trace::start(args.seed as u32);
    let t0 = Instant::now();
    let got = w.traced(args.seed, &env.scratch, &mut layers);
    let traced_wall = t0.elapsed().as_secs_f64();
    let spans = trace::finish();
    let allocs = trace::allocs() - allocs0;
    let spans_path = env.scratch.join(format!("spans-{}.tsv", w.name()));
    if let Err(e) = trace::write_tsv(&spans_path, &spans) {
        eprintln!("e2ebench: cannot write {}: {e}", spans_path.display());
    }

    // Fidelity: the traced composition must reproduce the CLI's result.
    let masked = w == Workload::Supervised;
    let want = normalized(reference, masked);
    let mut faithful = true;
    for pass in &got {
        let pass = normalized(pass, masked);
        let n = oracle::mismatches(&want, &pass);
        tally.add(want.len() as u64, n as u64);
        if n > 0 {
            faithful = false;
            report_mismatch("the traced composition", &want, &pass);
        }
    }

    let self_s = trace::self_seconds_by_name(&spans);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        if *unit == "s" {
            if let Some(span_name) = name.strip_suffix("_s") {
                values.insert(name, self_s.get(span_name).copied().unwrap_or(0.0));
            }
        } else {
            values.insert(name, layers.get(name));
        }
    }
    values.insert(
        "wasm.cache_hit_rate",
        ratio(layers.get("wasm.hits"), layers.get("wasm.lookups")),
    );
    values.insert(
        "shortlink.live_ratio",
        ratio(layers.get("shortlink.live"), layers.get("shortlink.probes")),
    );
    values.insert(
        "analysis.answered_ratio",
        ratio(
            layers.get("analysis.answered"),
            layers.get("analysis.polls"),
        ),
    );
    values.insert("retry.retries", degr.retries as f64);
    values.insert("health.quarantined", degr.quarantined as f64);
    values.insert("health.hedges", oracle::sum_after(&out, "hedges: ") as f64);
    values.insert(
        "supervise.items_redone",
        oracle::sum_before(&out, " items lost to crashes") as f64,
    );
    values.insert("exec.wall_s", wall);
    values.insert("exec.speedup", ratio(plain_wall, wall));
    values.insert("proc.allocs", allocs as f64);
    values.insert("trace.overhead_s", traced_wall - plain_wall);

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| Metric {
            name,
            value: values[name],
            unit,
            samples: 1,
            spread: None,
        })
        .collect();
    Ok((metrics, mismatched == 0 && faithful))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <scan|shortlink|attribute|supervised> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let env = match locate() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    match run(&env, &args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// The sequential backend's result lines for `seed`
/// (`MINEDIG_SHARDS=1`). They are kept in the scratch directory, keyed
/// by the invocations and the CLI binary's size and modification time,
/// so repeated runs of one build on one input pay for the reference once.
fn reference(env: &Env, w: Workload, seed: u64) -> Result<Vec<String>, String> {
    use std::hash::{Hash, Hasher};
    let seq: Vec<Invocation> = w
        .plain(seed)
        .into_iter()
        .map(|mut inv| {
            inv.env
                .push(("MINEDIG_SHARDS".to_string(), "1".to_string()));
            inv
        })
        .collect();
    let meta = std::fs::metadata(&env.cli).map_err(|e| format!("cannot stat the CLI: {e}"))?;
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    // DefaultHasher::new() uses fixed keys, so the key is stable across runs.
    let mut key = std::collections::hash_map::DefaultHasher::new();
    (meta.len(), built).hash(&mut key);
    for inv in &seq {
        (&inv.args, &inv.env).hash(&mut key);
    }
    let cache = env
        .scratch
        .join(format!("ref-{}-{seed}-{:016x}.txt", w.name(), key.finish()));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        return Ok(text.lines().map(String::from).collect());
    }
    let run = run_cli(env, &seq)?;
    if let Some(bad) = run.children.iter().position(|c| !c.ok) {
        return Err(format!(
            "reference run failed: minedig {}",
            seq[bad].args.join(" ")
        ));
    }
    let lines = passes(&run.children, seq.len()).remove(0);
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    if let Err(e) = std::fs::write(&cache, text) {
        eprintln!("e2ebench: cannot cache the reference: {e}");
    }
    Ok(lines)
}

fn run(env: &Env, args: &Args) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "e2ebench {} seed {} ({})",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let mut tally = Tally::default();
    let reference = reference(env, w, args.seed)?;

    let (metrics, consistent) = if args.trace {
        traced(env, args, &reference, &mut tally)?
    } else {
        untraced(env, args, &reference, &mut tally)?
    };
    let correct = consistent && tally.failed == 0;
    print_metrics(&metrics);
    println!("{}", json_line(correct, &tally, &metrics));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn child(stdout: &str) -> proc::ChildRun {
        proc::ChildRun {
            cpu_s: 1.0,
            peak_rss_mb: 1.0,
            ok: true,
            stdout: stdout.to_string(),
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 12,
            failed: 0,
        };
        let metrics = vec![
            Metric {
                name: "wall_s",
                value: 1.2034,
                unit: "s",
                samples: 5,
                spread: None,
            },
            Metric {
                name: "proc.allocs",
                value: 3.0,
                unit: "count",
                samples: 1,
                spread: None,
            },
        ];
        assert_eq!(
            json_line(true, &tally, &metrics),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.2034, \"unit\": \"s\"}, \
             \"proc.allocs\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn json_numbers_keep_every_digit_and_stay_finite() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(2.0), "2.0");
        let m = [Metric {
            name: "x",
            value: f64::NAN,
            unit: "s",
            samples: 1,
            spread: None,
        }];
        assert!(json_line(false, &Tally::default(), &m).contains("\"value\": 0.0"));
        assert!(json_line(false, &Tally::default(), &m).contains("\"attempted\": 1,"));
    }

    #[test]
    fn oracle_fails_a_run_whose_results_differ() {
        let reference = lines(&[
            "blocks: 716 total, 11 attributed",
            "recall 100.0% / precision exact",
        ]);
        let same = [child(
            "blocks: 716 total, 11 attributed\nrecall 100.0% / precision exact\n",
        )];
        let mut tally = Tally::default();
        let got = passes(&same, 1);
        assert_eq!(check(&same, &got, &reference, false, &mut tally), 0);
        assert_eq!(tally.failed, 0);

        let differs = [child(
            "blocks: 716 total, 12 attributed\nrecall 100.0% / precision exact\n",
        )];
        let mut tally = Tally::default();
        let got = passes(&differs, 1);
        assert_eq!(check(&differs, &got, &reference, false, &mut tally), 1);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.attempted, 3, "two compared lines plus one invocation");
    }

    #[test]
    fn oracle_counts_losses_failures_and_retry_masking() {
        let reference = lines(&["polls: 5 issued, 0 offline, 0 retries, 0 endpoint-sweeps down"]);
        let out = "polls: 5 issued, 0 offline, 9 retries, 0 endpoint-sweeps down
== campaign degradation ==
campaign      attempted  succeeded     lost  retries reconnects quarantined    loss
pool polling          5          4        1        9          0           0  20.00%
";
        let runs = [child(out), child(out)];
        let got = passes(&runs, 1);
        let mut tally = Tally::default();
        assert_eq!(check(&runs, &got, &reference, true, &mut tally), 0);
        assert_eq!(tally.failed, 2, "one lost poll per invocation");
        let mut tally = Tally::default();
        assert_eq!(check(&runs, &got, &reference, false, &mut tally), 2);

        let mut crashed = child("");
        crashed.ok = false;
        let mut tally = Tally::default();
        check(&[crashed], &[Vec::new()], &reference, false, &mut tally);
        assert_eq!(tally.failed, 2, "a missing line and a failed invocation");
    }

    #[test]
    fn passes_split_resume_runs() {
        let runs = [
            child("blocks: 1\n"),
            child("recall 1\n"),
            child("blocks: 1\n"),
            child("recall 2\n"),
        ];
        let p = passes(&runs, 2);
        assert_eq!(
            p,
            vec![
                lines(&["blocks: 1", "recall 1"]),
                lines(&["blocks: 1", "recall 2"])
            ]
        );
    }

    #[test]
    fn arguments_follow_the_command_line_contract() {
        assert_eq!(Workload::parse("supervised"), Some(Workload::Supervised));
        assert_eq!(Workload::parse("nope"), None);
        let inv = Workload::Supervised.measured(7, Path::new("ck"));
        assert_eq!(inv.len(), 2 * Workload::Supervised.pass_len(7));
        assert!(inv
            .last()
            .unwrap()
            .args
            .ends_with(&["7".to_string(), "--resume".to_string()]));
        assert!(inv[0]
            .env
            .iter()
            .any(|(k, v)| k == "MINEDIG_FAULT_SEED" && v == "7"));
        let plain = Workload::Scan.measured(7, Path::new("ck"));
        assert_eq!(plain.len(), 4 * SCAN_PASSES as usize);
        assert!(plain.iter().all(|i| i.env.is_empty()));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let listed = json.matches("\"name\": \"").count();
        let workloads = ["scan", "shortlink", "attribute", "supervised"];
        let end_to_end = [("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];
        assert_eq!(listed, workloads.len() + end_to_end.len() + PER_LAYER.len());
        for w in workloads {
            assert!(Workload::parse(w).is_some() && json.contains(&format!("\"name\": \"{w}\"")));
        }
        for (name, unit) in end_to_end.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }

    #[test]
    fn every_per_layer_metric_has_a_unique_name() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
