//! The `minedig` command-line tool: run the paper's measurements from a
//! terminal.
//!
//! ```text
//! minedig scan <alexa|com|net|org> [seed]   §3 pipelines on one zone
//! minedig attribute [days] [seed]           §4.2 block attribution
//! minedig shortlink [links] [seed]          §4.1 link-space study
//! minedig hashrate                          local CryptoNight throughput
//! ```
//!
//! Every command runs its measurement as a campaign on one execution
//! backend: `MINEDIG_SHARDS=<n>` worker threads (default: one per core;
//! `1` runs sequentially). Result lines are identical on every backend;
//! each campaign prints one line naming its backend, items and wall
//! time. The environment is read once, at start: a malformed value of
//! any `MINEDIG_*` variable named here, and any other variable whose
//! name starts with `MINEDIG_`, is rejected with exit status 2 before
//! any work starts, and so is a positional number that is not a whole
//! number, a zero day or link count or an extra argument.
//!
//! `MINEDIG_CKPT_DIR=<dir>` runs `scan`, `attribute` and `shortlink`
//! supervised: progress checkpoints land in `<dir>` every 64 items (the
//! journals of the last two full saves retained), and `--resume`
//! continues a killed campaign from its latest snapshot — with results
//! bit-identical to an uninterrupted run.
//!
//! `MINEDIG_HEALTH=1 minedig attribute …` puts the §4.2 poller behind
//! the endpoint-health layer: per-endpoint circuit breakers quarantine
//! dead pools, EWMA latency trackers tighten deadlines, and slow
//! endpoints are hedged — with poll results bit-identical to the plain
//! run when no faults fire, and a breaker/hedge summary either way.

use minedig::analysis::economics::{pool_revenue, ExchangeRate};
use minedig::analysis::scenario::{run_scenario, ScenarioConfig, ScenarioResult, MAX_DAYS};
use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::report::{
    campaign_line, checkpoint_summary, comparison_table, degradation_summary, fetch_stats,
    health_summary, CampaignHealth, Comparison,
};
use minedig::core::scan::{build_reference_db, scan_len, FetchModel};
use minedig::core::shortlink_study::{run_study, StudyConfig, StudyResult};
use minedig::pow::hashrate::measure_hashrate;
use minedig::pow::Variant;
use minedig::primitives::fault::{FaultPlan, FAULT_SEED_ENV};
use minedig::primitives::health::{parse_health, HealthConfig, HEALTH_ENV};
use minedig::primitives::supervise::{
    run_campaign, Backend, Ckpt, SuperviseError, SuperviseReport, CKPT_DIR_ENV, SHARDS_ENV,
};
use minedig::primitives::{configured, read_env};
use minedig::shortlink::model::ModelConfig;
use minedig::wasm::FingerprintCache;
use minedig::web::universe::Population;
use minedig::web::zone::Zone;
use std::time::Instant;

const USAGE: &str =
    "minedig — reproduction of 'Digging into Browser-based Crypto Mining' (IMC'18)\n\n\
     usage:\n  \
     minedig scan <alexa|com|net|org> [seed] [--resume]\n  \
     minedig attribute [days] [seed] [--resume]\n  \
     minedig shortlink [links] [seed] [--resume]\n  \
     minedig hashrate\n\n\
     MINEDIG_SHARDS=<n> runs campaigns on n worker threads (default: one per\n\
     core; 1 runs sequentially). Results are identical on every backend.\n\
     MINEDIG_CKPT_DIR=<dir> checkpoints scan/attribute/shortlink campaigns\n\
     every 64 items; --resume continues from the latest snapshot.\n\
     MINEDIG_HEALTH=1 runs attribute behind the endpoint-health layer\n\
     (circuit breakers, adaptive deadlines, hedged probes).\n\
     MINEDIG_FAULT_SEED=<n> injects a reproducible fault schedule.\n\
     A malformed value of any of these variables, or any other MINEDIG_*\n\
     variable, exits with status 2.";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let resume = args.iter().any(|a| a == "--resume");
    args.retain(|a| a != "--resume");
    let command = match parse_command(&args) {
        Ok(Some(command)) => command,
        Ok(None) => {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let env = configured(read_env(&VARS));
    let backend = configured(Backend::parse(&env));
    let faults = configured(FaultPlan::parse(&env));
    let health = configured(parse_health(&env));
    let ckpt = configured(Ckpt::parse(&env, resume));
    match command {
        Command::Scan { zone, seed } => cmd_scan(zone, seed, backend, faults, ckpt),
        Command::Attribute { days, seed } => cmd_attribute(days, seed, faults, health, ckpt),
        Command::Shortlink { links, seed } => cmd_shortlink(links, seed, backend, ckpt),
        Command::Hashrate => cmd_hashrate(),
    }
}

/// The `MINEDIG_*` variables the CLI reads.
const VARS: [&str; 4] = [SHARDS_ENV, CKPT_DIR_ENV, FAULT_SEED_ENV, HEALTH_ENV];

/// A checked command line.
#[derive(Debug, PartialEq)]
enum Command {
    Scan { zone: Zone, seed: u64 },
    Attribute { days: u64, seed: u64 },
    Shortlink { links: u64, seed: u64 },
    Hashrate,
}

/// Parses the arguments after the program name, `--resume` removed.
/// `Ok(None)` asks for the usage text; an error names the argument at
/// fault.
fn parse_command(args: &[String]) -> Result<Option<Command>, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(None);
    };
    let command = match cmd.as_str() {
        "scan" => {
            let zone = match rest.first().map(String::as_str) {
                Some("alexa") => Zone::Alexa,
                Some("com") => Zone::Com,
                Some("net") => Zone::Net,
                Some("org") | None => Zone::Org,
                Some(other) => {
                    return Err(format!("unknown zone '{other}' (use alexa|com|net|org)"))
                }
            };
            let [seed] = numbers(rest.get(1..).unwrap_or_default(), [("seed", 2018)])?;
            Command::Scan { zone, seed }
        }
        "attribute" => {
            let [days, seed] = numbers(rest, [("days", 7), ("seed", 2018)])?;
            if !(1..=MAX_DAYS).contains(&days) {
                return Err(format!(
                    "bad days '{days}': the study needs 1 to {MAX_DAYS} days"
                ));
            }
            Command::Attribute { days, seed }
        }
        "shortlink" => {
            let [links, seed] = numbers(rest, [("link count", 50_000), ("seed", 2018)])?;
            if links == 0 {
                return Err("bad link count '0': the study needs at least one link".to_string());
            }
            Command::Shortlink { links, seed }
        }
        "hashrate" => {
            numbers(rest, [])?;
            Command::Hashrate
        }
        "help" => return Ok(None),
        other => return Err(format!("unknown command '{other}'")),
    };
    Ok(Some(command))
}

/// The positional numbers `specs` names, in order, each `(name,
/// default)` taking its default when absent. A value that is not a whole
/// number, or an argument past the last spec, is an error naming it.
fn numbers<const N: usize>(args: &[String], specs: [(&str, u64); N]) -> Result<[u64; N], String> {
    if let Some(extra) = args.get(N) {
        return Err(format!("unexpected argument '{extra}'"));
    }
    let mut values = [0; N];
    for (i, (name, default)) in specs.into_iter().enumerate() {
        values[i] = match args.get(i) {
            None => default,
            Some(s) => s
                .parse()
                .map_err(|_| format!("bad {name} '{s}': expected a whole number"))?,
        };
    }
    Ok(values)
}

/// The run header's checkpointing note.
fn ckpt_header(ck: &Ckpt, unit: &str) -> String {
    format!(
        "checkpointing to {} every {} {unit}{}",
        ck.store.dir().display(),
        ck.supervisor.policy().ckpt_every_items,
        if ck.resume { ", resuming" } else { "" },
    )
}

/// Runs one campaign through `run` and returns its output, after
/// printing its checkpoint summary when it ran supervised and its run
/// line: the backend, the `items` of the output counted in `unit`, and
/// the wall time. A failed run exits with status 1.
fn campaign<T>(
    label: &str,
    backend: &Backend,
    unit: &str,
    items: impl Fn(&T) -> u64,
    run: impl FnOnce() -> Result<(T, Option<SuperviseReport>), SuperviseError>,
) -> T {
    let started = Instant::now();
    let (output, report) = run().unwrap_or_else(|e| {
        eprintln!("{label} campaign failed: {e}");
        std::process::exit(1);
    });
    if let Some(report) = report {
        print!("{}", checkpoint_summary(label, &report));
    }
    let line = campaign_line(label, backend, items(&output), unit, started.elapsed());
    print!("{line}");
    output
}

fn cmd_scan(
    zone: Zone,
    seed: u64,
    backend: Backend,
    faults: Option<FaultPlan>,
    ckpt: Option<Ckpt>,
) {
    let zone_tag = match zone {
        Zone::Alexa => "alexa",
        Zone::Com => "com",
        Zone::Net => "net",
        Zone::Org => "org",
    };
    println!(
        "generating {} ({} domains, miners materialized exactly)…",
        zone.label(),
        zone.full_size()
    );
    let population = Population::generate(zone, seed, 500);
    println!(
        "ground truth: {} active miners\n",
        population.true_active_miners()
    );

    // MINEDIG_FAULT_SEED injects a reproducible transport fault
    // schedule; the retry budget outlasts its transient faults, so only
    // permanent ones surface (as unreachable counts).
    let model = match faults {
        Some(plan) => {
            println!("fault injection on (seed {})", plan.seed());
            FetchModel::outlasting(plan)
        }
        None => FetchModel::default(),
    };

    // MINEDIG_CKPT_DIR runs both scans supervised: checkpointed and
    // resumable with --resume. Results are bit-identical either way.
    if let Some(ck) = &ckpt {
        println!("{} ({backend} backend)", ckpt_header(ck, "items"));
    }
    let items = scan_len(&population) as u64;

    let zg = campaign(
        "zgrab",
        &backend,
        "domains",
        |_| items,
        || {
            run_campaign(
                ckpt.as_ref(),
                &format!("scan-zgrab-{zone_tag}-{seed}"),
                || ZgrabCampaign::new(&population, seed, &model, backend),
            )
        },
    );
    println!(
        "zgrab + NoCoin (TLS-only, 256 kB): {} domains flagged, 0 FPs on {} clean samples",
        zg.hit_domains, zg.clean_sample_size
    );
    print!("{}", fetch_stats("zgrab fetches", &zg.fetch));
    let mut health = vec![CampaignHealth::from_fetch("zgrab", &zg.fetch)];

    if zone.chrome_scanned() {
        let db = build_reference_db(0.7);
        // The fingerprint memo is content-addressed and lives for the
        // run: a resumed scan refills it as it goes.
        let cache = FingerprintCache::new();
        let ch = campaign(
            "chrome",
            &backend,
            "domains",
            |_| items,
            || {
                run_campaign(
                    ckpt.as_ref(),
                    &format!("scan-chrome-{zone_tag}-{seed}"),
                    || ChromeCampaign::new(&population, &db, seed, &model, Some(&cache), backend),
                )
            },
        );
        print!("{}", fetch_stats("chrome fetches", &ch.fetch));
        health.push(CampaignHealth::from_fetch("chrome", &ch.fetch));
        print_chrome_findings(&ch);
    } else {
        println!("(zone not part of the paper's Chrome measurement — §3.2 covers Alexa and .org)");
    }
    print!("{}", degradation_summary(&health));
}

fn print_chrome_findings(ch: &minedig::core::scan::ChromeScanOutcome) {
    let rows = vec![
        Comparison::new(
            "NoCoin hits (post-exec HTML)",
            0.0,
            ch.nocoin_domains as f64,
        ),
        Comparison::new("sites with Wasm", 0.0, ch.wasm_domains as f64),
        Comparison::new("miner-Wasm sites", 0.0, ch.miner_wasm_domains as f64),
        Comparison::new("  blocked by NoCoin", 0.0, ch.blocked_by_nocoin as f64),
        Comparison::new("  missed by NoCoin", 0.0, ch.missed_by_nocoin as f64),
    ];
    // The paper and delta columns print too: an ad-hoc zone and seed
    // has no paper figure, so paper reads 0 and delta inf% (0.0% where
    // nothing was measured).
    print!("{}", comparison_table("Chrome scan", &rows));
    println!(
        "top classes: {:?}",
        ch.class_counts.iter().take(5).collect::<Vec<_>>()
    );
}

fn cmd_attribute(
    days: u64,
    seed: u64,
    faults: Option<FaultPlan>,
    health: bool,
    ckpt: Option<Ckpt>,
) {
    println!("simulating {days} days of Monero with an instrumented Coinhive-style pool…");
    let mut config = ScenarioConfig {
        duration_days: days,
        seed,
        ..ScenarioConfig::default()
    };
    if let Some(plan) = faults {
        println!("fault injection on (seed {})", plan.seed());
        config.poll_retry =
            minedig::primitives::retry::RetryPolicy::attempts(plan.attempts_to_clear());
        config.poll_faults = Some(plan);
    }
    // MINEDIG_HEALTH=1 interposes the endpoint-health layer (circuit
    // breakers, adaptive deadlines, hedged probes) between the poller
    // and the pool endpoints; fault-free results are bit-identical to
    // the plain run.
    if health {
        println!("endpoint health layer on (breakers + adaptive deadlines + hedging)");
        config.poll_health = Some(HealthConfig {
            seed,
            ..HealthConfig::default()
        });
    }
    // MINEDIG_CKPT_DIR runs the §4.2 poll loop supervised: one item =
    // one block event, checkpoints every 64 events,
    // --resume continues from the latest snapshot — bit-identical to
    // the unsupervised scenario. Its sweeps run in-line whatever the
    // backend, so its campaign line says sequential.
    if let Some(ck) = &ckpt {
        println!("{}", ckpt_header(ck, "block events"));
    }
    let result = campaign(
        "attribute",
        &Backend::Sequential,
        "blocks",
        |r: &ScenarioResult| r.total_blocks,
        || run_scenario(config, ckpt.as_ref()),
    );
    let ps = &result.poll_stats;
    println!(
        "polls: {} issued, {} answered, {} offline, {} retries, {} endpoint-sweeps down, \
         {} quarantined, {} shed",
        ps.polls, ps.answered, ps.offline, ps.retries, ps.endpoints_down, ps.quarantined, ps.sheds
    );
    if let Some(stats) = &result.poll_health_stats {
        print!("{}", health_summary("pool health", stats));
    }
    let share = result.attributed.len() as f64 / result.total_blocks.max(1) as f64;
    println!(
        "blocks: {} total, {} attributed to the pool ({:.2}%, paper: 1.18%)",
        result.total_blocks,
        result.attributed.len(),
        share * 100.0
    );
    println!(
        "recall {:.1}% / precision {}",
        result.recall() * 100.0,
        if result.precise() { "exact" } else { "BUG" }
    );
    let revenue = pool_revenue(&result.attributed, ExchangeRate::paper_writing_time(), 0.30);
    println!(
        "revenue: {:.1} XMR ≈ {:.0} USD gross, pool keeps {:.0} USD (30%)",
        revenue.xmr, revenue.usd_gross, revenue.usd_pool_cut
    );
    print!(
        "{}",
        degradation_summary(&[CampaignHealth::from_polls("pool polling", ps)])
    );
}

fn cmd_shortlink(links: u64, seed: u64, backend: Backend, ckpt: Option<Ckpt>) {
    let config = StudyConfig {
        model: ModelConfig {
            total_links: links,
            users: 12_000.min(links as usize / 4).max(100),
            seed,
        },
        backend,
        ..StudyConfig::default()
    };
    println!("generating {links} short links and enumerating the ID space ({backend} backend)…");
    // MINEDIG_CKPT_DIR runs the walk, with the unbiased tail resolved as
    // it goes, supervised and resumable — bit-identical either way.
    if let Some(ck) = &ckpt {
        println!("{}", ckpt_header(ck, "items"));
    }
    let study = campaign(
        "shortlink enum",
        &backend,
        "probes",
        |s: &StudyResult| s.walk.probed,
        || run_study(&config, seed, ckpt.as_ref()),
    );
    print!(
        "{}",
        degradation_summary(&[CampaignHealth::from_enumeration(
            "shortlink enum",
            &study.walk,
        )])
    );
    println!(
        "top-1 user owns {:.1}% of links; {} users own 85% (paper: 1/3 and 10)",
        study.top1_share * 100.0,
        study.users_for_85pct
    );
    println!(
        "unbiased requirements ≤1024 hashes: {:.1}% (paper: >2/3); resolution cost {:.1}M hashes",
        study.unbiased_le_1024 * 100.0,
        study.hashes_spent as f64 / 1e6
    );
    println!("top destinations of heavy users:");
    for (d, f) in study.top10_domains.iter().take(5) {
        println!("  {d:<24} {:>5.1}%", f * 100.0);
    }
}

fn cmd_hashrate() {
    println!("measuring local CryptoNight-style throughput…");
    for (label, variant, n) in [
        ("test (16 KiB)", Variant::Test, 64),
        ("lite (1 MiB)", Variant::Lite, 8),
        ("full (2 MiB)", Variant::Full, 4),
    ] {
        let sample = measure_hashrate(variant, n);
        println!("  {label:<14} {:>8.1} H/s", sample.rate());
    }
    println!("(the paper's browser anchor: 20 H/s on a 2013 laptop, 4 threads)");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Command>, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_command(&args)
    }

    #[test]
    fn absent_numbers_take_their_defaults() {
        assert_eq!(parse(""), Ok(None));
        assert_eq!(parse("help"), Ok(None));
        assert_eq!(
            parse("scan"),
            Ok(Some(Command::Scan {
                zone: Zone::Org,
                seed: 2018
            }))
        );
        assert_eq!(
            parse("attribute"),
            Ok(Some(Command::Attribute {
                days: 7,
                seed: 2018
            }))
        );
        assert_eq!(
            parse("shortlink"),
            Ok(Some(Command::Shortlink {
                links: 50_000,
                seed: 2018
            }))
        );
        assert_eq!(parse("hashrate"), Ok(Some(Command::Hashrate)));
    }

    #[test]
    fn given_numbers_are_used() {
        assert_eq!(
            parse("scan alexa 7"),
            Ok(Some(Command::Scan {
                zone: Zone::Alexa,
                seed: 7
            }))
        );
        assert_eq!(
            parse("attribute 1 7"),
            Ok(Some(Command::Attribute { days: 1, seed: 7 }))
        );
        assert_eq!(
            parse("shortlink 1709203 2018"),
            Ok(Some(Command::Shortlink {
                links: 1_709_203,
                seed: 2018
            }))
        );
    }

    #[test]
    fn malformed_numbers_are_rejected_by_name() {
        for (line, named) in [
            ("shortlink 1.7e6", "link count '1.7e6'"),
            ("shortlink -5", "link count '-5'"),
            ("shortlink 50000 x", "seed 'x'"),
            ("attribute seven", "days 'seven'"),
            ("scan org x", "seed 'x'"),
            (
                "scan org 99999999999999999999",
                "seed '99999999999999999999'",
            ),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(named), "{line}: {err}");
        }
    }

    #[test]
    fn unknown_minedig_variables_are_rejected_by_name() {
        let check = |names: &[&str]| {
            let vars = names.iter().map(|n| (n.to_string(), "1".to_string()));
            minedig::primitives::parse_env(vars, &VARS).map(|_| ())
        };
        assert_eq!(check(&VARS), Ok(()));
        assert_eq!(check(&["PATH", "HOME", "MINEDIG"]), Ok(()));
        for name in [
            "MINEDIG_ASYNC",
            "MINEDIG_CONCURRENCY",
            "MINEDIG_SHARD",
            "MINEDIG_CKPT_KEEP",
            "MINEDIG_CKPT_EVERY",
        ] {
            let err = check(&["PATH", name, "MINEDIG_SHARDS"]).expect_err(name);
            assert!(err.contains(name), "{err}");
        }
        let err = check(&["MINEDIG_SHARD", "MINEDIG_ASYNC"]).unwrap_err();
        assert!(
            err.starts_with("unknown variable MINEDIG_ASYNC, MINEDIG_SHARD "),
            "{err}"
        );
    }

    #[test]
    fn zero_links_extra_arguments_and_unknown_words_are_rejected() {
        assert!(parse("shortlink 0").unwrap_err().contains("link count '0'"));
        assert!(parse("attribute 0 2018").unwrap_err().contains("days '0'"));
        let too_long = format!("attribute {} 2018", MAX_DAYS + 1);
        let named = format!("days '{}'", MAX_DAYS + 1);
        assert!(parse(&too_long).unwrap_err().contains(&named));
        for (line, named) in [
            ("shortlink 100 7 8", "'8'"),
            ("attribute 1 7 --verbose", "'--verbose'"),
            ("scan org 7 extra", "'extra'"),
            ("hashrate now", "'now'"),
            ("scan mars", "zone 'mars'"),
            ("crawl", "command 'crawl'"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(named), "{line}: {err}");
        }
    }
}
