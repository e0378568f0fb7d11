//! Shared plumbing for the reproduction binaries.
//!
//! Most binaries under `src/bin/` regenerate one of the paper's tables
//! or figures (see DESIGN.md's experiment index) and print measured
//! values next to the paper's; `ablations` measures four of its design
//! choices, and the `bench_*` binaries are the smoke benches and their
//! gate. Each reads its knobs from the environment once, at start,
//! through `minedig_primitives::read_env`:
//!
//! * `MINEDIG_SEED` — experiment seed (default 2018),
//! * `MINEDIG_SHARDS` — worker threads of the execution backend
//!   (default: one per core; `1` runs sequentially),
//! * `MINEDIG_LINK_SCALE` — divisor on the 1.7 M link population
//!   (default 10, at most 1,709,203 so that one link remains),
//! * `MINEDIG_DAYS` — the Fig 5 window in days (default 28, at least 1
//!   and at most what the simulator's clock can hold),
//! * `MINEDIG_BENCH_OUT` — where a smoke binary writes its JSON.
//!
//! A malformed value, a count that leaves nothing to measure, or any
//! `MINEDIG_*` variable the binary does not read exits with status 2,
//! naming the variable.

use minedig_analysis::scenario::MAX_DAYS;
use minedig_core::campaign::ChromeCampaign;
use minedig_core::report::campaign_line;
use minedig_core::scan::{build_reference_db, scan_len, ChromeScanOutcome, FetchModel};
use minedig_primitives::parse_var;
use minedig_primitives::supervise::{run_to_end, Backend};
use minedig_shortlink::model::PAPER_LINK_COUNT;
use minedig_wasm::sigdb::SignatureDb;
use minedig_wasm::FingerprintCache;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;

/// The experiment seed's variable.
pub const SEED_ENV: &str = "MINEDIG_SEED";

/// The variable dividing the §4.1 link population.
pub const LINK_SCALE_ENV: &str = "MINEDIG_LINK_SCALE";

/// The variable setting the Fig 5 window in days.
pub const DAYS_ENV: &str = "MINEDIG_DAYS";

/// The variable naming a smoke binary's JSON output file.
pub const BENCH_OUT_ENV: &str = "MINEDIG_BENCH_OUT";

/// The experiment seed `env` names (default 2018).
pub fn seed(env: impl Fn(&str) -> Option<String>) -> Result<u64, String> {
    Ok(parse_var(env, SEED_ENV, "a whole number", |_: &u64| true)?.unwrap_or(2018))
}

/// The divisor on the 1.7 M link population `env` names (default 10):
/// at least 1, and at most [`PAPER_LINK_COUNT`] so that at least one
/// link is studied.
pub fn link_scale(env: impl Fn(&str) -> Option<String>) -> Result<u64, String> {
    let expected = format!("a whole number from 1 to {PAPER_LINK_COUNT}");
    let valid = |n: &u64| (1..=PAPER_LINK_COUNT).contains(n);
    Ok(parse_var(env, LINK_SCALE_ENV, &expected, valid)?.unwrap_or(10))
}

/// The Fig 5 window in days `env` names (default 28): at least one, and
/// at most [`MAX_DAYS`].
pub fn days(env: impl Fn(&str) -> Option<String>) -> Result<u64, String> {
    let expected = format!("a whole number from 1 to {MAX_DAYS}");
    let valid = |n: &u64| (1..=MAX_DAYS).contains(n);
    Ok(parse_var(env, DAYS_ENV, &expected, valid)?.unwrap_or(28))
}

/// The file a smoke binary writes its JSON to: the path `env` names in
/// [`BENCH_OUT_ENV`], else `default` in the working directory. A path
/// naming an existing directory is an error naming the variable, so a
/// smoke refuses it before its run rather than failing to write after.
pub fn bench_out(env: impl Fn(&str) -> Option<String>, default: &str) -> Result<String, String> {
    match env(BENCH_OUT_ENV) {
        None => Ok(default.to_string()),
        Some(path) if std::path::Path::new(&path).is_dir() => Err(format!(
            "{BENCH_OUT_ENV}={path:?}: expected a file path, not a directory"
        )),
        Some(path) => Ok(path),
    }
}

/// Gini coefficient from which Fig 3 calls the concentration extreme.
const EXTREME_GINI: f64 = 0.9;

/// Largest power-law exponent Fig 3 calls a heavy tail.
const HEAVY_TAIL_ALPHA: f64 = 3.0;

/// Fig 3's two verdict lines, each derived from its value: the Gini
/// coefficient of the links per token, and the power-law exponent
/// fitted to the counts of `tokens` tokens (`None` when the fit is
/// undefined). The concentration is called extreme only from a Gini of
/// 0.9, and the tail heavy only for a finite alpha of at most 3.
pub fn fig3_verdicts(gini: f64, alpha: Option<f64>, tokens: usize) -> [String; 2] {
    let concentration = if gini >= EXTREME_GINI {
        "extreme concentration"
    } else {
        "below 0.9: not extreme concentration"
    };
    let alpha = match alpha.filter(|a| a.is_finite()) {
        None => {
            let plural = if tokens == 1 { "" } else { "s" };
            format!("alpha undefined ({tokens} token{plural})")
        }
        Some(a) if a <= HEAVY_TAIL_ALPHA => format!("alpha = {a:.2} (heavy tail confirmed)"),
        Some(a) => format!("alpha = {a:.2} (above 3: no heavy tail)"),
    };
    [
        format!("Gini coefficient of links-per-token: {gini:.3} ({concentration})"),
        format!("fitted power-law exponent {alpha}"),
    ]
}

/// Clean-sample size scanned per zone for FP honesty.
pub const CLEAN_SAMPLE: usize = 1_000;

/// Generates the populations for the Chrome-scanned zones.
pub fn chrome_populations(seed: u64) -> Vec<Population> {
    vec![
        Population::generate(Zone::Alexa, seed, CLEAN_SAMPLE),
        Population::generate(Zone::Org, seed, CLEAN_SAMPLE),
    ]
}

/// Runs the Chrome scan on Alexa + .org with the reference DB (shared by
/// the Table 1/2/3 binaries) on `backend`, with an in-memory fingerprint
/// memo; results are bit-identical on every backend.
pub fn run_chrome_scans(
    seed: u64,
    backend: Backend,
) -> (SignatureDb, Vec<(Population, ChromeScanOutcome)>) {
    let db = build_reference_db(0.7);
    let model = FetchModel::default();
    let cache = FingerprintCache::new();
    let out = chrome_populations(seed)
        .into_iter()
        .map(|p| {
            let started = std::time::Instant::now();
            let outcome = run_to_end(ChromeCampaign::new(
                &p,
                &db,
                seed,
                &model,
                Some(&cache),
                backend,
            ));
            eprint!(
                "{}",
                campaign_line(
                    &format!("chrome scan {}", p.zone.label()),
                    &backend,
                    scan_len(&p) as u64,
                    "domains",
                    started.elapsed()
                )
            );
            (p, outcome)
        })
        .collect();
    (db, out)
}

/// Formats a unix timestamp as `YYYY-MM-DD` (UTC, proleptic Gregorian).
pub fn fmt_date(unix: u64) -> String {
    let days = unix / 86_400;
    let mut year = 1970u64;
    let mut remaining = days;
    loop {
        let leap =
            (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400);
        let len = if leap { 366 } else { 365 };
        if remaining < len {
            break;
        }
        remaining -= len;
        year += 1;
    }
    let leap = (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400);
    let month_lengths = [
        31,
        if leap { 29 } else { 28 },
        31,
        30,
        31,
        30,
        31,
        31,
        30,
        31,
        30,
        31,
    ];
    let mut month = 1;
    for len in month_lengths {
        if remaining < len {
            break;
        }
        remaining -= len;
        month += 1;
    }
    format!("{year:04}-{month:02}-{:02}", remaining + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_formatting() {
        assert_eq!(fmt_date(0), "1970-01-01");
        assert_eq!(fmt_date(1_524_700_800), "2018-04-26");
        assert_eq!(fmt_date(1_525_564_800), "2018-05-06");
        assert_eq!(fmt_date(1_530_403_200), "2018-07-01");
        assert_eq!(fmt_date(951_782_400), "2000-02-29");
    }

    #[test]
    fn fig3_verdicts_follow_the_values() {
        // The default scale's readings keep their lines.
        assert_eq!(
            fig3_verdicts(0.936, Some(2.55), 12_000),
            [
                "Gini coefficient of links-per-token: 0.936 (extreme concentration)",
                "fitted power-law exponent alpha = 2.55 (heavy tail confirmed)",
            ]
        );
        // At scale 1:100,000 (17 links over 12 tokens).
        assert_eq!(
            fig3_verdicts(0.260, Some(6.21), 12),
            [
                "Gini coefficient of links-per-token: 0.260 (below 0.9: not extreme concentration)",
                "fitted power-law exponent alpha = 6.21 (above 3: no heavy tail)",
            ]
        );
        // At scales 1:500,000 to 1:1,709,203 no fit exists.
        assert_eq!(
            fig3_verdicts(0.0, None, 3),
            [
                "Gini coefficient of links-per-token: 0.000 (below 0.9: not extreme concentration)",
                "fitted power-law exponent alpha undefined (3 tokens)",
            ]
        );
        assert_eq!(
            fig3_verdicts(0.0, None, 1)[1],
            "fitted power-law exponent alpha undefined (1 token)"
        );
        // The bounds themselves, and fits that are not finite.
        let [gini, alpha] = fig3_verdicts(0.9, Some(3.0), 40);
        assert!(gini.ends_with("(extreme concentration)"), "{gini}");
        assert!(alpha.ends_with("(heavy tail confirmed)"), "{alpha}");
        for a in [f64::NAN, f64::INFINITY] {
            assert_eq!(
                fig3_verdicts(0.95, Some(a), 2)[1],
                "fitted power-law exponent alpha undefined (2 tokens)"
            );
        }
    }

    #[test]
    fn env_parsing() {
        let unset = |_: &str| None;
        assert_eq!(seed(unset), Ok(2018));
        assert_eq!(link_scale(unset), Ok(10));
        assert_eq!(days(unset), Ok(28));
        let given = |v: &'static str| move |_: &str| Some(v.to_string());
        assert_eq!(seed(given(" 3 ")), Ok(3));
        assert_eq!(seed(given("0")), Ok(0));
        assert_eq!(link_scale(given("1709203")), Ok(PAPER_LINK_COUNT));
        assert_eq!(days(given("1")), Ok(1));
        assert_eq!(days(given("213503982316954")), Ok(MAX_DAYS));
        for bad in ["2.5", "seven", "-1", ""] {
            let err = seed(given(bad)).expect_err(bad);
            assert!(err.contains(SEED_ENV), "{err}");
        }
        // Counts that leave nothing to measure are refused by name.
        for bad in ["0", "1709204", "2.5", "-1"] {
            let err = link_scale(given(bad)).expect_err(bad);
            assert!(err.contains(LINK_SCALE_ENV), "{err}");
        }
        for bad in ["0", "213503982316955", "seven", "-1"] {
            let err = days(given(bad)).expect_err(bad);
            assert!(err.contains(DAYS_ENV), "{err}");
        }
    }
}
