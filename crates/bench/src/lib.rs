//! Shared plumbing for the reproduction binaries.
//!
//! Every binary under `src/bin/` regenerates one of the paper's tables or
//! figures (see DESIGN.md's experiment index) and prints measured values
//! next to the paper's. Common knobs come from the environment:
//!
//! * `MINEDIG_SEED` — experiment seed (default 2018),
//! * `MINEDIG_SHARDS` — worker threads of the execution backend
//!   (default: one per core; `1` runs sequentially),
//! * `MINEDIG_LINK_SCALE` — divisor on the 1.7 M link population
//!   (default 10),
//! * `MINEDIG_DAYS` — override for the Fig 5 window length.
//!
//! A malformed value of any of them exits with status 2, naming the
//! variable.

use minedig_core::campaign::ChromeCampaign;
use minedig_core::report::campaign_line;
use minedig_core::scan::{build_reference_db, scan_len, ChromeScanOutcome, FetchModel};
use minedig_primitives::parse_var;
use minedig_primitives::supervise::{run_to_end, Backend};
use minedig_wasm::sigdb::SignatureDb;
use minedig_wasm::FingerprintCache;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;

/// Reads the `u64` knob `name` through `lookup`: `default` when unset,
/// and an error naming the variable when it is not a whole number.
fn parse_u64(
    lookup: impl Fn(&str) -> Option<String>,
    name: &str,
    default: u64,
) -> Result<u64, String> {
    Ok(parse_var(lookup, name, "a whole number", |_: &u64| true)?.unwrap_or(default))
}

/// Reads a `u64` knob from the environment; exits with status 2 on a
/// malformed value.
pub fn env_u64(name: &str, default: u64) -> u64 {
    parse_u64(|n| std::env::var(n).ok(), name, default).unwrap_or_else(|e| {
        eprintln!("bad configuration: {e}");
        std::process::exit(2);
    })
}

/// The experiment seed.
pub fn seed() -> u64 {
    env_u64("MINEDIG_SEED", 2018)
}

/// The execution backend named by the environment; exits with status 2
/// on a malformed value.
pub fn backend() -> Backend {
    Backend::from_env().unwrap_or_else(|e| {
        eprintln!("bad backend configuration: {e}");
        std::process::exit(2);
    })
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
/// the Table 1/2/3 binaries) on the environment's [`backend`], with an
/// in-memory fingerprint memo; results are bit-identical on every
/// backend.
pub fn run_chrome_scans(seed: u64) -> (SignatureDb, Vec<(Population, ChromeScanOutcome)>) {
    let db = build_reference_db(0.7);
    let backend = backend();
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
    fn env_parsing() {
        assert_eq!(env_u64("MINEDIG_DOES_NOT_EXIST", 7), 7);
        let given = |v: &'static str| move |_: &str| Some(v.to_string());
        assert_eq!(parse_u64(given(" 3 "), "MINEDIG_SEED", 2018), Ok(3));
        for bad in ["2.5", "seven", "-1", ""] {
            let err = parse_u64(given(bad), "MINEDIG_LINK_SCALE", 10).expect_err(bad);
            assert!(err.contains("MINEDIG_LINK_SCALE"), "{err}");
        }
    }
}
