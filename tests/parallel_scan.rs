//! Sharded-backend equivalence properties of the scan campaigns.
//!
//! A scan campaign on `Sharded(n)` must be **bit-identical** to the
//! sequential scans for any seed, zone, clean-sample size, and shard
//! count from 1 through 16 — counters, label/class maps, and the order
//! of the domain refs. Workers take items round-robin and the fold
//! consumes verdicts in population order, relying on per-domain RNG
//! derivation; these properties are what make that reliance safe to
//! refactor against.

use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::scan::{build_reference_db, chrome_scan, zgrab_scan, FetchModel};
use minedig::primitives::supervise::{run_to_end, Backend};
use minedig::wasm::sigdb::SignatureDb;
use minedig::web::universe::Population;
use minedig::web::zone::Zone;
use proptest::prelude::*;
use std::sync::OnceLock;

fn zone(ix: u8) -> Zone {
    match ix % 4 {
        0 => Zone::Alexa,
        1 => Zone::Com,
        2 => Zone::Net,
        _ => Zone::Org,
    }
}

/// One reference DB for every chrome case (building it is the slow part).
fn db() -> &'static SignatureDb {
    static DB: OnceLock<SignatureDb> = OnceLock::new();
    DB.get_or_init(|| build_reference_db(0.7))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zgrab_sharded_equals_sequential(
        seed in 0u64..1_000_000,
        zone_ix in 0u8..4,
        clean in 0usize..200,
        shards in 1usize..=16,
    ) {
        let pop = Population::generate(zone(zone_ix), seed, clean);
        let sequential = zgrab_scan(&pop, seed);
        let model = FetchModel::default();
        let run = run_to_end(ZgrabCampaign::new(&pop, seed, &model, Backend::Sharded(shards)));
        prop_assert_eq!(&run, &sequential, "shards={}", shards);
        prop_assert_eq!(
            run.fetch.attempted,
            (pop.artifacts.len() + pop.clean_sample.len()) as u64
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn chrome_sharded_equals_sequential(
        seed in 0u64..1_000_000,
        alexa in any::<bool>(),
        clean in 0usize..100,
        shards in 1usize..=16,
    ) {
        // §3.2 covers Alexa and .org only.
        let z = if alexa { Zone::Alexa } else { Zone::Org };
        let pop = Population::generate(z, seed, clean);
        let sequential = chrome_scan(&pop, db(), seed);
        let model = FetchModel::default();
        let backend = Backend::Sharded(shards);
        let run = run_to_end(ChromeCampaign::new(&pop, db(), seed, &model, None, backend));
        prop_assert_eq!(&run, &sequential, "shards={}", shards);
    }
}
