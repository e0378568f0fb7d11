//! Table 2: the NoCoin block list vs the Wasm signature approach, on the
//! same executed pages — the paper's headline false-negative result.

use minedig_bench::{run_chrome_scans, seed, SEED_ENV};
use minedig_core::report::{comparison_table, Comparison};
use minedig_primitives::supervise::{Backend, SHARDS_ENV};
use minedig_primitives::{configured, read_env};
use minedig_web::zone::Zone;

struct PaperRow {
    nocoin_hits: f64,
    nocoin_with_wasm: f64,
    wasm_hits: f64,
    blocked: f64,
    missed: f64,
    missed_pct: f64,
}

fn paper_row(zone: Zone) -> PaperRow {
    match zone {
        Zone::Alexa => PaperRow {
            nocoin_hits: 993.0,
            nocoin_with_wasm: 129.0,
            wasm_hits: 737.0,
            blocked: 129.0,
            missed: 608.0,
            missed_pct: 82.0,
        },
        _ => PaperRow {
            nocoin_hits: 978.0,
            nocoin_with_wasm: 450.0,
            wasm_hits: 1_372.0,
            blocked: 450.0,
            missed: 922.0,
            missed_pct: 67.0,
        },
    }
}

fn main() {
    let env = configured(read_env(&[SEED_ENV, SHARDS_ENV]));
    let seed = configured(seed(&env));
    let backend = configured(Backend::parse(&env));
    println!("Table 2 — miners found by NoCoin vs Wasm signatures (Chrome data, incl. non-TLS)\n");
    let (_db, scans) = run_chrome_scans(seed, backend);

    for (population, o) in &scans {
        let p = paper_row(population.zone);
        let missed_pct = o.missed_by_nocoin as f64 / o.miner_wasm_domains.max(1) as f64 * 100.0;
        let rows = vec![
            Comparison::new("NoCoin hits", p.nocoin_hits, o.nocoin_domains as f64),
            Comparison::new(
                "  …having miner Wasm",
                p.nocoin_with_wasm,
                o.blocked_by_nocoin as f64,
            ),
            Comparison::new("Miner Wasm hits", p.wasm_hits, o.miner_wasm_domains as f64),
            Comparison::new("  blocked by NoCoin", p.blocked, o.blocked_by_nocoin as f64),
            Comparison::new("  missed by NoCoin", p.missed, o.missed_by_nocoin as f64),
            Comparison::new("  missed %", p.missed_pct, missed_pct),
        ];
        println!("{}", comparison_table(population.zone.label(), &rows));
        let factor = o.miner_wasm_domains as f64 / o.blocked_by_nocoin.max(1) as f64;
        println!(
            "   signature approach finds {factor:.1}x the block list's miners (paper: up to 5.7x)"
        );
        println!(
            "   NoCoin hits without any miner Wasm: {} (dead refs, consent-gated, ad-network FP)",
            o.nocoin_without_wasm
        );
        println!(
            "   clean-sample miner FPs: {}/{}\n",
            o.clean_sample_miner_hits,
            minedig_bench::CLEAN_SAMPLE
        );
    }
}
