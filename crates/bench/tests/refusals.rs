//! Every reproduction binary reads its knobs once, at start: a
//! `MINEDIG_*` variable it does not read, or a count that leaves nothing
//! to measure, exits with status 2 naming the variable before any work.
//! `bench_check` refuses a wrong argument count or an unreadable file
//! the same way.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BINARIES: [&str; 17] = [
    env!("CARGO_BIN_EXE_ablations"),
    env!("CARGO_BIN_EXE_bench_check"),
    env!("CARGO_BIN_EXE_bench_ckpt_smoke"),
    env!("CARGO_BIN_EXE_bench_health_smoke"),
    env!("CARGO_BIN_EXE_bench_parallel_smoke"),
    env!("CARGO_BIN_EXE_discussion_feasibility"),
    env!("CARGO_BIN_EXE_fig1_pow_input"),
    env!("CARGO_BIN_EXE_fig2_nocoin_scan"),
    env!("CARGO_BIN_EXE_fig3_links_per_token"),
    env!("CARGO_BIN_EXE_fig4_hash_requirements"),
    env!("CARGO_BIN_EXE_fig5_block_calendar"),
    env!("CARGO_BIN_EXE_table1_wasm_signatures"),
    env!("CARGO_BIN_EXE_table2_nocoin_vs_wasm"),
    env!("CARGO_BIN_EXE_table3_categories"),
    env!("CARGO_BIN_EXE_table4_top10_destinations"),
    env!("CARGO_BIN_EXE_table5_link_categories"),
    env!("CARGO_BIN_EXE_table6_monthly_stats"),
];

/// The binaries that study a fraction of the §4.1 link population.
const SCALED: [&str; 4] = [
    env!("CARGO_BIN_EXE_fig3_links_per_token"),
    env!("CARGO_BIN_EXE_fig4_hash_requirements"),
    env!("CARGO_BIN_EXE_table4_top10_destinations"),
    env!("CARGO_BIN_EXE_table5_link_categories"),
];

/// Runs `bin` with `args` and with `vars` as its only `MINEDIG_*`
/// variables, and asserts that it exits with status 2 within a few
/// seconds, naming `named`.
fn assert_refused(bin: &str, args: &[&str], vars: &[(&str, &str)], named: &str) {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("MINEDIG_") {
            cmd.env_remove(name);
        }
    }
    let mut child = cmd
        .envs(vars.iter().copied())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start the binary");
    // A binary that does not refuse would run its whole experiment.
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll the binary").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("stop the binary");
            panic!("{bin} {vars:?} was not refused");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("read the binary's stderr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {vars:?}: {stderr}");
    assert!(stderr.contains(named), "{bin} {vars:?}: {stderr}");
}

#[test]
fn every_binary_refuses_a_variable_it_does_not_read() {
    for bin in BINARIES {
        assert_refused(bin, &[], &[("MINEDIG_SHARD", "1")], "MINEDIG_SHARD");
    }
}

#[test]
fn counts_that_leave_nothing_to_measure_are_refused() {
    for bin in SCALED {
        for scale in ["0", "1709204"] {
            let vars = [("MINEDIG_LINK_SCALE", scale)];
            assert_refused(bin, &[], &vars, "MINEDIG_LINK_SCALE");
        }
    }
    let fig5 = env!("CARGO_BIN_EXE_fig5_block_calendar");
    for days in ["0", "213503982316955"] {
        assert_refused(fig5, &[], &[("MINEDIG_DAYS", days)], "MINEDIG_DAYS");
    }
}

#[test]
fn a_directory_as_bench_output_is_refused() {
    let dir = std::env::temp_dir();
    let dir = dir.to_str().expect("a UTF-8 temp dir");
    for bin in [
        env!("CARGO_BIN_EXE_bench_ckpt_smoke"),
        env!("CARGO_BIN_EXE_bench_health_smoke"),
        env!("CARGO_BIN_EXE_bench_parallel_smoke"),
    ] {
        assert_refused(bin, &[], &[("MINEDIG_BENCH_OUT", dir)], "MINEDIG_BENCH_OUT");
    }
}

#[test]
fn bench_check_refuses_bad_arguments_before_comparing() {
    let bin = env!("CARGO_BIN_EXE_bench_check");
    let base = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/baselines/BENCH_parallel.json"
    );
    // The factor is fixed: a third argument is refused, not read.
    assert_refused(bin, &[base, base, "inf"], &[], "usage");
    assert_refused(bin, &[base], &[], "usage");

    let missing = std::env::temp_dir().join(format!("bench_check_missing_{}", std::process::id()));
    let missing = missing.to_str().expect("a UTF-8 temp dir");
    assert_refused(bin, &[missing, base], &[], "baseline");
    let garbled = std::env::temp_dir().join(format!("bench_check_garbled_{}", std::process::id()));
    std::fs::write(&garbled, "{\"workloads\": [").expect("write the garbled file");
    let garbled_path = garbled.to_str().expect("a UTF-8 temp dir");
    assert_refused(bin, &[base, garbled_path], &[], "current");
    std::fs::remove_file(&garbled).expect("remove the garbled file");
}
