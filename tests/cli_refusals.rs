//! The CLI reads its environment once, at start: a removed variable or a
//! count that leaves nothing to measure exits with status 2, naming it,
//! before any work.

use std::process::Command;

/// Runs `minedig args` with `vars` as its only `MINEDIG_*` variables and
/// asserts that it exits with status 2, naming `named`.
fn assert_refused(args: &[&str], vars: &[(&str, &str)], named: &str) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_minedig"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("MINEDIG_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd
        .args(args)
        .envs(vars.iter().copied())
        .output()
        .expect("run minedig");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} {vars:?}: {stderr}");
    assert!(stderr.contains(named), "{args:?} {vars:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} {vars:?} started work");
}

#[test]
fn the_removed_retention_variable_is_refused() {
    let keep = [("MINEDIG_CKPT_KEEP", "3")];
    assert_refused(&["scan", "net", "2018"], &keep, "MINEDIG_CKPT_KEEP");
}

#[test]
fn zero_days_and_zero_links_are_refused() {
    assert_refused(&["attribute", "0", "2018"], &[], "days '0'");
    assert_refused(&["shortlink", "0"], &[], "link count '0'");
}
