//! The `ablations` binary's output is fixed by its inputs: this test pins
//! its seven lines, which EXPERIMENTS.md's Ablations section quotes.

use std::process::Command;

const EXPECTED: &str = "\
[ablation] classification coverage: exact-only 13.2%, with similarity fallback 100.0%
[ablation] distinct blobs per height: 1 endpoint → 8, 2 → 8, 32 → 128
[ablation] zgrab recall vs fetch budget: 64kB 504/520, 256kB 504/520, full 520/520
[ablation] poll every   1s: recall 100.0%, 2774176 polls, max 128 blobs/height
[ablation] poll every  15s: recall 100.0%, 206752 polls, max 128 blobs/height
[ablation] poll every  60s: recall 100.0%, 69472 polls, max 48 blobs/height
[ablation] poll every 300s: recall 100.0%, 32992 polls, max 32 blobs/height
";

#[test]
fn ablations_print_the_quoted_lines() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ablations"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("MINEDIG_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd.output().expect("run the ablations binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), EXPECTED);
}
