//! Child processes with per-process resource accounting.
//!
//! `std::process::Child::wait` discards the kernel's resource usage, so
//! children are reaped with `wait4(2)`, which reports the CPU time and
//! peak resident set of exactly that child — not the benchmark's own
//! lifetime high-water mark, and not the sum over earlier children the
//! way `getrusage(RUSAGE_CHILDREN)` would.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost and printed.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
    /// Exited with status 0.
    pub ok: bool,
    /// Everything it wrote to stdout.
    pub stdout: String,
}

/// Runs `program args…` to completion with `env` added to an
/// environment stripped of every `MINEDIG_*` variable, so the caller's
/// shell cannot change what is measured. Stderr passes through.
pub fn run(program: &Path, args: &[String], env: &[(String, String)]) -> std::io::Result<ChildRun> {
    let mut cmd = Command::new(program);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (k, _) in std::env::vars() {
        if k.starts_with("MINEDIG_") {
            cmd.env_remove(k);
        }
    }
    cmd.envs(env.iter().map(|(k, v)| (k, v)));
    let mut child = cmd.spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `child.id()` is our own unreaped child; `status` and
    // `usage` are valid, properly laid out out-parameters.
    let reaped = loop {
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if r >= 0 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break r;
        }
    };
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    read?;
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    // Exited normally (low 7 bits clear) with code 0.
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(ChildRun {
        cpu_s: secs(&usage.ru_utime) + secs(&usage.ru_stime),
        peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
        ok,
        stdout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_status_output_and_usage() {
        let sh = Path::new("/bin/sh");
        let args = vec![
            "-c".to_string(),
            "echo \"$MINEDIG_PROBE\"; i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done".to_string(),
        ];
        let env = vec![("MINEDIG_PROBE".to_string(), "seen".to_string())];
        let run = run(sh, &args, &env).unwrap();
        assert!(run.ok);
        assert_eq!(run.stdout, "seen\n");
        assert!(run.cpu_s > 0.0 && run.peak_rss_mb > 0.0);
        let failed = super::run(sh, &["-c".to_string(), "exit 3".to_string()], &[]).unwrap();
        assert!(!failed.ok);
    }
}
