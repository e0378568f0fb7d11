#![warn(missing_docs)]
//! Shared primitives for the `minedig` workspace.
//!
//! This crate hosts the low-level building blocks every other subsystem
//! relies on: hash functions (Keccak/SHA-3 family and SHA-256), hex and
//! variable-length integer codecs, a deterministic seedable RNG with named
//! sub-stream derivation, the statistics helpers used by the measurement
//! analyses (CDFs, percentiles, Zipf/power-law sampling), and the
//! execution [`Backend`] every measurement loop (zone scans, shortlink
//! enumeration, endpoint polling) maps its items through, and
//! [`read_env`], every program's one read of its environment.
//!
//! Everything here is implemented from scratch on top of `std` so that the
//! rest of the workspace stays dependency-light and fully deterministic.

pub mod ckpt;
pub mod fault;
pub mod health;
pub mod hex;
pub mod idhash;
pub mod keccak;
pub mod par;
pub mod retry;
pub mod rng;
pub mod sha256;
pub mod stats;
pub mod supervise;
pub mod varint;

pub use ckpt::{Checkpointable, CkptError, SnapReader, SnapWriter, Snapshot, SnapshotStore};
pub use fault::{Fault, FaultConfig, FaultPlan};
pub use health::{
    BreakerConfig, BreakerState, BreakerStats, CircuitBreaker, EndpointHealth, HealthConfig,
    HealthStats, LatencyTracker, ProbeOutcome, ProbePlan, HEALTH_ENV,
};
pub use hex::{from_hex, to_hex};
pub use idhash::{IdBuildHasher, IdHasher, IdMap, IdSet};
pub use keccak::{keccak1600, keccak256, sha3_256};
pub use par::ParallelExecutor;
pub use retry::{retry, ErrorClass, GiveUp, RetryPolicy, Retryable};
pub use rng::DetRng;
pub use sha256::sha256;
pub use supervise::{
    run_campaign, run_to_end, Backend, Campaign, Ckpt, CrashPolicy, SuperviseReport, SupervisedRun,
    Supervisor,
};

/// A program's one read of its environment, made at start: the values of
/// the `MINEDIG_*` variables in `reads`, as the lookup that [`parse_var`],
/// [`Backend::parse`] and the other parsers take. Any other `MINEDIG_*`
/// variable is an error naming it (see [`parse_env`]).
pub fn read_env(reads: &[&str]) -> Result<impl Fn(&str) -> Option<String>, String> {
    parse_env(
        std::env::vars_os().map(|(name, value)| {
            let text = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
            (text(name), text(value))
        }),
        reads,
    )
}

/// The lookup [`read_env`] builds from the variables `vars`: the value
/// of each variable in `reads`, and an error naming every other variable
/// whose name starts with `MINEDIG_`, so that a removed or misspelt
/// setting is refused rather than silently ignored.
pub fn parse_env(
    vars: impl IntoIterator<Item = (String, String)>,
    reads: &[&str],
) -> Result<impl Fn(&str) -> Option<String>, String> {
    let mut known = Vec::new();
    let mut unknown = Vec::new();
    for (name, value) in vars {
        if reads.contains(&name.as_str()) {
            known.push((name, value));
        } else if name.starts_with("MINEDIG_") {
            unknown.push(name);
        }
    }
    if !unknown.is_empty() {
        unknown.sort();
        return Err(format!(
            "unknown variable {} (this program reads {})",
            unknown.join(", "),
            if reads.is_empty() {
                "none".to_string()
            } else {
                reads.join(", ")
            }
        ));
    }
    Ok(move |name: &str| {
        known
            .iter()
            .find(|(known, _)| known == name)
            .map(|(_, value)| value.clone())
    })
}

/// A setting parsed at a program's start, or exit status 2 with the
/// parser's error, which names the variable at fault.
pub fn configured<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("bad configuration: {e}");
        std::process::exit(2);
    })
}

/// Reads the variable `name` through `lookup` and parses it as a `T`
/// that `valid` accepts: `Ok(None)` when unset, and an error naming the
/// variable and what was `expected` for any other value, so that a
/// malformed knob is rejected rather than silently misread.
pub fn parse_var<T: std::str::FromStr>(
    lookup: impl Fn(&str) -> Option<String>,
    name: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    let Some(raw) = lookup(name) else {
        return Ok(None);
    };
    match raw.trim().parse::<T>() {
        Ok(value) if valid(&value) => Ok(Some(value)),
        _ => Err(format!("{name}={raw:?}: expected {expected}")),
    }
}

/// Reads the on/off switch `name` through `lookup`: unset or `0` is
/// off, `1` is on, and anything else is an error naming the variable.
pub fn parse_switch(lookup: impl Fn(&str) -> Option<String>, name: &str) -> Result<bool, String> {
    match lookup(name).as_deref().map(str::trim) {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("{name}={other:?}: expected 0 or 1")),
    }
}

/// A 256-bit hash digest used throughout the workspace.
///
/// The type deliberately mirrors Monero's 32-byte hash values: block ids,
/// transaction ids, Merkle roots and PoW outputs are all `Hash32`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hash32(pub [u8; 32]);

impl Hash32 {
    /// The all-zero hash, used as the previous-block pointer of a genesis
    /// block and as a sentinel in tests.
    pub const ZERO: Hash32 = Hash32([0u8; 32]);

    /// Builds a digest from a byte slice; panics if it is not 32 bytes.
    pub fn from_slice(bytes: &[u8]) -> Hash32 {
        let mut h = [0u8; 32];
        h.copy_from_slice(bytes);
        Hash32(h)
    }

    /// Keccak-256 of `data` (Monero's "cn_fast_hash").
    pub fn keccak(data: &[u8]) -> Hash32 {
        Hash32(keccak256(data))
    }

    /// SHA-256 of `data` (used by the Wasm fingerprinting pipeline, which
    /// mirrors the paper's choice of SHA-256 for module signatures).
    pub fn sha256(data: &[u8]) -> Hash32 {
        Hash32(sha256(data))
    }

    /// Interprets the digest as a little-endian 256-bit integer and returns
    /// the low 64 bits. Handy for deriving deterministic sub-seeds.
    pub fn low_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[0..8].try_into().unwrap())
    }

    /// Hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Parses a 64-character hex string into a digest.
    pub fn from_hex(s: &str) -> Option<Hash32> {
        let bytes = from_hex(s)?;
        if bytes.len() != 32 {
            return None;
        }
        Some(Hash32::from_slice(&bytes))
    }
}

impl std::fmt::Debug for Hash32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hash32({}…)", &self.to_hex()[..16])
    }
}

impl std::fmt::Display for Hash32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash32_roundtrips_through_hex() {
        let h = Hash32::keccak(b"minedig");
        let parsed = Hash32::from_hex(&h.to_hex()).unwrap();
        assert_eq!(h, parsed);
    }

    #[test]
    fn hash32_rejects_bad_hex() {
        assert!(Hash32::from_hex("abcd").is_none());
        assert!(Hash32::from_hex(&"zz".repeat(32)).is_none());
    }

    #[test]
    fn hash32_low_u64_is_little_endian_prefix() {
        let mut raw = [0u8; 32];
        raw[0] = 1;
        raw[8] = 0xff; // must not leak into the low word
        assert_eq!(Hash32(raw).low_u64(), 1);
    }

    #[test]
    fn zero_constant_is_all_zero() {
        assert_eq!(Hash32::ZERO.0, [0u8; 32]);
        assert_eq!(Hash32::ZERO.low_u64(), 0);
    }

    #[test]
    fn the_environment_keeps_what_a_program_reads_and_refuses_other_minedig_names() {
        let vars = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
        };
        let env = parse_env(
            vars(&[("PATH", "/bin"), ("MINEDIG", "x"), ("MINEDIG_SEED", "7")]),
            &["MINEDIG_SEED", "MINEDIG_DAYS"],
        )
        .unwrap();
        assert_eq!(env("MINEDIG_SEED").as_deref(), Some("7"));
        assert_eq!(env("MINEDIG_DAYS"), None);
        assert_eq!(env("PATH"), None, "only the names read are kept");
        let err = parse_env(
            vars(&[
                ("MINEDIG_SHARD", "1"),
                ("MINEDIG_ASYNC", "1"),
                ("MINEDIG_SEED", "7"),
            ]),
            &["MINEDIG_SEED"],
        )
        .err()
        .unwrap();
        assert!(
            err.starts_with("unknown variable MINEDIG_ASYNC, MINEDIG_SHARD "),
            "{err}"
        );
        let err = parse_env(vars(&[("MINEDIG_SEED", "7")]), &[])
            .err()
            .unwrap();
        assert!(
            err.contains("MINEDIG_SEED") && err.contains("reads none"),
            "{err}"
        );
    }

    #[test]
    fn debug_format_is_abbreviated() {
        let s = format!("{:?}", Hash32::keccak(b"x"));
        assert!(s.starts_with("Hash32("));
        assert!(s.len() < 32);
    }
}
