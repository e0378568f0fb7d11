//! Hash-rate measurement and the client hash-rate model from the paper.
//!
//! §4.2 anchors its user-count estimate on "a web client performs between
//! 20 and 100 H/s" (their 2013 MacBook Pro measured 20 H/s with 4 threads
//! in Chrome). [`ClientClass`] encodes those anchors, and
//! [`measure_hashrate`] measures this machine's real throughput for a
//! given [`Variant`] (`minedig hashrate` prints it for each variant).

use crate::cryptonight::{slow_hash, Variant};
use std::time::Instant;

/// Reference hash rates for classes of mining clients, in H/s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClientClass {
    /// The paper's commodity-laptop browser anchor: 20 H/s.
    BrowserLaptop,
    /// Upper bound used in the paper's user estimate: 100 H/s.
    BrowserDesktop,
    /// A native (non-browser) miner on server hardware, as used by the
    /// authors to resolve 61.5 M short-link hashes in under two days
    /// (~370 H/s sustained).
    NativeServer,
}

impl ClientClass {
    /// Nominal hash rate in H/s.
    pub fn hashes_per_second(self) -> f64 {
        match self {
            ClientClass::BrowserLaptop => 20.0,
            ClientClass::BrowserDesktop => 100.0,
            ClientClass::NativeServer => 370.0,
        }
    }

    /// Seconds to compute `hashes` at this class's rate — this is the top
    /// x-axis of Figure 4 ("Duration @20H/s").
    pub fn seconds_for(self, hashes: u64) -> f64 {
        hashes as f64 / self.hashes_per_second()
    }
}

/// Result of a live hash-rate measurement.
#[derive(Clone, Copy, Debug)]
pub struct HashrateSample {
    /// Number of hashes computed.
    pub hashes: u64,
    /// Wall-clock seconds elapsed.
    pub seconds: f64,
}

impl HashrateSample {
    /// Hashes per second.
    pub fn rate(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.hashes as f64 / self.seconds
    }
}

/// Computes `count` hashes of the given variant over distinct inputs and
/// reports the measured rate.
pub fn measure_hashrate(variant: Variant, count: u64) -> HashrateSample {
    let start = Instant::now();
    let mut sink = 0u8;
    for nonce in 0..count {
        let mut input = *b"hashrate-probe--________";
        input[16..24].copy_from_slice(&nonce.to_le_bytes());
        sink ^= slow_hash(&input, variant).0[0];
    }
    // Keep `sink` observable so the measurement loop cannot be elided.
    let seconds = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    std::hint::black_box(sink);
    HashrateSample {
        hashes: count,
        seconds,
    }
}

/// Formats a duration in the style of Figure 4's top axis (13s, 2m, 1.4h,
/// 16Gyr, ...).
pub fn human_duration(seconds: f64) -> String {
    const MINUTE: f64 = 60.0;
    const HOUR: f64 = 3600.0;
    const DAY: f64 = 86_400.0;
    const YEAR: f64 = 365.25 * DAY;
    if seconds < MINUTE {
        format!("{:.0}s", seconds)
    } else if seconds < HOUR {
        format!("{:.0}m", seconds / MINUTE)
    } else if seconds < DAY {
        format!("{:.1}h", seconds / HOUR)
    } else if seconds < YEAR {
        format!("{:.1}d", seconds / DAY)
    } else if seconds < 1e9 * YEAR {
        format!("{:.0}yr", seconds / YEAR)
    } else {
        format!("{:.0}Gyr", seconds / (1e9 * YEAR))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_classes_match_paper_anchors() {
        assert_eq!(ClientClass::BrowserLaptop.hashes_per_second(), 20.0);
        assert_eq!(ClientClass::BrowserDesktop.hashes_per_second(), 100.0);
    }

    #[test]
    fn figure4_duration_axis_values() {
        // Fig 4's top axis: 256 hashes -> 13 s, 1024 -> 51 s, 2^16 -> 55 m.
        let c = ClientClass::BrowserLaptop;
        assert_eq!(human_duration(c.seconds_for(256)), "13s");
        assert_eq!(human_duration(c.seconds_for(1024)), "51s");
        assert_eq!(human_duration(c.seconds_for(1 << 16)), "55m");
        // And the 1e19-hash tail takes billions of years.
        let tail = c.seconds_for(10_000_000_000_000_000_000);
        assert!(human_duration(tail).ends_with("Gyr"));
    }

    #[test]
    fn measure_hashrate_reports_positive_rate() {
        let s = measure_hashrate(Variant::Test, 8);
        assert_eq!(s.hashes, 8);
        assert!(s.rate() > 0.0);
    }

    #[test]
    fn zero_second_sample_rate_is_zero() {
        let s = HashrateSample {
            hashes: 10,
            seconds: 0.0,
        };
        assert_eq!(s.rate(), 0.0);
    }

    #[test]
    fn human_duration_units() {
        assert_eq!(human_duration(5.0), "5s");
        assert_eq!(human_duration(120.0), "2m");
        assert_eq!(human_duration(5040.0), "1.4h");
        assert_eq!(human_duration(200_000.0), "2.3d");
        assert!(human_duration(4e7).ends_with("yr"));
    }
}
