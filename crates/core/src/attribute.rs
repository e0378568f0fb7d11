//! §4.2 presets: paper-calibrated attribution scenarios.

use minedig_analysis::scenario::{RateSegment, ScenarioConfig};

/// Months of Table 6 (2018).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Month {
    /// May 2018.
    May,
    /// June 2018.
    June,
    /// July 2018.
    July,
}

impl Month {
    /// `[start, end)` unix window of the month (2018, UTC).
    pub fn window(&self) -> (u64, u64) {
        match self {
            Month::May => (1_525_132_800, 1_527_811_200),
            Month::June => (1_527_811_200, 1_530_403_200),
            Month::July => (1_530_403_200, 1_533_081_600),
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Month::May => "May",
            Month::June => "June",
            Month::July => "July",
        }
    }

    /// Days in the month.
    pub fn days(&self) -> u64 {
        let (a, b) = self.window();
        (b - a) / 86_400
    }
}

/// The Figure 5 scenario: four weeks from 26 April 2018, Coinhive at
/// ~1.2 % of the network, with the observed outage and holiday spikes.
pub fn fig5_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    }
}

/// A Table 6 scenario covering one month. Rates follow the paper's
/// monthly deltas: June saw more Coinhive blocks (9.7/day avg), July a
/// higher network difficulty (Coinhive at 5.8 MH/s for ~the same share).
pub fn month_config(month: Month, seed: u64) -> ScenarioConfig {
    let (start, _end) = month.window();
    let (network, pool) = match month {
        Month::May => (456_000_000.0, 6_000_000.0),
        Month::June => (456_000_000.0, 6_600_000.0),
        Month::July => (481_000_000.0, 6_300_000.0),
    };
    ScenarioConfig {
        start_time: start,
        duration_days: month.days(),
        segments: vec![RateSegment {
            from: 0,
            network,
            pool,
        }],
        // The outage and holiday presets of Fig 5 are April/May-specific;
        // May keeps them, June/July run clean.
        holidays: if month == Month::May {
            vec![1_525_910_400, 1_526_947_200]
        } else {
            vec![]
        },
        outages: if month == Month::May {
            vec![minedig_analysis::scenario::FIG5_OUTAGE]
        } else {
            vec![]
        },
        initial_difficulty: ((network + pool) * 120.0) as u64,
        seed,
        ..ScenarioConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minedig_analysis::scenario::FIG5_START;

    #[test]
    fn month_windows_are_contiguous() {
        assert_eq!(Month::May.window().1, Month::June.window().0);
        assert_eq!(Month::June.window().1, Month::July.window().0);
        assert_eq!(Month::May.days(), 31);
        assert_eq!(Month::June.days(), 30);
        assert_eq!(Month::July.days(), 31);
    }

    #[test]
    fn fig5_defaults() {
        let c = fig5_config(1);
        assert_eq!(c.start_time, FIG5_START);
        assert_eq!(c.duration_days, 28);
        assert_eq!(c.outages.len(), 1);
        assert_eq!(c.holidays.len(), 3);
    }

    #[test]
    fn month_configs_follow_table6_shape() {
        let may = month_config(Month::May, 1);
        let june = month_config(Month::June, 1);
        let july = month_config(Month::July, 1);
        assert!(june.segments[0].pool > may.segments[0].pool);
        assert!(july.segments[0].network > may.segments[0].network);
        assert!(may.outages.len() == 1 && june.outages.is_empty());
    }
}
