//! Paper-vs-measured reporting used by the reproduction binaries.

use crate::scan::FetchStats;
use minedig_analysis::poller::PollStats;
use minedig_primitives::health::HealthStats;
use minedig_primitives::supervise::{Backend, SuperviseReport};
use minedig_shortlink::campaign::WalkCounts;
use std::time::Duration;

/// One compared quantity.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// What is being compared.
    pub label: String,
    /// The value the paper reports.
    pub paper: f64,
    /// The value this reproduction measured.
    pub measured: f64,
}

impl Comparison {
    /// Builds a comparison row.
    pub fn new(label: &str, paper: f64, measured: f64) -> Comparison {
        Comparison {
            label: label.to_string(),
            paper,
            measured,
        }
    }

    /// Relative delta in percent (positive = measured higher).
    pub fn delta_pct(&self) -> f64 {
        if self.paper == 0.0 {
            return if self.measured == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.measured - self.paper) / self.paper * 100.0
    }
}

/// Renders comparison rows as an aligned text table.
pub fn comparison_table(title: &str, rows: &[Comparison]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let width = rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(10)
        .max(10);
    out.push_str(&format!(
        "{:<width$} {:>14} {:>14} {:>9}\n",
        "metric", "paper", "measured", "delta"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<width$} {:>14} {:>14} {:>8.1}%\n",
            r.label,
            format_value(r.paper),
            format_value(r.measured),
            r.delta_pct()
        ));
    }
    out
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v.abs() >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v.abs() >= 10_000.0 {
        format!("{:.1}k", v / 1e3)
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders an `(x, count)` series as a text bar chart (log-ish scaling),
/// used to print figure panels.
pub fn bar_chart(title: &str, series: &[(String, f64)], max_width: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("-- {title} --\n"));
    let max = series.iter().map(|(_, v)| *v).fold(0.0, f64::max);
    let label_w = series.iter().map(|(l, _)| l.len()).max().unwrap_or(4);
    for (label, value) in series {
        let bar_len = if max > 0.0 {
            ((value / max) * max_width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$} {:>12} |{}\n",
            format_value(*value),
            "#".repeat(bar_len)
        ));
    }
    out
}

/// Renders one campaign's run as a single line: the backend it ran on,
/// the items it processed and its wall time, e.g.
///
/// ```text
/// chrome: sharded(4), 2217 domains in 0.42s
/// ```
pub fn campaign_line(
    label: &str,
    backend: &Backend,
    items: u64,
    unit: &str,
    wall: Duration,
) -> String {
    format!(
        "{label}: {backend}, {items} {unit} in {:.2}s\n",
        wall.as_secs_f64()
    )
}

/// Renders one scan's [`FetchStats`] as a Table 1-style response-rate
/// line, e.g.
///
/// ```text
/// zgrab .org: 1250 attempted, 980 responded (78.4%), 30 unreachable, 240 silent, 45 retries
/// ```
///
/// The retry tail is omitted when no transport model was active.
pub fn fetch_stats(label: &str, stats: &FetchStats) -> String {
    let mut out = format!(
        "{label}: {} attempted, {} responded ({:.1}%), {} unreachable, {} silent",
        stats.attempted,
        stats.responded,
        stats.response_rate() * 100.0,
        stats.unreachable,
        stats.silent,
    );
    if stats.retries > 0 {
        out.push_str(&format!(", {} retries", stats.retries));
    }
    out.push('\n');
    out
}

/// One measurement campaign's transport-health counters, normalized
/// into common columns so the zone scans, the link-space enumeration and
/// the pool polling can sit side by side in one table.
///
/// The mapping per source:
/// * fetch campaigns — `succeeded` counts every domain the transport
///   reached (responding *or* silent; silence is a property of the
///   population, not degradation), `lost` the retry-exhausted ones;
/// * enumeration — `lost` is the probes that exhausted their retries
///   (neutral to the dead run, but gone from the dataset);
/// * polling — `lost` is outage-refused polls plus endpoint-sweeps that
///   exhausted their retries.
#[derive(Clone, Debug)]
pub struct CampaignHealth {
    /// Campaign label, e.g. `"zgrab .org"`.
    pub campaign: String,
    /// Units of work attempted (fetches, probes, polls).
    pub attempted: u64,
    /// Units the transport delivered a usable observation for.
    pub succeeded: u64,
    /// Units permanently lost to transport degradation.
    pub lost: u64,
    /// Transient faults recovered by retrying.
    pub retries: u64,
    /// Connections re-established after teardowns.
    pub reconnects: u64,
    /// Units refused up front by a tripped circuit breaker (no budget
    /// spent); only pool polling runs behind the health layer today.
    pub quarantined: u64,
}

impl CampaignHealth {
    /// Health row of a scan's fetch campaign.
    pub fn from_fetch(campaign: &str, stats: &FetchStats) -> CampaignHealth {
        CampaignHealth {
            campaign: campaign.to_string(),
            attempted: stats.attempted,
            succeeded: stats.responded + stats.silent,
            lost: stats.unreachable,
            retries: stats.retries,
            reconnects: 0,
            quarantined: 0,
        }
    }

    /// Health row of a link-space enumeration, from its walk's counters.
    pub fn from_enumeration(campaign: &str, walk: &WalkCounts) -> CampaignHealth {
        CampaignHealth {
            campaign: campaign.to_string(),
            attempted: walk.probed,
            succeeded: walk.probed - walk.failed_probes,
            lost: walk.failed_probes,
            retries: walk.probe_retries,
            reconnects: 0,
            quarantined: 0,
        }
    }

    /// Health row of a pool-polling campaign.
    pub fn from_polls(campaign: &str, stats: &PollStats) -> CampaignHealth {
        CampaignHealth {
            campaign: campaign.to_string(),
            attempted: stats.polls,
            succeeded: stats.answered,
            lost: stats.offline + stats.endpoints_down,
            retries: stats.retries,
            reconnects: stats.reconnects,
            quarantined: stats.quarantined,
        }
    }

    /// Fraction of attempted units permanently lost.
    pub fn loss_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.lost as f64 / self.attempted as f64
        }
    }
}

/// Renders campaign health rows as one aligned cross-campaign table —
/// the single place to read how much every measurement lost to (or
/// recovered from) transport degradation.
pub fn degradation_summary(rows: &[CampaignHealth]) -> String {
    let mut out = String::new();
    out.push_str("== campaign degradation ==\n");
    let width = rows
        .iter()
        .map(|r| r.campaign.len())
        .max()
        .unwrap_or(8)
        .max(8);
    out.push_str(&format!(
        "{:<width$} {:>10} {:>10} {:>8} {:>8} {:>10} {:>11} {:>7}\n",
        "campaign",
        "attempted",
        "succeeded",
        "lost",
        "retries",
        "reconnects",
        "quarantined",
        "loss"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<width$} {:>10} {:>10} {:>8} {:>8} {:>10} {:>11} {:>6.2}%\n",
            r.campaign,
            r.attempted,
            r.succeeded,
            r.lost,
            r.retries,
            r.reconnects,
            r.quarantined,
            r.loss_rate() * 100.0
        ));
    }
    out
}

/// Renders a supervised run's crash/checkpoint accounting, e.g.
///
/// ```text
/// zgrab .org (supervised): 1050 items over 4 attempts (3 crashes)
///   17 checkpoints (8531 bytes written), 42 items lost to crashes, 1008 before crash + 42 after resume [balanced]
/// ```
pub fn checkpoint_summary(label: &str, report: &SuperviseReport) -> String {
    let mut out = format!(
        "{label}: {} items over {} attempts ({} crashes)\n",
        report.items_executed(),
        report.attempts,
        report.crashes,
    );
    out.push_str(&format!(
        "  {} checkpoints ({} bytes written), {} items lost to crashes, {} before crash + {} after resume [{}]\n",
        report.checkpoints,
        report.bytes_written,
        report.items_lost,
        report.items_before_crash,
        report.items_after_resume,
        if report.balanced() {
            "balanced"
        } else {
            "UNBALANCED"
        },
    ));
    out
}

/// Renders the endpoint-health layer's breaker and hedge accounting, e.g.
///
/// ```text
/// pool health: 13440 breaker checks, 310 quarantined, 8 trips, 9 probes (7 closes, 2 reopens)
///   now: 1 open, 0 half-open; hedges: 86 launched, 31 won [balanced]
/// ```
pub fn health_summary(label: &str, stats: &HealthStats) -> String {
    let b = &stats.breaker;
    let mut out = format!(
        "{label}: {} breaker checks, {} quarantined, {} trips, {} probes ({} closes, {} reopens)\n",
        b.checks, b.quarantined, b.trips, b.probes, b.closes, b.reopens,
    );
    out.push_str(&format!(
        "  now: {} open, {} half-open; hedges: {} launched, {} won [{}]\n",
        stats.open_now,
        stats.half_open_now,
        stats.hedges,
        stats.hedge_wins,
        if stats.balanced() {
            "balanced"
        } else {
            "UNBALANCED"
        },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_computation() {
        let c = Comparison::new("x", 100.0, 110.0);
        assert!((c.delta_pct() - 10.0).abs() < 1e-9);
        let z = Comparison::new("z", 0.0, 0.0);
        assert_eq!(z.delta_pct(), 0.0);
        assert!(Comparison::new("w", 0.0, 1.0).delta_pct().is_infinite());
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![
            Comparison::new("alpha", 1.0, 1.1),
            Comparison::new("beta-very-long-label", 2e9, 2.2e9),
        ];
        let t = comparison_table("Test", &rows);
        assert!(t.contains("alpha"));
        assert!(t.contains("beta-very-long-label"));
        assert!(t.contains("2.00G"));
        assert!(t.contains("10.0%"));
    }

    #[test]
    fn checkpoint_summary_renders_accounting() {
        let report = SuperviseReport {
            attempts: 4,
            crashes: 3,
            checkpoints: 17,
            bytes_written: 8_531,
            items_before_crash: 1_008,
            items_after_resume: 42,
            items_lost: 42,
            start_progress: 0,
            final_progress: 1_008,
        };
        let text = checkpoint_summary("zgrab .org (supervised)", &report);
        assert!(text.contains("1050 items over 4 attempts (3 crashes)\n"));
        assert!(text.contains("17 checkpoints (8531 bytes written), 42 items lost to crashes"));
        assert!(text.contains("[balanced]"), "{text}");
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(55_400_000_000.0), "55.40G");
        assert_eq!(format_value(5_500_000.0), "5.50M");
        assert_eq!(format_value(85_000.0), "85.0k");
        assert_eq!(format_value(737.0), "737");
        assert_eq!(format_value(1.18), "1.18");
        assert_eq!(format_value(0.0118), "0.0118");
    }

    #[test]
    fn campaign_line_names_backend_items_and_wall() {
        let line = campaign_line(
            "chrome",
            &Backend::Sharded(4),
            2217,
            "domains",
            Duration::from_millis(420),
        );
        assert_eq!(line, "chrome: sharded(4), 2217 domains in 0.42s\n");
    }

    #[test]
    fn fetch_stats_renders_response_rate() {
        let stats = FetchStats {
            attempted: 1250,
            responded: 980,
            unreachable: 30,
            silent: 240,
            retries: 45,
        };
        let text = fetch_stats("zgrab .org", &stats);
        assert!(text.contains("1250 attempted"));
        assert!(text.contains("980 responded (78.4%)"));
        assert!(text.contains("30 unreachable"));
        assert!(text.contains("45 retries"));
        // No retry tail when no transport model was active.
        let clean = FetchStats {
            attempted: 10,
            responded: 10,
            ..FetchStats::default()
        };
        assert!(!fetch_stats("x", &clean).contains("retries"));
    }

    #[test]
    fn degradation_rows_normalize_all_three_sources() {
        let fetch = CampaignHealth::from_fetch(
            "zgrab .org",
            &FetchStats {
                attempted: 1250,
                responded: 980,
                unreachable: 30,
                silent: 240,
                retries: 45,
            },
        );
        assert_eq!(fetch.succeeded, 1220, "silent domains were reached");
        assert_eq!(fetch.lost, 30);
        assert!((fetch.loss_rate() - 0.024).abs() < 1e-9);

        let walk = WalkCounts {
            probed: 5_064,
            failed_probes: 12,
            probe_retries: 88,
        };
        let enum_row = CampaignHealth::from_enumeration("shortlink enum", &walk);
        assert_eq!(enum_row.attempted, 5_064);
        assert_eq!(enum_row.succeeded, 5_052);
        assert_eq!(enum_row.retries, 88);

        let polls = CampaignHealth::from_polls(
            "pool polling",
            &PollStats {
                polls: 10_000,
                answered: 9_700,
                offline: 200,
                endpoints_down: 100,
                retries: 340,
                reconnects: 17,
                quarantined: 25,
                ..PollStats::default()
            },
        );
        assert_eq!(polls.lost, 300, "outages + exhausted endpoints");
        assert_eq!(polls.reconnects, 17);
        assert_eq!(polls.quarantined, 25, "breaker-refused sweeps surface");

        let table = degradation_summary(&[fetch, enum_row, polls]);
        assert!(table.contains("campaign"));
        assert!(table.contains("zgrab .org"));
        assert!(table.contains("shortlink enum"));
        assert!(table.contains("pool polling"));
        assert!(table.contains("quarantined"));
        assert!(table.contains("2.40%"));
        assert_eq!(table.lines().count(), 5, "header line + 3 rows + title");
    }

    #[test]
    fn health_summary_renders_breaker_and_hedges() {
        use minedig_primitives::health::BreakerStats;
        let stats = HealthStats {
            breaker: BreakerStats {
                checks: 13_440,
                allowed: 13_130,
                quarantined: 310,
                trips: 8,
                probes: 9,
                reopens: 2,
                closes: 7,
            },
            hedges: 86,
            hedge_wins: 31,
            open_now: 1,
            half_open_now: 0,
        };
        let text = health_summary("pool health", &stats);
        assert!(text.contains("13440 breaker checks, 310 quarantined, 8 trips"));
        assert!(text.contains("9 probes (7 closes, 2 reopens)"));
        assert!(text.contains("now: 1 open, 0 half-open"));
        assert!(text.contains("hedges: 86 launched, 31 won"));
        assert!(text.contains("[balanced]"), "{text}");
    }

    #[test]
    fn empty_campaign_has_zero_loss() {
        let row = CampaignHealth::from_fetch("empty", &FetchStats::default());
        assert_eq!(row.loss_rate(), 0.0);
    }

    #[test]
    fn bar_chart_scales() {
        let series = vec![
            ("a".to_string(), 10.0),
            ("bb".to_string(), 5.0),
            ("ccc".to_string(), 0.0),
        ];
        let chart = bar_chart("demo", &series, 20);
        assert!(chart.contains(&"#".repeat(20)));
        assert!(chart.contains(&"#".repeat(10)));
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 4);
    }
}
