//! The correctness oracle: which CLI output lines are results, how two
//! runs' results are compared, and what the CLI's own accounting says
//! was lost.
//!
//! Result lines are picked by a whitelist of the lines that carry
//! experiment outcomes. Everything else — run headers naming the shard
//! count or snapshot directory, executor and checkpoint stats with
//! wall-clock figures, the fingerprint-memo report — is left out, so a
//! run on any backend or under supervision can be compared with the
//! sequential reference line by line.

/// Prefixes of the CLI's result lines (`minedig scan`, `attribute`,
/// `shortlink`).
const RESULT_PREFIXES: &[&str] = &[
    // scan
    "ground truth:",
    "zgrab + NoCoin",
    "zgrab fetches:",
    "chrome fetches:",
    "== Chrome scan ==",
    "NoCoin hits",
    "sites with Wasm",
    "miner-Wasm sites",
    "  blocked by NoCoin",
    "  missed by NoCoin",
    "top classes:",
    "(zone not part",
    // attribute
    "polls:",
    "blocks:",
    "recall ",
    "revenue:",
    // shortlink
    "top-1 user owns",
    "unbiased requirements",
    "top destinations",
];

/// The result lines of one CLI invocation's stdout, in order. The
/// indented rows under "top destinations" belong to that result.
pub fn result_lines(stdout: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_destinations = false;
    for line in stdout.lines() {
        if in_destinations && line.starts_with("  ") {
            out.push(line.to_string());
            continue;
        }
        in_destinations = false;
        if RESULT_PREFIXES.iter().any(|p| line.starts_with(p)) {
            in_destinations = line.starts_with("top destinations");
            out.push(line.to_string());
        }
    }
    out
}

/// `line` without its retry count. Retries are how a run under injected
/// faults reaches the fault-free result, so they are the one figure a
/// supervised, faulty run may legitimately add to a result line:
/// `…, 1252 silent, 599 retries` → `…, 1252 silent`, and
/// `…, 0 offline, 49876 retries, 0 endpoint…` → `…, 0 offline, 0 endpoint…`.
pub fn without_retries(line: &str) -> String {
    let mut out = line.to_string();
    while let Some(at) = out.find(" retries") {
        let digits_start = out[..at]
            .rfind(|c: char| !c.is_ascii_digit())
            .map_or(0, |i| i + 1);
        if digits_start == at || !out[..digits_start].ends_with(", ") {
            break;
        }
        out.replace_range(digits_start - 2..at + " retries".len(), "");
    }
    out
}

/// Number of result lines of `got` that differ from `reference`, with
/// missing or surplus lines counted as differences.
pub fn mismatches(reference: &[String], got: &[String]) -> usize {
    let paired = reference.iter().zip(got).filter(|(a, b)| a != b).count();
    paired + reference.len().abs_diff(got.len())
}

/// Column sums of the CLI's `== campaign degradation ==` table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Operations attempted (fetches, probes, polls).
    pub attempted: u64,
    /// Operations lost after every retry.
    pub lost: u64,
    /// Retries spent.
    pub retries: u64,
    /// Polls skipped by an open circuit breaker.
    pub quarantined: u64,
}

impl Degradation {
    /// Adds another table's sums.
    pub fn absorb(&mut self, other: Degradation) {
        self.attempted += other.attempted;
        self.lost += other.lost;
        self.retries += other.retries;
        self.quarantined += other.quarantined;
    }
}

/// Sums the rows of every degradation table in `stdout`. Rows are read
/// from the right (the campaign name may contain spaces): attempted,
/// succeeded, lost, retries, reconnects, quarantined, loss.
pub fn degradation(stdout: &str) -> Degradation {
    let mut sum = Degradation::default();
    let mut lines = stdout.lines();
    while let Some(line) = lines.next() {
        if line != "== campaign degradation ==" {
            continue;
        }
        let _header = lines.next();
        for row in lines.by_ref() {
            let cols: Vec<&str> = row.split_whitespace().collect();
            if cols.len() < 8 || !cols[cols.len() - 1].ends_with('%') {
                break;
            }
            let num = |back: usize| cols[cols.len() - back].parse::<u64>().ok();
            let (Some(attempted), Some(lost), Some(retries), Some(quarantined)) =
                (num(7), num(5), num(4), num(2))
            else {
                break;
            };
            sum.absorb(Degradation {
                attempted,
                lost,
                retries,
                quarantined,
            });
        }
    }
    sum
}

/// Sum of the numbers that directly precede `phrase` in `text`, e.g.
/// `sum_before(out, " items lost to crashes")`.
pub fn sum_before(text: &str, phrase: &str) -> u64 {
    text.match_indices(phrase)
        .filter_map(|(at, _)| {
            let head = &text[..at];
            let start = head
                .rfind(|c: char| !c.is_ascii_digit())
                .map_or(0, |i| i + 1);
            head[start..].parse::<u64>().ok()
        })
        .sum()
}

/// Sum of the numbers that directly follow `phrase` in `text`, e.g.
/// `sum_after(out, "hedges: ")`.
pub fn sum_after(text: &str, phrase: &str) -> u64 {
    text.match_indices(phrase)
        .filter_map(|(at, _)| {
            let tail = &text[at + phrase.len()..];
            let end = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            tail[..end].parse::<u64>().ok()
        })
        .sum()
}

/// Lines where the CLI itself flags a broken invariant: an unbalanced
/// accounting identity or an imprecise attribution.
pub fn self_reported_bugs(stdout: &str) -> usize {
    stdout
        .lines()
        .filter(|l| l.contains("UNBALANCED") || l.contains("precision BUG"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCAN: &str = "generating .org (9000000 domains, miners materialized exactly)…
ground truth: 1307 active miners

zgrab + NoCoin (TLS-only, 256 kB): 447 domains flagged, 0 FPs on 500 clean samples
zgrab: 2 shards, 2458 domains in 0.05s (50638 domains/s)
  shard 0: 1229 domains in 0.05s
zgrab fetches: 2458 attempted, 1206 responded (49.1%), 0 unreachable, 1252 silent
== Chrome scan ==
metric                                paper       measured     delta
NoCoin hits (post-exec HTML)              0            934      inf%
  blocked by NoCoin                       0            429      inf%
top classes: [(\"UnknownWSS\", 45)]
== campaign degradation ==
campaign  attempted  succeeded     lost  retries reconnects quarantined    loss
zgrab          2458       2458        0        0          0           0   0.00%
chrome         2458       2450        8       12          0           3   0.33%
";

    #[test]
    fn result_lines_skip_headers_and_wall_clock_stats() {
        let lines = result_lines(SCAN);
        assert_eq!(lines.len(), 7, "{lines:#?}");
        assert!(lines
            .iter()
            .all(|l| !l.contains("shard") && !l.contains("0.05s")));
        assert_eq!(lines[0], "ground truth: 1307 active miners");
        assert!(lines[5].starts_with("  blocked by NoCoin"));
    }

    #[test]
    fn destination_rows_belong_to_their_header() {
        let out = "generating 50000 short links (2-shard probing)…
top-1 user owns 33.3% of links; 10 users own 85% (paper: 1/3 and 10)
top destinations of heavy users:
  youtu.be                  19.3%
  zippyshare.com            10.4%
== campaign degradation ==
";
        let lines = result_lines(out);
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[3], "  zippyshare.com            10.4%");
    }

    #[test]
    fn retry_counts_are_masked_wherever_they_sit() {
        assert_eq!(
            without_retries("zgrab fetches: 10 attempted, 1252 silent, 599 retries"),
            "zgrab fetches: 10 attempted, 1252 silent"
        );
        assert_eq!(
            without_retries("polls: 5 issued, 0 offline, 49876 retries, 0 endpoint-sweeps down"),
            "polls: 5 issued, 0 offline, 0 endpoint-sweeps down"
        );
        assert_eq!(
            without_retries("polls: 5 issued, 0 offline, 0 retries, 0 endpoint-sweeps down"),
            "polls: 5 issued, 0 offline, 0 endpoint-sweeps down"
        );
        assert_eq!(without_retries("no counts here"), "no counts here");
    }

    #[test]
    fn mismatches_count_changed_missing_and_extra_lines() {
        let r: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(mismatches(&r, &r), 0);
        let changed: Vec<String> = ["a", "B", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(mismatches(&r, &changed), 1);
        assert_eq!(mismatches(&r, &r[..1]), 2);
        let longer: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        assert_eq!(mismatches(&r, &longer), 1);
    }

    #[test]
    fn degradation_rows_are_summed() {
        assert_eq!(
            degradation(SCAN),
            Degradation {
                attempted: 4916,
                lost: 8,
                retries: 12,
                quarantined: 3,
            }
        );
        let poll = "== campaign degradation ==
campaign      attempted  succeeded     lost  retries reconnects quarantined    loss
pool polling    1441984    1441984        0        0          0           0   0.00%
";
        assert_eq!(degradation(poll).attempted, 1_441_984);
        assert_eq!(degradation("nothing"), Degradation::default());
    }

    #[test]
    fn counters_around_phrases() {
        let out = "  39 checkpoints (9205 bytes last), 2 items lost to crashes, 0 before
  now: 0 open, 0 half-open; hedges: 25816 launched, 5429 won [balanced]
  1 checkpoints (9205 bytes last), 3 items lost to crashes";
        assert_eq!(sum_before(out, " items lost to crashes"), 5);
        assert_eq!(sum_after(out, "hedges: "), 25816);
        assert_eq!(self_reported_bugs(out), 0);
        assert_eq!(self_reported_bugs("recall 100.0% / precision BUG"), 1);
    }
}
