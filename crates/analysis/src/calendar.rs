//! The Figure 5 day × hour-of-day block matrix.

use crate::attribution::AttributedBlock;

/// A day×24 matrix of attributed block counts plus marginals.
#[derive(Clone, Debug)]
pub struct BlockCalendar {
    /// Window start (unix seconds, midnight-aligned by construction).
    pub start: u64,
    /// Per-day, per-hour counts.
    pub grid: Vec<[u32; 24]>,
    /// Days with zero observer coverage (infrastructure outages are
    /// rendered black in the paper's figure).
    pub outage_days: Vec<usize>,
}

impl BlockCalendar {
    /// Builds the calendar over `[start, start + days*86400)`.
    pub fn new(blocks: &[AttributedBlock], start: u64, days: usize) -> BlockCalendar {
        let mut grid = vec![[0u32; 24]; days];
        for b in blocks {
            if b.found_at < start {
                continue;
            }
            let offset = b.found_at - start;
            let day = (offset / 86_400) as usize;
            if day >= days {
                continue;
            }
            let hour = ((offset % 86_400) / 3_600) as usize;
            grid[day][hour] += 1;
        }
        BlockCalendar {
            start,
            grid,
            outage_days: Vec::new(),
        }
    }

    /// Marks outage days (driver supplies them from observer gap stats).
    pub fn with_outages(mut self, days: Vec<usize>) -> BlockCalendar {
        self.outage_days = days;
        self
    }

    /// Blocks per day (the right marginal of Fig 5).
    pub fn per_day(&self) -> Vec<u32> {
        self.grid.iter().map(|row| row.iter().sum()).collect()
    }

    /// Median blocks/day.
    pub fn median_per_day(&self) -> f64 {
        let mut v: Vec<u64> = self.per_day().iter().map(|&c| c as u64).collect();
        if v.is_empty() {
            return 0.0;
        }
        minedig_primitives::stats::median_u64(&mut v)
    }

    /// Days (indices) with strictly more blocks than `threshold` × the
    /// median — the holiday spikes the paper points out.
    pub fn spike_days(&self, threshold: f64) -> Vec<usize> {
        let median = self.median_per_day();
        self.per_day()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c as f64 > median * threshold)
            .map(|(d, _)| d)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minedig_primitives::Hash32;

    fn block_at(found_at: u64) -> AttributedBlock {
        AttributedBlock {
            height: 0,
            block_id: Hash32::keccak(&found_at.to_le_bytes()),
            timestamp: found_at,
            found_at,
            reward: 1,
        }
    }

    #[test]
    fn grid_placement() {
        let blocks = vec![
            block_at(0),                       // day 0, hour 0
            block_at(3_600),                   // day 0, hour 1
            block_at(86_400 + 2 * 3_600 + 59), // day 1, hour 2
        ];
        let cal = BlockCalendar::new(&blocks, 0, 2);
        assert_eq!(cal.grid[0][0], 1);
        assert_eq!(cal.grid[0][1], 1);
        assert_eq!(cal.grid[1][2], 1);
        assert_eq!(cal.per_day(), vec![2, 1]);
    }

    #[test]
    fn out_of_window_blocks_skipped() {
        let blocks = vec![block_at(0), block_at(86_400 * 5)];
        let cal = BlockCalendar::new(&blocks, 0, 2);
        assert_eq!(cal.per_day().iter().sum::<u32>(), 1);
    }

    #[test]
    fn median_and_spikes() {
        // 6 quiet days (2 blocks) + 1 spike day (10 blocks).
        let mut blocks = Vec::new();
        for d in 0..6u64 {
            blocks.push(block_at(d * 86_400 + 100));
            blocks.push(block_at(d * 86_400 + 7_200));
        }
        for i in 0..10u64 {
            blocks.push(block_at(6 * 86_400 + i * 3_000));
        }
        let cal = BlockCalendar::new(&blocks, 0, 7);
        assert_eq!(cal.median_per_day(), 2.0);
        assert_eq!(cal.spike_days(1.5), vec![6]);
    }

    #[test]
    fn outage_marking() {
        let cal = BlockCalendar::new(&[], 0, 3).with_outages(vec![1]);
        assert_eq!(cal.outage_days, vec![1]);
        assert_eq!(cal.median_per_day(), 0.0);
    }
}
