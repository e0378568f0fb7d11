//! Statistical whole-network mining simulation.
//!
//! Reproducing §4.2 needs months of Monero history: ~720 blocks/day with a
//! difficulty near 55.4 G — infeasible to grind hash-by-hash. The netsim
//! instead *samples* block discovery (inter-block times are exponential
//! with rate `total_hashrate / difficulty`, the winner is drawn
//! proportionally to hash rate) while building **real blocks**: real
//! Coinbase transactions owned by the winner, real Merkle trees over a
//! synthetic mempool, and a real difficulty feedback loop. The blobs a
//! pool serves during an interval and the block that ends the interval are
//! therefore cryptographically consistent, which is exactly what the
//! paper's Merkle-root matching methodology requires.

use crate::block::{Block, BlockHeader};
use crate::chain::Chain;
use crate::tx::{MinerTag, Transaction};
use minedig_pow::Difficulty;
use minedig_primitives::{DetRng, Hash32};

/// Information about the current tip, handed to every template source
/// whenever a new block is accepted (and once at simulation start).
#[derive(Clone, Debug)]
pub struct TipInfo {
    /// Height of the *next* block to be mined.
    pub height: u64,
    /// Id of the current tip block.
    pub prev_id: Hash32,
    /// Timestamp of the tip block (or simulation start).
    pub prev_timestamp: u64,
    /// Reward the next Coinbase must claim.
    pub reward: u64,
    /// Difficulty the next block must meet.
    pub difficulty: Difficulty,
    /// Transactions pending inclusion in the next block.
    pub mempool: Vec<Transaction>,
}

/// Produces block templates for an actor.
///
/// Pools snapshot per-backend templates in [`TemplateSource::on_new_tip`]
/// and return one of them from [`TemplateSource::make_block`]; solo miners
/// can build the block lazily.
pub trait TemplateSource: Send {
    /// Called when the chain tip changes.
    fn on_new_tip(&mut self, tip: &TipInfo);
    /// Called when this actor wins the next block. `found_at` is the
    /// virtual time of discovery.
    fn make_block(&mut self, found_at: u64) -> Block;
}

/// A solo miner (or generic pool we don't instrument) that stamps blocks
/// with its own tag and the discovery time.
pub struct SoloSource {
    tag: MinerTag,
    tip: Option<TipInfo>,
}

impl SoloSource {
    /// Creates a source with a tag derived from `label`.
    pub fn new(label: &str) -> SoloSource {
        SoloSource {
            tag: MinerTag::from_label(label),
            tip: None,
        }
    }
}

impl TemplateSource for SoloSource {
    fn on_new_tip(&mut self, tip: &TipInfo) {
        self.tip = Some(tip.clone());
    }

    fn make_block(&mut self, found_at: u64) -> Block {
        let tip = self.tip.as_ref().expect("make_block before on_new_tip");
        Block {
            header: BlockHeader {
                major_version: 7,
                minor_version: 7,
                timestamp: found_at,
                prev_id: tip.prev_id,
                nonce: 0,
            },
            miner_tx: Transaction::coinbase(tip.height, tip.reward, self.tag, vec![]),
            txs: tip.mempool.clone(),
        }
    }
}

/// Hash-rate profile of an actor as a function of virtual unix time.
pub type RateProfile = Box<dyn Fn(u64) -> f64 + Send>;

/// A mining actor: a named hash-rate profile plus a template source.
pub struct Actor {
    /// Display name (also used in attribution ground truth).
    pub name: String,
    /// Hash rate in H/s at a given virtual time.
    pub profile: RateProfile,
    /// Template construction for blocks this actor wins.
    pub source: Box<dyn TemplateSource>,
}

impl Actor {
    /// Convenience constructor for a constant-rate solo actor.
    pub fn constant(name: &str, rate: f64) -> Actor {
        Actor {
            name: name.to_string(),
            profile: Box::new(move |_| rate),
            source: Box::new(SoloSource::new(name)),
        }
    }
}

/// A block discovery event recorded by the simulation.
#[derive(Clone, Debug)]
pub struct MinedEvent {
    /// Height of the accepted block.
    pub height: u64,
    /// Virtual time the block was found.
    pub found_at: u64,
    /// Index into the actor list of the winner.
    pub actor: usize,
    /// Winner's name (denormalized for convenience).
    pub actor_name: String,
    /// Block id.
    pub block_id: Hash32,
    /// Coinbase reward in atomic units.
    pub reward: u64,
    /// Difficulty the block met.
    pub difficulty: Difficulty,
}

/// Configuration for [`NetSim`].
pub struct NetSimConfig {
    /// Virtual start time (unix seconds).
    pub start_time: u64,
    /// Initial network difficulty (the window is pre-seeded with it).
    pub initial_difficulty: Difficulty,
    /// Mean number of transfer transactions per block (Poisson).
    pub mean_txs_per_block: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetSimConfig {
    fn default() -> Self {
        NetSimConfig {
            start_time: 1_524_700_800, // 2018-04-26 00:00 UTC, Fig 5 start
            initial_difficulty: 55_400_000_000,
            mean_txs_per_block: 12.0,
            seed: 0x5eed,
        }
    }
}

/// Called once per inter-block interval with `(interval_start,
/// interval_end)` — the window during which the pre-block tip was
/// current. The paper's observer polls pool endpoints inside exactly such
/// windows, so the hook fires *before* the new block is built and
/// announced.
pub type IntervalHook = Box<dyn FnMut(u64, u64) + Send>;

/// The network simulator.
pub struct NetSim {
    actors: Vec<Actor>,
    chain: Chain,
    rng: DetRng,
    mean_txs: f64,
    now: u64,
    events: Vec<MinedEvent>,
    interval_hook: Option<IntervalHook>,
}

impl NetSim {
    /// Builds a simulator over the given actors, on a chain that starts
    /// from mid-2018's generated supply.
    pub fn new(config: NetSimConfig, actors: Vec<Actor>) -> NetSim {
        assert!(!actors.is_empty(), "netsim needs at least one actor");
        let mut chain = Chain::new(crate::emission::supply_mid_2018());
        chain.seed_difficulty(config.start_time, config.initial_difficulty, 720);
        let mut sim = NetSim {
            actors,
            chain,
            rng: DetRng::seed(config.seed).derive("chain.netsim"),
            mean_txs: config.mean_txs_per_block,
            now: config.start_time,
            events: Vec::new(),
            interval_hook: None,
        };
        sim.broadcast_tip();
        sim
    }

    /// Installs the per-interval observation hook (see [`IntervalHook`]).
    pub fn set_interval_hook(&mut self, hook: IntervalHook) {
        self.interval_hook = Some(hook);
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The underlying chain.
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// All recorded discovery events.
    pub fn events(&self) -> &[MinedEvent] {
        &self.events
    }

    fn mempool(&mut self) -> Vec<Transaction> {
        let n = self.rng.poisson(self.mean_txs);
        (0..n)
            .map(|_| {
                let payload = Hash32::keccak(&self.rng.next_u64().to_le_bytes());
                Transaction::transfer(payload)
            })
            .collect()
    }

    fn broadcast_tip(&mut self) {
        let mempool = self.mempool();
        let tip = TipInfo {
            height: self.chain.height(),
            prev_id: self.chain.tip_id(),
            prev_timestamp: self
                .chain
                .tip()
                .map(|b| b.header.timestamp)
                .unwrap_or(self.now),
            reward: self.chain.next_reward(),
            difficulty: self.chain.next_difficulty(),
            mempool,
        };
        for actor in &mut self.actors {
            actor.source.on_new_tip(&tip);
        }
    }

    /// Advances the simulation by one block. Returns `None` when the total
    /// hash rate is zero (nobody can mine).
    pub fn step(&mut self) -> Option<MinedEvent> {
        let difficulty = self.chain.next_difficulty();
        let rates: Vec<f64> = self
            .actors
            .iter()
            .map(|a| (a.profile)(self.now).max(0.0))
            .collect();
        let total: f64 = rates.iter().sum();
        if total <= 0.0 {
            return None;
        }
        // Inter-block time ~ Exp(total / difficulty).
        let rate = total / difficulty as f64;
        let dt = self.rng.exponential(rate).max(1.0);
        let interval_start = self.now;
        self.now += dt.round() as u64;

        // Let observers sample the pre-block world (job blobs of the
        // current tip) across the interval that just elapsed.
        if let Some(hook) = self.interval_hook.as_mut() {
            hook(interval_start, self.now);
        }

        let winner = self.rng.weighted_index(&rates);
        let block = self.actors[winner].source.make_block(self.now);
        let height = self.chain.height();
        let reward = self.chain.next_reward();
        let id = block.id();
        self.chain
            .append(block)
            .expect("template source produced invalid block");
        let event = MinedEvent {
            height,
            found_at: self.now,
            actor: winner,
            actor_name: self.actors[winner].name.clone(),
            block_id: id,
            reward,
            difficulty,
        };
        self.events.push(event.clone());
        self.broadcast_tip();
        Some(event)
    }

    /// Runs until virtual time reaches `end_time`, returning the events
    /// produced by this call.
    pub fn run_until(&mut self, end_time: u64) -> Vec<MinedEvent> {
        let mut produced = Vec::new();
        while self.now < end_time {
            match self.step() {
                Some(ev) => produced.push(ev),
                None => {
                    // Dead network: advance time to the end.
                    self.now = end_time;
                    break;
                }
            }
        }
        produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BLOCKS_PER_DAY, TARGET_BLOCK_TIME};

    fn two_actor_sim(seed: u64) -> NetSim {
        let cfg = NetSimConfig {
            seed,
            ..NetSimConfig::default()
        };
        NetSim::new(
            cfg,
            vec![
                Actor::constant("bignet", 456_500_000.0),
                Actor::constant("coinhive", 5_500_000.0),
            ],
        )
    }

    #[test]
    fn block_rate_tracks_target() {
        let mut sim = two_actor_sim(1);
        let start = sim.now();
        let events = sim.run_until(start + 86_400 * 3);
        let per_day = events.len() as f64 / 3.0;
        // Expect ~720 blocks/day within sampling noise.
        assert!(
            (per_day - BLOCKS_PER_DAY as f64).abs() < 80.0,
            "per_day {per_day}"
        );
    }

    #[test]
    fn winner_share_matches_hashrate_share() {
        let mut sim = two_actor_sim(2);
        let start = sim.now();
        let events = sim.run_until(start + 86_400 * 14);
        let coinhive = events.iter().filter(|e| e.actor == 1).count() as f64;
        let share = coinhive / events.len() as f64;
        // 5.5 / 462 ≈ 1.19%; allow generous noise over two weeks.
        assert!((0.006..0.020).contains(&share), "share {share}");
    }

    #[test]
    fn chain_is_structurally_valid() {
        let mut sim = two_actor_sim(3);
        let start = sim.now();
        sim.run_until(start + 86_400);
        let chain = sim.chain();
        assert!(chain.height() > 500);
        // Every block links to its predecessor.
        let mut prev = Hash32::ZERO;
        for b in chain.iter() {
            assert_eq!(b.header.prev_id, prev);
            prev = b.id();
        }
    }

    #[test]
    fn difficulty_reacts_to_hashrate_change() {
        // Halve the hash rate after day 2 and check difficulty follows.
        let cfg = NetSimConfig {
            seed: 4,
            ..NetSimConfig::default()
        };
        let start = cfg.start_time;
        let actor = Actor {
            name: "net".into(),
            profile: Box::new(move |t| {
                if t < start + 2 * 86_400 {
                    462_000_000.0
                } else {
                    231_000_000.0
                }
            }),
            source: Box::new(SoloSource::new("net")),
        };
        let mut sim = NetSim::new(cfg, vec![actor]);
        sim.run_until(start + 6 * 86_400);
        let d = sim.chain().next_difficulty();
        let implied = d as f64 / TARGET_BLOCK_TIME as f64;
        assert!(
            (implied - 231_000_000.0).abs() / 231_000_000.0 < 0.25,
            "implied hashrate {implied}"
        );
    }

    #[test]
    fn zero_hashrate_halts() {
        let cfg = NetSimConfig {
            seed: 5,
            ..NetSimConfig::default()
        };
        let mut sim = NetSim::new(cfg, vec![Actor::constant("dead", 0.0)]);
        assert!(sim.step().is_none());
        let start = sim.now();
        let events = sim.run_until(start + 1000);
        assert!(events.is_empty());
        assert_eq!(sim.now(), start + 1000);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = two_actor_sim(42);
        let mut b = two_actor_sim(42);
        let start = a.now();
        let ea = a.run_until(start + 86_400 / 2);
        let eb = b.run_until(start + 86_400 / 2);
        assert_eq!(ea.len(), eb.len());
        for (x, y) in ea.iter().zip(eb.iter()) {
            assert_eq!(x.block_id, y.block_id);
            assert_eq!(x.actor, y.actor);
        }
    }

    #[test]
    fn rewards_follow_emission() {
        let mut sim = two_actor_sim(6);
        let start = sim.now();
        let events = sim.run_until(start + 86_400 / 4);
        for w in events.windows(2) {
            assert!(w[1].reward <= w[0].reward, "emission must not increase");
        }
        let xmr = crate::emission::atomic_to_xmr(events[0].reward);
        assert!((4.2..4.7).contains(&xmr), "reward {xmr}");
    }
}
