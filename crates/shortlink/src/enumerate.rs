//! The researcher-side ID-space enumeration (§4.1).
//!
//! "We visit all links and gather the Coinhive redirection HTML document
//! to collect i) the link creator's token […] as well as ii) the number
//! of hash computations required." The walk stops after a configurable
//! run of dead codes (the live space is a prefix because IDs increase).
//!
//! [`enumerate_links_with`] is the sequential reference walk; the
//! paper-scale crawl runs the same walk as an
//! [`EnumCampaign`](crate::campaign::EnumCampaign) on any execution
//! backend, bit-identical to this one.
//!
//! Probes can also *fail* at the transport level (see
//! [`crate::probe`]). Failures are retried under a [`ProbePolicy`];
//! a probe that exhausts its retries is **neutral** to the dead-run
//! heuristic — it neither resets the run (failures in dead space must
//! not keep the walk alive forever) nor advances it (an outage must
//! not truncate the live ID space) — and is tallied in
//! [`Enumeration::failed_probes`].

use crate::ids::index_to_code;
use crate::probe::{probe_with_retry, LinkProber, ProbePolicy};
use crate::service::{ShortlinkService, VisitDoc};
use minedig_primitives::{IdMap, IdSet};

/// Result of enumerating the address space.
#[derive(Clone, Debug)]
pub struct Enumeration {
    /// Every live link's scraped document, in ID order.
    pub docs: Vec<VisitDoc>,
    /// Number of codes probed (live + dead + failed up to the stop).
    pub probed: u64,
    /// Probes that exhausted their retry budget — transport casualties,
    /// deliberately kept distinct from dead IDs.
    pub failed_probes: u64,
    /// Total retries spent recovering transient probe failures.
    pub probe_retries: u64,
}

impl Enumeration {
    /// `(token, links)` for every token, most links first and ties by
    /// token id: one counting pass that yields both Fig 3's series
    /// ([`links_per_token`](Enumeration::links_per_token)) and the top
    /// creators ([`top_tokens`](Enumeration::top_tokens)).
    pub fn token_counts(&self) -> Vec<(u64, u64)> {
        let mut counts: IdMap<u64, u64> = IdMap::default();
        for d in &self.docs {
            *counts.entry(d.token_id).or_insert(0) += 1;
        }
        let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Links per token, sorted descending (Fig 3's series).
    pub fn links_per_token(&self) -> Vec<u64> {
        self.token_counts().into_iter().map(|(_, n)| n).collect()
    }

    /// All observed hash requirements (biased dataset).
    pub fn requirements_biased(&self) -> Vec<u64> {
        self.docs.iter().map(|d| d.required_hashes).collect()
    }

    /// Requirements deduplicated per `(token, count)` (unbiased dataset).
    pub fn requirements_unbiased(&self) -> Vec<u64> {
        let mut seen = IdSet::default();
        self.docs
            .iter()
            .filter(|d| seen.insert((d.token_id, d.required_hashes)))
            .map(|d| d.required_hashes)
            .collect()
    }

    /// Token ids of the top-k creators by link count, ties by token id.
    pub fn top_tokens(&self, k: usize) -> Vec<u64> {
        self.token_counts()
            .into_iter()
            .take(k)
            .map(|(t, _)| t)
            .collect()
    }
}

/// Walks the ID space in increasing order, stopping after
/// `dead_run_limit` consecutive dead codes.
pub fn enumerate_links(service: &ShortlinkService, dead_run_limit: u64) -> Enumeration {
    enumerate_links_with(service, dead_run_limit, &ProbePolicy::default())
}

/// [`enumerate_links`] over an arbitrary prober with retries: failed
/// probes are retried per `policy`; exhausted ones are neutral to the
/// dead run and counted in [`Enumeration::failed_probes`].
///
/// Termination note: the walk ends only when `dead_run_limit`
/// consecutive *confirmed-dead* probes accumulate, so a fault plan that
/// permanently fails every probe (fault probability 1 with permanent
/// faults) would walk forever — chaos suites keep the permanent-fault
/// rate below 1.
pub fn enumerate_links_with<P: LinkProber>(
    prober: &P,
    dead_run_limit: u64,
    policy: &ProbePolicy,
) -> Enumeration {
    let mut e = Enumeration {
        docs: Vec::new(),
        probed: 0,
        failed_probes: 0,
        probe_retries: 0,
    };
    let mut dead_run = 0u64;
    let mut index = 0u64;
    while dead_run < dead_run_limit {
        let code = index_to_code(index);
        e.probed += 1;
        let (result, retries) = probe_with_retry(prober, &code, policy);
        e.probe_retries += u64::from(retries);
        match result {
            Ok(Some(doc)) => {
                dead_run = 0;
                e.docs.push(doc);
            }
            Ok(None) => dead_run += 1,
            // Neutral: not evidence of a dead ID, not a live link.
            Err(_) => e.failed_probes += 1,
        }
        index += 1;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinkPopulation, ModelConfig};
    use minedig_primitives::stats::top1_share;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::{HashMap, HashSet};

    fn enumeration() -> Enumeration {
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: 5_000,
            users: 400,
            seed: 11,
        }));
        enumerate_links(&service, 64)
    }

    #[test]
    fn enumeration_finds_every_live_link() {
        let e = enumeration();
        assert_eq!(e.docs.len(), 5_000);
        assert_eq!(e.probed, 5_000 + 64);
    }

    #[test]
    fn scraped_statistics_match_ground_truth() {
        let pop = LinkPopulation::generate(&ModelConfig {
            total_links: 5_000,
            users: 400,
            seed: 11,
        });
        let service = ShortlinkService::new(pop.clone());
        let e = enumerate_links(&service, 64);
        // The enumerator must recover exactly the generator's statistics —
        // this is the "measurement recovers ground truth" check.
        assert_eq!(e.links_per_token(), pop.links_per_token());
        assert_eq!(
            e.requirements_unbiased().len(),
            pop.hash_requirements_unbiased().len()
        );
    }

    #[test]
    fn top_tokens_are_the_head_users() {
        let e = enumeration();
        let top = e.top_tokens(10);
        assert_eq!(top.len(), 10);
        // Head users have ids 0..10 by construction.
        for t in &top {
            assert!(*t < 10, "unexpected heavy token {t}");
        }
        let counts = e.links_per_token();
        assert!(top1_share(&counts) > 0.25);
    }

    /// An enumeration whose docs carry `tokens` in order; a token's
    /// requirement cycles through three values with its doc position.
    fn docs_of(tokens: &[u64]) -> Enumeration {
        let docs = tokens
            .iter()
            .enumerate()
            .map(|(i, &token_id)| VisitDoc {
                code: index_to_code(i as u64),
                token_id,
                required_hashes: 256 << (i % 3),
            })
            .collect();
        Enumeration {
            docs,
            probed: tokens.len() as u64,
            failed_probes: 0,
            probe_retries: 0,
        }
    }

    /// Reference statistics: a SipHash map or set per statistic.
    fn token_map(e: &Enumeration) -> HashMap<u64, u64> {
        let mut counts = HashMap::new();
        for d in &e.docs {
            *counts.entry(d.token_id).or_insert(0u64) += 1;
        }
        counts
    }

    fn links_per_token_reference(e: &Enumeration) -> Vec<u64> {
        let mut v: Vec<u64> = token_map(e).into_values().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    fn top_tokens_reference(e: &Enumeration, k: usize) -> Vec<u64> {
        let mut v: Vec<(u64, u64)> = token_map(e).into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(k).map(|(t, _)| t).collect()
    }

    fn requirements_unbiased_reference(e: &Enumeration) -> Vec<u64> {
        let mut seen = HashSet::new();
        e.docs
            .iter()
            .filter(|d| seen.insert((d.token_id, d.required_hashes)))
            .map(|d| d.required_hashes)
            .collect()
    }

    fn counts_match_the_references(e: &Enumeration) -> Result<(), TestCaseError> {
        prop_assert_eq!(e.links_per_token(), links_per_token_reference(e));
        for k in [0, 1, 3, 10, 25] {
            prop_assert_eq!(e.top_tokens(k), top_tokens_reference(e, k), "k={}", k);
        }
        prop_assert_eq!(
            e.requirements_unbiased(),
            requirements_unbiased_reference(e)
        );
        let counts = e.token_counts();
        prop_assert_eq!(counts.len(), token_map(e).len());
        prop_assert_eq!(
            counts.iter().map(|&(_, n)| n).sum::<u64>(),
            e.docs.len() as u64
        );
        Ok(())
    }

    #[test]
    fn one_pass_counts_match_the_per_statistic_maps() {
        // Fifteen tokens with five links each, interleaved, and ids out
        // of step with first appearance: every rank is a tie.
        let ties: Vec<u64> = (0..75u64).map(|i| 1_000 - (i * 7 % 15) * 13).collect();
        let e = docs_of(&ties);
        counts_match_the_references(&e).unwrap();
        assert_eq!(e.top_tokens(3), [818, 831, 844]);
        // Fewer than ten tokens, ties among them, and none at all.
        for tokens in [
            vec![5, 3, 5, 9, 3, 3, 9, 5],
            vec![u64::MAX, 0, u64::MAX],
            vec![],
        ] {
            counts_match_the_references(&docs_of(&tokens)).unwrap();
        }
        counts_match_the_references(&enumeration()).unwrap();
    }

    proptest! {
        #[test]
        fn one_pass_counts_match_the_maps_on_generated_enumerations(
            users in 1u64..30,
            raw in prop::collection::vec(any::<u64>(), 0..400),
        ) {
            let tokens: Vec<u64> = raw.iter().map(|r| r % users * 0x9e37_79b9).collect();
            counts_match_the_references(&docs_of(&tokens))?;
        }
    }

    #[test]
    fn empty_service_terminates() {
        let service = ShortlinkService::new(LinkPopulation {
            links: vec![],
            users: 0,
        });
        let e = enumerate_links(&service, 16);
        assert!(e.docs.is_empty());
        assert_eq!(e.probed, 16);
    }

    /// Service with live links at exactly the given indices (anything
    /// else is dead), for exercising internal dead gaps.
    fn gap_service(live: &[u64]) -> ShortlinkService {
        use crate::model::LinkRecord;
        let links = live
            .iter()
            .map(|&i| LinkRecord {
                index: i,
                token_id: (i % 7) as u32,
                required_hashes: 512,
                target_domain: "dest.example".into(),
                path_hash: i,
                target_categories: Default::default(),
            })
            .collect();
        ShortlinkService::new(LinkPopulation { links, users: 8 })
    }

    /// Prober that fails permanently on a fixed set of indices and
    /// otherwise answers from the service.
    struct FlakyIndices<'a> {
        service: &'a ShortlinkService,
        fail: std::collections::HashSet<u64>,
    }

    impl LinkProber for FlakyIndices<'_> {
        fn probe(
            &self,
            code: &str,
            _attempt: u32,
        ) -> Result<Option<VisitDoc>, crate::probe::ProbeError> {
            let index = crate::ids::code_to_index(code).expect("valid code");
            if self.fail.contains(&index) {
                return Err(crate::probe::ProbeError::Timeout);
            }
            Ok(self.service.visit(code))
        }
    }

    #[test]
    fn failed_probes_are_neutral_to_the_dead_run() {
        // Live at 0,1,2; probes of 3, 5 and 7 permanently fail. The walk
        // (limit 5) must neither count failures as dead (it would stop at
        // index 7) nor reset the run (it would never stop): the limit is
        // reached by confirmed-dead 4, 6, 8, 9, 10.
        let service = gap_service(&[0, 1, 2]);
        let prober = FlakyIndices {
            service: &service,
            fail: [3u64, 5, 7].into_iter().collect(),
        };
        let policy = ProbePolicy {
            retry: minedig_primitives::retry::RetryPolicy::no_retries(),
            jitter_seed: 0,
        };
        let e = enumerate_links_with(&prober, 5, &policy);
        assert_eq!(e.docs.len(), 3);
        assert_eq!(e.probed, 11);
        assert_eq!(e.failed_probes, 3);
        // The clean walk stops earlier because 3, 5, 7 count as dead.
        let clean = enumerate_links(&service, 5);
        assert_eq!(clean.probed, 8);
    }

    #[test]
    fn a_failing_live_link_is_lost_but_does_not_fake_death() {
        // Live at 0, 2, 5; the probe of 2 permanently fails. Link 2 is
        // lost (accounted as failed), the dead run keeps counting 1, 3, 4
        // and stops at index 4 — before ever reaching link 5.
        let service = gap_service(&[0, 2, 5]);
        let prober = FlakyIndices {
            service: &service,
            fail: [2u64].into_iter().collect(),
        };
        let policy = ProbePolicy {
            retry: minedig_primitives::retry::RetryPolicy::no_retries(),
            jitter_seed: 0,
        };
        let e = enumerate_links_with(&prober, 3, &policy);
        assert_eq!(e.docs.len(), 1);
        assert_eq!(e.probed, 5);
        assert_eq!(e.failed_probes, 1);
    }

    #[test]
    fn transient_faults_with_retries_reproduce_the_fault_free_walk() {
        use crate::probe::FaultyProber;
        use minedig_primitives::fault::FaultPlan;
        let service = gap_service(&[0, 1, 5, 6, 20, 21, 22, 47]);
        let clean = enumerate_links(&service, 10);
        let plan = FaultPlan::transient_only(99, 0.5);
        let prober = FaultyProber::new(&service, plan.clone());
        let policy = ProbePolicy::outlasting(&plan);
        let faulty = enumerate_links_with(&prober, 10, &policy);
        assert_eq!(faulty.docs, clean.docs);
        assert_eq!(faulty.probed, clean.probed);
        assert_eq!(faulty.failed_probes, 0);
        assert!(faulty.probe_retries > 0, "p=0.5 must force retries");
    }
}
