//! The short-link service itself.
//!
//! A visit returns the redirect document — which leaks the creator's
//! token and the required hash count, the two fields the paper scraped
//! from every link — and the destination is released once the service has
//! seen enough credited hashes for the visit.

use crate::ids::code_to_index;
use crate::model::{LinkPopulation, LinkRecord};

/// The document returned when visiting a short link before solving it
/// (the progress-bar page).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VisitDoc {
    /// The short code.
    pub code: String,
    /// The creator's token (scraped by the paper to attribute links).
    pub token_id: u64,
    /// Hashes required to release the redirect.
    pub required_hashes: u64,
}

/// Why a redeem failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RedeemError {
    /// No such link.
    UnknownCode,
    /// Not enough credited hashes yet; contains the outstanding amount.
    NotEnoughHashes {
        /// Hashes still missing.
        missing: u64,
    },
}

impl std::fmt::Display for RedeemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RedeemError::UnknownCode => f.write_str("unknown short code"),
            RedeemError::NotEnoughHashes { missing } => {
                write!(f, "{missing} more hashes required")
            }
        }
    }
}

/// The service: an immutable link table.
///
/// Nothing mutates after construction, so visits and redeems run from
/// any thread without a lock, and interleaving resolution with
/// enumeration cannot change any scraped document or any redeem outcome.
/// A creator's credit for the hashes a visit mines lives in the pool's
/// ledger (see [`resolve_with_pool`](crate::resolve::resolve_with_pool)).
pub struct ShortlinkService {
    /// The link table, sorted by [`LinkRecord::index`] with one record
    /// per index.
    links: Vec<LinkRecord>,
}

impl ShortlinkService {
    /// Builds the service from a population, in any order. When several
    /// records share an index, the first in population order wins and
    /// the others are dropped.
    pub fn new(population: LinkPopulation) -> ShortlinkService {
        let mut links = population.links;
        // Stable, so the first of each duplicate run is the population's.
        links.sort_by_key(|l| l.index);
        links.dedup_by_key(|l| l.index);
        ShortlinkService { links }
    }

    /// The live link behind `code`, if any.
    fn lookup(&self, code: &str) -> Option<&LinkRecord> {
        self.link(code_to_index(code)?)
    }

    /// Visits a link: returns the progress document, or `None` for codes
    /// beyond the live space (enumeration relies on this distinction).
    pub fn visit(&self, code: &str) -> Option<VisitDoc> {
        let link = self.lookup(code)?;
        Some(VisitDoc {
            // `code` decoded to this link's index, so it is the link's
            // own code: no need to encode the index again.
            code: code.to_owned(),
            token_id: u64::from(link.token_id),
            required_hashes: link.required_hashes,
        })
    }

    /// Redeems a link after `credited_hashes` have been computed for this
    /// visit. On success returns the destination URL.
    pub fn redeem(&self, code: &str, credited_hashes: u64) -> Result<String, RedeemError> {
        let link = self.lookup(code).ok_or(RedeemError::UnknownCode)?;
        if credited_hashes < link.required_hashes {
            return Err(RedeemError::NotEnoughHashes {
                missing: link.required_hashes - credited_hashes,
            });
        }
        Ok(link.target_url())
    }

    /// The link whose [`LinkRecord::index`] is `index`. The index is
    /// tried as a table position first: generated populations are dense,
    /// so it is almost always there. Binary search covers gapped tables.
    pub fn link(&self, index: u64) -> Option<&LinkRecord> {
        let at = usize::try_from(index).ok().and_then(|p| self.links.get(p));
        match at {
            Some(link) if link.index == index => Some(link),
            _ => {
                let p = self.links.binary_search_by_key(&index, |l| l.index).ok()?;
                Some(&self.links[p])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::index_to_code;
    use crate::model::ModelConfig;
    use proptest::prelude::*;

    fn service() -> ShortlinkService {
        ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: 2_000,
            users: 200,
            seed: 7,
        }))
    }

    #[test]
    fn visit_exposes_token_and_requirement() {
        let s = service();
        let doc = s.visit("a").unwrap();
        assert_eq!(doc.code, "a");
        let link = s.link(0).unwrap();
        assert_eq!(doc.token_id, u64::from(link.token_id));
        assert_eq!(doc.required_hashes, link.required_hashes);
    }

    #[test]
    fn codes_beyond_space_are_dead() {
        let s = service();
        // 2000 links → codes beyond index 1999 are unassigned.
        let dead = crate::ids::index_to_code(5_000);
        assert!(s.visit(&dead).is_none());
        assert!(s.visit("!!!").is_none());
    }

    #[test]
    fn redeem_requires_full_hash_count() {
        let s = service();
        let doc = s.visit("b").unwrap();
        let need = doc.required_hashes;
        match s.redeem("b", need - 1) {
            Err(RedeemError::NotEnoughHashes { missing }) => assert_eq!(missing, 1),
            other => panic!("expected shortfall, got {other:?}"),
        }
        let url = s.redeem("b", need).unwrap();
        assert!(url.starts_with("https://"));
    }

    #[test]
    fn unknown_code_redeem_fails() {
        let s = service();
        assert_eq!(s.redeem("zzzz", u64::MAX), Err(RedeemError::UnknownCode));
    }

    /// A hand-built record; its token and URL path both name `tag`, so
    /// duplicates of one index stay distinguishable.
    fn record(index: u64, tag: u32, required_hashes: u64) -> LinkRecord {
        LinkRecord {
            index,
            token_id: tag,
            required_hashes,
            target_domain: "dest.example".into(),
            path_hash: u64::from(tag),
            target_categories: Default::default(),
        }
    }

    fn hand_built(links: Vec<LinkRecord>) -> ShortlinkService {
        ShortlinkService::new(LinkPopulation { links, users: 8 })
    }

    #[test]
    fn gapped_tables_answer_by_index_not_position() {
        let live = [0u64, 5, 9];
        let s = hand_built(live.iter().map(|&i| record(i, i as u32, 512)).collect());
        for i in 0..=9 + 64 {
            let code = index_to_code(i);
            let want = live.contains(&i).then_some(i);
            assert_eq!(s.link(i).map(|l| u64::from(l.token_id)), want, "link({i})");
            assert_eq!(s.visit(&code).map(|d| d.token_id), want, "visit({code})");
            let url = want.map(|i| format!("https://dest.example/{i:08x}"));
            assert_eq!(s.redeem(&code, 512).ok(), url, "redeem({code})");
        }
    }

    // Gapped, unsorted tables with duplicate indices answer every code
    // like a linear scan for the first record carrying it.
    proptest! {
        #[test]
        fn lookups_match_a_linear_scan(
            entries in prop::collection::vec((0u64..300, 0u64..2_048), 0..64),
        ) {
            let links: Vec<LinkRecord> = entries
                .iter()
                .enumerate()
                .map(|(tag, &(index, hashes))| record(index, tag as u32, hashes))
                .collect();
            let s = hand_built(links.clone());
            let last = links.iter().map(|l| l.index).max().unwrap_or(0);
            let odd = ["".to_string(), "A".to_string(), "a".repeat(13)];
            let codes = (0..=last + 64).map(index_to_code).chain(odd);
            for code in codes {
                let want = links.iter().find(|l| l.code() == code);
                prop_assert_eq!(
                    s.visit(&code),
                    want.map(|l| VisitDoc {
                        code: l.code(),
                        token_id: u64::from(l.token_id),
                        required_hashes: l.required_hashes,
                    }),
                    "visit({:?})", code
                );
                if let Some(l) = want.filter(|l| l.required_hashes > 0) {
                    prop_assert_eq!(
                        s.redeem(&code, l.required_hashes - 1),
                        Err(RedeemError::NotEnoughHashes { missing: 1 })
                    );
                }
                prop_assert_eq!(
                    s.redeem(&code, u64::MAX),
                    want.map(LinkRecord::target_url).ok_or(RedeemError::UnknownCode),
                    "redeem({:?})", code
                );
            }
            for i in 0..=last + 64 {
                let want = links.iter().find(|l| l.index == i).map(|l| l.token_id);
                prop_assert_eq!(s.link(i).map(|l| l.token_id), want, "link({})", i);
            }
        }
    }
}
