//! The short-link service itself.
//!
//! A visit returns the redirect document — which leaks the creator's
//! token and the required hash count, the two fields the paper scraped
//! from every link — and the destination is released once the service has
//! seen enough credited hashes for the visit.

use crate::model::{LinkPopulation, LinkRecord};
use parking_lot::Mutex;
use std::collections::HashMap;

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

/// The service: link table + per-creator credited-hash totals.
///
/// The link table is immutable after construction; only the credited-hash
/// ledger mutates, behind a mutex, so visits and redeems can run from any
/// thread. Because [`visit`](ShortlinkService::visit) never reads the
/// ledger and [`redeem`](ShortlinkService::redeem) only accumulates
/// per-creator totals, interleaving resolution with enumeration cannot
/// change any scraped document or any redeem outcome.
pub struct ShortlinkService {
    by_index: Vec<LinkRecord>,
    by_code: HashMap<String, usize>,
    /// Hashes credited to link creators through visits (the creator's
    /// revenue share ledger lives in the pool; this tracks volume).
    creator_hashes: Mutex<HashMap<u64, u64>>,
}

impl ShortlinkService {
    /// Builds the service from a generated population.
    pub fn new(population: LinkPopulation) -> ShortlinkService {
        let by_code = population
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| (l.code.clone(), i))
            .collect();
        ShortlinkService {
            by_index: population.links,
            by_code,
            creator_hashes: Mutex::new(HashMap::new()),
        }
    }

    /// Number of live links.
    pub fn link_count(&self) -> u64 {
        self.by_index.len() as u64
    }

    /// Visits a link: returns the progress document, or `None` for codes
    /// beyond the live space (enumeration relies on this distinction).
    pub fn visit(&self, code: &str) -> Option<VisitDoc> {
        let link = self.by_index.get(*self.by_code.get(code)?)?;
        Some(VisitDoc {
            code: link.code.clone(),
            token_id: link.token_id,
            required_hashes: link.required_hashes,
        })
    }

    /// Redeems a link after `credited_hashes` have been computed for this
    /// visit. On success returns the destination URL and credits the
    /// creator.
    pub fn redeem(&self, code: &str, credited_hashes: u64) -> Result<String, RedeemError> {
        let index = *self.by_code.get(code).ok_or(RedeemError::UnknownCode)?;
        let link = self.by_index.get(index).ok_or(RedeemError::UnknownCode)?;
        if credited_hashes < link.required_hashes {
            return Err(RedeemError::NotEnoughHashes {
                missing: link.required_hashes - credited_hashes,
            });
        }
        // Saturating: a creator with several ~1e19-hash links redeemed
        // under an unlimited budget would wrap a plain sum.
        let mut ledger = self.creator_hashes.lock();
        let credited = ledger.entry(link.token_id).or_insert(0);
        *credited = credited.saturating_add(link.required_hashes);
        Ok(link.target_url.clone())
    }

    /// Total hashes credited to a creator through redeemed links.
    pub fn creator_hashes(&self, token_id: u64) -> u64 {
        self.creator_hashes
            .lock()
            .get(&token_id)
            .copied()
            .unwrap_or(0)
    }

    /// Read access to a link record (analysis side).
    pub fn link(&self, index: u64) -> Option<&LinkRecord> {
        self.by_index.get(index as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

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
        assert_eq!(doc.token_id, link.token_id);
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
    fn redeem_credits_creator() {
        let s = service();
        let doc = s.visit("c").unwrap();
        assert_eq!(s.creator_hashes(doc.token_id), 0);
        s.redeem("c", doc.required_hashes).unwrap();
        assert_eq!(s.creator_hashes(doc.token_id), doc.required_hashes);
    }

    #[test]
    fn unknown_code_redeem_fails() {
        let s = service();
        assert_eq!(s.redeem("zzzz", u64::MAX), Err(RedeemError::UnknownCode));
    }

    #[test]
    fn link_count_matches_population() {
        assert_eq!(service().link_count(), 2_000);
    }
}
