//! The Wasm signature database.
//!
//! §3.2: *"Through manual inspection of the Wasm, we build up a database
//! of ∼160 different assemblies (often versions of the conceptually same
//! Miner) that we found and categorized them, e.g., through their
//! Websocket communication backend or by some other distinguishing
//! feature."* The database maps exact SHA-256 signatures to classes and
//! falls back to instruction-mix similarity for unseen builds of a known
//! family (which is how a handful of classes cover 160 assemblies).

use crate::fingerprint::{Features, Fingerprint};
use minedig_primitives::Hash32;
use std::collections::HashMap;

/// Miner families observed by the paper (Table 1 class names).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MinerFamily {
    /// Coinhive (also embedded by Authedmine and wp-monero-miner).
    Coinhive,
    /// Crypto-Loot, a Coinhive clone.
    Cryptoloot,
    /// "skencituer" (Alexa rank 2 in Table 1).
    Skencituer,
    /// Miners identified only by an unknown WebSocket backend.
    UnknownWss,
    /// "notgiven688" (WebMinePool's deepMiner fork).
    Notgiven688,
    /// "web.stati.bid".
    WebStatiBid,
    /// "freecontent.date".
    FreecontentDate,
    /// The 2011-era jsMiner (Bitcoin; all but extinct — 31 instances).
    JsMinerLegacy,
    /// Recognized miner not attributable to a named family.
    OtherMiner,
}

impl MinerFamily {
    /// The class label as printed in Table 1.
    pub fn label(&self) -> &'static str {
        match self {
            MinerFamily::Coinhive => "coinhive",
            MinerFamily::Cryptoloot => "cryptoloot",
            MinerFamily::Skencituer => "skencituer",
            MinerFamily::UnknownWss => "UnknownWSS",
            MinerFamily::Notgiven688 => "notgiven688",
            MinerFamily::WebStatiBid => "web.stati.bid",
            MinerFamily::FreecontentDate => "freecontent.date",
            MinerFamily::JsMinerLegacy => "jsminer",
            MinerFamily::OtherMiner => "other-miner",
        }
    }
}

/// Benign (non-miner) Wasm kinds found in the wild (the ~4 % of Wasm that
/// is not a miner, per Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenignKind {
    /// Audio/video/image codecs.
    Codec,
    /// Games and physics engines.
    Game,
    /// Non-mining cryptography (TLS, signing).
    CryptoLib,
    /// Everything else.
    Misc,
}

/// Classification outcome for a Wasm module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WasmClass {
    /// Mining code of the given family.
    Miner(MinerFamily),
    /// Non-mining Wasm.
    Benign(BenignKind),
}

impl WasmClass {
    /// True for miner classes.
    pub fn is_miner(&self) -> bool {
        matches!(self, WasmClass::Miner(_))
    }

    /// Printable label.
    pub fn label(&self) -> String {
        match self {
            WasmClass::Miner(f) => f.label().to_string(),
            WasmClass::Benign(k) => format!("benign:{k:?}").to_ascii_lowercase(),
        }
    }
}

/// How a classification was reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchKind {
    /// Exact SHA-256 signature match.
    Exact,
    /// Instruction-mix similarity to a known family profile.
    Similarity,
}

/// A classified match.
#[derive(Clone, Debug, PartialEq)]
pub struct Match {
    /// The class.
    pub class: WasmClass,
    /// How it was matched.
    pub kind: MatchKind,
    /// Similarity score (1.0 for exact matches).
    pub score: f64,
}

/// The signature database.
#[derive(Clone, Debug, Default)]
pub struct SignatureDb {
    exact: HashMap<Hash32, WasmClass>,
    /// Accumulated per-class feature centroids.
    profiles: HashMap<WasmClass, (Features, u32)>,
    /// Minimum cosine similarity for a fallback match.
    threshold: f64,
}

impl SignatureDb {
    /// Creates an empty database with the default similarity threshold.
    pub fn new() -> SignatureDb {
        SignatureDb {
            threshold: 0.985,
            ..SignatureDb::default()
        }
    }

    /// Overrides the similarity threshold (the `ablations` binary uses
    /// this to disable the similarity fallback).
    pub fn with_threshold(mut self, threshold: f64) -> SignatureDb {
        self.threshold = threshold;
        self
    }

    /// Number of exact signatures known.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// True when no signatures are registered.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Registers a fingerprint under a class (the "manual inspection"
    /// step of the paper, done once per catalogued assembly).
    pub fn insert(&mut self, fp: &Fingerprint, class: WasmClass) {
        self.exact.insert(fp.sha256, class);
        let entry = self
            .profiles
            .entry(class)
            .or_insert_with(|| (Features::default(), 0));
        // Accumulate raw counts; the centroid is the normalized mix of the
        // accumulated counts, which weighs larger modules more — fine for
        // a family profile.
        entry.0.functions += fp.features.functions;
        entry.0.total_instrs += fp.features.total_instrs;
        entry.0.xor += fp.features.xor;
        entry.0.shift += fp.features.shift;
        entry.0.load += fp.features.load;
        entry.0.store += fp.features.store;
        entry.0.arith += fp.features.arith;
        entry.0.logic += fp.features.logic;
        entry.0.control += fp.features.control;
        entry.0.plumbing += fp.features.plumbing;
        entry.1 += 1;
    }

    /// Classifies a fingerprint: exact signature first, then the most
    /// similar family profile above the threshold.
    pub fn classify(&self, fp: &Fingerprint) -> Option<Match> {
        if let Some(&class) = self.exact.get(&fp.sha256) {
            return Some(Match {
                class,
                kind: MatchKind::Exact,
                score: 1.0,
            });
        }
        let mut best: Option<(WasmClass, f64)> = None;
        for (&class, (profile, _)) in &self.profiles {
            let score = fp.features.similarity(profile);
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((class, score));
            }
        }
        match best {
            Some((class, score)) if score >= self.threshold => Some(Match {
                class,
                kind: MatchKind::Similarity,
                score,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use crate::module::ModuleBuilder;
    use crate::opcode::{Instr, ValType};

    fn xor_module(extra_xors: usize) -> crate::module::Module {
        let mut b = ModuleBuilder::new();
        let t = b.add_type(vec![ValType::I32], vec![ValType::I32]);
        let mut body = vec![Instr::LocalGet(0)];
        for i in 0..extra_xors {
            body.push(Instr::I32Const(i as i32 + 1));
            body.push(Instr::I32Xor);
        }
        let f = b.add_function(t, vec![], body);
        b.export("cn", f);
        b.finish()
    }

    fn arith_module(n: usize) -> crate::module::Module {
        let mut b = ModuleBuilder::new();
        let t = b.add_type(vec![ValType::I32], vec![ValType::I32]);
        let mut body = vec![Instr::LocalGet(0)];
        for i in 0..n {
            body.push(Instr::I32Const(i as i32 + 1));
            body.push(Instr::I32Add);
        }
        let f = b.add_function(t, vec![], body);
        b.export("sum", f);
        b.finish()
    }

    #[test]
    fn exact_match_wins() {
        let mut db = SignatureDb::new();
        let m = xor_module(10);
        let fp = fingerprint(&m);
        db.insert(&fp, WasmClass::Miner(MinerFamily::Coinhive));
        let hit = db.classify(&fp).unwrap();
        assert_eq!(hit.kind, MatchKind::Exact);
        assert_eq!(hit.class, WasmClass::Miner(MinerFamily::Coinhive));
        assert_eq!(hit.score, 1.0);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn similar_unseen_version_matches_family() {
        let mut db = SignatureDb::new();
        db.insert(
            &fingerprint(&xor_module(10)),
            WasmClass::Miner(MinerFamily::Coinhive),
        );
        // A "new version" with a different body (different hash) but the
        // same instruction-mix profile.
        let unseen = fingerprint(&xor_module(12));
        let hit = db.classify(&unseen).unwrap();
        assert_eq!(hit.kind, MatchKind::Similarity);
        assert_eq!(hit.class, WasmClass::Miner(MinerFamily::Coinhive));
        assert!(hit.score >= 0.985);
    }

    #[test]
    fn dissimilar_module_unclassified() {
        let mut db = SignatureDb::new();
        db.insert(
            &fingerprint(&xor_module(10)),
            WasmClass::Miner(MinerFamily::Coinhive),
        );
        assert!(db.classify(&fingerprint(&arith_module(10))).is_none());
    }

    #[test]
    fn empty_db_classifies_nothing() {
        let db = SignatureDb::new();
        assert!(db.classify(&fingerprint(&xor_module(1))).is_none());
        assert!(db.is_empty());
    }

    #[test]
    fn threshold_zero_matches_anything() {
        let mut db = SignatureDb::new().with_threshold(0.0);
        db.insert(
            &fingerprint(&xor_module(10)),
            WasmClass::Miner(MinerFamily::Coinhive),
        );
        assert!(db.classify(&fingerprint(&arith_module(3))).is_some());
    }

    #[test]
    fn labels_match_table1() {
        assert_eq!(MinerFamily::Coinhive.label(), "coinhive");
        assert_eq!(MinerFamily::UnknownWss.label(), "UnknownWSS");
        assert_eq!(MinerFamily::WebStatiBid.label(), "web.stati.bid");
        assert_eq!(MinerFamily::FreecontentDate.label(), "freecontent.date");
        assert!(WasmClass::Miner(MinerFamily::Coinhive).is_miner());
        assert!(!WasmClass::Benign(BenignKind::Codec).is_miner());
    }
}
