//! Synthetic Wasm corpus: the ~160 miner builds the paper catalogued,
//! plus benign modules.
//!
//! Real miner binaries are not redistributable (and the 2018 services are
//! gone), so we *generate* the corpus: every module is real, parseable
//! Wasm (it round-trips through [`Module::parse`]) and carries its
//! family's characteristic instruction mix — CryptoNight kernels are
//! XOR/shift/load heavy with a large linear memory, which is precisely
//! the signal the paper's feature-based fingerprinting keys on. The
//! fingerprint reads that code and never runs it. Version variation
//! within a family changes constants, filler functions and template order
//! (new SHA-256 signature) while preserving the family mix (recognizable
//! by similarity).

use crate::module::{Module, ModuleBuilder};
use crate::opcode::{Instr, MemArg, ValType};
use crate::sigdb::{BenignKind, MinerFamily, WasmClass};
use minedig_primitives::DetRng;

/// A generated corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Ground-truth class.
    pub class: WasmClass,
    /// Version index within the class.
    pub version: u32,
    /// The module.
    pub module: Module,
}

/// Weights over the kernel's operation templates (xor, shift, load+xor,
/// store, arith, logic).
#[derive(Clone, Copy, Debug)]
pub struct MixProfile {
    /// Weight of pure-XOR template.
    pub xor: f64,
    /// Weight of shift/rotate template.
    pub shift: f64,
    /// Weight of load-xor template.
    pub load: f64,
    /// Weight of store template.
    pub store: f64,
    /// Weight of multiply-add template.
    pub arith: f64,
    /// Weight of and/or/popcnt template.
    pub logic: f64,
}

/// A family's generation profile.
#[derive(Clone, Debug)]
pub struct FamilyProfile {
    /// Ground-truth class.
    pub class: WasmClass,
    /// Number of distinct builds to generate.
    pub versions: u32,
    /// Kernel operation mix.
    pub mix: MixProfile,
    /// Kernel loop length range (ops per iteration).
    pub ops_per_iter: (usize, usize),
    /// Number of filler helper functions.
    pub filler_funcs: (usize, usize),
    /// Declared memory pages (64 KiB each); miners declare scratchpads.
    pub memory_pages: u32,
    /// Export name of the kernel.
    pub kernel_export: &'static str,
}

/// The default corpus profiles: totals mirror the paper's ~160 miner
/// assemblies dominated by Coinhive, plus benign Wasm.
pub fn default_profiles() -> Vec<FamilyProfile> {
    let miner_mix = MixProfile {
        xor: 3.0,
        shift: 2.5,
        load: 3.0,
        store: 1.5,
        arith: 1.0,
        logic: 0.5,
    };
    vec![
        FamilyProfile {
            class: WasmClass::Miner(MinerFamily::Coinhive),
            versions: 60,
            mix: miner_mix,
            ops_per_iter: (24, 40),
            filler_funcs: (3, 7),
            memory_pages: 36, // ~2.3 MiB: CryptoNight scratchpad + state
            kernel_export: "cryptonight_hash",
        },
        FamilyProfile {
            class: WasmClass::Miner(MinerFamily::Cryptoloot),
            versions: 25,
            mix: MixProfile {
                xor: 2.8,
                shift: 2.7,
                ..miner_mix
            },
            ops_per_iter: (20, 36),
            filler_funcs: (2, 6),
            memory_pages: 34,
            kernel_export: "cn_hash",
        },
        FamilyProfile {
            class: WasmClass::Miner(MinerFamily::Skencituer),
            versions: 18,
            mix: MixProfile {
                load: 3.4,
                ..miner_mix
            },
            ops_per_iter: (18, 30),
            filler_funcs: (1, 4),
            memory_pages: 33,
            kernel_export: "hash_one",
        },
        FamilyProfile {
            class: WasmClass::Miner(MinerFamily::UnknownWss),
            versions: 12,
            mix: MixProfile {
                store: 1.9,
                ..miner_mix
            },
            ops_per_iter: (16, 28),
            filler_funcs: (0, 3),
            memory_pages: 32,
            kernel_export: "work",
        },
        FamilyProfile {
            class: WasmClass::Miner(MinerFamily::Notgiven688),
            versions: 15,
            mix: MixProfile {
                xor: 3.2,
                ..miner_mix
            },
            ops_per_iter: (22, 34),
            filler_funcs: (2, 5),
            memory_pages: 34,
            kernel_export: "cryptonight",
        },
        FamilyProfile {
            class: WasmClass::Miner(MinerFamily::WebStatiBid),
            versions: 10,
            mix: MixProfile {
                arith: 1.4,
                ..miner_mix
            },
            ops_per_iter: (18, 26),
            filler_funcs: (1, 3),
            memory_pages: 32,
            kernel_export: "cn_slow",
        },
        FamilyProfile {
            class: WasmClass::Miner(MinerFamily::FreecontentDate),
            versions: 10,
            mix: MixProfile {
                shift: 2.9,
                ..miner_mix
            },
            ops_per_iter: (18, 26),
            filler_funcs: (1, 3),
            memory_pages: 32,
            kernel_export: "pow_hash",
        },
        FamilyProfile {
            class: WasmClass::Miner(MinerFamily::OtherMiner),
            versions: 10,
            mix: miner_mix,
            ops_per_iter: (14, 24),
            filler_funcs: (0, 2),
            memory_pages: 32,
            kernel_export: "hashcn",
        },
        // Benign Wasm: different mixes and small memories.
        FamilyProfile {
            class: WasmClass::Benign(BenignKind::Codec),
            versions: 8,
            mix: MixProfile {
                xor: 0.1,
                shift: 0.8,
                load: 2.5,
                store: 2.5,
                arith: 3.0,
                logic: 1.0,
            },
            ops_per_iter: (16, 28),
            filler_funcs: (4, 9),
            memory_pages: 4,
            kernel_export: "decode_frame",
        },
        FamilyProfile {
            class: WasmClass::Benign(BenignKind::Game),
            versions: 6,
            mix: MixProfile {
                xor: 0.05,
                shift: 0.3,
                load: 1.5,
                store: 1.5,
                arith: 3.5,
                logic: 2.0,
            },
            ops_per_iter: (10, 20),
            filler_funcs: (5, 10),
            memory_pages: 8,
            kernel_export: "tick",
        },
        FamilyProfile {
            class: WasmClass::Benign(BenignKind::CryptoLib),
            versions: 4,
            mix: MixProfile {
                xor: 1.2,
                shift: 1.2,
                load: 1.0,
                store: 1.0,
                arith: 0.6,
                logic: 2.8,
            },
            ops_per_iter: (14, 22),
            filler_funcs: (2, 5),
            memory_pages: 2,
            kernel_export: "ed25519_sign",
        },
        FamilyProfile {
            class: WasmClass::Benign(BenignKind::Misc),
            versions: 4,
            mix: MixProfile {
                xor: 0.2,
                shift: 0.4,
                load: 1.0,
                store: 1.0,
                arith: 2.0,
                logic: 3.0,
            },
            ops_per_iter: (8, 16),
            filler_funcs: (1, 4),
            memory_pages: 1,
            kernel_export: "process",
        },
    ]
}

/// Generates one module for `(profile, version)` deterministically.
pub fn generate_module(profile: &FamilyProfile, version: u32, seed: u64) -> Module {
    let mut rng = DetRng::seed(seed)
        .derive("wasm.corpus")
        .derive(format_args!("{}-{version}", profile.class.label()));
    let mut b = ModuleBuilder::new();

    // Kernel: (param i32 nonce) (result i32), locals: i (counter), acc,
    // addr. The loop touches memory at masked addresses so it can never
    // trap — the same trick real kernels use to stay within scratchpad.
    let t_kernel = b.add_type(vec![ValType::I32], vec![ValType::I32]);
    let mask = (profile.memory_pages.min(64) * 65_536 - 64) as i32;
    let iters = 16 + rng.gen_range(16) as i32;
    let ops = rng.range_usize(profile.ops_per_iter.0, profile.ops_per_iter.1 + 1);

    // local indices: 0 = nonce (param), 1 = i, 2 = acc, 3 = addr.
    let (i_l, acc, addr) = (1u32, 2u32, 3u32);
    let mut body = vec![
        // acc = nonce * golden; i = iters
        Instr::LocalGet(0),
        Instr::I32Const(rng.next_u32() as i32 | 1),
        Instr::I32Mul,
        Instr::LocalSet(acc),
        Instr::I32Const(iters),
        Instr::LocalSet(i_l),
        Instr::Loop,
    ];
    let weights = [
        profile.mix.xor,
        profile.mix.shift,
        profile.mix.load,
        profile.mix.store,
        profile.mix.arith,
        profile.mix.logic,
    ];
    for _ in 0..ops {
        match rng.weighted_index(&weights) {
            0 => {
                // acc ^= C
                body.extend([
                    Instr::LocalGet(acc),
                    Instr::I32Const(rng.next_u32() as i32),
                    Instr::I32Xor,
                    Instr::LocalSet(acc),
                ]);
            }
            1 => {
                // acc = acc rotl/rotr/shr C
                let op = *rng.choose(&[
                    Instr::I32Rotl,
                    Instr::I32Rotr,
                    Instr::I32ShrU,
                    Instr::I32Shl,
                ]);
                body.extend([
                    Instr::LocalGet(acc),
                    Instr::I32Const(1 + rng.gen_range(31) as i32),
                    op,
                    Instr::LocalSet(acc),
                ]);
            }
            2 => {
                // addr = acc & mask; acc ^= mem[addr]
                body.extend([
                    Instr::LocalGet(acc),
                    Instr::I32Const(mask),
                    Instr::I32And,
                    Instr::LocalTee(addr),
                    Instr::I32Load(MemArg {
                        align: 2,
                        offset: rng.gen_range(16) as u32 * 4,
                    }),
                    Instr::LocalGet(acc),
                    Instr::I32Xor,
                    Instr::LocalSet(acc),
                ]);
            }
            3 => {
                // mem[addr] = acc (addr from previous load or recompute)
                body.extend([
                    Instr::LocalGet(acc),
                    Instr::I32Const(mask),
                    Instr::I32And,
                    Instr::LocalGet(acc),
                    Instr::I32Store(MemArg {
                        align: 2,
                        offset: 0,
                    }),
                ]);
            }
            4 => {
                // acc = acc * K + C
                body.extend([
                    Instr::LocalGet(acc),
                    Instr::I32Const(rng.next_u32() as i32 | 1),
                    Instr::I32Mul,
                    Instr::I32Const(rng.next_u32() as i32),
                    Instr::I32Add,
                    Instr::LocalSet(acc),
                ]);
            }
            _ => {
                // acc = (acc & K) | popcnt(acc)
                body.extend([
                    Instr::LocalGet(acc),
                    Instr::I32Const(rng.next_u32() as i32),
                    Instr::I32And,
                    Instr::LocalGet(acc),
                    Instr::I32Popcnt,
                    Instr::I32Or,
                    Instr::LocalSet(acc),
                ]);
            }
        }
    }
    body.extend([
        // i -= 1; br_if (i != 0)
        Instr::LocalGet(i_l),
        Instr::I32Const(1),
        Instr::I32Sub,
        Instr::LocalTee(i_l),
        Instr::I32Const(0),
        Instr::I32Ne,
        Instr::BrIf(0),
        Instr::End,
        Instr::LocalGet(acc),
    ]);
    let kernel = b.add_function(
        t_kernel,
        vec![ValType::I32, ValType::I32, ValType::I32],
        body,
    );

    // Filler helpers: small straight-line functions with the same flavor.
    let n_filler = rng.range_usize(profile.filler_funcs.0, profile.filler_funcs.1 + 1);
    let t_helper = b.add_type(vec![ValType::I32], vec![ValType::I32]);
    for _ in 0..n_filler {
        let mut hb = vec![Instr::LocalGet(0)];
        for _ in 0..rng.range_usize(2, 8) {
            match rng.weighted_index(&weights) {
                0 => hb.extend([Instr::I32Const(rng.next_u32() as i32), Instr::I32Xor]),
                1 => hb.extend([
                    Instr::I32Const(1 + rng.gen_range(31) as i32),
                    Instr::I32Rotl,
                ]),
                4 => hb.extend([Instr::I32Const(rng.next_u32() as i32 | 1), Instr::I32Mul]),
                _ => hb.extend([Instr::I32Const(rng.next_u32() as i32), Instr::I32Add]),
            }
        }
        b.add_function(t_helper, vec![], hb);
    }

    b.set_memory(profile.memory_pages, Some(profile.memory_pages * 2));
    b.export(profile.kernel_export, kernel);
    // Common auxiliary exports seen in emscripten-style builds.
    if n_filler > 0 {
        b.export("malloc", kernel + 1);
    }
    let mut module = b.finish();
    // Debug names, as emscripten builds of the era shipped them; roughly
    // half the builds are stripped. Names are a classification hint the
    // paper calls out, so both cases must exist in the corpus.
    if rng.chance(0.55) {
        module
            .function_names
            .insert(kernel, format!("_{}", profile.kernel_export));
        let helper_names = [
            "_keccakf",
            "_cn_implode",
            "_cn_explode",
            "_aes_round",
            "_memcpy",
            "_stackAlloc",
        ];
        for i in 0..n_filler {
            module.function_names.insert(
                kernel + 1 + i as u32,
                helper_names[i % helper_names.len()].to_string(),
            );
        }
    }
    module
}

/// Generates the full default corpus.
pub fn generate_corpus(seed: u64) -> Vec<CorpusEntry> {
    let mut out = Vec::new();
    for profile in default_profiles() {
        for version in 0..profile.versions {
            out.push(CorpusEntry {
                class: profile.class,
                version,
                module: generate_module(&profile, version, seed),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use std::collections::HashSet;

    #[test]
    fn corpus_has_paper_scale() {
        let corpus = generate_corpus(7);
        let miners = corpus.iter().filter(|e| e.class.is_miner()).count();
        let benign = corpus.len() - miners;
        assert_eq!(miners, 160, "paper catalogued ~160 miner assemblies");
        assert!(benign >= 20);
    }

    #[test]
    fn every_module_roundtrips_through_binary() {
        for entry in generate_corpus(7) {
            let bytes = entry.module.encode();
            assert_eq!(Module::parse(&bytes).unwrap(), entry.module);
        }
    }

    #[test]
    fn signatures_are_unique_per_version() {
        let corpus = generate_corpus(7);
        let mut sigs = HashSet::new();
        for e in &corpus {
            sigs.insert(fingerprint(&e.module).sha256);
        }
        assert_eq!(sigs.len(), corpus.len(), "every build must hash uniquely");
    }

    #[test]
    fn some_builds_carry_debug_names_and_they_hint_at_hashing() {
        let corpus = generate_corpus(7);
        let named = corpus
            .iter()
            .filter(|e| !e.module.function_names.is_empty())
            .count();
        // ~55% of builds ship names; both populations must exist.
        assert!(named > corpus.len() / 3, "named {named}");
        assert!(named < corpus.len(), "some builds must be stripped");
        // Families whose kernel export itself names the hash always hint
        // when names are present (deliberately evasive names like
        // UnknownWSS's "work" do not — that is the point of the class).
        for e in &corpus {
            if e.class == WasmClass::Miner(MinerFamily::Coinhive)
                && !e.module.function_names.is_empty()
            {
                let fp = fingerprint(&e.module);
                assert!(
                    fp.features.has_hash_name_hint(),
                    "{} v{}",
                    e.class.label(),
                    e.version
                );
            }
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = generate_corpus(7);
        let b = generate_corpus(7);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.module, y.module);
        }
        let c = generate_corpus(8);
        assert_ne!(a[0].module, c[0].module);
    }

    #[test]
    fn miner_mix_is_xor_shift_load_heavy() {
        for entry in generate_corpus(7) {
            let f = fingerprint(&entry.module).features;
            let mix = f.mix();
            let miner_signal = mix[0] + mix[1] + mix[2]; // xor + shift + load
            if entry.class.is_miner() {
                assert!(
                    miner_signal > 0.08,
                    "{} v{} signal {miner_signal}",
                    entry.class.label(),
                    entry.version
                );
                assert!(f.memory_pages >= 32, "miners declare scratchpads");
            } else {
                assert!(f.memory_pages < 32);
            }
        }
    }

    #[test]
    fn same_family_versions_are_similar_cross_family_less() {
        let corpus = generate_corpus(7);
        let fp = |c: &CorpusEntry| fingerprint(&c.module).features;
        let coinhive: Vec<_> = corpus
            .iter()
            .filter(|e| e.class == WasmClass::Miner(MinerFamily::Coinhive))
            .take(5)
            .collect();
        let codec: Vec<_> = corpus
            .iter()
            .filter(|e| e.class == WasmClass::Benign(BenignKind::Codec))
            .take(5)
            .collect();
        let within = fp(coinhive[0]).similarity(&fp(coinhive[1]));
        let across = fp(coinhive[0]).similarity(&fp(codec[0]));
        assert!(
            within > across,
            "within-family {within} must exceed cross-family {across}"
        );
        assert!(within > 0.95, "within-family similarity {within}");
    }
}
