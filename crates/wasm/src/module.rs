//! Module structure, binary encoding and parsing.
//!
//! Implements the WebAssembly 1.0 container format for the sections our
//! corpus uses: type (1), function (3), memory (5), export (7) and code
//! (10). Unknown sections (e.g. custom name sections) are skipped on
//! parse, as a real consumer must.

use crate::opcode::{decode_body, encode_body, DecodeError, Instr, ValType};
use minedig_primitives::varint::{write_varint, ByteReader, VarintError};

/// A function signature.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FuncType {
    /// Parameter types.
    pub params: Vec<ValType>,
    /// Result types (0 or 1 in Wasm 1.0).
    pub results: Vec<ValType>,
}

/// A function: signature index, local declarations and body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Function {
    /// Index into the module's type list.
    pub type_idx: u32,
    /// Local variable types (excluding parameters).
    pub locals: Vec<ValType>,
    /// Decoded body, including the terminating `End`.
    pub body: Vec<Instr>,
}

/// An exported function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Export {
    /// Export name.
    pub name: String,
    /// Function index.
    pub func_idx: u32,
}

/// A parsed or built module.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Module {
    /// Function signatures.
    pub types: Vec<FuncType>,
    /// Functions in index order.
    pub functions: Vec<Function>,
    /// Linear memory limits in 64 KiB pages, if a memory is declared.
    pub memory_pages: Option<(u32, Option<u32>)>,
    /// Function exports.
    pub exports: Vec<Export>,
    /// Debug function names from the custom "name" section, keyed by
    /// function index. Real miner builds frequently ship these
    /// (emscripten defaults), and the paper uses them as a fingerprint
    /// feature ("function name hinting at the hash function itself").
    pub function_names: std::collections::BTreeMap<u32, String>,
}

/// Module-level parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleError {
    /// Missing/incorrect magic or version.
    BadHeader,
    /// Malformed section structure.
    BadSection(&'static str),
    /// Instruction decode failure inside a body.
    Code(DecodeError),
    /// Varint failure.
    Varint(VarintError),
    /// Index out of range (type or function references).
    BadIndex,
}

impl From<DecodeError> for ModuleError {
    fn from(e: DecodeError) -> Self {
        ModuleError::Code(e)
    }
}

impl From<VarintError> for ModuleError {
    fn from(e: VarintError) -> Self {
        ModuleError::Varint(e)
    }
}

impl std::fmt::Display for ModuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModuleError::BadHeader => f.write_str("bad wasm magic/version"),
            ModuleError::BadSection(s) => write!(f, "malformed section: {s}"),
            ModuleError::Code(e) => write!(f, "bad function body: {e}"),
            ModuleError::Varint(e) => write!(f, "bad varint: {e}"),
            ModuleError::BadIndex => f.write_str("index out of range"),
        }
    }
}

impl std::error::Error for ModuleError {}

const MAGIC: &[u8; 4] = b"\0asm";
const VERSION: [u8; 4] = [1, 0, 0, 0];

impl Module {
    /// Serializes the module to wasm binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION);

        // Type section.
        if !self.types.is_empty() {
            let mut body = Vec::new();
            write_varint(&mut body, self.types.len() as u64);
            for t in &self.types {
                body.push(0x60);
                write_varint(&mut body, t.params.len() as u64);
                for p in &t.params {
                    body.push(p.to_byte());
                }
                write_varint(&mut body, t.results.len() as u64);
                for r in &t.results {
                    body.push(r.to_byte());
                }
            }
            section(&mut out, 1, &body);
        }

        // Function section.
        if !self.functions.is_empty() {
            let mut body = Vec::new();
            write_varint(&mut body, self.functions.len() as u64);
            for f in &self.functions {
                write_varint(&mut body, f.type_idx as u64);
            }
            section(&mut out, 3, &body);
        }

        // Memory section.
        if let Some((min, max)) = self.memory_pages {
            let mut body = Vec::new();
            write_varint(&mut body, 1); // one memory
            match max {
                Some(max) => {
                    body.push(0x01);
                    write_varint(&mut body, min as u64);
                    write_varint(&mut body, max as u64);
                }
                None => {
                    body.push(0x00);
                    write_varint(&mut body, min as u64);
                }
            }
            section(&mut out, 5, &body);
        }

        // Export section.
        if !self.exports.is_empty() {
            let mut body = Vec::new();
            write_varint(&mut body, self.exports.len() as u64);
            for e in &self.exports {
                write_varint(&mut body, e.name.len() as u64);
                body.extend_from_slice(e.name.as_bytes());
                body.push(0x00); // func export
                write_varint(&mut body, e.func_idx as u64);
            }
            section(&mut out, 7, &body);
        }

        // Name custom section is emitted after the code section (below).
        // Code section.
        if !self.functions.is_empty() {
            let mut body = Vec::new();
            write_varint(&mut body, self.functions.len() as u64);
            for f in &self.functions {
                let mut entry = Vec::new();
                // Locals: run-length encode consecutive equal types.
                let mut runs: Vec<(u32, ValType)> = Vec::new();
                for &l in &f.locals {
                    match runs.last_mut() {
                        Some((n, t)) if *t == l => *n += 1,
                        _ => runs.push((1, l)),
                    }
                }
                write_varint(&mut entry, runs.len() as u64);
                for (n, t) in runs {
                    write_varint(&mut entry, n as u64);
                    entry.push(t.to_byte());
                }
                entry.extend_from_slice(&encode_body(&f.body));
                write_varint(&mut body, entry.len() as u64);
                body.extend_from_slice(&entry);
            }
            section(&mut out, 10, &body);
        }

        // Custom "name" section, subsection 1 (function names).
        if !self.function_names.is_empty() {
            let mut sub = Vec::new();
            write_varint(&mut sub, self.function_names.len() as u64);
            for (idx, name) in &self.function_names {
                write_varint(&mut sub, *idx as u64);
                write_varint(&mut sub, name.len() as u64);
                sub.extend_from_slice(name.as_bytes());
            }
            let mut body = Vec::new();
            write_varint(&mut body, 4); // "name".len()
            body.extend_from_slice(b"name");
            body.push(0x01); // function-names subsection
            write_varint(&mut body, sub.len() as u64);
            body.extend_from_slice(&sub);
            section(&mut out, 0, &body);
        }

        out
    }

    /// Parses a wasm binary. Unknown sections are skipped.
    pub fn parse(bytes: &[u8]) -> Result<Module, ModuleError> {
        if bytes.len() < 8 || &bytes[0..4] != MAGIC || bytes[4..8] != VERSION {
            return Err(ModuleError::BadHeader);
        }
        let mut r = ByteReader::new(&bytes[8..]);
        let mut module = Module::default();
        let mut func_type_indices: Vec<u32> = Vec::new();
        let mut code_entries: Vec<(Vec<ValType>, Vec<Instr>)> = Vec::new();

        while !r.is_empty() {
            let id = r.read_u8()?;
            let size = r.read_varint()? as usize;
            let payload = r.read_bytes(size)?;
            let mut s = ByteReader::new(payload);
            match id {
                1 => {
                    let count = s.read_varint()?;
                    for _ in 0..count {
                        if s.read_u8()? != 0x60 {
                            return Err(ModuleError::BadSection("type form"));
                        }
                        let np = s.read_varint()?;
                        let mut params = Vec::with_capacity(np as usize);
                        for _ in 0..np {
                            params.push(
                                ValType::from_byte(s.read_u8()?)
                                    .ok_or(ModuleError::BadSection("param type"))?,
                            );
                        }
                        let nr = s.read_varint()?;
                        let mut results = Vec::with_capacity(nr as usize);
                        for _ in 0..nr {
                            results.push(
                                ValType::from_byte(s.read_u8()?)
                                    .ok_or(ModuleError::BadSection("result type"))?,
                            );
                        }
                        module.types.push(FuncType { params, results });
                    }
                }
                3 => {
                    let count = s.read_varint()?;
                    for _ in 0..count {
                        func_type_indices.push(s.read_varint()? as u32);
                    }
                }
                5 => {
                    let count = s.read_varint()?;
                    if count != 1 {
                        return Err(ModuleError::BadSection("memory count"));
                    }
                    let flags = s.read_u8()?;
                    let min = s.read_varint()? as u32;
                    let max = if flags & 1 != 0 {
                        Some(s.read_varint()? as u32)
                    } else {
                        None
                    };
                    module.memory_pages = Some((min, max));
                }
                7 => {
                    let count = s.read_varint()?;
                    for _ in 0..count {
                        let name_len = s.read_varint()? as usize;
                        let name = std::str::from_utf8(s.read_bytes(name_len)?)
                            .map_err(|_| ModuleError::BadSection("export name"))?
                            .to_string();
                        let kind = s.read_u8()?;
                        let idx = s.read_varint()? as u32;
                        if kind == 0x00 {
                            module.exports.push(Export {
                                name,
                                func_idx: idx,
                            });
                        }
                        // Other export kinds (memory, table, global) are
                        // ignored — we only track functions.
                    }
                }
                10 => {
                    let count = s.read_varint()?;
                    for _ in 0..count {
                        let entry_len = s.read_varint()? as usize;
                        let entry = s.read_bytes(entry_len)?;
                        let mut e = ByteReader::new(entry);
                        let run_count = e.read_varint()?;
                        let mut locals = Vec::new();
                        for _ in 0..run_count {
                            let n = e.read_varint()?;
                            if n > 100_000 {
                                return Err(ModuleError::BadSection("local count"));
                            }
                            let t = ValType::from_byte(e.read_u8()?)
                                .ok_or(ModuleError::BadSection("local type"))?;
                            for _ in 0..n {
                                locals.push(t);
                            }
                        }
                        let body_bytes = e.read_bytes(e.remaining())?;
                        let body = decode_body(body_bytes)?;
                        code_entries.push((locals, body));
                    }
                }
                0 => {
                    // Custom section: parse "name"/function-names, skip
                    // everything else. Malformed name payloads are ignored
                    // (they are debug info, not semantics) — matching how
                    // real consumers treat them.
                    let _ = (|| -> Result<(), ModuleError> {
                        let name_len = s.read_varint()? as usize;
                        let sec_name = s.read_bytes(name_len)?;
                        if sec_name != b"name" {
                            return Ok(());
                        }
                        while !s.is_empty() {
                            let sub_id = s.read_u8()?;
                            let sub_len = s.read_varint()? as usize;
                            let payload = s.read_bytes(sub_len)?;
                            if sub_id == 0x01 {
                                let mut n = ByteReader::new(payload);
                                let count = n.read_varint()?;
                                for _ in 0..count {
                                    let idx = n.read_varint()? as u32;
                                    let len = n.read_varint()? as usize;
                                    let bytes = n.read_bytes(len)?;
                                    if let Ok(text) = std::str::from_utf8(bytes) {
                                        module.function_names.insert(idx, text.to_string());
                                    }
                                }
                            }
                        }
                        Ok(())
                    })();
                }
                _ => { /* skip unknown sections */ }
            }
        }

        if func_type_indices.len() != code_entries.len() {
            return Err(ModuleError::BadSection("function/code count mismatch"));
        }
        for (type_idx, (locals, body)) in func_type_indices.into_iter().zip(code_entries) {
            if type_idx as usize >= module.types.len() {
                return Err(ModuleError::BadIndex);
            }
            module.functions.push(Function {
                type_idx,
                locals,
                body,
            });
        }
        for e in &module.exports {
            if e.func_idx as usize >= module.functions.len() {
                return Err(ModuleError::BadIndex);
            }
        }
        Ok(module)
    }
}

fn section(out: &mut Vec<u8>, id: u8, body: &[u8]) {
    out.push(id);
    write_varint(out, body.len() as u64);
    out.extend_from_slice(body);
}

/// Incremental module builder.
#[derive(Default)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Creates an empty builder.
    pub fn new() -> ModuleBuilder {
        ModuleBuilder::default()
    }

    /// Adds (or reuses) a function type, returning its index.
    pub fn add_type(&mut self, params: Vec<ValType>, results: Vec<ValType>) -> u32 {
        let t = FuncType { params, results };
        if let Some(i) = self.module.types.iter().position(|x| *x == t) {
            return i as u32;
        }
        self.module.types.push(t);
        (self.module.types.len() - 1) as u32
    }

    /// Adds a function; `body` should *not* include the trailing `End`
    /// (it is appended automatically). Returns the function index.
    pub fn add_function(
        &mut self,
        type_idx: u32,
        locals: Vec<ValType>,
        mut body: Vec<Instr>,
    ) -> u32 {
        body.push(Instr::End);
        self.module.functions.push(Function {
            type_idx,
            locals,
            body,
        });
        (self.module.functions.len() - 1) as u32
    }

    /// Declares a linear memory.
    pub fn set_memory(&mut self, min_pages: u32, max_pages: Option<u32>) {
        self.module.memory_pages = Some((min_pages, max_pages));
    }

    /// Exports a function under `name`.
    pub fn export(&mut self, name: &str, func_idx: u32) {
        self.module.exports.push(Export {
            name: name.to_string(),
            func_idx,
        });
    }

    /// Finishes, returning the module (use [`Module::encode`] for bytes).
    pub fn finish(self) -> Module {
        self.module
    }

    /// Finishes and encodes in one step.
    pub fn build(self) -> Vec<u8> {
        self.module.encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::MemArg;
    use proptest::prelude::*;

    /// A small module: (func (param i32 i32) (result i32) local.get 0
    /// local.get 1 i32.xor) exported as "mix", with 1 page of memory.
    fn sample_module() -> Module {
        let mut b = ModuleBuilder::new();
        let t = b.add_type(vec![ValType::I32, ValType::I32], vec![ValType::I32]);
        let f = b.add_function(
            t,
            vec![],
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Xor],
        );
        b.set_memory(1, Some(4));
        b.export("mix", f);
        b.finish()
    }

    #[test]
    fn encode_parse_roundtrip() {
        let m = sample_module();
        let bytes = m.encode();
        assert_eq!(&bytes[0..4], b"\0asm");
        let parsed = Module::parse(&bytes).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn encode_is_a_fixpoint() {
        let m = sample_module();
        let once = m.encode();
        let twice = Module::parse(&once).unwrap().encode();
        assert_eq!(once, twice);
    }

    #[test]
    fn type_deduplication() {
        let mut b = ModuleBuilder::new();
        let t1 = b.add_type(vec![ValType::I32], vec![]);
        let t2 = b.add_type(vec![ValType::I32], vec![]);
        let t3 = b.add_type(vec![ValType::I64], vec![]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn locals_run_length_roundtrip() {
        let mut b = ModuleBuilder::new();
        let t = b.add_type(vec![], vec![]);
        let locals = vec![
            ValType::I32,
            ValType::I32,
            ValType::I64,
            ValType::I64,
            ValType::I64,
            ValType::I32,
        ];
        b.add_function(t, locals.clone(), vec![Instr::Nop]);
        let m = Module::parse(&b.build()).unwrap();
        assert_eq!(m.functions[0].locals, locals);
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(Module::parse(b"....0000"), Err(ModuleError::BadHeader));
        assert_eq!(Module::parse(b"\0asm"), Err(ModuleError::BadHeader));
        assert_eq!(
            Module::parse(b"\0asm\x02\x00\x00\x00"),
            Err(ModuleError::BadHeader)
        );
    }

    #[test]
    fn rejects_out_of_range_indices() {
        let mut m = sample_module();
        m.exports[0].func_idx = 99;
        assert_eq!(Module::parse(&m.encode()), Err(ModuleError::BadIndex));
        let mut m = sample_module();
        m.functions[0].type_idx = 5;
        assert_eq!(Module::parse(&m.encode()), Err(ModuleError::BadIndex));
    }

    #[test]
    fn skips_unknown_sections() {
        let m = sample_module();
        let mut bytes = m.encode();
        // Append a custom section (id 0) with some garbage payload.
        bytes.push(0);
        bytes.push(3);
        bytes.extend_from_slice(b"xyz");
        assert_eq!(Module::parse(&bytes).unwrap(), m);
    }

    #[test]
    fn name_section_roundtrips() {
        let mut m = sample_module();
        m.function_names.insert(0, "_cryptonight_hash".to_string());
        let bytes = m.encode();
        let parsed = Module::parse(&bytes).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(
            parsed.function_names.get(&0).map(String::as_str),
            Some("_cryptonight_hash")
        );
    }

    #[test]
    fn malformed_name_section_is_ignored() {
        let m = sample_module();
        let mut bytes = m.encode();
        // Custom section claiming to be "name" with garbage payload.
        bytes.push(0);
        bytes.push(8);
        bytes.push(4);
        bytes.extend_from_slice(b"name");
        bytes.extend_from_slice(&[0x01, 0xff, 0xff]); // truncated subsection
        let parsed = Module::parse(&bytes).unwrap();
        assert_eq!(parsed.functions, m.functions);
        assert!(parsed.function_names.is_empty());
    }

    #[test]
    fn memory_without_max_roundtrips() {
        let mut b = ModuleBuilder::new();
        b.set_memory(17, None);
        let m = Module::parse(&b.build()).unwrap();
        assert_eq!(m.memory_pages, Some((17, None)));
    }

    #[test]
    fn multi_function_module() {
        let mut b = ModuleBuilder::new();
        let t0 = b.add_type(vec![], vec![ValType::I32]);
        let t1 = b.add_type(vec![ValType::I32], vec![ValType::I32]);
        let f0 = b.add_function(t0, vec![], vec![Instr::I32Const(7)]);
        let f1 = b.add_function(
            t1,
            vec![ValType::I32],
            vec![Instr::LocalGet(0), Instr::Call(f0), Instr::I32Add],
        );
        b.export("seven", f0);
        b.export("add7", f1);
        let m = Module::parse(&b.build()).unwrap();
        assert_eq!(m.functions.len(), 2);
        assert_eq!(m.exports.len(), 2);
        assert_eq!(m.exports[1].name, "add7");
        assert_eq!(m.exports[1].func_idx, 1);
    }

    #[test]
    fn memory_heavy_body_roundtrips() {
        let mut b = ModuleBuilder::new();
        let t = b.add_type(vec![ValType::I32], vec![]);
        b.add_function(
            t,
            vec![],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(0),
                Instr::I32Load(MemArg {
                    align: 2,
                    offset: 64,
                }),
                Instr::I32Const(0x5f),
                Instr::I32Xor,
                Instr::I32Store(MemArg {
                    align: 2,
                    offset: 0,
                }),
            ],
        );
        let bytes = b.build();
        let m = Module::parse(&bytes).unwrap();
        assert_eq!(m.functions[0].body.len(), 7); // + End
    }

    proptest! {
        #[test]
        fn parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = Module::parse(&bytes);
        }

        #[test]
        fn parser_never_panics_with_valid_header(tail in prop::collection::vec(any::<u8>(), 0..256)) {
            let mut bytes = b"\0asm\x01\x00\x00\x00".to_vec();
            bytes.extend_from_slice(&tail);
            let _ = Module::parse(&bytes);
        }
    }
}
