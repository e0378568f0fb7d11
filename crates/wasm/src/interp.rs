//! A fueled interpreter for the supported instruction subset.
//!
//! Used by the browser simulator to actually *execute* miner kernels (the
//! paper's Chrome runs the pages it scans) and by the corpus tests to
//! prove every generated module is live code, not decoration. Execution is
//! bounded by fuel (instructions) and call depth, so hostile or buggy
//! modules cannot hang the scan pipeline — exactly the property a real
//! crawler needs.

use crate::module::Module;
use crate::opcode::{Instr, MemArg, ValType};

/// Runtime values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Val {
    /// 32-bit integer (unsigned representation).
    I32(u32),
    /// 64-bit integer (unsigned representation).
    I64(u64),
}

impl Val {
    fn ty(&self) -> ValType {
        match self {
            Val::I32(_) => ValType::I32,
            Val::I64(_) => ValType::I64,
        }
    }

    fn zero(ty: ValType) -> Val {
        match ty {
            ValType::I32 => Val::I32(0),
            ValType::I64 => Val::I64(0),
        }
    }

    /// Unwraps an i32, panicking on type confusion (validation prevents it).
    pub fn as_i32(&self) -> u32 {
        match self {
            Val::I32(v) => *v,
            Val::I64(_) => panic!("expected i32"),
        }
    }

    /// Unwraps an i64.
    pub fn as_i64(&self) -> u64 {
        match self {
            Val::I64(v) => *v,
            Val::I32(_) => panic!("expected i64"),
        }
    }
}

/// Execution traps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Instruction budget exhausted.
    OutOfFuel,
    /// Integer division or remainder by zero.
    DivByZero,
    /// Linear memory access out of bounds.
    OobMemory,
    /// `unreachable` executed.
    Unreachable,
    /// Call stack too deep.
    CallDepth,
    /// Export not found or not a function.
    NoSuchExport,
    /// Wrong number/types of arguments.
    BadArgs,
    /// Internal type confusion (module was not validated).
    TypeConfusion,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wasm trap: {self:?}")
    }
}

impl std::error::Error for Trap {}

const PAGE: usize = 65_536;
/// Hard cap on memory growth (pages) to bound simulator memory use.
const MAX_PAGES: u32 = 256;
const MAX_CALL_DEPTH: usize = 128;

/// Bytes per lazily materialized chunk of linear memory.
const CHUNK: usize = 4_096;

/// Linear memory that materializes one [`CHUNK`] at a time, on first
/// write. Untouched memory reads as zero and costs nothing: a miner
/// declares a multi-megabyte scratchpad but a fuel-bounded run writes a
/// few dozen kilobytes of it, and a scan runs such modules on several
/// threads at once.
struct Memory {
    len: usize,
    chunks: Vec<Option<Box<[u8]>>>,
}

impl Memory {
    fn new(len: usize) -> Memory {
        Memory {
            len,
            chunks: vec![None; len.div_ceil(CHUNK)],
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn grow(&mut self, len: usize) {
        self.len = len;
        self.chunks.resize(len.div_ceil(CHUNK), None);
    }

    /// Reads `out.len()` bytes at `addr`; the caller has bounds-checked.
    fn read(&self, addr: usize, out: &mut [u8]) {
        let (ci, off) = (addr / CHUNK, addr % CHUNK);
        if off + out.len() <= CHUNK {
            match &self.chunks[ci] {
                Some(chunk) => out.copy_from_slice(&chunk[off..off + out.len()]),
                None => out.fill(0),
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                let a = addr + i;
                *b = self.chunks[a / CHUNK].as_ref().map_or(0, |c| c[a % CHUNK]);
            }
        }
    }

    /// Writes `data` at `addr`; the caller has bounds-checked.
    fn write(&mut self, addr: usize, data: &[u8]) {
        let (mut a, mut rest) = (addr, data);
        while !rest.is_empty() {
            let off = a % CHUNK;
            let n = rest.len().min(CHUNK - off);
            let chunk = self.chunks[a / CHUNK].get_or_insert_with(|| vec![0; CHUNK].into());
            chunk[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            a += n;
        }
    }
}

/// An instantiated module: code plus a linear memory.
pub struct Instance {
    module: Module,
    memory: Memory,
    max_pages: u32,
}

impl Instance {
    /// Instantiates a module, allocating its declared memory.
    pub fn new(module: Module) -> Instance {
        let (min, max) = module.memory_pages.unwrap_or((0, Some(0)));
        let max_pages = max.unwrap_or(MAX_PAGES).min(MAX_PAGES);
        let min = min.min(max_pages);
        Instance {
            module,
            memory: Memory::new(min as usize * PAGE),
            max_pages,
        }
    }

    /// The instantiated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Writes bytes into linear memory (host → guest).
    pub fn write_memory(&mut self, offset: usize, data: &[u8]) -> Result<(), Trap> {
        let end = offset.checked_add(data.len()).ok_or(Trap::OobMemory)?;
        if end > self.memory.len() {
            return Err(Trap::OobMemory);
        }
        self.memory.write(offset, data);
        Ok(())
    }

    /// Invokes an exported function. `fuel` is decremented per instruction
    /// executed; on success the remaining fuel is visible to the caller.
    pub fn invoke(
        &mut self,
        name: &str,
        args: &[Val],
        fuel: &mut u64,
    ) -> Result<Option<Val>, Trap> {
        let idx = self.module.export_func(name).ok_or(Trap::NoSuchExport)?;
        self.call_function(idx, args, fuel, 0)
    }

    fn call_function(
        &mut self,
        idx: u32,
        args: &[Val],
        fuel: &mut u64,
        depth: usize,
    ) -> Result<Option<Val>, Trap> {
        if depth >= MAX_CALL_DEPTH {
            return Err(Trap::CallDepth);
        }
        let ftype = self
            .module
            .func_type(idx)
            .ok_or(Trap::NoSuchExport)?
            .clone();
        if args.len() != ftype.params.len()
            || args.iter().zip(&ftype.params).any(|(a, p)| a.ty() != *p)
        {
            return Err(Trap::BadArgs);
        }
        let func = self.module.functions[idx as usize].clone();
        let mut locals: Vec<Val> = args.to_vec();
        locals.extend(func.locals.iter().map(|t| Val::zero(*t)));

        let body = &func.body;
        let mut stack: Vec<Val> = Vec::with_capacity(16);
        // Precompute matching End for each Block/Loop.
        let mut ends = vec![0usize; body.len()];
        {
            let mut opens: Vec<usize> = Vec::new();
            for (i, ins) in body.iter().enumerate() {
                match ins {
                    Instr::Block | Instr::Loop => opens.push(i),
                    Instr::End => {
                        if let Some(open) = opens.pop() {
                            ends[open] = i;
                        }
                        // The final End matches the implicit function frame.
                    }
                    _ => {}
                }
            }
        }

        let mut ctl: Vec<Ctl> = vec![Ctl {
            is_loop: false,
            start: 0,
            end: body.len().saturating_sub(1),
            height: 0,
        }];
        let mut ip = 0usize;

        macro_rules! pop {
            () => {
                stack.pop().ok_or(Trap::TypeConfusion)?
            };
        }
        macro_rules! bin32 {
            ($f:expr) => {{
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                stack.push(Val::I32($f(a, b)));
            }};
        }
        macro_rules! bin64 {
            ($f:expr) => {{
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Val::I64($f(a, b)));
            }};
        }
        macro_rules! cmp64 {
            ($f:expr) => {{
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Val::I32($f(a, b) as u32));
            }};
        }

        while ip < body.len() {
            if *fuel == 0 {
                return Err(Trap::OutOfFuel);
            }
            *fuel -= 1;
            match body[ip] {
                Instr::Unreachable => return Err(Trap::Unreachable),
                Instr::Nop => {}
                Instr::Block => ctl.push(Ctl {
                    is_loop: false,
                    start: ip,
                    end: ends[ip],
                    height: stack.len(),
                }),
                Instr::Loop => ctl.push(Ctl {
                    is_loop: true,
                    start: ip,
                    end: ends[ip],
                    height: stack.len(),
                }),
                Instr::End => {
                    ctl.pop();
                    if ctl.is_empty() {
                        break; // function end
                    }
                }
                Instr::Br(d) => {
                    branch(&mut ctl, &mut stack, &mut ip, d as usize)?;
                    continue;
                }
                Instr::BrIf(d) => {
                    let cond = pop!().as_i32();
                    if cond != 0 {
                        branch(&mut ctl, &mut stack, &mut ip, d as usize)?;
                        continue;
                    }
                }
                Instr::Return => break,
                Instr::Call(callee) => {
                    let callee_type = self
                        .module
                        .func_type(callee)
                        .ok_or(Trap::NoSuchExport)?
                        .clone();
                    let n = callee_type.params.len();
                    if stack.len() < n {
                        return Err(Trap::TypeConfusion);
                    }
                    let call_args: Vec<Val> = stack.split_off(stack.len() - n);
                    let ret = self.call_function(callee, &call_args, fuel, depth + 1)?;
                    if let Some(v) = ret {
                        stack.push(v);
                    }
                }
                Instr::Drop => {
                    let _ = pop!();
                }
                Instr::Select => {
                    let cond = pop!().as_i32();
                    let b = pop!();
                    let a = pop!();
                    stack.push(if cond != 0 { a } else { b });
                }
                Instr::LocalGet(i) => stack.push(locals[i as usize]),
                Instr::LocalSet(i) => locals[i as usize] = pop!(),
                Instr::LocalTee(i) => {
                    let v = *stack.last().ok_or(Trap::TypeConfusion)?;
                    locals[i as usize] = v;
                }
                Instr::I32Load(m) => {
                    let addr = self.effective(pop!().as_i32(), m, 4)?;
                    let mut bytes = [0; 4];
                    self.memory.read(addr, &mut bytes);
                    stack.push(Val::I32(u32::from_le_bytes(bytes)));
                }
                Instr::I64Load(m) => {
                    let addr = self.effective(pop!().as_i32(), m, 8)?;
                    let mut bytes = [0; 8];
                    self.memory.read(addr, &mut bytes);
                    stack.push(Val::I64(u64::from_le_bytes(bytes)));
                }
                Instr::I32Load8U(m) => {
                    let addr = self.effective(pop!().as_i32(), m, 1)?;
                    let mut byte = [0; 1];
                    self.memory.read(addr, &mut byte);
                    stack.push(Val::I32(byte[0] as u32));
                }
                Instr::I32Store(m) => {
                    let v = pop!().as_i32();
                    let addr = self.effective(pop!().as_i32(), m, 4)?;
                    self.memory.write(addr, &v.to_le_bytes());
                }
                Instr::I64Store(m) => {
                    let v = pop!().as_i64();
                    let addr = self.effective(pop!().as_i32(), m, 8)?;
                    self.memory.write(addr, &v.to_le_bytes());
                }
                Instr::I32Store8(m) => {
                    let v = pop!().as_i32();
                    let addr = self.effective(pop!().as_i32(), m, 1)?;
                    self.memory.write(addr, &[v as u8]);
                }
                Instr::MemorySize => stack.push(Val::I32((self.memory.len() / PAGE) as u32)),
                Instr::MemoryGrow => {
                    let delta = pop!().as_i32();
                    let current = (self.memory.len() / PAGE) as u32;
                    let target = current.saturating_add(delta);
                    if target > self.max_pages {
                        stack.push(Val::I32(u32::MAX)); // -1: grow failed
                    } else {
                        self.memory.grow(target as usize * PAGE);
                        stack.push(Val::I32(current));
                    }
                }
                Instr::I32Const(v) => stack.push(Val::I32(v as u32)),
                Instr::I64Const(v) => stack.push(Val::I64(v as u64)),
                Instr::I32Eqz => {
                    let a = pop!().as_i32();
                    stack.push(Val::I32((a == 0) as u32));
                }
                Instr::I32Eq => bin32!(|a, b| (a == b) as u32),
                Instr::I32Ne => bin32!(|a, b| (a != b) as u32),
                Instr::I32LtU => bin32!(|a, b| (a < b) as u32),
                Instr::I32GtU => bin32!(|a, b| (a > b) as u32),
                Instr::I32LeU => bin32!(|a, b| (a <= b) as u32),
                Instr::I32GeU => bin32!(|a, b| (a >= b) as u32),
                Instr::I64Eqz => {
                    let a = pop!().as_i64();
                    stack.push(Val::I32((a == 0) as u32));
                }
                Instr::I64Eq => cmp64!(|a, b| a == b),
                Instr::I64Ne => cmp64!(|a, b| a != b),
                Instr::I32Clz => {
                    let a = pop!().as_i32();
                    stack.push(Val::I32(a.leading_zeros()));
                }
                Instr::I32Ctz => {
                    let a = pop!().as_i32();
                    stack.push(Val::I32(a.trailing_zeros()));
                }
                Instr::I32Popcnt => {
                    let a = pop!().as_i32();
                    stack.push(Val::I32(a.count_ones()));
                }
                Instr::I32Add => bin32!(u32::wrapping_add),
                Instr::I32Sub => bin32!(u32::wrapping_sub),
                Instr::I32Mul => bin32!(u32::wrapping_mul),
                Instr::I32DivU => {
                    let b = pop!().as_i32();
                    let a = pop!().as_i32();
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Val::I32(a / b));
                }
                Instr::I32RemU => {
                    let b = pop!().as_i32();
                    let a = pop!().as_i32();
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Val::I32(a % b));
                }
                Instr::I32And => bin32!(|a, b| a & b),
                Instr::I32Or => bin32!(|a, b| a | b),
                Instr::I32Xor => bin32!(|a, b| a ^ b),
                Instr::I32Shl => bin32!(|a: u32, b: u32| a.wrapping_shl(b)),
                Instr::I32ShrS => bin32!(|a: u32, b: u32| ((a as i32).wrapping_shr(b)) as u32),
                Instr::I32ShrU => bin32!(|a: u32, b: u32| a.wrapping_shr(b)),
                Instr::I32Rotl => bin32!(|a: u32, b: u32| a.rotate_left(b & 31)),
                Instr::I32Rotr => bin32!(|a: u32, b: u32| a.rotate_right(b & 31)),
                Instr::I64Add => bin64!(u64::wrapping_add),
                Instr::I64Sub => bin64!(u64::wrapping_sub),
                Instr::I64Mul => bin64!(u64::wrapping_mul),
                Instr::I64DivU => {
                    let b = pop!().as_i64();
                    let a = pop!().as_i64();
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Val::I64(a / b));
                }
                Instr::I64RemU => {
                    let b = pop!().as_i64();
                    let a = pop!().as_i64();
                    if b == 0 {
                        return Err(Trap::DivByZero);
                    }
                    stack.push(Val::I64(a % b));
                }
                Instr::I64And => bin64!(|a, b| a & b),
                Instr::I64Or => bin64!(|a, b| a | b),
                Instr::I64Xor => bin64!(|a, b| a ^ b),
                Instr::I64Shl => bin64!(|a: u64, b: u64| a.wrapping_shl(b as u32)),
                Instr::I64ShrU => bin64!(|a: u64, b: u64| a.wrapping_shr(b as u32)),
                Instr::I64Rotl => bin64!(|a: u64, b: u64| a.rotate_left(b as u32 & 63)),
                Instr::I64Rotr => bin64!(|a: u64, b: u64| a.rotate_right(b as u32 & 63)),
                Instr::I32WrapI64 => {
                    let a = pop!().as_i64();
                    stack.push(Val::I32(a as u32));
                }
                Instr::I64ExtendI32U => {
                    let a = pop!().as_i32();
                    stack.push(Val::I64(a as u64));
                }
            }
            ip += 1;
        }

        Ok(if ftype.results.is_empty() {
            None
        } else {
            Some(stack.pop().ok_or(Trap::TypeConfusion)?)
        })
    }

    fn effective(&self, addr: u32, m: MemArg, size: usize) -> Result<usize, Trap> {
        let base = addr as u64 + m.offset as u64;
        let end = base + size as u64;
        if end > self.memory.len() as u64 {
            return Err(Trap::OobMemory);
        }
        Ok(base as usize)
    }
}

/// A control frame: one entry per open `Block`/`Loop` plus the implicit
/// function-level frame.
struct Ctl {
    is_loop: bool,
    start: usize,
    end: usize,
    height: usize,
}

/// Performs a branch to relative depth `d`; `ip` is updated to the target.
fn branch(ctl: &mut Vec<Ctl>, stack: &mut Vec<Val>, ip: &mut usize, d: usize) -> Result<(), Trap> {
    if d >= ctl.len() {
        return Err(Trap::TypeConfusion);
    }
    let keep = ctl.len() - d; // frames to keep, target frame included
    let target_idx = keep - 1;
    let target = &ctl[target_idx];
    stack.truncate(target.height);
    if target.is_loop {
        // br to a loop re-enters it: jump just past the Loop instruction;
        // the target frame stays on the control stack.
        let start = target.start;
        ctl.truncate(keep);
        *ip = start + 1;
    } else {
        // br to a block exits it: jump past its End, frame popped.
        let end = target.end;
        ctl.truncate(target_idx);
        *ip = end + 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;
    use crate::opcode::MemArg;

    fn one_func(
        params: Vec<ValType>,
        results: Vec<ValType>,
        locals: Vec<ValType>,
        body: Vec<Instr>,
        pages: u32,
    ) -> Instance {
        let mut b = ModuleBuilder::new();
        let t = b.add_type(params, results);
        let f = b.add_function(t, locals, body);
        if pages > 0 {
            b.set_memory(pages, Some(pages * 2));
        }
        b.export("f", f);
        let m = b.finish();
        crate::validate::validate_module(&m).expect("test module must validate");
        Instance::new(m)
    }

    fn run(inst: &mut Instance, args: &[Val]) -> Result<Option<Val>, Trap> {
        let mut fuel = 1_000_000;
        inst.invoke("f", args, &mut fuel)
    }

    #[test]
    fn xor_works() {
        let mut i = one_func(
            vec![ValType::I32, ValType::I32],
            vec![ValType::I32],
            vec![],
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Xor],
            0,
        );
        assert_eq!(
            run(&mut i, &[Val::I32(0xff00), Val::I32(0x0ff0)]).unwrap(),
            Some(Val::I32(0xf0f0))
        );
    }

    #[test]
    fn loop_counts_down() {
        // sum = 0; n = arg; loop { sum += n; n -= 1; br_if(n != 0) }; sum
        let mut i = one_func(
            vec![ValType::I32],
            vec![ValType::I32],
            vec![ValType::I32],
            vec![
                Instr::Loop,
                Instr::LocalGet(1),
                Instr::LocalGet(0),
                Instr::I32Add,
                Instr::LocalSet(1),
                Instr::LocalGet(0),
                Instr::I32Const(1),
                Instr::I32Sub,
                Instr::LocalTee(0),
                Instr::I32Const(0),
                Instr::I32Ne,
                Instr::BrIf(0),
                Instr::End,
                Instr::LocalGet(1),
            ],
            0,
        );
        assert_eq!(run(&mut i, &[Val::I32(10)]).unwrap(), Some(Val::I32(55)));
    }

    #[test]
    fn block_break_skips_code() {
        // block { br 0; unreachable } ; 42
        let mut i = one_func(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![
                Instr::Block,
                Instr::Br(0),
                Instr::Unreachable,
                Instr::End,
                Instr::I32Const(42),
            ],
            0,
        );
        assert_eq!(run(&mut i, &[]).unwrap(), Some(Val::I32(42)));
    }

    #[test]
    fn memory_store_load() {
        let mut i = one_func(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![
                Instr::I32Const(64),
                Instr::I32Const(0xabcd),
                Instr::I32Store(MemArg {
                    align: 2,
                    offset: 0,
                }),
                Instr::I32Const(0),
                Instr::I32Load(MemArg {
                    align: 2,
                    offset: 64,
                }),
            ],
            1,
        );
        assert_eq!(run(&mut i, &[]).unwrap(), Some(Val::I32(0xabcd)));
    }

    #[test]
    fn oob_memory_traps() {
        let mut i = one_func(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![
                Instr::I32Const(-4), // wraps to ~4G
                Instr::I32Load(MemArg {
                    align: 2,
                    offset: 0,
                }),
            ],
            1,
        );
        assert_eq!(run(&mut i, &[]), Err(Trap::OobMemory));
    }

    #[test]
    fn div_by_zero_traps() {
        let mut i = one_func(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![Instr::I32Const(7), Instr::I32Const(0), Instr::I32DivU],
            0,
        );
        assert_eq!(run(&mut i, &[]), Err(Trap::DivByZero));
    }

    #[test]
    fn unreachable_traps() {
        let mut i = one_func(vec![], vec![], vec![], vec![Instr::Unreachable], 0);
        assert_eq!(run(&mut i, &[]), Err(Trap::Unreachable));
    }

    #[test]
    fn fuel_exhaustion_traps() {
        // Infinite loop: loop { br 0 }
        let mut i = one_func(
            vec![],
            vec![],
            vec![],
            vec![Instr::Loop, Instr::Br(0), Instr::End],
            0,
        );
        let mut fuel = 10_000;
        assert_eq!(i.invoke("f", &[], &mut fuel), Err(Trap::OutOfFuel));
        assert_eq!(fuel, 0);
    }

    #[test]
    fn call_composition() {
        let mut b = ModuleBuilder::new();
        let t_unary = b.add_type(vec![ValType::I32], vec![ValType::I32]);
        let double = b.add_function(
            t_unary,
            vec![],
            vec![Instr::LocalGet(0), Instr::LocalGet(0), Instr::I32Add],
        );
        let quad = b.add_function(
            t_unary,
            vec![],
            vec![Instr::LocalGet(0), Instr::Call(double), Instr::Call(double)],
        );
        b.export("quad", quad);
        let m = b.finish();
        crate::validate::validate_module(&m).unwrap();
        let mut inst = Instance::new(m);
        let mut fuel = 1_000;
        assert_eq!(
            inst.invoke("quad", &[Val::I32(5)], &mut fuel).unwrap(),
            Some(Val::I32(20))
        );
    }

    #[test]
    fn deep_recursion_traps() {
        let mut b = ModuleBuilder::new();
        let t = b.add_type(vec![], vec![]);
        // fn f() { call f } — infinite recursion.
        let f = b.add_function(t, vec![], vec![Instr::Call(0)]);
        b.export("f", f);
        let mut inst = Instance::new(b.finish());
        let mut fuel = u64::MAX;
        assert_eq!(inst.invoke("f", &[], &mut fuel), Err(Trap::CallDepth));
    }

    #[test]
    fn bad_export_and_args() {
        let mut i = one_func(vec![ValType::I32], vec![], vec![], vec![Instr::Nop], 0);
        let mut fuel = 100;
        assert_eq!(i.invoke("nope", &[], &mut fuel), Err(Trap::NoSuchExport));
        assert_eq!(i.invoke("f", &[], &mut fuel), Err(Trap::BadArgs));
        assert_eq!(i.invoke("f", &[Val::I64(1)], &mut fuel), Err(Trap::BadArgs));
    }

    #[test]
    fn memory_grow_and_size() {
        let mut i = one_func(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![
                Instr::I32Const(1),
                Instr::MemoryGrow,
                Instr::Drop,
                Instr::MemorySize,
            ],
            1,
        );
        assert_eq!(run(&mut i, &[]).unwrap(), Some(Val::I32(2)));
    }

    #[test]
    fn lazy_memory_reads_zero_and_spans_chunks() {
        let mut m = Memory::new(3 * CHUNK);
        let mut out = [9u8; 8];
        m.read(CHUNK - 4, &mut out);
        assert_eq!(out, [0; 8], "untouched memory reads as zero");
        assert!(
            m.chunks.iter().all(Option::is_none),
            "reads materialize nothing"
        );
        m.write(CHUNK - 4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        m.read(CHUNK - 4, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.chunks.iter().filter(|c| c.is_some()).count(), 2);
        let big: Vec<u8> = (0..CHUNK as u32 + 10).map(|i| i as u8).collect();
        m.write(5, &big);
        let mut back = vec![0u8; big.len()];
        m.read(5, &mut back);
        assert_eq!(back, big);
        m.grow(4 * CHUNK);
        assert_eq!(m.len(), 4 * CHUNK);
        let mut tail = [9u8; CHUNK];
        m.read(3 * CHUNK, &mut tail);
        assert_eq!(tail, [0; CHUNK]);
    }

    #[test]
    fn host_memory_write() {
        let mut i = one_func(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![
                Instr::I32Const(0),
                Instr::I32Load(MemArg {
                    align: 2,
                    offset: 0,
                }),
            ],
            1,
        );
        i.write_memory(0, &0xdeadbeefu32.to_le_bytes()).unwrap();
        assert_eq!(run(&mut i, &[]).unwrap(), Some(Val::I32(0xdeadbeef)));
        assert!(i.write_memory(usize::MAX, &[1]).is_err());
    }

    #[test]
    fn i64_pipeline() {
        // (a * b) ^ (a rotl 13)
        let mut i = one_func(
            vec![ValType::I64, ValType::I64],
            vec![ValType::I64],
            vec![],
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I64Mul,
                Instr::LocalGet(0),
                Instr::I64Const(13),
                Instr::I64Rotl,
                Instr::I64Xor,
            ],
            0,
        );
        let a = 0x0123456789abcdefu64;
        let b = 0xfedcba9876543210u64;
        let expect = a.wrapping_mul(b) ^ a.rotate_left(13);
        assert_eq!(
            run(&mut i, &[Val::I64(a), Val::I64(b)]).unwrap(),
            Some(Val::I64(expect))
        );
    }
}
