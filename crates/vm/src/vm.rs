//! The suspendable stack-machine VM.
//!
//! A [`Vm`] executes one simulated hardware thread (a pthread, or one
//! RCCE UE). It never touches memory or the outside world itself: every
//! load, store and library call is surfaced as a [`StepOutcome`] for the
//! discrete-event engine to resolve against the simulated SCC, after which
//! the engine resumes the VM with the result. That hand-off is what lets
//! 48 cores interleave deterministically at instruction granularity.

use crate::compile::{Program, STACK_SIZE};
use crate::instr::{Instr, Intrinsic};
use crate::value::{MemKind, Value};
use std::fmt;

/// A VM runtime fault (all indicate compiler or engine bugs, not user
/// program errors — the compiler rejects invalid programs).
#[derive(Debug, Clone, PartialEq)]
pub struct VmError {
    /// Description.
    pub message: String,
}

impl VmError {
    fn new(m: impl Into<String>) -> Self {
        VmError { message: m.into() }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm fault: {}", self.message)
    }
}

impl std::error::Error for VmError {}

/// What the VM needs from the engine before it can continue.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Plain instructions ran for `cycles`.
    Ran {
        /// Core cycles consumed.
        cycles: u64,
    },
    /// A load was issued: the engine must resolve data + latency, then
    /// call [`Vm::provide_load`].
    Load {
        /// Effective address.
        addr: u64,
        /// Access kind.
        kind: MemKind,
        /// Issue cycles already consumed (add memory latency on top).
        cycles: u64,
    },
    /// A store was issued: the engine performs it, then calls
    /// [`Vm::store_done`].
    Store {
        /// Effective address.
        addr: u64,
        /// Access kind.
        kind: MemKind,
        /// Value to store.
        value: Value,
        /// Issue cycles already consumed.
        cycles: u64,
    },
    /// A library call the engine must service; resume with
    /// [`Vm::syscall_return`].
    Syscall {
        /// Which intrinsic.
        intrinsic: Intrinsic,
        /// Arguments, left to right.
        args: Vec<Value>,
        /// Issue cycles already consumed.
        cycles: u64,
    },
    /// The entry function returned.
    Finished {
        /// Its return value.
        exit: Value,
    },
}

/// One call record. Registers live in the [`Vm`]'s flat arena (`regs`);
/// a frame owns the suffix starting at `reg_base`, so calls never allocate
/// and returns are a truncate. `pc` is only authoritative while the frame
/// is *not* the running one: the interpreter caches the top frame's state
/// in [`Hot`] and writes `pc` back at calls and suspension points.
#[derive(Debug, Clone)]
struct Frame {
    func: u32,
    pc: u32,
    reg_base: usize,
    mem_base: u64,
    mem_size: u32,
}

#[derive(Debug, Clone, PartialEq)]
enum Pending {
    Load { keep_float: bool },
    Store { repush: Option<Value> },
    Syscall,
}

/// One suspendable execution context.
#[derive(Debug, Clone)]
pub struct Vm {
    stack: Vec<Value>,
    frames: Vec<Frame>,
    /// Flat register arena: frame `i` owns `regs[frames[i].reg_base..]` up
    /// to the next frame's base.
    regs: Vec<Value>,
    pending: Option<Pending>,
    mem_sp: u64,
    stack_region_base: u64,
    finished: Option<Value>,
    retired: u64,
}

impl Vm {
    /// Creates a VM poised at `func` with `args`, using the private stack
    /// region starting at `stack_region_base`.
    pub fn new(program: &Program, func: u32, args: Vec<Value>, stack_region_base: u64) -> Self {
        let f = &program.funcs[func as usize];
        let mut regs = vec![Value::I(0); f.n_regs as usize];
        for (i, a) in args.into_iter().enumerate().take(f.n_regs as usize) {
            regs[i] = a;
        }
        let frame = Frame {
            func,
            pc: 0,
            reg_base: 0,
            mem_base: stack_region_base,
            mem_size: f.frame_mem,
        };
        Vm {
            stack: Vec::with_capacity(32),
            frames: vec![frame],
            regs,
            pending: None,
            mem_sp: u64::from(f.frame_mem),
            stack_region_base,
            finished: None,
            retired: 0,
        }
    }

    /// Total bytecode instructions retired since construction. This is a
    /// host-performance denominator (steps/sec); it plays no role in the
    /// simulated timing model.
    pub fn instructions_retired(&self) -> u64 {
        self.retired
    }

    /// Whether the entry function has returned.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// The exit value once finished.
    pub fn exit_value(&self) -> Option<Value> {
        self.finished
    }

    /// Current call depth (diagnostics).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    fn pop(&mut self) -> Result<Value, VmError> {
        self.stack
            .pop()
            .ok_or_else(|| VmError::new("value stack underflow"))
    }

    /// Completes a pending load.
    ///
    /// # Panics
    ///
    /// Panics if no load is pending.
    pub fn provide_load(&mut self, v: Value) {
        match self.pending.take() {
            Some(Pending::Load { .. }) => self.stack.push(v),
            other => panic!("provide_load without pending load: {other:?}"),
        }
    }

    /// Completes a pending store.
    ///
    /// # Panics
    ///
    /// Panics if no store is pending.
    pub fn store_done(&mut self) {
        match self.pending.take() {
            Some(Pending::Store { repush }) => {
                if let Some(v) = repush {
                    self.stack.push(v);
                }
            }
            other => panic!("store_done without pending store: {other:?}"),
        }
    }

    /// Completes a pending syscall, pushing its return value.
    ///
    /// # Panics
    ///
    /// Panics if no syscall is pending.
    pub fn syscall_return(&mut self, v: Value) {
        match self.pending.take() {
            Some(Pending::Syscall) => self.stack.push(v),
            other => panic!("syscall_return without pending syscall: {other:?}"),
        }
    }

    /// Runs instructions until something needs the engine (memory access,
    /// syscall, or completion), accumulating plain-instruction cycles into
    /// the returned outcome.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on stack underflow or malformed bytecode —
    /// both indicate internal bugs.
    pub fn run_until_event(&mut self, program: &Program) -> Result<StepOutcome, VmError> {
        assert!(
            self.pending.is_none(),
            "resuming a VM with an unresolved pending operation"
        );
        if let Some(exit) = self.finished {
            return Ok(StepOutcome::Finished { exit });
        }
        let mut hot = {
            let frame = self
                .frames
                .last()
                .ok_or_else(|| VmError::new("no active frame"))?;
            Hot::of(program, frame)
        };
        let outcome = loop {
            let Some(&instr) = hot.code.get(hot.pc as usize) else {
                let func = &program.funcs[self.frames.last().expect("frame").func as usize];
                let pc = hot.pc;
                break Err(VmError::new(format!(
                    "pc {pc} out of bounds in `{}`",
                    func.name
                )));
            };
            hot.pc += 1;
            hot.cycles += instr.base_cost();
            hot.retired += 1;
            match self.step(&mut hot, program, instr) {
                Ok(None) => {}
                Ok(Some(out)) => break Ok(out),
                Err(e) => break Err(e),
            }
            // Safety valve: surface control periodically so the engine can
            // interleave cores even through long register-only stretches.
            if hot.cycles >= 4096 {
                break Ok(StepOutcome::Ran { cycles: hot.cycles });
            }
        };
        // Every exit (suspension, completion, fault) writes the cached
        // state back in one place.
        self.retired += hot.retired;
        self.sync_pc(&hot);
        outcome
    }

    /// Writes the cached program counter back into the top frame.
    fn sync_pc(&mut self, hot: &Hot<'_>) {
        if let Some(f) = self.frames.last_mut() {
            f.pc = hot.pc;
        }
    }

    /// Executes one fetched instruction: `Ok(None)` falls through to the
    /// next one, `Ok(Some(outcome))` suspends (or finishes) the VM.
    ///
    /// This structural `match` is the only dispatch path. It and every
    /// handler it calls are inlined into [`Vm::run_until_event`]'s loop, so
    /// `hot` and the retired count stay in registers across instructions.
    #[inline(always)]
    fn step<'p>(
        &mut self,
        hot: &mut Hot<'p>,
        program: &'p Program,
        instr: Instr,
    ) -> Result<Option<StepOutcome>, VmError> {
        match instr {
            Instr::PushI(v) => self.stack.push(Value::I(v)),
            Instr::PushF(v) => self.stack.push(Value::F(v)),
            Instr::LocalGet(slot) => {
                if slot as usize >= hot.reg_len {
                    return Err(VmError::new("register slot out of range"));
                }
                let v = self.regs[hot.reg_base + slot as usize];
                self.stack.push(v);
            }
            Instr::LocalSet(slot) => {
                let v = self.pop()?;
                if slot as usize >= hot.reg_len {
                    return Err(VmError::new("register slot out of range"));
                }
                self.regs[hot.reg_base + slot as usize] = v;
            }
            Instr::LocalMemAddr(off) => {
                self.stack
                    .push(Value::I((hot.mem_base + u64::from(off)) as i64));
            }
            Instr::Load(kind) => {
                let addr = self.pop()?.as_addr();
                self.pending = Some(Pending::Load {
                    keep_float: kind.is_float(),
                });
                return Ok(Some(StepOutcome::Load {
                    addr,
                    kind,
                    cycles: hot.cycles,
                }));
            }
            Instr::Store(kind, keep) => {
                let value = self.pop()?;
                let addr = self.pop()?.as_addr();
                self.pending = Some(Pending::Store {
                    repush: keep.then_some(value),
                });
                return Ok(Some(StepOutcome::Store {
                    addr,
                    kind,
                    value,
                    cycles: hot.cycles,
                }));
            }
            Instr::Dup => {
                let v = *self
                    .stack
                    .last()
                    .ok_or_else(|| VmError::new("dup on empty stack"))?;
                self.stack.push(v);
            }
            Instr::Pop => {
                self.pop()?;
            }
            Instr::Swap => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.stack.push(b);
                self.stack.push(a);
            }
            Instr::Rot3 => {
                let c = self.pop()?;
                let b = self.pop()?;
                let a = self.pop()?;
                self.stack.push(b);
                self.stack.push(c);
                self.stack.push(a);
            }
            Instr::Add | Instr::Sub | Instr::Mul | Instr::Div | Instr::Rem => {
                let r = self.pop()?;
                let l = self.pop()?;
                self.stack.push(arith(instr, l, r)?);
            }
            Instr::Shl | Instr::Shr | Instr::BitAnd | Instr::BitOr | Instr::BitXor => {
                let r = self.pop()?.as_i();
                let l = self.pop()?.as_i();
                let v = match instr {
                    Instr::Shl => l.wrapping_shl(r as u32),
                    Instr::Shr => l.wrapping_shr(r as u32),
                    Instr::BitAnd => l & r,
                    Instr::BitOr => l | r,
                    _ => l ^ r,
                };
                self.stack.push(Value::I(v));
            }
            Instr::Neg => {
                let v = self.pop()?;
                self.stack.push(match v {
                    Value::I(i) => Value::I(i.wrapping_neg()),
                    Value::F(f) => Value::F(-f),
                });
            }
            Instr::Not => {
                let v = self.pop()?;
                self.stack.push(Value::I(i64::from(!v.is_truthy())));
            }
            Instr::BitNot => {
                let v = self.pop()?.as_i();
                self.stack.push(Value::I(!v));
            }
            Instr::CmpLt
            | Instr::CmpLe
            | Instr::CmpGt
            | Instr::CmpGe
            | Instr::CmpEq
            | Instr::CmpNe => {
                let r = self.pop()?;
                let l = self.pop()?;
                self.stack.push(compare(instr, l, r));
            }
            Instr::I2F => {
                let v = self.pop()?;
                self.stack.push(Value::F(v.as_f()));
            }
            Instr::F2I => {
                let v = self.pop()?;
                self.stack.push(Value::I(v.as_i()));
            }
            Instr::Jump(t) => hot.pc = t,
            Instr::JumpIfZero(t) => {
                if !self.pop()?.is_truthy() {
                    hot.pc = t;
                }
            }
            Instr::JumpIfNotZero(t) => {
                if self.pop()?.is_truthy() {
                    hot.pc = t;
                }
            }
            Instr::Call(idx, nargs) => self.call(hot, program, idx, nargs)?,
            Instr::CallIntrinsic(intr, nargs) => {
                return self.call_intrinsic(hot, intr, nargs);
            }
            Instr::Ret | Instr::RetVoid => {
                let ret = if instr == Instr::Ret {
                    self.pop()?
                } else {
                    Value::I(0)
                };
                let frame = self.frames.pop().expect("frame");
                self.regs.truncate(frame.reg_base);
                self.mem_sp -= u64::from(frame.mem_size);
                if self.frames.is_empty() {
                    self.finished = Some(ret);
                    return Ok(Some(StepOutcome::Finished { exit: ret }));
                }
                self.stack.push(ret);
                hot.switch_frame(program, self.frames.last().expect("frame"));
            }
            Instr::Nop => {}
        }
        Ok(None)
    }

    /// `Call`: moves `nargs` stacked arguments into a fresh register window
    /// and makes the callee the running frame.
    #[inline(always)]
    fn call<'p>(
        &mut self,
        hot: &mut Hot<'p>,
        program: &'p Program,
        idx: u32,
        nargs: u8,
    ) -> Result<(), VmError> {
        let callee = program
            .funcs
            .get(idx as usize)
            .ok_or_else(|| VmError::new("call target out of range"))?;
        let reg_base = self.regs.len();
        let n_regs = callee.n_regs as usize;
        self.regs.resize(reg_base + n_regs, Value::I(0));
        for i in (0..nargs as usize).rev() {
            let v = match self.pop() {
                Ok(v) => v,
                Err(e) => {
                    self.regs.truncate(reg_base);
                    return Err(e);
                }
            };
            if i < n_regs {
                self.regs[reg_base + i] = v;
            }
        }
        if self.mem_sp + u64::from(callee.frame_mem) > STACK_SIZE {
            self.regs.truncate(reg_base);
            return Err(VmError::new(format!(
                "simulated stack overflow calling `{}`",
                callee.name
            )));
        }
        self.sync_pc(hot);
        let frame = Frame {
            func: idx,
            pc: 0,
            reg_base,
            mem_base: self.stack_region_base + self.mem_sp,
            mem_size: callee.frame_mem,
        };
        self.mem_sp += u64::from(callee.frame_mem);
        self.frames.push(frame);
        hot.switch_frame(program, self.frames.last().expect("frame"));
        Ok(())
    }

    /// `CallIntrinsic`: pure math runs inline; everything else suspends
    /// as a [`StepOutcome::Syscall`].
    #[inline(always)]
    fn call_intrinsic(
        &mut self,
        hot: &mut Hot<'_>,
        intr: Intrinsic,
        nargs: u8,
    ) -> Result<Option<StepOutcome>, VmError> {
        let mut args = Vec::with_capacity(nargs as usize);
        for _ in 0..nargs {
            args.push(self.pop()?);
        }
        args.reverse();
        if intr.is_pure() {
            let v = match intr {
                Intrinsic::Sqrt => Value::F(args[0].as_f().sqrt()),
                Intrinsic::Fabs => Value::F(args[0].as_f().abs()),
                _ => unreachable!("only math intrinsics are pure"),
            };
            self.stack.push(v);
            hot.cycles += 30; // FP unit latency for sqrt-class ops
            return Ok(None);
        }
        self.pending = Some(Pending::Syscall);
        Ok(Some(StepOutcome::Syscall {
            intrinsic: intr,
            args,
            cycles: hot.cycles,
        }))
    }
}

/// Cached execution state of the topmost frame, held in locals across the
/// fetch/decode loop so the per-instruction path touches no `Vec` lookups.
/// `cycles` and `retired` accumulate across frame switches within one
/// engine slice; everything else is refreshed by [`Hot::switch_frame`] on
/// call/return.
struct Hot<'p> {
    code: &'p [Instr],
    pc: u32,
    reg_base: usize,
    reg_len: usize,
    mem_base: u64,
    cycles: u64,
    retired: u64,
}

impl<'p> Hot<'p> {
    fn of(program: &'p Program, frame: &Frame) -> Hot<'p> {
        let f = &program.funcs[frame.func as usize];
        Hot {
            code: &f.code,
            pc: frame.pc,
            reg_base: frame.reg_base,
            reg_len: f.n_regs as usize,
            mem_base: frame.mem_base,
            cycles: 0,
            retired: 0,
        }
    }

    /// Re-targets the cache at `frame` (after a call or return), keeping
    /// the accumulated counts.
    #[inline(always)]
    fn switch_frame(&mut self, program: &'p Program, frame: &Frame) {
        let f = &program.funcs[frame.func as usize];
        self.code = &f.code;
        self.pc = frame.pc;
        self.reg_base = frame.reg_base;
        self.reg_len = f.n_regs as usize;
        self.mem_base = frame.mem_base;
    }
}

fn arith(instr: Instr, l: Value, r: Value) -> Result<Value, VmError> {
    let float = l.promotes_to_f(r);
    Ok(if float {
        let (a, b) = (l.as_f(), r.as_f());
        Value::F(match instr {
            Instr::Add => a + b,
            Instr::Sub => a - b,
            Instr::Mul => a * b,
            Instr::Div => a / b,
            Instr::Rem => a % b,
            _ => unreachable!(),
        })
    } else {
        let (a, b) = (l.as_i(), r.as_i());
        if matches!(instr, Instr::Div | Instr::Rem) && b == 0 {
            return Err(VmError::new("integer division by zero"));
        }
        Value::I(match instr {
            Instr::Add => a.wrapping_add(b),
            Instr::Sub => a.wrapping_sub(b),
            Instr::Mul => a.wrapping_mul(b),
            Instr::Div => a.wrapping_div(b),
            Instr::Rem => a.wrapping_rem(b),
            _ => unreachable!(),
        })
    })
}

fn compare(instr: Instr, l: Value, r: Value) -> Value {
    let res = if l.promotes_to_f(r) {
        let (a, b) = (l.as_f(), r.as_f());
        match instr {
            Instr::CmpLt => a < b,
            Instr::CmpLe => a <= b,
            Instr::CmpGt => a > b,
            Instr::CmpGe => a >= b,
            Instr::CmpEq => a == b,
            Instr::CmpNe => a != b,
            _ => unreachable!(),
        }
    } else {
        let (a, b) = (l.as_i(), r.as_i());
        match instr {
            Instr::CmpLt => a < b,
            Instr::CmpLe => a <= b,
            Instr::CmpGt => a > b,
            Instr::CmpGe => a >= b,
            Instr::CmpEq => a == b,
            Instr::CmpNe => a != b,
            _ => unreachable!(),
        }
    };
    Value::I(i64::from(res))
}

/// The narrowed per-unit interface an execution engine drives: construct a
/// context, advance it to the next event, and answer the three pending
/// event kinds (load, store, syscall).
///
/// Engines that interleave many contexts (one per thread or per core)
/// should hold `UnitVm`s rather than [`Vm`]s: the wrapper exposes exactly
/// the resume surface the scheduling loop needs, so introspection methods
/// like [`Vm::depth`] cannot leak into scheduling decisions.
#[derive(Debug, Clone)]
pub struct UnitVm(Vm);

impl UnitVm {
    /// Creates a context poised at `func` with `args`, using the private
    /// stack region starting at `stack_region_base`.
    pub fn new(program: &Program, func: u32, args: Vec<Value>, stack_region_base: u64) -> Self {
        UnitVm(Vm::new(program, func, args, stack_region_base))
    }

    /// Runs until something needs the engine (memory access, syscall, or
    /// completion). See [`Vm::run_until_event`].
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on stack underflow or malformed bytecode.
    pub fn run_until_event(&mut self, program: &Program) -> Result<StepOutcome, VmError> {
        self.0.run_until_event(program)
    }

    /// Completes a pending load with the value the memory model resolved.
    ///
    /// # Panics
    ///
    /// Panics if no load is pending.
    pub fn provide_load(&mut self, v: Value) {
        self.0.provide_load(v);
    }

    /// Completes a pending store.
    ///
    /// # Panics
    ///
    /// Panics if no store is pending.
    pub fn store_done(&mut self) {
        self.0.store_done();
    }

    /// Completes a pending syscall, pushing its return value.
    ///
    /// # Panics
    ///
    /// Panics if no syscall is pending.
    pub fn syscall_return(&mut self, v: Value) {
        self.0.syscall_return(v);
    }

    /// Total bytecode instructions retired. See
    /// [`Vm::instructions_retired`].
    pub fn instructions_retired(&self) -> u64 {
        self.0.instructions_retired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, STACKS_BASE};
    use crate::data::ByteMemory;
    use hsm_cir::parse;

    /// A tiny single-threaded harness: resolves loads/stores against one
    /// ByteMemory, fails on syscalls. Returns (exit value, total cycles).
    fn run(src: &str) -> (Value, u64) {
        run_with_mem(src, &mut ByteMemory::new())
    }

    fn run_with_mem(src: &str, mem: &mut ByteMemory) -> (Value, u64) {
        let program = compile(&parse(src).expect("parse")).expect("compile");
        for (addr, bytes) in &program.image {
            mem.write_bytes(*addr, bytes);
        }
        let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
        let mut cycles = 0u64;
        loop {
            match vm.run_until_event(&program).expect("vm") {
                StepOutcome::Ran { cycles: c } => cycles += c,
                StepOutcome::Load {
                    addr,
                    kind,
                    cycles: c,
                } => {
                    cycles += c + 1;
                    vm.provide_load(mem.load(addr, kind));
                }
                StepOutcome::Store {
                    addr,
                    kind,
                    value,
                    cycles: c,
                } => {
                    cycles += c + 1;
                    mem.store(addr, kind, value);
                    vm.store_done();
                }
                StepOutcome::Syscall { intrinsic, .. } => {
                    panic!("unexpected syscall {intrinsic:?}");
                }
                StepOutcome::Finished { exit } => return (exit, cycles),
            }
        }
    }

    #[test]
    fn returns_constant() {
        assert_eq!(run("int main() { return 42; }").0, Value::I(42));
    }

    #[test]
    fn arithmetic_matches_c() {
        assert_eq!(run("int main() { return 7 / 2; }").0, Value::I(3));
        assert_eq!(run("int main() { return 7 % 3; }").0, Value::I(1));
        assert_eq!(run("int main() { return 2 + 3 * 4; }").0, Value::I(14));
        assert_eq!(run("int main() { return (2 + 3) * 4; }").0, Value::I(20));
        assert_eq!(run("int main() { return 1 << 5; }").0, Value::I(32));
        assert_eq!(run("int main() { return -5 + 3; }").0, Value::I(-2));
    }

    #[test]
    fn float_arithmetic() {
        let (v, _) =
            run("int main() { double x = 4.0; double y = x / 8.0; return (int)(y * 100.0); }");
        assert_eq!(v, Value::I(50));
    }

    #[test]
    fn mixed_int_float_promotes() {
        let (v, _) = run("int main() { int n = 8; double x = 4.0 / n; return (int)(x * 10.0); }");
        assert_eq!(v, Value::I(5));
    }

    #[test]
    fn locals_and_loops() {
        let (v, _) =
            run("int main() { int s = 0; int i; for (i = 1; i <= 10; i++) s += i; return s; }");
        assert_eq!(v, Value::I(55));
    }

    #[test]
    fn while_and_break_continue() {
        let (v, _) = run(
            "int main() { int s = 0; int i = 0; while (1) { i++; if (i > 10) break; if (i % 2) continue; s += i; } return s; }",
        );
        assert_eq!(v, Value::I(30)); // 2+4+6+8+10
    }

    #[test]
    fn do_while_runs_once() {
        let (v, _) = run("int main() { int i = 99; do { i = 7; } while (0); return i; }");
        assert_eq!(v, Value::I(7));
    }

    #[test]
    fn global_arrays_and_pointers() {
        let (v, _) = run(
            "int sum[3] = {0}; int *ptr; int main() { int tmp = 5; ptr = &tmp; sum[1] = *ptr + 2; return sum[1]; }",
        );
        assert_eq!(v, Value::I(7));
    }

    #[test]
    fn global_initializer_image_applies() {
        let (v, _) = run("int c[3] = {10, 20, 30}; int main() { return c[0] + c[1] + c[2]; }");
        assert_eq!(v, Value::I(60));
    }

    #[test]
    fn function_calls_and_recursion() {
        let (v, _) = run(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } int main() { return fib(10); }",
        );
        assert_eq!(v, Value::I(55));
    }

    #[test]
    fn pointer_walk() {
        let (v, _) = run(
            "double a[4]; int main() { int i; for (i = 0; i < 4; i++) a[i] = i * 1.5; double *p = a; double s = 0.0; for (i = 0; i < 4; i++) { s += *p; p = p + 1; } return (int)(s * 10.0); }",
        );
        assert_eq!(v, Value::I(90)); // (0+1.5+3+4.5)*10
    }

    #[test]
    fn post_and_pre_increment_values() {
        assert_eq!(
            run("int main() { int i = 5; int j = i++; return j * 100 + i; }").0,
            Value::I(506)
        );
        assert_eq!(
            run("int main() { int i = 5; int j = ++i; return j * 100 + i; }").0,
            Value::I(606)
        );
        // Memory-resident (array element) post-increment.
        assert_eq!(
            run("int a[2] = {3, 0}; int main() { a[1] = a[0]++; return a[1] * 10 + a[0]; }").0,
            Value::I(34)
        );
    }

    #[test]
    fn compound_assignment_on_memory() {
        let (v, _) = run("int g; int main() { g = 10; g += 5; g *= 2; g -= 3; g /= 2; return g; }");
        assert_eq!(v, Value::I(13)); // ((10+5)*2-3)/2 = 27/2 = 13
    }

    #[test]
    fn ternary_and_logical() {
        assert_eq!(
            run("int main() { int a = 5; return a > 3 ? 1 : 2; }").0,
            Value::I(1)
        );
        assert_eq!(
            run("int main() { int a = 0; return a && 1; }").0,
            Value::I(0)
        );
        assert_eq!(
            run("int main() { int a = 0; return a || 2; }").0,
            Value::I(1)
        );
    }

    #[test]
    fn short_circuit_skips_side_effects() {
        let (v, _) = run(
            "int g = 0; int bump() { g = g + 1; return 1; } int main() { int a = 0; int r = a && bump(); return g * 10 + r; }",
        );
        assert_eq!(v, Value::I(0), "bump must not run");
    }

    #[test]
    fn sqrt_is_inline() {
        let (v, _) = run("int main() { double x = sqrt(16.0); return (int)x; }");
        assert_eq!(v, Value::I(4));
    }

    #[test]
    fn division_by_zero_is_a_fault() {
        let program = compile(&parse("int main() { int z = 0; return 5 / z; }").unwrap()).unwrap();
        let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
        let err = loop {
            match vm.run_until_event(&program) {
                Ok(StepOutcome::Finished { .. }) => panic!("should fault"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn cycles_accumulate_and_loops_cost_more() {
        let (_, short) =
            run("int main() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }");
        let (_, long) =
            run("int main() { int s = 0; int i; for (i = 0; i < 1000; i++) s += i; return s; }");
        assert!(long > short * 20, "long {long} short {short}");
    }

    #[test]
    fn deep_recursion_overflows_gracefully() {
        let src = "int f(int n) { int big[20000]; big[0] = n; if (n == 0) return 0; return f(n - 1) + big[0]; } int main() { return f(100); }";
        let program = compile(&parse(src).unwrap()).unwrap();
        let mut vm = Vm::new(&program, program.entry, vec![], STACKS_BASE);
        let mut mem = ByteMemory::new();
        let err = loop {
            match vm.run_until_event(&program) {
                Ok(StepOutcome::Finished { .. }) => panic!("should overflow"),
                Ok(StepOutcome::Load { addr, kind, .. }) => vm.provide_load(mem.load(addr, kind)),
                Ok(StepOutcome::Store {
                    addr, kind, value, ..
                }) => {
                    mem.store(addr, kind, value);
                    vm.store_done();
                }
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("stack overflow"), "{err}");
    }

    #[test]
    fn char_and_string_access() {
        let (v, _) = run(r#"int main() { char *s = "AB"; return s[0] + s[1]; }"#);
        assert_eq!(v, Value::I(65 + 66));
    }

    #[test]
    fn multi_function_programs_share_globals() {
        let (v, _) = run(
            "int acc; void add(int x) { acc += x; } int main() { acc = 0; add(3); add(4); return acc; }",
        );
        assert_eq!(v, Value::I(7));
    }

    #[test]
    fn switch_dispatches_to_matching_case() {
        let src = "int classify(int x) { switch (x) { case 0: return 10; case 5: return 50; default: return 99; } } int main() { return classify(5); }";
        assert_eq!(run(src).0, Value::I(50));
        let src0 = "int classify(int x) { switch (x) { case 0: return 10; case 5: return 50; default: return 99; } } int main() { return classify(0); }";
        assert_eq!(run(src0).0, Value::I(10));
        let srcd = "int classify(int x) { switch (x) { case 0: return 10; case 5: return 50; default: return 99; } } int main() { return classify(7); }";
        assert_eq!(run(srcd).0, Value::I(99));
    }

    #[test]
    fn switch_falls_through_without_break() {
        let (v, _) = run(
            "int main() { int x = 1; int acc = 0; switch (x) { case 1: acc += 1; case 2: acc += 2; case 3: acc += 4; break; case 4: acc += 8; } return acc; }",
        );
        assert_eq!(v, Value::I(7), "1 falls through 2 and 3, breaks before 4");
    }

    #[test]
    fn switch_without_default_skips_entirely() {
        let (v, _) =
            run("int main() { int acc = 5; switch (42) { case 1: acc = 0; break; } return acc; }");
        assert_eq!(v, Value::I(5));
    }

    #[test]
    fn switch_inside_loop_continue_targets_loop() {
        let (v, _) = run(
            "int main() { int s = 0; int i; for (i = 0; i < 6; i++) { switch (i % 3) { case 0: continue; case 1: s += 10; break; default: s += 1; } } return s; }",
        );
        // i: 0 skip, 1 +10, 2 +1, 3 skip, 4 +10, 5 +1 = 22
        assert_eq!(v, Value::I(22));
    }

    #[test]
    fn nested_switches() {
        let (v, _) = run(
            "int main() { int a = 1; int b = 2; int r = 0; switch (a) { case 1: switch (b) { case 2: r = 22; break; default: r = 20; } break; default: r = 9; } return r; }",
        );
        assert_eq!(v, Value::I(22));
    }
}
