//! Pinned dispatch behaviour: the interpreter's observable surface on a
//! seeded corpus of generated bytecode must not move.
//!
//! `Vm::run_until_event` resolves every opcode through one structural
//! `match` on `Instr`. A handler wired to the wrong opcode, a reordered
//! pop, a changed cycle count or a reworded fault shows up here as a
//! different digest of the event trails, faults and final VM states of
//! the generated programs — including deliberately malformed ones,
//! because fault messages are part of the contract.
//!
//! The corpus generator is itself pinned: a fixed-seed sweep asserts it
//! emits every `Instr` variant, so the digest cannot silently stop
//! covering part of the instruction set.

use hsm_vm::compile::{Function, Program, STACKS_BASE};
use hsm_vm::value::MemKind;
use hsm_vm::vm::{StepOutcome, Vm};
use hsm_vm::{Instr, Intrinsic, Value};
use std::collections::HashSet;
use std::mem::{discriminant, Discriminant};
use std::panic::{catch_unwind, AssertUnwindSafe};
use testkit::SplitMix64;

const KINDS: [MemKind; 6] = [
    MemKind::I8,
    MemKind::I16,
    MemKind::I32,
    MemKind::I64,
    MemKind::F32,
    MemKind::F64,
];

/// Number of `Instr` variants the generator draws from.
const VARIANTS: usize = 40;

/// One random instruction. Payloads are drawn small so programs exercise
/// both the happy paths and every fault path (bad slots, wild jumps,
/// out-of-range call targets); pure intrinsics always get at least one
/// argument because evaluating them with zero arguments is an index
/// panic, not a `VmError`.
fn gen_instr(rng: &mut SplitMix64, code_len: u32) -> Instr {
    let jump_target = |rng: &mut SplitMix64| rng.gen_range_usize(0, code_len as usize + 4) as u32;
    match rng.gen_range_usize(0, VARIANTS) {
        0 => Instr::PushI(rng.gen_range_i64(-64, 64)),
        1 => Instr::PushF(rng.gen_range_i64(-16, 16) as f64 / 2.0),
        2 => Instr::LocalGet(rng.gen_range_usize(0, 6) as u16),
        3 => Instr::LocalSet(rng.gen_range_usize(0, 6) as u16),
        4 => Instr::LocalMemAddr(rng.gen_range_usize(0, 64) as u32),
        5 => Instr::Load(*rng.choose(&KINDS)),
        6 => Instr::Store(*rng.choose(&KINDS), rng.gen_bool()),
        7 => Instr::Dup,
        8 => Instr::Pop,
        9 => Instr::Swap,
        10 => Instr::Rot3,
        11 => Instr::Add,
        12 => Instr::Sub,
        13 => Instr::Mul,
        14 => Instr::Div,
        15 => Instr::Rem,
        16 => Instr::Shl,
        17 => Instr::Shr,
        18 => Instr::BitAnd,
        19 => Instr::BitOr,
        20 => Instr::BitXor,
        21 => Instr::Neg,
        22 => Instr::Not,
        23 => Instr::BitNot,
        24 => Instr::CmpLt,
        25 => Instr::CmpLe,
        26 => Instr::CmpGt,
        27 => Instr::CmpGe,
        28 => Instr::CmpEq,
        29 => Instr::CmpNe,
        30 => Instr::I2F,
        31 => Instr::F2I,
        32 => Instr::Jump(jump_target(rng)),
        33 => Instr::JumpIfZero(jump_target(rng)),
        34 => Instr::JumpIfNotZero(jump_target(rng)),
        35 => Instr::Call(
            rng.gen_range_usize(0, 3) as u32, // index 2 is out of range
            rng.gen_range_usize(0, 3) as u8,
        ),
        36 => {
            let (intr, min_args) = *rng.choose(&[
                (Intrinsic::Sqrt, 1u8),
                (Intrinsic::Fabs, 1),
                (Intrinsic::Printf, 0),
                (Intrinsic::Malloc, 1),
                (Intrinsic::Wtime, 0),
                (Intrinsic::RcceBarrier, 0),
                (Intrinsic::Exit, 1),
            ]);
            Instr::CallIntrinsic(intr, min_args + rng.gen_range_usize(0, 2) as u8)
        }
        37 => Instr::Ret,
        38 => Instr::RetVoid,
        _ => Instr::Nop,
    }
}

/// `len` random instructions behind a prologue of up to eight pushes of
/// small operands, so arithmetic, comparisons (equal operands included)
/// and stack shuffles run on real values before an underflow can end the
/// program; an empty prologue keeps the underflow faults in the corpus.
fn gen_code(rng: &mut SplitMix64, len: usize) -> Vec<Instr> {
    let prologue = rng.gen_range_usize(0, 9);
    let total = (prologue + len) as u32;
    let mut code: Vec<Instr> = (0..prologue)
        .map(|_| match rng.gen_range_usize(0, 3) {
            0 => Instr::PushI(rng.gen_range_i64(-4, 4)),
            1 => Instr::PushF(rng.gen_range_i64(-4, 4) as f64 / 2.0),
            _ => Instr::LocalMemAddr(rng.gen_range_usize(0, 64) as u32),
        })
        .collect();
    code.extend((0..len).map(|_| gen_instr(rng, total)));
    code
}

/// A synthetic two-function program over generated bytecode. Function 0
/// is the entry; function 1 is a callable sibling (and calls can recurse
/// into either, bounded by the simulated stack).
fn gen_program(rng: &mut SplitMix64) -> Program {
    let func = |name: &str, code: Vec<Instr>, n_regs: u16, n_params: u8, frame_mem: u32| Function {
        name: name.to_string(),
        code,
        n_regs,
        n_params,
        frame_mem,
        ret: hsm_cir::types::CType::Int,
        frame_vars: Vec::new(),
    };
    let main_len = rng.gen_range_usize(6, 28);
    let helper_len = rng.gen_range_usize(4, 16);
    Program {
        funcs: vec![
            func("gen_main", gen_code(rng, main_len), 4, 0, 64),
            func("gen_helper", gen_code(rng, helper_len), 2, 2, 32),
        ],
        globals: Vec::new(),
        strings: Vec::new(),
        image: Vec::new(),
        entry: 0,
    }
}

/// Deterministic stand-in for the engine's memory/syscall answers.
fn pseudo_load(addr: u64, kind: MemKind) -> Value {
    if kind.is_float() {
        Value::F((addr % 251) as f64 / 4.0)
    } else {
        Value::I(((addr as i64).wrapping_mul(0x9E37)) % 1000)
    }
}

/// Drives one VM to completion (or an event cap), recording every outcome
/// plus the final `Debug` state — the full observable surface. Some
/// malformed programs panic (a negative address reaching a load); the
/// panic message ends such a trail, since the state it leaves behind is
/// not part of the contract.
fn drive(vm: &mut Vm, program: &Program) -> Vec<String> {
    let mut trail = Vec::new();
    for _ in 0..60 {
        let step = match catch_unwind(AssertUnwindSafe(|| vm.run_until_event(program))) {
            Ok(step) => step,
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
                trail.push(format!("panic: {message:?}"));
                return trail;
            }
        };
        trail.push(format!("{step:?}"));
        match step {
            Ok(StepOutcome::Ran { .. }) => {}
            Ok(StepOutcome::Load { addr, kind, .. }) => vm.provide_load(pseudo_load(addr, kind)),
            Ok(StepOutcome::Store { .. }) => vm.store_done(),
            Ok(StepOutcome::Syscall { ref args, .. }) => {
                vm.syscall_return(Value::I(args.len() as i64));
            }
            Ok(StepOutcome::Finished { .. }) | Err(_) => break,
        }
    }
    trail.push(format!("final: {vm:?}"));
    trail
}

/// FNV-1a, folded over every line of every trail.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Fixed-seed corpus size (independent of `TESTKIT_SEED`, so the digest
/// is stable).
const PROGRAMS: usize = 2048;

/// Digest of the corpus as run by the jump-table interpreter that
/// preceded the inlined `match`, captured from that build with this
/// generator and driver: the rewrite changed nothing observable. A
/// deliberate change to VM semantics, costs or fault messages re-pins it.
const PINNED_DIGEST: u64 = 0x7305_99c6_0b29_b851;

#[test]
fn dispatch_trails_match_the_pinned_digest() {
    let mut rng = SplitMix64::new(0xD15_9A7C_4ED0_1CE5);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut faults, mut finished, mut panics) = (0, 0, 0);
    for _ in 0..PROGRAMS {
        let program = gen_program(&mut rng);
        let mut vm = Vm::new(&program, 0, vec![], STACKS_BASE);
        for line in drive(&mut vm, &program) {
            faults += usize::from(line.starts_with("Err("));
            finished += usize::from(line.starts_with("Ok(Finished"));
            panics += usize::from(line.starts_with("panic: "));
            fnv1a(&mut hash, line.as_bytes());
            fnv1a(&mut hash, b"\n");
        }
    }
    // The corpus must reach both ends of the contract, or the digest
    // would pin only half of it.
    assert!(faults > PROGRAMS / 8, "only {faults} faulting programs");
    assert!(
        finished > PROGRAMS / 8,
        "only {finished} finishing programs"
    );
    assert_eq!(
        hash, PINNED_DIGEST,
        "dispatch changed what executes: digest {hash:#018x} \
         ({faults} faults, {finished} finished, {panics} panics)"
    );
}

/// Names every `Instr` variant: adding one fails to compile here until the
/// generator and [`VARIANTS`] learn it.
fn _every_variant_is_generated(instr: Instr) {
    match instr {
        Instr::PushI(_) | Instr::PushF(_) | Instr::LocalGet(_) | Instr::LocalSet(_) => {}
        Instr::LocalMemAddr(_) | Instr::Load(_) | Instr::Store(..) | Instr::Dup | Instr::Pop => {}
        Instr::Swap | Instr::Rot3 | Instr::Add | Instr::Sub | Instr::Mul | Instr::Div => {}
        Instr::Rem | Instr::Shl | Instr::Shr | Instr::BitAnd | Instr::BitOr | Instr::BitXor => {}
        Instr::Neg | Instr::Not | Instr::BitNot | Instr::CmpLt | Instr::CmpLe | Instr::CmpGt => {}
        Instr::CmpGe | Instr::CmpEq | Instr::CmpNe | Instr::I2F | Instr::F2I | Instr::Jump(_) => {}
        Instr::JumpIfZero(_) | Instr::JumpIfNotZero(_) | Instr::Call(..) => {}
        Instr::CallIntrinsic(..) | Instr::Ret | Instr::RetVoid | Instr::Nop => {}
    }
}

/// Pins the corpus generator itself: a fixed-seed sweep must emit every
/// `Instr` variant, so the digest above always covers the whole
/// instruction set.
#[test]
fn generator_covers_every_instruction_variant() {
    let mut rng = SplitMix64::new(0x0DD5_7ACC_ED15_7AC0);
    let seen: HashSet<Discriminant<Instr>> = (0..4000)
        .map(|_| discriminant(&gen_instr(&mut rng, 16)))
        .collect();
    assert_eq!(seen.len(), VARIANTS, "generator missed a variant");
}
