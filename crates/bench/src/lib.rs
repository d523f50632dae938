//! Shared helpers for the experiment harnesses in `src/bin/`.
//!
//! Each binary regenerates one table/figure/claim of the paper's evaluation;
//! see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for recorded
//! outputs.

use papi_core::{BoxSubstrate, Papi, SimSubstrate, Substrate};
use simcpu::{AddrGen, Machine, PlatformSpec, Program, ProgramBuilder};

pub mod matrix;

/// Every papi-bench binary and test counts heap traffic, so the
/// zero-allocation hot-path guarantee is asserted (not assumed) wherever it
/// is measured.
#[global_allocator]
static ALLOC: papi_obs::alloc_track::CountingAlloc = papi_obs::alloc_track::CountingAlloc;

/// Build a library handle over a machine running `program` on `spec`.
pub fn papi_on(spec: PlatformSpec, program: Program, seed: u64) -> Papi<SimSubstrate> {
    let mut m = Machine::new(spec, seed);
    m.load(program);
    Papi::init(SimSubstrate::new(m)).expect("init")
}

/// The by-name counterpart of [`papi_on`]: open a session on a
/// registry-selected substrate (`sim:x86`, `perfctr`, ...) with `program`
/// loaded. The session holds the backend behind `dyn Substrate`.
pub fn papi_named(substrate: &str, program: Program, seed: u64) -> Papi<BoxSubstrate> {
    let reg = papi_tools::full_registry();
    let mut papi = Papi::init_from_registry(&reg, substrate, seed).expect("substrate");
    papi.substrate_mut().load_program(program).expect("load");
    papi
}

/// Uninstrumented cycle cost of a program on a platform (the baseline for
/// overhead experiments).
pub fn baseline_cycles(spec: PlatformSpec, program: Program, seed: u64) -> u64 {
    let mut m = Machine::new(spec, seed);
    m.load(program);
    m.run_to_halt();
    m.cycles()
}

/// The phased program of E5 and its slice-length ablation: `fp` runs
/// `iters` iterations of three FMAs and a divide, then `mem` runs `iters`
/// strided loads — all FP first, all memory second, the multiplexer's
/// worst case, since each event class is concentrated in one time region.
pub fn fp_then_mem(iters: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.func("fp", |f| {
        f.loop_(iters, |f| {
            f.ffma(3);
            f.fdiv(1);
        });
    });
    b.func("mem", |f| {
        f.loop_(iters, |f| {
            f.load(AddrGen::Stride {
                base: 0x10_0000,
                stride: 64,
                len: 1 << 16,
            });
        });
    });
    b.func("main", |f| {
        f.call("fp");
        f.call("mem");
    });
    b.build("main")
}

/// An experiment banner: the claim between two rules, no trailing newline.
pub fn banner_text(id: &str, claim: &str) -> String {
    let rule = "=".repeat(62);
    format!("{rule}\n{id}: {claim}\n{rule}")
}

/// Print an experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("{}", banner_text(id, claim));
}

/// Format a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}
