//! # simcpu — a deterministic simulated processor with a PMU
//!
//! This crate is the *hardware* underneath the PAPI reproduction: a small,
//! fully deterministic processor simulator whose purpose is not cycle-exact
//! modelling of any real chip, but faithful reproduction of the **mechanisms**
//! a hardware-performance-counter interface talks to:
//!
//! * a synthetic-workload ISA ([`isa`]) and a program builder ([`program`]),
//! * instruction and data caches and TLBs ([`cache`], [`tlb`]),
//! * a branch predictor ([`branch`]),
//! * in-order and out-of-order pipeline timing, including the *interrupt
//!   skid* that makes program-counter sampling imprecise on out-of-order
//!   machines ([`platform::PipelineCfg`]),
//! * a performance-monitoring unit with a small number of physical counter
//!   registers, per-event counter constraints, POWER-style counter *groups*,
//!   overflow interrupts and ProfileMe/EAR-style precise sampling ([`pmu`]),
//! * several *platforms* with different native event sets, constraints and
//!   access-cost models ([`platform`]), standing in for the machines the
//!   paper ran on (Linux/x86, Alpha Tru64 + DCPI, POWER3, Itanium, Cray T3E),
//! * a minimal OS layer: threads, a round-robin scheduler, per-thread counter
//!   virtualization, real vs virtual time, and memory accounting
//!   ([`machine`]).
//!
//! Everything that costs time on a real machine costs simulated cycles here —
//! including reading a counter, taking an overflow interrupt and draining a
//! sample buffer — so the paper's overhead experiments are reproduced by the
//! same mechanism that causes them on metal: *the act of measuring perturbs
//! the phenomenon being measured*.
//!
//! The crate is `std`-only, single-threaded and deterministic: all randomness
//! flows from a seed stored in the [`machine::Machine`].

pub mod branch;
pub mod cache;
pub mod isa;
pub mod machine;
pub mod platform;
pub mod pmu;
pub mod program;
pub mod rng;
pub mod tlb;

pub use isa::{AddrGen, BranchPat, Inst};
pub use machine::{Granularity, MachError, Machine, MemInfo, RunExit, ThreadId, Truth};
pub use platform::model::{load_platform_file, parse_platform, render_platform};
pub use platform::{
    all_platforms, platform_by_name, CostModel, PipelineCfg, PipelineKind, PlatformSpec,
};
pub use pmu::{Domain, EventKind, NativeEventDesc, SampleConfig, SampleRecord};
pub use program::{Program, ProgramBuilder, Symbol, TEXT_BASE};
