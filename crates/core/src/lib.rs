//! # papi-core — a portable interface to hardware performance counters
//!
//! Rust reproduction of the system described in *"Experiences and Lessons
//! Learned with a Portable Interface to Hardware Performance Counters"*
//! (Dongarra et al., IPPS 2003): the PAPI library, in its PAPI-3 layered
//! shape.
//!
//! ```text
//!   high-level interface   (start/stop/read counters, PAPI_flops)    highlevel
//!   low-level interface    (EventSets, overflow, profil, multiplex)  Papi
//!     · session lifecycle, timers, sampling                          session
//!     · start/stop/read/accum, overflow & mpx dispatch               dispatch
//!     · event queries + EventSet bookkeeping                         events
//!   portable machinery     (presets, estimation)                     preset/…
//!   allocation solver      (bipartite matching over abstract rows)   alloc::solver
//!   ───────────────── Substrate trait (machine-dependent) ─────────────────
//!   allocation translation (masks / POWER groups → solver rows)      alloc model
//!   platform substrates    (8 simulated machines, perfctr emulation) registry
//! ```
//!
//! Two axes of the architecture are split along the machine-(in)dependent
//! boundary, exactly as PAPI 3 did:
//!
//! * **Allocation** — the hardware-independent solver
//!   ([`alloc::solver`]) matches abstract constraint rows; each substrate
//!   supplies the hardware-dependent translation
//!   ([`Substrate::alloc_model`]) from its constraint scheme (per-event
//!   counter masks, or POWER-style fixed groups) into those rows. The
//!   portable layer contains no group special cases.
//! * **Substrate selection** — [`Papi`] is generic over [`Substrate`] for
//!   static dispatch, and the trait is object-safe: a
//!   [`registry::SubstrateRegistry`] maps names (`sim:x86`, `perfctr`) to
//!   boxed substrate factories so tools pick their backend at runtime
//!   ([`Papi::init_named`] / `--substrate NAME`).
//!
//! ## Quick start
//!
//! ```
//! use papi_core::{Papi, Preset};
//! use papi_core::substrate::SimSubstrate;
//! use simcpu::{platform, Machine, ProgramBuilder};
//!
//! // Build a tiny workload on the generic simulated platform.
//! let mut machine = Machine::new(platform::sim_generic(), 42);
//! let mut b = ProgramBuilder::new();
//! b.func("kernel", |f| { f.loop_(1000, |f| { f.ffma(4); }); });
//! machine.load(b.build("kernel"));
//!
//! // Initialize the library and count FLOPs the low-level way.
//! let mut papi = Papi::init(SimSubstrate::new(machine)).unwrap();
//! let set = papi.create_eventset();
//! papi.add_event(set, Preset::FpOps.code()).unwrap();
//! papi.start(set).unwrap();
//! papi.run_app().unwrap();
//! let counts = papi.stop(set).unwrap();
//! assert_eq!(counts[0], 8000); // 4000 FMAs x 2 FLOPs
//! ```
//!
//! Or select the platform by name through the registry (dynamic dispatch —
//! the session holds a [`BoxSubstrate`]):
//!
//! ```
//! use papi_core::{Papi, Preset};
//!
//! let mut papi = Papi::init_named("sim:generic").unwrap();
//! assert!(papi.query_event(Preset::TotCyc.code()));
//! ```

pub mod alloc;
pub mod error;
pub mod eventset;
pub mod fault;
pub mod highlevel;
pub mod multiplex;
pub mod preset;
pub mod profile;
pub mod registry;
pub mod sampling;
pub mod seqlock;
pub mod substrate;
pub mod testutil;
pub mod threads;

mod dispatch;
mod events;
mod session;

#[cfg(test)]
mod core_tests;

pub use dispatch::{AppExit, OverflowInfo, OvfHandler, ProfilId};
pub use error::{PapiError, Result};
pub use eventset::{EventSetId, SetState};
pub use fault::{FaultPlan, FaultSubstrate};
pub use preset::{is_preset_code, Mapping, Preset, PresetTable, PRESET_MASK};
pub use profile::{Profil, ProfilConfig};
pub use registry::{Provenance, SubstrateFactory, SubstrateInfo, SubstrateRegistry};
pub use seqlock::{CountSnapshot, PublishedCounts, SeqCell, MAX_PUBLISHED_EVENTS};
pub use session::{Papi, DEFAULT_TRANSIENT_RETRY_BUDGET};
pub use substrate::{BoxSubstrate, HwInfo, SimSubstrate, Substrate};
pub use threads::{PapiThread, TaggedSetId, ThreadedPapi};
