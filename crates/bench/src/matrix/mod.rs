//! The config-driven benchmark matrix.
//!
//! One declarative TOML file (`benches/matrix.toml`) expands into a
//! `substrate × threads × event-count × mpx × fault-schedule` cell list;
//! every cell runs the same seeded, barrier-synchronized protocol; the
//! results score each benchmark with Pennycook's performance-portability
//! metric and regression-gate against a committed baseline.  This is the
//! Shumai `ShumaiConfig`/`MultiThreadBench` pattern (SNIPPETS.md) grown
//! into the repo's CI-enforced perf invariant — see SPEC.md §14 for the
//! grammar and gate semantics, DESIGN.md for the harness architecture.
//!
//! * [`config`] — parser (named checks + line numbers) and expansion.
//! * [`runner`] — barrier-started, seeded cell execution.
//! * [`pp`] — PP(a, p, H) harmonic-mean scoring.
//! * [`report`] — line-per-cell JSON, baseline diffing, text render.

pub mod config;
pub mod pp;
pub mod report;
pub mod runner;

pub use config::{compose_fault, dispatch_of, CellSpec, Dispatch, MatrixConfig, Op, CELL_EVENTS};
pub use pp::{harmonic_pp, score_matrix, BenchScore, SubstrateEff};
pub use report::{diff_against_baseline, read_baseline, render_matrix_json, render_report};
pub use runner::{run_cell, run_matrix, CellResult, RunOptions};
