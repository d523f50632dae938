//! # papi-conformance — ctests-style differential conformance suite
//!
//! The original PAPI distribution shipped `ctests/`: a battery of small
//! programs run against every substrate port to prove the portable layer
//! behaved identically everywhere. This crate is that idea plus fault
//! injection: every check is a table entry derived from SPEC.md, run
//! against **every registered substrate**, both clean and wrapped in a
//! [`papi_core::FaultSubstrate`] fault schedule.
//!
//! The conformance condition is differential: the faulted run must produce
//! the *same* observable counts as the fault-free run (after the portable
//! layer's transient-retry and wraparound-widening machinery has done its
//! job), or fail with the same spec-listed [`PapiError`] — it must never
//! silently diverge.
//!
//! Checks only compare observables that are invariant under fault timing:
//! final totals, accumulated sums, overflow delivery counts, and error
//! codes. Mid-run readings depend on *when* (in cycles) they are taken, and
//! retries cost cycles, so those are used for intra-run invariants
//! (monotonicity, stop/read agreement) but never compared across runs.
//! Multiplexed estimates are timing-dependent by nature and compare under a
//! relative tolerance.
//!
//! [`BrokenSubstrate`] is the suite's self-test: a deliberately
//! nonconforming substrate (its batch reads glitch a huge additive offset
//! on and off) that a healthy harness must catch with a *named* check
//! failure — see `tests/matrix.rs`.
//!
//! The [`validation`] module is the suite's second axis: where the
//! differential matrix proves faulted and clean runs *agree*, the
//! validation checks prove the counts are *right* — every graded cell of
//! the `papi_validate` accuracy matrix defended against the golden
//! baseline, with the same named-check reporting.

use papi_core::{BoxSubstrate, Papi, PapiError, Preset, Substrate, SubstrateRegistry};
use simcpu::Program;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub mod validation;

/// How a check's observables compare between the clean and faulted runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bit-exact: retries and widening must fully absorb the faults.
    Exact,
    /// Relative tolerance, for timing-scaled observables (multiplex
    /// estimates): `|a - b| <= rel * max(|a|, |b|)`, with an absolute slack
    /// of 2 counts for near-zero values.
    Rel(f64),
}

/// What a check observed: comparable values, or a spec-listed API error at
/// a point where the spec permits one (e.g. `Cnflct` on a platform that
/// cannot allocate the requested events).
#[derive(Debug)]
pub enum CheckOutcome {
    Values(Vec<i64>),
    ApiError(PapiError),
    /// The platform cannot express the check (e.g. too few events resolve).
    /// Clean and faulted runs must agree on skipping — a fault schedule
    /// must never change what a platform supports.
    Skipped(&'static str),
}

/// `Ok(outcome)` or an *invariant violation* — the check itself detected
/// nonconforming behaviour (counts went backwards, stop disagreed with the
/// final read, an expected error did not materialize).
pub type CheckResult = Result<CheckOutcome, String>;

/// One table-driven conformance check.
pub struct Check {
    /// Stable name, reported on failure.
    pub name: &'static str,
    /// SPEC.md section the check enforces.
    pub spec: &'static str,
    /// Cross-run comparison policy.
    pub tolerance: Tolerance,
    /// Build the monitored workload (fresh per run).
    pub workload: fn() -> Program,
    /// Drive a session and return observables.
    pub run: fn(&mut Papi<BoxSubstrate>) -> CheckResult,
}

/// One conformance failure: which check, where, and why.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub check: &'static str,
    pub substrate: String,
    /// Fault-schedule prefix, or `"clean"` for a fault-free invariant
    /// violation.
    pub schedule: String,
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "check '{}' on {} [{}]: {}",
            self.check, self.substrate, self.schedule, self.detail
        )
    }
}

// --- workloads -------------------------------------------------------------

fn fp_workload() -> Program {
    papi_workloads::dense_fp(5_000, 2, 1).program
}

fn mpx_workload() -> Program {
    papi_workloads::dense_fp(100_000, 3, 1).program
}

/// Map a `PapiError` to its SPEC §8 C return code (the conformance suite's
/// own table, deliberately independent of `papi-capi`).
pub fn spec_error_code(e: &PapiError) -> i64 {
    match e {
        PapiError::Inval(_) => -1,
        PapiError::Substrate(_) => -4,
        PapiError::NoEvnt(_) => -7,
        PapiError::Cnflct => -8,
        PapiError::NotRun => -9,
        PapiError::IsRun => -10,
        PapiError::NoEvst(_) => -11,
        PapiError::NotPreset(_) => -12,
        PapiError::NoCntr => -13,
        PapiError::SubstrateTransient(_) => -14,
        PapiError::NoSupp(_) => -19,
    }
}

/// First preset from `candidates` this platform resolves.
fn pick_event(papi: &Papi<BoxSubstrate>, candidates: &[Preset]) -> Option<u32> {
    candidates
        .iter()
        .map(|p| p.code())
        .find(|&c| papi.query_event(c))
}

/// First preset from `candidates` that resolves to a *single* native event
/// with coefficient 1. Overflow thresholds apply to the native counter the
/// event is armed on, so the exactly-once invariant (`fires ==
/// counts/threshold`) only holds when the preset value IS that counter's
/// value — a derived multi-term preset would fire on the native count, not
/// the derived one.
fn pick_direct_event(papi: &Papi<BoxSubstrate>, candidates: &[Preset]) -> Option<u32> {
    candidates.iter().map(|p| p.code()).find(|&c| {
        papi.preset_table()
            .resolve(c, papi.native_events())
            .map(|m| m.terms.len() == 1 && m.terms[0].1 == 1)
            .unwrap_or(false)
    })
}

// --- the checks ------------------------------------------------------------

/// SPEC §3: counts are monotone across reads while running, and `stop`
/// agrees with a final read taken after the application halted. Only the
/// final totals are compared across runs (mid-run readings are
/// timing-dependent).
fn check_read_monotone(papi: &mut Papi<BoxSubstrate>) -> CheckResult {
    let set = papi.create_eventset();
    let mut codes = Vec::new();
    for cand in [&[Preset::TotIns][..], &[Preset::FpOps, Preset::FmaIns][..]] {
        if let Some(c) = pick_event(papi, cand) {
            codes.push(c);
        }
    }
    if codes.is_empty() {
        return Err("no candidate preset resolves on this platform".into());
    }
    for &c in &codes {
        papi.add_event(set, c)
            .map_err(|e| format!("add_event: {e}"))?;
    }
    match papi.start(set) {
        Ok(()) => {}
        Err(e @ PapiError::Cnflct) | Err(e @ PapiError::NoCntr) => {
            return Ok(CheckOutcome::ApiError(e))
        }
        Err(e) => return Err(format!("start: {e}")),
    }
    papi.run_for(5_000).map_err(|e| format!("run_for: {e}"))?;
    let r1 = papi.read(set).map_err(|e| format!("read 1: {e}"))?;
    papi.run_app().map_err(|e| format!("run_app: {e}"))?;
    let r2 = papi.read(set).map_err(|e| format!("read 2: {e}"))?;
    for (a, b) in r1.iter().zip(&r2) {
        if b < a {
            return Err(format!("counts went backwards: read1 {a} then read2 {b}"));
        }
        if *a < 0 || *b < 0 {
            return Err(format!("negative count: read1 {a}, read2 {b}"));
        }
    }
    let v = papi.stop(set).map_err(|e| format!("stop: {e}"))?;
    if v != r2 {
        return Err(format!(
            "stop {v:?} disagrees with final read {r2:?} (no work ran between them)"
        ));
    }
    Ok(CheckOutcome::Values(v))
}

/// SPEC §3: `accum` chunks telescope — accumulated totals over arbitrary
/// chunk boundaries equal the single-run totals, regardless of where the
/// chunks fall.
fn check_accum_chunks(papi: &mut Papi<BoxSubstrate>) -> CheckResult {
    let set = papi.create_eventset();
    let Some(code) = pick_event(papi, &[Preset::TotIns, Preset::FpOps]) else {
        return Err("no candidate preset resolves on this platform".into());
    };
    papi.add_event(set, code)
        .map_err(|e| format!("add_event: {e}"))?;
    papi.start(set).map_err(|e| format!("start: {e}"))?;
    let mut totals = vec![0i64];
    loop {
        let exit = papi.run_for(4_000).map_err(|e| format!("run_for: {e}"))?;
        papi.accum(set, &mut totals)
            .map_err(|e| format!("accum: {e}"))?;
        if matches!(exit, papi_core::AppExit::Halted) {
            break;
        }
    }
    let tail = papi.stop(set).map_err(|e| format!("stop: {e}"))?;
    totals[0] += tail[0];
    if totals[0] < 0 {
        return Err(format!("negative accumulated total {}", totals[0]));
    }
    Ok(CheckOutcome::Values(totals))
}

/// SPEC §3 (overflow): the handler fires exactly once per threshold
/// crossing — delivery may be delayed, never dropped or duplicated.
fn check_overflow_exactly_once(papi: &mut Papi<BoxSubstrate>) -> CheckResult {
    let set = papi.create_eventset();
    let Some(code) = pick_direct_event(papi, &[Preset::FmaIns, Preset::TotIns, Preset::TotCyc])
    else {
        return Ok(CheckOutcome::Skipped(
            "no single-term preset resolves on this platform",
        ));
    };
    papi.add_event(set, code)
        .map_err(|e| format!("add_event: {e}"))?;
    let fires = Arc::new(AtomicU64::new(0));
    let f2 = Arc::clone(&fires);
    const THRESHOLD: u64 = 500;
    if let Err(e) = papi.overflow(
        set,
        code,
        THRESHOLD,
        Box::new(move |_| {
            f2.fetch_add(1, Ordering::Relaxed);
        }),
    ) {
        // Spec-listed refusal (e.g. multiplexed set, missing support) is a
        // legitimate outcome as long as both runs refuse identically.
        return Ok(CheckOutcome::ApiError(e));
    }
    match papi.start(set) {
        Ok(()) => {}
        Err(e @ PapiError::Cnflct) | Err(e @ PapiError::NoCntr) => {
            return Ok(CheckOutcome::ApiError(e))
        }
        Err(e) => return Err(format!("start: {e}")),
    }
    papi.run_app().map_err(|e| format!("run_app: {e}"))?;
    let v = papi.stop(set).map_err(|e| format!("stop: {e}"))?;
    let n = fires.load(Ordering::Relaxed) as i64;
    let expected = v[0] / THRESHOLD as i64;
    if (n - expected).abs() > 2 {
        return Err(format!(
            "{n} overflow deliveries for {} counts at threshold {THRESHOLD} (expected ~{expected})",
            v[0]
        ));
    }
    if v[0] > 2 * THRESHOLD as i64 && n == 0 {
        return Err("counter crossed the threshold but the handler never fired".into());
    }
    Ok(CheckOutcome::Values(vec![n, v[0]]))
}

/// SPEC §3 (multiplexing): estimates from a time-sliced set track the true
/// counts; compared under tolerance because estimation is timing-scaled.
fn check_mpx_estimates(papi: &mut Papi<BoxSubstrate>) -> CheckResult {
    let set = papi.create_eventset();
    let mut added = 0;
    for p in [
        Preset::FmaIns,
        Preset::FpOps,
        Preset::FdvIns,
        Preset::LdIns,
        Preset::TotIns,
        Preset::IntIns,
    ] {
        if added < 4 && papi.query_event(p.code()) && papi.add_event(set, p.code()).is_ok() {
            added += 1;
        }
    }
    if added < 2 {
        return Ok(CheckOutcome::Skipped(
            "fewer than two presets resolve on this platform",
        ));
    }
    if let Err(e) = papi.set_multiplex(set) {
        return Ok(CheckOutcome::ApiError(e));
    }
    papi.set_multiplex_period(set, 10_000)
        .map_err(|e| format!("set_multiplex_period: {e}"))?;
    match papi.start(set) {
        Ok(()) => {}
        Err(e @ PapiError::Cnflct) | Err(e @ PapiError::NoCntr) => {
            return Ok(CheckOutcome::ApiError(e))
        }
        Err(e) => return Err(format!("start: {e}")),
    }
    papi.run_app().map_err(|e| format!("run_app: {e}"))?;
    let v = papi.stop(set).map_err(|e| format!("stop: {e}"))?;
    if v.iter().any(|&x| x < 0) {
        return Err(format!("negative multiplex estimate: {v:?}"));
    }
    Ok(CheckOutcome::Values(v))
}

/// SPEC §8: operations fail with the spec-listed error codes, identically
/// on every substrate and under every fault schedule.
fn check_error_model(papi: &mut Papi<BoxSubstrate>) -> CheckResult {
    let set = papi.create_eventset();
    let Some(code) = pick_event(papi, &[Preset::TotIns, Preset::FpOps]) else {
        return Err("no candidate preset resolves on this platform".into());
    };
    papi.add_event(set, code)
        .map_err(|e| format!("add_event: {e}"))?;
    let mut codes = Vec::new();
    let mut expect = |r: Result<(), PapiError>, what: &str| -> Result<(), String> {
        match r {
            Err(e) => {
                codes.push(spec_error_code(&e));
                Ok(())
            }
            Ok(()) => Err(format!("{what} unexpectedly succeeded")),
        }
    };
    expect(papi.read(set).map(|_| ()), "read before start")?;
    papi.start(set).map_err(|e| format!("start: {e}"))?;
    expect(papi.start(set), "second start")?;
    expect(
        papi.add_event(set, Preset::TotCyc.code()),
        "add to running set",
    )?;
    // A buffer one longer than the one-event set. While the set runs that
    // is `Inval`, which ranks above substrate errors, so it is raised
    // before any kernel crossing and the virtual clock stays put (codes
    // alone cannot show the order: retries absorb every scheduled read
    // fault). Once the set has stopped, `NotRun` is checked first.
    let mut long = [0i64; 2];
    let before = papi.get_real_cyc();
    expect(
        papi.read_into(set, &mut long),
        "read_into a too-long buffer",
    )?;
    expect(papi.accum(set, &mut long), "accum into a too-long buffer")?;
    if papi.get_real_cyc() != before {
        return Err("a call rejected for its buffer length crossed into the kernel".into());
    }
    papi.run_app().map_err(|e| format!("run_app: {e}"))?;
    papi.stop(set).map_err(|e| format!("stop: {e}"))?;
    expect(papi.stop(set).map(|_| ()), "second stop")?;
    expect(
        papi.read_into(set, &mut long),
        "read_into a stopped set's too-long buffer",
    )?;
    expect(papi.add_event(set, 0x7777), "add bogus event code")?;
    expect(papi.read(9999).map(|_| ()), "read unknown set")?;
    let want = [-9, -10, -10, -1, -1, -9, -9, -7, -9];
    if codes != want {
        return Err(format!("error codes {codes:?}, spec says {want:?}"));
    }
    Ok(CheckOutcome::Values(codes))
}

/// SPEC §5: the cycle and microsecond clocks are monotone non-decreasing
/// and advance across a run. Clock readings are timing-dependent, so the
/// cross-run comparison carries no values.
fn check_timers_monotone(papi: &mut Papi<BoxSubstrate>) -> CheckResult {
    let c0 = papi.get_real_cyc();
    let u0 = papi.get_real_usec();
    papi.run_app().map_err(|e| format!("run_app: {e}"))?;
    let c1 = papi.get_real_cyc();
    let u1 = papi.get_real_usec();
    if c1 < c0 || u1 < u0 {
        return Err(format!(
            "clocks went backwards: cyc {c0}->{c1}, usec {u0}->{u1}"
        ));
    }
    if c1 == c0 {
        return Err("cycle clock did not advance across a run".into());
    }
    Ok(CheckOutcome::Values(Vec::new()))
}

/// The conformance table: every check, with its SPEC reference and
/// comparison policy.
pub fn checks() -> Vec<Check> {
    vec![
        Check {
            name: "read-monotone-stop-consistent",
            spec: "SPEC §3 (start/read/stop)",
            tolerance: Tolerance::Exact,
            workload: fp_workload,
            run: check_read_monotone,
        },
        Check {
            name: "accum-chunks-telescope",
            spec: "SPEC §3 (accum)",
            tolerance: Tolerance::Exact,
            workload: fp_workload,
            run: check_accum_chunks,
        },
        Check {
            name: "overflow-exactly-once",
            spec: "SPEC §3 (overflow)",
            tolerance: Tolerance::Exact,
            workload: fp_workload,
            run: check_overflow_exactly_once,
        },
        Check {
            name: "mpx-estimates-track-counts",
            spec: "SPEC §3 (multiplexing)",
            tolerance: Tolerance::Rel(0.25),
            workload: mpx_workload,
            run: check_mpx_estimates,
        },
        Check {
            name: "error-model-codes",
            spec: "SPEC §8 (error model)",
            tolerance: Tolerance::Exact,
            workload: fp_workload,
            run: check_error_model,
        },
        Check {
            name: "timers-monotone",
            spec: "SPEC §5 (timers)",
            tolerance: Tolerance::Exact,
            workload: fp_workload,
            run: check_timers_monotone,
        },
    ]
}

/// The fault-schedule prefixes the matrix crosses every substrate with.
/// Each is prepended to the substrate name (`<prefix><substrate>`); the
/// per-run seed flows into the plan as its default seed, so the same
/// prefix yields different failure phases per seed.
pub fn fault_schedules() -> Vec<&'static str> {
    vec![
        // Everything at once, derived from the seed.
        "fault[chaos]:",
        // Wrap-only: 32-bit counters preloaded near saturation.
        "fault[bits=32,preload=4294963296]:",
        // Transients-only: periodic read/start/stop failures in bursts.
        "fault[read=3,start=2,stop=2,burst=2]:",
    ]
}

// --- the harness -----------------------------------------------------------

/// Run one check on one named substrate: fresh session, workload loaded.
pub fn run_one(
    reg: &SubstrateRegistry,
    substrate: &str,
    seed: u64,
    check: &Check,
) -> Result<CheckResult, PapiError> {
    let mut papi = Papi::init_from_registry(reg, substrate, seed)?;
    papi.substrate_mut().load_program((check.workload)())?;
    Ok((check.run)(&mut papi))
}

fn values_match(tol: Tolerance, a: &[i64], b: &[i64]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    match tol {
        Tolerance::Exact => a == b,
        Tolerance::Rel(rel) => a.iter().zip(b).all(|(&x, &y)| {
            let diff = (x - y).abs() as f64;
            diff <= 2.0 + rel * (x.abs().max(y.abs()) as f64)
        }),
    }
}

/// Differentially compare a check's clean outcome against its outcome
/// under one fault schedule. `None` means conforming.
pub fn differential(
    check: &Check,
    substrate: &str,
    schedule: &str,
    clean: &CheckResult,
    faulted: &CheckResult,
) -> Option<Divergence> {
    let diverge = |detail: String| {
        Some(Divergence {
            check: check.name,
            substrate: substrate.to_string(),
            schedule: schedule.to_string(),
            detail,
        })
    };
    match (clean, faulted) {
        (Err(v), _) => diverge(format!("clean-run invariant violation: {v}")),
        (_, Err(v)) => diverge(format!("faulted-run invariant violation: {v}")),
        (Ok(CheckOutcome::Values(a)), Ok(CheckOutcome::Values(b))) => {
            if values_match(check.tolerance, a, b) {
                None
            } else {
                diverge(format!("counts diverged: clean {a:?} vs faulted {b:?}"))
            }
        }
        (Ok(CheckOutcome::ApiError(a)), Ok(CheckOutcome::ApiError(b))) => {
            if std::mem::discriminant(a) == std::mem::discriminant(b) {
                None
            } else {
                diverge(format!("error diverged: clean {a} vs faulted {b}"))
            }
        }
        (Ok(CheckOutcome::Skipped(_)), Ok(CheckOutcome::Skipped(_))) => None,
        (Ok(a), Ok(b)) => diverge(format!(
            "outcome kind diverged: clean {a:?} vs faulted {b:?}"
        )),
    }
}

/// Run the full matrix: every check × every canonical substrate × every
/// fault schedule, at each seed. Returns all divergences (empty =
/// conforming).
pub fn run_matrix(reg: &SubstrateRegistry, seeds: &[u64]) -> Vec<Divergence> {
    checks()
        .iter()
        .flat_map(|check| run_check(reg, check, seeds))
        .collect()
}

/// One row of the matrix: `check` on every registered substrate, clean
/// and under every fault schedule, for each of `seeds`.
pub fn run_check(reg: &SubstrateRegistry, check: &Check, seeds: &[u64]) -> Vec<Divergence> {
    let mut out = Vec::new();
    let names: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
    for name in &names {
        for &seed in seeds {
            let clean = match run_one(reg, name, seed, check) {
                Ok(r) => r,
                Err(e) => {
                    out.push(Divergence {
                        check: check.name,
                        substrate: name.clone(),
                        schedule: "clean".into(),
                        detail: format!("session init failed: {e}"),
                    });
                    continue;
                }
            };
            for schedule in fault_schedules() {
                let faulted_name = format!("{schedule}{name}");
                let faulted = match run_one(reg, &faulted_name, seed, check) {
                    Ok(r) => r,
                    Err(e) => {
                        out.push(Divergence {
                            check: check.name,
                            substrate: name.clone(),
                            schedule: schedule.to_string(),
                            detail: format!("faulted session init failed: {e}"),
                        });
                        continue;
                    }
                };
                if let Some(d) = differential(check, name, schedule, &clean, &faulted) {
                    out.push(d);
                }
            }
        }
    }
    out
}

/// Run every check clean-only on one substrate, reporting invariant
/// violations (used to prove a broken substrate is caught by name).
pub fn run_clean_invariants(
    reg: &SubstrateRegistry,
    substrate: &str,
    seed: u64,
) -> Vec<Divergence> {
    let mut out = Vec::new();
    for check in checks() {
        match run_one(reg, substrate, seed, &check) {
            Ok(Err(v)) => out.push(Divergence {
                check: check.name,
                substrate: substrate.to_string(),
                schedule: "clean".into(),
                detail: v,
            }),
            Ok(Ok(_)) => {}
            Err(e) => out.push(Divergence {
                check: check.name,
                substrate: substrate.to_string(),
                schedule: "clean".into(),
                detail: format!("session init failed: {e}"),
            }),
        }
    }
    out
}

// --- the deliberately broken fixture ---------------------------------------

/// A nonconforming substrate: every second batch read glitches a huge
/// additive offset onto the values, so counts appear to leap forward and
/// then fall back — exactly the kind of silent corruption the differential
/// suite exists to catch.
pub struct BrokenSubstrate<S> {
    inner: S,
    reads: u64,
}

impl<S: Substrate> BrokenSubstrate<S> {
    pub fn new(inner: S) -> Self {
        BrokenSubstrate { inner, reads: 0 }
    }

    fn glitch(&self) -> u64 {
        // Offset on odd calls only: consecutive reads are non-monotone.
        if self.reads % 2 == 1 {
            1 << 40
        } else {
            0
        }
    }
}

impl<S: Substrate> Substrate for BrokenSubstrate<S> {
    fn hw_info(&self) -> papi_core::HwInfo {
        self.inner.hw_info()
    }
    fn num_counters(&self) -> usize {
        self.inner.num_counters()
    }
    fn native_events(&self) -> &[simcpu::NativeEventDesc] {
        self.inner.native_events()
    }
    fn groups(&self) -> &[simcpu::platform::GroupDef] {
        self.inner.groups()
    }
    fn load_program(&mut self, program: Program) -> papi_core::Result<()> {
        self.inner.load_program(program)
    }
    fn program(&mut self, assign: &[Option<(u32, simcpu::Domain)>]) -> papi_core::Result<()> {
        self.inner.program(assign)
    }
    fn start(&mut self) -> papi_core::Result<()> {
        self.inner.start()
    }
    fn stop(&mut self) -> papi_core::Result<()> {
        self.inner.stop()
    }
    fn reset(&mut self) -> papi_core::Result<()> {
        self.inner.reset()
    }
    fn read_batch(&mut self, ctrs: &[usize], out: &mut Vec<u64>) -> papi_core::Result<()> {
        self.reads += 1;
        let g = self.glitch();
        let base = out.len();
        self.inner.read_batch(ctrs, out)?;
        for v in &mut out[base..] {
            *v += g;
        }
        Ok(())
    }
    fn set_overflow(&mut self, idx: usize, threshold: Option<u64>) -> papi_core::Result<()> {
        self.inner.set_overflow(idx, threshold)
    }
    fn configure_sampling(&mut self, cfg: Option<simcpu::SampleConfig>) -> papi_core::Result<()> {
        self.inner.configure_sampling(cfg)
    }
    fn drain_samples(&mut self) -> Vec<simcpu::SampleRecord> {
        self.inner.drain_samples()
    }
    fn set_timer(&mut self, period_cycles: Option<u64>) {
        self.inner.set_timer(period_cycles)
    }
    fn set_granularity(&mut self, g: simcpu::Granularity) {
        self.inner.set_granularity(g)
    }
    fn run(&mut self, budget_cycles: Option<u64>) -> simcpu::RunExit {
        self.inner.run(budget_cycles)
    }
    fn real_cycles(&self) -> u64 {
        self.inner.real_cycles()
    }
    fn real_ns(&self) -> u64 {
        self.inner.real_ns()
    }
    fn virt_ns(&self, thread: simcpu::ThreadId) -> papi_core::Result<u64> {
        self.inner.virt_ns(thread)
    }
    fn mem_info(&self, thread: simcpu::ThreadId) -> papi_core::Result<simcpu::MemInfo> {
        self.inner.mem_info(thread)
    }
}

/// Register the broken fixture under `"broken"` (wrapping `sim:generic`).
pub fn register_broken(reg: &mut SubstrateRegistry) {
    reg.register(
        "broken",
        "deliberately nonconforming fixture (glitching reads)",
        Box::new(|seed| {
            Ok(
                Box::new(BrokenSubstrate::new(papi_core::SimSubstrate::for_platform(
                    simcpu::platform::sim_generic(),
                    seed,
                ))) as BoxSubstrate,
            )
        }),
    );
}
