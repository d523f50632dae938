//! Declarative benchmark-matrix configuration (`benches/matrix.toml`).
//!
//! An interpreter over the suite's TOML-subset reader ([`papi_obs::toml`]),
//! the same reader the platform-model files go through: one grammar, and
//! every rejection is a [`TomlError`] with a named check and a line number,
//! so a broken matrix file reads like a lint report instead of a panic.
//! SPEC.md §12 has the grammar and the shared checks, §14 the keys and the
//! checks only this file makes; the shape is
//!
//! ```toml
//! schema = 1
//! [matrix]            # run-wide knobs (seed, warmup, iters, reps)
//! [gate]              # regression-gate threshold
//! [axes]              # default axis values inherited by every bench
//! [[bench]]           # one benchmark; may override any axis
//! name = "read_into"
//! op = "read_into"
//! ```
//!
//! [`MatrixConfig::expand`] unrolls the benches into the full
//! `substrate × fault × threads × events × mpx` cell list in declaration
//! order, composing fault schedules into `fault[SPEC]:NAME` substrate
//! labels exactly as the registry spells them.

use papi_obs::toml::{self, TomlError, Value, View};

/// The one schema version this parser accepts.
pub const SCHEMA_VERSION: i64 = 1;

/// Presets a cell's event axis draws from, in slot order: an `events = N`
/// axis value means the first `N` of these.  All four fit every shipped
/// platform's counters at once, so `mpx = false` cells run non-multiplexed.
pub const CELL_EVENTS: [papi_core::Preset; 4] = [
    papi_core::Preset::TotCyc,
    papi_core::Preset::TotIns,
    papi_core::Preset::LdIns,
    papi_core::Preset::SrIns,
];

/// Multiplex rotation period of every mpx cell, in virtual cycles.
pub const MPX_PERIOD: u64 = 5000;

/// The measured operation of a benchmark cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `read_into` — caller buffer, the zero-allocation steady-state path.
    ReadInto,
    /// `read` — allocating return vector (the allocation cost is the point).
    Read,
    /// `accum` — read-and-add into a caller accumulator, zero-allocation.
    Accum,
}

impl Op {
    /// Parse the `op = "..."` spelling.
    pub fn parse(s: &str) -> Option<Op> {
        match s {
            "read_into" => Some(Op::ReadInto),
            "read" => Some(Op::Read),
            "accum" => Some(Op::Accum),
            _ => None,
        }
    }

    /// The config-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            Op::ReadInto => "read_into",
            Op::Read => "read",
            Op::Accum => "accum",
        }
    }

    /// Whether the zero-allocation steady-state guarantee applies to this
    /// operation (`read` intentionally allocates its return vector).
    pub fn zero_alloc(self) -> bool {
        !matches!(self, Op::Read)
    }
}

/// How a cell's substrate label dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch<'a> {
    /// Monomorphized `Papi<SimSubstrate>` (label suffix `/static`).
    Static,
    /// Registry-created `Papi<BoxSubstrate>`; carries the registry name
    /// (the label minus any `/boxed` suffix).
    Registry(&'a str),
}

/// Resolve a substrate label's dispatch flavor.  `NAME/static` is the
/// monomorphized session, `NAME/boxed` and bare `NAME` both go through the
/// registry (`/boxed` is the legacy trajectory-file spelling).
pub fn dispatch_of(label: &str) -> Dispatch<'_> {
    if label.ends_with("/static") {
        Dispatch::Static
    } else if let Some(base) = label.strip_suffix("/boxed") {
        Dispatch::Registry(base)
    } else {
        Dispatch::Registry(label)
    }
}

/// Compose a fault schedule into a substrate label the way the registry
/// spells decorated names (`fault[SPEC]:NAME`), keeping any `/boxed`
/// dispatch suffix outside the decoration.
pub fn compose_fault(substrate: &str, fault: &str) -> String {
    if fault == "none" {
        substrate.to_string()
    } else if let Some(base) = substrate.strip_suffix("/boxed") {
        format!("fault[{fault}]:{base}/boxed")
    } else {
        format!("fault[{fault}]:{substrate}")
    }
}

/// One fully resolved benchmark cell: every knob the runner needs, no
/// config context required.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Benchmark name (the `(bench, substrate)` record key's first half).
    pub bench: String,
    /// Measured operation.
    pub op: Op,
    /// Effective substrate label, fault-composed (`fault[chaos]:sim:x86`),
    /// possibly dispatch-suffixed (`sim:x86/static`).
    pub substrate: String,
    /// Worker threads hammering the op concurrently (barrier-started).
    pub threads: usize,
    /// Events in the set (first N of [`CELL_EVENTS`]).
    pub events: usize,
    /// Whether the set runs multiplexed.
    pub mpx: bool,
    /// Base RNG seed for the cell (thread t gets `seed + t·stride`).
    pub seed: u64,
    /// Warmup ops per thread before the barrier.
    pub warmup: u64,
    /// Measured ops per repetition per thread.
    pub iters: u64,
    /// Repetitions; wall ns/op reports the minimum (best-of) repetition.
    pub reps: u32,
    /// Regression-gate threshold: a cell fails the baseline diff when
    /// `current_vcyc / baseline_vcyc > gate_ratio`.
    pub gate_ratio: f64,
}

impl CellSpec {
    /// Canonical cell coordinate, also the baseline-diff identity:
    /// `bench/substrate/Nt/Mev/{dir|mpx}`.
    pub fn coord(&self) -> String {
        format!(
            "{}/{}/{}t/{}ev/{}",
            self.bench,
            self.substrate,
            self.threads,
            self.events,
            if self.mpx { "mpx" } else { "dir" }
        )
    }

    /// The configuration half of the coordinate (everything but bench and
    /// substrate) — the axis PP efficiencies are folded over.
    pub fn config_key(&self) -> String {
        format!(
            "{}t/{}ev/{}",
            self.threads,
            self.events,
            if self.mpx { "mpx" } else { "dir" }
        )
    }
}

/// One benchmark definition with all axes resolved (bench overrides
/// applied over the `[axes]` defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDef {
    pub name: String,
    pub op: Op,
    pub substrates: Vec<String>,
    pub threads: Vec<usize>,
    pub events: Vec<usize>,
    pub mpx: Vec<bool>,
    pub faults: Vec<String>,
}

/// A parsed, validated matrix configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixConfig {
    pub seed: u64,
    pub warmup: u64,
    pub iters: u64,
    pub reps: u32,
    pub gate_ratio: f64,
    pub benches: Vec<BenchDef>,
}

impl MatrixConfig {
    /// Parse a matrix file.  Every failure names a check and a line.
    pub fn parse(text: &str) -> Result<MatrixConfig, TomlError> {
        let doc = toml::parse(text)?;
        doc.check_sections(&["matrix", "gate", "axes"], &["bench"])?;
        doc.check_schema(SCHEMA_VERSION)?;
        let section = |name, allowed| {
            doc.single(name)
                .map_or(Ok(Keys::default()), |v| Keys::read(&v, allowed))
        };
        let run = section("matrix", &["seed", "warmup", "iters", "reps"])?;
        let gate = section("gate", &["max_ratio"])?;
        let axes = section("axes", &AXES)?;
        let d_subs = axes
            .substrates
            .unwrap_or_else(|| vec!["sim:x86".to_string()]);
        let d_threads = axes.threads.unwrap_or_else(|| vec![1]);
        let d_events = axes.events.unwrap_or_else(|| vec![4]);
        let d_mpx = axes.mpx.unwrap_or_else(|| vec![false]);
        let d_faults = axes.faults.unwrap_or_else(|| vec!["none".to_string()]);

        let mut benches: Vec<BenchDef> = Vec::new();
        for v in doc.array("bench") {
            let k = Keys::read(&v, &BENCH_KEYS)?;
            let name = v.str("name")?;
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(v.err("name", "bench-name", format!("bad bench name `{name}`")));
            }
            if benches.iter().any(|b| b.name == name) {
                return Err(TomlError::new(
                    v.line,
                    "bench-name",
                    format!("duplicate bench `{name}`"),
                ));
            }
            let op = v.str("op")?;
            let op = Op::parse(op).ok_or_else(|| {
                v.err(
                    "op",
                    "op",
                    format!("unknown op `{op}` (read_into | read | accum)"),
                )
            })?;
            let substrates = k.substrates.unwrap_or_else(|| d_subs.clone());
            let faults = k.faults.unwrap_or_else(|| d_faults.clone());
            if faults.iter().any(|f| f != "none")
                && substrates.iter().any(|s| s.ends_with("/static"))
            {
                return Err(TomlError::new(
                    v.line,
                    "fault",
                    format!("bench `{name}`: fault schedules cannot decorate /static substrates"),
                ));
            }
            benches.push(BenchDef {
                name: name.to_string(),
                op,
                substrates,
                threads: k.threads.unwrap_or_else(|| d_threads.clone()),
                events: k.events.unwrap_or_else(|| d_events.clone()),
                mpx: k.mpx.unwrap_or_else(|| d_mpx.clone()),
                faults,
            });
        }
        if benches.is_empty() {
            return Err(TomlError::new(0, "no-benches", "no [[bench]] sections"));
        }
        Ok(MatrixConfig {
            seed: run.seed.unwrap_or(42),
            warmup: run.warmup.unwrap_or(64),
            iters: run.iters.unwrap_or(2048),
            reps: run.reps.unwrap_or(1),
            gate_ratio: gate.max_ratio.unwrap_or(1.5),
            benches,
        })
    }

    /// Unroll the benches into the full cell list, in declaration order:
    /// bench-major, then substrate, fault, threads, events, mpx.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for b in &self.benches {
            for sub in &b.substrates {
                for fault in &b.faults {
                    for &threads in &b.threads {
                        for &events in &b.events {
                            for &mpx in &b.mpx {
                                cells.push(CellSpec {
                                    bench: b.name.clone(),
                                    op: b.op,
                                    substrate: compose_fault(sub, fault),
                                    threads,
                                    events,
                                    mpx,
                                    seed: self.seed,
                                    warmup: self.warmup,
                                    iters: self.iters,
                                    reps: self.reps,
                                    gate_ratio: self.gate_ratio,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

// ---------------------------------------------------------------------------
// Section keys
// ---------------------------------------------------------------------------

/// The axis keys `[axes]` sets for every bench and `[[bench]]` overrides.
const AXES: [&str; 5] = ["substrates", "threads", "events", "mpx", "faults"];

/// Every key a `[[bench]]` may set.
const BENCH_KEYS: [&str; 7] = [
    "name",
    "op",
    "substrates",
    "threads",
    "events",
    "mpx",
    "faults",
];

/// The optional keys of `[matrix]`, `[gate]`, `[axes]` and `[[bench]]`,
/// each read by one rule wherever it appears.
#[derive(Default)]
struct Keys {
    seed: Option<u64>,
    warmup: Option<u64>,
    iters: Option<u64>,
    reps: Option<u32>,
    max_ratio: Option<f64>,
    substrates: Option<Vec<String>>,
    threads: Option<Vec<usize>>,
    events: Option<Vec<usize>>,
    mpx: Option<Vec<bool>>,
    faults: Option<Vec<String>>,
}

impl Keys {
    /// Read a section that may set the keys in `allowed`.
    fn read(v: &View, allowed: &[&str]) -> Result<Keys, TomlError> {
        v.check_keys(allowed)?;
        Ok(Keys {
            seed: v.opt("seed", View::u64)?,
            warmup: v.opt("warmup", View::u64)?,
            iters: v.opt("iters", positive)?,
            reps: v
                .opt("reps", |v, k| v.ranged(k, 1, 1000))?
                .map(|r| r as u32),
            max_ratio: v.opt("max_ratio", ratio)?,
            substrates: v.opt("substrates", substrates)?,
            threads: v.opt("threads", |v, k| counts(v, k, 64))?,
            events: v.opt("events", |v, k| counts(v, k, CELL_EVENTS.len()))?,
            mpx: v.opt("mpx", |v, k| {
                axis(v, k, "an array of booleans", Value::as_bool)
            })?,
            faults: v.opt("faults", faults)?,
        })
    }
}

fn positive(v: &View, key: &str) -> Result<u64, TomlError> {
    Ok(v.ranged(key, 1, i64::MAX)? as u64)
}

fn ratio(v: &View, key: &str) -> Result<f64, TomlError> {
    let f = v.float(key)?;
    if f <= 1.0 {
        return Err(v.err(
            key,
            "bad-value",
            format!("{}.{key} must be a ratio > 1.0 (got {f})", v.what),
        ));
    }
    Ok(f)
}

/// A non-empty axis (`axis-empty` otherwise) of items `item` accepts.
fn axis<'a, T>(
    v: &View<'a>,
    key: &str,
    want: &str,
    item: impl Fn(&'a Value) -> Option<T>,
) -> Result<Vec<T>, TomlError> {
    let items = v.array_of(key, want, item)?;
    if items.is_empty() {
        return Err(v.err(key, "axis-empty", format!("{}.{key} axis is empty", v.what)));
    }
    Ok(items)
}

fn counts(v: &View, key: &str, max: usize) -> Result<Vec<usize>, TomlError> {
    axis(v, key, "an array of integers", Value::as_int)?
        .into_iter()
        .map(|n| match usize::try_from(n) {
            Ok(n) if (1..=max).contains(&n) => Ok(n),
            _ => Err(v.err(
                key,
                "int-range",
                format!("{}.{key} = {n} out of range 1..={max}", v.what),
            )),
        })
        .collect()
}

fn strings(v: &View, key: &str) -> Result<Vec<String>, TomlError> {
    let items = axis(v, key, "an array of strings", Value::as_str)?;
    Ok(items.into_iter().map(str::to_string).collect())
}

fn substrates(v: &View, key: &str) -> Result<Vec<String>, TomlError> {
    let subs = strings(v, key)?;
    for s in &subs {
        if s.is_empty() {
            return Err(v.err(key, "substrate", "empty substrate name"));
        }
        if s.ends_with("/static") && s != "sim:x86/static" {
            return Err(v.err(
                key,
                "substrate",
                format!("`{s}`: only sim:x86/static has a monomorphized session"),
            ));
        }
    }
    Ok(subs)
}

fn faults(v: &View, key: &str) -> Result<Vec<String>, TomlError> {
    let faults = strings(v, key)?;
    for f in &faults {
        if f.is_empty() {
            return Err(v.err(key, "fault", "empty fault schedule name"));
        }
        if !f
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '=' || c == ',')
        {
            return Err(v.err(key, "fault", format!("`{f}`: bad fault schedule spelling")));
        }
    }
    Ok(faults)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "schema = 1\n[[bench]]\nname = \"read\"\nop = \"read\"\n";

    #[test]
    fn minimal_config_parses_with_defaults() {
        let cfg = MatrixConfig::parse(MINIMAL).unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.gate_ratio, 1.5);
        assert_eq!(cfg.benches.len(), 1);
        let cells = cfg.expand();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].coord(), "read/sim:x86/1t/4ev/dir");
    }

    #[test]
    fn expansion_is_bench_major_and_complete() {
        let cfg = MatrixConfig::parse(
            "schema = 1\n\
             [axes]\n\
             substrates = [\"sim:x86\", \"sim:generic\"]\n\
             threads = [1, 4]\n\
             events = [1, 4]\n\
             mpx = [false, true]\n\
             faults = [\"none\", \"chaos\"]\n\
             [[bench]]\nname = \"a\"\nop = \"read_into\"\n\
             [[bench]]\nname = \"b\"\nop = \"accum\"\nthreads = [2]\n",
        )
        .unwrap();
        let cells = cfg.expand();
        // bench a: full axes (2^5); bench b: threads overridden to one value.
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 2 + 2 * 2 * 2 * 2);
        assert!(cells[0].coord().starts_with("a/sim:x86/"));
        assert!(cells
            .iter()
            .any(|c| c.substrate == "fault[chaos]:sim:generic"));
        assert!(cells
            .iter()
            .filter(|c| c.bench == "b")
            .all(|c| c.threads == 2));
    }

    #[test]
    fn errors_name_check_and_line() {
        for (text, check, line) in [
            ("schema = 2\n", "schema-version", 1),
            (
                "[[bench]]\nname = \"a\"\nop = \"read\"\n",
                "schema-version",
                0,
            ),
            ("schema = 1\n", "no-benches", 0),
            ("schema = 1\n[nope]\n", "unknown-section", 2),
            ("schema = 1\n[matrix]\nbogus = 1\n", "unknown-key", 3),
            (
                "schema = 1\n[matrix]\nmpx_period = 5000\n",
                "unknown-key",
                3,
            ),
            (
                "schema = 1\n[[bench]]\nname = \"a\"\nop = \"read\"\niters = 8\n",
                "unknown-key",
                5,
            ),
            (
                "schema = 1\n[[bench]]\nname = \"a\"\nop = \"read\"\nwarmup = 8\n",
                "unknown-key",
                5,
            ),
            (
                "schema = 1\n[[bench]]\nname = \"a\"\nop = \"read\"\nreps = 2\n",
                "unknown-key",
                5,
            ),
            (
                "schema = 1\n[[bench]]\nname = \"a\"\nop = \"read\"\nmax_ratio = 2.0\n",
                "unknown-key",
                5,
            ),
            ("schema = 1\n[matrix]\niters = 0\n", "int-range", 3),
            ("schema = 1\n[matrix]\niters = \"many\"\n", "bad-value", 3),
            ("schema = 1\n[gate]\nmax_ratio = 1.0\n", "bad-value", 3),
            ("schema = 1\n[axes]\nthreads = []\n", "axis-empty", 3),
            ("schema = 1\n[axes]\nthreads = [0]\n", "int-range", 3),
            ("schema = 1\n[[bench]]\nop = \"read\"\n", "missing-key", 2),
            ("schema = 1\n[[bench]]\nname = \"a\"\n", "missing-key", 2),
            (
                "schema = 1\n[[bench]]\nname = \"a\"\nop = \"frob\"\n",
                "op",
                4,
            ),
            (
                "schema = 1\n[[bench]]\nname = \"a\"\nname = \"b\"\n",
                "duplicate-key",
                4,
            ),
            ("schema = 1\nwat\n", "syntax", 2),
            (
                "schema = 1\n[axes]\nsubstrates = [\"sim:ultra/static\"]\n",
                "substrate",
                3,
            ),
            (
                "schema = 1\n[[bench]]\nname = \"a\"\nop = \"read\"\n\
                 substrates = [\"sim:x86/static\"]\nfaults = [\"chaos\"]\n",
                "fault",
                2,
            ),
        ] {
            let e = MatrixConfig::parse(text).unwrap_err();
            assert_eq!(e.check, check, "for {text:?}: {e}");
            assert_eq!(e.line, line, "for {text:?}: {e}");
            assert!(e.to_string().contains(&format!("[{check}]")));
        }
    }

    #[test]
    fn comments_and_strings_interact_correctly() {
        // Trailing comments are stripped everywhere, including after values.
        let cfg = MatrixConfig::parse(
            "schema = 1 # the version\n\
             [[bench]] # a bench\n\
             name = \"ok\" # trailing comment\n\
             op = \"read\"\n",
        )
        .unwrap();
        assert_eq!(cfg.benches[0].name, "ok");

        // A `#` inside a quoted string is NOT a comment: the full string
        // reaches name validation (rejected there, by the bench-name check
        // — not mangled into an unterminated string beforehand).
        let e = MatrixConfig::parse(
            "schema = 1\n\
             [[bench]]\n\
             name = \"a#b\"\n\
             op = \"read\"\n",
        )
        .unwrap_err();
        assert_eq!(e.check, "bench-name");
        assert!(e.msg.contains("a#b"), "string survived intact: {}", e.msg);
    }

    #[test]
    fn dispatch_and_fault_composition() {
        assert_eq!(dispatch_of("sim:x86/static"), Dispatch::Static);
        assert_eq!(dispatch_of("sim:x86/boxed"), Dispatch::Registry("sim:x86"));
        assert_eq!(dispatch_of("sim:x86"), Dispatch::Registry("sim:x86"));
        assert_eq!(compose_fault("sim:x86", "none"), "sim:x86");
        assert_eq!(compose_fault("sim:x86", "chaos"), "fault[chaos]:sim:x86");
        assert_eq!(
            compose_fault("sim:x86/boxed", "chaos"),
            "fault[chaos]:sim:x86/boxed"
        );
    }
}
