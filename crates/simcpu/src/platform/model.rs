//! Platform models as *data*: a declarative text format for
//! [`PlatformSpec`], with an interpreter, a semantic validator and a
//! canonical renderer.
//!
//! The paper's portability lesson is that the hardware-dependent layer
//! should be a *substrate you swap*, not code you rewrite. This module takes
//! the next step: the substrate description itself — native-event table,
//! counter constraints and groups, derived-event formulas, counter widths,
//! pipeline/memory cost model — is a versioned text file. The eight built-in
//! platforms are such files (embedded via `include_str!`, see
//! [`super::files`]); new platforms are data drops loaded at runtime through
//! `SubstrateRegistry::register_platform_file`, with zero Rust changes.
//!
//! The format is the suite's **TOML subset**, read by [`papi_obs::toml`]
//! (lexer, values, sections, typed views). This module is the interpreter
//! on top: it names the sections and keys a platform file may hold and
//! makes the domain checks — derived-event formulas, counter placement,
//! groups, the skid window, the required cycles and instructions events.
//! A malformed file fails with a *named check and a line number*
//! ([`TomlError`]), never a panic and never a silent partial load.
//!
//! See `SPEC.md` §12 for the grammar, the check names and the
//! field-by-field semantics, and `DESIGN.md` ("Platforms as data") for the
//! load path and the bit-identical-equivalence guarantee against the
//! pre-refactor Rust constructors.

use super::{CostModel, GroupDef, MemCfg, PipelineCfg, PipelineKind, PlatformSpec, NATIVE_MASK};
use crate::cache::CacheCfg;
use crate::pmu::{EventKind, NativeEventDesc};
use papi_obs::toml::{self, TomlError, Value, View};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Format version this parser understands (the file's required top-level
/// `schema` key). Bump on incompatible grammar changes; the parser rejects
/// files with any other version so old binaries fail loudly instead of
/// misreading new files.
pub const SCHEMA_VERSION: i64 = 1;

type PResult<T> = Result<T, TomlError>;

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

/// Intern a string, returning a `&'static str`.
///
/// [`PlatformSpec`] and [`NativeEventDesc`] carry `&'static str` metadata —
/// the right type for descriptions that live as long as the platform does.
/// Data-loaded platforms get their strings from this process-lifetime pool:
/// each *unique* string is leaked exactly once, at load time, so repeated
/// loads of the same file cost no memory and the hot path never touches an
/// owned string.
pub fn intern(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap();
    if let Some(&hit) = pool.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Event-kind names
// ---------------------------------------------------------------------------

/// The formula name of a machine signal (its `Debug` variant name:
/// `Cycles`, `FpFma`, `DtlbMiss`, …).
pub fn kind_name(k: EventKind) -> String {
    format!("{k:?}")
}

/// Inverse of [`kind_name`].
pub fn kind_by_name(s: &str) -> Option<EventKind> {
    EventKind::ALL.iter().copied().find(|k| kind_name(*k) == s)
}

/// Parse a derived-event formula: `+`-joined terms of the form `Kind` or
/// `N*Kind`, e.g. `"FpAdd + FpMul + 2*FpFma + FpDiv"`. Term order is
/// preserved (the formula is data, not a set).
pub fn parse_formula(src: &str, line: usize) -> PResult<Vec<(EventKind, u32)>> {
    let mut out = Vec::new();
    for term in src.split('+') {
        let term = term.trim();
        if term.is_empty() {
            return Err(TomlError::new(
                line,
                "bad-formula",
                format!("empty term in formula '{src}'"),
            ));
        }
        let (mult, kind) = match term.split_once('*') {
            Some((m, k)) => {
                let mult: u32 = m.trim().parse().map_err(|_| {
                    TomlError::new(
                        line,
                        "bad-formula",
                        format!("bad multiplier '{}' in formula '{src}'", m.trim()),
                    )
                })?;
                (mult, k.trim())
            }
            None => (1, term),
        };
        if mult == 0 {
            return Err(TomlError::new(
                line,
                "bad-formula",
                format!("zero multiplier in formula '{src}'"),
            ));
        }
        let k = kind_by_name(kind).ok_or_else(|| {
            TomlError::new(
                line,
                "bad-formula",
                format!("unknown machine signal '{kind}' in formula '{src}'"),
            )
        })?;
        out.push((k, mult));
    }
    Ok(out)
}

/// Render a kinds vector back into formula syntax.
pub fn render_formula(kinds: &[(EventKind, u32)]) -> String {
    kinds
        .iter()
        .map(|&(k, m)| {
            if m == 1 {
                kind_name(k)
            } else {
                format!("{m}*{}", kind_name(k))
            }
        })
        .collect::<Vec<_>>()
        .join(" + ")
}

// ---------------------------------------------------------------------------
// Interpretation: sections -> PlatformSpec
// ---------------------------------------------------------------------------

/// Largest TLB a platform file may declare (the model scans it linearly).
const MAX_TLB_ENTRIES: i64 = 4096;

fn cache_cfg(v: &View) -> PResult<CacheCfg> {
    v.check_keys(&["size", "line", "assoc"])?;
    let cfg = CacheCfg {
        size: v.u32("size")?,
        line: v.u32("line")?,
        assoc: v.u32("assoc")?,
    };
    if cfg.line == 0 || cfg.assoc == 0 || cfg.size == 0 {
        return Err(TomlError::new(
            v.line,
            "int-range",
            format!("{}: size, line and assoc must all be nonzero", v.what),
        ));
    }
    // The geometry the cache model can build: whole power-of-two sets of
    // `assoc` ways, at most 255 ways and 2^20 lines.
    let set_bytes = cfg.line as u64 * cfg.assoc as u64;
    let sets = cfg.size as u64 / set_bytes;
    let bad = if !cfg.line.is_power_of_two() {
        Some("line must be a power of two")
    } else if cfg.assoc > u8::MAX as u32 {
        Some("assoc must be at most 255")
    } else if !(cfg.size as u64).is_multiple_of(set_bytes) || !sets.is_power_of_two() {
        Some("size must be line * assoc * a power-of-two number of sets")
    } else if cfg.size / cfg.line > 1 << 20 {
        Some("at most 2^20 lines")
    } else {
        None
    };
    match bad {
        Some(why) => Err(TomlError::new(
            v.line,
            "bad-value",
            format!(
                "{}: {{ size = {}, line = {}, assoc = {} }}: {why}",
                v.what, cfg.size, cfg.line, cfg.assoc
            ),
        )),
        None => Ok(cfg),
    }
}

/// Interpret an event's counter-placement keys into a bitmask.
fn counter_mask(v: &View, num_counters: usize) -> PResult<Option<u32>> {
    let full: u32 = (1u32 << num_counters) - 1;
    match (v.get("counters"), v.get("mask")) {
        (Some(_), Some(kv)) => Err(TomlError::new(
            kv.line,
            "bad-counter-spec",
            format!("{}: give either 'counters' or 'mask', not both", v.what),
        )),
        (None, None) => Ok(None),
        (None, Some(kv)) => match &kv.value {
            Value::Int(m) if *m > 0 && *m <= full as i64 => Ok(Some(*m as u32)),
            Value::Int(m) => Err(TomlError::new(
                kv.line,
                "mask-beyond-counters",
                format!(
                    "{}: mask {m:#b} invalid for {num_counters} counters (expect 1..={full:#b})",
                    v.what
                ),
            )),
            other => Err(v.type_err("mask", "an integer", other)),
        },
        (Some(kv), None) => match &kv.value {
            Value::Str(s) if s == "any" => Ok(Some(full)),
            Value::Str(s) => Err(TomlError::new(
                kv.line,
                "bad-counter-spec",
                format!(
                    "{}: counters = \"{s}\" (only \"any\" or an index array)",
                    v.what
                ),
            )),
            Value::Array(items) => {
                let mut mask = 0u32;
                for it in items {
                    let Value::Int(idx) = it else {
                        return Err(TomlError::new(
                            kv.line,
                            "bad-counter-spec",
                            format!("{}: counters array must hold integers", v.what),
                        ));
                    };
                    if *idx < 0 || *idx >= num_counters as i64 {
                        return Err(TomlError::new(
                            kv.line,
                            "mask-beyond-counters",
                            format!(
                                "{}: counter index {idx} out of range 0..{num_counters}",
                                v.what
                            ),
                        ));
                    }
                    mask |= 1 << idx;
                }
                if mask == 0 {
                    return Err(TomlError::new(
                        kv.line,
                        "unplaceable-event",
                        format!("{}: empty counters array", v.what),
                    ));
                }
                Ok(Some(mask))
            }
            other => Err(v.type_err("counters", "an array or \"any\"", other)),
        },
    }
}

/// Parse a platform-model document into a fully validated [`PlatformSpec`].
///
/// Every rejection carries a named check and a line number; a file that
/// parses is guaranteed to satisfy the same structural invariants the
/// built-in platforms are tested for (unique event names/codes, placeable
/// events, groups that fit the counters and reference known events, cycle
/// and instruction signals present, ordered skid window, …).
pub fn parse_platform(src: &str) -> PResult<PlatformSpec> {
    let doc = toml::parse(src)?;
    doc.check_sections(
        &["platform", "pipeline", "memory", "costs"],
        &["event", "group"],
    )?;
    doc.check_schema(SCHEMA_VERSION)?;
    let section = |name: &str| {
        doc.single(name).ok_or_else(|| {
            TomlError::new(
                0,
                "missing-section",
                format!("file has no [{name}] section"),
            )
        })
    };
    let event_secs: Vec<View> = doc.array("event").collect();
    let group_secs: Vec<View> = doc.array("group").collect();

    // --- [platform] -------------------------------------------------------
    let p = section("platform")?;
    p.check_keys(&[
        "name",
        "vendor",
        "model",
        "clock_mhz",
        "counters",
        "counter_bits",
        "precise_sampling",
        "quantum_cycles",
    ])?;
    let name = p.str("name")?;
    if name.is_empty() {
        return Err(TomlError::new(
            p.line,
            "bad-value",
            "[platform].name must be non-empty",
        ));
    }
    let clock_mhz = p.u64("clock_mhz")?;
    if clock_mhz == 0 {
        return Err(TomlError::new(
            p.line,
            "int-range",
            "[platform].clock_mhz must be nonzero",
        ));
    }
    let num_counters = p.ranged("counters", 1, 31)? as usize;
    let counter_bits = p
        .opt("counter_bits", |p, k| p.ranged(k, 1, 64))?
        .map_or(64, |bits| bits as u32);

    // --- [pipeline] -------------------------------------------------------
    let pl = section("pipeline")?;
    pl.check_keys(&[
        "kind",
        "window",
        "mispredict_penalty",
        "div_latency",
        "overlap_pct",
        "skid",
    ])?;
    let kind = match pl.str("kind")? {
        "in-order" => {
            if let Some(kv) = pl.get("window") {
                return Err(TomlError::new(
                    kv.line,
                    "bad-value",
                    "[pipeline].window is only valid for kind = \"out-of-order\"",
                ));
            }
            PipelineKind::InOrder
        }
        "out-of-order" => PipelineKind::OutOfOrder {
            window: pl.u32("window")?,
        },
        other => {
            return Err(TomlError::new(
                pl.line,
                "bad-value",
                format!("[pipeline].kind = \"{other}\" (want \"in-order\" or \"out-of-order\")"),
            ))
        }
    };
    let skid_kv = pl.req("skid")?;
    let (skid_min, skid_max) = match &skid_kv.value {
        Value::Array(items) => match items.as_slice() {
            [Value::Int(a), Value::Int(b)] if *a >= 0 && *b >= 0 && *b <= u32::MAX as i64 => {
                (*a as u32, *b as u32)
            }
            _ => {
                return Err(TomlError::new(
                    skid_kv.line,
                    "bad-value",
                    "[pipeline].skid must be [min, max] with non-negative integers",
                ))
            }
        },
        other => return Err(pl.type_err("skid", "an array [min, max]", other)),
    };
    if skid_min > skid_max {
        return Err(TomlError::new(
            skid_kv.line,
            "skid-order",
            format!("skid window reversed: [{skid_min}, {skid_max}]"),
        ));
    }
    let pipeline = PipelineCfg {
        kind,
        mispredict_penalty: pl.u32("mispredict_penalty")?,
        div_latency: pl.u32("div_latency")?,
        overlap_pct: pl.ranged("overlap_pct", 0, 100)? as u32,
        skid_min,
        skid_max,
    };

    // --- [memory] ---------------------------------------------------------
    let m = section("memory")?;
    m.check_keys(&[
        "l1d",
        "l1i",
        "l2",
        "dtlb_entries",
        "itlb_entries",
        "l2_lat",
        "mem_lat",
        "tlb_walk",
        "prefetch_next_line",
        "tlb_flush_on_switch",
    ])?;
    let mem = MemCfg {
        l1d: cache_cfg(&m.table("l1d")?)?,
        l1i: cache_cfg(&m.table("l1i")?)?,
        l2: cache_cfg(&m.table("l2")?)?,
        dtlb_entries: m.ranged("dtlb_entries", 1, MAX_TLB_ENTRIES)? as usize,
        itlb_entries: m.ranged("itlb_entries", 1, MAX_TLB_ENTRIES)? as usize,
        l2_lat: m.u32("l2_lat")?,
        mem_lat: m.u32("mem_lat")?,
        tlb_walk: m.u32("tlb_walk")?,
        prefetch_next_line: m.opt("prefetch_next_line", View::bool)?.unwrap_or(false),
        tlb_flush_on_switch: m.opt("tlb_flush_on_switch", View::bool)?.unwrap_or(false),
    };

    // --- [costs] ----------------------------------------------------------
    let c = section("costs")?;
    c.check_keys(&[
        "read",
        "start_stop",
        "program",
        "interrupt",
        "sample_drain_per_rec",
        "timer",
        "ctx_switch",
        "pollute_lines",
    ])?;
    let costs = CostModel {
        read_cycles: c.u64("read")?,
        start_stop_cycles: c.u64("start_stop")?,
        program_cycles: c.u64("program")?,
        interrupt_cycles: c.u64("interrupt")?,
        sample_drain_per_rec: c.u64("sample_drain_per_rec")?,
        timer_cycles: c.u64("timer")?,
        ctx_switch_cycles: c.u64("ctx_switch")?,
        pollute_lines: c.u32("pollute_lines")?,
    };

    // --- [[event]] --------------------------------------------------------
    if event_secs.is_empty() {
        return Err(TomlError::new(
            0,
            "empty-events",
            "file defines no [[event]] entries",
        ));
    }
    let group_based = !group_secs.is_empty();
    let mut events: Vec<NativeEventDesc> = Vec::with_capacity(event_secs.len());
    let mut event_lines = Vec::with_capacity(event_secs.len());
    for e in &event_secs {
        e.check_keys(&["code", "name", "descr", "counts", "counters", "mask"])?;
        let idx = e.ranged("code", 0, (NATIVE_MASK - 1) as i64)? as u32;
        let ename = e.str("name")?;
        let descr = e.str("descr")?;
        let kinds = parse_formula(e.str("counts")?, e.req("counts")?.line)?;
        let mask = counter_mask(e, num_counters)?;
        if group_based && mask.is_some() {
            return Err(TomlError::new(
                e.line,
                "group-counters-conflict",
                format!(
                    "event '{ename}': counter placement is derived from [[group] ] tables on \
                     group-allocated platforms; drop 'counters'/'mask'"
                ),
            ));
        }
        if !group_based && mask.is_none() {
            return Err(TomlError::new(
                e.line,
                "unplaceable-event",
                format!("event '{ename}' has no 'counters' or 'mask' placement"),
            ));
        }
        let code = NATIVE_MASK | idx;
        if events.iter().any(|prev| prev.code == code) {
            return Err(TomlError::new(
                e.line,
                "unique-event-codes",
                format!("duplicate event code {idx}"),
            ));
        }
        if events.iter().any(|prev| prev.name == ename) {
            return Err(TomlError::new(
                e.line,
                "unique-event-names",
                format!("duplicate event name '{ename}'"),
            ));
        }
        events.push(NativeEventDesc {
            code,
            name: intern(ename),
            descr: intern(descr),
            kinds,
            counter_mask: mask.unwrap_or(0),
            group: None,
        });
        event_lines.push(e.line);
    }

    // --- [[group]] --------------------------------------------------------
    let mut groups: Vec<GroupDef> = Vec::with_capacity(group_secs.len());
    for g in &group_secs {
        g.check_keys(&["id", "name", "events"])?;
        let id = g.u32("id")?;
        let gname = g.str("name")?;
        let ev_kv = g.req("events")?;
        let Value::Array(items) = &ev_kv.value else {
            return Err(g.type_err("events", "an array of event names", &ev_kv.value));
        };
        if items.len() > num_counters {
            return Err(TomlError::new(
                g.line,
                "group-too-large",
                format!(
                    "group '{gname}' programs {} events onto {num_counters} counters",
                    items.len()
                ),
            ));
        }
        let mut codes = Vec::with_capacity(items.len());
        for it in items {
            let Value::Str(member) = it else {
                return Err(TomlError::new(
                    ev_kv.line,
                    "bad-value",
                    format!("group '{gname}': events array must hold event-name strings"),
                ));
            };
            let ev = events.iter().find(|e| e.name == member).ok_or_else(|| {
                TomlError::new(
                    ev_kv.line,
                    "group-unknown-event",
                    format!("group '{gname}' references unknown event '{member}'"),
                )
            })?;
            codes.push(ev.code);
        }
        if groups.iter().any(|prev| prev.id == id) {
            return Err(TomlError::new(
                g.line,
                "duplicate-group-id",
                format!("group id {id} already defined"),
            ));
        }
        groups.push(GroupDef {
            id,
            name: intern(gname),
            events: codes,
        });
    }

    // Derive counter masks from group positions, exactly as the pre-refactor
    // constructors did: an event may sit on counter i iff some group places
    // it there; `group` records the last group that did (informational).
    for g in &groups {
        for (pos, code) in g.events.iter().enumerate() {
            let e = events.iter_mut().find(|e| e.code == *code).unwrap();
            e.counter_mask |= 1 << pos;
            e.group = Some(g.id);
        }
    }

    // --- whole-spec semantic checks --------------------------------------
    let full: u32 = (1u32 << num_counters) - 1;
    for (e, line) in events.iter().zip(&event_lines) {
        if e.counter_mask == 0 {
            return Err(TomlError::new(
                *line,
                "unplaceable-event",
                format!("event '{}' is placed on no counter by any group", e.name),
            ));
        }
        if e.counter_mask & !full != 0 {
            return Err(TomlError::new(
                *line,
                "mask-beyond-counters",
                format!(
                    "event '{}' mask {:#b} names counters beyond the {} available",
                    e.name, e.counter_mask, num_counters
                ),
            ));
        }
    }
    let has_kind = |k: EventKind| {
        events
            .iter()
            .any(|e| e.kinds.iter().any(|&(kk, _)| kk == k))
    };
    if !has_kind(EventKind::Cycles) {
        return Err(TomlError::new(
            0,
            "missing-cycles-event",
            "no native event counts the Cycles signal",
        ));
    }
    if !has_kind(EventKind::Instructions) {
        return Err(TomlError::new(
            0,
            "missing-instructions-event",
            "no native event counts the Instructions signal",
        ));
    }

    Ok(PlatformSpec {
        name: intern(name),
        vendor: intern(p.str("vendor")?),
        model: intern(p.str("model")?),
        clock_mhz,
        num_counters,
        counter_bits,
        pipeline,
        mem,
        events,
        groups,
        costs,
        precise_sampling: p.opt("precise_sampling", View::bool)?.unwrap_or(false),
        quantum_cycles: p.u64("quantum_cycles")?,
    })
}

/// Load and parse a platform-model file from disk.
pub fn load_platform_file(path: &std::path::Path) -> PResult<PlatformSpec> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| TomlError::new(0, "io", format!("cannot read {}: {e}", path.display())))?;
    parse_platform(&src)
}

// ---------------------------------------------------------------------------
// Canonical renderer
// ---------------------------------------------------------------------------

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render_mask(mask: u32, num_counters: usize) -> String {
    let full: u32 = (1u32 << num_counters) - 1;
    if mask == full {
        "counters = \"any\"".to_string()
    } else {
        format!("mask = {:#b}", mask)
    }
}

/// Render a spec in the canonical file format, such that
/// `parse_platform(render_platform(&spec)) == spec` exactly.
///
/// This is how the eight built-in files were generated from the pre-refactor
/// Rust constructors (see `examples/gen_platform_files.rs`), which is what
/// makes the bit-identical differential test meaningful.
pub fn render_platform(spec: &PlatformSpec) -> String {
    use std::fmt::Write as _;
    let mut o = String::with_capacity(4096);
    let _ = writeln!(o, "# Platform model: {} — {}", spec.name, spec.model);
    let _ = writeln!(
        o,
        "# Canonical form (see SPEC.md \"Platform-model files\"); regenerate with"
    );
    let _ = writeln!(o, "#   cargo run --example gen_platform_files");
    let _ = writeln!(o, "schema = {SCHEMA_VERSION}");
    let _ = writeln!(o);
    let _ = writeln!(o, "[platform]");
    let _ = writeln!(o, "name = {}", quote(spec.name));
    let _ = writeln!(o, "vendor = {}", quote(spec.vendor));
    let _ = writeln!(o, "model = {}", quote(spec.model));
    let _ = writeln!(o, "clock_mhz = {}", spec.clock_mhz);
    let _ = writeln!(o, "counters = {}", spec.num_counters);
    let _ = writeln!(o, "counter_bits = {}", spec.counter_bits);
    let _ = writeln!(o, "precise_sampling = {}", spec.precise_sampling);
    let _ = writeln!(o, "quantum_cycles = {}", spec.quantum_cycles);
    let _ = writeln!(o);
    let _ = writeln!(o, "[pipeline]");
    match spec.pipeline.kind {
        PipelineKind::InOrder => {
            let _ = writeln!(o, "kind = \"in-order\"");
        }
        PipelineKind::OutOfOrder { window } => {
            let _ = writeln!(o, "kind = \"out-of-order\"");
            let _ = writeln!(o, "window = {window}");
        }
    }
    let _ = writeln!(
        o,
        "mispredict_penalty = {}",
        spec.pipeline.mispredict_penalty
    );
    let _ = writeln!(o, "div_latency = {}", spec.pipeline.div_latency);
    let _ = writeln!(o, "overlap_pct = {}", spec.pipeline.overlap_pct);
    let _ = writeln!(
        o,
        "skid = [{}, {}]",
        spec.pipeline.skid_min, spec.pipeline.skid_max
    );
    let _ = writeln!(o);
    let _ = writeln!(o, "[memory]");
    for (key, c) in [
        ("l1d", &spec.mem.l1d),
        ("l1i", &spec.mem.l1i),
        ("l2", &spec.mem.l2),
    ] {
        let _ = writeln!(
            o,
            "{key} = {{ size = {}, line = {}, assoc = {} }}",
            c.size, c.line, c.assoc
        );
    }
    let _ = writeln!(o, "dtlb_entries = {}", spec.mem.dtlb_entries);
    let _ = writeln!(o, "itlb_entries = {}", spec.mem.itlb_entries);
    let _ = writeln!(o, "l2_lat = {}", spec.mem.l2_lat);
    let _ = writeln!(o, "mem_lat = {}", spec.mem.mem_lat);
    let _ = writeln!(o, "tlb_walk = {}", spec.mem.tlb_walk);
    let _ = writeln!(o, "prefetch_next_line = {}", spec.mem.prefetch_next_line);
    let _ = writeln!(o, "tlb_flush_on_switch = {}", spec.mem.tlb_flush_on_switch);
    let _ = writeln!(o);
    let _ = writeln!(o, "[costs]");
    let _ = writeln!(o, "read = {}", spec.costs.read_cycles);
    let _ = writeln!(o, "start_stop = {}", spec.costs.start_stop_cycles);
    let _ = writeln!(o, "program = {}", spec.costs.program_cycles);
    let _ = writeln!(o, "interrupt = {}", spec.costs.interrupt_cycles);
    let _ = writeln!(
        o,
        "sample_drain_per_rec = {}",
        spec.costs.sample_drain_per_rec
    );
    let _ = writeln!(o, "timer = {}", spec.costs.timer_cycles);
    let _ = writeln!(o, "ctx_switch = {}", spec.costs.ctx_switch_cycles);
    let _ = writeln!(o, "pollute_lines = {}", spec.costs.pollute_lines);
    let group_based = !spec.groups.is_empty();
    for e in &spec.events {
        let _ = writeln!(o);
        let _ = writeln!(o, "[[event]]");
        let _ = writeln!(o, "code = {}", e.code & !NATIVE_MASK);
        let _ = writeln!(o, "name = {}", quote(e.name));
        let _ = writeln!(o, "descr = {}", quote(e.descr));
        let _ = writeln!(o, "counts = {}", quote(&render_formula(&e.kinds)));
        if !group_based {
            let _ = writeln!(o, "{}", render_mask(e.counter_mask, spec.num_counters));
        }
    }
    for g in &spec.groups {
        let names: Vec<String> = g
            .events
            .iter()
            .map(|code| {
                quote(
                    spec.event_by_code(*code)
                        .map(|e| e.name)
                        .unwrap_or("<unknown>"),
                )
            })
            .collect();
        let _ = writeln!(o);
        let _ = writeln!(o, "[[group]]");
        let _ = writeln!(o, "id = {}", g.id);
        let _ = writeln!(o, "name = {}", quote(g.name));
        let _ = writeln!(o, "events = [{}]", names.join(", "));
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::all_platforms;

    #[test]
    fn round_trip_every_builtin_platform() {
        for spec in all_platforms() {
            let text = render_platform(&spec);
            let parsed = parse_platform(&text)
                .unwrap_or_else(|e| panic!("{}: render does not re-parse: {e}", spec.name));
            assert_eq!(parsed, spec, "{} round-trip", spec.name);
        }
    }

    /// Every embedded built-in file is the canonical render of its own
    /// parse, byte for byte: no hand drift from the renderer's layout.
    #[test]
    fn checked_in_files_are_canonical_renders() {
        for (name, text) in crate::platform::files::BUILTIN {
            let spec = parse_platform(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                *text,
                render_platform(&spec),
                "platforms/{name}.toml is not the canonical render; \
                 re-run `cargo run -p simcpu --example gen_platform_files`"
            );
        }
    }

    #[test]
    fn formula_syntax() {
        assert_eq!(
            parse_formula("Cycles", 1).unwrap(),
            vec![(EventKind::Cycles, 1)]
        );
        assert_eq!(
            parse_formula("FpAdd + FpMul + 2*FpFma + FpDiv", 1).unwrap(),
            vec![
                (EventKind::FpAdd, 1),
                (EventKind::FpMul, 1),
                (EventKind::FpFma, 2),
                (EventKind::FpDiv, 1)
            ]
        );
        for bad in ["", "Cyc1es", "0*Cycles", "Cycles +", "x*Cycles"] {
            let err = parse_formula(bad, 7).unwrap_err();
            assert_eq!(err.check, "bad-formula", "{bad}");
            assert_eq!(err.line, 7);
        }
        for k in EventKind::ALL {
            assert_eq!(kind_by_name(&kind_name(k)), Some(k));
        }
    }

    #[test]
    fn errors_carry_line_numbers_and_named_checks() {
        let base = render_platform(&crate::platform::sim_x86());
        // Whole-file and targeted mutations, with the check we expect.
        let cases: Vec<(String, &str)> = vec![
            ("schema = 1\n".into(), "missing-section"),
            (base.replace("schema = 1", "schema = 99"), "schema-version"),
            (base.replace("schema = 1", "# no schema"), "schema-version"),
            (base.replace("counters = 4", "counters = 0"), "int-range"),
            (base.replace("name = \"sim-x86\"", ""), "missing-key"),
            (
                base.replace("[pipeline]", "[pipeline]\nbogus_key = 3"),
                "unknown-key",
            ),
            (base.replace("[costs]", "[costz]"), "unknown-section"),
            (
                base.replace("skid = [8, 24]", "skid = [24, 8]"),
                "skid-order",
            ),
            (
                base.replace("counts = \"Cycles\"", "counts = \"Parsecs\""),
                "bad-formula",
            ),
            (
                base.replace("name = \"INST_RETIRED\"", "name = \"CPU_CLK_UNHALTED\""),
                "unique-event-names",
            ),
            (
                base.replace("code = 1\n", "code = 0\n"),
                "unique-event-codes",
            ),
            (
                base.replace("counters = \"any\"", "mask = 0b10000"),
                "mask-beyond-counters",
            ),
            (
                base.replace("clock_mhz = 1000", "clock_mhz = \"fast\""),
                "bad-value",
            ),
            (base.replace(" = ", " ").to_string(), "syntax"),
            // Cache geometry and TLB sizes the machine could not build.
            (base.replace("line = 64", "line = 48"), "bad-value"),
            (base.replace("assoc = 4", "assoc = 300"), "bad-value"),
            (
                base.replace(
                    "size = 16384, line = 64, assoc = 4",
                    "size = 16384, line = 64, assoc = 256",
                ),
                "bad-value",
            ),
            (base.replace("size = 16384", "size = 24576"), "bad-value"),
            (
                base.replace("dtlb_entries = 64", "dtlb_entries = 0"),
                "int-range",
            ),
            (
                base.replace("itlb_entries = 32", "itlb_entries = 5000"),
                "int-range",
            ),
        ];
        for (src, want_check) in cases {
            let err = parse_platform(&src)
                .expect_err(&format!("mutation for '{want_check}' unexpectedly parsed"));
            assert_eq!(err.check, want_check, "got instead: {err}");
        }
        // Line numbers point at the offending line.
        let src = base.replace("skid = [8, 24]", "skid = [24, 8]");
        let err = parse_platform(&src).unwrap_err();
        let lineno = src
            .lines()
            .position(|l| l.contains("skid = [24, 8]"))
            .unwrap()
            + 1;
        assert_eq!(err.line, lineno);
    }

    #[test]
    fn group_semantics_enforced() {
        let p3 = render_platform(&crate::platform::sim_power3());
        // A group referencing an unknown event fails by name.
        let src = p3.replace("\"PM_CYC\",", "\"PM_NOPE\",");
        assert_eq!(
            parse_platform(&src).unwrap_err().check,
            "group-unknown-event"
        );
        // An event with an explicit mask on a group platform is rejected.
        let src = p3.replace("name = \"PM_CYC\"\n", "name = \"PM_CYC\"\nmask = 0b1\n");
        assert_eq!(
            parse_platform(&src).unwrap_err().check,
            "group-counters-conflict"
        );
        // Oversized group.
        let src = p3.replace("counters = 8", "counters = 4");
        assert_eq!(parse_platform(&src).unwrap_err().check, "group-too-large");
    }

    #[test]
    fn interning_returns_stable_pointers() {
        let a = intern("platform-model-intern-test");
        let b = intern("platform-model-intern-test");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "platform-model-intern-test");
    }
}
