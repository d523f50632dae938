//! Programs and the structured program builder.
//!
//! A [`Program`] is a flat vector of [`Inst`]s plus a symbol table mapping
//! function names to index ranges. The [`ProgramBuilder`] provides the
//! structured constructs workloads are written in — functions, counted
//! loops, calls, forward skips — and resolves everything to absolute
//! instruction indices.
//!
//! Programs also support *instrumentation*: inserting [`Inst::Probe`]
//! pseudo-instructions at chosen points while remapping every control-flow
//! target, which is how the dynaprof reproduction patches running code.

use crate::isa::{AddrGen, BranchPat, Inst};
use papi_obs::json::{FromJson, JsonError, ToJson, Value};
use std::collections::HashMap;
use std::fmt;

/// Base virtual address of the text segment. Instruction `i` has PC
/// `TEXT_BASE + 4 * i`.
pub const TEXT_BASE: u64 = 0x1000;

/// A named function: instructions `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    pub name: String,
    pub start: usize,
    pub end: usize,
}

/// An executable synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub insts: Vec<Inst>,
    pub symbols: Vec<Symbol>,
    /// Index of the first instruction to execute.
    pub entry: usize,
}

impl Program {
    /// PC of the instruction at `idx`.
    pub fn pc_of(idx: usize) -> u64 {
        TEXT_BASE + 4 * idx as u64
    }

    /// Instruction index of `pc` (PCs between instructions round down).
    pub fn idx_of(pc: u64) -> usize {
        ((pc.saturating_sub(TEXT_BASE)) / 4) as usize
    }

    pub fn len(&self) -> usize {
        self.insts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The symbol containing instruction `idx`, if any.
    pub fn symbol_at(&self, idx: usize) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.start <= idx && idx < s.end)
    }

    /// Look a symbol up by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Instrument the program: insert `Probe { id }` *before* each original
    /// instruction index in `points`, remapping every branch/jump/call
    /// target, the symbol table and the entry point.
    ///
    /// Targets are remapped the way a binary patcher relocates them:
    /// **call** targets (and the entry point) that land exactly on an
    /// insertion point are routed *through* the probe — so an entry probe
    /// runs on every call to the function — while **branch/jump** targets
    /// skip probes inserted at the target index, so a loop back-edge does
    /// not re-execute a function-entry trampoline on every iteration.
    ///
    /// `points` may be unsorted; duplicate indices insert multiple probes
    /// (in the order given).
    pub fn instrument(&self, points: &[(usize, u32)]) -> Program {
        let mut pts: Vec<(usize, u32)> = points.to_vec();
        pts.sort_by_key(|&(idx, _)| idx);
        for &(idx, _) in &pts {
            assert!(idx <= self.insts.len(), "probe point {idx} out of range");
        }
        // New index of the original instruction `i`: shifted once per probe
        // inserted at an index <= i.
        let remap = |i: usize| -> usize { i + pts.iter().take_while(|&&(p, _)| p <= i).count() };
        // Call-target remap: a probe at exactly the target occupies the old
        // slot, so the call lands on the probe.
        let remap_call =
            |t: usize| -> usize { t + pts.iter().take_while(|&&(p, _)| p < t).count() };

        let mut insts = Vec::with_capacity(self.insts.len() + pts.len());
        let mut next_pt = 0;
        for (i, inst) in self.insts.iter().enumerate() {
            while next_pt < pts.len() && pts[next_pt].0 == i {
                insts.push(Inst::Probe { id: pts[next_pt].1 });
                next_pt += 1;
            }
            let fixed = match *inst {
                Inst::Br { pat, target } => Inst::Br {
                    pat,
                    target: remap(target as usize) as u32,
                },
                Inst::Jmp { target } => Inst::Jmp {
                    target: remap(target as usize) as u32,
                },
                Inst::Call { target } => Inst::Call {
                    target: remap_call(target as usize) as u32,
                },
                other => other,
            };
            insts.push(fixed);
        }
        while next_pt < pts.len() {
            insts.push(Inst::Probe { id: pts[next_pt].1 });
            next_pt += 1;
        }
        let symbols = self
            .symbols
            .iter()
            .map(|s| Symbol {
                name: s.name.clone(),
                start: remap_call(s.start),
                end: remap(s.end.saturating_sub(1)) + 1,
            })
            .collect();
        Program {
            insts,
            symbols,
            entry: remap_call(self.entry),
        }
    }

    /// A human-readable listing (dynaprof's "list the internal structure").
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(s) = self.symbols.iter().find(|s| s.start == i) {
                writeln!(out, "{}:", s.name).unwrap();
            }
            writeln!(out, "  {:#8x}  [{i:5}]  {inst:?}", Self::pc_of(i)).unwrap();
        }
        out
    }
}

// JSON in the derive shape (see `papi_obs::json`): the
// `papirun --workload-file` format.
papi_obs::json_struct!(Symbol { name, start, end });

impl ToJson for Program {
    fn to_json(&self) -> Value {
        Value::object([
            ("insts", self.insts.to_json()),
            ("symbols", self.symbols.to_json()),
            ("entry", self.entry.to_json()),
        ])
    }
}

impl FromJson for Program {
    /// Decodes, then refuses a program the machine could not run: one
    /// with no instructions, an entry or control-flow target past the
    /// end, a last instruction that can fall through past the end, or an
    /// address stream whose arithmetic overflows `u64`. The error names
    /// the offending instruction index.
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let p = Program {
            insts: v.field("insts")?,
            symbols: v.field("symbols")?,
            entry: v.field("entry")?,
        };
        let len = p.insts.len();
        let past_end = |what: String| {
            JsonError::shape(format!(
                "{what} is past the end of the {len}-instruction program"
            ))
        };
        let Some(last) = p.insts.last() else {
            return Err(JsonError::shape("program has no instructions"));
        };
        if p.entry >= len {
            return Err(past_end(format!("entry {}", p.entry)));
        }
        for (i, inst) in p.insts.iter().enumerate() {
            match *inst {
                Inst::Br { target, .. } | Inst::Jmp { target } | Inst::Call { target }
                    if target as usize >= len =>
                {
                    return Err(past_end(format!("insts[{i}]: target {target}")));
                }
                Inst::Load(gen) | Inst::Store(gen) if !gen.fits_u64() => {
                    return Err(JsonError::shape(format!(
                        "insts[{i}]: address arithmetic of {gen:?} overflows u64"
                    )));
                }
                _ => {}
            }
        }
        let ends = matches!(
            last,
            Inst::Jmp { .. }
                | Inst::Ret
                | Inst::Halt
                | Inst::Br {
                    pat: BranchPat::Always,
                    ..
                }
        );
        if !ends {
            return Err(JsonError::shape(format!(
                "insts[{}]: {last:?} can fall through past the end of the {len}-instruction program",
                len - 1
            )));
        }
        Ok(p)
    }
}

/// Builds a [`Program`] out of named functions.
///
/// ```
/// use simcpu::program::ProgramBuilder;
/// use simcpu::isa::AddrGen;
///
/// let mut b = ProgramBuilder::new();
/// b.func("kernel", |f| {
///     f.loop_(100, |f| {
///         f.ffma(4);
///         f.load(AddrGen::Stride { base: 0x10000, stride: 8, len: 1 << 16 });
///     });
/// });
/// b.func("main", |f| {
///     f.call("kernel");
/// });
/// let prog = b.build("main");
/// assert!(prog.symbol("kernel").is_some());
/// ```
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    symbols: Vec<Symbol>,
    call_fixups: Vec<(usize, String)>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    pub fn new() -> Self {
        ProgramBuilder {
            insts: Vec::new(),
            symbols: Vec::new(),
            call_fixups: Vec::new(),
        }
    }

    /// Define a function. Functions are laid out in definition order; a
    /// `Ret` is appended if the body does not already end in `Ret` or
    /// `Halt`. Panics on duplicate names.
    pub fn func(&mut self, name: &str, body: impl FnOnce(&mut FuncBuilder<'_>)) -> &mut Self {
        assert!(
            self.symbols.iter().all(|s| s.name != name),
            "duplicate function {name}"
        );
        let start = self.insts.len();
        {
            let mut fb = FuncBuilder {
                insts: &mut self.insts,
                call_fixups: &mut self.call_fixups,
            };
            body(&mut fb);
        }
        if !matches!(self.insts.last(), Some(Inst::Ret) | Some(Inst::Halt)) {
            self.insts.push(Inst::Ret);
        }
        let end = self.insts.len();
        self.symbols.push(Symbol {
            name: name.to_string(),
            start,
            end,
        });
        self
    }

    /// Finish the program. A synthetic `_start` function calling `entry`
    /// and halting is appended and becomes the entry point.
    ///
    /// Panics if `entry` or any called function is undefined.
    pub fn build(mut self, entry: &str) -> Program {
        let start_idx = self.insts.len();
        let entry_target = self
            .symbols
            .iter()
            .find(|s| s.name == entry)
            .unwrap_or_else(|| panic!("entry function {entry} not defined"))
            .start as u32;
        self.insts.push(Inst::Call {
            target: entry_target,
        });
        self.insts.push(Inst::Halt);
        self.symbols.push(Symbol {
            name: "_start".to_string(),
            start: start_idx,
            end: start_idx + 2,
        });

        let by_name: HashMap<&str, usize> = self
            .symbols
            .iter()
            .map(|s| (s.name.as_str(), s.start))
            .collect();
        for (at, name) in &self.call_fixups {
            let target = *by_name
                .get(name.as_str())
                .unwrap_or_else(|| panic!("call to undefined function {name}"));
            self.insts[*at] = Inst::Call {
                target: target as u32,
            };
        }
        Program {
            insts: self.insts,
            symbols: self.symbols,
            entry: start_idx,
        }
    }
}

/// Emits the body of one function. Obtained from [`ProgramBuilder::func`].
pub struct FuncBuilder<'a> {
    insts: &'a mut Vec<Inst>,
    call_fixups: &'a mut Vec<(usize, String)>,
}

impl FuncBuilder<'_> {
    fn emit_n(&mut self, inst: Inst, n: usize) -> &mut Self {
        for _ in 0..n {
            self.insts.push(inst);
        }
        self
    }

    /// `n` integer ALU ops.
    pub fn int(&mut self, n: usize) -> &mut Self {
        self.emit_n(Inst::Int, n)
    }

    /// `n` FP adds.
    pub fn fadd(&mut self, n: usize) -> &mut Self {
        self.emit_n(Inst::FAdd, n)
    }

    /// `n` FP multiplies.
    pub fn fmul(&mut self, n: usize) -> &mut Self {
        self.emit_n(Inst::FMul, n)
    }

    /// `n` fused multiply-adds (two FLOPs each).
    pub fn ffma(&mut self, n: usize) -> &mut Self {
        self.emit_n(Inst::FFma, n)
    }

    /// `n` FP divides.
    pub fn fdiv(&mut self, n: usize) -> &mut Self {
        self.emit_n(Inst::FDiv, n)
    }

    /// `n` FP convert/rounding instructions.
    pub fn fcvt(&mut self, n: usize) -> &mut Self {
        self.emit_n(Inst::FCvt, n)
    }

    /// `n` no-ops.
    pub fn nop(&mut self, n: usize) -> &mut Self {
        self.emit_n(Inst::Nop, n)
    }

    /// One load from the given address stream.
    pub fn load(&mut self, gen: AddrGen) -> &mut Self {
        self.insts.push(Inst::Load(gen));
        self
    }

    /// `n` loads sharing one address stream shape (each instruction gets its
    /// own cursor, so `n` copies of a strided stream walk in lockstep).
    pub fn loads(&mut self, n: usize, gen: AddrGen) -> &mut Self {
        self.emit_n(Inst::Load(gen), n)
    }

    /// One store to the given address stream.
    pub fn store(&mut self, gen: AddrGen) -> &mut Self {
        self.insts.push(Inst::Store(gen));
        self
    }

    /// A counted loop: `body` executes exactly `count` times. `count >= 1`.
    pub fn loop_(&mut self, count: u32, body: impl FnOnce(&mut Self)) -> &mut Self {
        assert!(count >= 1, "loop count must be >= 1");
        let top = self.insts.len() as u32;
        body(self);
        self.insts.push(Inst::Br {
            pat: BranchPat::Loop { count },
            target: top,
        });
        self
    }

    /// A conditional branch that skips the instructions emitted by `body`
    /// when taken.
    pub fn skip_if(&mut self, pat: BranchPat, body: impl FnOnce(&mut Self)) -> &mut Self {
        let br_at = self.insts.len();
        self.insts.push(Inst::Nop); // placeholder
        body(self);
        let after = self.insts.len() as u32;
        self.insts[br_at] = Inst::Br { pat, target: after };
        self
    }

    /// Call a (possibly not-yet-defined) function by name.
    pub fn call(&mut self, name: &str) -> &mut Self {
        self.call_fixups.push((self.insts.len(), name.to_string()));
        self.insts.push(Inst::Nop); // placeholder, patched in build()
        self
    }

    /// Explicit early return.
    pub fn ret(&mut self) -> &mut Self {
        self.insts.push(Inst::Ret);
        self
    }

    /// Halt the thread.
    pub fn halt(&mut self) -> &mut Self {
        self.insts.push(Inst::Halt);
        self
    }

    /// Send a message token to channel `chan`.
    pub fn send(&mut self, chan: u16) -> &mut Self {
        self.insts.push(Inst::Send { chan });
        self
    }

    /// Blocking receive from channel `chan`.
    pub fn recv(&mut self, chan: u16) -> &mut Self {
        self.insts.push(Inst::Recv { chan });
        self
    }

    /// Escape hatch: emit a raw instruction.
    pub fn raw(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Index the next emitted instruction will occupy (for hand-built
    /// control flow via [`FuncBuilder::raw`]).
    pub fn here(&self) -> usize {
        self.insts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Program {
        let mut b = ProgramBuilder::new();
        b.func("leaf", |f| {
            f.fadd(2);
        });
        b.func("main", |f| {
            f.loop_(3, |f| {
                f.int(1);
                f.call("leaf");
            });
        });
        b.build("main")
    }

    #[test]
    fn build_layout_and_symbols() {
        let p = simple();
        let leaf = p.symbol("leaf").unwrap();
        assert_eq!(leaf.start, 0);
        assert_eq!(leaf.end, 3); // fadd, fadd, ret
        assert_eq!(p.insts[2], Inst::Ret);
        let start = p.symbol("_start").unwrap();
        assert_eq!(p.entry, start.start);
        assert_eq!(
            p.insts[p.entry],
            Inst::Call {
                target: p.symbol("main").unwrap().start as u32
            }
        );
    }

    #[test]
    fn call_fixup_resolves_forward_and_backward() {
        let mut b = ProgramBuilder::new();
        b.func("a", |f| {
            f.call("b"); // forward reference
        });
        b.func("b", |f| {
            f.call("a"); // backward reference
        });
        let p = b.build("a");
        let a = p.symbol("a").unwrap().start as u32;
        let bsym = p.symbol("b").unwrap().start as u32;
        assert_eq!(p.insts[a as usize], Inst::Call { target: bsym });
        assert_eq!(p.insts[bsym as usize], Inst::Call { target: a });
    }

    #[test]
    #[should_panic(expected = "undefined function")]
    fn undefined_call_panics() {
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.call("missing");
        });
        b.build("main");
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut b = ProgramBuilder::new();
        b.func("f", |f| {
            f.nop(1);
        });
        b.func("f", |f| {
            f.nop(1);
        });
    }

    #[test]
    fn loop_emits_backedge() {
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.loop_(5, |f| {
                f.int(2);
            });
        });
        let p = b.build("main");
        assert_eq!(
            p.insts[2],
            Inst::Br {
                pat: BranchPat::Loop { count: 5 },
                target: 0
            }
        );
    }

    #[test]
    fn skip_if_targets_past_body() {
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.skip_if(BranchPat::Always, |f| {
                f.int(3);
            });
            f.nop(1);
        });
        let p = b.build("main");
        assert_eq!(
            p.insts[0],
            Inst::Br {
                pat: BranchPat::Always,
                target: 4
            }
        );
    }

    #[test]
    fn pc_idx_roundtrip() {
        assert_eq!(Program::idx_of(Program::pc_of(17)), 17);
        assert_eq!(Program::pc_of(0), TEXT_BASE);
    }

    #[test]
    fn instrument_inserts_and_remaps() {
        let p = simple();
        let main = p.symbol("main").unwrap().start;
        let leaf = p.symbol("leaf").unwrap().start;
        // entry probes on both functions
        let ip = p.instrument(&[(main, 10), (leaf, 20)]);
        // leaf probe is at old index 0; main probe shifted by 1
        assert_eq!(ip.insts[leaf], Inst::Probe { id: 20 });
        let new_main = ip.symbol("main").unwrap().start;
        assert_eq!(ip.insts[new_main], Inst::Probe { id: 10 });
        // call to leaf must now land on the probe
        let call = ip.insts.iter().find_map(|i| match i {
            Inst::Call { target } if *target as usize == leaf => Some(*target),
            _ => None,
        });
        assert!(
            call.is_some(),
            "call should target the leaf probe at old start"
        );
        // program still has all original instructions
        assert_eq!(ip.insts.len(), p.insts.len() + 2);
    }

    #[test]
    fn instrument_backedge_skips_entry_probe() {
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.loop_(4, |f| {
                f.int(1);
            });
        });
        let p = b.build("main");
        // Probe at the loop top (index 0, also function entry): the call
        // reaches the probe, but the back-edge must target the original
        // instruction, now at index 1 — the probe fires once per call.
        let ip = p.instrument(&[(0, 1)]);
        assert_eq!(ip.insts[0], Inst::Probe { id: 1 });
        assert_eq!(
            ip.insts[2],
            Inst::Br {
                pat: BranchPat::Loop { count: 4 },
                target: 1
            }
        );
        let call = ip.insts[ip.entry];
        assert_eq!(call, Inst::Call { target: 0 });
    }

    #[test]
    fn instrument_entry_shifts() {
        let p = simple();
        let ip = p.instrument(&[(0, 9)]);
        assert_eq!(ip.entry, p.entry + 1);
    }

    #[test]
    fn disassemble_lists_symbols() {
        let p = simple();
        let d = p.disassemble();
        assert!(d.contains("leaf:"));
        assert!(d.contains("main:"));
        assert!(d.contains("_start:"));
    }

    #[test]
    fn symbol_at_boundaries() {
        let p = simple();
        let leaf = p.symbol("leaf").unwrap().clone();
        assert_eq!(p.symbol_at(leaf.start).unwrap().name, "leaf");
        assert_eq!(p.symbol_at(leaf.end - 1).unwrap().name, "leaf");
        assert_ne!(p.symbol_at(leaf.end).map(|s| s.name.as_str()), Some("leaf"));
    }
}
