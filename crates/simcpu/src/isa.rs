//! The synthetic-workload instruction set.
//!
//! Instructions carry *event semantics* rather than real dataflow: a load
//! owns an address-stream generator, a conditional branch owns a
//! taken/not-taken pattern. This keeps programs executable and deterministic
//! while letting workload authors compute expected hardware-event counts
//! analytically — the property the paper's `calibrate` utility depends on.
//!
//! Control flow (loops, calls, returns) is real: branch targets are
//! instruction indices resolved by the [`crate::program::ProgramBuilder`].

use papi_obs::json::{FromJson, JsonError, ToJson, Value};

/// How a memory instruction generates its effective addresses, one per
/// dynamic execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddrGen {
    /// Walk a region sequentially with the given stride, wrapping at `len`.
    ///
    /// `len` and `stride` are in bytes; generated addresses are
    /// `base + (i * stride) % len`.
    Stride { base: u64, stride: u64, len: u64 },
    /// Uniformly random addresses in `[base, base + len)`, 8-byte aligned.
    Rand { base: u64, len: u64 },
    /// Always the same address (e.g. a hot lock word).
    Fixed { addr: u64 },
    /// A pointer-chase style walk: the next offset is a hash of the current
    /// one, cache-line aligned, which defeats both spatial locality and
    /// next-line prefetching.
    Chase { base: u64, len: u64 },
}

impl AddrGen {
    /// True when every address this generator can produce, and every
    /// cursor step on the way there, fits in a `u64`.
    pub(crate) fn fits_u64(&self) -> bool {
        let (base, last) = match *self {
            AddrGen::Stride { base, stride, len } => {
                let last = len.max(1) - 1;
                if stride.checked_add(last).is_none() {
                    return false;
                }
                (base, last)
            }
            AddrGen::Rand { base, len } => (base, ((len / 8).max(1) - 1) * 8),
            AddrGen::Fixed { .. } => return true,
            AddrGen::Chase { base, len } => (base, ((len / 64).max(1) - 1) * 64),
        };
        base.checked_add(last).is_some()
    }

    /// Produce the next effective address, updating `cursor` (per-thread
    /// instruction state) and drawing from `rand_word` when random.
    pub fn next(&self, cursor: &mut u64, rand_word: u64) -> u64 {
        match *self {
            AddrGen::Stride { base, stride, len } => {
                let a = base + *cursor;
                // `(cursor + stride) % span`, dividing only when the step
                // overshoots the region by a whole span or more.
                let span = len.max(1);
                let next = *cursor + stride;
                *cursor = if next < span {
                    next
                } else if next - span < span {
                    next - span
                } else {
                    next % span
                };
                a
            }
            AddrGen::Rand { base, len } => {
                let span = (len / 8).max(1);
                base + (rand_word % span) * 8
            }
            AddrGen::Fixed { addr } => addr,
            AddrGen::Chase { base, len } => {
                let a = base + *cursor;
                // Full-period LCG over the line indices (lines is a power of
                // two in practice; a ≡ 1 mod 4 and odd c give full period),
                // so the walk visits every line with no spatial locality.
                let lines = (len / 64).max(1);
                let line = *cursor / 64;
                let next = line.wrapping_mul(2654435761).wrapping_add(12345);
                let next_line = if lines.is_power_of_two() {
                    next & (lines - 1)
                } else {
                    next % lines
                };
                *cursor = next_line * 64;
                a
            }
        }
    }
}

/// The taken/not-taken behaviour of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchPat {
    /// A loop back-edge: taken `count - 1` consecutive times, then not taken
    /// once (so a loop body placed before it executes exactly `count` times),
    /// then the cycle repeats — which makes nested loops work.
    Loop { count: u32 },
    /// Taken on every `k`-th dynamic execution (1-based): execution numbers
    /// `k, 2k, 3k, …` are taken. `Every { k: 1 }` is always taken.
    Every { k: u32 },
    /// Taken with probability `p_num / 256` using the thread RNG — the
    /// unpredictable branch that defeats the predictor.
    Rand { p_num: u8 },
    /// Unconditionally taken.
    Always,
    /// Never taken (falls through; still occupies a predictor slot).
    Never,
}

impl BranchPat {
    /// Decide the outcome of this dynamic execution, updating `ctr`
    /// (per-thread instruction state).
    pub fn outcome(&self, ctr: &mut u64, rand_byte: u8) -> bool {
        match *self {
            BranchPat::Loop { count } => {
                let c = count.max(1) as u64;
                *ctr += 1;
                if *ctr >= c {
                    *ctr = 0;
                    false
                } else {
                    true
                }
            }
            BranchPat::Every { k } => {
                let k = k.max(1) as u64;
                *ctr += 1;
                if *ctr >= k {
                    *ctr = 0;
                    true
                } else {
                    false
                }
            }
            BranchPat::Rand { p_num } => rand_byte < p_num,
            BranchPat::Always => true,
            BranchPat::Never => false,
        }
    }
}

/// One instruction of the synthetic ISA.
///
/// Every instruction occupies 4 bytes of the text segment; the instruction at
/// index `i` has PC `TEXT_BASE + 4 * i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// Integer ALU operation (1 cycle).
    Int,
    /// Floating-point add.
    FAdd,
    /// Floating-point multiply.
    FMul,
    /// Fused multiply-add: one instruction, two FLOPs.
    FFma,
    /// Floating-point divide (long latency).
    FDiv,
    /// Floating-point convert/round — the instruction class that inflated
    /// POWER3 FP-instruction counts in the paper's calibration anecdote.
    FCvt,
    /// Memory load through D-TLB, L1D and L2.
    Load(AddrGen),
    /// Memory store (write-buffered: cheaper than a load on a miss).
    Store(AddrGen),
    /// Conditional branch to an absolute instruction index.
    Br { pat: BranchPat, target: u32 },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Call: pushes the return index and jumps.
    Call { target: u32 },
    /// Return to the most recent call site (halts the thread on an empty
    /// stack — i.e. returning from the entry function).
    Ret,
    /// No-op (still fetched and retired).
    Nop,
    /// Instrumentation probe: traps out of the simulation to the runner with
    /// this id. This is how the dynaprof reproduction patches code.
    Probe { id: u32 },
    /// Send one message token to an inter-thread channel (non-blocking).
    Send { chan: u16 },
    /// Receive one message token from a channel, blocking the thread until
    /// one is available.
    Recv { chan: u16 },
    /// Stop the current thread.
    Halt,
}

impl Inst {
    /// True for instructions that redirect control flow when executed
    /// (unconditionally or when taken).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::Jmp { .. } | Inst::Call { .. } | Inst::Ret
        )
    }

    /// True for the floating-point arithmetic class (not converts).
    pub fn is_fp_arith(&self) -> bool {
        matches!(self, Inst::FAdd | Inst::FMul | Inst::FFma | Inst::FDiv)
    }

    /// True for loads and stores.
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load(_) | Inst::Store(_))
    }
}

// JSON in the derive shape (see `papi_obs::json`), enums externally
// tagged: `"Int"`, `{"Load": {"Stride": {"base": 0, "stride": 8, "len": 64}}}`,
// `{"Br": {"pat": {"Loop": {"count": 3}}, "target": 5}}`.

fn unknown<T>(what: &str, name: &str) -> Result<T, JsonError> {
    Err(JsonError::shape(format!("unknown {what} variant `{name}`")))
}

impl ToJson for AddrGen {
    fn to_json(&self) -> Value {
        let (name, fields) = match *self {
            AddrGen::Stride { base, stride, len } => (
                "Stride",
                Value::object([
                    ("base", base.to_json()),
                    ("stride", stride.to_json()),
                    ("len", len.to_json()),
                ]),
            ),
            AddrGen::Rand { base, len } => (
                "Rand",
                Value::object([("base", base.to_json()), ("len", len.to_json())]),
            ),
            AddrGen::Fixed { addr } => ("Fixed", Value::object([("addr", addr.to_json())])),
            AddrGen::Chase { base, len } => (
                "Chase",
                Value::object([("base", base.to_json()), ("len", len.to_json())]),
            ),
        };
        Value::tagged(name, fields)
    }
}

impl FromJson for AddrGen {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let (name, f) = v.variant()?;
        Ok(match name {
            "Stride" => AddrGen::Stride {
                base: f.field("base")?,
                stride: f.field("stride")?,
                len: f.field("len")?,
            },
            "Rand" => AddrGen::Rand {
                base: f.field("base")?,
                len: f.field("len")?,
            },
            "Fixed" => AddrGen::Fixed {
                addr: f.field("addr")?,
            },
            "Chase" => AddrGen::Chase {
                base: f.field("base")?,
                len: f.field("len")?,
            },
            other => return unknown("AddrGen", other),
        })
    }
}

impl ToJson for BranchPat {
    fn to_json(&self) -> Value {
        let field =
            |name: &str, key: &str, v: Value| Value::tagged(name, Value::object([(key, v)]));
        match *self {
            BranchPat::Loop { count } => field("Loop", "count", count.to_json()),
            BranchPat::Every { k } => field("Every", "k", k.to_json()),
            BranchPat::Rand { p_num } => field("Rand", "p_num", p_num.to_json()),
            BranchPat::Always => "Always".to_json(),
            BranchPat::Never => "Never".to_json(),
        }
    }
}

impl FromJson for BranchPat {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let (name, f) = v.variant()?;
        Ok(match name {
            "Loop" => BranchPat::Loop {
                count: f.field("count")?,
            },
            "Every" => BranchPat::Every { k: f.field("k")? },
            "Rand" => BranchPat::Rand {
                p_num: f.field("p_num")?,
            },
            "Always" => BranchPat::Always,
            "Never" => BranchPat::Never,
            other => return unknown("BranchPat", other),
        })
    }
}

impl ToJson for Inst {
    fn to_json(&self) -> Value {
        let one = |name: &str, key: &str, v: Value| Value::tagged(name, Value::object([(key, v)]));
        match *self {
            Inst::Int => "Int".to_json(),
            Inst::FAdd => "FAdd".to_json(),
            Inst::FMul => "FMul".to_json(),
            Inst::FFma => "FFma".to_json(),
            Inst::FDiv => "FDiv".to_json(),
            Inst::FCvt => "FCvt".to_json(),
            Inst::Load(g) => Value::tagged("Load", g.to_json()),
            Inst::Store(g) => Value::tagged("Store", g.to_json()),
            Inst::Br { pat, target } => Value::tagged(
                "Br",
                Value::object([("pat", pat.to_json()), ("target", target.to_json())]),
            ),
            Inst::Jmp { target } => one("Jmp", "target", target.to_json()),
            Inst::Call { target } => one("Call", "target", target.to_json()),
            Inst::Ret => "Ret".to_json(),
            Inst::Nop => "Nop".to_json(),
            Inst::Probe { id } => one("Probe", "id", id.to_json()),
            Inst::Send { chan } => one("Send", "chan", chan.to_json()),
            Inst::Recv { chan } => one("Recv", "chan", chan.to_json()),
            Inst::Halt => "Halt".to_json(),
        }
    }
}

impl FromJson for Inst {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let (name, f) = v.variant()?;
        Ok(match name {
            "Int" => Inst::Int,
            "FAdd" => Inst::FAdd,
            "FMul" => Inst::FMul,
            "FFma" => Inst::FFma,
            "FDiv" => Inst::FDiv,
            "FCvt" => Inst::FCvt,
            "Load" => Inst::Load(AddrGen::from_json(f)?),
            "Store" => Inst::Store(AddrGen::from_json(f)?),
            "Br" => Inst::Br {
                pat: f.field("pat")?,
                target: f.field("target")?,
            },
            "Jmp" => Inst::Jmp {
                target: f.field("target")?,
            },
            "Call" => Inst::Call {
                target: f.field("target")?,
            },
            "Ret" => Inst::Ret,
            "Nop" => Inst::Nop,
            "Probe" => Inst::Probe { id: f.field("id")? },
            "Send" => Inst::Send {
                chan: f.field("chan")?,
            },
            "Recv" => Inst::Recv {
                chan: f.field("chan")?,
            },
            "Halt" => Inst::Halt,
            other => return unknown("Inst", other),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_wraps_at_len() {
        let g = AddrGen::Stride {
            base: 0x1000,
            stride: 8,
            len: 24,
        };
        let mut c = 0;
        let seq: Vec<u64> = (0..5).map(|_| g.next(&mut c, 0)).collect();
        assert_eq!(seq, vec![0x1000, 0x1008, 0x1010, 0x1000, 0x1008]);
    }

    #[test]
    fn fixed_is_fixed() {
        let g = AddrGen::Fixed { addr: 0x42 };
        let mut c = 0;
        assert_eq!(g.next(&mut c, 7), 0x42);
        assert_eq!(g.next(&mut c, 99), 0x42);
    }

    #[test]
    fn rand_stays_in_region_and_aligned() {
        let g = AddrGen::Rand {
            base: 0x2000,
            len: 256,
        };
        let mut c = 0;
        for w in 0..1000u64 {
            let a = g.next(&mut c, w.wrapping_mul(0x9E3779B97F4A7C15));
            assert!((0x2000..0x2000 + 256).contains(&a));
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn chase_stays_in_region_line_aligned() {
        let g = AddrGen::Chase {
            base: 0x4000,
            len: 4096,
        };
        let mut c = 0;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let a = g.next(&mut c, 0);
            assert!((0x4000..0x4000 + 4096).contains(&a));
            seen.insert(a / 64);
        }
        // The walk must visit many distinct lines, not sit on one.
        assert!(seen.len() > 8, "chase visited only {} lines", seen.len());
    }

    #[test]
    fn loop_pattern_runs_body_count_times() {
        // Loop { count: 3 } as a back-edge: body runs 3 times per entry.
        let p = BranchPat::Loop { count: 3 };
        let mut ctr = 0;
        // taken, taken, not-taken; then the cycle repeats.
        assert!(p.outcome(&mut ctr, 0));
        assert!(p.outcome(&mut ctr, 0));
        assert!(!p.outcome(&mut ctr, 0));
        assert!(p.outcome(&mut ctr, 0));
        assert!(p.outcome(&mut ctr, 0));
        assert!(!p.outcome(&mut ctr, 0));
    }

    #[test]
    fn loop_count_one_never_taken() {
        let p = BranchPat::Loop { count: 1 };
        let mut ctr = 0;
        for _ in 0..5 {
            assert!(!p.outcome(&mut ctr, 0));
        }
    }

    #[test]
    fn every_k_taken_on_kth() {
        let p = BranchPat::Every { k: 4 };
        let mut ctr = 0;
        let outcomes: Vec<bool> = (0..8).map(|_| p.outcome(&mut ctr, 0)).collect();
        assert_eq!(
            outcomes,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn always_never() {
        let mut c = 0;
        assert!(BranchPat::Always.outcome(&mut c, 0));
        assert!(!BranchPat::Never.outcome(&mut c, 255));
    }

    #[test]
    fn rand_probability_rough() {
        let p = BranchPat::Rand { p_num: 128 };
        let mut c = 0;
        let taken = (0..=255u16).filter(|&b| p.outcome(&mut c, b as u8)).count();
        assert_eq!(taken, 128); // bytes 0..128 are taken
    }

    #[test]
    fn classification_helpers() {
        assert!(Inst::FAdd.is_fp_arith());
        assert!(!Inst::FCvt.is_fp_arith());
        assert!(Inst::Load(AddrGen::Fixed { addr: 0 }).is_mem());
        assert!(Inst::Ret.is_control());
        assert!(!Inst::Nop.is_control());
    }
}
