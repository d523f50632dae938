//! PAPI preset events and their per-platform mapping to native events.
//!
//! A *preset* is a standard event name (`PAPI_FP_OPS`, `PAPI_L1_DCM`, …)
//! with a platform-independent meaning, here expressed as a formula over the
//! machine-level [`EventKind`] signals. At initialization the library maps
//! each preset onto this platform's native events:
//!
//! 1. a single native event whose signal vector equals the formula
//!    (*direct* mapping),
//! 2. a sum of two native events (*derived add*),
//! 3. a difference of two native events (*derived sub*),
//! 4. failing all of those, a single native event (or pair-sum) that counts
//!    a **superset** of the formula — an *inexact* mapping, flagged as such.
//!
//! Inexact mappings reproduce the paper's data-interpretation lesson: on the
//! POWER3-like platform `PAPI_FP_INS` maps to `PM_FPU_CMPL`, which also
//! counts convert/rounding instructions, so measured counts exceed the
//! analytic expectation exactly as the paper's users observed.

use crate::alloc::{is_allocatable, AllocModel, AllocTranslation};
use crate::error::{PapiError, Result};
use simcpu::platform::GroupDef;
use simcpu::{EventKind, NativeEventDesc};
use std::collections::BTreeMap;

/// Bit marking preset event codes (mirrors `PAPI_PRESET_MASK`).
pub const PRESET_MASK: u32 = 0x8000_0000;

macro_rules! presets {
    ($( $idx:literal $variant:ident $name:literal $descr:literal => [ $( ($kind:ident, $coeff:literal) ),+ ] ; )+) => {
        /// The standard preset events.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u32)]
        pub enum Preset {
            $( #[doc = $descr] $variant = PRESET_MASK | $idx, )+
        }

        impl Preset {
            /// Every preset, in code order.
            pub const ALL: &'static [Preset] = &[ $( Preset::$variant, )+ ];

            /// The `PAPI_*` name.
            pub fn name(self) -> &'static str {
                match self {
                    $( Preset::$variant => $name, )+
                }
            }

            /// Human-readable description.
            pub fn descr(self) -> &'static str {
                match self {
                    $( Preset::$variant => $descr, )+
                }
            }

            /// The platform-independent formula over machine signals.
            pub fn formula(self) -> &'static [(EventKind, i64)] {
                match self {
                    $( Preset::$variant => &[ $( (EventKind::$kind, $coeff) ),+ ], )+
                }
            }
        }
    };
}

presets! {
    0  TotCyc "PAPI_TOT_CYC" "Total cycles" => [(Cycles, 1)];
    1  TotIns "PAPI_TOT_INS" "Instructions completed" => [(Instructions, 1)];
    2  IntIns "PAPI_INT_INS" "Integer instructions" => [(IntOps, 1)];
    3  FpIns  "PAPI_FP_INS"  "Floating point instructions" => [(FpAdd, 1), (FpMul, 1), (FpFma, 1), (FpDiv, 1)];
    4  FpOps  "PAPI_FP_OPS"  "Floating point operations (FMA counts as two)" => [(FpAdd, 1), (FpMul, 1), (FpFma, 2), (FpDiv, 1)];
    5  FmaIns "PAPI_FMA_INS" "Fused multiply-add instructions" => [(FpFma, 1)];
    6  FdvIns "PAPI_FDV_INS" "Floating point divide instructions" => [(FpDiv, 1)];
    7  LdIns  "PAPI_LD_INS"  "Load instructions" => [(Loads, 1)];
    8  SrIns  "PAPI_SR_INS"  "Store instructions" => [(Stores, 1)];
    9  LstIns "PAPI_LST_INS" "Load/store instructions" => [(Loads, 1), (Stores, 1)];
    10 L1Dca  "PAPI_L1_DCA"  "L1 data cache accesses" => [(L1DAccess, 1)];
    11 L1Dcm  "PAPI_L1_DCM"  "L1 data cache misses" => [(L1DMiss, 1)];
    12 L1Icm  "PAPI_L1_ICM"  "L1 instruction cache misses" => [(L1IMiss, 1)];
    13 L1Tcm  "PAPI_L1_TCM"  "L1 total cache misses" => [(L1DMiss, 1), (L1IMiss, 1)];
    14 L2Tca  "PAPI_L2_TCA"  "L2 total cache accesses" => [(L2Access, 1)];
    15 L2Tcm  "PAPI_L2_TCM"  "L2 total cache misses" => [(L2Miss, 1)];
    16 TlbDm  "PAPI_TLB_DM"  "Data TLB misses" => [(DtlbMiss, 1)];
    17 TlbIm  "PAPI_TLB_IM"  "Instruction TLB misses" => [(ItlbMiss, 1)];
    18 TlbTl  "PAPI_TLB_TL"  "Total TLB misses" => [(DtlbMiss, 1), (ItlbMiss, 1)];
    19 BrIns  "PAPI_BR_INS"  "Conditional branch instructions" => [(Branches, 1)];
    20 BrTkn  "PAPI_BR_TKN"  "Conditional branches taken" => [(BranchTaken, 1)];
    21 BrNtk  "PAPI_BR_NTK"  "Conditional branches not taken" => [(Branches, 1), (BranchTaken, -1)];
    22 BrMsp  "PAPI_BR_MSP"  "Conditional branches mispredicted" => [(BranchMispred, 1)];
    23 BrPrc  "PAPI_BR_PRC"  "Conditional branches correctly predicted" => [(Branches, 1), (BranchMispred, -1)];
    24 ResStl "PAPI_RES_STL" "Cycles stalled on any resource" => [(StallCycles, 1)];
}

impl Preset {
    /// The preset event code (`PRESET_MASK | index`).
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Decode a preset code.
    pub fn from_code(code: u32) -> Option<Preset> {
        Preset::ALL.iter().copied().find(|p| p.code() == code)
    }

    /// Look up a preset by its `PAPI_*` name.
    pub fn from_name(name: &str) -> Option<Preset> {
        Preset::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// True if `code` is in the preset code space.
pub fn is_preset_code(code: u32) -> bool {
    code & PRESET_MASK != 0
}

/// How a preset was realized on this platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// Native terms: `(native code, coefficient)` — the preset's value is
    /// the coefficient-weighted sum of the native counts.
    pub terms: Vec<(u32, i64)>,
    /// True when the native combination counts a superset of the preset's
    /// definition (platform semantics differ — interpret with care).
    pub inexact: bool,
}

impl Mapping {
    /// `DERIVED_*` style tag for display.
    pub fn kind(&self) -> &'static str {
        match (
            self.terms.len(),
            self.terms.iter().any(|&(_, c)| c < 0),
            self.inexact,
        ) {
            (1, _, false) => "DIRECT",
            (_, false, false) => "DERIVED_ADD",
            (_, true, false) => "DERIVED_SUB",
            _ => "INEXACT",
        }
    }
}

/// The per-platform preset table, built once at `Papi::init`.
#[derive(Debug, Clone, Default)]
pub struct PresetTable {
    map: BTreeMap<u32, Mapping>,
}

type KindVec = [i64; simcpu::pmu::NUM_EVENT_KINDS];

fn kind_vec_of(e: &NativeEventDesc) -> KindVec {
    let mut v = [0i64; simcpu::pmu::NUM_EVENT_KINDS];
    for &(k, m) in &e.kinds {
        v[k as usize] += m as i64;
    }
    v
}

fn formula_vec(p: Preset) -> KindVec {
    let mut v = [0i64; simcpu::pmu::NUM_EVENT_KINDS];
    for &(k, c) in p.formula() {
        v[k as usize] += c;
    }
    v
}

fn add(a: &KindVec, b: &KindVec, sign: i64) -> KindVec {
    let mut r = *a;
    for (r, b) in r.iter_mut().zip(b) {
        *r += sign * b;
    }
    r
}

/// `combo` counts a superset of `want`: every wanted signal is counted at
/// least as often, nothing is counted negatively, and `want` has no negative
/// coefficients itself.
fn is_superset(combo: &KindVec, want: &KindVec) -> bool {
    want.iter()
        .zip(combo)
        .all(|(w, c)| *w >= 0 && *c >= *w && (*w > 0 || *c >= 0))
}

impl PresetTable {
    /// Map every preset onto `events`, using the search order documented at
    /// the module level. A candidate combination is accepted only if its
    /// native events can actually be counted *simultaneously* on this
    /// platform (counter masks admit a matching / one group contains them):
    /// a derived event whose terms collide on a single counter is not
    /// "available" in any useful sense.
    pub fn build(
        events: &[NativeEventDesc],
        num_counters: usize,
        groups: &[GroupDef],
    ) -> PresetTable {
        Self::build_with(events, &AllocModel::for_platform(num_counters, groups))
    }

    /// [`PresetTable::build`] against an explicit allocation-translation
    /// model (the PAPI-3 split: the table never inspects masks or groups
    /// itself).
    pub fn build_with(events: &[NativeEventDesc], model: &dyn AllocTranslation) -> PresetTable {
        let vecs: Vec<KindVec> = events.iter().map(kind_vec_of).collect();
        let feasible = |idxs: &[usize]| -> bool {
            let codes: Vec<u32> = idxs.iter().map(|&i| events[i].code).collect();
            is_allocatable(model, &codes, events)
        };
        let mut map = BTreeMap::new();
        for &p in Preset::ALL {
            let want = formula_vec(p);
            if let Some(m) = Self::search(events, &vecs, &want, &feasible) {
                map.insert(p.code(), m);
            }
        }
        PresetTable { map }
    }

    fn search(
        events: &[NativeEventDesc],
        vecs: &[KindVec],
        want: &KindVec,
        feasible: &dyn Fn(&[usize]) -> bool,
    ) -> Option<Mapping> {
        // 1. direct
        for (i, v) in vecs.iter().enumerate() {
            if v == want && feasible(&[i]) {
                return Some(Mapping {
                    terms: vec![(events[i].code, 1)],
                    inexact: false,
                });
            }
        }
        // 2. derived add / 3. derived sub. The allocator is asked only about
        // a pair whose signals already match: `feasible` is pure, so the
        // first pair accepted is the same in either order.
        for i in 0..vecs.len() {
            for j in 0..vecs.len() {
                if i == j {
                    continue;
                }
                let sum = i < j && add(&vecs[i], &vecs[j], 1) == *want;
                if !(sum || add(&vecs[i], &vecs[j], -1) == *want) || !feasible(&[i, j]) {
                    continue;
                }
                let sign = if sum { 1 } else { -1 };
                return Some(Mapping {
                    terms: vec![(events[i].code, 1), (events[j].code, sign)],
                    inexact: false,
                });
            }
        }
        // Inexact mappings are only acceptable when the native combination
        // is *close*: at most one extra signal class beyond the preset's
        // definition (e.g. converts folded into an FP-instruction counter).
        // Anything looser would "map" semantically unrelated events.
        let extra_kinds = |combo: &KindVec| -> usize {
            combo
                .iter()
                .zip(want)
                .filter(|(c, w)| **c > 0 && **w == 0)
                .count()
        };
        // 4. inexact single superset — prefer the tightest.
        let mut best: Option<(usize, usize)> = None; // (extra_kinds, idx)
        for (i, v) in vecs.iter().enumerate() {
            if is_superset(v, want) && feasible(&[i]) {
                let extra = extra_kinds(v);
                if extra <= 1 && best.is_none_or(|(be, _)| extra < be) {
                    best = Some((extra, i));
                }
            }
        }
        if let Some((_, i)) = best {
            return Some(Mapping {
                terms: vec![(events[i].code, 1)],
                inexact: true,
            });
        }
        // 5. inexact pair sum superset
        for i in 0..vecs.len() {
            for j in (i + 1)..vecs.len() {
                let combo = add(&vecs[i], &vecs[j], 1);
                if is_superset(&combo, want) && extra_kinds(&combo) <= 1 && feasible(&[i, j]) {
                    return Some(Mapping {
                        terms: vec![(events[i].code, 1), (events[j].code, 1)],
                        inexact: true,
                    });
                }
            }
        }
        None
    }

    /// The mapping for a preset code, if the platform supports it.
    pub fn mapping(&self, code: u32) -> Option<&Mapping> {
        self.map.get(&code)
    }

    /// `PAPI_query_event` for presets.
    pub fn available(&self, p: Preset) -> bool {
        self.map.contains_key(&p.code())
    }

    /// All available presets.
    pub fn available_presets(&self) -> Vec<Preset> {
        Preset::ALL
            .iter()
            .copied()
            .filter(|p| self.available(*p))
            .collect()
    }

    /// Resolve a PAPI event code (preset or native) to native terms.
    pub fn resolve(&self, code: u32, natives: &[NativeEventDesc]) -> Result<Mapping> {
        if is_preset_code(code) {
            if Preset::from_code(code).is_none() {
                return Err(PapiError::NotPreset(code));
            }
            self.mapping(code).cloned().ok_or(PapiError::NoEvnt(code))
        } else {
            if natives.iter().any(|e| e.code == code) {
                Ok(Mapping {
                    terms: vec![(code, 1)],
                    inexact: false,
                })
            } else {
                Err(PapiError::NoEvnt(code))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::platform::{all_platforms, sim_generic, sim_power3, sim_t3e, sim_x86};

    #[test]
    fn preset_codes_have_mask_and_are_unique() {
        let mut codes: Vec<u32> = Preset::ALL.iter().map(|p| p.code()).collect();
        for c in &codes {
            assert!(is_preset_code(*c));
        }
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n);
    }

    #[test]
    fn from_code_and_name_roundtrip() {
        for &p in Preset::ALL {
            assert_eq!(Preset::from_code(p.code()), Some(p));
            assert_eq!(Preset::from_name(p.name()), Some(p));
        }
        assert_eq!(Preset::from_code(PRESET_MASK | 9999), None);
        assert_eq!(Preset::from_name("PAPI_BOGUS"), None);
    }

    #[test]
    fn generic_platform_maps_everything_exactly() {
        let p = sim_generic();
        let t = PresetTable::build(&p.events, p.num_counters, &p.groups);
        for &pr in Preset::ALL {
            let m = t
                .mapping(pr.code())
                .unwrap_or_else(|| panic!("{} unavailable", pr.name()));
            assert!(!m.inexact, "{} inexact on sim-generic", pr.name());
        }
    }

    #[test]
    fn x86_direct_and_derived() {
        let p = sim_x86();
        let t = PresetTable::build(&p.events, p.num_counters, &p.groups);
        // Direct: cycles
        let cyc = t.mapping(Preset::TotCyc.code()).unwrap();
        assert_eq!(cyc.kind(), "DIRECT");
        // TLB_TL must be a derived add of DTLB+ITLB misses
        let tl = t.mapping(Preset::TlbTl.code()).unwrap();
        assert_eq!(tl.kind(), "DERIVED_ADD");
        assert_eq!(tl.terms.len(), 2);
        // BR_NTK = branches - taken: derived sub
        let ntk = t.mapping(Preset::BrNtk.code()).unwrap();
        assert_eq!(ntk.kind(), "DERIVED_SUB");
        assert!(ntk.terms.iter().any(|&(_, c)| c == -1));
    }

    #[test]
    fn power3_fp_ins_is_inexact_rounding_quirk() {
        let p = sim_power3();
        let t = PresetTable::build(&p.events, p.num_counters, &p.groups);
        let m = t.mapping(Preset::FpIns.code()).expect("FP_INS should map");
        assert!(
            m.inexact,
            "PM_FPU_CMPL counts converts: mapping must be flagged inexact"
        );
        let fpu = p.event_by_name("PM_FPU_CMPL").unwrap();
        assert_eq!(m.terms[0].0, fpu.code);
    }

    #[test]
    fn t3e_lacks_tlb_and_l2_presets() {
        let p = sim_t3e();
        let t = PresetTable::build(&p.events, p.num_counters, &p.groups);
        assert!(!t.available(Preset::TlbDm));
        assert!(!t.available(Preset::L2Tcm));
        assert!(t.available(Preset::TotCyc));
        assert!(t.available(Preset::FpOps));
    }

    #[test]
    fn every_platform_maps_the_core_presets() {
        for plat in all_platforms() {
            let t = PresetTable::build(&plat.events, plat.num_counters, &plat.groups);
            for pr in [Preset::TotCyc, Preset::TotIns] {
                assert!(t.available(pr), "{} missing {}", plat.name, pr.name());
            }
        }
    }

    #[test]
    fn resolve_native_and_errors() {
        let p = sim_x86();
        let t = PresetTable::build(&p.events, p.num_counters, &p.groups);
        let native = p.events[0].code;
        let m = t.resolve(native, &p.events).unwrap();
        assert_eq!(m.terms, vec![(native, 1)]);
        assert!(matches!(
            t.resolve(0x4fff_0000, &p.events),
            Err(PapiError::NoEvnt(_))
        ));
        assert!(matches!(
            t.resolve(PRESET_MASK | 9999, &p.events),
            Err(PapiError::NotPreset(_))
        ));
    }

    #[test]
    fn mapping_values_match_formula_on_exact_mappings() {
        // For every exact mapping on every platform, the weighted sum of the
        // native kind-vectors must equal the preset formula.
        for plat in all_platforms() {
            let t = PresetTable::build(&plat.events, plat.num_counters, &plat.groups);
            for &pr in Preset::ALL {
                let Some(m) = t.mapping(pr.code()) else {
                    continue;
                };
                if m.inexact {
                    continue;
                }
                let mut combo = [0i64; simcpu::pmu::NUM_EVENT_KINDS];
                for &(code, coeff) in &m.terms {
                    let e = plat.event_by_code(code).unwrap();
                    for &(k, mult) in &e.kinds {
                        combo[k as usize] += coeff * mult as i64;
                    }
                }
                let want = formula_vec(pr);
                assert_eq!(combo, want, "{} on {}", pr.name(), plat.name);
            }
        }
    }

    #[test]
    fn available_presets_sorted_nonempty() {
        let p = sim_x86();
        let t = PresetTable::build(&p.events, p.num_counters, &p.groups);
        let avail = t.available_presets();
        assert!(
            avail.len() >= 15,
            "x86 should map most presets, got {}",
            avail.len()
        );
    }
}
