//! Counter allocation — the PAPI-3 split of §5.
//!
//! Following the paper's PAPI-3 design, allocation is split into two halves:
//!
//! * a **hardware-independent solver** ([`solver`]) — bipartite matching
//!   over abstract constraint rows (bitmasks), knowing nothing about the
//!   platform, and
//! * a **hardware-dependent translation** ([`AllocTranslation`]) — each
//!   substrate describes how its constraint scheme (per-event counter masks,
//!   or POWER-style fixed groups) maps onto solver rows via
//!   [`crate::Substrate::alloc_model`].
//!
//! The portable layer never special-cases group platforms: it asks the
//! substrate for candidate [`ConstraintSet`]s and hands each to the solver
//! until one admits a complete matching. Group semantics (all events must
//! co-reside in one group; the assignment is the event's slot within it) are
//! encoded entirely by [`GroupModel`]'s translation into single-bit rows.

use simcpu::platform::GroupDef;
use simcpu::NativeEventDesc;

pub mod solver;

pub use solver::{
    greedy_first_fit, max_cardinality_assign, max_weight_assign, optimal_assign,
    optimal_assign_stats, AllocStats,
};

/// One candidate allocation instance in the solver's abstract vocabulary:
/// `rows[i]` is the bitmask of counters event `i` may occupy among
/// `num_counters` slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintSet {
    /// Per-event allowed-counter bitmask, parallel to the requested codes.
    pub rows: Vec<u32>,
    /// Number of counter slots in this candidate.
    pub num_counters: usize,
    /// Hardware tag for the candidate (the group id on group platforms).
    pub tag: Option<u32>,
}

/// The hardware-dependent half of the PAPI-3 allocation split: translate a
/// request for native event codes into solver instances.
///
/// Candidates are tried in order; the first one the solver can satisfy
/// wins. Mask platforms produce exactly one candidate; group platforms
/// produce one per group containing every requested event.
pub trait AllocTranslation {
    fn translate(&self, codes: &[u32], natives: &[NativeEventDesc]) -> Vec<ConstraintSet>;
}

/// Translation for platforms with per-event counter masks (x86 style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskModel {
    pub num_counters: usize,
}

impl AllocTranslation for MaskModel {
    fn translate(&self, codes: &[u32], natives: &[NativeEventDesc]) -> Vec<ConstraintSet> {
        let rows = codes
            .iter()
            .map(|&c| {
                natives
                    .iter()
                    .find(|e| e.code == c)
                    .map(|e| e.counter_mask)
                    .unwrap_or(0)
            })
            .collect();
        vec![ConstraintSet {
            rows,
            num_counters: self.num_counters,
            tag: None,
        }]
    }
}

/// Translation for group-allocated platforms (POWER style): the requested
/// events must all appear in a single group, and each event's only legal
/// "counter" is its slot within that group — a single-bit solver row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupModel {
    pub groups: Vec<GroupDef>,
}

impl AllocTranslation for GroupModel {
    fn translate(&self, codes: &[u32], _natives: &[NativeEventDesc]) -> Vec<ConstraintSet> {
        let mut out = Vec::new();
        'groups: for g in &self.groups {
            if g.events.len() > 32 {
                continue; // slots beyond a u32 row cannot be expressed
            }
            let mut rows = Vec::with_capacity(codes.len());
            for code in codes {
                match g.events.iter().position(|e| e == code) {
                    Some(pos) => rows.push(1u32 << pos),
                    None => continue 'groups,
                }
            }
            out.push(ConstraintSet {
                rows,
                num_counters: g.events.len(),
                tag: Some(g.id),
            });
        }
        out
    }
}

/// The two built-in translation schemes, constructible straight from a
/// platform description. Substrates with exotic constraint languages can
/// implement [`AllocTranslation`] directly instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocModel {
    Masks(MaskModel),
    Groups(GroupModel),
}

impl AllocModel {
    /// Mask-based when `groups` is empty, group-based otherwise — the same
    /// dichotomy `PlatformSpec` expresses.
    pub fn for_platform(num_counters: usize, groups: &[GroupDef]) -> AllocModel {
        if groups.is_empty() {
            AllocModel::Masks(MaskModel { num_counters })
        } else {
            AllocModel::Groups(GroupModel {
                groups: groups.to_vec(),
            })
        }
    }
}

impl AllocTranslation for AllocModel {
    fn translate(&self, codes: &[u32], natives: &[NativeEventDesc]) -> Vec<ConstraintSet> {
        match self {
            AllocModel::Masks(m) => m.translate(codes, natives),
            AllocModel::Groups(g) => g.translate(codes, natives),
        }
    }
}

/// The machine-independent allocation driver: translate, then solve each
/// candidate in order until one matches. Search effort across all candidates
/// accumulates into `stats`.
pub fn allocate_with(
    model: &dyn AllocTranslation,
    codes: &[u32],
    natives: &[NativeEventDesc],
    stats: &mut AllocStats,
) -> Option<Vec<usize>> {
    for cand in model.translate(codes, natives) {
        if let Some(assign) = solver::optimal_assign_stats(&cand.rows, cand.num_counters, stats) {
            return Some(assign);
        }
    }
    None
}

/// Is `codes` allocatable under `model` at all? (Used by preset-table
/// construction and multiplex partitioning, which probe many candidates.)
pub fn is_allocatable(
    model: &dyn AllocTranslation,
    codes: &[u32],
    natives: &[NativeEventDesc],
) -> bool {
    allocate_with(model, codes, natives, &mut AllocStats::default()).is_some()
}

/// Group-constrained allocation (POWER style): the requested native codes
/// must all appear in a single group; the assignment is the event's position
/// within that group. Returns `(group id, counter per requested code)`.
///
/// This is the pre-split reference implementation; the live path goes
/// through [`GroupModel`] + the solver. Kept public for the equivalence
/// property tests and the ablation experiments.
pub fn allocate_in_group(codes: &[u32], groups: &[GroupDef]) -> Option<(u32, Vec<usize>)> {
    'groups: for g in groups {
        let mut assign = Vec::with_capacity(codes.len());
        for code in codes {
            match g.events.iter().position(|e| e == code) {
                Some(pos) => assign.push(pos),
                None => continue 'groups,
            }
        }
        return Some((g.id, assign));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::platform::{sim_power3, sim_x86};

    fn groups_fixture() -> Vec<GroupDef> {
        vec![
            GroupDef {
                id: 0,
                name: "g0",
                events: vec![10, 11, 12],
            },
            GroupDef {
                id: 1,
                name: "g1",
                events: vec![10, 13, 14, 15],
            },
        ]
    }

    #[test]
    fn group_allocation_finds_containing_group() {
        let groups = groups_fixture();
        let (g, assign) = allocate_in_group(&[13, 10], &groups).unwrap();
        assert_eq!(g, 1);
        assert_eq!(assign, vec![1, 0]);
        assert!(allocate_in_group(&[11, 13], &groups).is_none()); // spans groups
        assert!(allocate_in_group(&[99], &groups).is_none());
    }

    #[test]
    fn group_model_translation_matches_reference_impl() {
        let groups = groups_fixture();
        let model = GroupModel {
            groups: groups.clone(),
        };
        for codes in [
            vec![13u32, 10],
            vec![10, 11, 12],
            vec![11, 13],
            vec![99],
            vec![15, 14, 13, 10],
        ] {
            let reference = allocate_in_group(&codes, &groups).map(|(_, a)| a);
            let split = allocate_with(&model, &codes, &[], &mut AllocStats::default());
            assert_eq!(split, reference, "codes {codes:?}");
        }
    }

    #[test]
    fn group_model_candidates_carry_group_tags_in_order() {
        let model = GroupModel {
            groups: groups_fixture(),
        };
        let cands = model.translate(&[10], &[]);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].tag, Some(0));
        assert_eq!(cands[1].tag, Some(1));
        // Single-bit rows: slot position in the group.
        assert_eq!(cands[0].rows, vec![0b001]);
        assert_eq!(cands[0].num_counters, 3);
        assert_eq!(cands[1].num_counters, 4);
    }

    #[test]
    fn mask_model_matches_direct_solver_call() {
        let spec = sim_x86();
        let model = MaskModel {
            num_counters: spec.num_counters,
        };
        let codes: Vec<u32> = spec.events.iter().take(3).map(|e| e.code).collect();
        let masks: Vec<u32> = spec.events.iter().take(3).map(|e| e.counter_mask).collect();
        let direct = optimal_assign(&masks, spec.num_counters);
        let via_model = allocate_with(&model, &codes, &spec.events, &mut AllocStats::default());
        assert_eq!(via_model, direct);
    }

    #[test]
    fn unknown_code_yields_empty_mask_row_and_fails() {
        let spec = sim_x86();
        let model = MaskModel {
            num_counters: spec.num_counters,
        };
        assert!(allocate_with(
            &model,
            &[0x4fff_ffff],
            &spec.events,
            &mut AllocStats::default()
        )
        .is_none());
    }

    #[test]
    fn for_platform_picks_scheme_from_groups() {
        let x86 = sim_x86();
        assert!(matches!(
            AllocModel::for_platform(x86.num_counters, &x86.groups),
            AllocModel::Masks(_)
        ));
        let p3 = sim_power3();
        assert!(matches!(
            AllocModel::for_platform(p3.num_counters, &p3.groups),
            AllocModel::Groups(_)
        ));
    }

    #[test]
    fn power3_real_groups_equivalence() {
        // On the real POWER3 description, the split path and the reference
        // group matcher agree for every pair of native events.
        let spec = sim_power3();
        let model = AllocModel::for_platform(spec.num_counters, &spec.groups);
        for a in &spec.events {
            for b in &spec.events {
                if a.code == b.code {
                    continue;
                }
                let codes = [a.code, b.code];
                let reference = allocate_in_group(&codes, &spec.groups).map(|(_, x)| x);
                let split = allocate_with(&model, &codes, &spec.events, &mut AllocStats::default());
                assert_eq!(split, reference, "{} + {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn group_stats_record_solver_effort() {
        let model = GroupModel {
            groups: groups_fixture(),
        };
        let mut stats = AllocStats::default();
        allocate_with(&model, &[13, 10], &[], &mut stats).unwrap();
        // Group 0 lacks code 13, so only group 1 reaches the solver: one
        // probe per event, no displacement (rows are single-bit, disjoint).
        assert_eq!(stats.augment_steps, 2);
        assert_eq!(stats.backtracks, 0);
    }
}
