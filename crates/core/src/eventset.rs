//! EventSets: the low-level interface's unit of counter management.
//!
//! PAPI manages events in user-defined sets. A set is built while *stopped*
//! (events added or removed, multiplexing and domain configured), then
//! *started* — at which point the library resolves presets to native events,
//! solves counter allocation and programs the hardware. Version-3 semantics
//! apply: only one EventSet may run at a time (overlapping EventSets were
//! removed "to reduce memory usage and runtime overhead").
//!
//! A set's first `start` compiles it: the resolved read plan, the counter
//! assignment or multiplex partitions, the overflow routes and any
//! widening state (the `Compiled` form in `dispatch.rs`). The session owns
//! that form while the set runs; `stop` hands it back to the set, so a
//! later `start` of the unchanged set only reprograms the hardware from
//! it. Every stopped-state edit goes through `Papi::edit_set`, which
//! discards the compiled form, so the next `start` compiles the set as it
//! now stands.
//!
//! All data here is stopped-state configuration: it is only mutated inside
//! the owning session's exclusive phase (the [`crate::SeqCell`] odd
//! sequence stamp when the session lives in a
//! [`crate::threads::ThreadedPapi`] table), so the lock-free read path
//! never observes a half-edited set — the started snapshot lives in the
//! session's running compiled form, not here.

use crate::dispatch::Compiled;
use simcpu::{Domain, ThreadId};

/// Identifies an EventSet within a [`crate::Papi`] instance.
///
/// Ids are *session-local*: two sessions can both hand out id 0. The
/// thread layer wraps them in [`crate::threads::TaggedSetId`], which adds
/// the owning slot and occupant so a cross-thread lookup is rejected
/// instead of silently resolving to the wrong thread's set.
pub type EventSetId = usize;

/// Lifecycle state of an EventSet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetState {
    Stopped,
    Running,
}

/// Overflow registration attached to an EventSet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OverflowReg {
    /// PAPI event code within the set whose counter overflows.
    pub code: u32,
    pub threshold: u64,
    /// Index into `Papi::handlers` (user callback) or `Papi::profils`.
    pub route: OvfRoute,
}

/// Where an overflow interrupt is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OvfRoute {
    /// User callback registered via `Papi::overflow`.
    Handler(usize),
    /// SVR4-style profiling histogram registered via `Papi::profil`.
    Profil(usize),
}

/// The stored (stopped-state) contents of an EventSet.
pub(crate) struct EventSetData {
    pub events: Vec<u32>,
    pub domain: Domain,
    pub multiplex: bool,
    /// Switching period override for multiplexing, in cycles
    /// (`None` = [`crate::multiplex::DEFAULT_MPX_PERIOD_CYCLES`]).
    pub mpx_period: Option<u64>,
    /// Thread this set is attached to (PAPI_attach); `None` = the whole
    /// machine / current granularity.
    pub attached: Option<ThreadId>,
    pub state: SetState,
    pub overflow: Vec<OverflowReg>,
    /// The form the set's last `start` compiled, handed back by `stop`;
    /// `None` before the first start and after any stopped-state edit.
    pub compiled: Option<Compiled>,
}

impl EventSetData {
    pub fn new() -> Self {
        EventSetData {
            events: Vec::new(),
            domain: Domain::USER,
            multiplex: false,
            mpx_period: None,
            attached: None,
            state: SetState::Stopped,
            overflow: Vec::new(),
            compiled: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_set_defaults() {
        let s = EventSetData::new();
        assert_eq!(s.state, SetState::Stopped);
        assert_eq!(s.domain, Domain::USER);
        assert!(!s.multiplex);
        assert!(s.events.is_empty());
        assert!(s.compiled.is_none());
    }
}
