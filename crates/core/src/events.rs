//! Event queries, name/code translation, and EventSet bookkeeping
//! (create/destroy, add/remove, multiplex/domain/attach options).

use crate::error::{PapiError, Result};
use crate::eventset::{EventSetData, EventSetId, SetState};
use crate::preset::{is_preset_code, Preset};
use crate::session::Papi;
use crate::substrate::Substrate;
use papi_obs::{Counter as ObsCounter, JournalEvent as ObsEvent};
use simcpu::{Domain, NativeEventDesc, ThreadId};

impl<S: Substrate> Papi<S> {
    // --- event queries ------------------------------------------------------

    /// `PAPI_query_event`: can this event (preset or native) be counted?
    pub fn query_event(&self, code: u32) -> bool {
        self.presets.resolve(code, self.sub.native_events()).is_ok()
    }

    /// Translate an event name (either `PAPI_*` or a native mnemonic) to a
    /// code.
    pub fn event_name_to_code(&self, name: &str) -> Result<u32> {
        if let Some(p) = Preset::from_name(name) {
            return Ok(p.code());
        }
        self.sub
            .native_events()
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.code)
            .ok_or(PapiError::Inval("unknown event name"))
    }

    /// Translate an event code to its name.
    pub fn event_code_to_name(&self, code: u32) -> Result<String> {
        if is_preset_code(code) {
            return Preset::from_code(code)
                .map(|p| p.name().to_string())
                .ok_or(PapiError::NotPreset(code));
        }
        self.sub
            .native_events()
            .iter()
            .find(|e| e.code == code)
            .map(|e| e.name.to_string())
            .ok_or(PapiError::NoEvnt(code))
    }

    /// The native events this platform exposes (`PAPI_enum_event` over the
    /// native space).
    pub fn native_events(&self) -> &[NativeEventDesc] {
        self.sub.native_events()
    }

    // --- EventSet lifecycle -------------------------------------------------

    /// `PAPI_create_eventset`.
    pub fn create_eventset(&mut self) -> EventSetId {
        self.sets.push(Some(EventSetData::new()));
        let id = self.sets.len() - 1;
        if let Some(obs) = &self.obs {
            obs.inc(ObsCounter::EventsetCreated);
            obs.record(self.sub.real_cycles(), || ObsEvent::EventsetCreated {
                set: id,
            });
        }
        id
    }

    /// `PAPI_destroy_eventset` (must be stopped).
    pub fn destroy_eventset(&mut self, id: EventSetId) -> Result<()> {
        self.edit_set(id)?;
        self.sets[id] = None;
        if let Some(obs) = &self.obs {
            obs.inc(ObsCounter::EventsetDestroyed);
            obs.record(self.sub.real_cycles(), || ObsEvent::EventsetDestroyed {
                set: id,
            });
        }
        Ok(())
    }

    pub(crate) fn set_ref(&self, id: EventSetId) -> Result<&EventSetData> {
        self.sets
            .get(id)
            .and_then(|s| s.as_ref())
            .ok_or(PapiError::NoEvst(id))
    }

    pub(crate) fn set_mut(&mut self, id: EventSetId) -> Result<&mut EventSetData> {
        self.sets
            .get_mut(id)
            .and_then(|s| s.as_mut())
            .ok_or(PapiError::NoEvst(id))
    }

    /// The stopped set `id`, for an edit: `NoEvst` for an unknown id,
    /// `IsRun` while the set runs. Discards the set's compiled form, so
    /// its next `start` compiles the set as edited — the one gate every
    /// stopped-state change passes through.
    pub(crate) fn edit_set(&mut self, id: EventSetId) -> Result<&mut EventSetData> {
        let s = self.set_mut(id)?;
        if s.state == SetState::Running {
            return Err(PapiError::IsRun);
        }
        s.compiled = None;
        Ok(s)
    }

    /// `PAPI_add_event`: add a preset or native event to a stopped set.
    pub fn add_event(&mut self, id: EventSetId, code: u32) -> Result<()> {
        // Validate availability first (immutable borrows).
        self.presets.resolve(code, self.sub.native_events())?;
        let s = self.edit_set(id)?;
        if s.events.contains(&code) {
            return Err(PapiError::Inval("event already in set"));
        }
        s.events.push(code);
        Ok(())
    }

    /// Add several events at once.
    pub fn add_events(&mut self, id: EventSetId, codes: &[u32]) -> Result<()> {
        for &c in codes {
            self.add_event(id, c)?;
        }
        Ok(())
    }

    /// `PAPI_remove_event`.
    pub fn remove_event(&mut self, id: EventSetId, code: u32) -> Result<()> {
        let s = self.edit_set(id)?;
        let pos = s
            .events
            .iter()
            .position(|&e| e == code)
            .ok_or(PapiError::NoEvnt(code))?;
        s.events.remove(pos);
        s.overflow.retain(|o| o.code != code);
        Ok(())
    }

    /// `PAPI_list_events`.
    pub fn list_events(&self, id: EventSetId) -> Result<Vec<u32>> {
        Ok(self.set_ref(id)?.events.clone())
    }

    /// `PAPI_num_events`.
    pub fn num_events(&self, id: EventSetId) -> Result<usize> {
        Ok(self.set_ref(id)?.events.len())
    }

    /// `PAPI_state`.
    pub fn state(&self, id: EventSetId) -> Result<SetState> {
        Ok(self.set_ref(id)?.state)
    }

    /// `PAPI_set_multiplex`: opt this set into software multiplexing.
    /// Deliberately *not* the default — see the module docs of
    /// [`crate::multiplex`].
    pub fn set_multiplex(&mut self, id: EventSetId) -> Result<()> {
        let s = self.edit_set(id)?;
        if !s.overflow.is_empty() || s.attached.is_some() {
            return Err(PapiError::Cnflct);
        }
        s.multiplex = true;
        Ok(())
    }

    /// Override the multiplex switching period for a set (cycles). Shorter
    /// periods converge faster but cost more reprogramming overhead — the
    /// trade-off the E5 ablation sweeps.
    pub fn set_multiplex_period(&mut self, id: EventSetId, cycles: u64) -> Result<()> {
        if cycles == 0 {
            return Err(PapiError::Inval("zero multiplex period"));
        }
        self.edit_set(id)?.mpx_period = Some(cycles);
        Ok(())
    }

    /// `PAPI_set_domain` for a set.
    pub fn set_domain(&mut self, id: EventSetId, domain: Domain) -> Result<()> {
        self.edit_set(id)?.domain = domain;
        Ok(())
    }

    /// `PAPI_attach`: bind a stopped EventSet to a specific thread; reads
    /// and stop() then return counts attributed to that thread only.
    /// Requires per-thread counter virtualization
    /// ([`simcpu::Granularity::Thread`]); incompatible with multiplexing.
    pub fn attach(&mut self, id: EventSetId, thread: ThreadId) -> Result<()> {
        let s = self.edit_set(id)?;
        if s.multiplex {
            return Err(PapiError::Cnflct);
        }
        s.attached = Some(thread);
        Ok(())
    }

    /// `PAPI_detach`.
    pub fn detach(&mut self, id: EventSetId) -> Result<()> {
        self.edit_set(id)?.attached = None;
        Ok(())
    }
}
