//! A scripted, simulator-free [`Substrate`] implementation.
//!
//! The paper's central architectural claim (Figure 1) is that everything
//! above the substrate boundary is machine-independent. [`MockSubstrate`]
//! backs that claim operationally: the entire portable layer — presets,
//! allocation, EventSets, multiplexing, overflow routing — runs against
//! this hand-scripted fake with no `simcpu::Machine` behind it, and the
//! tests in this module verify the exact sequence of substrate calls the
//! portable layer makes.
//!
//! It is also the template for porting: a `perf_event_open` substrate would
//! fill in the same dozen methods.

use crate::error::Result;
use crate::substrate::{HwInfo, Substrate};
use simcpu::platform::GroupDef;
use simcpu::pmu::NativeEventDesc;
use simcpu::{
    Domain, EventKind, Granularity, MemInfo, RunExit, SampleConfig, SampleRecord, ThreadId,
};
use std::collections::VecDeque;

/// A call observed at the substrate boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    Program(Vec<Option<(u32, Domain)>>),
    Start,
    Stop,
    Reset,
    Read(usize),
    SetOverflow(usize, Option<u64>),
    SetTimer(Option<u64>),
    ConfigureSampling(bool),
}

/// Scripted substrate: counters are plain accumulators the test advances,
/// and `run` pops pre-scripted exits.
pub struct MockSubstrate {
    events: Vec<NativeEventDesc>,
    num_counters: usize,
    counts: Vec<u64>,
    programmed: Vec<Option<(u32, Domain)>>,
    running: bool,
    cycles: u64,
    /// Exits `run` will return, in order; empty => `Halted`.
    pub script: VecDeque<RunExit>,
    /// Every substrate call, in order.
    pub log: Vec<Call>,
    /// Counts added to each programmed counter on every `run` call,
    /// simulating application progress between exits.
    pub per_run_increment: u64,
}

impl MockSubstrate {
    /// Four unconstrained counters and a tiny cycles/instructions/FP event
    /// list.
    pub fn new() -> Self {
        let mk = |idx: u32, name: &'static str, kinds: Vec<(EventKind, u32)>| NativeEventDesc {
            code: 0x4000_0000 | idx,
            name,
            descr: "mock",
            kinds,
            counter_mask: 0b1111,
            group: None,
        };
        MockSubstrate {
            events: vec![
                mk(0, "M_CYC", vec![(EventKind::Cycles, 1)]),
                mk(1, "M_INS", vec![(EventKind::Instructions, 1)]),
                mk(
                    2,
                    "M_FP",
                    vec![
                        (EventKind::FpAdd, 1),
                        (EventKind::FpMul, 1),
                        (EventKind::FpFma, 1),
                        (EventKind::FpDiv, 1),
                    ],
                ),
                mk(3, "M_LD", vec![(EventKind::Loads, 1)]),
            ],
            num_counters: 4,
            counts: vec![0; 4],
            programmed: vec![None; 4],
            running: false,
            cycles: 0,
            script: VecDeque::new(),
            log: Vec::new(),
            per_run_increment: 100,
        }
    }

    /// Set the value of a physical counter directly (test hook).
    pub fn set_count(&mut self, idx: usize, v: u64) {
        self.counts[idx] = v;
    }

    /// What is currently programmed on a counter (test hook).
    pub fn programmed(&self, idx: usize) -> Option<(u32, Domain)> {
        self.programmed[idx]
    }
}

impl Default for MockSubstrate {
    fn default() -> Self {
        Self::new()
    }
}

impl Substrate for MockSubstrate {
    fn hw_info(&self) -> HwInfo {
        HwInfo {
            vendor: "Mock".into(),
            model: "scripted substrate".into(),
            mhz: 1000,
            num_counters: self.num_counters,
            precise_sampling: false,
            group_based: false,
        }
    }

    fn num_counters(&self) -> usize {
        self.num_counters
    }

    fn native_events(&self) -> &[NativeEventDesc] {
        &self.events
    }

    fn groups(&self) -> &[GroupDef] {
        &[]
    }

    fn program(&mut self, assign: &[Option<(u32, Domain)>]) -> Result<()> {
        self.log.push(Call::Program(assign.to_vec()));
        for (i, slot) in assign.iter().enumerate() {
            self.programmed[i] = *slot;
            self.counts[i] = 0;
        }
        Ok(())
    }

    fn start(&mut self) -> Result<()> {
        self.log.push(Call::Start);
        self.running = true;
        Ok(())
    }

    fn stop(&mut self) -> Result<()> {
        self.log.push(Call::Stop);
        self.running = false;
        Ok(())
    }

    fn reset(&mut self) -> Result<()> {
        self.log.push(Call::Reset);
        self.counts.iter_mut().for_each(|c| *c = 0);
        Ok(())
    }

    fn read_batch(&mut self, ctrs: &[usize], out: &mut Vec<u64>) -> Result<()> {
        for &c in ctrs {
            self.log.push(Call::Read(c));
            out.push(self.counts[c]);
        }
        Ok(())
    }

    fn set_overflow(&mut self, idx: usize, threshold: Option<u64>) -> Result<()> {
        self.log.push(Call::SetOverflow(idx, threshold));
        Ok(())
    }

    fn configure_sampling(&mut self, cfg: Option<SampleConfig>) -> Result<()> {
        self.log.push(Call::ConfigureSampling(cfg.is_some()));
        if cfg.is_some() {
            Err(crate::PapiError::NoSupp("mock has no sampling hardware"))
        } else {
            Ok(())
        }
    }

    fn drain_samples(&mut self) -> Vec<SampleRecord> {
        Vec::new()
    }

    fn set_timer(&mut self, period_cycles: Option<u64>) {
        self.log.push(Call::SetTimer(period_cycles));
    }

    fn set_granularity(&mut self, _g: Granularity) {}

    fn run(&mut self, _budget: Option<u64>) -> RunExit {
        self.cycles += 1000;
        if self.running {
            for (i, p) in self.programmed.iter().enumerate() {
                if p.is_some() {
                    self.counts[i] += self.per_run_increment;
                }
            }
        }
        self.script.pop_front().unwrap_or(RunExit::Halted)
    }

    fn real_cycles(&self) -> u64 {
        self.cycles
    }

    fn real_ns(&self) -> u64 {
        self.cycles
    }

    fn virt_ns(&self, _thread: ThreadId) -> Result<u64> {
        Ok(self.cycles / 2)
    }

    fn mem_info(&self, _thread: ThreadId) -> Result<MemInfo> {
        Ok(MemInfo {
            page_size: 4096,
            resident_pages: 1,
            peak_pages: 1,
            text_pages: 1,
            system_pages: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Papi, PapiError, Preset};

    #[test]
    fn portable_layer_runs_on_a_foreign_substrate() {
        // No simcpu machine anywhere: the full EventSet lifecycle works
        // against the mock, proving the layering boundary.
        let mut papi = Papi::init(MockSubstrate::new()).unwrap();
        assert!(papi.query_event(Preset::TotCyc.code()));
        assert!(papi.query_event(Preset::FpIns.code()));
        assert!(!papi.query_event(Preset::L1Dcm.code())); // mock has no cache events
        let set = papi.create_eventset();
        papi.add_event(set, Preset::TotCyc.code()).unwrap();
        papi.add_event(set, Preset::TotIns.code()).unwrap();
        papi.start(set).unwrap();
        papi.run_app().unwrap();
        let v = papi.stop(set).unwrap();
        assert_eq!(v, vec![100, 100]); // one run() tick of progress
    }

    #[test]
    fn start_programs_then_starts_in_order() {
        let mut papi = Papi::init(MockSubstrate::new()).unwrap();
        let set = papi.create_eventset();
        papi.add_event(set, Preset::TotIns.code()).unwrap();
        papi.start(set).unwrap();
        let log = &papi.substrate().log;
        let prog_pos = log
            .iter()
            .position(|c| matches!(c, Call::Program(_)))
            .unwrap();
        let start_pos = log.iter().position(|c| matches!(c, Call::Start)).unwrap();
        assert!(
            prog_pos < start_pos,
            "must program before starting: {log:?}"
        );
        // The instruction event landed on some counter with USER domain.
        let programmed: Vec<_> = (0..4)
            .filter_map(|i| papi.substrate().programmed(i))
            .collect();
        assert_eq!(programmed, vec![(0x4000_0001, Domain::USER)]);
    }

    #[test]
    fn overflow_registration_arms_and_disarms_hardware() {
        let mut papi = Papi::init(MockSubstrate::new()).unwrap();
        let set = papi.create_eventset();
        papi.add_event(set, Preset::TotIns.code()).unwrap();
        papi.overflow(set, Preset::TotIns.code(), 500, Box::new(|_| {}))
            .unwrap();
        papi.start(set).unwrap();
        papi.stop(set).unwrap();
        let arms: Vec<&Call> = papi
            .substrate()
            .log
            .iter()
            .filter(|c| matches!(c, Call::SetOverflow(_, _)))
            .collect();
        assert_eq!(arms.len(), 2, "{arms:?}");
        assert!(matches!(arms[0], Call::SetOverflow(_, Some(500))));
        assert!(matches!(arms[1], Call::SetOverflow(_, None)));
    }

    #[test]
    fn overflow_exit_routes_to_handler_with_pc() {
        use std::sync::{Arc, Mutex};
        let mut sub = MockSubstrate::new();
        // Script: one overflow on counter 0, then halt.
        sub.script.push_back(RunExit::Overflow {
            counter: 0,
            thread: 0,
            pc: 0xBEEF,
        });
        let mut papi = Papi::init(sub).unwrap();
        let set = papi.create_eventset();
        papi.add_event(set, Preset::TotIns.code()).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        papi.overflow(
            set,
            Preset::TotIns.code(),
            10,
            Box::new(move |i| s2.lock().unwrap().push(i)),
        )
        .unwrap();
        papi.start(set).unwrap();
        papi.run_app().unwrap();
        papi.stop(set).unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].pc, 0xBEEF);
        assert_eq!(seen[0].code, Preset::TotIns.code());
    }

    #[test]
    fn sampling_error_propagates_cleanly() {
        let mut papi = Papi::init(MockSubstrate::new()).unwrap();
        assert!(matches!(
            papi.start_sampling(SampleConfig::default()),
            Err(PapiError::NoSupp(_))
        ));
    }

    #[test]
    fn timers_and_meminfo_delegate() {
        let mut papi = Papi::init(MockSubstrate::new()).unwrap();
        let set = papi.create_eventset();
        papi.add_event(set, Preset::TotCyc.code()).unwrap();
        papi.start(set).unwrap();
        papi.run_app().unwrap();
        papi.stop(set).unwrap();
        assert!(papi.get_real_cyc() > 0);
        assert_eq!(papi.get_virt_ns(0).unwrap(), papi.get_real_ns() / 2);
        assert_eq!(papi.get_mem_info(0).unwrap().resident_pages, 1);
    }
}
