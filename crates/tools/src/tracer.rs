//! Interval event tracing for timeline tools.
//!
//! §3: "Collecting PAPI data for various events over intervals of time and
//! displaying this data alongside the Vampir timeline view enables
//! correlation of various event frequencies with message passing behavior."
//! This module is that collection side: it records deltas of several PAPI
//! events per fixed wall-clock interval, producing a timeline that can be
//! exported (JSON standing in for ALOG/SDDF/Vampir trace formats), merged
//! with other timelines, and scanned for correlations between event rates —
//! the derived-information use the paper describes for profile comparison.

use papi_core::{AppExit, Papi, PapiError, Result, Substrate};
use papi_obs::json::{self, JsonError, ToJson};

/// One timeline interval: deltas of each traced event.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Interval start, microseconds since trace begin.
    pub t_start_us: f64,
    /// Interval end.
    pub t_end_us: f64,
    /// Event deltas during the interval, parallel to the trace's event list.
    pub deltas: Vec<i64>,
}

/// A recorded timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Event names, in delta order.
    pub events: Vec<String>,
    pub intervals: Vec<IntervalRecord>,
}

papi_obs::json_struct!(IntervalRecord {
    t_start_us,
    t_end_us,
    deltas
});
papi_obs::json_struct!(Timeline { events, intervals });

impl Timeline {
    /// Total per-event counts across the timeline.
    pub fn totals(&self) -> Vec<i64> {
        let mut t = vec![0i64; self.events.len()];
        for iv in &self.intervals {
            for (acc, d) in t.iter_mut().zip(&iv.deltas) {
                *acc += d;
            }
        }
        t
    }

    /// Pearson correlation between the interval series of two events —
    /// "correlations between profiles based on different events … provide
    /// derived information".
    pub fn correlation(&self, a: &str, b: &str) -> Option<f64> {
        let ia = self.events.iter().position(|e| e == a)?;
        let ib = self.events.iter().position(|e| e == b)?;
        let series = |i: usize| -> Vec<f64> {
            self.intervals
                .iter()
                .map(|iv| iv.deltas[i] as f64)
                .collect()
        };
        crate::pearson(&series(ia), &series(ib))
    }

    /// Export the timeline (JSON stands in for the ALOG/SDDF/Vampir formats
    /// the TAU converter targets).
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).to_pretty()
    }

    /// Load an exported timeline.
    pub fn from_json(s: &str) -> std::result::Result<Timeline, JsonError> {
        json::from_str(s)
    }

    /// Merge two timelines recorded against the same interval grid (e.g.
    /// from separate runs monitoring different events), concatenating event
    /// columns interval-by-interval.
    pub fn merge(&self, other: &Timeline) -> Option<Timeline> {
        if self.intervals.len() != other.intervals.len() {
            return None;
        }
        let mut events = self.events.clone();
        events.extend(other.events.iter().cloned());
        let intervals = self
            .intervals
            .iter()
            .zip(&other.intervals)
            .map(|(a, b)| IntervalRecord {
                t_start_us: a.t_start_us,
                t_end_us: a.t_end_us,
                deltas: a.deltas.iter().chain(&b.deltas).copied().collect(),
            })
            .collect();
        Some(Timeline { events, intervals })
    }
}

/// The tracing collector.
pub struct Tracer {
    /// Sampling interval in machine cycles.
    pub interval_cycles: u64,
}

impl Tracer {
    pub fn new(interval_cycles: u64) -> Self {
        assert!(interval_cycles > 0);
        Tracer { interval_cycles }
    }

    /// Trace `events` (preset or native codes) until the application halts.
    /// Falls back to multiplexing if the events conflict.
    pub fn trace<S: Substrate>(&self, papi: &mut Papi<S>, events: &[u32]) -> Result<Timeline> {
        if events.is_empty() {
            return Err(PapiError::Inval("no events to trace"));
        }
        let names = events
            .iter()
            .map(|&c| papi.event_code_to_name(c))
            .collect::<Result<Vec<_>>>()?;
        let set = papi.create_eventset();
        papi.add_events(set, events)?;
        crate::start_or_multiplex(papi, set)?;
        let t0 = papi.get_real_ns();
        let mut last_t = t0;
        let mut last_v = vec![0i64; events.len()];
        let mut intervals = Vec::new();
        loop {
            let exit = papi.run_for(self.interval_cycles)?;
            let v = papi.read(set)?;
            let now = papi.get_real_ns();
            intervals.push(IntervalRecord {
                t_start_us: (last_t - t0) as f64 / 1000.0,
                t_end_us: (now - t0) as f64 / 1000.0,
                deltas: v.iter().zip(&last_v).map(|(a, b)| a - b).collect(),
            });
            last_t = now;
            last_v = v;
            if exit == AppExit::Halted {
                break;
            }
        }
        papi.stop(set)?;
        let _ = papi.destroy_eventset(set);
        Ok(Timeline {
            events: names,
            intervals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_core::Preset;
    use papi_core::SimSubstrate;
    use papi_workloads::phased;
    use simcpu::platform::sim_generic;
    use simcpu::Machine;

    fn papi_with_phased(seed: u64) -> Papi<SimSubstrate> {
        let mut m = Machine::new(sim_generic(), seed);
        m.load(phased(2, 30_000).program);
        Papi::init(SimSubstrate::new(m)).unwrap()
    }

    #[test]
    fn timeline_totals_match_direct_count() {
        let mut papi = papi_with_phased(3);
        let tl = Tracer::new(50_000)
            .trace(&mut papi, &[Preset::FmaIns.code(), Preset::LdIns.code()])
            .unwrap();
        let totals = tl.totals();
        // phased(2, 30_000): 2 rounds x 30_000 iters x 4 FMA; loads likewise.
        assert_eq!(totals[0], 2 * 30_000 * 4);
        assert_eq!(totals[1], 2 * 30_000);
        assert!(tl.intervals.len() > 10);
        // Intervals tile time without gaps.
        for w in tl.intervals.windows(2) {
            assert!((w[1].t_start_us - w[0].t_end_us).abs() < 1e-9);
        }
    }

    #[test]
    fn phases_anticorrelate_fp_and_loads() {
        let mut papi = papi_with_phased(3);
        let tl = Tracer::new(50_000)
            .trace(&mut papi, &[Preset::FmaIns.code(), Preset::LdIns.code()])
            .unwrap();
        // FP phase has no loads and vice versa: strong anticorrelation.
        let r = tl.correlation("PAPI_FMA_INS", "PAPI_LD_INS").unwrap();
        assert!(r < -0.2, "expected anticorrelation, got {r}");
        assert!(tl.correlation("PAPI_FMA_INS", "PAPI_FMA_INS").unwrap() > 0.999);
        assert!(tl.correlation("PAPI_FMA_INS", "NOPE").is_none());
    }

    #[test]
    fn json_roundtrip_and_merge() {
        let mut papi = papi_with_phased(5);
        let tl1 = Tracer::new(80_000)
            .trace(&mut papi, &[Preset::FmaIns.code()])
            .unwrap();
        let json = tl1.to_json();
        let back = Timeline::from_json(&json).unwrap();
        assert_eq!(back, tl1);
        // Merge with itself: column count doubles, grid preserved.
        let merged = tl1.merge(&tl1).unwrap();
        assert_eq!(merged.events.len(), 2);
        assert_eq!(merged.intervals.len(), tl1.intervals.len());
        assert_eq!(merged.totals()[0], merged.totals()[1]);
        // Mismatched grids refuse to merge.
        let mut other = tl1.clone();
        other.intervals.pop();
        assert!(tl1.merge(&other).is_none());
    }

    #[test]
    fn conflicting_events_fall_back_to_multiplex() {
        use simcpu::platform::sim_x86;
        let mut m = Machine::new(sim_x86(), 9);
        m.load(papi_workloads::dense_fp(400_000, 3, 1).program);
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        let tl = Tracer::new(100_000)
            .trace(
                &mut papi,
                &[
                    Preset::FpOps.code(),
                    Preset::FmaIns.code(),
                    Preset::FdvIns.code(),
                    Preset::TotIns.code(),
                ],
            )
            .unwrap();
        let totals = tl.totals();
        let err = (totals[1] - 1_200_000).abs() as f64 / 1_200_000.0;
        assert!(err < 0.2, "multiplexed trace total off by {err}");
    }

    #[test]
    fn vampir_style_message_correlation() {
        // §3: "Collecting PAPI data for various events over intervals of
        // time … enables correlation of various event frequencies with
        // message passing behavior." Trace FLOPs alongside message sends on
        // a BSP ring: compute and communication alternate.
        let mut m = Machine::new(sim_generic(), 17);
        papi_workloads::bsp_ring(2, 400, 4_000).load_into(&mut m);
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        let send = papi.event_name_to_code("GEN_MSG_SEND").unwrap();
        let block = papi.event_name_to_code("GEN_MSG_BLOCK").unwrap();
        let tl = Tracer::new(30_000)
            .trace(&mut papi, &[Preset::FpOps.code(), send, block])
            .unwrap();
        let totals = tl.totals();
        assert_eq!(totals[1], 2 * 400, "every send visible in the timeline");
        assert!(totals[0] > 0 && totals[2] >= 0);
        // Message activity must appear spread across the run, not bunched
        // at the ends: at least a third of the intervals carry a send.
        let with_sends = tl.intervals.iter().filter(|iv| iv.deltas[1] > 0).count();
        assert!(
            with_sends * 3 >= tl.intervals.len(),
            "{with_sends}/{} intervals have sends",
            tl.intervals.len()
        );
    }

    #[test]
    fn empty_event_list_rejected() {
        let mut papi = papi_with_phased(1);
        assert!(Tracer::new(1000).trace(&mut papi, &[]).is_err());
    }
}
