//! SvPablo-style interactive region instrumentation.
//!
//! SvPablo (§3) "supports … interactive instrumentation of C and Fortran
//! programs" with statistics "on the execution of each instrumented event …
//! mapped to constructs in the original source code". Here a tool (or test
//! harness) brackets arbitrary named regions around slices of application
//! execution; the profiler maintains nested inclusive/exclusive statistics
//! for every metric in its EventSet plus wallclock time.
//!
//! Unlike [`crate::funcprof`], which patches probes into the binary, this
//! is the *manual/interactive* path: the caller decides where regions begin
//! and end.

use crate::profile_data::{Profile, RegionRow};
use papi_core::{EventSetId, Papi, PapiError, Result, Substrate};
use papi_tools::start_or_multiplex;
use std::collections::HashMap;

struct Frame {
    region: String,
    entry: Vec<i64>,
    entry_ns: u64,
    child: Vec<i64>,
    child_ns: u64,
}

#[derive(Default)]
struct Acc {
    calls: u64,
    incl: Vec<i64>,
    excl: Vec<i64>,
    incl_ns: i64,
    excl_ns: i64,
}

/// A live region-profiling session over an already-created [`Papi`].
pub struct Regions {
    set: EventSetId,
    metric_names: Vec<String>,
    stack: Vec<Frame>,
    rows: HashMap<String, Acc>,
    order: Vec<String>,
}

impl Regions {
    /// Create the metric EventSet (multiplexing on conflict) and start
    /// counting.
    pub fn start<S: Substrate>(papi: &mut Papi<S>, metrics: &[u32]) -> Result<Regions> {
        if metrics.is_empty() {
            return Err(PapiError::Inval("no metrics requested"));
        }
        let metric_names = metrics
            .iter()
            .map(|&c| papi.event_code_to_name(c))
            .collect::<Result<Vec<_>>>()?;
        let set = papi.create_eventset();
        papi.add_events(set, metrics)?;
        start_or_multiplex(papi, set)?;
        Ok(Regions {
            set,
            metric_names,
            stack: Vec::new(),
            rows: HashMap::new(),
            order: Vec::new(),
        })
    }

    fn k(&self) -> usize {
        self.metric_names.len()
    }

    /// Enter a named region (regions nest).
    pub fn begin<S: Substrate>(&mut self, papi: &mut Papi<S>, region: &str) -> Result<()> {
        let entry = papi.read(self.set)?;
        self.stack.push(Frame {
            region: region.to_string(),
            entry,
            entry_ns: papi.get_real_ns(),
            child: vec![0; self.k()],
            child_ns: 0,
        });
        Ok(())
    }

    /// Leave the innermost region, which must be `region` (enforced — the
    /// bracketing discipline SvPablo's source instrumentation guarantees).
    /// A refused call changes nothing: the open region stays open.
    pub fn end<S: Substrate>(&mut self, papi: &mut Papi<S>, region: &str) -> Result<()> {
        let Some(top) = self.stack.last() else {
            return Err(PapiError::Inval("region end without begin"));
        };
        if top.region != region {
            return Err(PapiError::Inval("mismatched region nesting"));
        }
        let values = papi.read(self.set)?;
        let now = papi.get_real_ns();
        let fr = self.stack.pop().expect("innermost region checked above");
        let k = self.k();
        if !self.rows.contains_key(region) {
            self.order.push(region.to_string());
        }
        let acc = self.rows.entry(region.to_string()).or_insert_with(|| Acc {
            calls: 0,
            incl: vec![0; k],
            excl: vec![0; k],
            incl_ns: 0,
            excl_ns: 0,
        });
        acc.calls += 1;
        let incl_ns = (now - fr.entry_ns) as i64;
        acc.incl_ns += incl_ns;
        acc.excl_ns += incl_ns - fr.child_ns as i64;
        for (m, &v) in values.iter().enumerate().take(k) {
            let incl = v - fr.entry[m];
            acc.incl[m] += incl;
            acc.excl[m] += incl - fr.child[m];
        }
        if let Some(parent) = self.stack.last_mut() {
            for (m, &v) in values.iter().enumerate().take(k) {
                parent.child[m] += v - fr.entry[m];
            }
            parent.child_ns += now - fr.entry_ns;
        }
        Ok(())
    }

    /// Stop counting and produce the profile. Errors if regions are still
    /// open.
    pub fn finish<S: Substrate>(self, papi: &mut Papi<S>) -> Result<Profile> {
        if !self.stack.is_empty() {
            return Err(PapiError::Inval("regions still open at finish"));
        }
        papi.stop(self.set)?;
        let _ = papi.destroy_eventset(self.set);
        let k = self.k();
        let mut metrics = self.metric_names;
        metrics.push(crate::funcprof::TIME_METRIC.to_string());
        let rows = self
            .order
            .iter()
            .map(|name| {
                let a = &self.rows[name];
                let mut incl = a.incl.clone();
                let mut excl = a.excl.clone();
                incl.push(a.incl_ns);
                excl.push(a.excl_ns);
                debug_assert_eq!(incl.len(), k + 1);
                RegionRow {
                    name: name.clone(),
                    calls: a.calls,
                    incl,
                    excl,
                }
            })
            .collect();
        Ok(Profile { metrics, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_core::{AppExit, Preset, SimSubstrate};
    use papi_workloads::phased;
    use simcpu::platform::sim_generic;
    use simcpu::Machine;

    fn papi_with_phased(seed: u64) -> Papi<SimSubstrate> {
        let mut m = Machine::new(sim_generic(), seed);
        m.load(phased(1, 10_000).program);
        Papi::init(SimSubstrate::new(m)).unwrap()
    }

    #[test]
    fn interactive_regions_over_time_slices() {
        // A monitoring harness brackets fixed time slices of the app into
        // alternating regions.
        let mut papi = papi_with_phased(4);
        let mut reg =
            Regions::start(&mut papi, &[Preset::FpOps.code(), Preset::LdIns.code()]).unwrap();
        let mut phase = 0;
        loop {
            let name = if phase % 2 == 0 { "even" } else { "odd" };
            reg.begin(&mut papi, name).unwrap();
            let exit = papi.run_for(40_000).unwrap();
            reg.end(&mut papi, name).unwrap();
            phase += 1;
            if exit == AppExit::Halted {
                break;
            }
        }
        let prof = reg.finish(&mut papi).unwrap();
        assert_eq!(prof.rows.len(), 2);
        let total_ops: i64 = prof
            .rows
            .iter()
            .map(|r| r.excl[prof.metric_index("PAPI_FP_OPS").unwrap()])
            .sum();
        assert_eq!(total_ops, 10_000 * 4 * 2); // the whole FP phase was covered
    }

    #[test]
    fn nesting_computes_exclusive() {
        let mut papi = papi_with_phased(4);
        let mut reg = Regions::start(&mut papi, &[Preset::FpOps.code()]).unwrap();
        reg.begin(&mut papi, "outer").unwrap();
        // run through (at least) the FP phase inside the inner region
        reg.begin(&mut papi, "inner").unwrap();
        papi.run_for(200_000).unwrap();
        reg.end(&mut papi, "inner").unwrap();
        reg.end(&mut papi, "outer").unwrap();
        papi.run_app().unwrap();
        let prof = reg.finish(&mut papi).unwrap();
        let ops = prof.metric_index("PAPI_FP_OPS").unwrap();
        let outer = prof.row("outer").unwrap();
        let inner = prof.row("inner").unwrap();
        assert!(inner.incl[ops] > 0);
        assert_eq!(outer.incl[ops], inner.incl[ops]);
        assert_eq!(
            outer.excl[ops], 0,
            "all FP work was inside the inner region"
        );
    }

    #[test]
    fn bracketing_discipline_enforced() {
        let mut papi = papi_with_phased(4);
        let mut reg = Regions::start(&mut papi, &[Preset::TotCyc.code()]).unwrap();
        assert!(matches!(reg.end(&mut papi, "x"), Err(PapiError::Inval(_))));
        reg.begin(&mut papi, "a").unwrap();
        assert!(matches!(reg.end(&mut papi, "b"), Err(PapiError::Inval(_))));
    }

    #[test]
    fn finish_with_open_region_rejected() {
        let mut papi = papi_with_phased(4);
        let mut reg = Regions::start(&mut papi, &[Preset::TotCyc.code()]).unwrap();
        reg.begin(&mut papi, "a").unwrap();
        assert!(matches!(reg.finish(&mut papi), Err(PapiError::Inval(_))));
    }

    /// A refused mismatched `end` keeps the open region: the matching `end`
    /// still closes it, and `finish` reports its row.
    #[test]
    fn mismatched_end_keeps_the_open_region() {
        let mut papi = papi_with_phased(4);
        let mut reg = Regions::start(&mut papi, &[Preset::TotCyc.code()]).unwrap();
        reg.begin(&mut papi, "a").unwrap();
        assert!(matches!(reg.end(&mut papi, "b"), Err(PapiError::Inval(_))));
        reg.end(&mut papi, "a").unwrap();
        let prof = reg.finish(&mut papi).unwrap();
        assert_eq!(prof.rows.len(), 1);
        assert_eq!(prof.row("a").unwrap().calls, 1);
    }
}
