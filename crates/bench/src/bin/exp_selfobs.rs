//! E12: the observer's own overhead — self-instrumentation cost accounting.
//!
//! §4 of the paper bounds the *measurement* overhead of the sampling
//! substrate at 1–2% and shows direct counting reaching tens of percent.
//! This experiment turns the same question on the observability layer added
//! on top of the library: what does papi-obs itself cost the system that
//! hosts it?
//!
//! Three configurations run the identical monitored workload (dense FP with
//! periodic counter reads):
//!
//! * **A — uninstrumented**: no obs context attached (the default).
//! * **B — registry**: obs attached, counters accumulate, journal off.
//! * **C — registry + journal**: obs attached and every internal event
//!   journaled.
//!
//! Two cost axes are reported:
//!
//! 1. *Virtual (simulated) cycles* — the clock the library measures the
//!    application with.  The obs layer performs no costed substrate
//!    operations, so A, B and C must agree **exactly**: the observer is
//!    invisible to the observed clock (asserted).
//! 2. *Host wall-clock time* — the real cost of the atomics, ring pushes
//!    and snapshots, reported as % of the uninstrumented run's host time
//!    (minimum over repetitions, which is the noise-robust estimator).
//!    The acceptance bound mirrors the paper's sampling-substrate figure:
//!    registry-only must stay under 2%.
//!
//! The report goes to stdout only.  `results/exp_selfobs.txt` is one
//! recorded run; host times differ run to run, so it is not a golden.

use papi_bench::{banner, papi_on, pct};
use papi_core::{AppExit, Papi, Preset, SimSubstrate};
use papi_workloads::dense_fp;
use simcpu::platform::sim_x86;
use std::time::Instant;

const READ_INTERVAL: u64 = 2_000;
const REPS: usize = 11;

#[derive(Clone, Copy, PartialEq)]
enum Config {
    Uninstrumented,
    Registry,
    RegistryAndJournal,
}

struct RunResult {
    virt_cycles: u64,
    host_ns_min: u64,
    host_ns_median: u64,
    obs: Option<papi_obs::ObsHandle>,
}

fn monitored_run(papi: &mut Papi<SimSubstrate>) {
    let set = papi.create_eventset();
    papi.add_event(set, Preset::TotIns.code()).unwrap();
    papi.start(set).unwrap();
    loop {
        match papi.run_for(READ_INTERVAL).unwrap() {
            AppExit::Halted => break,
            _ => {
                let _ = papi.read(set).unwrap();
            }
        }
    }
    papi.stop(set).unwrap();
    papi.destroy_eventset(set).unwrap();
}

fn one_rep(cfg: Config) -> (u64, u64, Option<papi_obs::ObsHandle>) {
    let w = dense_fp(300_000, 4, 0);
    let mut papi = papi_on(sim_x86(), w.program, 2);
    let obs = match cfg {
        Config::Uninstrumented => None,
        Config::Registry => Some(papi_obs::Obs::new()),
        Config::RegistryAndJournal => {
            let o = papi_obs::Obs::new();
            o.enable_journal(4096);
            Some(o)
        }
    };
    if let Some(o) = &obs {
        papi.attach_obs(o.clone());
    }
    let t0 = Instant::now();
    monitored_run(&mut papi);
    let ns = t0.elapsed().as_nanos() as u64;
    (ns, papi.get_real_cyc(), obs)
}

/// Run all three configs interleaved rep-by-rep, so host-side drift
/// (frequency scaling, cache warm-up) lands on every config equally rather
/// than biasing whichever config runs first.
fn run_all() -> [RunResult; 3] {
    const CONFIGS: [Config; 3] = [
        Config::Uninstrumented,
        Config::Registry,
        Config::RegistryAndJournal,
    ];
    // Warm-up pass, discarded.
    for cfg in CONFIGS {
        let _ = one_rep(cfg);
    }
    let mut host_ns: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut virt_cycles = [0u64; 3];
    let mut last_obs: [Option<papi_obs::ObsHandle>; 3] = [None, None, None];
    for _ in 0..REPS {
        for (i, cfg) in CONFIGS.into_iter().enumerate() {
            let (ns, virt, obs) = one_rep(cfg);
            host_ns[i].push(ns);
            virt_cycles[i] = virt;
            last_obs[i] = obs;
        }
    }
    let mut out = Vec::new();
    for (i, mut ns) in host_ns.into_iter().enumerate() {
        ns.sort_unstable();
        out.push(RunResult {
            virt_cycles: virt_cycles[i],
            host_ns_min: ns[0],
            host_ns_median: ns[REPS / 2],
            obs: last_obs[i].take(),
        });
    }
    out.try_into().ok().unwrap()
}

fn main() {
    banner(
        "E12",
        "self-instrumentation overhead: the observer observed",
    );

    let [a, b, c] = run_all();

    let mut report = String::new();
    report.push_str(&format!(
        "workload: dense_fp(300000,4,0) on sim-x86, reads every {READ_INTERVAL} cycles, {REPS} reps\n\n"
    ));
    report.push_str(&format!(
        "{:<24} {:>16} {:>12} {:>12} {:>10} {:>10}\n",
        "config", "virt cycles", "host min us", "host med us", "ovh(min)", "ovh(med)"
    ));
    let ovh = |x: u64, base: u64| (x as f64 - base as f64) / base as f64;
    for (name, r) in [
        ("A uninstrumented", &a),
        ("B registry", &b),
        ("C registry+journal", &c),
    ] {
        report.push_str(&format!(
            "{:<24} {:>16} {:>12.1} {:>12.1} {:>10} {:>10}\n",
            name,
            r.virt_cycles,
            r.host_ns_min as f64 / 1000.0,
            r.host_ns_median as f64 / 1000.0,
            pct(ovh(r.host_ns_min, a.host_ns_min)),
            pct(ovh(r.host_ns_median, a.host_ns_median)),
        ));
    }

    // Axis 1: the observer is invisible to the observed (virtual) clock.
    assert_eq!(
        a.virt_cycles, b.virt_cycles,
        "registry accounting perturbed the virtual clock"
    );
    assert_eq!(
        a.virt_cycles, c.virt_cycles,
        "journaling perturbed the virtual clock"
    );
    report.push_str(&format!(
        "\nvirtual-cycle perturbation: 0 cycles (A == B == C == {}): the obs layer\n\
         issues no costed substrate operations, so simulated overhead is exactly {}\n",
        a.virt_cycles,
        pct(0.0)
    ));

    // Axis 2: host-side cost of the observer.
    let reg_ovh = ovh(b.host_ns_min, a.host_ns_min);
    let jrn_ovh = ovh(c.host_ns_min, a.host_ns_min);
    report.push_str(&format!(
        "host-side cost (min-of-{REPS}): registry {}, registry+journal {}\n",
        pct(reg_ovh),
        pct(jrn_ovh)
    ));

    // What the registry saw during config C, and what the journal held.
    let obs = c.obs.as_ref().expect("config C has an obs context");
    let snap = obs.snapshot();
    report.push_str("\ninternal counters after one config-C run:\n");
    report.push_str(&snap.render(false));
    report.push_str(&format!(
        "journal: {} records held, {} dropped (capacity 4096)\n",
        obs.journal_records().len(),
        obs.journal_dropped()
    ));

    print!("{report}");

    // Acceptance: mirroring the paper's 1-2% sampling bound, the always-on
    // registry must cost under 2% of host time; the journal is the opt-in
    // heavier mode and gets a loose sanity bound.
    assert!(
        reg_ovh < 0.02,
        "registry overhead {} exceeds the 2% bound",
        pct(reg_ovh)
    );
    assert!(
        jrn_ovh < 0.25,
        "journal overhead {} looks pathological",
        pct(jrn_ovh)
    );
}
