//! E5 (§2): multiplexed counts are estimates that converge only with
//! sufficient runtime — "erroneous results can occur when the runtime is
//! insufficient to permit the estimated counter values to converge".
//!
//! Sweeps runtime over three decades on a stationary workload and on a
//! phased (non-stationary) workload, reporting the worst relative
//! estimation error across the multiplexed events.

use papi_bench::{banner, fp_then_mem, papi_on, pct};
use papi_core::{Papi, Preset, SimSubstrate};
use simcpu::platform::sim_x86;
use simcpu::{AddrGen, Program, ProgramBuilder};

/// Stationary mixed workload: truth is linear in `iters`.
fn stationary(iters: u32) -> (Program, Vec<i64>) {
    let mut b = ProgramBuilder::new();
    b.func("main", |f| {
        f.loop_(iters, |f| {
            f.ffma(3);
            f.fdiv(1);
            f.load(AddrGen::Stride {
                base: 0x10_0000,
                stride: 64,
                len: 1 << 16,
            });
        });
    });
    let it = iters as i64;
    // truth for [FMA_INS, FDV_INS, LD_INS, TOT_INS]
    (b.build("main"), vec![3 * it, it, it, 6 * it + 2])
}

/// Phased workload ([`fp_then_mem`]): the multiplexer's worst case.
fn phased_2(iters: u32) -> (Program, Vec<i64>) {
    let it = iters as i64;
    (fp_then_mem(iters), vec![3 * it, it, it, 7 * it + 6])
}

fn worst_error(papi: &mut Papi<SimSubstrate>, truth: &[i64]) -> f64 {
    let set = papi.create_eventset();
    for p in [
        Preset::FmaIns,
        Preset::FdvIns,
        Preset::LdIns,
        Preset::TotIns,
    ] {
        papi.add_event(set, p.code()).unwrap();
    }
    papi.set_multiplex(set).unwrap();
    papi.start(set).unwrap();
    papi.run_app().unwrap();
    let v = papi.stop(set).unwrap();
    v.iter()
        .zip(truth)
        .map(|(&got, &want)| {
            if want == 0 {
                0.0
            } else {
                (got - want).abs() as f64 / want as f64
            }
        })
        .fold(0.0, f64::max)
}

fn main() {
    banner(
        "E5 / §2",
        "multiplex estimation error vs runtime (and stationarity)",
    );
    println!(
        "\n4 FP/memory events multiplexed over 2 partitions on sim-x86 (switch period 100k cycles)\n"
    );
    println!(
        "{:<12} {:>16} {:>20} {:>20}",
        "iterations", "~run cycles", "stationary err", "phased err"
    );
    let mut stationary_errs = Vec::new();
    for &iters in &[2_000u32, 10_000, 50_000, 250_000, 1_250_000] {
        let (prog, truth) = stationary(iters);
        let cyc = papi_bench::baseline_cycles(sim_x86(), prog.clone(), 3);
        let mut papi = papi_on(sim_x86(), prog, 3);
        let e_st = worst_error(&mut papi, &truth);
        let (prog, truth) = phased_2(iters / 2);
        let mut papi = papi_on(sim_x86(), prog, 3);
        let e_ph = worst_error(&mut papi, &truth);
        println!(
            "{:<12} {:>16} {:>20} {:>20}",
            iters,
            cyc,
            pct(e_st),
            pct(e_ph)
        );
        stationary_errs.push((iters, e_st, e_ph));
    }
    let (_, short_err, _) = stationary_errs[0];
    let (_, long_err, long_ph) = *stationary_errs.last().unwrap();
    println!(
        "\nshape: stationary error falls {} -> {} as runtime grows; the phased workload converges more slowly ({} at the longest run)",
        pct(short_err),
        pct(long_err),
        pct(long_ph)
    );
    assert!(
        short_err > 0.5,
        "short runs must be badly wrong (got {short_err})"
    );
    assert!(
        long_err < 0.02,
        "long stationary runs must converge (got {long_err})"
    );
    assert!(long_ph >= long_err, "non-stationarity must not help");
}
