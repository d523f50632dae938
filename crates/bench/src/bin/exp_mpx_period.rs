//! E5-ablation: multiplex switching period vs estimation error vs overhead.
//!
//! The time-slice length is the central design knob of software
//! multiplexing: shorter slices sample the workload more finely (better
//! estimates, especially on non-stationary programs) but each switch costs a
//! counter reprogram. This sweep quantifies both sides — the trade-off the
//! PAPI mailing-list discussion in §2 was implicitly about.

use papi_bench::{banner, baseline_cycles, fp_then_mem, papi_on, pct};
use papi_core::Preset;
use simcpu::platform::sim_x86;

fn run(period: u64, iters: u32) -> (f64, f64) {
    let it = iters as i64;
    let (prog, truth) = (fp_then_mem(iters), [3 * it, it, it]); // FMA, FDV, LD
    let base = baseline_cycles(sim_x86(), prog.clone(), 8);
    let mut papi = papi_on(sim_x86(), prog, 8);
    let set = papi.create_eventset();
    for p in [Preset::FmaIns, Preset::FdvIns, Preset::LdIns] {
        papi.add_event(set, p.code()).unwrap();
    }
    papi.set_multiplex(set).unwrap();
    papi.set_multiplex_period(set, period).unwrap();
    papi.start(set).unwrap();
    papi.run_app().unwrap();
    let v = papi.stop(set).unwrap();
    let err = v
        .iter()
        .zip(&truth)
        .map(|(&got, &want)| (got - want).abs() as f64 / want as f64)
        .fold(0.0, f64::max);
    let overhead = (papi.get_real_cyc() as f64 - base as f64) / base as f64;
    (err, overhead)
}

fn main() {
    banner(
        "E5-ablation",
        "multiplex time-slice length: estimation error vs switch overhead",
    );
    let iters = 150_000; // phased program, ~2.7M cycles
    println!("\nphased workload (FP phase then memory phase), 3 events on 2 partitions, sim-x86\n");
    println!(
        "{:<24} {:>14} {:>14}",
        "switch period (cycles)", "worst error", "overhead"
    );
    let mut rows = Vec::new();
    for period in [800_000u64, 200_000, 50_000, 12_500, 3_125] {
        let (err, ovh) = run(period, iters);
        println!("{:<24} {:>14} {:>14}", period, pct(err), pct(ovh));
        rows.push((period, err, ovh));
    }
    let coarse = rows.first().unwrap();
    let finest = rows.last().unwrap();
    let best = rows
        .iter()
        .cloned()
        .reduce(|a, b| if b.1 < a.1 { b } else { a })
        .unwrap();
    println!(
        "\nshape: the error curve is U-shaped. Coarse slices under-sample the phases ({} at {} cycles);",
        pct(coarse.1),
        coarse.0
    );
    println!(
        "the sweet spot sits near {} cycles ({} error, {} overhead); below that the switch cost",
        best.0,
        pct(best.1),
        pct(best.2)
    );
    println!(
        "itself dominates the slice — at {} cycles the machine mostly reprograms counters ({} overhead)",
        finest.0,
        pct(finest.2)
    );
    println!(
        "and the estimates collapse again ({}). The slice length must be chosen, not defaulted.",
        pct(finest.1)
    );
    assert!(
        best.1 < coarse.1,
        "some finer slice must beat the coarse one"
    );
    assert!(
        best.0 < coarse.0 && best.0 > finest.0,
        "the optimum is interior"
    );
    assert!(
        finest.2 > 10.0 * best.2,
        "thrashing slices must pay heavily"
    );
    // Overhead itself is monotone as slices shrink.
    for w in rows.windows(2) {
        assert!(w[1].2 >= w[0].2, "overhead must grow as the period shrinks");
    }
}
