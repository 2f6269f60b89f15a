//! `synth`: predictor-in-the-loop synthesis on ibmpg6 at scale 0.01, a
//! grid with dense area pads.
//!
//! The oracle is the same predict layer `eco_serve` exercises, used
//! differently: width overrides skip NN inference, and batches of 8 go
//! through `par_map_vec` without the service. The workload seed is the
//! annealer's seed.

use std::path::Path;
use std::time::Instant;

use ppdl_core::predict::{predict, PredictRequest, TrainedBundle};
use ppdl_core::{synthesize, IrPredictor, SynthConfig, SynthResult};
use ppdl_netlist::SyntheticBenchmark;

use crate::assets::Assets;
use crate::inputs::width_steps;
use crate::report::Report;
use crate::{repeat_for, setup_phase, stats, Counters, Ctx};

/// Oracle-call budget of one synthesis.
const BUDGET: usize = 600;
/// Width candidates replayed call by call in the traced run.
const REPLAY: usize = 48;

fn config(seed: u64) -> SynthConfig {
    SynthConfig {
        budget: BUDGET,
        seed,
        ..SynthConfig::default()
    }
}

/// One timed set-up: loads the bundle and regenerates its base design
/// into `keep` (replacing what it held), returning the time it took.
fn load(
    rep: &mut Report,
    path: &Path,
    keep: &mut Option<(TrainedBundle, SyntheticBenchmark)>,
) -> Option<f64> {
    // Free the previous set-up first, so each one reuses warm heap
    // instead of faulting in fresh pages.
    *keep = None;
    let t0 = Instant::now();
    let bundle = rep.check("loading the bundle", TrainedBundle::load(path))?;
    let base = rep.check("instantiating the base", bundle.instantiate_base())?;
    let secs = t0.elapsed().as_secs_f64();
    *keep = Some((bundle, base));
    Some(secs)
}

pub fn run(ctx: &Ctx, assets: &Assets, rep: &mut Report) {
    let mut setup_s = Vec::new();
    let mut loaded = None;
    setup_phase(rep, &mut setup_s, |rep| {
        load(rep, &assets.synth, &mut loaded)
    });
    let Some((bundle, base)) = loaded else {
        return;
    };
    let config = config(ctx.seed);

    ppdl_obs::set_enabled(false);
    let (results, secs) = repeat_for(ctx.pass_seconds(), |_| synthesize(&bundle, &config, None));
    let first = check_results(rep, &results);
    setup_phase(rep, &mut setup_s, |rep| load(rep, &assets.synth, &mut None));
    rep.metric(
        "setup_s",
        "bundle load and base",
        stats::median(&setup_s),
        setup_s.len(),
    );
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    rep.metric("time_ms", "synth_s (x1000)", stats::median(&ms), ms.len());
    rep.metric(
        "tail_ms",
        "synth_s upper quartile",
        stats::upper_quartile(&ms),
        ms.len(),
    );
    let Some(first) = first else {
        return;
    };
    rep.metric(
        "rate_per_s",
        "oracle calls per second",
        first.oracle_calls as f64 / stats::median(&secs),
        ms.len(),
    );
    rep.metric(
        "quality_pct",
        "synth_area_ratio (x100)",
        100.0 * first.metal_area / first.golden_metal_area,
        1,
    );
    rep.line(format!(
        "synthesis: {} oracle calls, {} full solves, {}/{} accepted, worst IR {:.3} mV vs \
         target {:.3} mV",
        first.oracle_calls,
        first.full_solves,
        first.accepted,
        first.proposed,
        first.worst_ir_mv(),
        first.target_worst_ir * 1e3
    ));

    if !ctx.trace {
        return;
    }
    ppdl_obs::set_enabled(true);
    let t = &ctx.tracer;
    const SYNTH_COUNTERS: [&str; 4] = [
        "synth/oracle_calls",
        "synth/full_solves",
        "synth/proposed",
        "synth/accepted",
    ];
    let synth_counters = || SYNTH_COUNTERS.map(|n| ppdl_obs::global().counter(n).get());
    let s0 = synth_counters();
    let c0 = Counters::read();
    let (traced, traced_secs) = repeat_for(ctx.pass_seconds(), |i| {
        t.span("synth/run", None, &format!("synth-{i}"), |_| {
            synthesize(&bundle, &config, None)
        })
        .0
    });
    let counts = Counters::read().since(&c0);
    let s1 = synth_counters();
    let [oracle_calls, full_solves, proposed, accepted] = [0, 1, 2, 3].map(|i| s1[i] - s0[i]);
    check_results(rep, &traced);
    let runs = traced.len().max(1) as f64;
    let per_run = |n: u64| n as f64 / runs;
    let untraced = stats::median(&secs);
    rep.metric(
        "trace.overhead_pct",
        "traced - untraced synth_s",
        100.0 * (stats::median(&traced_secs) - untraced) / untraced,
        traced_secs.len(),
    );
    rep.metric(
        "synth.oracle_calls",
        "oracle calls / synthesis",
        per_run(oracle_calls),
        traced.len(),
    );
    rep.metric(
        "synth.full_solves",
        "full MNA solves / synthesis",
        per_run(full_solves),
        traced.len(),
    );
    rep.metric(
        "synth.accept_rate",
        "accepted / proposed",
        accepted as f64 / proposed.max(1) as f64,
        proposed as usize,
    );
    Counters {
        cg_solves: per_run(counts.cg_solves) as u64,
        cg_iters: per_run(counts.cg_iters) as u64,
        spmv_elements: per_run(counts.spmv_elements) as u64,
        ..Counters::default()
    }
    .report_solver(rep);

    // The oracle's layers, call by call, on seeded width candidates.
    let regions = base.strap_regions(config.regions_per_orientation);
    let golden = &bundle.golden_widths;
    let (lo, hi) = golden
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &w| {
            (lo.min(w), hi.max(w))
        });
    let ratio = ((hi * config.ladder_span) / (lo / config.ladder_span))
        .powf(1.0 / (config.ladder_levels - 1) as f64);
    let stride = bundle.meta.inference_stride;
    let (mut set_widths, mut apply, mut irpredict, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, widths) in width_steps(ctx.seed, golden, &regions, ratio, REPLAY)
        .into_iter()
        .enumerate()
    {
        let id = format!("oracle-{i}");
        let request = PredictRequest::new(id.as_str()).with_widths(widths.clone());
        t.span("synth/oracle", None, &id, |root| {
            let mut copy = base.clone();
            let (res, s) = t.span("netlist/set_widths", root, &id, |_| {
                copy.set_strap_widths(&widths)
            });
            if rep.check("set_strap_widths", res).is_some() {
                set_widths.push(s * 1e3);
            }
            let (test, s) = t.span("predict/apply", root, &id, |_| request.apply(&base));
            let Some(test) = rep.check("request apply", test) else {
                return;
            };
            apply.push(s * 1e3);
            let (ir, s) = t.span("predict/irpredict", root, &id, |_| {
                IrPredictor::new().predict(&test, &widths)
            });
            let Some(ir) = rep.check("Kirchhoff estimate", ir) else {
                return;
            };
            irpredict.push(s * 1e3);
            let (whole, s) = t.span("predict/total", root, &id, |_| {
                predict(&bundle.predictor, &base, &request, stride)
            });
            if let Some(whole) = rep.check("predict", whole) {
                total.push(s * 1e3);
                rep.expect(
                    whole.response.worst_ir_mv.to_bits() == ir.worst_mv().to_bits(),
                    || format!("layer-by-layer replay of {id} differs from predict::predict"),
                );
            }
        });
    }
    rep.metric(
        "netlist.set_widths_ms",
        "set_strap_widths p50",
        stats::median(&set_widths),
        set_widths.len(),
    );
    rep.metric(
        "predict.apply_ms",
        "PredictRequest::apply p50",
        stats::median(&apply),
        apply.len(),
    );
    rep.metric(
        "predict.irpredict_ms",
        "IrPredictor::predict p50",
        stats::median(&irpredict),
        irpredict.len(),
    );
    rep.metric(
        "predict.total_ms",
        "predict::predict p50",
        stats::median(&total),
        total.len(),
    );
    rep.line("predict.infer_ms is 0 here: width overrides bypass NN inference");
}

/// Checks every result is feasible and bitwise equal to the first;
/// returns the first.
fn check_results(
    rep: &mut Report,
    results: &[ppdl_core::Result<SynthResult>],
) -> Option<SynthResult> {
    let mut first: Option<SynthResult> = None;
    for r in results {
        let Some(r) = rep.check("synthesize", r.as_ref().map_err(ToString::to_string)) else {
            continue;
        };
        rep.expect(r.feasible, || {
            format!(
                "synthesis infeasible: {:.3} mV over a {:.3} mV target",
                r.worst_ir_mv(),
                r.target_worst_ir * 1e3
            )
        });
        match &first {
            None => first = Some(r.clone()),
            Some(f) => rep.expect(f == r, || {
                "repeated synthesis gave a different result".into()
            }),
        }
    }
    first
}
