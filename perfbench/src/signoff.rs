//! `signoff`: the calibrated ibmpgnew1 grid at scale 0.02 (perimeter
//! pads only). `ConventionalFlow::run` sizes it to convergence, then
//! `StaticAnalysis::solve` signs off perturbed test designs.
//!
//! MNA assembly, preconditioning and CG do nearly all the work and the
//! NN none, so solver changes show here. The workload seed picks the
//! perturbed sign-off designs.

use std::time::Instant;

use ppdl_analysis::StaticAnalysis;
use ppdl_core::experiment::{prepare, PreparedBenchmark, STANDARD_OVERDRIVE};
use ppdl_core::{ConventionalConfig, ConventionalFlow};
use ppdl_netlist::IbmPgPreset;

use crate::assets::GRID_SEED;
use crate::inputs::perturbations;
use crate::report::Report;
use crate::{repeat_for, report_generate, report_merge, setup_phase, stats, Counters, Ctx};

const PRESET: IbmPgPreset = IbmPgPreset::IbmpgNew1;
const SCALE: f64 = 0.02;
/// Perturbed designs signed off after each sizing run.
const SIGNOFFS: usize = 4;

/// One sizing run plus its sign-offs.
struct Unit {
    sizing_secs: f64,
    analysis_ms: Vec<f64>,
    iterations: usize,
    worst_ir: f64,
    widths: Vec<u64>,
    violations: usize,
}

fn unit(ctx: &Ctx, prepared: &PreparedBenchmark, index: usize) -> Result<Unit, String> {
    let t = &ctx.tracer;
    let tag = format!("signoff-{index}");
    let flow = ConventionalFlow::new(ConventionalConfig {
        ir_margin_fraction: prepared.margin_fraction,
        ..ConventionalConfig::default()
    });
    let (res, _) = t.span("signoff/unit", None, &tag, |root| {
        let ((sized, result), sizing_secs) = match t.span("conventional/run", root, &tag, |_| {
            flow.run(&prepared.bench)
        }) {
            (Ok(v), s) => (v, s),
            (Err(e), _) => return Err(format!("sizing did not converge: {e}")),
        };
        let analyzer = StaticAnalysis::default();
        let mut analysis_ms = Vec::new();
        let mut violations = 0;
        for p in perturbations(ctx.seed, 10 + index as u64, SIGNOFFS) {
            let test = p.apply(&sized).map_err(|e| format!("perturbation: {e}"))?;
            let (report, s) = t.span("analysis/solve", root, &tag, |_| {
                analyzer.solve(test.network())
            });
            let report = report.map_err(|e| format!("sign-off solve: {e}"))?;
            let worst = report.worst_drop().map_or(f64::NAN, |(_, d)| d);
            if !(worst.is_finite() && worst > 0.0) {
                return Err(format!(
                    "sign-off worst drop {worst} is not a positive number"
                ));
            }
            if worst > prepared.target_worst_ir {
                violations += 1;
            }
            analysis_ms.push(s * 1e3);
        }
        Ok(Unit {
            sizing_secs,
            analysis_ms,
            iterations: result.iterations,
            worst_ir: result.worst_ir,
            widths: result.widths.iter().map(|w| w.to_bits()).collect(),
            violations,
        })
    });
    res
}

/// One timed set-up: generates and calibrates the grid into `keep`
/// (replacing what it held), returning the time it took.
fn generate(rep: &mut Report, keep: &mut Option<PreparedBenchmark>) -> Option<f64> {
    // Free the previous set-up first, so each one reuses warm heap
    // instead of faulting in fresh pages.
    *keep = None;
    let t0 = Instant::now();
    let prepared = rep.check(
        "generating and calibrating",
        prepare(PRESET, SCALE, GRID_SEED, STANDARD_OVERDRIVE),
    )?;
    let secs = t0.elapsed().as_secs_f64();
    *keep = Some(prepared);
    Some(secs)
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    setup_phase(rep, &mut setup_s, |rep| generate(rep, &mut prepared));
    let Some(prepared) = prepared else {
        return;
    };

    ppdl_obs::set_enabled(false);
    let (units, _) = repeat_for(ctx.pass_seconds(), |i| unit(ctx, &prepared, i));
    setup_phase(rep, &mut setup_s, |rep| generate(rep, &mut None));
    rep.metric(
        "setup_s",
        "grid generation and calibration",
        stats::median(&setup_s),
        setup_s.len(),
    );
    let Some(first) = check_units(rep, &prepared, &units) else {
        return;
    };
    let ok: Vec<&Unit> = units.iter().filter_map(|u| u.as_ref().ok()).collect();
    let sizing_ms: Vec<f64> = ok.iter().map(|u| u.sizing_secs * 1e3).collect();
    let analysis_ms: Vec<f64> = ok.iter().flat_map(|u| u.analysis_ms.clone()).collect();
    let analysis_p50 = stats::median(&analysis_ms);
    rep.metric(
        "time_ms",
        "signoff_s (x1000)",
        stats::median(&sizing_ms),
        sizing_ms.len(),
    );
    rep.metric(
        "tail_ms",
        "signoff_s upper quartile",
        stats::upper_quartile(&sizing_ms),
        sizing_ms.len(),
    );
    rep.metric(
        "rate_per_s",
        "sign-off analyses/s (1000/analysis_p50_ms)",
        1e3 / analysis_p50,
        analysis_ms.len(),
    );
    rep.line(format!(
        "analysis_p50_ms = {analysis_p50:.3} ms (n={})",
        analysis_ms.len()
    ));
    let margin = prepared.target_worst_ir;
    rep.metric(
        "quality_pct",
        "unused IR margin after sizing",
        100.0 * (margin - first.worst_ir) / margin,
        1,
    );
    let violations: usize = ok.iter().map(|u| u.violations).sum();
    rep.line(format!(
        "sizing: {} iterations to {:.3} mV under a {:.3} mV margin; {violations} of {} perturbed \
         designs exceed the margin at sign-off",
        first.iterations,
        first.worst_ir * 1e3,
        margin * 1e3,
        analysis_ms.len()
    ));

    if !ctx.trace {
        return;
    }
    ppdl_obs::set_enabled(true);
    let c0 = Counters::read();
    let (traced, traced_secs) = repeat_for(ctx.pass_seconds(), |i| unit(ctx, &prepared, 1000 + i));
    let counts = Counters::read().since(&c0);
    check_units(rep, &prepared, &traced);
    let traced_ok: Vec<&Unit> = traced.iter().filter_map(|u| u.as_ref().ok()).collect();
    let traced_sizing: Vec<f64> = traced_ok.iter().map(|u| u.sizing_secs * 1e3).collect();
    let untraced = stats::median(&sizing_ms);
    rep.metric(
        "trace.overhead_pct",
        "traced - untraced signoff_s",
        100.0 * (stats::median(&traced_sizing) - untraced) / untraced,
        traced_secs.len(),
    );
    let solves: Vec<f64> = traced_ok
        .iter()
        .flat_map(|u| u.analysis_ms.clone())
        .collect();
    rep.metric(
        "analysis.solve_ms",
        "sign-off solve p50",
        stats::median(&solves),
        solves.len(),
    );
    rep.metric(
        "analysis.sizing_iters",
        "sizing iterations",
        first.iterations as f64,
        1,
    );
    counts.report_solver(rep);
    let sized = {
        let mut b = prepared.bench.clone();
        b.set_strap_widths(
            &first
                .widths
                .iter()
                .map(|&w| f64::from_bits(w))
                .collect::<Vec<_>>(),
        )
        .map(|()| b)
    };
    if let Some(sized) = rep.check("restoring the sized widths", sized) {
        report_merge(ctx, rep, &sized);
    }
    report_generate(ctx, rep, PRESET, SCALE);
}

/// Counts each unit, checks that repeated sizing runs agree bitwise,
/// and returns the first successful unit.
fn check_units<'a>(
    rep: &mut Report,
    prepared: &PreparedBenchmark,
    units: &'a [Result<Unit, String>],
) -> Option<&'a Unit> {
    let mut first: Option<&Unit> = None;
    for u in units {
        let Some(u) = rep.check("sizing and sign-off", u.as_ref()) else {
            continue;
        };
        rep.expect(u.worst_ir <= prepared.target_worst_ir, || {
            format!(
                "sizing ended at {:.3} mV over the {:.3} mV margin",
                u.worst_ir * 1e3,
                prepared.target_worst_ir * 1e3
            )
        });
        match first {
            None => first = Some(u),
            Some(f) => rep.expect(f.widths == u.widths, || {
                "repeated sizing gave different widths".into()
            }),
        }
    }
    first
}
