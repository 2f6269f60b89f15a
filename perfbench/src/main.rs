//! The PowerPlanningDL benchmark: four seeded workloads that together
//! cover every layer of the workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload eco_serve --seed 1 --seconds 36 --trace 0
//! ```
//!
//! * `eco_serve`   — networked ECO queries against a resident bundle.
//! * `synth`       — predictor-in-the-loop synthesis on a dense-pad grid.
//! * `design_flow` — the cold paper flow, stage by stage.
//! * `signoff`     — conventional sizing plus MNA sign-off solves.
//! * `all`         — the four in sequence, one report each.
//!
//! `BENCHMARK.json` gates the first three. `signoff` stays runnable by
//! name: the gate's run budget does not fit a fourth workload at a run
//! length that keeps the timings steady on a shared two-core host.
//!
//! With `--trace 0` the run measures the end-to-end metrics with
//! telemetry off. With `--trace 1` it measures the same loop untraced,
//! then traced, and reports the per-layer split and the tracing
//! overhead; the spans go to `<target>/perfbench-data/traces/`. The
//! last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. The process
//! exits non-zero when any output check failed.

mod assets;
mod eco;
mod flow;
mod host;
mod inputs;
mod report;
mod signoff;
mod stats;
mod synth;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ppdl_bench::memtrack;
use report::Report;
use trace::Tracer;

#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator::new();

/// Workload names, in the order `all` runs them.
const WORKLOADS: &[&str] = &["eco_serve", "synth", "design_flow", "signoff"];

/// Each set-up phase repeats the workload's set-up at least
/// `SETUP_MIN` times and until `SETUP_PHASE_S` has passed (at most
/// `SETUP_MAX` times). A run has two phases, one before and one after
/// its timed work, and `setup_s` is the median over both.
pub const SETUP_MIN: usize = 2;
/// See [`SETUP_MIN`].
pub const SETUP_MAX: usize = 100;
/// See [`SETUP_MIN`].
pub const SETUP_PHASE_S: f64 = 1.5;

/// What every workload receives.
pub struct Ctx {
    /// Workload seed: all inputs derive from it.
    pub seed: u64,
    /// Seconds the timed loop runs (split in two halves when traced).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Threads the compute pool is pinned to.
    pub threads: usize,
    /// Where trained bundles and traces live.
    pub data_dir: PathBuf,
    /// The benchmark's span recorder (enabled only when traced).
    pub tracer: Tracer,
}

impl Ctx {
    /// How long one measured pass lasts: the whole run untraced, half
    /// of it for each of the untraced and traced passes otherwise.
    #[must_use]
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Runs `op` at least once and while `seconds` have not passed,
/// returning its results and per-call durations in seconds.
///
/// A further call starts only if, at the median duration so far, it
/// would end no later than half a call past the deadline. The pass
/// then lasts `seconds` on average, not half a call more: with calls of
/// several seconds that overrun would otherwise eat the run budget.
pub fn repeat_for<T>(seconds: f64, mut op: impl FnMut(usize) -> T) -> (Vec<T>, Vec<f64>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut out, mut secs) = (Vec::new(), Vec::new());
    loop {
        let t0 = Instant::now();
        out.push(op(out.len()));
        secs.push(t0.elapsed().as_secs_f64());
        let half_call = Duration::from_secs_f64(stats::median(&secs) / 2.0);
        if Instant::now() + half_call >= deadline {
            return (out, secs);
        }
    }
}

/// Snapshot of the `ppdl_obs` counters the per-layer metrics read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Converged CG solves.
    pub cg_solves: u64,
    /// CG iterations over those solves.
    pub cg_iters: u64,
    /// SpMV matrix elements touched.
    pub spmv_elements: u64,
    /// GEMM fused multiply-adds.
    pub gemm_fmas: u64,
    /// Training epochs run.
    pub epochs: u64,
}

/// Bytes one SpMV element moves by the kernel's data layout: an `f64`
/// value, a `usize` column index and the gathered `f64` of `x`. A
/// computed figure, not a measured one.
pub const SPMV_BYTES_PER_ELEMENT: u64 = 24;

impl Counters {
    /// Reads the global registry.
    #[must_use]
    pub fn read() -> Self {
        let reg = ppdl_obs::global();
        Self {
            cg_solves: reg.counter("solver/cg/solves").get(),
            cg_iters: reg.counter("solver/cg/iterations_total").get(),
            spmv_elements: reg.counter("solver/spmv/elements").get(),
            gemm_fmas: reg.counter("nn/gemm/fmas").get(),
            epochs: reg.counter("nn/epochs").get(),
        }
    }

    /// Counts accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            cg_solves: self.cg_solves - earlier.cg_solves,
            cg_iters: self.cg_iters - earlier.cg_iters,
            spmv_elements: self.spmv_elements - earlier.spmv_elements,
            gemm_fmas: self.gemm_fmas - earlier.gemm_fmas,
            epochs: self.epochs - earlier.epochs,
        }
    }

    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &Self) {
        self.cg_solves += other.cg_solves;
        self.cg_iters += other.cg_iters;
        self.spmv_elements += other.spmv_elements;
        self.gemm_fmas += other.gemm_fmas;
        self.epochs += other.epochs;
    }

    /// Records the solver metrics these counts give.
    pub fn report_solver(&self, rep: &mut Report) {
        let solves = self.cg_solves.max(1) as f64;
        rep.metric(
            "solver.cg_iters_per_solve",
            "cg iterations / solve",
            self.cg_iters as f64 / solves,
            self.cg_solves as usize,
        );
        rep.metric("solver.cg_solves", "cg solves", self.cg_solves as f64, 1);
        rep.metric(
            "solver.spmv_bytes",
            "spmv bytes / solve (computed)",
            (self.spmv_elements * SPMV_BYTES_PER_ELEMENT) as f64 / solves,
            self.cg_solves as usize,
        );
    }
}

/// One set-up phase (see [`SETUP_MIN`]): appends to `samples` the
/// durations `setup` returns, in seconds (`None` is a failure it has
/// already counted, and ends the phase).
pub fn setup_phase(
    rep: &mut Report,
    samples: &mut Vec<f64>,
    mut setup: impl FnMut(&mut Report) -> Option<f64>,
) {
    let start = Instant::now();
    for i in 0..SETUP_MAX {
        if i >= SETUP_MIN && start.elapsed().as_secs_f64() >= SETUP_PHASE_S {
            break;
        }
        match setup(rep) {
            Some(s) => samples.push(s),
            None => break,
        }
    }
}

/// Bit patterns of `v`, for bitwise comparisons.
#[must_use]
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Records `analysis.merge_ms`: the median of 5 timed
/// `merged_shorts` calls on `bench`'s network.
pub fn report_merge(ctx: &Ctx, rep: &mut Report, bench: &ppdl_netlist::SyntheticBenchmark) {
    let merge: Vec<f64> = (0..5)
        .map(|i| {
            let (_, s) = ctx
                .tracer
                .span("analysis/merge", None, &format!("merge-{i}"), |_| {
                    std::hint::black_box(bench.network().merged_shorts())
                });
            s * 1e3
        })
        .collect();
    rep.metric(
        "analysis.merge_ms",
        "merged_shorts p50",
        stats::median(&merge),
        merge.len(),
    );
}

/// Records `netlist.generate_s`: the median of 3 timed generations of
/// `preset` at `scale`.
pub fn report_generate(ctx: &Ctx, rep: &mut Report, preset: ppdl_netlist::IbmPgPreset, scale: f64) {
    let generate: Vec<f64> = (0..3)
        .filter_map(|i| {
            let (res, s) = ctx
                .tracer
                .span("netlist/generate", None, &format!("gen-{i}"), |_| {
                    ppdl_netlist::SyntheticBenchmark::from_preset(preset, scale, assets::GRID_SEED)
                });
            rep.check("grid generation", res).map(|_| s)
        })
        .collect();
    rep.metric(
        "netlist.generate_s",
        "SyntheticBenchmark::from_preset p50",
        stats::median(&generate),
        generate.len(),
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 36.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn data_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-data")
}

/// Runs one workload and returns its finished report.
fn run_workload(name: &'static str, args: &Args, threads: usize, host: &host::Host) -> Report {
    let mut rep = Report::new(name);
    rep.line(host.line());
    rep.line(format!(
        "seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        data_dir: data_dir(),
        tracer: Tracer::new(args.trace),
    };
    let assets = assets::ensure(&ctx.data_dir, &mut rep);
    // Training the cached bundles is not part of any run's footprint.
    memtrack::reset_peak();
    match assets {
        Ok(assets) => match name {
            "eco_serve" => eco::run(&ctx, &assets, &mut rep),
            "synth" => synth::run(&ctx, &assets, &mut rep),
            "design_flow" => flow::run(&ctx, &mut rep),
            _ => signoff::run(&ctx, &mut rep),
        },
        Err(e) => {
            rep.attempt();
            rep.fail(format!("preparing trained bundles: {e}"));
        }
    }
    ppdl_obs::set_enabled(false);
    rep.line(
        "not in BENCHMARK.json: the signoff workload (it runs by name and in `all`); a fourth \
         gated workload does not fit the regression check's run budget at 36 s per run, and its \
         layers are measured on the other three (README.md)",
    );
    if !args.trace {
        rep.line(
            "not a JSON metric: error_rate, which is failed / attempted on the checks line and \
             reads 0 on every healthy run",
        );
        rep.metric(
            "peak_mib",
            "peak_mib",
            memtrack::to_mib(memtrack::peak_bytes()),
            1,
        );
    } else {
        let path = ctx
            .data_dir
            .join("traces")
            .join(format!("{name}-seed{}.json", args.seed));
        let header = format!(
            "\"workload\":\"{name}\",\"seed\":{},\"threads\":{threads}",
            args.seed
        );
        match ctx.tracer.write_json(&path, &header) {
            Ok(()) => rep.line(format!("spans written to {}", path.display())),
            Err(e) => rep.line(format!("could not write spans to {}: {e}", path.display())),
        }
        for (span, (count, total, own)) in ctx.tracer.summary() {
            rep.line(format!(
                "span {span:<20} count={count:<6} total={total:.3} ms self={own:.3} ms"
            ));
        }
    }
    rep
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = host::nproc();
    ppdl_solver::parallel::set_threads(threads);
    let host = host::Host::probe(threads);

    let names: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w == args.workload)
            .collect()
    };
    let keys = if args.trace {
        report::LAYER
    } else {
        report::E2E
    };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Vec::new();
    for name in &names {
        let mut rep = run_workload(name, &args, threads, &host);
        let json = rep.metrics_json(keys, args.trace);
        for line in rep.lines() {
            println!("{line}");
        }
        for f in rep.failures() {
            println!("[{name}] FAILED {f}");
        }
        let (a, f) = rep.counts();
        println!(
            "[{name}] checks: {a} attempted, {f} failed, error_rate={:.6}",
            f as f64 / a.max(1) as f64
        );
        attempted += a;
        failed += f;
        correct &= rep.correct();
        metrics.push((*name, json));
    }
    let metrics = if metrics.len() == 1 {
        metrics.remove(0).1
    } else {
        let parts: Vec<String> = metrics
            .iter()
            .map(|(n, j)| format!("\"{n}\":{j}"))
            .collect();
        format!("{{{}}}", parts.join(","))
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        attempted.max(1)
    );
    if !correct {
        std::process::exit(1);
    }
}
