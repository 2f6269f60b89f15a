//! `eco_serve`: networked ECO queries against a resident ibmpg2 bundle.
//!
//! Closed loop: one client connection per core, each sending one
//! request plus `{"cmd":"flush"}` and waiting for the reply before the
//! next. The mix (see `inputs::EcoStream`) is about 75% §IV-D
//! perturbations, 15% load overrides and 10% exact repeats, which the
//! service answers from its response cache.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

use ppdl_analysis::StaticAnalysis;
use ppdl_core::predict::{predict, PredictRequest, TrainedBundle};
use ppdl_core::IrPredictor;
use ppdl_netlist::SyntheticBenchmark;
use ppdl_service::{serve_tcp, Json, ModelRegistry, NetConfig, ServiceConfig};

use crate::assets::Assets;
use crate::inputs::{eco_reference, EcoPayload, EcoRequest, EcoStream};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{bits, report_merge, setup_phase, stats, Counters, Ctx};

/// Registry name of the resident bundle.
const BUNDLE: &str = "eco";
/// Requests a timed loop completes at least (half each when traced).
const MIN_REQUESTS: usize = 1000;
/// Discarded warm-up requests per client.
const WARMUP: usize = 8;
/// Every this many requests of a client, the reply is kept for the
/// bitwise check against in-process prediction.
const BITWISE_EVERY: usize = 64;
/// Size of the fixed reference sample checked against MNA.
const REFERENCE: usize = 12;
/// `{"cmd":"stats"}` round trips timed after the loop.
const STATS_PROBES: usize = 50;
/// Requests of the traced pass replayed in-process, call by call.
const REPLAY: usize = 48;
/// Offset that separates the warm-up streams from the timed ones.
const WARMUP_SEED: u64 = 0x77a7_0000;

/// A running loopback listener.
struct Server {
    addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Bundle load to listener ready, timed.
    fn start(path: &Path) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let bundle = TrainedBundle::load(path).map_err(|e| format!("loading bundle: {e}"))?;
        let registry = Arc::new(ModelRegistry::new(ServiceConfig::default()));
        registry
            .install(BUNDLE, bundle)
            .map_err(|e| format!("installing bundle: {e}"))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let served = Arc::clone(&registry);
        let handle = std::thread::spawn(move || {
            let config = NetConfig::default();
            serve_tcp(&served, &listener, &config)
        });
        let secs = t0.elapsed().as_secs_f64();
        Ok((
            Self {
                addr,
                registry,
                handle,
            },
            secs,
        ))
    }

    /// Sends `{"cmd":"shutdown"}` and waits for the listener to drain.
    fn stop(self) -> Result<(), String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        s.write_all(b"{\"cmd\":\"shutdown\"}\n")
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut rest = String::new();
        let _ = s.read_to_string(&mut rest);
        self.handle
            .join()
            .map_err(|_| "listener thread panicked".to_string())?
            .map_err(|e| format!("listener: {e}"))
    }
}

/// One timed set-up: stops the listener in `keep` (untimed), then
/// starts a fresh one there and returns its start-up time.
fn restart(rep: &mut Report, bundle: &Path, keep: &mut Option<Server>) -> Option<f64> {
    if let Some(previous) = keep.take() {
        rep.check("stopping a set-up listener", previous.stop());
    }
    let (started, secs) = rep.check("starting the listener", Server::start(bundle))?;
    *keep = Some(started);
    Some(secs)
}

/// One client connection and its request stream.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    stream: EcoStream,
    warmup: EcoStream,
}

impl Client {
    fn connect(addr: SocketAddr, stream: EcoStream, warmup: EcoStream) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Self {
            writer,
            reader,
            stream,
            warmup,
        })
    }

    /// Writes `wire` and reads one reply line.
    fn round_trip(&mut self, wire: &str) -> Result<String, String> {
        self.writer
            .write_all(wire.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// The fields of an `ok` reply the checks use.
#[derive(Debug, Clone)]
struct Reply {
    cached: bool,
    worst_ir_mv: f64,
    dl_ms: f64,
    widths: Vec<f64>,
}

fn parse_reply(line: &str, id: &str) -> Result<Reply, String> {
    let v = Json::parse(line.trim()).map_err(|e| format!("reply is not JSON: {e}"))?;
    if v.get("id").and_then(Json::as_str) != Some(id) {
        return Err(format!("reply for another id: {}", line.trim()));
    }
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("reply not ok: {}", line.trim()));
    }
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("reply lacks {k}"))
    };
    let widths = v
        .get("widths")
        .and_then(Json::as_array)
        .ok_or("reply lacks widths")?
        .iter()
        .map(|w| w.as_f64().ok_or("non-numeric width"))
        .collect::<Result<Vec<f64>, _>>()?;
    Ok(Reply {
        cached: matches!(v.get("cached"), Some(Json::Bool(true))),
        worst_ir_mv: num("worst_ir_mv")?,
        dl_ms: num("dl_ms")?,
        widths,
    })
}

/// One timed request.
struct Sample {
    request: EcoRequest,
    index: usize,
    rtt_ms: f64,
    reply: Result<Reply, String>,
}

/// One closed-loop pass over every client: runs until `seconds` have
/// passed and at least `min_total` requests completed. Returns the
/// samples and the pass's wall time.
fn pass(
    clients: &mut [Client],
    seconds: f64,
    min_total: usize,
    tracer: Option<&Tracer>,
) -> (Vec<Sample>, f64) {
    let barrier = Barrier::new(clients.len() + 1);
    let done = AtomicUsize::new(0);
    let (samples, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (barrier, done) = (&barrier, &done);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed().as_secs_f64() < seconds
                        || done.load(Ordering::Relaxed) < min_total
                    {
                        let index = client.stream.history().len();
                        let request = client.stream.next_request().clone();
                        let wire = request.wire();
                        let t0 = Instant::now();
                        let line = match tracer {
                            Some(t) => {
                                t.span("eco/rtt", None, &request.id, |_| client.round_trip(&wire))
                                    .0
                            }
                            None => client.round_trip(&wire),
                        };
                        let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
                        done.fetch_add(1, Ordering::Relaxed);
                        let broken = line.is_err();
                        let reply = line.and_then(|l| parse_reply(&l, &request.id));
                        let reply = reply.map(|mut r| {
                            if index % BITWISE_EVERY != 0 {
                                r.widths = Vec::new();
                            }
                            r
                        });
                        out.push(Sample {
                            request,
                            index,
                            rtt_ms,
                            reply,
                        });
                        if broken {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let samples: Vec<Sample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect();
        (samples, t0.elapsed().as_secs_f64())
    });
    (samples, wall)
}

/// Records request outcomes and returns the round trips of the
/// successful ones.
fn tally(rep: &mut Report, samples: &[Sample]) -> Vec<f64> {
    let mut rtts = Vec::with_capacity(samples.len());
    for s in samples {
        rep.attempt();
        match &s.reply {
            Ok(_) => rtts.push(s.rtt_ms),
            Err(e) => rep.fail(format!("request {}: {e}", s.request.id)),
        }
    }
    rtts
}

pub fn run(ctx: &Ctx, assets: &Assets, rep: &mut Report) {
    rep.line(
        "dropped: width-override requests (15% of the planned mix); the NDJSON protocol has no \
         width field, so they run in-process in the synth workload instead",
    );
    let mut setup_s = Vec::new();
    let mut server = None;
    setup_phase(rep, &mut setup_s, |rep| {
        restart(rep, &assets.eco, &mut server)
    });
    let Some(server) = server else {
        return;
    };
    let Some(core) = server.registry.get(BUNDLE) else {
        rep.attempt();
        rep.fail("bundle missing from the registry");
        return;
    };
    let base_loads = core.bundle().loads.clone();
    drop(core);

    let mut clients = Vec::new();
    for c in 0..ctx.threads.max(1) {
        let stream = EcoStream::new(ctx.seed, c, "c", &base_loads);
        let warmup = EcoStream::new(ctx.seed.wrapping_add(WARMUP_SEED), c, "w", &base_loads);
        if let Some(client) = rep.check("connecting", Client::connect(server.addr, stream, warmup))
        {
            clients.push(client);
        }
    }
    for client in &mut clients {
        for _ in 0..WARMUP {
            let r = client.warmup.next_request().clone();
            let reply = client
                .round_trip(&r.wire())
                .and_then(|l| parse_reply(&l, &r.id));
            rep.check("warm-up request", reply);
        }
    }

    let seconds = ctx.pass_seconds();
    let min = if ctx.trace {
        MIN_REQUESTS / 2
    } else {
        MIN_REQUESTS
    };
    ppdl_obs::set_enabled(false);
    let (samples, wall) = pass(&mut clients, seconds, min, None);
    let rtts = tally(rep, &samples);
    let p50 = stats::median(&rtts);
    rep.metric("time_ms", "eco_p50_ms", p50, rtts.len());
    // The gated tail is p90. Over the ~2000 requests of a run, p99 rests
    // on the 20 slowest, which on a shared two-core host are set by host
    // stalls: ten runs of the same code spread it by half its median.
    rep.metric(
        "tail_ms",
        "eco_p90_ms",
        stats::quantile(&rtts, 0.90).unwrap_or(0.0),
        rtts.len(),
    );
    for q in [0.95, 0.99] {
        rep.line(format!(
            "eco_p{:.0}_ms = {:.6} ms (n={}; printed, not gated: host stalls set it)",
            q * 100.0,
            stats::quantile(&rtts, q).unwrap_or(0.0),
            rtts.len()
        ));
    }
    rep.metric(
        "rate_per_s",
        "eco_rps",
        rtts.len() as f64 / wall,
        rtts.len(),
    );
    let mut traced = Vec::new();
    if ctx.trace {
        ppdl_obs::set_enabled(true);
        let (t_samples, _) = pass(&mut clients, seconds, min, Some(&ctx.tracer));
        let t_rtts = tally(rep, &t_samples);
        let t_p50 = stats::median(&t_rtts);
        rep.metric(
            "trace.overhead_pct",
            "traced - untraced eco_p50_ms",
            100.0 * (t_p50 - p50) / p50.max(f64::MIN_POSITIVE),
            t_rtts.len(),
        );
        traced = t_samples;
    }
    let dl_ms: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.reply.as_ref().ok())
        .filter(|r| !r.cached)
        .map(|r| r.dl_ms)
        .collect();

    // The service's own view, over a no-compute command.
    let mut stats_rtts = Vec::new();
    let mut last_stats = None;
    if let Some(client) = clients.first_mut() {
        for _ in 0..STATS_PROBES {
            let t0 = Instant::now();
            let line = client.round_trip("{\"cmd\":\"stats\"}\n");
            stats_rtts.push(t0.elapsed().as_secs_f64() * 1e3);
            last_stats = rep.check("stats command", line);
        }
    }
    if ctx.trace {
        rep.metric(
            "service.rtt_stats_ms",
            "stats round trip p50",
            stats::median(&stats_rtts),
            stats_rtts.len(),
        );
        service_stats(rep, last_stats.as_deref());
    }

    // The fixed reference sample, over the wire, outside the timed loop.
    let reference = eco_reference(REFERENCE, &base_loads);
    let mut reference_replies = Vec::new();
    if let Some(client) = clients.first_mut() {
        for r in &reference {
            let reply = client
                .round_trip(&r.wire())
                .and_then(|l| parse_reply(&l, &r.id));
            if let Some(reply) = rep.check("reference request", reply) {
                reference_replies.push((r.clone(), reply));
            }
        }
    }
    drop(clients);
    let stopped = server.stop();
    rep.check("stopping the listener", stopped);
    let mut spare = None;
    setup_phase(rep, &mut setup_s, |rep| {
        restart(rep, &assets.eco, &mut spare)
    });
    if let Some(spare) = spare {
        rep.check("stopping a set-up listener", spare.stop());
    }
    rep.metric(
        "setup_s",
        "bundle load to listener ready",
        stats::median(&setup_s),
        setup_s.len(),
    );

    let Some(bundle) = rep.check("reloading the bundle", TrainedBundle::load(&assets.eco)) else {
        return;
    };
    let Some(base) = rep.check("instantiating the base", bundle.instantiate_base()) else {
        return;
    };
    let stride = bundle.meta.inference_stride;

    // Bitwise: the kept replies against in-process prediction.
    let kept = samples
        .iter()
        .chain(&traced)
        .filter(|s| s.index % BITWISE_EVERY == 0)
        .filter_map(|s| s.reply.as_ref().ok().map(|r| (&s.request, r)))
        .chain(reference_replies.iter().map(|(q, r)| (q, r)));
    let mut compared = 0;
    for (request, reply) in kept {
        let local = predict(
            &bundle.predictor,
            &base,
            &request.payload.request(&request.id),
            stride,
        );
        if let Some(local) = rep.check("in-process predict", local) {
            compared += 1;
            let same = local.response.worst_ir_mv.to_bits() == reply.worst_ir_mv.to_bits()
                && bits(&local.response.widths) == bits(&reply.widths);
            rep.expect(same, || {
                format!("reply {} differs from in-process predict", request.id)
            });
        }
    }
    rep.line(format!(
        "checked {compared} replies bitwise against in-process predict::predict"
    ));

    // Accuracy: reference replies against a full MNA solve.
    let analyzer = StaticAnalysis::default();
    let mut errors = Vec::new();
    let mut mna_ms = Vec::new();
    for (request, reply) in &reference_replies {
        let test = request.payload.request(&request.id).apply(&base);
        let Some(test) = rep.check("applying a reference request", test) else {
            continue;
        };
        let (report, secs) = ctx.tracer.span("analysis/solve", None, &request.id, |_| {
            analyzer.solve(test.network())
        });
        let Some(report) = rep.check("MNA reference solve", report) else {
            continue;
        };
        mna_ms.push(secs * 1e3);
        let mna = report.worst_drop().map_or(0.0, |(_, d)| d) * 1e3;
        errors.push(100.0 * (reply.worst_ir_mv - mna).abs() / mna);
    }
    rep.metric(
        "quality_pct",
        "eco_ir_err_max_pct",
        stats::max(&errors),
        errors.len(),
    );
    let dl_p50 = stats::median(&dl_ms);
    let mna_p50 = stats::median(&mna_ms);
    rep.line(format!(
        "eco DL/MNA time ratio = {:.4} (DL p50 {dl_p50:.3} ms over {} uncached replies, MNA p50 \
         {mna_p50:.3} ms over {} solves; reported only, no regression direction)",
        dl_p50 / mna_p50.max(f64::MIN_POSITIVE),
        dl_ms.len(),
        mna_ms.len()
    ));

    if ctx.trace {
        rep.metric("analysis.solve_ms", "MNA solve p50", mna_p50, mna_ms.len());
        replay(ctx, rep, &bundle, &base, &traced);
    }
}

/// Reads `service.cache_hit_ratio` and `service.errors` from the
/// registry's stats reply.
fn service_stats(rep: &mut Report, line: Option<&str>) {
    let parsed = line
        .and_then(|l| Json::parse(l.trim()).ok())
        .and_then(|v| v.get("bundles").and_then(|b| b.get(BUNDLE)).cloned());
    let Some(stats) = parsed else {
        rep.attempt();
        rep.fail("stats reply lacks the bundle's counters");
        return;
    };
    let get = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let requests = get("requests");
    rep.metric(
        "service.cache_hit_ratio",
        "cache hits / requests",
        get("cache_hits") / requests.max(1.0),
        requests as usize,
    );
    rep.metric(
        "service.errors",
        "service error replies",
        get("errors"),
        requests as usize,
    );
}

/// Replays traced requests in-process and times each layer's call
/// separately: perturbation, request apply, width inference, Kirchhoff
/// estimate, and the whole `predict::predict` as the sum check.
fn replay(
    ctx: &Ctx,
    rep: &mut Report,
    bundle: &TrainedBundle,
    base: &SyntheticBenchmark,
    traced: &[Sample],
) {
    let t = &ctx.tracer;
    let stride = bundle.meta.inference_stride;
    let chosen: Vec<&EcoRequest> = traced
        .iter()
        .filter(|s| s.request.repeat_of.is_none())
        .map(|s| &s.request)
        .take(REPLAY)
        .collect();
    let (mut perturb, mut apply, mut infer, mut irpredict, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut infer_counts, mut ir_counts) = (Counters::default(), Counters::default());
    for r in chosen {
        let request: PredictRequest = r.payload.request(&r.id);
        let id = r.id.as_str();
        t.span("eco/replay", None, id, |root| {
            if let EcoPayload::Perturb(p) = &r.payload {
                let (res, s) = t.span("netlist/perturb", root, id, |_| p.apply(base));
                if rep.check("perturbation", res).is_some() {
                    perturb.push(s * 1e3);
                }
            }
            let (test, s) = t.span("predict/apply", root, id, |_| request.apply(base));
            let Some(test) = rep.check("request apply", test) else {
                return;
            };
            apply.push(s * 1e3);
            let c0 = Counters::read();
            let (widths, s) = t.span("predict/infer", root, id, |_| {
                bundle.predictor.predict_strap_widths_sampled(&test, stride)
            });
            let c1 = Counters::read();
            let Some(widths) = rep.check("width inference", widths) else {
                return;
            };
            infer.push(s * 1e3);
            let (ir, s) = t.span("predict/irpredict", root, id, |_| {
                IrPredictor::new().predict(&test, &widths)
            });
            let c2 = Counters::read();
            let Some(ir) = rep.check("Kirchhoff estimate", ir) else {
                return;
            };
            irpredict.push(s * 1e3);
            infer_counts.add(&c1.since(&c0));
            ir_counts.add(&c2.since(&c1));
            let (whole, s) = t.span("predict/total", root, id, |_| {
                predict(&bundle.predictor, base, &request, stride)
            });
            if let Some(whole) = rep.check("predict", whole) {
                total.push(s * 1e3);
                let same = whole.response.widths == widths
                    && whole.response.worst_ir_mv.to_bits() == ir.worst_mv().to_bits();
                rep.expect(same, || {
                    format!("layer-by-layer replay of {id} differs from predict::predict")
                });
            }
        });
    }
    rep.metric(
        "netlist.perturb_ms",
        "Perturbation::apply p50",
        stats::median(&perturb),
        perturb.len(),
    );
    rep.metric(
        "predict.apply_ms",
        "PredictRequest::apply p50",
        stats::median(&apply),
        apply.len(),
    );
    rep.metric(
        "predict.infer_ms",
        "width inference p50",
        stats::median(&infer),
        infer.len(),
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
    rep.metric(
        "nn.infer_fmas",
        "GEMM FMAs per inference",
        infer_counts.gemm_fmas as f64 / infer.len().max(1) as f64,
        infer.len(),
    );
    ir_counts.report_solver(rep);
    report_merge(ctx, rep, base);
}
