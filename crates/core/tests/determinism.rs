//! Thread-count determinism: `PPDL_THREADS=1` and `PPDL_THREADS=4`
//! must produce bitwise-identical results everywhere.
//!
//! The parallel layer promises that work decomposition depends only on
//! problem size and that reductions fold fixed chunks in a fixed order
//! (see `ppdl_solver::parallel`). These tests pin the promise end to
//! end on the ibmpg2 preset: the static IR-drop solve and a full
//! training run must not change by a single bit when the thread count
//! changes. The tests drive the thread count through
//! `ppdl_solver::set_threads`, the in-process equivalent of the
//! `PPDL_THREADS` environment variable.

use std::sync::{Mutex, PoisonError};

use ppdl_analysis::StaticAnalysis;
use ppdl_core::predict::{self, PredictRequest};
use ppdl_core::{
    BackendKind, BackendModel, FeatureExtractor, IrPredictor, Perturbation, PerturbationKind,
    PredictorConfig, WidthPredictor,
};
use ppdl_netlist::{IbmPgPreset, Orientation, SyntheticBenchmark};
use ppdl_nn::{Activation, Adam, Loss, Matrix, Mlp, MlpBuilder};
use ppdl_solver::parallel::DEFAULT_PAR_THRESHOLD;
use ppdl_solver::{set_par_threshold, set_threads};

/// Serialises the tests' changes to the global thread configuration, so
/// each runs at the threshold it sets.
static CONFIG: Mutex<()> = Mutex::new(());

fn ibmpg2() -> SyntheticBenchmark {
    SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.01, 3).unwrap()
}

/// Runs `f` under `threads` threads with a tiny parallel threshold so
/// even this test-sized grid takes the chunked code paths, restoring
/// the global defaults afterwards.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _config = CONFIG.lock().unwrap_or_else(PoisonError::into_inner);
    set_threads(threads);
    set_par_threshold(64);
    let out = f();
    set_threads(0);
    set_par_threshold(DEFAULT_PAR_THRESHOLD);
    out
}

#[test]
fn static_solve_is_bitwise_stable_across_thread_counts() {
    let bench = ibmpg2();
    let solve = |threads: usize| {
        with_threads(threads, || {
            StaticAnalysis::default().solve(bench.network()).unwrap()
        })
    };
    let one = solve(1);
    let four = solve(4);
    assert_eq!(one.voltages().len(), four.voltages().len());
    for (a, b) in one.voltages().iter().zip(four.voltages()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "node voltage differs between 1 and 4 threads: {a} vs {b}"
        );
    }
    assert_eq!(one.iterations(), four.iterations());
}

#[test]
fn training_on_ibmpg2_features_is_bitwise_stable() {
    // One sample per wire segment of the ibmpg2 grid, exactly as the
    // width predictor sees it; a synthetic smooth target stands in for
    // the golden widths so the test needs no conventional sizing run.
    let bench = ibmpg2();
    let x = FeatureExtractor::default().raw_features(&bench);
    assert!(
        x.rows() >= 512,
        "need enough segments to engage the chunked minibatch path, got {}",
        x.rows()
    );
    let y = Matrix::from_fn(x.rows(), 1, |r, _| {
        let f = x.row(r);
        0.3 * f[0] - 0.2 * f[1] + 5.0 * f[2]
    });

    let train = |threads: usize| -> (Vec<f64>, Mlp) {
        with_threads(threads, || {
            let mut model = MlpBuilder::new(x.cols())
                .hidden_stack(3, 16, Activation::Relu)
                .output(1)
                .seed(42)
                .build()
                .unwrap();
            let mut opt = Adam::new(1e-3).unwrap();
            let mut losses = Vec::new();
            for _ in 0..5 {
                losses.push(model.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap());
            }
            (losses, model)
        })
    };

    let (loss_one, model_one) = train(1);
    let (loss_four, model_four) = train(4);
    assert_eq!(
        loss_one, loss_four,
        "loss trajectories must be bitwise identical"
    );
    for (la, lb) in model_one.layers().iter().zip(model_four.layers()) {
        for (a, b) in la.weights().as_slice().iter().zip(lb.weights().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "weight differs: {a} vs {b}");
        }
        for (a, b) in la.bias().iter().zip(lb.bias()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bias differs: {a} vs {b}");
        }
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}] differs across thread counts: {x} vs {y}"
        );
    }
}

/// The fast IR estimate accumulates per-coordinate load currents into a
/// map before feeding the coarse grid. That accumulation must iterate
/// in a deterministic key order (`BTreeMap`, not `HashMap` — see
/// `determinism/hashmap-iter` in DESIGN.md §12), or the float sums —
/// and every drop downstream of them — drift with the hasher.
#[test]
fn ir_prediction_is_bitwise_stable_across_thread_counts() {
    let bench = ibmpg2();
    let widths = bench.strap_widths();
    let predict = |threads: usize| {
        with_threads(threads, || {
            IrPredictor::new().predict(&bench, &widths).unwrap()
        })
    };
    let one = predict(1);
    let four = predict(4);
    assert_eq!(one.worst.to_bits(), four.worst.to_bits());
    assert_bits_eq(&one.node_drops, &four.node_drops, "node_drops");
    assert_bits_eq(&one.segment_drops, &four.segment_drops, "segment_drops");

    // Repeated runs in one process must agree too — the old HashMap
    // accumulation was stable per-process (fixed RandomState per map
    // creation differs across maps, not runs), so the cross-process
    // hazard is what the BTreeMap conversion removes; this guards the
    // in-process half.
    let again = predict(4);
    assert_bits_eq(&four.node_drops, &again.node_drops, "repeat node_drops");
}

/// The EM-safe width projection charges each strap for the current its
/// vias inject, accumulated through a coordinate-keyed map — same
/// hazard, same fix (`determinism/hashmap-iter`).
#[test]
fn em_safe_widths_are_bitwise_stable_across_thread_counts() {
    let bench = ibmpg2();
    // A tiny model is enough: the hazard is in the post-prediction
    // current accumulation, not the network itself.
    let config = PredictorConfig {
        hidden_layers: 2,
        hidden_width: 8,
        train: ppdl_nn::TrainConfig {
            epochs: 3,
            ..PredictorConfig::default().train
        },
        ..PredictorConfig::default()
    };
    let (predictor, _) = WidthPredictor::train(&bench, &bench.strap_widths(), config).unwrap();
    let run = |threads: usize| {
        with_threads(threads, || {
            predictor
                .predict_strap_widths_em_safe(&bench, 0.05)
                .unwrap()
        })
    };
    let one = run(1);
    let four = run(4);
    assert_bits_eq(&one, &four, "em_safe_widths");
}

/// The served query path at the default threshold. The paper's 10×24
/// MLP infers in 256-row chunks through `par_map_vec`, and every GEMM
/// output inside a chunk (256×24 elements) is above the threshold, so
/// this is where parallel regions nest; the tiny-threshold tests above
/// never reach that nesting with the production sizes.
#[test]
fn served_prediction_with_the_paper_model_is_bitwise_stable() {
    let bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.03, 3).unwrap();
    let config = PredictorConfig {
        train: ppdl_nn::TrainConfig {
            epochs: 1,
            ..PredictorConfig::default().train
        },
        ..PredictorConfig::default()
    };
    assert_eq!((config.hidden_layers, config.hidden_width), (10, 24));
    for orientation in [Orientation::Vertical, Orientation::Horizontal] {
        let rows = bench
            .segments()
            .iter()
            .filter(|seg| bench.straps()[seg.strap].orientation == orientation)
            .count();
        assert!(
            rows >= 512,
            "{orientation:?}: {rows} segments do not reach the chunked inference path"
        );
    }
    let (model, _) =
        BackendModel::train(&bench, &bench.strap_widths(), BackendKind::Mlp, &config).unwrap();
    let request = PredictRequest {
        perturbation: Some(Perturbation::new(0.1, PerturbationKind::Both, 5).unwrap()),
        ..PredictRequest::new("q")
    };
    let run = |threads: usize| {
        let _config = CONFIG.lock().unwrap_or_else(PoisonError::into_inner);
        set_threads(threads);
        set_par_threshold(DEFAULT_PAR_THRESHOLD);
        let out = predict::predict(&model, &bench, &request, 1).unwrap();
        set_threads(0);
        out.response
    };
    let one = run(1);
    let inline = ppdl_obs::global().counter("parallel/inline");
    for threads in [2, 4] {
        ppdl_obs::set_enabled(true);
        let before = inline.get();
        let other = run(threads);
        ppdl_obs::set_enabled(false);
        assert!(
            inline.get() > before,
            "no region nested at {threads} threads"
        );
        assert_bits_eq(&one.widths, &other.widths, "served widths");
        assert_eq!(
            one.worst_ir_mv.to_bits(),
            other.worst_ir_mv.to_bits(),
            "worst_ir_mv differs between 1 and {threads} threads"
        );
    }
}
