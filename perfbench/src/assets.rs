//! Trained bundles shared by the runs of one checkout.
//!
//! `eco_serve` and `synth` query models that are trained once, outside
//! every timed run, and saved next to the build. The first run of a
//! checkout trains both (about 20 s on two cores); later runs load
//! them.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ppdl_core::{DlFlowConfig, TrainedBundle};
use ppdl_netlist::IbmPgPreset;

use crate::report::Report;

/// Generation seed of every workload's base grid (the CLI default).
pub const GRID_SEED: u64 = 7;

/// Paths of the trained bundles.
#[derive(Debug, Clone)]
pub struct Assets {
    /// ibmpg2 at scale 0.05, paper configuration (10×24 MLP).
    pub eco: PathBuf,
    /// ibmpg6 at scale 0.01, reduced training configuration.
    pub synth: PathBuf,
}

/// One bundle recipe.
struct Recipe {
    file: &'static str,
    preset: IbmPgPreset,
    scale: f64,
    fast: bool,
}

const ECO: Recipe = Recipe {
    file: "eco-ibmpg2-0.05-paper.bundle",
    preset: IbmPgPreset::Ibmpg2,
    scale: 0.05,
    fast: false,
};

// The synthesis oracle scores explicit widths, so the width model only
// seeds the greedy start; the reduced configuration trains in 3 s
// instead of 40 s and yields the same synthesized template.
const SYNTH: Recipe = Recipe {
    file: "synth-ibmpg6-0.01-fast.bundle",
    preset: IbmPgPreset::Ibmpg6,
    scale: 0.01,
    fast: true,
};

/// Loads or trains every bundle.
///
/// # Errors
///
/// Returns a description of a training or file-system failure.
pub fn ensure(dir: &Path, rep: &mut Report) -> Result<Assets, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(Assets {
        eco: ensure_one(dir, &ECO, rep)?,
        synth: ensure_one(dir, &SYNTH, rep)?,
    })
}

fn ensure_one(dir: &Path, recipe: &Recipe, rep: &mut Report) -> Result<PathBuf, String> {
    let path = dir.join(recipe.file);
    if TrainedBundle::load(&path).is_ok() {
        return Ok(path);
    }
    let t0 = Instant::now();
    let mut builder = DlFlowConfig::builder().seed(GRID_SEED);
    if recipe.fast {
        builder = builder.fast();
    }
    let bundle = TrainedBundle::train(
        recipe.preset,
        recipe.scale,
        GRID_SEED,
        builder.build(),
        None,
    )
    .map_err(|e| format!("training {}: {e}", recipe.file))?;
    // Write then rename, so a run cut short never leaves half a file.
    let tmp = dir.join(format!("{}.tmp", recipe.file));
    bundle
        .save(&tmp)
        .map_err(|e| format!("saving {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("renaming {}: {e}", tmp.display()))?;
    rep.line(format!(
        "trained {} in {:.1} s (once per checkout, outside the timed runs)",
        recipe.file,
        t0.elapsed().as_secs_f64()
    ));
    Ok(path)
}
