//! Problem 2 / Algorithm 2: Kirchhoff-law IR-drop prediction.
//!
//! Given the predicted widths and the switching currents, the paper
//! estimates IR drop *without* running a full grid analysis: the
//! current each power-grid line must deliver to its blocks is
//! accumulated (eqs. 7–9) and Ohm's law is applied. This module
//! implements that idea at two granularities, both linear in grid
//! size:
//!
//! * [`IrPredictor::line_estimate`] — the paper's literal per-line
//!   calculation: a loaded 1-D ladder along one strap, fed at its
//!   supply crossings, solved in closed form.
//! * [`IrPredictor::predict`] — the whole-grid estimate: the same
//!   current-accumulation done on a small **coarse grid** (cells of
//!   several straps aggregated into one Kirchhoff node, solved
//!   directly — a few hundred unknowns regardless of benchmark size),
//!   followed by a *fixed* number of local KCL relaxation sweeps to
//!   restore per-node detail. No convergence-driven iteration happens;
//!   cost is `O(elements)` by construction, which is where the paper's
//!   ~6× speedup over the conventional analysis comes from.

// BTreeMap/BTreeSet, not HashMap: coordinate-keyed loads are summed
// while the map is built and looked up per node, and the deterministic
// key order keeps every float accumulation bitwise reproducible
// (DESIGN.md §12, determinism/hashmap-iter).
use std::collections::{BTreeMap, BTreeSet};

use ppdl_analysis::IrDropMap;
use ppdl_netlist::{NodeId, Orientation, SyntheticBenchmark};

use crate::CoreError;

/// The Kirchhoff-based IR-drop estimate for a benchmark.
#[derive(Debug, Clone)]
pub struct PredictedIr {
    /// Estimated drop per node (volts), indexed by `NodeId.0`; `NaN`
    /// where no estimate exists (isolated nodes).
    pub node_drops: Vec<f64>,
    /// The worst estimated drop (volts).
    pub worst: f64,
    /// Estimated drop across each segment (volts), parallel to
    /// [`SyntheticBenchmark::segments`].
    pub segment_drops: Vec<f64>,
}

impl PredictedIr {
    /// The worst estimated drop in millivolts (the Table III
    /// "PowerPlanningDL" column).
    #[must_use]
    pub fn worst_mv(&self) -> f64 {
        self.worst * 1e3
    }

    /// Rasterises the estimate into an IR-drop map (Fig. 8(b)/(d)).
    ///
    /// # Errors
    ///
    /// Propagates map-construction errors.
    pub fn to_map(
        &self,
        bench: &SyntheticBenchmark,
        resolution: usize,
    ) -> crate::Result<IrDropMap> {
        Ok(IrDropMap::from_node_drops(
            bench.network(),
            &self.node_drops,
            resolution,
        )?)
    }
}

/// The IR-drop predictor.
///
/// # Example
///
/// ```
/// use ppdl_core::IrPredictor;
/// use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
///
/// let bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.005, 3).unwrap();
/// let widths = bench.strap_widths();
/// let predicted = IrPredictor::new().predict(&bench, &widths).unwrap();
/// assert!(predicted.worst > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IrPredictor {
    sweeps: usize,
    coarse_cells: usize,
}

impl Default for IrPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl IrPredictor {
    /// Creates a predictor with the default budget: an adaptive coarse
    /// grid (about half the strap count per side) and 15 smoothing
    /// sweeps.
    #[must_use]
    pub fn new() -> Self {
        Self {
            sweeps: 15,
            coarse_cells: 0,
        }
    }

    /// Creates a predictor with explicit budgets. `sweeps = 0` returns
    /// the raw coarse-grid interpolation; `coarse_cells = 0` selects
    /// the adaptive default.
    #[must_use]
    pub fn with_budget(coarse_cells: usize, sweeps: usize) -> Self {
        Self {
            sweeps,
            coarse_cells,
        }
    }

    /// The smoothing-sweep budget.
    #[must_use]
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Estimates IR drop for `bench` assuming the straps have the
    /// given `widths` (one per strap, e.g. the DL-predicted widths).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `widths` does not have
    /// one positive entry per strap or the benchmark has no supply,
    /// and propagates solver errors from the (tiny) coarse solve.
    pub fn predict(
        &self,
        bench: &SyntheticBenchmark,
        widths: &[f64],
    ) -> crate::Result<PredictedIr> {
        validate_widths(bench, widths)?;
        let net = bench.network();
        if net.voltage_sources().is_empty() {
            return Err(CoreError::InvalidConfig {
                detail: "benchmark has no supply pins".into(),
            });
        }
        let n = net.node_count();

        // Per-resistor conductances under the proposed widths.
        let mut conductance: Vec<f64> = net
            .resistors()
            .iter()
            .map(|r| if r.is_short() { 0.0 } else { 1.0 / r.ohms })
            .collect();
        for seg in bench.segments() {
            let strap = &bench.straps()[seg.strap];
            let rho = bench.spec().sheet_resistance(strap.orientation);
            conductance[seg.resistor] = widths[seg.strap] / (rho * seg.length);
        }
        for via in bench.vias() {
            let ohms = bench.via_resistance_for_width(widths[via.lower_strap]);
            conductance[via.resistor] = 1.0 / ohms;
        }

        // --- Stage 1: coarse Kirchhoff solve -------------------------
        // Aggregate nodes into K x K die cells (both layers together —
        // vias are low-resistance) and solve the aggregated network
        // exactly. This is eqs. 7-9 applied at line-bundle granularity:
        // each coarse edge carries the accumulated current of the strap
        // bundle crossing the cell boundary.
        let ((min_x, min_y), (max_x, max_y)) =
            net.bounding_box().ok_or_else(|| CoreError::InvalidConfig {
                detail: "benchmark nodes carry no coordinates".into(),
            })?;
        let k = if self.coarse_cells >= 2 {
            self.coarse_cells
        } else {
            // Adaptive: one cell per strap crossing (both layers merged
            // into one Kirchhoff node) is near-exact; the reduction
            // comes from halving the unknowns, dropping the vias, and
            // the loose tolerance below. The cap bounds the coarse
            // system on full-size grids at a small accuracy cost.
            let max_dir = bench
                .straps()
                .iter()
                .filter(|s| s.orientation == Orientation::Vertical)
                .count()
                .max(
                    bench
                        .straps()
                        .iter()
                        .filter(|s| s.orientation == Orientation::Horizontal)
                        .count(),
                );
            max_dir.clamp(8, 256)
        };
        let wx = (max_x - min_x).max(1) as f64;
        let wy = (max_y - min_y).max(1) as f64;
        let cell_of = |id: usize| -> Option<usize> {
            net.node_names()[id].coordinates().map(|(x, y)| {
                let cx = (((x - min_x) as f64 / wx) * k as f64).min(k as f64 - 1.0) as usize;
                let cy = (((y - min_y) as f64 / wy) * k as f64).min(k as f64 - 1.0) as usize;
                cy * k + cx
            })
        };
        let cells: Vec<Option<usize>> = (0..n).map(cell_of).collect();

        // Homogenisation: a cell bundles several parallel straps, but a
        // cell-to-cell path also chains several segments in series.
        // Stamping each boundary-crossing segment with its full
        // conductance would make the coarse grid (cell/pitch)x too
        // conductive, so each segment is derated by its length relative
        // to the cell extent along its strap.
        let cell_wx = wx / 1000.0 / k as f64;
        let cell_wy = wy / 1000.0 / k as f64;
        let mut g_scale = vec![1.0; net.resistors().len()];
        for seg in bench.segments() {
            let extent = match bench.straps()[seg.strap].orientation {
                Orientation::Vertical => cell_wy,
                Orientation::Horizontal => cell_wx,
            };
            g_scale[seg.resistor] = (seg.length / extent).min(1.0);
        }

        let m = k * k;
        let mut coarse_diag_touch = vec![false; m];
        let mut coarse_load = vec![0.0; m];
        let mut coarse_pinned = vec![false; m];
        for r in net.resistors() {
            if let (Some(ca), Some(cb)) = (cells[r.a.0], cells[r.b.0]) {
                if ca != cb {
                    coarse_diag_touch[ca] = true;
                    coarse_diag_touch[cb] = true;
                }
            }
        }
        for l in net.current_loads() {
            if let Some(c) = cells[l.node.0] {
                coarse_load[c] += l.amps;
            }
        }
        for s in net.voltage_sources() {
            if let Some(c) = cells[s.node.0] {
                coarse_pinned[c] = true;
            }
        }
        // Unknowns: occupied, unpinned cells; pinned cells sit at drop 0.
        let mut index = vec![usize::MAX; m];
        let mut unknowns = Vec::new();
        for c in 0..m {
            if coarse_diag_touch[c] && !coarse_pinned[c] {
                index[c] = unknowns.len();
                unknowns.push(c);
            }
        }
        let u = unknowns.len();
        // Cell-crossing resistors as (row, col, conductance) stamps in
        // resistor order; a counting pass sizes the triplet buffer so
        // it is allocated once.
        let coarse_edges = || {
            net.resistors().iter().enumerate().filter_map(|(ri, r)| {
                let g = conductance[ri] * g_scale[ri];
                if g <= 0.0 {
                    return None;
                }
                let (Some(ca), Some(cb)) = (cells[r.a.0], cells[r.b.0]) else {
                    return None;
                };
                (ca != cb).then(|| (index[ca], index[cb], g))
            })
        };
        let entries = coarse_edges()
            .map(|edge| match edge {
                (usize::MAX, usize::MAX, _) => 0,
                (_, usize::MAX, _) | (usize::MAX, _, _) => 1,
                _ => 4,
            })
            .sum();
        let mut reduced = ppdl_solver::TripletMatrix::with_capacity(u, u, entries);
        let mut rhs = vec![0.0; u];
        for edge in coarse_edges() {
            match edge {
                (usize::MAX, usize::MAX, _) => {}
                (ia, usize::MAX, g) => reduced.stamp_grounded_conductance(ia, g),
                (usize::MAX, ib, g) => reduced.stamp_grounded_conductance(ib, g),
                (ia, ib, g) => reduced.stamp_conductance(ia, ib, g),
            }
        }
        drop(g_scale);
        for (ui, &c) in unknowns.iter().enumerate() {
            rhs[ui] = coarse_load[c];
        }
        let mut coarse_drop = vec![0.0; m];
        if u > 0 {
            let reduced_csr = reduced.to_csr();
            drop(reduced);
            let map_err = |e: ppdl_solver::SolverError| CoreError::Analysis(e.into());
            // Prediction-grade tolerance: well below the millivolt
            // resolution the estimate targets, far looser than the
            // conventional sign-off solve.
            let sol = ppdl_solver::ConjugateGradient::new(ppdl_solver::CgOptions {
                tolerance: 1e-3,
                precond: ppdl_solver::PrecondKind::Ic0,
                ..ppdl_solver::CgOptions::default()
            })
            .solve(&reduced_csr, &rhs)
            .map_err(map_err)?;
            for (ui, &c) in unknowns.iter().enumerate() {
                coarse_drop[c] = sol.x[ui];
            }
        }

        // --- Stage 2: interpolate + fixed local KCL sweeps -----------
        // Node adjacency as one flat CSR: node `i`'s neighbours are
        // `adjacency[start[i]..start[i + 1]]`, filled in resistor order.
        let mut start = vec![0usize; n + 1];
        for (ri, r) in net.resistors().iter().enumerate() {
            if conductance[ri] <= 0.0 {
                continue;
            }
            start[r.a.0 + 1] += 1;
            start[r.b.0 + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut adjacency = vec![(0usize, 0.0); start[n]];
        let mut diag = vec![0.0; n];
        for (ri, r) in net.resistors().iter().enumerate() {
            let g = conductance[ri];
            if g <= 0.0 {
                continue;
            }
            for (from, to) in [(r.a.0, r.b.0), (r.b.0, r.a.0)] {
                adjacency[fill[from]] = (to, g);
                fill[from] += 1;
            }
            diag[r.a.0] += g;
            diag[r.b.0] += g;
        }
        drop(fill);
        let mut loads = vec![0.0; n];
        for l in net.current_loads() {
            loads[l.node.0] += l.amps;
        }
        let vdd = net
            .supply_voltage()
            .ok_or(CoreError::Analysis(ppdl_analysis::AnalysisError::NoSupply))?;
        let mut pinned = vec![false; n];
        let mut d: Vec<f64> = (0..n)
            .map(|i| cells[i].map_or(0.0, |c| coarse_drop[c]))
            .collect();
        for s in net.voltage_sources() {
            pinned[s.node.0] = true;
            d[s.node.0] = vdd - s.volts;
        }
        for _ in 0..self.sweeps {
            for i in 0..n {
                if pinned[i] || diag[i] == 0.0 {
                    continue;
                }
                let mut acc = loads[i];
                for &(j, g) in &adjacency[start[i]..start[i + 1]] {
                    acc += g * d[j];
                }
                d[i] = acc / diag[i];
            }
        }

        let mut node_drops = vec![f64::NAN; n];
        let mut worst = 0.0_f64;
        for i in 0..n {
            if diag[i] > 0.0 || pinned[i] {
                node_drops[i] = d[i];
                worst = worst.max(d[i]);
            }
        }
        let segment_drops = bench
            .segments()
            .iter()
            .map(|seg| {
                let r = &net.resistors()[seg.resistor];
                (d[r.a.0] - d[r.b.0]).abs()
            })
            .collect();

        Ok(PredictedIr {
            node_drops,
            worst,
            segment_drops,
        })
    }

    /// The paper's literal per-line estimate (eqs. 7–9) for one strap:
    /// the strap is treated as a loaded 1-D ladder fed at its supply
    /// crossings, and the drop at each of its nodes is returned in
    /// along-axis order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a bad strap index or
    /// width vector, or a supply-less benchmark.
    pub fn line_estimate(
        &self,
        bench: &SyntheticBenchmark,
        widths: &[f64],
        strap_id: usize,
    ) -> crate::Result<Vec<(NodeId, f64)>> {
        validate_widths(bench, widths)?;
        if strap_id >= bench.straps().len() {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "strap index {strap_id} out of range for {} straps",
                    bench.straps().len()
                ),
            });
        }
        let net = bench.network();
        if net.voltage_sources().is_empty() {
            return Err(CoreError::InvalidConfig {
                detail: "benchmark has no supply pins".into(),
            });
        }
        let strap = &bench.straps()[strap_id];
        let rho = bench.spec().sheet_resistance(strap.orientation);
        let width = widths[strap_id];

        let coord = |id: NodeId| -> Option<(f64, f64)> {
            net.node_name(id)
                .coordinates()
                .map(|(x, y)| (x as f64 / 1000.0, y as f64 / 1000.0))
        };
        let axis = |p: (f64, f64)| match strap.orientation {
            Orientation::Vertical => p.1,
            Orientation::Horizontal => p.0,
        };

        // Loads indexed by coordinates so a strap sees via-injected
        // current regardless of which layer the load card names.
        let mut coord_load: BTreeMap<(i64, i64), f64> = BTreeMap::new();
        for l in net.current_loads() {
            if let Some(xy) = net.node_name(l.node).coordinates() {
                *coord_load.entry(xy).or_insert(0.0) += l.amps;
            }
        }
        let mut source_nodes: BTreeSet<usize> = BTreeSet::new();
        let mut source_coords: BTreeSet<(i64, i64)> = BTreeSet::new();
        let mut source_points: Vec<(f64, f64)> = Vec::new();
        for s in net.voltage_sources() {
            source_nodes.insert(s.node.0);
            if let Some(xy) = net.node_name(s.node).coordinates() {
                source_coords.insert(xy);
                source_points.push((xy.0 as f64 / 1000.0, xy.1 as f64 / 1000.0));
            }
        }
        let nearest_source_dist = |p: (f64, f64)| -> f64 {
            source_points
                .iter()
                .map(|s| ((s.0 - p.0).powi(2) + (s.1 - p.1).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min)
        };

        // Collect the strap's nodes ordered along its axis.
        let mut nodes: Vec<(usize, f64)> = Vec::new();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for seg in bench.segments().iter().filter(|s| s.strap == strap_id) {
            let r = &net.resistors()[seg.resistor];
            for id in [r.a, r.b] {
                if seen.insert(id.0) {
                    if let Some(p) = coord(id) {
                        nodes.push((id.0, axis(p)));
                    }
                }
            }
        }
        nodes.sort_by(|a, b| a.1.total_cmp(&b.1));
        let m = nodes.len();
        if m < 2 {
            return Ok(nodes.into_iter().map(|(id, _)| (NodeId(id), 0.0)).collect());
        }
        let loads: Vec<f64> = nodes
            .iter()
            .map(|(id, _)| {
                net.node_name(NodeId(*id))
                    .coordinates()
                    .and_then(|xy| coord_load.get(&xy).copied())
                    .unwrap_or(0.0)
            })
            .collect();
        let total: f64 = loads.iter().sum();
        let res: Vec<f64> = (0..m - 1)
            .map(|j| rho * (nodes[j + 1].1 - nodes[j].1) / width)
            .collect();

        // Feed detection: a direct pin, or a pin across the via.
        let mut feeds: Vec<(usize, f64)> = Vec::new();
        for (j, (id, _)) in nodes.iter().enumerate() {
            if source_nodes.contains(id) {
                feeds.push((j, 0.0));
            } else if let Some(xy) = net.node_name(NodeId(*id)).coordinates() {
                if source_coords.contains(&xy) {
                    feeds.push((j, f64::NAN));
                }
            }
        }
        let via_base = total * bench.spec().via_resistance / feeds.len().max(1) as f64;
        for f in &mut feeds {
            if f.1.is_nan() {
                f.1 = via_base;
            }
        }
        if feeds.is_empty() {
            // Fallback: the node nearest a pin, with the via plus the
            // orthogonal-layer return run. Strap nodes without grid
            // coordinates cannot anchor the fallback, so they are
            // skipped rather than panicking the serving process; a
            // strap with *no* locatable node is a malformed design and
            // surfaces as a typed wire error.
            let (j, p) = nodes
                .iter()
                .enumerate()
                .filter_map(|(j, (id, _))| coord(NodeId(*id)).map(|p| (j, p)))
                .min_by(|(_, a), (_, b)| {
                    nearest_source_dist(*a).total_cmp(&nearest_source_dist(*b))
                })
                .ok_or_else(|| CoreError::InvalidConfig {
                    detail: format!(
                        "strap {strap_id} has no node with grid coordinates to anchor a feed"
                    ),
                })?;
            let other = match strap.orientation {
                Orientation::Vertical => Orientation::Horizontal,
                Orientation::Horizontal => Orientation::Vertical,
            };
            let rho_other = bench.spec().sheet_resistance(other);
            let other_width = widths
                .iter()
                .zip(bench.straps())
                .filter(|(_, s)| s.orientation == other)
                .map(|(w, _)| *w)
                .fold(0.1_f64, f64::max);
            let base = total
                * (bench.spec().via_resistance + rho_other * nearest_source_dist(p) / other_width);
            feeds.push((j, base));
        }

        let drops = solve_strap_ladder(&loads, &res, &feeds);
        Ok(nodes
            .into_iter()
            .zip(drops)
            .map(|((id, _), drop)| (NodeId(id), drop))
            .collect())
    }
}

fn validate_widths(bench: &SyntheticBenchmark, widths: &[f64]) -> crate::Result<()> {
    if widths.len() != bench.straps().len() {
        return Err(CoreError::InvalidConfig {
            detail: format!(
                "{} widths for {} straps",
                widths.len(),
                bench.straps().len()
            ),
        });
    }
    if let Some(w) = widths.iter().find(|w| !(w.is_finite() && **w > 0.0)) {
        return Err(CoreError::InvalidConfig {
            detail: format!("strap width {w} must be positive"),
        });
    }
    Ok(())
}

/// Solves a loaded 1-D resistor ladder with Dirichlet values at the
/// feed indices, in closed form per interval (eqs. 7–9 applied along
/// one power-grid line).
///
/// `loads[k]` is the current drawn at node `k`; `res[k]` the resistance
/// between nodes `k` and `k+1`; `feeds` a non-empty list of
/// `(index, drop)` pins. Returns the drop at every node.
fn solve_strap_ladder(loads: &[f64], res: &[f64], feeds: &[(usize, f64)]) -> Vec<f64> {
    let m = loads.len();
    let mut feeds: Vec<(usize, f64)> = feeds.to_vec();
    feeds.sort_by_key(|(k, _)| *k);
    feeds.dedup_by_key(|(k, _)| *k);
    let mut drops = vec![0.0; m];
    for &(k, base) in &feeds {
        drops[k] = base;
    }

    // Tail before the first feed: all current flows toward it.
    let (first, _) = feeds[0];
    for k in (0..first).rev() {
        let upstream: f64 = loads[..=k].iter().sum();
        drops[k] = drops[k + 1] + res[k] * upstream;
    }

    // Tail after the last feed.
    let (last, _) = feeds[feeds.len() - 1];
    for k in (last + 1)..m {
        let downstream: f64 = loads[k..].iter().sum();
        drops[k] = drops[k - 1] + res[k - 1] * downstream;
    }

    // Intervals between consecutive feeds: both ends pinned. Let `c`
    // be the current entering rightward from the left feed; after the
    // interior loads S_j (at nodes a+1..=j) segment j carries c − S_j,
    // and drops accumulate as d_{j+1} = d_j + R_j (c − S_j). The right
    // boundary value fixes c in closed form.
    for w in feeds.windows(2) {
        let (a, da) = w[0];
        let (b, db) = w[1];
        if b <= a + 1 {
            continue;
        }
        let mut r_total = 0.0;
        let mut rs_total = 0.0;
        let mut s = 0.0;
        for j in a..b {
            if j > a {
                s += loads[j];
            }
            r_total += res[j];
            rs_total += res[j] * s;
        }
        let c = (db - da + rs_total) / r_total;
        let mut d = da;
        let mut s = 0.0;
        for j in a..b - 1 {
            if j > a {
                s += loads[j];
            }
            d += res[j] * (c - s);
            drops[j + 1] = d;
        }
    }
    drops
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdl_analysis::StaticAnalysis;
    use ppdl_netlist::IbmPgPreset;

    fn bench_perimeter() -> SyntheticBenchmark {
        SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.005, 21).unwrap()
    }

    fn bench_flipchip() -> SyntheticBenchmark {
        SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg5, 0.001, 21).unwrap()
    }

    #[test]
    fn ladder_single_feed_matches_hand_calc() {
        // 3 nodes, feed at 0 with base 0, loads 0/1/1, R = 1 each.
        // Segment (0,1) carries 2 A -> d1 = 2; segment (1,2) carries 1 A
        // -> d2 = 3.
        let drops = solve_strap_ladder(&[0.0, 1.0, 1.0], &[1.0, 1.0], &[(0, 0.0)]);
        assert_eq!(drops, vec![0.0, 2.0, 3.0]);
    }

    #[test]
    fn ladder_feed_at_right_end() {
        let drops = solve_strap_ladder(&[1.0, 1.0, 0.0], &[1.0, 1.0], &[(2, 0.5)]);
        assert_eq!(drops, vec![3.5, 2.5, 0.5]);
    }

    #[test]
    fn ladder_two_feeds_splits_current() {
        // Symmetric: feeds at both ends (base 0), unit load in the
        // middle, R = 1 per segment: the middle node sits at 0.5.
        let drops = solve_strap_ladder(&[0.0, 1.0, 0.0], &[1.0, 1.0], &[(0, 0.0), (2, 0.0)]);
        assert!((drops[1] - 0.5).abs() < 1e-12, "{drops:?}");
        assert_eq!(drops[0], 0.0);
        assert_eq!(drops[2], 0.0);
    }

    #[test]
    fn ladder_matches_dense_solve() {
        // Ladder with feeds at 1 and 4 — compare against a dense nodal
        // solve of the same 1-D network.
        let loads = [0.3, 0.0, 0.7, 0.2, 0.0, 0.4];
        let res = [0.5, 1.0, 0.25, 2.0, 1.5];
        let feeds = [(1usize, 0.1), (4usize, 0.2)];
        let drops = solve_strap_ladder(&loads, &res, &feeds);

        use ppdl_solver::DenseMatrix;
        let unknowns = [0usize, 2, 3, 5];
        let pinned: std::collections::HashMap<usize, f64> = feeds.iter().copied().collect();
        let idx: std::collections::HashMap<usize, usize> =
            unknowns.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut a = DenseMatrix::zeros(4, 4);
        let mut b = vec![0.0; 4];
        for (j, &r) in res.iter().enumerate() {
            let g = 1.0 / r;
            let (u, v) = (j, j + 1);
            for (p, q) in [(u, v), (v, u)] {
                if let Some(&ip) = idx.get(&p) {
                    a.add_to(ip, ip, g);
                    if let Some(&iq) = idx.get(&q) {
                        a.add_to(ip, iq, -g);
                    } else {
                        b[ip] += g * pinned[&q];
                    }
                }
            }
        }
        for (&node, &i) in &idx {
            b[i] += loads[node];
        }
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        for (&node, &i) in &idx {
            assert!(
                (drops[node] - x[i]).abs() < 1e-10,
                "node {node}: ladder {} vs dense {}",
                drops[node],
                x[i]
            );
        }
    }

    #[test]
    fn width_count_validated() {
        let b = bench_perimeter();
        let p = IrPredictor::new();
        assert!(p.predict(&b, &[1.0]).is_err());
        let mut w = b.strap_widths();
        w[0] = -1.0;
        assert!(p.predict(&b, &w).is_err());
        assert!(p.line_estimate(&b, &b.strap_widths(), 9999).is_err());
    }

    #[test]
    fn estimate_positive_and_bounded() {
        let b = bench_perimeter();
        let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
        assert!(est.worst > 0.0);
        assert!(est.worst < b.network().supply_voltage().unwrap());
        assert_eq!(est.segment_drops.len(), b.segments().len());
        assert!(est.segment_drops.iter().all(|d| *d >= 0.0));
    }

    #[test]
    fn tracks_conventional_analysis_perimeter() {
        let b = bench_perimeter();
        let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
        let truth = StaticAnalysis::default()
            .solve(b.network())
            .unwrap()
            .worst_drop()
            .unwrap()
            .1;
        let err = (est.worst - truth).abs() / truth;
        assert!(
            err < 0.35,
            "estimate {} vs truth {} ({}% off)",
            est.worst,
            truth,
            100.0 * err
        );
    }

    #[test]
    fn tracks_conventional_analysis_flipchip() {
        let b = bench_flipchip();
        let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
        let truth = StaticAnalysis::default()
            .solve(b.network())
            .unwrap()
            .worst_drop()
            .unwrap()
            .1;
        let err = (est.worst - truth).abs() / truth;
        assert!(
            err < 0.35,
            "estimate {} vs truth {} ({}% off)",
            est.worst,
            truth,
            100.0 * err
        );
    }

    #[test]
    fn smoothing_improves_on_raw_coarse() {
        let b = bench_perimeter();
        let truth = StaticAnalysis::default()
            .solve(b.network())
            .unwrap()
            .worst_drop()
            .unwrap()
            .1;
        let raw = IrPredictor::with_budget(16, 0)
            .predict(&b, &b.strap_widths())
            .unwrap();
        let smoothed = IrPredictor::with_budget(16, 15)
            .predict(&b, &b.strap_widths())
            .unwrap();
        let raw_err = (raw.worst - truth).abs();
        let smooth_err = (smoothed.worst - truth).abs();
        assert!(
            smooth_err <= raw_err + 1e-12,
            "smoothing should not hurt: {smooth_err} vs {raw_err}"
        );
    }

    #[test]
    fn wider_straps_lower_the_estimate() {
        let b = bench_perimeter();
        let w1 = b.strap_widths();
        let w2: Vec<f64> = w1.iter().map(|w| w * 3.0).collect();
        let p = IrPredictor::new();
        let e1 = p.predict(&b, &w1).unwrap();
        let e2 = p.predict(&b, &w2).unwrap();
        assert!(e2.worst < e1.worst);
    }

    #[test]
    fn map_is_buildable() {
        let b = bench_perimeter();
        let est = IrPredictor::new().predict(&b, &b.strap_widths()).unwrap();
        let map = est.to_map(&b, 10).unwrap();
        assert_eq!(map.resolution(), 10);
        assert!(map.max_mv() > 0.0);
    }

    #[test]
    fn scaling_loads_scales_estimate() {
        let mut b = bench_perimeter();
        let p = IrPredictor::new();
        let w = b.strap_widths();
        let e1 = p.predict(&b, &w).unwrap();
        let loads: Vec<f64> = b
            .network()
            .current_loads()
            .iter()
            .map(|l| l.amps * 2.0)
            .collect();
        for (i, a) in loads.iter().enumerate() {
            b.network_mut().set_load_current(i, *a).unwrap();
        }
        let e2 = p.predict(&b, &w).unwrap();
        assert!((e2.worst - 2.0 * e1.worst).abs() < 1e-9 * e1.worst.max(1e-12));
    }

    #[test]
    fn line_estimate_returns_ordered_nodes() {
        let b = bench_perimeter();
        let line = IrPredictor::new()
            .line_estimate(&b, &b.strap_widths(), 0)
            .unwrap();
        assert!(line.len() >= 2);
        assert!(line.iter().all(|(_, d)| d.is_finite() && *d >= 0.0));
    }
}
