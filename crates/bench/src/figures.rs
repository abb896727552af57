//! Figure 3 / Figure 4 panel grids.
//!
//! * **Figure 3** — periodic arrivals (Eq. 25/26): a 3×2 grid of panels.
//!   Top to bottom the number of stages grows (1, 2, 4 — panels (a)/(d)
//!   have one stage, (c)/(f) the most); left to right the end-to-end
//!   deadline doubles. Methods: SPP/Exact, SPNP/App, FCFS/App, SPP/S&L.
//! * **Figure 4** — bursty arrivals (Eq. 27/28): deadlines are drawn from a
//!   gamma family; top to bottom the variance grows, left to right the mean
//!   doubles. Methods: SPP/Exact, SPNP/App, FCFS/App (SPP/S&L is periodic
//!   only, as in the paper).
//!
//! The exact panel constants (stage counts, deadline factors, means) are
//! not stated in the paper; the values here were chosen so the admission
//! curves sweep the full 0–1 range over the utilization axis, preserving
//! every comparative property the text reports (see DESIGN.md §5).

use crate::admission::{admission_probability, Method};
use rta_core::AnalysisConfig;
use rta_model::distributions::Dist;
use rta_model::jobshop::{ShopArrivals, ShopConfig};
use rta_model::SchedulerKind;

/// One panel of a figure: a base configuration whose `utilization` field is
/// swept.
#[derive(Clone, Debug)]
pub struct Panel {
    /// Panel label, e.g. `"(a) stages=1, deadline=2x period"`.
    pub label: String,
    /// Base configuration (utilization is overwritten per point).
    pub base: ShopConfig,
    /// Methods to compare in this panel.
    pub methods: Vec<Method>,
}

/// One method's admission-probability curve.
#[derive(Clone, Debug)]
pub struct Series {
    /// The analysis method.
    pub method: Method,
    /// `(utilization, admission probability)` points.
    pub points: Vec<(f64, f64)>,
}

/// All series of one panel.
#[derive(Clone, Debug)]
pub struct PanelResult {
    /// Panel label.
    pub label: String,
    /// One series per method.
    pub series: Vec<Series>,
}

/// The default utilization sweep (x axis of both figures).
pub fn utilization_sweep() -> Vec<f64> {
    (1..=9).map(|i| i as f64 / 10.0).collect()
}

fn shop_base(stages: usize, arrivals: ShopArrivals) -> ShopConfig {
    ShopConfig {
        stages,
        procs_per_stage: 2,
        n_jobs: 6,
        scheduler: SchedulerKind::Spp, // overwritten per method
        utilization: 0.0,              // overwritten per point
        arrivals,
        x_min: 0.2,
        ticks_per_unit: 1000,
    }
}

/// The six Figure 3 panels (periodic arrivals).
pub fn fig3_panels() -> Vec<Panel> {
    let methods = vec![
        Method::SppExact,
        Method::SpnpApp,
        Method::FcfsApp,
        Method::SppSL,
    ];
    let mut panels = Vec::new();
    // Column-major labels as in the paper: (a)(b)(c) = first deadline
    // column over growing stages, (d)(e)(f) = doubled deadlines.
    for (col, dbl) in [("", 1.0), ("doubled ", 2.0)] {
        for &stages in &[1usize, 2, 4] {
            let factor = dbl * stages as f64;
            panels.push(Panel {
                label: format!("fig3 stages={stages}, {col}deadline={factor}x period"),
                base: shop_base(
                    stages,
                    ShopArrivals::Periodic {
                        deadline_factor: factor,
                    },
                ),
                methods: methods.clone(),
            });
        }
    }
    panels
}

/// The six Figure 4 panels (bursty arrivals, gamma deadlines).
pub fn fig4_panels() -> Vec<Panel> {
    let methods = vec![Method::SppExact, Method::SpnpApp, Method::FcfsApp];
    let mut panels = Vec::new();
    for (mean_label, mean) in [("mean=4", 4.0f64), ("mean=8", 8.0)] {
        for (var_label, var_factor) in [("low var", 0.25), ("med var", 1.0), ("high var", 4.0)] {
            // Deadline = floor + gamma noise: half the mean is a
            // deterministic floor, the other half carries the swept
            // variance (see rta_model::distributions::Dist::ShiftedGamma).
            let noise_mean = mean / 2.0;
            let variance = var_factor * noise_mean * noise_mean;
            panels.push(Panel {
                label: format!("fig4 {mean_label} units, {var_label} (var={variance})"),
                base: shop_base(
                    2,
                    ShopArrivals::Bursty {
                        deadline: Dist::ShiftedGamma {
                            shift: mean / 2.0,
                            mean: noise_mean,
                            variance,
                        },
                    },
                ),
                methods: methods.clone(),
            });
        }
    }
    panels
}

/// Run one panel: estimate every method at every utilization point.
///
/// The thread count `_threads` is unused: the estimator runs on the worker
/// pool, which sizes itself. The parameter stays for existing callers.
pub fn run_panel(
    panel: &Panel,
    utils: &[f64],
    sets: u32,
    master_seed: u64,
    _threads: usize,
) -> PanelResult {
    let acfg = AnalysisConfig::default();
    let series = panel
        .methods
        .iter()
        .map(|&method| {
            let points = utils
                .iter()
                .map(|&u| {
                    let mut base = panel.base.clone();
                    base.utilization = u;
                    // Identical seeds per point across methods: the paper
                    // applies each method to the same generated sets.
                    let seed = master_seed ^ ((u * 1000.0) as u64);
                    (u, admission_probability(&base, method, sets, seed, &acfg))
                })
                .collect();
            Series { method, points }
        })
        .collect();
    PanelResult {
        label: panel.label.clone(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_six_panels_each() {
        assert_eq!(fig3_panels().len(), 6);
        assert_eq!(fig4_panels().len(), 6);
        // Figure 4 never includes the periodic-only baseline.
        assert!(fig4_panels()
            .iter()
            .all(|p| !p.methods.contains(&Method::SppSL)));
        assert!(fig3_panels().iter().all(|p| p.methods.len() == 4));
    }

    #[test]
    fn sweep_covers_unit_interval() {
        let s = utilization_sweep();
        assert_eq!(s.len(), 9);
        assert!(s[0] > 0.0 && s[8] < 1.0);
    }

    #[test]
    fn single_point_panel_run() {
        // A smoke run at tiny sizes: all probabilities well-formed and the
        // exact method admits at least as often as the approximations on
        // the shared draws.
        let panel = &fig3_panels()[0];
        let r = run_panel(panel, &[0.3], 12, 42, 2);
        assert_eq!(r.series.len(), 4);
        let p = |m: Method| r.series.iter().find(|s| s.method == m).unwrap().points[0].1;
        for m in [
            Method::SppExact,
            Method::SpnpApp,
            Method::FcfsApp,
            Method::SppSL,
        ] {
            assert!((0.0..=1.0).contains(&p(m)));
        }
        assert!(p(Method::SppExact) >= p(Method::SpnpApp));
    }
}
