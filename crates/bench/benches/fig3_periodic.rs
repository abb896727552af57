//! Figure 3 (reduced): admission-probability estimation cost per method on
//! the periodic job shop, one benchmark per analysis method.
//!
//! The full 1000-set reproduction is `cargo run -p rta-bench --release
//! --bin fig3`; this bench pins the per-method cost of a single grid point
//! so regressions in any analysis path surface in `cargo bench`.

use rta_bench::admission::{admission_probability, Method};
use rta_bench::figures::fig3_panels;
use rta_bench::harness::Bench;
use rta_core::AnalysisConfig;
use std::time::Duration;

fn main() {
    let mut b = Bench::new().with_target(Duration::from_millis(300));
    let panels = fig3_panels();
    // Middle panel (2 stages), moderate load — the representative cell.
    let base = {
        let mut p = panels[1].base.clone();
        p.utilization = 0.6;
        p
    };
    let acfg = AnalysisConfig::default();
    for method in [
        Method::SppExact,
        Method::SpnpApp,
        Method::FcfsApp,
        Method::SppSL,
    ] {
        b.run(&format!("fig3_point/{}", method.label()), || {
            admission_probability(&base, method, 8, 11, &acfg)
        });
    }

    for (i, panel) in fig3_panels().into_iter().enumerate().take(3) {
        let mut base = panel.base;
        base.utilization = 0.5;
        b.run(&format!("fig3_exact_by_stage_panel/{i}"), || {
            admission_probability(&base, Method::SppExact, 8, 13, &acfg)
        });
    }
}
