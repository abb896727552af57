//! Figure 4 (reduced): admission-probability estimation cost per method on
//! the bursty (Eq. 27) job shop.
//!
//! The full reproduction is `cargo run -p rta-bench --release --bin fig4`;
//! this bench pins the per-method cost of a representative grid point.

use rta_bench::admission::{admission_probability, Method};
use rta_bench::figures::fig4_panels;
use rta_bench::harness::Bench;
use rta_core::AnalysisConfig;
use std::time::Duration;

fn main() {
    let mut b = Bench::new().with_target(Duration::from_millis(300));
    let base = {
        let mut p = fig4_panels()[1].base.clone();
        p.utilization = 0.6;
        p
    };
    let acfg = AnalysisConfig::default();
    for method in [Method::SppExact, Method::SpnpApp, Method::FcfsApp] {
        b.run(&format!("fig4_point/{}", method.label()), || {
            admission_probability(&base, method, 8, 17, &acfg)
        });
    }

    for (i, panel) in fig4_panels().into_iter().enumerate().take(3) {
        let mut base = panel.base;
        base.utilization = 0.5;
        b.run(&format!("fig4_exact_by_variance_panel/{i}"), || {
            admission_probability(&base, Method::SppExact, 8, 19, &acfg)
        });
    }
}
