//! Analysis configuration.

use rta_curves::Time;
use rta_model::{ModelError, TaskSystem};

/// Which availability recursion the SPNP lower bound (Theorem 5) uses.
///
/// Equation 17 as printed subtracts the higher-priority subjobs' *lower*
/// service bounds from the availability `B(t)`; the symmetric, manifestly
/// conservative reading subtracts their *upper* bounds. Both are provided —
/// the discrete-event simulator in `rta-sim` validates that the configured
/// variant brackets observed behaviour, and `rta-bench` ships an ablation
/// comparing their tightness.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SpnpAvailability {
    /// Equation 17 verbatim: `B̲(t) = t − b − Σ_hp S̲_h(t)`.
    AsPrinted,
    /// Conservative variant: `B̲(t) = t − b − Σ_hp S̄_h(t)` (and the upper
    /// bound's availability keeps Eq. 19's `Σ S̲_h`).
    #[default]
    Conservative,
}

/// Horizon and variant knobs shared by all analyses.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisConfig {
    /// Arrival-window span in multiples of the longest nominal period, used
    /// when [`AnalysisConfig::arrival_window`] is `None`.
    pub window_cycles: i64,
    /// Explicit arrival window (instances released in `[0, window]` are
    /// analyzed). Overrides `window_cycles`.
    pub arrival_window: Option<Time>,
    /// Explicit analysis horizon. Defaults to
    /// `window + max deadline + Σ exec` (see `rta_model::horizon`).
    pub horizon: Option<Time>,
    /// SPNP availability recursion variant.
    pub spnp_availability: SpnpAvailability,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            window_cycles: rta_model::horizon::DEFAULT_WINDOW_CYCLES,
            arrival_window: None,
            horizon: None,
            spnp_availability: SpnpAvailability::default(),
        }
    }
}

impl AnalysisConfig {
    /// Resolve the `(arrival window, analysis horizon)` pair for a system,
    /// or [`ModelError::TickOverflow`] when a default does not fit in a
    /// tick. Every driver resolves through this before it builds a curve.
    pub fn try_resolve(&self, sys: &TaskSystem) -> Result<(Time, Time), ModelError> {
        let window = match self.arrival_window {
            Some(w) => w,
            None => rta_model::horizon::default_arrival_window(sys, self.window_cycles)?,
        };
        let horizon = match self.horizon {
            Some(h) => h,
            None => rta_model::horizon::analysis_horizon(sys, window)?,
        };
        Ok((window, horizon))
    }

    /// [`AnalysisConfig::try_resolve`] for a system known to fit.
    ///
    /// # Panics
    ///
    /// When the window or the horizon overflows a tick.
    pub fn resolve(&self, sys: &TaskSystem) -> (Time, Time) {
        self.try_resolve(sys)
            .expect("the analysis window and horizon fit in a tick")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::{ArrivalPattern, SchedulerKind, SystemBuilder};

    #[test]
    fn resolves_defaults_and_overrides() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(10),
            ArrivalPattern::Periodic {
                period: Time(20),
                offset: Time::ZERO,
            },
            vec![(p, Time(2))],
        );
        let sys = b.build().unwrap();
        let (w, h) = AnalysisConfig::default().resolve(&sys);
        assert_eq!(w, Time(80));
        assert_eq!(h, Time(80 + 10 + 2));

        let cfg = AnalysisConfig {
            arrival_window: Some(Time(100)),
            horizon: Some(Time(500)),
            ..Default::default()
        };
        assert_eq!(cfg.resolve(&sys), (Time(100), Time(500)));
    }
}
