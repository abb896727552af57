//! Batched scenario engine for Monte-Carlo sweeps.
//!
//! The Section 5 experiments are *ensembles*: 1,000 random job sets per
//! admission point, one schedulability verdict each; or one bisection per
//! sampled system for sensitivity curves. Scenarios are independent, so the
//! natural shape is a parallel map — but a naive map pays per-scenario
//! setup (thread dispatch, allocator churn, cold fixpoint workspaces) that
//! dwarfs the analysis itself for the paper-sized four-job shops.
//!
//! [`BatchAnalyzer`] packages the batched evaluation discipline:
//!
//! * scenarios fan out over the persistent worker pool with **chunk-granular
//!   result messages** ([`crate::par::pool_map_stateful`]), so channel
//!   traffic is per-participant, not per-scenario;
//! * each participating thread carries **one private state value** across
//!   all the scenarios it processes ([`BatchAnalyzer::run`]) — typically a
//!   scenario generator plus reusable buffers — while the fixpoint and
//!   holistic drivers transparently reuse their thread-local workspaces
//!   ([`crate::fixpoint`], [`crate::holistic`]), so steady-state scenario
//!   evaluation allocates almost nothing;
//! * results are index-ordered and deterministic: a verdict depends only on
//!   its scenario index, never on which worker ran it or on the states of
//!   scenarios that happened to share its thread.
//!
//! Cross-scenario reuse is deliberately **not** attempted: carrying
//! scenario `i`'s fixpoint memo or holistic seed into scenario `i+1` would
//! be unsound (the memo holds per-processor bounds of the system it was
//! computed on, and [`crate::holistic::HolisticSeed`] is sound only from
//! below, per system) and would make results depend on scheduling order.
//! Within one scenario, though, [`BatchAnalyzer::critical_scaling`] drives
//! the whole bisection through a single [`AnalysisSession`], so the ~30
//! probes per scenario reuse curves, seeds, memos and verdicts exactly like
//! the sequential engine.

use std::sync::Arc;

use crate::config::AnalysisConfig;
use crate::error::AnalysisError;
use crate::par::pool_map_stateful;
use crate::sensitivity::Oracle;
use crate::session::AnalysisSession;
use rta_model::TaskSystem;

/// Runs ensembles of independent analysis scenarios over the persistent
/// worker pool with per-thread state reuse.
///
/// One analyzer holds the [`AnalysisConfig`] shared by every scenario; the
/// scenario *systems* are supplied per call (owned, or produced on the
/// worker by a generator passed to [`BatchAnalyzer::run`]).
#[derive(Clone, Debug)]
pub struct BatchAnalyzer {
    cfg: AnalysisConfig,
}

impl BatchAnalyzer {
    /// An analyzer applying `cfg` to every scenario.
    pub fn new(cfg: AnalysisConfig) -> BatchAnalyzer {
        BatchAnalyzer { cfg }
    }

    /// The configuration applied to every scenario.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// Evaluate `eval(state, 0), …, eval(state, n-1)` in parallel, where
    /// each participating thread builds `state` once via
    /// `init(&config)` and reuses it for every scenario it claims.
    ///
    /// This is the generic entry point for sweeps whose scenarios are
    /// *generated*, not pre-built — the admission experiments derive job
    /// set `i` from a seed inside `eval`, so no `Vec<TaskSystem>` ever
    /// materializes. Determinism contract: the returned `Vec` is
    /// index-ordered, and results are reproducible iff `eval`'s output
    /// depends on `state` only through value-independent reuse (buffers,
    /// caches), not accumulation — see
    /// [`pool_map_stateful`](crate::par::pool_map_stateful).
    pub fn run<S, T, I, F>(&self, n: usize, init: I, eval: F) -> Vec<T>
    where
        T: Send + 'static,
        I: Fn(&AnalysisConfig) -> S + Send + Sync + 'static,
        F: Fn(&mut S, usize) -> T + Send + Sync + 'static,
    {
        let cfg = self.cfg.clone();
        pool_map_stateful(n, move || init(&cfg), eval)
    }

    /// Schedulability verdict for each system under `oracle`.
    ///
    /// Each scenario is decided by a fresh [`AnalysisSession`] created on
    /// the worker that claims it, so verdicts are bit-identical to calling
    /// [`AnalysisSession::schedulable`] per system sequentially.
    pub fn schedulable(
        &self,
        systems: Vec<TaskSystem>,
        oracle: Oracle,
    ) -> Vec<Result<bool, AnalysisError>> {
        let systems = Arc::new(systems);
        let n = systems.len();
        let cfg = self.cfg.clone();
        pool_map_stateful(
            n,
            || (),
            move |(), i| AnalysisSession::new(systems[i].clone(), cfg.clone()).schedulable(oracle),
        )
    }

    /// The critical execution-time scaling factor of each system (see
    /// [`crate::sensitivity::critical_scaling`]), one bisection per
    /// scenario, each driven by its own warm [`AnalysisSession`].
    pub fn critical_scaling(
        &self,
        systems: Vec<TaskSystem>,
        oracle: Oracle,
        iterations: u32,
    ) -> Vec<Result<Option<f64>, AnalysisError>> {
        let systems = Arc::new(systems);
        let n = systems.len();
        let cfg = self.cfg.clone();
        pool_map_stateful(
            n,
            || (),
            move |(), i| {
                AnalysisSession::new(systems[i].clone(), cfg.clone())
                    .critical_scaling(oracle, iterations)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_curves::Time;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, SystemBuilder};

    /// One SPP processor, one job with C = `exec`, T = D = 100.
    fn sys(exec: i64) -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Periodic {
                period: Time(100),
                offset: Time::ZERO,
            },
            vec![(p, Time(exec))],
        );
        let mut s = b.build().unwrap();
        assign_priorities(&mut s, PriorityPolicy::DeadlineMonotonic).unwrap();
        s
    }

    #[test]
    fn batched_verdicts_match_sequential_sessions() {
        let execs: Vec<i64> = (1..40).map(|k| k * 5).collect();
        let systems: Vec<TaskSystem> = execs.iter().map(|&e| sys(e)).collect();
        let batch = BatchAnalyzer::new(AnalysisConfig::default());
        let got = batch.schedulable(systems.clone(), Oracle::Exact);
        for (s, r) in systems.into_iter().zip(got) {
            let want = AnalysisSession::new(s.clone(), AnalysisConfig::default())
                .schedulable(Oracle::Exact)
                .unwrap();
            assert_eq!(r.unwrap(), want, "exec {:?}", s.jobs()[0].subjobs[0].exec);
        }
    }

    #[test]
    fn batched_scaling_matches_free_function() {
        let systems: Vec<TaskSystem> = [20, 50, 150].iter().map(|&e| sys(e)).collect();
        let batch = BatchAnalyzer::new(AnalysisConfig::default());
        let got = batch.critical_scaling(systems.clone(), Oracle::Exact, 16);
        for (s, r) in systems.iter().zip(got) {
            let want =
                crate::sensitivity::critical_scaling(s, batch.config(), Oracle::Exact, 16).unwrap();
            assert_eq!(r.unwrap(), want);
        }
    }

    #[test]
    fn generated_scenarios_reuse_thread_state() {
        // Scenario i is "one job with C = i + 1"; the per-thread state is a
        // scratch Vec proving reuse does not leak across scenarios.
        let batch = BatchAnalyzer::new(AnalysisConfig::default());
        let verdicts = batch.run(
            60,
            |cfg| (cfg.clone(), Vec::<u8>::new()),
            |(cfg, buf), i| {
                buf.push(i as u8); // deliberate cross-scenario dirt
                AnalysisSession::new(sys(i as i64 + 1), cfg.clone())
                    .schedulable(Oracle::Exact)
                    .unwrap()
            },
        );
        for (i, v) in verdicts.into_iter().enumerate() {
            assert_eq!(v, i < 100, "scenario {i}");
        }
    }

    #[test]
    fn errors_are_reported_per_scenario() {
        // Exact oracle rejects FCFS processors; only that scenario errors.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Periodic {
                period: Time(100),
                offset: Time::ZERO,
            },
            vec![(p, Time(10))],
        );
        let fcfs = b.build().unwrap();
        let batch = BatchAnalyzer::new(AnalysisConfig::default());
        let got = batch.schedulable(vec![sys(10), fcfs, sys(20)], Oracle::Exact);
        assert!(got[0].as_ref().is_ok_and(|&v| v));
        assert!(got[1].is_err());
        assert!(got[2].as_ref().is_ok_and(|&v| v));
    }
}
