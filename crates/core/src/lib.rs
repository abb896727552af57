//! # rta-core — service-function response time analysis
//!
//! The primary contribution of Li, Bettati & Zhao, *"Response Time Analysis
//! for Distributed Real-Time Systems with Bursty Job Arrivals"* (ICPP 1998):
//! schedulability analysis for distributed systems whose jobs are chains of
//! subjobs with **arbitrary** (periodic, sporadic, bursty) arrival patterns.
//!
//! ## Method map
//!
//! | Paper | Here |
//! |---|---|
//! | Theorem 1 (exact end-to-end WCRT) | [`exact::analyze_exact_spp`] |
//! | Theorem 2 (`f_dep = ⌊S/τ⌋`) | [`rta_curves::SoaCurve::floor_div_into`] |
//! | Theorem 3 (exact SPP service functions) | [`spp`] |
//! | Theorem 4 + Lemmas 1,2 (additive bounds) | [`bounds::analyze_bounds`] |
//! | Theorems 5,6 + Eq. 15 (SPNP service bounds) | [`spnp`] |
//! | Theorems 7,8,9 (FCFS service bounds) | [`fcfs`] |
//! | Section 5 baseline "SPP/S&L" | [`holistic`] |
//! | Section 6 loop extension (`X = F(X)`) | [`fixpoint`] |
//!
//! The per-discipline kernels plug into the drivers through the
//! [`policy`] layer: a [`policy::ServicePolicy`] per
//! [`rta_model::SchedulerKind`]
//! (SPP, SPNP, FCFS, and the IWRR extension after Tabatabaee, Le Boudec &
//! Boyer) turns peer curves into service bounds, so drivers never match on
//! the discipline.
//!
//! Classical uniprocessor response-time analysis (Joseph & Pandya) and the
//! Liu & Layland utilization bound live in [`classic`] as test oracles.
//!
//! ## Quick example
//!
//! ```
//! use rta_core::{analyze_exact_spp, AnalysisConfig};
//! use rta_model::{ArrivalPattern, SchedulerKind, SystemBuilder};
//! use rta_model::priority::{assign_priorities, PriorityPolicy};
//! use rta_curves::Time;
//!
//! let mut b = SystemBuilder::new();
//! let p1 = b.add_processor("P1", SchedulerKind::Spp);
//! let p2 = b.add_processor("P2", SchedulerKind::Spp);
//! b.add_job(
//!     "T1",
//!     Time(40),
//!     ArrivalPattern::Periodic { period: Time(20), offset: Time(0) },
//!     vec![(p1, Time(4)), (p2, Time(6))],
//! );
//! b.add_job(
//!     "T2",
//!     Time(60),
//!     ArrivalPattern::Periodic { period: Time(30), offset: Time(0) },
//!     vec![(p1, Time(5))],
//! );
//! let mut sys = b.build().unwrap();
//! assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
//!
//! let report = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
//! assert!(report.all_schedulable());
//! // T1 in isolation at the critical instant: 4 on P1, 6 on P2 ⇒ WCRT 10.
//! assert_eq!(report.jobs[0].wcrt, Some(Time(10)));
//!
//! // Any registered discipline works through the same drivers — e.g. a
//! // weighted round-robin processor needs no priorities at all:
//! use rta_core::analyze_bounds;
//! let mut b = SystemBuilder::new();
//! let p = b.add_processor("P1", SchedulerKind::Iwrr);
//! b.add_job(
//!     "T1",
//!     Time(60),
//!     ArrivalPattern::Periodic { period: Time(20), offset: Time(0) },
//!     vec![(p, Time(4))],
//! );
//! b.add_job(
//!     "T2",
//!     Time(60),
//!     ArrivalPattern::Periodic { period: Time(20), offset: Time(0) },
//!     vec![(p, Time(5))],
//! );
//! let sys = b.build().unwrap();
//! assert!(analyze_bounds(&sys, &AnalysisConfig::default())
//!     .unwrap()
//!     .all_schedulable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod classic;
mod config;
pub mod depgraph;
mod error;
pub mod exact;
pub mod fcfs;
pub mod fixpoint;
pub mod holistic;
pub mod par;
pub mod policy;
mod report;
pub mod sensitivity;
pub mod service;
pub mod session;
pub mod spnp;
pub mod spp;
pub mod wcdfp;

pub use bounds::analyze_bounds;
pub use config::{AnalysisConfig, SpnpAvailability};
pub use error::AnalysisError;
pub use exact::analyze_exact_spp;
pub use report::{BoundsReport, ExactReport, JobBound, JobReport, SubjobCurves};
pub use service::{AdmissionService, ServiceConfig, ServiceError, Verdict};
pub use session::{AnalysisSession, SessionStats};

#[cfg(test)]
mod testutil {
    use rta_curves::{SoaCursor, SoaCurve, Time};

    /// The `τ`-workload `c = τ·f_arr` of instances released at `times`.
    pub(crate) fn workload(times: &[i64], tau: i64) -> SoaCurve {
        let times: Vec<Time> = times.iter().map(|&t| Time(t)).collect();
        let mut arrivals = SoaCurve::zero();
        SoaCurve::from_event_times_into(&times, &mut arrivals);
        let mut c = SoaCurve::zero();
        arrivals.scale_into(tau, &mut c);
        c
    }

    /// Completion time of instance `m` (1-based) under service `s` of
    /// `τ`-instances: the departure function `⌊S/τ⌋` of Theorem 2 on
    /// `[0, horizon]`, inverted at `m`.
    pub(crate) fn departure_time(s: &SoaCurve, tau: i64, horizon: i64, m: i64) -> Option<Time> {
        let mut dep = SoaCurve::zero();
        s.floor_div_into(tau, Time(horizon), &mut dep).unwrap();
        SoaCursor::new(&dep).inverse_at(m)
    }
}
