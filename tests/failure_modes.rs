//! Failure injection: malformed systems, cyclic topologies, truncated
//! horizons — every error path must fail loudly and conservatively, never
//! by silently admitting.

use bursty_rta::analysis::fixpoint::analyze_with_loops;
use bursty_rta::analysis::{analyze_bounds, analyze_exact_spp, AnalysisConfig, AnalysisError};
use bursty_rta::curves::Time;
use bursty_rta::model::priority::{assign_priorities, PriorityPolicy};
use bursty_rta::model::{
    ArrivalPattern, ModelError, SchedulerKind, SubjobRef, SystemBuilder, TaskSystem,
};

fn periodic(p: i64) -> ArrivalPattern {
    ArrivalPattern::Periodic {
        period: Time(p),
        offset: Time::ZERO,
    }
}

fn cyclic_system() -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", SchedulerKind::Spp);
    let p2 = b.add_processor("P2", SchedulerKind::Spp);
    let t1 = b.add_job(
        "T1",
        Time(100),
        periodic(50),
        vec![(p1, Time(5)), (p2, Time(5))],
    );
    let t2 = b.add_job(
        "T2",
        Time(100),
        periodic(50),
        vec![(p2, Time(5)), (p1, Time(5))],
    );
    b.set_priority(SubjobRef { job: t1, index: 0 }, 2);
    b.set_priority(SubjobRef { job: t2, index: 1 }, 1);
    b.set_priority(SubjobRef { job: t1, index: 1 }, 1);
    b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
    b.build().unwrap()
}

#[test]
fn cyclic_topology_rejected_by_one_pass_analyses() {
    let sys = cyclic_system();
    assert!(matches!(
        analyze_exact_spp(&sys, &AnalysisConfig::default()),
        Err(AnalysisError::CyclicDependency { .. })
    ));
    assert!(matches!(
        analyze_bounds(&sys, &AnalysisConfig::default()),
        Err(AnalysisError::CyclicDependency { .. })
    ));
    // …but the fixed-point extension handles it.
    assert!(analyze_with_loops(&sys, &AnalysisConfig::default(), 4).is_ok());
}

#[test]
fn missing_priorities_rejected() {
    let mut b = SystemBuilder::new();
    let p = b.add_processor("P1", SchedulerKind::Spp);
    b.add_job("T1", Time(10), periodic(10), vec![(p, Time(2))]);
    let sys = b.build().unwrap();
    assert!(matches!(
        analyze_exact_spp(&sys, &AnalysisConfig::default()),
        Err(AnalysisError::Model(ModelError::MissingPriority { .. }))
    ));
}

#[test]
fn short_horizon_is_conservative_never_optimistic() {
    // A schedulable system analyzed with an absurdly short horizon must be
    // reported unschedulable (instances unresolved), not schedulable.
    let mut b = SystemBuilder::new();
    let p = b.add_processor("P1", SchedulerKind::Spp);
    b.add_job("T1", Time(50), periodic(50), vec![(p, Time(10))]);
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();

    let good = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
    assert!(good.all_schedulable());

    let cramped = AnalysisConfig {
        arrival_window: Some(Time(200)),
        horizon: Some(Time(5)), // nothing can finish
        ..Default::default()
    };
    let r = analyze_exact_spp(&sys, &cramped).unwrap();
    assert!(!r.all_schedulable(), "truncation must fail closed");
    assert!(r.jobs[0].responses.iter().any(Option::is_none));
}

#[test]
fn fixpoint_budget_is_respected_and_sound() {
    let sys = cyclic_system();
    // One round is the information-free bound; more rounds only tighten.
    let r1 = analyze_with_loops(&sys, &AnalysisConfig::default(), 1).unwrap();
    let r8 = analyze_with_loops(&sys, &AnalysisConfig::default(), 8).unwrap();
    for (a, b) in r1.jobs.iter().zip(&r8.jobs) {
        if let (Some(x), Some(y)) = (a.e2e_bound, b.e2e_bound) {
            assert!(y <= x);
        }
    }
}

#[test]
fn empty_and_invalid_builders() {
    assert!(matches!(
        SystemBuilder::new().build(),
        Err(ModelError::NoJobs)
    ));

    let mut b = SystemBuilder::new();
    let _ = b.add_processor("P1", SchedulerKind::Spp);
    b.add_job("T1", Time(10), periodic(10), vec![]);
    assert!(matches!(b.build(), Err(ModelError::EmptyChain { .. })));
}

#[test]
fn zero_arrivals_job_is_trivially_schedulable() {
    let mut b = SystemBuilder::new();
    let p = b.add_processor("P1", SchedulerKind::Spp);
    let t = b.add_job(
        "ghost",
        Time(10),
        ArrivalPattern::Trace(vec![]),
        vec![(p, Time(5))],
    );
    b.set_priority(SubjobRef { job: t, index: 0 }, 1);
    let sys = b.build().unwrap();
    let cfg = AnalysisConfig {
        arrival_window: Some(Time(100)),
        ..Default::default()
    };
    let r = analyze_exact_spp(&sys, &cfg).unwrap();
    assert!(r.all_schedulable());
    assert!(r.jobs[0].responses.is_empty());
    assert_eq!(r.jobs[0].wcrt, Some(Time::ZERO));
}

/// `rta-admit <file>` on a file whose 2⁶¹-tick period wraps the arrival
/// window exits 1 and names the failed analysis once on stderr.
#[test]
fn cli_reports_a_refused_file_once() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("window_overflow.txt");
    std::fs::write(
        &path,
        "processor P spp\n\
         job a deadline 100 periodic 2305843009213693952 0\nhop P 5\n\
         job b deadline 100 periodic 100 0\nhop P 150\n",
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rta-admit"))
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.matches("analysis failed:").count(), 1, "{stderr}");
    assert!(stderr.contains("arrival window"), "{stderr}");
}
