//! The paper's motivation (Introduction): classical approaches transform
//! non-periodic workloads into periodic ones — e.g. "(i) treating the
//! non-periodic jobs as periodic jobs with the minimum inter-arrival time
//! being the period" — and pay for it in pessimism. The direct analysis of
//! this library admits whatever the transformation admits, and strictly
//! more over a sweep.

use bursty_rta::analysis::{analyze_exact_spp, AnalysisConfig};
use bursty_rta::curves::Time;
use bursty_rta::model::priority::{assign_priorities, PriorityPolicy};
use bursty_rta::model::{ArrivalPattern, SchedulerKind, SystemBuilder, TaskSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single-processor system with one bursty job and one periodic job.
fn system(bursty: ArrivalPattern, deadline: Time, exec: Time) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p = b.add_processor("P1", SchedulerKind::Spp);
    b.add_job("bursty", deadline, bursty, vec![(p, exec)]);
    b.add_job(
        "steady",
        Time(400),
        ArrivalPattern::Periodic {
            period: Time(100),
            offset: Time::ZERO,
        },
        vec![(p, Time(30))],
    );
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

#[test]
fn sporadic_transformation_is_conservative_per_draw() {
    let window = Time(1_000);
    let cfg = AnalysisConfig {
        arrival_window: Some(window),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(99);
    let mut direct_admits = 0u32;
    let mut transformed_admits = 0u32;
    for _ in 0..80 {
        // A random burst train: tight intra-burst spacing, long inter-burst
        // gaps — the worst inputs for the min-gap transformation.
        let intra = Time(rng.gen_range(5..40));
        let burst_len = rng.gen_range(2..5u32);
        let train = ArrivalPattern::BurstTrain {
            burst_len,
            intra_gap: intra,
            train_period: Time(rng.gen_range(300..600)),
            offset: Time::ZERO,
        };
        let deadline = Time(rng.gen_range(60..250));
        let exec = Time(rng.gen_range(5..25));

        let direct = analyze_exact_spp(&system(train.clone(), deadline, exec), &cfg)
            .unwrap()
            .all_schedulable();

        let env = train.sporadic_envelope(window).expect("has a min gap");
        assert_eq!(env, ArrivalPattern::SporadicEnvelope { min_gap: intra });
        let transformed = analyze_exact_spp(&system(env, deadline, exec), &cfg)
            .unwrap()
            .all_schedulable();

        // Conservative: the transformation never admits what the direct
        // analysis rejects.
        if transformed {
            assert!(
                direct,
                "transformation admitted a set the direct analysis rejects"
            );
        }
        direct_admits += direct as u32;
        transformed_admits += transformed as u32;
    }
    // …and it is strictly more pessimistic overall: the dense periodic
    // stand-in grossly over-counts long-run demand.
    assert!(
        direct_admits > transformed_admits,
        "direct {direct_admits} vs transformed {transformed_admits}"
    );
}

#[test]
fn transformed_wcrt_dominates_direct_wcrt() {
    let window = Time(1_000);
    let cfg = AnalysisConfig {
        arrival_window: Some(window),
        ..Default::default()
    };
    let train = ArrivalPattern::BurstTrain {
        burst_len: 3,
        intra_gap: Time(10),
        train_period: Time(500),
        offset: Time::ZERO,
    };
    let direct = analyze_exact_spp(&system(train.clone(), Time(400), Time(20)), &cfg).unwrap();
    let env = train.sporadic_envelope(window).unwrap();
    let transformed = analyze_exact_spp(&system(env, Time(400), Time(20)), &cfg).unwrap();
    let (d, t) = (direct.jobs[0].wcrt, transformed.jobs[0].wcrt);
    match (d, t) {
        (Some(d), Some(t)) => assert!(t >= d, "transformed WCRT {t:?} < direct {d:?}"),
        (Some(_), None) => {} // transformation even failed to bound it
        other => panic!("unexpected: {other:?}"),
    }
}
