//! Property-based tests of the service-function machinery on random
//! workload curves, including the independent per-tick oracle of the
//! Theorem 5/6 chain.

use proptest::prelude::*;
use rta_core::policy::{policy_for, BoundsInputs};
use rta_core::spnp::{spnp_bounds, SoaServiceBounds};
use rta_core::spp::exact_service_into;
use rta_core::SpnpAvailability;
use rta_curves::{Scratch, SoaCurve, Time};
use rta_model::{ArrivalPattern, ProcessorId, SchedulerKind, SubjobRef, SystemBuilder};

const HORIZON: i64 = 80;

/// The `τ`-workload `c = τ·f_arr` of instances released at `times`.
fn workload_of(times: &[Time], tau: i64) -> SoaCurve {
    let mut arrivals = SoaCurve::zero();
    SoaCurve::from_event_times_into(times, &mut arrivals);
    let mut c = SoaCurve::zero();
    arrivals.scale_into(tau, &mut c);
    c
}

/// The Theorem-3 kernel on a workload, given its peers' services.
fn exact_service(c: &SoaCurve, hp: &[&SoaCurve]) -> SoaCurve {
    let mut out = SoaCurve::zero();
    exact_service_into(c, hp, &mut Scratch::new(), &mut out);
    out
}

/// The production chain on a workload, given its higher-priority peers'
/// bounds.
fn chain(
    c: &SoaCurve,
    hp: &[SoaServiceBounds],
    b: i64,
    variant: SpnpAvailability,
) -> SoaServiceBounds {
    let lower: Vec<&SoaCurve> = hp.iter().map(|h| &h.lower).collect();
    let upper: Vec<&SoaCurve> = hp.iter().map(|h| &h.upper).collect();
    let mut out = SoaServiceBounds::zeroed();
    spnp_bounds(
        c,
        &lower,
        &upper,
        Time(b),
        variant,
        &mut Scratch::new(),
        &mut out,
    )
    .unwrap();
    out
}

/// Theorem 5/6 bounds evaluated tick by tick on `[0, h]`, written straight
/// from Eq. 15 and the two theorems as the chain implements them, with
/// every running extremum a loop over the lattice — no curve kernel
/// involved. `hp_lo[t]`/`hp_up[t]` are the peers' summed lower/upper
/// bounds `ΣS̲_h(t)`/`ΣS̄_h(t)`. Returns `(lower, upper)`.
///
/// With `X` the hp sum charged at the `s` position of the upper bound and
/// at the `t` position of the lower bound (`ΣS̲_h` for `AsPrinted`, `ΣS̄_h`
/// for `Conservative`):
///
/// * upper: `min(t − ΣS̲_h(t) + min_{s ≤ t} (c̄(s⁻) + X(s) − s), c̄(t), t)`,
///   clamped at 0 and re-monotonized;
/// * lower: zero on `[0, b]`; after it
///   `min((t − b − X(t)) + run(t − b), c̄(t))`, where `run` is the running
///   minimum of `c̄(s⁻) − B̲(s)` with the masked `B̲(s) = s − b − ΣS̲_h(s)`
///   (`AsPrinted`) or of `c̄(s⁻) + ΣS̲_h(s) − s` (`Conservative`);
///   clamped to `[0, t]` and re-monotonized;
/// * the upper bound is finally raised to the lower one.
fn spnp_bounds_per_tick(
    workload: &SoaCurve,
    hp_lo: &[i64],
    hp_up: &[i64],
    b: i64,
    variant: SpnpAvailability,
    h: i64,
) -> (Vec<i64>, Vec<i64>) {
    let ticks = 0..=h;
    let w: Vec<i64> = ticks.clone().map(|t| workload.eval(Time(t))).collect();
    // c̄(s⁻): the workload strictly before s.
    let c_prev = |s: i64| if s == 0 { 0 } else { w[s as usize - 1] };
    let x: &[i64] = match variant {
        SpnpAvailability::AsPrinted => hp_lo,
        SpnpAvailability::Conservative => hp_up,
    };
    let running = |v: Vec<i64>, pick: fn(i64, i64) -> i64| -> Vec<i64> {
        let mut acc = v[0];
        v.into_iter()
            .map(|y| {
                acc = pick(acc, y);
                acc
            })
            .collect()
    };

    // Theorem 6: no blocking in an upper bound.
    let run_up = running(
        ticks
            .clone()
            .map(|s| c_prev(s) + x[s as usize] - s)
            .collect(),
        i64::min,
    );
    let upper = running(
        ticks
            .clone()
            .map(|t| {
                let i = t as usize;
                (t - hp_lo[i] + run_up[i]).min(w[i]).min(t).max(0)
            })
            .collect(),
        i64::max,
    );

    // Theorem 5: the blocking interval [0, b] guarantees nothing.
    let run_lo = running(
        ticks
            .clone()
            .map(|s| {
                let i = s as usize;
                match variant {
                    SpnpAvailability::AsPrinted => {
                        let avail = if s <= b { 0 } else { s - b - hp_lo[i] };
                        c_prev(s) - avail
                    }
                    SpnpAvailability::Conservative => c_prev(s) + hp_lo[i] - s,
                }
            })
            .collect(),
        i64::min,
    );
    let lower = running(
        ticks
            .clone()
            .map(|t| {
                let i = t as usize;
                let raw = if t <= b {
                    0
                } else {
                    (t - b - x[i] + run_lo[(t - b) as usize]).min(w[i])
                };
                raw.max(0).min(t)
            })
            .collect(),
        i64::max,
    );
    let upper = upper.iter().zip(&lower).map(|(&u, &l)| u.max(l)).collect();
    (lower, upper)
}

/// Random workload on a longer lattice: up to 9 arrivals in `[0, 100)`.
fn arb_long_workload() -> impl Strategy<Value = SoaCurve> {
    (prop::collection::vec(0i64..100, 0..10), 1i64..8).prop_map(|(mut ts, tau)| {
        ts.sort();
        let times: Vec<Time> = ts.into_iter().map(Time).collect();
        workload_of(&times, tau)
    })
}

/// Random workload curve: sorted arrival times × a small execution time.
fn arb_workload() -> impl Strategy<Value = (SoaCurve, i64)> {
    (prop::collection::vec(0i64..60, 0..8), 1i64..6).prop_map(|(mut ts, tau)| {
        ts.sort();
        let times: Vec<Time> = ts.into_iter().map(Time).collect();
        (workload_of(&times, tau), tau)
    })
}

proptest! {
    /// Theorem 3 invariants: 0 ≤ S ≤ min(t, c), S nondecreasing, and the
    /// workload is eventually fully served when the processor is otherwise
    /// idle.
    #[test]
    fn exact_service_invariants((c, _tau) in arb_workload()) {
        let s = exact_service(&c, &[]);
        prop_assert!(s.is_nondecreasing());
        for t in 0..=HORIZON {
            let t = Time(t);
            let v = s.eval(t);
            prop_assert!(v >= 0);
            prop_assert!(v <= t.ticks());
            prop_assert!(v <= c.eval(t));
        }
        // All demand issued by HORIZON/2 is served by HORIZON (idle server,
        // demand ≤ HORIZON/2 total by construction: ≤ 8 events × 5 ticks).
        let demand = c.eval(Time(HORIZON / 2));
        prop_assert!(s.eval(Time(HORIZON + 60)) >= demand);
    }

    /// Two-level exact service: the processor is conserved — the sum of
    /// services never exceeds elapsed time, and equals the Theorem 7
    /// utilization of the combined workload.
    #[test]
    fn two_level_work_conservation((c1, _t1) in arb_workload(), (c2, _t2) in arb_workload()) {
        let hp = exact_service(&c1, &[]);
        let lp = exact_service(&c2, &[&hp]);
        // U(t) = min(t, t + min_{s ≤ t} (G(s⁻) − s)), tick by tick.
        let g = |t: i64| c1.eval(Time(t)) + c2.eval(Time(t));
        let mut run = i64::MAX;
        for t in 0..=HORIZON {
            run = run.min(if t == 0 { 0 } else { g(t - 1) } - t);
            let u = t.min(t + run);
            let total = hp.eval(Time(t)) + lp.eval(Time(t));
            prop_assert!(total <= t.max(0));
            prop_assert_eq!(total, u.max(0), "t={}", t);
        }
    }

    /// The min-form with the trivial availability bounds of Definition 6
    /// brackets the exact service: availability `t` (an idle processor) is
    /// the exact service itself, availability 0 (a peer that takes every
    /// tick) yields the zero service.
    #[test]
    fn trivial_availability_bounds_bracket((c, _tau) in arb_workload()) {
        let exact = exact_service(&c, &[]);
        let mut everything = SoaCurve::zero();
        everything.set_affine(0, 1);
        let with_lower = exact_service(&c, &[&everything]);
        for t in 0..=HORIZON {
            let t = Time(t);
            prop_assert_eq!(with_lower.eval(t), 0);
            prop_assert!(exact.eval(t) >= 0);
        }
    }

    /// SPNP bounds: lower ≤ upper pointwise, both within [0, min(t, c̄)],
    /// both nondecreasing, for both variants and random blocking.
    #[test]
    fn spnp_bounds_sanity(
        (c, _tau) in arb_workload(),
        (hp_c, _ht) in arb_workload(),
        b in 0i64..12,
        conservative in any::<bool>(),
    ) {
        let variant = if conservative {
            SpnpAvailability::Conservative
        } else {
            SpnpAvailability::AsPrinted
        };
        let hp = chain(&hp_c, &[], b, variant);
        let me = chain(&c, &[hp], b, variant);
        prop_assert!(me.lower.is_nondecreasing());
        prop_assert!(me.upper.is_nondecreasing());
        for t in 0..=HORIZON {
            let t = Time(t);
            prop_assert!(me.lower.eval(t) <= me.upper.eval(t), "t={}", t);
            prop_assert!(me.lower.eval(t) >= 0);
            prop_assert!(me.lower.eval(t) <= c.eval(t));
            prop_assert!(me.upper.eval(t) <= t.ticks().max(0));
        }
        // No blocking during the guaranteed-zero prefix.
        if b > 0 {
            prop_assert_eq!(me.lower.eval(Time(b)), 0);
        }
    }

    /// With no interference and no blocking, both SPNP variants collapse to
    /// the exact service function.
    #[test]
    fn spnp_degenerates_to_exact((c, _tau) in arb_workload()) {
        let exact = exact_service(&c, &[]);
        for variant in [SpnpAvailability::AsPrinted, SpnpAvailability::Conservative] {
            let bounds = chain(&c, &[], 0, variant);
            for t in 0..=HORIZON {
                let t = Time(t);
                prop_assert_eq!(bounds.lower.eval(t), exact.eval(t), "lower {:?} t={}", variant, t);
                prop_assert_eq!(bounds.upper.eval(t), exact.eval(t), "upper {:?} t={}", variant, t);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Theorem 5/6 chain equals the per-tick evaluator at every tick of
    /// `[0, H]`, for both availability variants, with 0–3 higher-priority
    /// peers whose own bounds come from the chain and blocking 0–11.
    #[test]
    fn spnp_chain_matches_per_tick_theorem_5_6_oracle(
        c in arb_long_workload(),
        peers in prop::collection::vec((arb_long_workload(), 0i64..12), 0..4),
        b in 0i64..12,
        h in 100i64..160,
        conservative in any::<bool>(),
    ) {
        let variant = if conservative {
            SpnpAvailability::Conservative
        } else {
            SpnpAvailability::AsPrinted
        };
        // Peer k sits below peers 0..k, so its bounds see them as hp.
        let mut hp: Vec<SoaServiceBounds> = Vec::new();
        for (peer, peer_b) in &peers {
            let bounds = chain(peer, &hp, *peer_b, variant);
            hp.push(bounds);
        }
        let sum = |pick: fn(&SoaServiceBounds) -> &SoaCurve| -> Vec<i64> {
            (0..=h)
                .map(|t| hp.iter().map(|x| pick(x).eval(Time(t))).sum())
                .collect()
        };
        let (hp_lo, hp_up) = (sum(|x| &x.lower), sum(|x| &x.upper));
        let me = chain(&c, &hp, b, variant);
        let (lower, upper) = spnp_bounds_per_tick(&c, &hp_lo, &hp_up, b, variant, h);
        for t in 0..=h {
            let i = t as usize;
            prop_assert_eq!(me.lower.eval(Time(t)), lower[i], "lower {:?} b={} t={}", variant, b, t);
            prop_assert_eq!(me.upper.eval(Time(t)), upper[i], "upper {:?} b={} t={}", variant, b, t);
        }
    }
}

/// `c(t)` on `[0, h]` for each flow's workload, and `c(s⁻)` from it.
fn ticks_of(c: &SoaCurve, h: i64) -> Vec<i64> {
    (0..=h).map(|t| c.eval(Time(t))).collect()
}

/// The running maximum of `v`, clamped at 0 first — the re-monotonization
/// both shared-workload policies apply to their raw bounds.
fn clamp_running_max(v: impl Iterator<Item = i64>) -> Vec<i64> {
    let mut acc = i64::MIN;
    v.map(|y| {
        acc = acc.max(y.max(0));
        acc
    })
    .collect()
}

/// Theorems 7–9 for flow `me` among `flows` (all on one FCFS processor),
/// tick by tick on `[0, h]`: `U` from Theorem 7, the extended total
/// workload `G_ext` (a sentinel batch just past the horizon) inverted by a
/// scan, the frontiers `v = G_ext⁻¹(U + 1)` and `s* = G_ext⁻¹(U)`, then
///
/// * lower: `min(c(v⁻), c(t), t)`, clamped at 0 and re-monotonized;
/// * upper: `min(c(s*) + τ, t, c(t))`, clamped at 0, re-monotonized and
///   raised to the lower bound.
fn fcfs_bounds_per_tick(flows: &[SoaCurve], me: usize, tau: i64, h: i64) -> (Vec<i64>, Vec<i64>) {
    let cs: Vec<Vec<i64>> = flows.iter().map(|c| ticks_of(c, h + 1)).collect();
    let g = |t: i64| cs.iter().map(|c| c[t as usize]).sum::<i64>();
    let c = &cs[me];
    let c_left = |x: i64| if x == 0 { 0 } else { c[x as usize - 1] };
    // The workloads are staircases, so G past the horizon stays at G(h).
    let g_ext = |s: i64| if s <= h { g(s) } else { g(h) + g(h) + h + 2 };
    let g_ext_inv = |y: i64| (0..=h + 1).find(|&s| g_ext(s) >= y).expect("sentinel");
    let mut run = i64::MAX;
    let u: Vec<i64> = (0..=h)
        .map(|t| {
            run = run.min(if t == 0 { 0 } else { g(t - 1) } - t);
            t.min(t + run).max(0)
        })
        .collect();
    let lower = clamp_running_max((0..=h).map(|t| {
        let v = g_ext_inv(u[t as usize] + 1);
        c_left(v).min(c[t as usize]).min(t)
    }));
    let upper = clamp_running_max((0..=h).map(|t| {
        let s_star = g_ext_inv(u[t as usize]);
        (c[s_star as usize] + tau).min(t).min(c[t as usize])
    }));
    let upper = upper.iter().zip(&lower).map(|(&a, &b)| a.max(b)).collect();
    (lower, upper)
}

/// The IWRR bounds for a flow with workload `c`, quantum `q = w·τ` and
/// round length `l`, tick by tick on `[0, h]`: the strict service curve
/// `β(u) = q·max(0, ⌊u/l⌋ − 1)` composed with the busy period,
///
/// * lower: `min(min_{s ≤ t} (c(s⁻) + β(t − s)), c(t), t)`, clamped at 0
///   and re-monotonized;
/// * upper: `min(t, c(t))`, clamped at 0, re-monotonized and raised to the
///   lower bound.
fn iwrr_bounds_per_tick(c: &SoaCurve, q: i64, l: i64, h: i64) -> (Vec<i64>, Vec<i64>) {
    let c = ticks_of(c, h);
    let c_left = |s: i64| if s == 0 { 0 } else { c[s as usize - 1] };
    let beta = |u: i64| q * (u / l - 1).max(0);
    let lower = clamp_running_max((0..=h).map(|t| {
        let busy = (0..=t).map(|s| c_left(s) + beta(t - s)).min().unwrap();
        busy.min(c[t as usize]).min(t)
    }));
    let upper = clamp_running_max((0..=h).map(|t| t.min(c[t as usize])));
    let upper = upper.iter().zip(&lower).map(|(&a, &b)| a.max(b)).collect();
    (lower, upper)
}

/// Random single-hop trace flows: release times in `[0, 60)` and an
/// execution time each, with a weight for IWRR.
fn arb_flows() -> impl Strategy<Value = Vec<(Vec<i64>, i64, u32)>> {
    prop::collection::vec(
        (prop::collection::vec(0i64..60, 1..6), 1i64..8, 1i64..4).prop_map(
            |(mut releases, exec, weight)| {
                releases.sort_unstable();
                (releases, exec, weight as u32)
            },
        ),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FCFS and IWRR policies' bounds equal their per-tick evaluators
    /// at every tick of the horizon, for every flow on a shared processor,
    /// through the drivers' entry points (`build_context`, then
    /// `service_bounds`).
    #[test]
    fn shared_workload_bounds_match_per_tick_formulas(flows in arb_flows(), h in 60i64..120) {
        for kind in [SchedulerKind::Fcfs, SchedulerKind::Iwrr] {
            let mut b = SystemBuilder::new();
            let p = b.add_processor("P", kind);
            let mut workloads = Vec::new();
            for (k, (releases, exec, weight)) in flows.iter().enumerate() {
                let times: Vec<Time> = releases.iter().map(|&t| Time(t)).collect();
                let job = b.add_job(
                    format!("T{k}"),
                    Time(500),
                    ArrivalPattern::Trace(times.clone()),
                    vec![(p, Time(*exec))],
                );
                b.set_weight(SubjobRef { job, index: 0 }, *weight);
                workloads.push(workload_of(&times, *exec));
            }
            let sys = b.build().unwrap();
            let refs: Vec<&SoaCurve> = workloads.iter().collect();
            let policy = policy_for(kind);
            let horizon = Time(h);
            let ctx = policy
                .build_context(&sys, ProcessorId(0), &sys.subjobs_on(ProcessorId(0)), &refs, horizon)
                .unwrap();
            let round: i64 = flows.iter().map(|(_, e, w)| e * *w as i64).sum();
            for (me, (_, exec, weight)) in flows.iter().enumerate() {
                let mut out = SoaServiceBounds::zeroed();
                policy
                    .service_bounds(
                        &BoundsInputs {
                            workload: &workloads[me],
                            tau: Time(*exec),
                            weight: *weight,
                            blocking: Time::ZERO,
                            hp_lower: &[],
                            hp_upper: &[],
                            variant: SpnpAvailability::Conservative,
                            ctx: ctx.as_ref(),
                            horizon,
                            processor: ProcessorId(0),
                        },
                        &mut Scratch::new(),
                        &mut out,
                    )
                    .unwrap();
                let (lower, upper) = match kind {
                    SchedulerKind::Fcfs => fcfs_bounds_per_tick(&workloads, me, *exec, h),
                    _ => iwrr_bounds_per_tick(&workloads[me], *weight as i64 * exec, round, h),
                };
                for t in 0..=h {
                    let i = t as usize;
                    prop_assert_eq!(out.lower.eval(Time(t)), lower[i], "{} lower flow {} t={}", kind, me, t);
                    prop_assert_eq!(out.upper.eval(Time(t)), upper[i], "{} upper flow {} t={}", kind, me, t);
                }
            }
        }
    }
}
