//! The Monte-Carlo driver: deadline-failure probability, response
//! distributions and bound tightness over many draws.
//!
//! Each draw runs the event loop behind a `VerdictSink` observer that
//! tracks one bit per instance — *did it miss its deadline* — plus,
//! optionally, the end-to-end responses, and folds the draw into a
//! [`rta_core::wcdfp::WcdfpAccum`]. No stored draws: with
//! [`WcdfpConfig::sketches`] and [`WcdfpConfig::bounds`] off (the
//! verdict-only configuration), the cost of a draw is the event loop
//! itself, which is what lets the estimator sit in the admission path.
//! With them on, the same draws also yield exact per-job response
//! histograms and, against the Theorem-4 bounds of each drawn system,
//! the observed-vs-analytic tightness gap.
//!
//! Draw `i` is generated from `StdRng::seed_from_u64(base_seed + i)`, so
//! results depend only on the draw index, never on thread count or
//! scheduling. Workers accumulate privately via
//! [`rta_core::par::pool_fold_states`] and the final merge is over integer
//! counts — bit-identical to a sequential fold (pinned in
//! `tests/wcdfp.rs`).
//!
//! Variance reduction hooks into the **generator**, not the simulator:
//! [`Mode::Antithetic`] runs each unit as a pair (draw `A` from the seeded
//! RNG, draw `B` from the same RNG with every word complemented, so every
//! derived uniform is reflected `u → 1 − u`), and [`Mode::Stratified`]
//! confines the *first* uniform of draw `i` — job 1's burst rate in the
//! shop model — to stratum `i mod K` of the unit interval. Both keep the
//! draw-index seeding, so they are as reproducible as the plain mode.

use crate::engine::{Observer, SimConfig, SimEngine};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rta_core::par::pool_fold_states;
use rta_core::wcdfp::{CiMethod, JobEstimate, Mode, Stopping, WcdfpAccum};
use rta_core::{analyze_bounds, AnalysisConfig};
use rta_curves::Time;
use rta_model::jobshop::{ShopConfig, ShopSampler};
use rta_model::priority::{rank_priorities, PriorityPolicy};
use rta_model::{ArrivalPattern, ModelError, TaskSystem};
use std::sync::Arc;

/// What varies between draws.
#[derive(Clone, Debug)]
pub enum DrawModel {
    /// Each draw samples a fresh job-shop system from the Eq. 26 generator
    /// (burst rates, routes, execution weights), priorities ranked
    /// relative-deadline-monotonic on priority-driven processors.
    Shop(ShopConfig),
    /// The system is fixed; each draw realizes its arrival nondeterminism:
    /// [`ArrivalPattern::PeriodicJitter`] delays each nominal release by a
    /// uniform amount in `[0, jitter]`, and
    /// [`ArrivalPattern::SporadicEnvelope`] draws inter-arrival gaps
    /// uniformly from `[min_gap, 2·min_gap]` (a modeling choice — the
    /// envelope only bounds gaps from below). Deterministic patterns
    /// (periodic, bursty, trace, …) release identically in every draw,
    /// over the system's default frame. Build it with
    /// [`DrawModel::arrivals`], which refuses a system whose frame does not
    /// fit in a tick; the estimators panic on such a system.
    Arrivals(TaskSystem),
}

impl DrawModel {
    /// [`DrawModel::Arrivals`] of `sys`, or the
    /// [`ModelError::TickOverflow`] of its default frame.
    pub fn arrivals(sys: TaskSystem) -> Result<DrawModel, ModelError> {
        AnalysisConfig::default().try_resolve(&sys)?;
        Ok(DrawModel::Arrivals(sys))
    }
}

/// Estimation parameters shared by the fixed and adaptive drivers.
#[derive(Clone, Debug)]
pub struct WcdfpConfig {
    /// Sampling mode (plain, antithetic pairs, or stratified).
    pub mode: Mode,
    /// Draw `i` uses seed `base_seed + i`.
    pub base_seed: u64,
    /// Two-sided confidence level of the reported intervals.
    pub confidence: f64,
    /// Binomial interval used in plain mode (and as the degenerate-variance
    /// fallback of the variance-reduction modes).
    pub ci: CiMethod,
    /// Record the per-job response histograms: every completed response
    /// (ticks) and the count of instances still running at the horizon.
    /// With this and `bounds` both `false` (the **verdict-only**
    /// configuration the admission path uses) draws track nothing but the
    /// per-job miss bit, so their cost is the event loop itself. Miss
    /// counts and confidence intervals are identical either way.
    pub sketches: bool,
    /// Run the Theorem-4 bounds analysis on each drawn system and measure
    /// every completed response against its job's end-to-end bound
    /// (`bounded`, `violations`, ratio in ppm, `analysis_failures`). Also
    /// records the response histograms.
    pub bounds: bool,
}

impl Default for WcdfpConfig {
    fn default() -> WcdfpConfig {
        WcdfpConfig {
            mode: Mode::Plain,
            base_seed: 42,
            confidence: 0.95,
            ci: CiMethod::Wilson,
            sketches: true,
            bounds: false,
        }
    }
}

/// Outcome of a WCDFP estimation run.
#[derive(Clone, Debug)]
pub struct WcdfpReport {
    /// Job names, index-aligned with `estimates`.
    pub names: Vec<String>,
    /// Per-job estimates at the configured confidence level.
    pub estimates: Vec<JobEstimate>,
    /// Draws actually simulated.
    pub draws: u64,
    /// Whether the stopping rule was met (always `true` for fixed runs).
    pub converged: bool,
    /// The raw accumulator, for response histograms, bound tightness and
    /// further merging.
    pub accum: WcdfpAccum,
}

/// Complements every RNG word, reflecting each derived uniform `u → 1 − u`
/// (an `f64` sample reads the top 53 bits, integer ranges the high bits —
/// both are monotone in the word).
struct AntitheticRng<R>(R);

impl<R: RngCore> RngCore for AntitheticRng<R> {
    fn next_u64(&mut self) -> u64 {
        !self.0.next_u64()
    }
}

/// Confines the **first** word so the first derived uniform lands in
/// stratum `s` of `K` equal slices of `[0, 1)`; later words pass through.
struct StratifiedRng<R> {
    inner: R,
    stratum: u32,
    strata: u32,
    first: bool,
}

impl<R: RngCore> RngCore for StratifiedRng<R> {
    fn next_u64(&mut self) -> u64 {
        let x = self.inner.next_u64();
        if !self.first {
            return x;
        }
        self.first = false;
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = (self.stratum as f64 + u) / self.strata as f64;
        // v < 1 by construction, so the product stays below 2^53 and the
        // cast is exact; shifting restores the f64-sampling bit layout.
        ((v * (1u64 << 53) as f64) as u64) << 11
    }
}

/// One registered instance in the [`VerdictSink`]: where it released,
/// when it is due, whose job it is, and whether its chain finished.
struct InstRow {
    release_at: Time,
    deadline_at: Time,
    job: u32,
    done: bool,
}

/// The verdict-only [`Observer`]: a flat per-instance row table filled at
/// registration, per-job miss flags. Reset per draw, capacity reused
/// across draws.
#[derive(Default)]
struct VerdictSink {
    rows: Vec<InstRow>,
    jobs_seen: u32,
    /// Collect responses and incomplete instances; off in the
    /// verdict-only configuration.
    collect: bool,
    /// Per-job: some instance missed its deadline this draw.
    missed: Vec<bool>,
    /// Per-job: some instance was horizon-censored (and none missed).
    censored: Vec<bool>,
    /// Completed-chain responses `(job, ticks)` of this draw.
    responses: Vec<(u32, i64)>,
    /// Jobs of this draw's instances still running at the horizon.
    unfinished: Vec<u32>,
}

impl VerdictSink {
    fn reset(&mut self, n_jobs: usize) {
        self.rows.clear();
        self.jobs_seen = 0;
        self.missed.clear();
        self.missed.resize(n_jobs, false);
        self.censored.clear();
        self.censored.resize(n_jobs, false);
        self.responses.clear();
        self.unfinished.clear();
    }

    /// Classify instances still running at the horizon: a miss if the
    /// deadline already passed, censored (outcome unknown) otherwise.
    /// Under the default analysis horizon censoring cannot occur.
    fn finish(&mut self, horizon: Time) {
        for row in &self.rows {
            if !row.done {
                if self.collect {
                    self.unfinished.push(row.job);
                }
                if row.deadline_at <= horizon {
                    self.missed[row.job as usize] = true;
                } else {
                    self.censored[row.job as usize] = true;
                }
            }
        }
    }
}

impl Observer for VerdictSink {
    fn begin_job(&mut self, job: &rta_model::Job, times: &[Time]) {
        let k = self.jobs_seen;
        self.jobs_seen += 1;
        for &t in times {
            self.rows.push(InstRow {
                release_at: t,
                deadline_at: t + job.deadline,
                job: k,
                done: false,
            });
        }
    }

    fn hop_complete(
        &mut self,
        id: crate::arena::InstanceId,
        _inst: &crate::arena::InstanceState,
        t: Time,
        last: bool,
    ) {
        if !last {
            return;
        }
        let row = &mut self.rows[id.0 as usize];
        row.done = true;
        if self.collect {
            self.responses.push((row.job, (t - row.release_at).ticks()));
        }
        if t > row.deadline_at {
            self.missed[row.job as usize] = true;
        }
    }

    #[cfg(feature = "trace")]
    fn service(&mut self, _subjob: rta_model::SubjobRef, _from: Time, _to: Time) {}
}

/// Per-worker model state.
enum ModelState {
    Shop(ShopSampler),
    Arrivals {
        sim: SimConfig,
        flat: Vec<Time>,
        off: Vec<usize>,
        tmp: Vec<Time>,
    },
}

/// One worker's reusable workspace plus its private accumulator.
struct Workspace {
    state: ModelState,
    engine: SimEngine,
    sink: VerdictSink,
    /// Antithetic scratch: draw A's flags, held across draw B.
    pair_missed: Vec<bool>,
    pair_censored: Vec<bool>,
    /// Bounds mode: per-job end-to-end bounds of the current draw's
    /// system, `None` when the analysis failed on it.
    bounds: Option<Vec<Option<Time>>>,
    accum: WcdfpAccum,
}

struct Shared {
    model: DrawModel,
    cfg: WcdfpConfig,
}

fn n_jobs_of(model: &DrawModel) -> usize {
    match model {
        DrawModel::Shop(shop) => shop.n_jobs,
        DrawModel::Arrivals(sys) => sys.jobs().len(),
    }
}

fn job_names(model: &DrawModel) -> Vec<String> {
    match model {
        DrawModel::Shop(shop) => (1..=shop.n_jobs).map(|k| format!("T{k}")).collect(),
        DrawModel::Arrivals(sys) => sys.jobs().iter().map(|j| j.name.clone()).collect(),
    }
}

/// Units of work per run: antithetic pairs count two draws.
fn units_for(mode: Mode, draws: u64) -> u64 {
    match mode {
        Mode::Antithetic => draws.div_ceil(2),
        _ => draws,
    }
}

/// Per-job end-to-end Theorem-4 bounds of `sys`, `None` when the analysis
/// fails.
fn e2e_bounds(sys: &TaskSystem) -> Option<Vec<Option<Time>>> {
    let rep = analyze_bounds(sys, &AnalysisConfig::default()).ok()?;
    Some(rep.jobs.iter().map(|j| j.e2e_bound).collect())
}

fn new_workspace(shared: &Shared) -> Workspace {
    let state = match &shared.model {
        DrawModel::Shop(shop) => {
            ModelState::Shop(ShopSampler::new(shop.clone()).expect("valid shop shape"))
        }
        DrawModel::Arrivals(sys) => {
            let (window, horizon) = AnalysisConfig::default().resolve(sys);
            ModelState::Arrivals {
                sim: SimConfig { window, horizon },
                flat: Vec::new(),
                off: Vec::new(),
                tmp: Vec::new(),
            }
        }
    };
    Workspace {
        state,
        engine: SimEngine::new(),
        sink: VerdictSink {
            collect: shared.cfg.sketches || shared.cfg.bounds,
            ..VerdictSink::default()
        },
        pair_missed: Vec::new(),
        pair_censored: Vec::new(),
        bounds: match &shared.model {
            DrawModel::Arrivals(sys) if shared.cfg.bounds => e2e_bounds(sys),
            _ => None,
        },
        accum: WcdfpAccum::new(shared.cfg.mode, n_jobs_of(&shared.model)),
    }
}

/// Realize one job's releases for this draw (see [`DrawModel::Arrivals`]).
fn randomized_releases<R: Rng>(
    arrival: &ArrivalPattern,
    window: Time,
    rng: &mut R,
    out: &mut Vec<Time>,
) {
    match arrival {
        ArrivalPattern::PeriodicJitter {
            period,
            jitter,
            offset,
        } => {
            out.clear();
            // The pattern's `offset` is the *maximally delayed* first
            // release, so the nominal grid starts at `offset − jitter`;
            // each instance is delayed independently by `U{0..=jitter}`.
            let mut nominal = *offset - *jitter;
            while nominal <= window {
                let d = if jitter.0 > 0 {
                    Time(rng.gen_range(0..=jitter.0))
                } else {
                    Time::ZERO
                };
                out.push((nominal + d).max(Time::ZERO));
                nominal += *period;
            }
            // Independent delays can reorder neighbors when J > T.
            out.sort_unstable();
        }
        ArrivalPattern::SporadicEnvelope { min_gap } => {
            out.clear();
            let mut t = Time::ZERO;
            while t <= window {
                out.push(t);
                t += Time(rng.gen_range(min_gap.0..=2 * min_gap.0));
            }
        }
        _ => arrival.release_times_into(window, out),
    }
}

/// Run one draw: realize the model's randomness, simulate behind the
/// verdict sink, classify horizon-censored instances, and fold the draw's
/// responses into the workspace accumulator.
fn one_draw<R: RngCore>(shared: &Shared, ws: &mut Workspace, rng: &mut R) {
    let (engine, sink) = (&mut ws.engine, &mut ws.sink);
    match (&shared.model, &mut ws.state) {
        (DrawModel::Shop(_), ModelState::Shop(sampler)) => {
            let sys = sampler.sample(rng).expect("valid draw");
            if sys
                .processors()
                .iter()
                .any(|p| p.scheduler.uses_priorities())
            {
                rank_priorities(sys, PriorityPolicy::RelativeDeadlineMonotonic)
                    .expect("priority assignment");
            }
            if shared.cfg.bounds {
                ws.bounds = e2e_bounds(sys);
            }
            let (window, horizon) = AnalysisConfig::default().resolve(sys);
            sink.reset(sys.jobs().len());
            engine.run_observed(sys, &SimConfig { window, horizon }, sink);
            sink.finish(horizon);
        }
        (
            DrawModel::Arrivals(sys),
            ModelState::Arrivals {
                sim,
                flat,
                off,
                tmp,
            },
        ) => {
            flat.clear();
            off.clear();
            off.push(0);
            for job in sys.jobs() {
                randomized_releases(&job.arrival, sim.window, rng, tmp);
                flat.extend_from_slice(tmp);
                off.push(flat.len());
            }
            sink.reset(sys.jobs().len());
            engine.run_with_releases(sys, sim, off, flat, sink);
            sink.finish(sim.horizon);
        }
        _ => unreachable!("workspace model state matches the draw model"),
    }
    if shared.cfg.bounds && ws.bounds.is_none() {
        ws.accum.analysis_failures += 1;
    }
    for &(job, r) in &ws.sink.responses {
        let j = &mut ws.accum.jobs[job as usize];
        j.responses.add(r, 1);
        if let Some(b) = ws.bounds.as_ref().and_then(|b| b[job as usize]) {
            j.record_bounded(r, b.ticks());
        }
    }
    for &job in &ws.sink.unfinished {
        ws.accum.jobs[job as usize].incomplete += 1;
    }
}

/// Fold one unit (one draw, or one antithetic pair) into the workspace
/// accumulator. Unit `u` derives all randomness from
/// `StdRng::seed_from_u64(base_seed + u)`.
fn fold_unit(shared: &Shared, ws: &mut Workspace, unit: u64) {
    let seed = shared.cfg.base_seed.wrapping_add(unit);
    match shared.cfg.mode {
        Mode::Plain => {
            let mut rng = StdRng::seed_from_u64(seed);
            one_draw(shared, ws, &mut rng);
            ws.accum
                .record_draw(&ws.sink.missed, &ws.sink.censored, None);
        }
        Mode::Stratified(k) => {
            let stratum = (unit % k as u64) as u32;
            let mut rng = StratifiedRng {
                inner: StdRng::seed_from_u64(seed),
                stratum,
                strata: k,
                first: true,
            };
            one_draw(shared, ws, &mut rng);
            ws.accum
                .record_draw(&ws.sink.missed, &ws.sink.censored, Some(stratum));
        }
        Mode::Antithetic => {
            let mut rng = StdRng::seed_from_u64(seed);
            one_draw(shared, ws, &mut rng);
            ws.pair_missed.clear();
            ws.pair_missed.extend_from_slice(&ws.sink.missed);
            ws.pair_censored.clear();
            ws.pair_censored.extend_from_slice(&ws.sink.censored);
            let mut rng = AntitheticRng(StdRng::seed_from_u64(seed));
            one_draw(shared, ws, &mut rng);
            ws.accum.record_pair(
                &ws.pair_missed,
                &ws.pair_censored,
                &ws.sink.missed,
                &ws.sink.censored,
            );
        }
    }
}

/// Sequentially fold units `start..end` into `accum` — the reference
/// implementation the parallel path is pinned against, and the substrate
/// of both drivers.
pub fn accumulate_range(
    model: &DrawModel,
    cfg: &WcdfpConfig,
    start: u64,
    end: u64,
    accum: &mut WcdfpAccum,
) {
    let shared = Shared {
        model: model.clone(),
        cfg: cfg.clone(),
    };
    let mut ws = new_workspace(&shared);
    for unit in start..end {
        fold_unit(&shared, &mut ws, unit);
    }
    accum.merge(&ws.accum);
}

/// Fold units `start..start + count` across the worker pool and return the
/// merged accumulator.
fn accumulate_units(shared: &Arc<Shared>, start: u64, count: u64) -> WcdfpAccum {
    let empty = WcdfpAccum::new(shared.cfg.mode, n_jobs_of(&shared.model));
    if count == 0 {
        return empty;
    }
    let s_init = Arc::clone(shared);
    let s_fold = Arc::clone(shared);
    let states = pool_fold_states(
        count as usize,
        move || new_workspace(&s_init),
        move |ws, i| fold_unit(&s_fold, ws, start + i as u64),
    );
    let mut accum = empty;
    for ws in states {
        accum.merge(&ws.accum);
    }
    accum
}

fn report(shared: &Shared, accum: WcdfpAccum, converged: bool) -> WcdfpReport {
    let estimates = accum.estimates(shared.cfg.confidence, shared.cfg.ci);
    WcdfpReport {
        names: job_names(&shared.model),
        estimates,
        draws: accum.draws,
        converged,
        accum,
    }
}

/// Estimate with a fixed draw budget (antithetic mode rounds up to a whole
/// number of pairs).
pub fn estimate_fixed(model: &DrawModel, cfg: &WcdfpConfig, draws: u64) -> WcdfpReport {
    let shared = Arc::new(Shared {
        model: model.clone(),
        cfg: cfg.clone(),
    });
    let accum = accumulate_units(&shared, 0, units_for(cfg.mode, draws));
    report(&shared, accum, true)
}

/// First adaptive round, in units. Rounds double from here (capped), so
/// easy systems settle in one or two cheap rounds while hard ones grow
/// toward the budget geometrically — at most ~2× the draws an oracle
/// round size would have needed.
const FIRST_ROUND_UNITS: u64 = 512;
const MAX_ROUND_UNITS: u64 = 65_536;

/// Estimate adaptively: run rounds of draws at consecutive global indices
/// and stop as soon as `stop` is satisfied (or `max_draws` is exhausted).
///
/// Because units are indexed consecutively from 0, an adaptive run's first
/// `N` draws are *the same draws* a fixed-`N` run would make — adaptivity
/// changes only where the sequence stops.
pub fn estimate_adaptive(
    model: &DrawModel,
    cfg: &WcdfpConfig,
    stop: &Stopping,
    max_draws: u64,
) -> WcdfpReport {
    let shared = Arc::new(Shared {
        model: model.clone(),
        cfg: cfg.clone(),
    });
    let max_units = units_for(cfg.mode, max_draws);
    let mut accum = WcdfpAccum::new(cfg.mode, n_jobs_of(&shared.model));
    let mut done = 0u64;
    let mut round = FIRST_ROUND_UNITS;
    let mut converged = false;
    while done < max_units {
        let count = round.min(max_units - done);
        let part = accumulate_units(&shared, done, count);
        accum.merge(&part);
        done += count;
        let estimates = accum.estimates(stop.confidence, cfg.ci);
        if stop.converged(&estimates) {
            converged = true;
            break;
        }
        round = (round * 2).min(MAX_ROUND_UNITS);
    }
    report(&shared, accum, converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::distributions::Dist;
    use rta_model::jobshop::ShopArrivals;
    use rta_model::{SchedulerKind, SystemBuilder};

    fn small_shop() -> ShopConfig {
        ShopConfig {
            stages: 2,
            procs_per_stage: 2,
            n_jobs: 4,
            scheduler: SchedulerKind::Spp,
            utilization: 0.5,
            arrivals: ShopArrivals::Bursty {
                deadline: Dist::Exponential { mean: 6.0 },
            },
            x_min: 0.25,
            ticks_per_unit: 100,
        }
    }

    fn draws() -> u64 {
        if cfg!(debug_assertions) {
            200
        } else {
            1000
        }
    }

    fn jitter_system() -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job(
            "J1",
            Time(11),
            ArrivalPattern::PeriodicJitter {
                period: Time(20),
                jitter: Time(8),
                offset: Time(8),
            },
            vec![(p, Time(6))],
        );
        b.add_job(
            "J2",
            Time(40),
            ArrivalPattern::Periodic {
                period: Time(25),
                offset: Time::ZERO,
            },
            vec![(p, Time(7))],
        );
        b.build().unwrap()
    }

    #[test]
    fn arrivals_model_refuses_a_frame_past_a_tick() {
        // A period of 2⁶¹ ticks wraps a window of four periods.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Iwrr);
        let periodic = |period| ArrivalPattern::Periodic {
            period: Time(period),
            offset: Time::ZERO,
        };
        b.add_job("A", Time(100), periodic(1 << 61), vec![(p, Time(5))]);
        let sys = b.build().unwrap();
        assert_eq!(
            DrawModel::arrivals(sys).unwrap_err(),
            ModelError::TickOverflow {
                quantity: "arrival window"
            }
        );
    }

    #[test]
    fn shop_estimates_are_valid_intervals() {
        let model = DrawModel::Shop(small_shop());
        let rep = estimate_fixed(&model, &WcdfpConfig::default(), draws());
        assert_eq!(rep.draws, draws());
        assert_eq!(rep.names, vec!["T1", "T2", "T3", "T4"]);
        assert!(rep.converged);
        for e in &rep.estimates {
            assert!(e.lo <= e.p && e.p <= e.hi, "{e:?}");
            assert_eq!(e.draws, draws());
        }
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let model = DrawModel::Shop(small_shop());
        for mode in [Mode::Plain, Mode::Antithetic, Mode::Stratified(4)] {
            let cfg = WcdfpConfig {
                mode,
                ..WcdfpConfig::default()
            };
            let a = estimate_fixed(&model, &cfg, draws());
            let b = estimate_fixed(&model, &cfg, draws());
            assert_eq!(a.draws, b.draws, "{mode:?}");
            for (x, y) in a.estimates.iter().zip(&b.estimates) {
                assert_eq!(x.misses, y.misses, "{mode:?}");
                assert_eq!(x.lo.to_bits(), y.lo.to_bits(), "{mode:?}");
                assert_eq!(x.hi.to_bits(), y.hi.to_bits(), "{mode:?}");
            }
        }
    }

    #[test]
    fn arrivals_model_realizes_jitter() {
        // J1's deadline (12) is shorter than exec(6) + worst jitter
        // collision with J2 on FCFS, but generous realizations exist too:
        // the miss probability must land strictly inside (0, 1).
        let model = DrawModel::Arrivals(jitter_system());
        let rep = estimate_fixed(&model, &WcdfpConfig::default(), draws());
        let e = &rep.estimates[0];
        assert!(e.p > 0.0 && e.p < 1.0, "jitter must matter: {e:?}");
        // J2's slack is large; it should rarely (if ever) miss.
        assert!(rep.estimates[1].p < 0.5);
    }

    #[test]
    fn shop_draws_record_responses_for_every_job() {
        let rep = estimate_fixed(&DrawModel::Shop(small_shop()), &WcdfpConfig::default(), 10);
        assert_eq!(rep.accum.analysis_failures, 0);
        for j in &rep.accum.jobs {
            assert!(j.responses.count() > 0);
            assert_eq!(j.responses.quantile(1.0), j.responses.max());
            assert_eq!(j.bounded, 0, "no bounds requested");
        }
    }

    #[test]
    fn bounds_mode_measures_tightness() {
        let cfg = WcdfpConfig {
            base_seed: 7,
            bounds: true,
            ..WcdfpConfig::default()
        };
        let rep = estimate_fixed(&DrawModel::Shop(small_shop()), &cfg, 5);
        for j in &rep.accum.jobs {
            assert!(j.bounded > 0, "bounds computed");
            // SPP bounds are sound: no observed response may exceed them.
            assert_eq!(j.violations, 0);
            assert!(j.ratio_ppm_max <= 1_000_000);
            assert!(j.ratio_ppm_sum > 0);
        }
    }

    #[test]
    fn verdict_only_config_has_identical_misses() {
        // Turning the histograms off must change nothing about the verdicts:
        // same draws, same per-job miss counts, same intervals.
        let model = DrawModel::Shop(small_shop());
        let full = estimate_fixed(&model, &WcdfpConfig::default(), draws());
        let lean = estimate_fixed(
            &model,
            &WcdfpConfig {
                sketches: false,
                ..WcdfpConfig::default()
            },
            draws(),
        );
        assert_eq!(full.draws, lean.draws);
        for (a, b) in full.estimates.iter().zip(&lean.estimates) {
            assert_eq!(a.misses, b.misses);
            assert_eq!(a.lo.to_bits(), b.lo.to_bits());
            assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        }
        // And the lean run really is lean: nothing reached the histograms.
        assert!(lean.accum.jobs.iter().all(|j| j.responses.count() == 0));
        assert!(full.accum.jobs.iter().any(|j| j.responses.count() > 0));
    }

    #[test]
    fn adaptive_stops_early_on_easy_systems() {
        // A single lightly-loaded periodic job never misses: the interval
        // collapses quickly and the run must stop far below the budget.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job(
            "easy",
            Time(50),
            ArrivalPattern::Periodic {
                period: Time(20),
                offset: Time::ZERO,
            },
            vec![(p, Time(2))],
        );
        let model = DrawModel::Arrivals(b.build().unwrap());
        let stop = Stopping {
            tolerance: 0.01,
            confidence: 0.95,
            threshold: None,
        };
        let rep = estimate_adaptive(&model, &WcdfpConfig::default(), &stop, 1_000_000);
        assert!(rep.converged);
        assert!(
            rep.draws <= 2 * FIRST_ROUND_UNITS,
            "stopped at {}",
            rep.draws
        );
        assert_eq!(rep.estimates[0].misses, 0);
        assert!(rep.estimates[0].half_width() <= 0.01);
    }

    #[test]
    fn antithetic_and_stratified_count_all_draws() {
        let model = DrawModel::Shop(small_shop());
        let cfg = WcdfpConfig {
            mode: Mode::Antithetic,
            ..WcdfpConfig::default()
        };
        let rep = estimate_fixed(&model, &cfg, 100);
        assert_eq!(rep.draws, 100);
        let cfg = WcdfpConfig {
            mode: Mode::Stratified(8),
            ..WcdfpConfig::default()
        };
        let rep = estimate_fixed(&model, &cfg, 100);
        assert_eq!(rep.draws, 100);
        assert_eq!(rep.accum.strat_draws.iter().sum::<u64>(), 100);
    }
}
