//! Streaming statistics for worst-case deadline-failure probability
//! (WCDFP) estimation.
//!
//! The Monte-Carlo runner in `rta-sim` folds every draw into the
//! [`WcdfpAccum`] defined here: per-job miss **counters** (never stored
//! draws), optional antithetic-pair and per-stratum counters for variance
//! reduction, and optionally an exact [`Histogram`] of response ticks and
//! bound-tightness counters. Every field is an integer count, so
//! accumulators merged across worker threads are *bit-identical* to a
//! sequential fold over the same draws regardless of how the draws were
//! partitioned (integer addition is commutative and associative). The
//! point estimate and its confidence interval are derived from the miss
//! counters alone.
//!
//! Interval machinery: the Wilson score interval (cheap, good coverage for
//! mid-range `p`), the exact Clopper–Pearson interval (used near the
//! boundaries and as the conservative fallback of the variance-reduction
//! modes), the inverse normal CDF (Acklam's rational approximation), and
//! the regularized incomplete beta function (Lentz continued fraction)
//! inverted by bisection. No tables, no external crates.

use std::collections::BTreeMap;

/// How draws were generated, which decides how counters turn into a
/// confidence interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Independent draws; binomial interval on the miss counter.
    Plain,
    /// Draws come in antithetic pairs (`2k` draws = `k` pairs); the
    /// interval is a normal approximation over the pair means, which are
    /// negatively correlated when the miss indicator responds
    /// monotonically to the underlying uniforms.
    Antithetic,
    /// The first uniform of draw `i` is confined to stratum `i mod K` of
    /// `[0, 1)`; the interval is the stratified-sampling normal
    /// approximation over per-stratum miss rates.
    Stratified(u32),
}

/// Which binomial interval to use for [`Mode::Plain`] estimates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CiMethod {
    /// Wilson score interval.
    Wilson,
    /// Exact (conservative) Clopper–Pearson interval.
    ClopperPearson,
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error below `1.2e-9` over the open unit interval).
///
/// # Panics
/// Panics when `p` is outside `(0, 1)`.
pub fn inv_norm_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "inv_norm_cdf domain is (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Wilson score interval for `k` successes in `n` Bernoulli trials at the
/// given two-sided confidence level. `n == 0` yields the vacuous `[0, 1]`.
pub fn wilson(k: u64, n: u64, confidence: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let z = inv_norm_cdf(1.0 - (1.0 - confidence) / 2.0);
    let nf = n as f64;
    let p = k as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Natural log of the gamma function (Lanczos, g = 7, 9 terms).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_81,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    debug_assert!(x > 0.0);
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Continued fraction for the incomplete beta function (Lentz's method).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3.0e-16;
    const FPMIN: f64 = 1.0e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn betai(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let bt = (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * betacf(a, b, x) / a
    } else {
        1.0 - bt * betacf(b, a, 1.0 - x) / b
    }
}

/// Inverse of `I_x(a, b)` in `x` by bisection (monotone, 80 halvings).
fn betai_inv(p: f64, a: f64, b: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if betai(a, b, mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Exact Clopper–Pearson interval for `k` successes in `n` trials at the
/// given two-sided confidence level. `n == 0` yields `[0, 1]`.
pub fn clopper_pearson(k: u64, n: u64, confidence: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let alpha = 1.0 - confidence;
    let (kf, nf) = (k as f64, n as f64);
    let lo = if k == 0 {
        0.0
    } else {
        betai_inv(alpha / 2.0, kf, nf - kf + 1.0)
    };
    let hi = if k == n {
        1.0
    } else {
        betai_inv(1.0 - alpha / 2.0, kf + 1.0, nf - kf)
    };
    (lo, hi)
}

/// Exact distribution of integer observations: a count per distinct
/// value, kept sorted, so an insert costs O(log k) for `k` distinct values.
/// Merging adds counts, so every split of the observations merges to the
/// same histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<i64, u64>,
    total: u64,
}

impl Histogram {
    /// Record `n` observations of `v`.
    pub fn add(&mut self, v: i64, n: u64) {
        if n > 0 {
            *self.counts.entry(v).or_insert(0) += n;
            self.total += n;
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&v, &n) in &other.counts {
            self.add(v, n);
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest observation; `None` when empty.
    pub fn max(&self) -> Option<i64> {
        self.counts.keys().next_back().copied()
    }

    /// The nearest-rank `q`-quantile (`0 ≤ q ≤ 1`): the observation of rank
    /// `⌈q·n⌉` (at least 1) in sorted order; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<i64> {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        self.counts.iter().find_map(|(&v, &n)| {
            seen += n;
            (seen >= rank).then_some(v)
        })
    }
}

/// Per-job streaming counters.
#[derive(Clone, Debug, PartialEq)]
pub struct JobAccum {
    /// Draws in which at least one instance of the job missed its deadline.
    pub misses: u64,
    /// Draws in which some instance was censored by the horizon (release +
    /// deadline past the horizon, outcome unknown) and no other instance
    /// missed. Always 0 under the default analysis horizon.
    pub censored: u64,
    /// Antithetic pairs in which both draws missed.
    pub pair_both: u64,
    /// Antithetic pairs in which exactly one draw missed.
    pub pair_mixed: u64,
    /// Per-stratum miss counts (empty unless [`Mode::Stratified`]).
    pub strat_misses: Vec<u64>,
    /// End-to-end responses (ticks) of completed instances.
    pub responses: Histogram,
    /// Instances still running at the horizon.
    pub incomplete: u64,
    /// Completed instances measured against an analytic end-to-end bound.
    pub bounded: u64,
    /// Bounded instances whose response exceeded the bound.
    pub violations: u64,
    /// `Σ ⌊10⁶·response/bound⌋` over the bounded instances.
    pub ratio_ppm_sum: u64,
    /// Largest `⌊10⁶·response/bound⌋` (0 before any).
    pub ratio_ppm_max: u64,
}

impl JobAccum {
    fn new(strata: usize) -> JobAccum {
        JobAccum {
            misses: 0,
            censored: 0,
            pair_both: 0,
            pair_mixed: 0,
            strat_misses: vec![0; strata],
            responses: Histogram::default(),
            incomplete: 0,
            bounded: 0,
            violations: 0,
            ratio_ppm_sum: 0,
            ratio_ppm_max: 0,
        }
    }

    /// Measure one completed response against its job's analytic
    /// end-to-end bound (both in ticks).
    pub fn record_bounded(&mut self, response: i64, bound: i64) {
        let ppm = (i128::from(response) * 1_000_000 / i128::from(bound.max(1)))
            .clamp(0, i128::from(u64::MAX)) as u64;
        self.bounded += 1;
        self.violations += u64::from(response > bound);
        self.ratio_ppm_sum += ppm;
        self.ratio_ppm_max = self.ratio_ppm_max.max(ppm);
    }

    fn merge(&mut self, other: &JobAccum) {
        self.misses += other.misses;
        self.censored += other.censored;
        self.pair_both += other.pair_both;
        self.pair_mixed += other.pair_mixed;
        debug_assert_eq!(self.strat_misses.len(), other.strat_misses.len());
        for (a, b) in self.strat_misses.iter_mut().zip(&other.strat_misses) {
            *a += b;
        }
        self.responses.merge(&other.responses);
        self.incomplete += other.incomplete;
        self.bounded += other.bounded;
        self.violations += other.violations;
        self.ratio_ppm_sum += other.ratio_ppm_sum;
        self.ratio_ppm_max = self.ratio_ppm_max.max(other.ratio_ppm_max);
    }
}

/// The point estimate and confidence interval of one job's WCDFP.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobEstimate {
    /// Point estimate of the deadline-failure probability.
    pub p: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Miss count behind the estimate.
    pub misses: u64,
    /// Draw count behind the estimate.
    pub draws: u64,
}

impl JobEstimate {
    /// Half the interval width — the quantity the stopping rule tests.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// Mergeable accumulator of a whole WCDFP run: global draw counters plus
/// one [`JobAccum`] per job.
#[derive(Clone, Debug, PartialEq)]
pub struct WcdfpAccum {
    /// Sampling mode the counters were produced under.
    pub mode: Mode,
    /// Total draws folded (each antithetic pair contributes two).
    pub draws: u64,
    /// Per-stratum draw counts (empty unless [`Mode::Stratified`]).
    pub strat_draws: Vec<u64>,
    /// Draws whose system the bounds analysis failed on (their responses
    /// are recorded but measured against no bound).
    pub analysis_failures: u64,
    /// Per-job counters.
    pub jobs: Vec<JobAccum>,
}

impl WcdfpAccum {
    /// A fresh accumulator for `n_jobs` jobs under `mode`.
    pub fn new(mode: Mode, n_jobs: usize) -> WcdfpAccum {
        let strata = match mode {
            Mode::Stratified(k) => k as usize,
            _ => 0,
        };
        WcdfpAccum {
            mode,
            draws: 0,
            strat_draws: vec![0; strata],
            analysis_failures: 0,
            jobs: (0..n_jobs).map(|_| JobAccum::new(strata)).collect(),
        }
    }

    /// Fold another accumulator of the same shape into this one. Every
    /// field is an integer count or an exact histogram, so merging is
    /// exact and order-independent.
    pub fn merge(&mut self, other: &WcdfpAccum) {
        assert_eq!(
            self.mode, other.mode,
            "merging accumulators of different modes"
        );
        assert_eq!(self.jobs.len(), other.jobs.len(), "job count mismatch");
        self.draws += other.draws;
        self.analysis_failures += other.analysis_failures;
        for (a, b) in self.strat_draws.iter_mut().zip(&other.strat_draws) {
            *a += b;
        }
        for (a, b) in self.jobs.iter_mut().zip(&other.jobs) {
            a.merge(b);
        }
    }

    /// Fold one independent draw: per-job miss/censor flags, plus the
    /// stratum it was drawn from under [`Mode::Stratified`].
    pub fn record_draw(&mut self, missed: &[bool], censored: &[bool], stratum: Option<u32>) {
        debug_assert_eq!(missed.len(), self.jobs.len());
        self.draws += 1;
        if let Some(s) = stratum {
            self.strat_draws[s as usize] += 1;
        }
        for (k, job) in self.jobs.iter_mut().enumerate() {
            if missed[k] {
                job.misses += 1;
                if let Some(s) = stratum {
                    job.strat_misses[s as usize] += 1;
                }
            } else if censored[k] {
                job.censored += 1;
            }
        }
    }

    /// Fold one antithetic pair (draw A and its antithetic mirror B).
    pub fn record_pair(
        &mut self,
        missed_a: &[bool],
        censored_a: &[bool],
        missed_b: &[bool],
        censored_b: &[bool],
    ) {
        debug_assert_eq!(missed_a.len(), self.jobs.len());
        debug_assert_eq!(missed_b.len(), self.jobs.len());
        self.draws += 2;
        for (k, job) in self.jobs.iter_mut().enumerate() {
            match (missed_a[k], missed_b[k]) {
                (true, true) => {
                    job.misses += 2;
                    job.pair_both += 1;
                }
                (true, false) | (false, true) => {
                    job.misses += 1;
                    job.pair_mixed += 1;
                }
                (false, false) => {}
            }
            if !missed_a[k] && censored_a[k] {
                job.censored += 1;
            }
            if !missed_b[k] && censored_b[k] {
                job.censored += 1;
            }
        }
    }

    /// Per-job estimates at the given confidence level. `method` selects
    /// the binomial interval used by [`Mode::Plain`] (and as the fallback
    /// of the variance-reduction modes when their variance estimate
    /// degenerates).
    pub fn estimates(&self, confidence: f64, method: CiMethod) -> Vec<JobEstimate> {
        self.jobs
            .iter()
            .map(|job| self.estimate_job(job, confidence, method))
            .collect()
    }

    fn binomial_ci(&self, k: u64, confidence: f64, method: CiMethod) -> (f64, f64) {
        match method {
            CiMethod::Wilson => wilson(k, self.draws, confidence),
            CiMethod::ClopperPearson => clopper_pearson(k, self.draws, confidence),
        }
    }

    fn estimate_job(&self, job: &JobAccum, confidence: f64, method: CiMethod) -> JobEstimate {
        let n = self.draws;
        let p = if n == 0 {
            0.0
        } else {
            job.misses as f64 / n as f64
        };
        let (lo, hi) = match self.mode {
            Mode::Plain => self.binomial_ci(job.misses, confidence, method),
            Mode::Antithetic => {
                // Pair means take values in {0, ½, 1}; their sample
                // variance bakes in the antithetic covariance term.
                let pairs = n / 2;
                let var = if pairs >= 2 {
                    let sum_sq = job.pair_both as f64 + 0.25 * job.pair_mixed as f64;
                    ((sum_sq - pairs as f64 * p * p) / (pairs as f64 - 1.0)).max(0.0)
                } else {
                    0.0
                };
                if var > 0.0 {
                    let z = inv_norm_cdf(1.0 - (1.0 - confidence) / 2.0);
                    let half = z * (var / pairs as f64).sqrt();
                    ((p - half).max(0.0), (p + half).min(1.0))
                } else {
                    // Degenerate pairs (all identical): fall back to the
                    // conservative exact interval on the raw counter.
                    clopper_pearson(job.misses, n, confidence)
                }
            }
            Mode::Stratified(_) => {
                let any_empty = self.strat_draws.contains(&0);
                let mut var = 0.0;
                if !any_empty && n > 0 {
                    for (s, &ns) in self.strat_draws.iter().enumerate() {
                        let w = ns as f64 / n as f64;
                        let ps = job.strat_misses[s] as f64 / ns as f64;
                        var += w * w * ps * (1.0 - ps) / ns as f64;
                    }
                }
                if var > 0.0 {
                    let z = inv_norm_cdf(1.0 - (1.0 - confidence) / 2.0);
                    let half = z * var.sqrt();
                    ((p - half).max(0.0), (p + half).min(1.0))
                } else {
                    clopper_pearson(job.misses, n, confidence)
                }
            }
        };
        JobEstimate {
            p,
            lo,
            hi,
            misses: job.misses,
            draws: n,
        }
    }
}

/// The adaptive stopping rule: stop when every job's interval is narrow
/// enough, or cleanly separated from a decision threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stopping {
    /// Maximum acceptable CI half-width.
    pub tolerance: f64,
    /// Two-sided confidence level of the intervals (e.g. `0.95`).
    pub confidence: f64,
    /// Optional decision threshold: a job whose whole interval lies on one
    /// side of it is settled even if the interval is still wide.
    pub threshold: Option<f64>,
}

impl Stopping {
    /// Whether every job's estimate satisfies the rule.
    pub fn converged(&self, estimates: &[JobEstimate]) -> bool {
        estimates.iter().all(|e| {
            e.half_width() <= self.tolerance
                || self.threshold.is_some_and(|th| e.hi < th || e.lo > th)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn inv_norm_known_points() {
        assert!((inv_norm_cdf(0.975) - 1.959_963_984_540_054).abs() < 1e-7);
        assert!((inv_norm_cdf(0.5)).abs() < 1e-9);
        assert!((inv_norm_cdf(0.995) - 2.575_829_303_548_901).abs() < 1e-7);
        assert!((inv_norm_cdf(0.025) + 1.959_963_984_540_054).abs() < 1e-7);
    }

    #[test]
    fn wilson_matches_reference_values() {
        // k=10, n=100, 95%: the textbook Wilson interval.
        let (lo, hi) = wilson(10, 100, 0.95);
        assert!((lo - 0.0552).abs() < 2e-3, "lo={lo}");
        assert!((hi - 0.1744).abs() < 2e-3, "hi={hi}");
        // Contains the point estimate and stays in [0,1].
        assert!(lo <= 0.1 && 0.1 <= hi);
        let (lo, hi) = wilson(0, 50, 0.95);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.12);
    }

    #[test]
    fn clopper_pearson_matches_closed_forms() {
        // k=0: hi = 1 - (α/2)^(1/n) exactly.
        let (lo, hi) = clopper_pearson(0, 100, 0.95);
        assert_eq!(lo, 0.0);
        assert!((hi - (1.0 - 0.025f64.powf(0.01))).abs() < 1e-9, "hi={hi}");
        // k=n mirrors k=0.
        let (lo2, hi2) = clopper_pearson(100, 100, 0.95);
        assert_eq!(hi2, 1.0);
        assert!((lo2 - (1.0 - hi)).abs() < 1e-9);
        // Exactness: CP contains the point estimate and is wider than
        // Wilson for small k.
        let (clo, chi) = clopper_pearson(3, 200, 0.95);
        let (wlo, whi) = wilson(3, 200, 0.95);
        assert!(clo <= 0.015 && 0.015 <= chi);
        assert!(chi - clo >= whi - wlo - 1e-12);
    }

    /// Nearest-rank quantile over a sorted sample vector.
    fn nearest_rank(sorted: &[i64], q: f64) -> Option<i64> {
        let n = sorted.len();
        (n > 0).then(|| sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn histogram_split_and_merge_equals_the_single_fold(
            obs in prop::collection::vec((0i64..40, 1u64..4), 0..60),
            cuts in prop::collection::vec(0usize..60, 0..6),
            reverse in any::<bool>(),
        ) {
            let mut whole = Histogram::default();
            for &(v, n) in &obs {
                whole.add(v, n);
            }
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(obs.len())).collect();
            bounds.extend([0, obs.len()]);
            bounds.sort_unstable();
            let mut parts: Vec<Histogram> = bounds
                .windows(2)
                .map(|w| {
                    let mut h = Histogram::default();
                    for &(v, n) in &obs[w[0]..w[1]] {
                        h.add(v, n);
                    }
                    h
                })
                .collect();
            if reverse {
                parts.reverse();
            }
            let mut merged = Histogram::default();
            for h in &parts {
                merged.merge(h);
            }
            prop_assert_eq!(&merged, &whole);
        }

        #[test]
        fn histogram_quantile_is_nearest_rank(
            obs in prop::collection::vec((0i64..1000, 1u64..5), 1..50),
        ) {
            let mut h = Histogram::default();
            let mut sorted = Vec::new();
            for &(v, n) in &obs {
                h.add(v, n);
                sorted.resize(sorted.len() + n as usize, v);
            }
            sorted.sort_unstable();
            prop_assert_eq!(h.count(), sorted.len() as u64);
            prop_assert_eq!(h.max(), sorted.last().copied());
            for q in [0.0, 0.5, 0.99, 1.0] {
                prop_assert_eq!(h.quantile(q), nearest_rank(&sorted, q), "q = {}", q);
            }
        }
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let mut h = Histogram::default();
        h.add(7, 0);
        assert_eq!(h, Histogram::default());
        assert_eq!((h.count(), h.max(), h.quantile(0.5)), (0, None, None));
    }

    #[test]
    fn plain_accumulator_counts_and_estimates() {
        let mut acc = WcdfpAccum::new(Mode::Plain, 2);
        for i in 0..100 {
            let miss = i % 10 == 0; // job 0 misses 10% of draws
            acc.record_draw(&[miss, false], &[false, false], None);
        }
        assert_eq!(acc.draws, 100);
        assert_eq!(acc.jobs[0].misses, 10);
        assert_eq!(acc.jobs[1].misses, 0);
        let est = acc.estimates(0.95, CiMethod::Wilson);
        assert!((est[0].p - 0.1).abs() < 1e-12);
        assert!(est[0].lo <= 0.1 && 0.1 <= est[0].hi);
        assert_eq!(est[1].p, 0.0);
        assert_eq!(est[1].lo, 0.0);
        assert!(est[1].hi > 0.0);
    }

    #[test]
    fn merge_is_exact_on_counters() {
        let mut a = WcdfpAccum::new(Mode::Stratified(4), 1);
        let mut b = WcdfpAccum::new(Mode::Stratified(4), 1);
        let mut seq = WcdfpAccum::new(Mode::Stratified(4), 1);
        for i in 0..40u32 {
            let miss = i % 3 == 0;
            let target = if i < 17 { &mut a } else { &mut b };
            target.record_draw(&[miss], &[false], Some(i % 4));
            seq.record_draw(&[miss], &[false], Some(i % 4));
        }
        a.merge(&b);
        assert_eq!(a.draws, seq.draws);
        assert_eq!(a.strat_draws, seq.strat_draws);
        assert_eq!(a.jobs[0].misses, seq.jobs[0].misses);
        assert_eq!(a.jobs[0].strat_misses, seq.jobs[0].strat_misses);
        // Identical counters ⇒ identical (bit-for-bit) interval bounds.
        let ea = a.estimates(0.95, CiMethod::Wilson);
        let es = seq.estimates(0.95, CiMethod::Wilson);
        assert_eq!(ea[0].lo.to_bits(), es[0].lo.to_bits());
        assert_eq!(ea[0].hi.to_bits(), es[0].hi.to_bits());
    }

    #[test]
    fn antithetic_pairs_shrink_or_match_plain_interval() {
        // Perfectly anticorrelated pairs: every pair has exactly one miss,
        // so the pair means are constant ½ and the variance collapses.
        let mut acc = WcdfpAccum::new(Mode::Antithetic, 1);
        for _ in 0..50 {
            acc.record_pair(&[true], &[false], &[false], &[false]);
        }
        let est = &acc.estimates(0.95, CiMethod::Wilson)[0];
        assert!((est.p - 0.5).abs() < 1e-12);
        // Degenerate variance falls back to Clopper–Pearson on the raw
        // counter — still a valid interval containing p.
        assert!(est.lo <= 0.5 && 0.5 <= est.hi);

        // Mixed pair outcomes: normal interval, narrower than the
        // independent-draw Wilson interval at the same count.
        let mut acc = WcdfpAccum::new(Mode::Antithetic, 1);
        for i in 0..200 {
            match i % 4 {
                0 => acc.record_pair(&[true], &[false], &[true], &[false]),
                1 | 2 => acc.record_pair(&[true], &[false], &[false], &[false]),
                _ => acc.record_pair(&[false], &[false], &[false], &[false]),
            }
        }
        let est = &acc.estimates(0.95, CiMethod::Wilson)[0];
        let (wlo, whi) = wilson(est.misses, est.draws, 0.95);
        assert!(est.lo <= est.p && est.p <= est.hi);
        assert!(est.hi - est.lo <= (whi - wlo) * 1.05);
    }

    #[test]
    fn stratified_estimate_weights_strata() {
        let mut acc = WcdfpAccum::new(Mode::Stratified(2), 1);
        // Stratum 0 always misses, stratum 1 never: p = 0.5 exactly, and
        // the within-stratum variance is zero ⇒ CP fallback, which still
        // contains p.
        for i in 0..100u32 {
            acc.record_draw(&[i % 2 == 0], &[false], Some(i % 2));
        }
        let est = &acc.estimates(0.95, CiMethod::Wilson)[0];
        assert!((est.p - 0.5).abs() < 1e-12);
        assert!(est.lo <= 0.5 && 0.5 <= est.hi);
    }

    #[test]
    fn stopping_rule_tests_half_width_and_threshold() {
        let narrow = JobEstimate {
            p: 0.01,
            lo: 0.005,
            hi: 0.015,
            misses: 10,
            draws: 1000,
        };
        let wide = JobEstimate {
            p: 0.3,
            lo: 0.2,
            hi: 0.4,
            misses: 30,
            draws: 100,
        };
        let stop = Stopping {
            tolerance: 0.01,
            confidence: 0.95,
            threshold: None,
        };
        assert!(stop.converged(&[narrow]));
        assert!(!stop.converged(&[narrow, wide]));
        // A threshold at 0.1 settles `wide` (whole interval above it).
        let stop = Stopping {
            threshold: Some(0.1),
            ..stop
        };
        assert!(stop.converged(&[narrow, wide]));
    }

    #[test]
    fn censored_draws_are_counted_separately() {
        let mut acc = WcdfpAccum::new(Mode::Plain, 1);
        acc.record_draw(&[false], &[true], None);
        acc.record_draw(&[true], &[true], None); // miss wins over censor
        assert_eq!(acc.jobs[0].censored, 1);
        assert_eq!(acc.jobs[0].misses, 1);
    }

    #[test]
    fn bounded_responses_count_tightness_in_ppm() {
        let mut a = WcdfpAccum::new(Mode::Plain, 1);
        let mut b = WcdfpAccum::new(Mode::Plain, 1);
        a.jobs[0].record_bounded(50, 100);
        a.jobs[0].record_bounded(100, 100);
        b.jobs[0].record_bounded(121, 100);
        b.jobs[0].record_bounded(1, 3);
        a.merge(&b);
        let j = &a.jobs[0];
        assert_eq!((j.bounded, j.violations), (4, 1));
        assert_eq!(j.ratio_ppm_sum, 500_000 + 1_000_000 + 1_210_000 + 333_333);
        assert_eq!(j.ratio_ppm_max, 1_210_000);
    }
}
