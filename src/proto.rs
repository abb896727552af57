//! The line-oriented wire protocol of the admission daemon.
//!
//! Requests, one per line (except `LOAD`, whose header announces how many
//! payload lines follow):
//!
//! ```text
//! LOAD <tenant> <nlines>          # + nlines of system description
//! ADMIT <tenant> job <name> deadline <d> <arrival> [hop <proc> <exec> …]…
//! REMOVE <tenant> <job>
//! SCALE <tenant> <factor>
//! REGION <tenant> <scale-lo> <scale-hi> <scale-steps> <burst-lo> <burst-hi> <burst-steps>
//! STATS <tenant>
//! WCDFP <tenant> fixed <draws> <seed>
//! WCDFP <tenant> adaptive <tolerance> <max-draws> <seed>
//! EVICT <tenant>
//! PING
//! QUIT
//! ```
//!
//! Responses, exactly one line per request, in request order:
//!
//! ```text
//! OK LOAD <tenant> gen=<g> jobs=<n> verdict=<schedulable|unschedulable> [evicted=<tenant>]
//! OK ADMIT <tenant> gen=<g> job=<name> verdict=<admitted|rejected> jobs=<n>
//! OK REMOVE <tenant> gen=<g> job=<name> jobs=<n>
//! OK SCALE <tenant> gen=<g> factor=<f> verdict=<schedulable|unschedulable>
//! OK REGION <tenant> scales=<s1,s2,…> rows=<burst>:<frontier|->;…
//! OK STATS <tenant> gen=<g> jobs=<n> analyses=<a> recomputed=<r> reused=<u> \
//!          verdict_hits=<h> verdict_misses=<m> warm_starts=<w> interned=<c> tenants=<t>
//! OK WCDFP <tenant> draws=<n> converged=<true|false> jobs=<name>:<p>:<lo>:<hi>;…
//! OK EVICT <tenant> existed=<true|false>
//! PONG
//! ERR <message>
//! ```
//!
//! Both directions are typed here ([`Request`], [`Response`]) with
//! `Display` ↔ `parse` inverses, so the property tests can round-trip every
//! form. Floats travel as Rust's shortest-representation `Display`, which
//! `f64::from_str` inverts exactly.

use std::fmt;

use crate::textfmt::{format_job_draft, parse_job_draft, JobDraft};

/// A parsed request line (plus `LOAD` payload).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Replace (or create) a tenant from a full system description.
    Load {
        /// Tenant key.
        tenant: String,
        /// System description text (no trailing newline).
        system: String,
    },
    /// Trial-admit one job into a warm tenant.
    Admit {
        /// Tenant key.
        tenant: String,
        /// The candidate job spec.
        job: JobDraft,
    },
    /// Remove a resident job by name.
    Remove {
        /// Tenant key.
        tenant: String,
        /// Job name.
        job: String,
    },
    /// Scale every execution demand to `factor ×` the loaded baseline.
    Scale {
        /// Tenant key.
        tenant: String,
        /// Absolute scale factor (relative to the loaded system).
        factor: f64,
    },
    /// Explore the (exec-scale × burst-length) schedulability region.
    Region {
        /// Tenant key.
        tenant: String,
        /// Lowest exec scale.
        scale_lo: f64,
        /// Highest exec scale.
        scale_hi: f64,
        /// Number of scale grid points.
        scale_steps: usize,
        /// Lowest burst length.
        burst_lo: u32,
        /// Highest burst length.
        burst_hi: u32,
        /// Number of burst grid points.
        burst_steps: usize,
    },
    /// Report a tenant's generation and reuse counters.
    Stats {
        /// Tenant key.
        tenant: String,
    },
    /// Estimate per-job deadline-failure probability by Monte-Carlo.
    Wcdfp {
        /// Tenant key.
        tenant: String,
        /// Draw-budget shape (fixed-N or adaptive-to-tolerance).
        spec: WcdfpSpec,
    },
    /// Drop a tenant's warm session.
    Evict {
        /// Tenant key.
        tenant: String,
    },
    /// Liveness probe.
    Ping,
}

/// How a `WCDFP` request sizes its draw budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WcdfpSpec {
    /// Exactly `draws` draws.
    Fixed {
        /// Draw count.
        draws: u64,
        /// Base seed (draw `i` derives from `seed + i`).
        seed: u64,
    },
    /// Rounds of draws until every job's CI half-width is ≤ `tolerance`,
    /// capped at `max_draws`.
    Adaptive {
        /// Target half-width of the per-job confidence intervals.
        tolerance: f64,
        /// Hard draw budget.
        max_draws: u64,
        /// Base seed (draw `i` derives from `seed + i`).
        seed: u64,
    },
}

/// One job's estimate in an `OK WCDFP` response: name, point estimate,
/// and confidence bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct WcdfpJobLine {
    /// Job name.
    pub name: String,
    /// Point estimate of the miss probability.
    pub p: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
}

/// A response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `OK LOAD …`
    Loaded {
        /// Tenant key.
        tenant: String,
        /// Generation stamped on the load.
        generation: u64,
        /// Resident job count.
        jobs: usize,
        /// Whole-system verdict at load time.
        schedulable: bool,
        /// Tenant evicted to make room, if any.
        evicted: Option<String>,
    },
    /// `OK ADMIT …`
    Admitted {
        /// Tenant key.
        tenant: String,
        /// Generation stamped on the attempt.
        generation: u64,
        /// Candidate job name.
        job: String,
        /// Whether the job was kept.
        admitted: bool,
        /// Resident job count after the verdict.
        jobs: usize,
    },
    /// `OK REMOVE …`
    Removed {
        /// Tenant key.
        tenant: String,
        /// Generation stamped on the removal.
        generation: u64,
        /// Removed job name.
        job: String,
        /// Resident job count after removal.
        jobs: usize,
    },
    /// `OK SCALE …`
    Scaled {
        /// Tenant key.
        tenant: String,
        /// Generation stamped on the scaling.
        generation: u64,
        /// The applied factor.
        factor: f64,
        /// Whole-system verdict at the new scale.
        schedulable: bool,
    },
    /// `OK REGION …`
    RegionMap {
        /// Tenant key.
        tenant: String,
        /// Exec-scale grid.
        scales: Vec<f64>,
        /// Per-burst-length rows: `(burst_len, critical-scale frontier)`.
        rows: Vec<(u32, Option<f64>)>,
    },
    /// `OK STATS …`
    Stats {
        /// Tenant key.
        tenant: String,
        /// Latest generation.
        generation: u64,
        /// Resident job count.
        jobs: usize,
        /// Analyses run (excludes memoized verdicts).
        analyses: u64,
        /// Subjobs recomputed: exact-path nodes inside dirty cones and
        /// fixed-point subjobs on processors a delta touched.
        recomputed: u64,
        /// Subjobs reused from the warm exact-path cache or the fixed
        /// point's per-processor memo.
        reused: u64,
        /// Verdicts answered from the memo table.
        verdict_hits: u64,
        /// Verdicts that required an analysis.
        verdict_misses: u64,
        /// Analyses warm-started from a carried iterate: 0, since no
        /// driver carries one (the loops fixpoint counts its reuse in
        /// `recomputed`/`reused`).
        warm_starts: u64,
        /// First-hop arrival curves the tenant's session holds, at most
        /// one per job.
        interned: usize,
        /// Tenants resident on this tenant's shard.
        tenants: usize,
    },
    /// `OK WCDFP …`
    Wcdfp {
        /// Tenant key.
        tenant: String,
        /// Draws actually simulated.
        draws: u64,
        /// Whether the adaptive stopping rule was met (`true` for fixed runs).
        converged: bool,
        /// Per-job estimates, in job order.
        jobs: Vec<WcdfpJobLine>,
    },
    /// `OK EVICT …`
    Evicted {
        /// Tenant key.
        tenant: String,
        /// Whether the tenant existed.
        existed: bool,
    },
    /// `PONG`
    Pong,
    /// `ERR <message>` — the request failed; the tenant session is intact.
    Err {
        /// Human-readable failure description.
        message: String,
    },
}

fn word(it: &mut std::str::SplitWhitespace, what: &str) -> Result<String, String> {
    it.next()
        .map(str::to_string)
        .ok_or_else(|| format!("missing {what}"))
}

fn num<T: std::str::FromStr>(it: &mut std::str::SplitWhitespace, what: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    word(it, what)?
        .parse()
        .map_err(|e| format!("bad {what}: {e}"))
}

/// The most bytes a `LOAD` payload may hold, the newlines between its
/// lines included. A larger payload is still read to its announced line
/// count, so the stream keeps its framing, but nothing past this budget is
/// stored, and the request answers `ERR LOAD payload too large (over N
/// bytes)`. The largest payload in the tests, the examples and `perfbench`
/// is 685 bytes (a `perfbench` `fig_sweep` tenant), apart from the one
/// test that exceeds this budget on purpose.
pub const MAX_LOAD_BYTES: usize = 4 << 20;

impl Request {
    /// Parse a request from its first line; `LOAD` payload lines are pulled
    /// from `next_line` (return `None` on EOF, which is an error mid-payload).
    pub fn parse(
        first: &str,
        mut next_line: impl FnMut() -> Option<String>,
    ) -> Result<Request, String> {
        let mut it = first.split_whitespace();
        match it.next() {
            Some("LOAD") => {
                let tenant = word(&mut it, "tenant")?;
                let nlines: usize = num(&mut it, "line count")?;
                if nlines > 100_000 {
                    return Err("LOAD payload too large".into());
                }
                let mut system = String::new();
                let mut over = false;
                for i in 0..nlines {
                    let line = next_line()
                        .ok_or_else(|| format!("LOAD payload truncated at line {}", i + 1))?;
                    if over {
                        continue;
                    }
                    if i > 0 {
                        system.push('\n');
                    }
                    system.push_str(&line);
                    if system.len() > MAX_LOAD_BYTES {
                        over = true;
                        system = String::new();
                    }
                }
                if over {
                    return Err(format!(
                        "LOAD payload too large (over {MAX_LOAD_BYTES} bytes)"
                    ));
                }
                Ok(Request::Load { tenant, system })
            }
            Some("ADMIT") => {
                let tenant = word(&mut it, "tenant")?;
                match it.next() {
                    Some("job") => {}
                    other => return Err(format!("expected 'job', got {other:?}")),
                }
                let mut toks = it.peekable();
                let job = parse_job_draft(&mut toks)?;
                Ok(Request::Admit { tenant, job })
            }
            Some("REMOVE") => Ok(Request::Remove {
                tenant: word(&mut it, "tenant")?,
                job: word(&mut it, "job name")?,
            }),
            Some("SCALE") => Ok(Request::Scale {
                tenant: word(&mut it, "tenant")?,
                factor: num(&mut it, "factor")?,
            }),
            Some("REGION") => Ok(Request::Region {
                tenant: word(&mut it, "tenant")?,
                scale_lo: num(&mut it, "scale-lo")?,
                scale_hi: num(&mut it, "scale-hi")?,
                scale_steps: num(&mut it, "scale-steps")?,
                burst_lo: num(&mut it, "burst-lo")?,
                burst_hi: num(&mut it, "burst-hi")?,
                burst_steps: num(&mut it, "burst-steps")?,
            }),
            Some("STATS") => Ok(Request::Stats {
                tenant: word(&mut it, "tenant")?,
            }),
            Some("WCDFP") => {
                let tenant = word(&mut it, "tenant")?;
                let spec = match word(&mut it, "mode")?.as_str() {
                    "fixed" => WcdfpSpec::Fixed {
                        draws: num(&mut it, "draws")?,
                        seed: num(&mut it, "seed")?,
                    },
                    "adaptive" => WcdfpSpec::Adaptive {
                        tolerance: num(&mut it, "tolerance")?,
                        max_draws: num(&mut it, "max-draws")?,
                        seed: num(&mut it, "seed")?,
                    },
                    other => return Err(format!("bad WCDFP mode '{other}'")),
                };
                Ok(Request::Wcdfp { tenant, spec })
            }
            Some("EVICT") => Ok(Request::Evict {
                tenant: word(&mut it, "tenant")?,
            }),
            Some("PING") => Ok(Request::Ping),
            Some(other) => Err(format!("unknown request '{other}'")),
            None => Err("empty request".into()),
        }
    }

    /// The tenant this request serializes on, if any (`PING` has none).
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Load { tenant, .. }
            | Request::Admit { tenant, .. }
            | Request::Remove { tenant, .. }
            | Request::Scale { tenant, .. }
            | Request::Region { tenant, .. }
            | Request::Stats { tenant }
            | Request::Wcdfp { tenant, .. }
            | Request::Evict { tenant } => Some(tenant),
            Request::Ping => None,
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Load { tenant, system } => {
                let nlines = if system.is_empty() {
                    0
                } else {
                    system.lines().count()
                };
                write!(f, "LOAD {tenant} {nlines}")?;
                for line in system.lines() {
                    write!(f, "\n{line}")?;
                }
                Ok(())
            }
            Request::Admit { tenant, job } => {
                write!(f, "ADMIT {tenant} job {}", format_job_draft(job))
            }
            Request::Remove { tenant, job } => write!(f, "REMOVE {tenant} {job}"),
            Request::Scale { tenant, factor } => write!(f, "SCALE {tenant} {factor}"),
            Request::Region {
                tenant,
                scale_lo,
                scale_hi,
                scale_steps,
                burst_lo,
                burst_hi,
                burst_steps,
            } => write!(
                f,
                "REGION {tenant} {scale_lo} {scale_hi} {scale_steps} {burst_lo} {burst_hi} {burst_steps}"
            ),
            Request::Stats { tenant } => write!(f, "STATS {tenant}"),
            Request::Wcdfp { tenant, spec } => match spec {
                WcdfpSpec::Fixed { draws, seed } => {
                    write!(f, "WCDFP {tenant} fixed {draws} {seed}")
                }
                WcdfpSpec::Adaptive {
                    tolerance,
                    max_draws,
                    seed,
                } => write!(f, "WCDFP {tenant} adaptive {tolerance} {max_draws} {seed}"),
            },
            Request::Evict { tenant } => write!(f, "EVICT {tenant}"),
            Request::Ping => write!(f, "PING"),
        }
    }
}

fn verdict_word(schedulable: bool) -> &'static str {
    if schedulable {
        "schedulable"
    } else {
        "unschedulable"
    }
}

fn kv<'a>(tok: &'a str, key: &str) -> Result<&'a str, String> {
    let (k, v) = tok
        .split_once('=')
        .ok_or_else(|| format!("expected {key}=…, got '{tok}'"))?;
    if k != key {
        return Err(format!("expected {key}=…, got '{tok}'"));
    }
    Ok(v)
}

fn kv_num<T: std::str::FromStr>(it: &mut std::str::SplitWhitespace, key: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    kv(it.next().ok_or_else(|| format!("missing {key}="))?, key)?
        .parse()
        .map_err(|e| format!("bad {key}: {e}"))
}

fn kv_verdict(it: &mut std::str::SplitWhitespace, yes: &str, no: &str) -> Result<bool, String> {
    let v = kv(it.next().ok_or("missing verdict=")?, "verdict")?;
    if v == yes {
        Ok(true)
    } else if v == no {
        Ok(false)
    } else {
        Err(format!("bad verdict '{v}'"))
    }
}

impl Response {
    /// Parse a response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("PONG") => Ok(Response::Pong),
            Some("ERR") => Ok(Response::Err {
                message: line.trim_start()["ERR".len()..].trim().to_string(),
            }),
            Some("OK") => Response::parse_ok(&mut it),
            other => Err(format!("bad response start {other:?}")),
        }
    }

    fn parse_ok(it: &mut std::str::SplitWhitespace) -> Result<Response, String> {
        let op = word(it, "op")?;
        let tenant = word(it, "tenant")?;
        match op.as_str() {
            "LOAD" => {
                let generation = kv_num(it, "gen")?;
                let jobs = kv_num(it, "jobs")?;
                let schedulable = kv_verdict(it, "schedulable", "unschedulable")?;
                let evicted = match it.next() {
                    Some(tok) => Some(kv(tok, "evicted")?.to_string()),
                    None => None,
                };
                Ok(Response::Loaded {
                    tenant,
                    generation,
                    jobs,
                    schedulable,
                    evicted,
                })
            }
            "ADMIT" => Ok(Response::Admitted {
                tenant,
                generation: kv_num(it, "gen")?,
                job: kv(it.next().ok_or("missing job=")?, "job")?.to_string(),
                admitted: kv_verdict(it, "admitted", "rejected")?,
                jobs: kv_num(it, "jobs")?,
            }),
            "REMOVE" => Ok(Response::Removed {
                tenant,
                generation: kv_num(it, "gen")?,
                job: kv(it.next().ok_or("missing job=")?, "job")?.to_string(),
                jobs: kv_num(it, "jobs")?,
            }),
            "SCALE" => Ok(Response::Scaled {
                tenant,
                generation: kv_num(it, "gen")?,
                factor: kv_num(it, "factor")?,
                schedulable: kv_verdict(it, "schedulable", "unschedulable")?,
            }),
            "REGION" => {
                let scales_str = kv(it.next().ok_or("missing scales=")?, "scales")?;
                let mut scales = Vec::new();
                if !scales_str.is_empty() {
                    for s in scales_str.split(',') {
                        scales.push(s.parse::<f64>().map_err(|e| format!("bad scale: {e}"))?);
                    }
                }
                let rows_str = kv(it.next().ok_or("missing rows=")?, "rows")?;
                let mut rows = Vec::new();
                if !rows_str.is_empty() {
                    for r in rows_str.split(';') {
                        let (b, fr) = r
                            .split_once(':')
                            .ok_or_else(|| format!("bad region row '{r}'"))?;
                        let burst = b.parse::<u32>().map_err(|e| format!("bad burst: {e}"))?;
                        let frontier = if fr == "-" {
                            None
                        } else {
                            Some(
                                fr.parse::<f64>()
                                    .map_err(|e| format!("bad frontier: {e}"))?,
                            )
                        };
                        rows.push((burst, frontier));
                    }
                }
                Ok(Response::RegionMap {
                    tenant,
                    scales,
                    rows,
                })
            }
            "STATS" => Ok(Response::Stats {
                tenant,
                generation: kv_num(it, "gen")?,
                jobs: kv_num(it, "jobs")?,
                analyses: kv_num(it, "analyses")?,
                recomputed: kv_num(it, "recomputed")?,
                reused: kv_num(it, "reused")?,
                verdict_hits: kv_num(it, "verdict_hits")?,
                verdict_misses: kv_num(it, "verdict_misses")?,
                warm_starts: kv_num(it, "warm_starts")?,
                interned: kv_num(it, "interned")?,
                tenants: kv_num(it, "tenants")?,
            }),
            "WCDFP" => {
                let draws = kv_num(it, "draws")?;
                let converged = kv_num(it, "converged")?;
                let jobs_str = kv(it.next().ok_or("missing jobs=")?, "jobs")?;
                let mut jobs = Vec::new();
                if !jobs_str.is_empty() {
                    for j in jobs_str.split(';') {
                        let mut parts = j.split(':');
                        let name = parts
                            .next()
                            .filter(|s| !s.is_empty())
                            .ok_or_else(|| format!("bad wcdfp job '{j}'"))?
                            .to_string();
                        let mut f64_part = |what: &str| -> Result<f64, String> {
                            parts
                                .next()
                                .ok_or_else(|| format!("missing {what} in '{j}'"))?
                                .parse()
                                .map_err(|e| format!("bad {what}: {e}"))
                        };
                        let p = f64_part("p")?;
                        let lo = f64_part("lo")?;
                        let hi = f64_part("hi")?;
                        if parts.next().is_some() {
                            return Err(format!("trailing fields in wcdfp job '{j}'"));
                        }
                        jobs.push(WcdfpJobLine { name, p, lo, hi });
                    }
                }
                Ok(Response::Wcdfp {
                    tenant,
                    draws,
                    converged,
                    jobs,
                })
            }
            "EVICT" => Ok(Response::Evicted {
                tenant,
                existed: kv_num(it, "existed")?,
            }),
            other => Err(format!("unknown OK op '{other}'")),
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Loaded {
                tenant,
                generation,
                jobs,
                schedulable,
                evicted,
            } => {
                write!(
                    f,
                    "OK LOAD {tenant} gen={generation} jobs={jobs} verdict={}",
                    verdict_word(*schedulable)
                )?;
                if let Some(e) = evicted {
                    write!(f, " evicted={e}")?;
                }
                Ok(())
            }
            Response::Admitted {
                tenant,
                generation,
                job,
                admitted,
                jobs,
            } => write!(
                f,
                "OK ADMIT {tenant} gen={generation} job={job} verdict={} jobs={jobs}",
                if *admitted { "admitted" } else { "rejected" }
            ),
            Response::Removed {
                tenant,
                generation,
                job,
                jobs,
            } => write!(
                f,
                "OK REMOVE {tenant} gen={generation} job={job} jobs={jobs}"
            ),
            Response::Scaled {
                tenant,
                generation,
                factor,
                schedulable,
            } => write!(
                f,
                "OK SCALE {tenant} gen={generation} factor={factor} verdict={}",
                verdict_word(*schedulable)
            ),
            Response::RegionMap {
                tenant,
                scales,
                rows,
            } => {
                write!(f, "OK REGION {tenant} scales=")?;
                for (i, s) in scales.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, " rows=")?;
                for (i, (burst, frontier)) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    match frontier {
                        Some(x) => write!(f, "{burst}:{x}")?,
                        None => write!(f, "{burst}:-")?,
                    }
                }
                Ok(())
            }
            Response::Stats {
                tenant,
                generation,
                jobs,
                analyses,
                recomputed,
                reused,
                verdict_hits,
                verdict_misses,
                warm_starts,
                interned,
                tenants,
            } => write!(
                f,
                "OK STATS {tenant} gen={generation} jobs={jobs} analyses={analyses} \
                 recomputed={recomputed} reused={reused} verdict_hits={verdict_hits} \
                 verdict_misses={verdict_misses} warm_starts={warm_starts} \
                 interned={interned} tenants={tenants}"
            ),
            Response::Wcdfp {
                tenant,
                draws,
                converged,
                jobs,
            } => {
                write!(
                    f,
                    "OK WCDFP {tenant} draws={draws} converged={converged} jobs="
                )?;
                for (i, j) in jobs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{}:{}:{}:{}", j.name, j.p, j.lo, j.hi)?;
                }
                Ok(())
            }
            Response::Evicted { tenant, existed } => {
                write!(f, "OK EVICT {tenant} existed={existed}")
            }
            Response::Pong => write!(f, "PONG"),
            Response::Err { message } => write!(f, "ERR {message}"),
        }
    }
}
