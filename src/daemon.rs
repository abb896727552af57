//! The resident admission daemon: tenant sharding over the analysis worker
//! pool plus the serve loops (stdin/stdout and unix socket).
//!
//! A [`ShardedService`] splits the tenant key space across `S` independent
//! [`AdmissionService`] shards by FNV-1a hash, one mutex per shard. All
//! requests for one tenant land on one shard — they serialize, which the
//! warm-session model requires — while requests for distinct tenants
//! proceed concurrently. Batches (requests between blank-line flushes on a
//! stream, or an explicit [`ShardedService::apply_batch`] call) are grouped
//! by shard and fanned across the same `pool_map` worker pool the analyses
//! use; responses always come back in request order.
//!
//! The serve loop never dies on bad input: any unparsable line or failed
//! request becomes an `ERR` response in-order, and the tenant sessions
//! stay intact ([`rta_core::service::AdmissionService`] rolls back rejected
//! or failed deltas).

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::{Arc, Mutex};

use rta_core::par::{pool_map, pool_threads};
use rta_core::service::{AdmissionService, LoadOutcome, ServiceConfig, ServiceError};
use rta_core::wcdfp::Stopping;
use rta_sim::wcdfp::{estimate_adaptive, estimate_fixed, DrawModel, WcdfpConfig};

use crate::proto::{Request, Response, WcdfpJobLine, WcdfpSpec};
use crate::textfmt::{parse_system, resolve_job, ParseError};

/// A fixed set of [`AdmissionService`] shards with stable tenant routing.
pub struct ShardedService {
    shards: Vec<Mutex<AdmissionService>>,
}

/// Render a [`ParseError`] on one line (protocol responses are line-oriented;
/// the CLI uses the multi-line `Display` form instead).
fn parse_err_line(e: &ParseError) -> String {
    if e.line == 0 {
        e.msg.clone()
    } else {
        format!("line {}: {} | {}", e.line, e.msg, e.text)
    }
}

impl ShardedService {
    /// Create a service with `shards` independent shards (≥ 1 enforced),
    /// each with its own tenant cap as given by `cfg`.
    pub fn new(cfg: ServiceConfig, shards: usize) -> ShardedService {
        let shards = shards.max(1);
        ShardedService {
            shards: (0..shards)
                .map(|_| Mutex::new(AdmissionService::new(cfg.clone())))
                .collect(),
        }
    }

    /// Create a service with one shard per worker-pool participant.
    pub fn with_pool_shards(cfg: ServiceConfig) -> ShardedService {
        ShardedService::new(cfg, pool_threads())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stable shard index of a tenant key (FNV-1a over the key bytes).
    pub fn shard_of(&self, tenant: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tenant.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Tenants resident across all shards.
    pub fn tenant_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().tenant_count())
            .sum()
    }

    /// Load (or replace) a tenant and return the full outcome, including
    /// the rendered report the wire protocol elides. This is the one-shot
    /// CLI's code path, so batch mode and the daemon share one
    /// parse→verdict→report pipeline.
    pub fn load_full(
        &self,
        tenant: &str,
        sys: rta_model::TaskSystem,
    ) -> Result<LoadOutcome, ServiceError> {
        self.shards[self.shard_of(tenant)]
            .lock()
            .unwrap()
            .load(tenant, sys)
    }

    /// Apply one request against its tenant's shard.
    pub fn apply(&self, req: &Request) -> Response {
        let Some(tenant) = req.tenant() else {
            return Response::Pong;
        };
        let shard = &self.shards[self.shard_of(tenant)];
        let mut svc = shard.lock().unwrap();
        match self.dispatch(&mut svc, req) {
            Ok(resp) => resp,
            Err(message) => Response::Err { message },
        }
    }

    fn dispatch(&self, svc: &mut AdmissionService, req: &Request) -> Result<Response, String> {
        let fail = |e: ServiceError| e.to_string();
        match req {
            Request::Ping => Ok(Response::Pong),
            Request::Load { tenant, system } => {
                let sys = parse_system(system).map_err(|e| parse_err_line(&e))?;
                let out = svc.load(tenant, sys).map_err(fail)?;
                Ok(Response::Loaded {
                    tenant: tenant.clone(),
                    generation: out.generation,
                    jobs: out.jobs,
                    schedulable: out.schedulable,
                    evicted: out.evicted,
                })
            }
            Request::Admit { tenant, job } => {
                let sys = svc
                    .tenant_system(tenant)
                    .ok_or_else(|| format!("unknown tenant '{tenant}'"))?;
                let resolved = resolve_job(sys, job)?;
                let out = svc.admit(tenant, resolved).map_err(fail)?;
                Ok(Response::Admitted {
                    tenant: tenant.clone(),
                    generation: out.generation,
                    job: job.name.clone(),
                    admitted: out.verdict.admitted(),
                    jobs: out.jobs,
                })
            }
            Request::Remove { tenant, job } => {
                let out = svc.remove(tenant, job).map_err(fail)?;
                Ok(Response::Removed {
                    tenant: tenant.clone(),
                    generation: out.generation,
                    job: job.clone(),
                    jobs: out.jobs,
                })
            }
            Request::Scale { tenant, factor } => {
                let out = svc.scale(tenant, *factor).map_err(fail)?;
                Ok(Response::Scaled {
                    tenant: tenant.clone(),
                    generation: out.generation,
                    factor: *factor,
                    schedulable: out.schedulable.unwrap_or(false),
                })
            }
            Request::Region {
                tenant,
                scale_lo,
                scale_hi,
                scale_steps,
                burst_lo,
                burst_hi,
                burst_steps,
            } => {
                let report = svc
                    .region(
                        tenant,
                        (*scale_lo, *scale_hi, *scale_steps),
                        (*burst_lo, *burst_hi, *burst_steps),
                    )
                    .map_err(fail)?;
                Ok(Response::RegionMap {
                    tenant: tenant.clone(),
                    scales: report.scales.clone(),
                    rows: report
                        .rows
                        .iter()
                        .map(|r| (r.burst_len, r.frontier))
                        .collect(),
                })
            }
            Request::Stats { tenant } => {
                let stats = svc.stats(tenant).map_err(fail)?;
                Ok(Response::Stats {
                    tenant: tenant.clone(),
                    generation: stats.generation,
                    jobs: stats.jobs,
                    analyses: stats.session.analyses,
                    recomputed: stats.session.subjobs_recomputed,
                    reused: stats.session.subjobs_reused,
                    verdict_hits: stats.session.verdict_hits,
                    verdict_misses: stats.session.verdict_misses,
                    warm_starts: stats.session.warm_starts,
                    interned: stats.interned_curves,
                    tenants: svc.tenant_count(),
                })
            }
            Request::Wcdfp { tenant, spec } => {
                let sys = svc
                    .tenant_system(tenant)
                    .ok_or_else(|| format!("unknown tenant '{tenant}'"))?;
                let model = DrawModel::arrivals(sys.clone()).map_err(|e| e.to_string())?;
                // The verdict-only configuration: the admission path wants
                // miss probabilities and intervals, not response histograms.
                let base = |seed: u64| WcdfpConfig {
                    base_seed: seed,
                    sketches: false,
                    ..WcdfpConfig::default()
                };
                let rep = match *spec {
                    WcdfpSpec::Fixed { draws, seed } => {
                        if draws == 0 {
                            return Err("WCDFP needs at least one draw".into());
                        }
                        estimate_fixed(&model, &base(seed), draws)
                    }
                    WcdfpSpec::Adaptive {
                        tolerance,
                        max_draws,
                        seed,
                    } => {
                        if !tolerance.is_finite() || tolerance <= 0.0 {
                            return Err("WCDFP tolerance must be positive".into());
                        }
                        if max_draws == 0 {
                            return Err("WCDFP needs at least one draw".into());
                        }
                        let stop = Stopping {
                            tolerance,
                            confidence: 0.95,
                            threshold: None,
                        };
                        estimate_adaptive(&model, &base(seed), &stop, max_draws)
                    }
                };
                Ok(Response::Wcdfp {
                    tenant: tenant.clone(),
                    draws: rep.draws,
                    converged: rep.converged,
                    jobs: rep
                        .names
                        .iter()
                        .zip(&rep.estimates)
                        .map(|(name, e)| WcdfpJobLine {
                            name: name.clone(),
                            p: e.p,
                            lo: e.lo,
                            hi: e.hi,
                        })
                        .collect(),
                })
            }
            Request::Evict { tenant } => Ok(Response::Evicted {
                tenant: tenant.clone(),
                existed: svc.evict(tenant),
            }),
        }
    }

    /// Apply a batch, fanning shard groups across the worker pool. Requests
    /// for one tenant keep their relative order (they live in one shard
    /// group, applied sequentially); the response vector is in request
    /// order.
    pub fn apply_batch(self: &Arc<Self>, reqs: Vec<Request>) -> Vec<Response> {
        let n = reqs.len();
        if n <= 1 || self.shards.len() == 1 {
            return reqs.iter().map(|r| self.apply(r)).collect();
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, r) in reqs.iter().enumerate() {
            groups[r.tenant().map_or(0, |t| self.shard_of(t))].push(i);
        }
        let groups: Arc<Vec<Vec<usize>>> =
            Arc::new(groups.into_iter().filter(|g| !g.is_empty()).collect());
        let svc = Arc::clone(self);
        let reqs = Arc::new(reqs);
        let (g, r) = (Arc::clone(&groups), Arc::clone(&reqs));
        let grouped: Vec<Vec<(usize, Response)>> = pool_map(groups.len(), move |gi| {
            g[gi].iter().map(|&i| (i, svc.apply(&r[i]))).collect()
        });
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        for group in grouped {
            for (i, resp) in group {
                out[i] = Some(resp);
            }
        }
        out.into_iter().flatten().collect()
    }
}

/// One pending slot of the serve loop's current batch: either a parsed
/// request or the error its line produced (answered in order as `ERR`).
type Slot = Result<Request, String>;

fn flush_batch<W: Write>(
    svc: &Arc<ShardedService>,
    batch: &mut Vec<Slot>,
    out: &mut W,
) -> io::Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let reqs: Vec<Request> = batch
        .iter()
        .filter_map(|s| s.as_ref().ok().cloned())
        .collect();
    let mut responses = svc.apply_batch(reqs).into_iter();
    for slot in batch.drain(..) {
        match slot {
            Ok(_) => match responses.next() {
                Some(resp) => writeln!(out, "{resp}")?,
                None => writeln!(out, "ERR internal: missing response")?,
            },
            Err(message) => writeln!(out, "ERR {message}")?,
        }
    }
    out.flush()
}

/// The longest line, request head or `LOAD` payload line, that [`serve`]
/// accepts: bytes before the newline. A longer line is answered in order
/// with `ERR line too long …` and the rest of it is read and discarded, so
/// no single line grows the daemon's memory without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The most requests [`serve`] collects into one batch: a batch this long
/// is flushed on its own, without waiting for a blank line.
pub const MAX_BATCH_REQUESTS: usize = 1024;

/// The most `LOAD` payload bytes [`serve`] buffers in one batch: a batch
/// whose payloads pass this is flushed on its own, as at
/// [`MAX_BATCH_REQUESTS`], so a batch holds at most this plus one
/// [`crate::proto::MAX_LOAD_BYTES`] payload.
pub const MAX_BATCH_BYTES: usize = 32 << 20;

/// Read one line into `buf`, newline excluded, keeping at most
/// [`MAX_LINE_BYTES`] of it. `None` at EOF; otherwise the line's text, or
/// the `ERR` message of a line the protocol refuses (too long, or not
/// UTF-8).
fn read_line_capped<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let (mut read_any, mut too_long) = (false, false);
    loop {
        let avail = match input.fill_buf() {
            Ok(a) => a,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if avail.is_empty() {
            break;
        }
        read_any = true;
        let (line, used, done) = match avail.iter().position(|&b| b == b'\n') {
            Some(i) => (&avail[..i], i + 1, true),
            None => (avail, avail.len(), false),
        };
        let keep = line.len().min(MAX_LINE_BYTES - buf.len());
        too_long |= keep < line.len();
        buf.extend_from_slice(&line[..keep]);
        input.consume(used);
        if done {
            break;
        }
    }
    if !read_any {
        return Ok(None);
    }
    if too_long {
        return Ok(Some(Err(format!(
            "line too long (over {MAX_LINE_BYTES} bytes)"
        ))));
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|_| "line is not valid UTF-8".to_string()),
    ))
}

/// Serve the line protocol on an arbitrary reader/writer pair until EOF or
/// `QUIT`. Blank lines flush the current batch through the worker pool, as
/// does a batch of [`MAX_BATCH_REQUESTS`] or of [`MAX_BATCH_BYTES`] payload
/// bytes; malformed or over-long lines answer `ERR` in order and never tear
/// the loop down.
pub fn serve<R: BufRead, W: Write>(
    svc: &Arc<ShardedService>,
    mut input: R,
    output: &mut W,
) -> io::Result<()> {
    let mut batch: Vec<Slot> = Vec::new();
    let mut batch_bytes = 0;
    let (mut head_buf, mut payload_buf) = (Vec::new(), Vec::new());
    loop {
        let slot = match read_line_capped(&mut input, &mut head_buf)? {
            None => break,
            Some(Err(message)) => Err(message),
            Some(Ok(line)) => {
                let head = line.trim();
                if head.is_empty() {
                    flush_batch(svc, &mut batch, output)?;
                    batch_bytes = 0;
                    continue;
                }
                if head == "QUIT" {
                    break;
                }
                // A refused payload line still counts toward the payload,
                // so the request keeps its framing and fails as a whole.
                let mut refused = None;
                let req = Request::parse(head, || {
                    match read_line_capped(&mut input, &mut payload_buf) {
                        Ok(None) | Err(_) => None,
                        Ok(Some(Ok(text))) => Some(text.trim_end_matches('\r').to_string()),
                        Ok(Some(Err(message))) => {
                            refused.get_or_insert(message);
                            Some(String::new())
                        }
                    }
                });
                refused.map_or(req, Err)
            }
        };
        if let Ok(Request::Load { system, .. }) = &slot {
            batch_bytes += system.len();
        }
        batch.push(slot);
        if batch.len() >= MAX_BATCH_REQUESTS || batch_bytes > MAX_BATCH_BYTES {
            flush_batch(svc, &mut batch, output)?;
            batch_bytes = 0;
        }
    }
    flush_batch(svc, &mut batch, output)
}

/// Serve on a unix socket, one thread per connection (connections share the
/// shard set, so cross-connection tenant routing stays consistent). Removes
/// any stale socket file first. Runs until the process is killed.
pub fn serve_unix(svc: Arc<ShardedService>, path: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let mut writer = BufWriter::new(stream);
            let _ = serve(&svc, BufReader::new(read_half), &mut writer);
        });
    }
    Ok(())
}
