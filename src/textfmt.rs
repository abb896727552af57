//! The plain-text system-description format shared by the `rta-admit`
//! one-shot CLI, the daemon's `LOAD` payloads, and the `ADMIT` wire
//! grammar.
//!
//! One directive per line, `#` starts a comment:
//!
//! ```text
//! processor <name> <spp|spnp|fcfs|iwrr>
//! job <name> deadline <ticks> <arrival>
//! hop <processor> <exec-ticks> [prio <p>] [weight <w>]
//! ```
//!
//! Arrival forms:
//!
//! ```text
//! periodic <period> <offset>
//! jitter <period> <jitter> <offset>
//! bursty <x-thousandths> <ticks-per-unit>      # Eq. 27 hyperbolic stream
//! burst <len> <intra-gap> <train-period> <offset>
//! sporadic <min-gap>
//! trace <t1> <t2> …
//! ```
//!
//! `hop` lines belong to the preceding `job`; a job line may also carry its
//! hops inline (the `ADMIT` protocol form). Priorities are assigned by the
//! relative-deadline-monotonic rule (Eq. 24 of the paper) unless any hop
//! carries an explicit `prio`, in which case the file's priorities are
//! taken as given.
//!
//! Parse failures are located: [`ParseError`] carries the 1-based line
//! number and the offending line text, so callers can render
//! `path:line: message` diagnostics instead of a bare error.

use std::collections::HashMap;
use std::iter::Peekable;
use std::str::SplitWhitespace;

use rta_core::fixpoint::analyze_with_loops;
use rta_core::{analyze_bounds, analyze_exact_spp, AnalysisConfig, AnalysisError};
use rta_curves::Time;
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{
    ArrivalPattern, Job, ProcessorId, SchedulerKind, Subjob, SystemBuilder, TaskSystem,
};

/// An annotated example file (printed by `rta-admit --example`).
pub const EXAMPLE: &str = "\
# Two-stage pipeline with cross traffic and a bursty telemetry train.
processor P1 spp
processor P2 fcfs

job video deadline 3000 periodic 2000 0
hop P1 500
hop P2 600

job alarms deadline 4000 bursty 600 1000
hop P2 400

job telemetry deadline 6000 burst 3 50 3000 0
hop P2 100

job batch deadline 8000 trace 0 100 4000
hop P1 900
";

/// A located parse failure: 1-based line number (0 when the failure is not
/// tied to one line), the offending line's text, and the message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number, or 0 for whole-input failures.
    pub line: usize,
    /// The offending line, comment-stripped and trimmed (empty when
    /// `line == 0`).
    pub text: String,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}\n    | {}", self.line, self.msg, self.text)
        }
    }
}

impl std::error::Error for ParseError {}

/// One hop of a job spec before processor-name resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopSpec {
    /// Processor name (resolved against the target system).
    pub processor: String,
    /// Execution demand in ticks.
    pub exec: i64,
    /// Explicit priority, if any (`prio <p>`).
    pub priority: Option<u32>,
    /// Explicit round-robin weight, if any (`weight <w>`).
    pub weight: Option<u32>,
}

/// A job spec before processor-name resolution: the `job …` grammar shared
/// by description files and `ADMIT` protocol lines.
#[derive(Clone, Debug, PartialEq)]
pub struct JobDraft {
    /// Job name (the protocol's stable handle for removal).
    pub name: String,
    /// End-to-end deadline in ticks.
    pub deadline: i64,
    /// Arrival pattern of the first hop.
    pub arrival: ArrivalPattern,
    /// The chain, in hop order.
    pub hops: Vec<HopSpec>,
}

type Tokens<'a> = Peekable<SplitWhitespace<'a>>;

fn int(tok: Option<&str>, what: &str) -> Result<i64, String> {
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse::<i64>()
        .map_err(|e| format!("bad {what}: {e}"))
}

/// An integer of at least `min`: arrival parameters outside their domain
/// would panic or never terminate in release generation.
fn int_min(tok: Option<&str>, what: &str, min: i64) -> Result<i64, String> {
    let v = int(tok, what)?;
    if v < min {
        return Err(format!("bad {what}: must be at least {min}, got {v}"));
    }
    Ok(v)
}

fn uint(tok: Option<&str>, what: &str) -> Result<u32, String> {
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse::<u32>()
        .map_err(|e| format!("bad {what}: {e}"))
}

/// Parse an arrival pattern from its leading keyword onward. Periods,
/// gaps, burst lengths and tick resolutions must be at least 1; offsets,
/// jitter, intra-burst gaps and trace times at least 0; bursts must not
/// overlap.
pub fn parse_arrival(it: &mut Tokens) -> Result<ArrivalPattern, String> {
    match it.next() {
        Some("periodic") => Ok(ArrivalPattern::Periodic {
            period: Time(int_min(it.next(), "period", 1)?),
            offset: Time(int_min(it.next(), "offset", 0)?),
        }),
        Some("jitter") => Ok(ArrivalPattern::PeriodicJitter {
            period: Time(int_min(it.next(), "period", 1)?),
            jitter: Time(int_min(it.next(), "jitter", 0)?),
            offset: Time(int_min(it.next(), "offset", 0)?),
        }),
        Some("bursty") => {
            let x_thousandths = int(it.next(), "x-thousandths")?;
            if !(1..1000).contains(&x_thousandths) {
                return Err("bursty x must be in 1..999 (thousandths)".into());
            }
            Ok(ArrivalPattern::Hyperbolic {
                x: x_thousandths as f64 / 1000.0,
                ticks_per_unit: int_min(it.next(), "ticks-per-unit", 1)?,
            })
        }
        Some("burst") => {
            let burst_len = uint(it.next(), "burst length")?;
            if burst_len == 0 {
                return Err("bad burst length: must be at least 1, got 0".into());
            }
            let intra_gap = int_min(it.next(), "intra-gap", 0)?;
            let train_period = int_min(it.next(), "train period", 1)?;
            if i128::from(intra_gap) * i128::from(burst_len - 1) >= i128::from(train_period) {
                return Err("bad train period: must exceed the burst extent".into());
            }
            Ok(ArrivalPattern::BurstTrain {
                burst_len,
                intra_gap: Time(intra_gap),
                train_period: Time(train_period),
                offset: Time(int_min(it.next(), "offset", 0)?),
            })
        }
        Some("sporadic") => Ok(ArrivalPattern::SporadicEnvelope {
            min_gap: Time(int_min(it.next(), "min-gap", 1)?),
        }),
        Some("trace") => {
            let mut ts = Vec::new();
            // Consume numeric tokens only, so inline `hop …` suffixes
            // (the ADMIT grammar) can follow a trace.
            while let Some(&tok) = it.peek() {
                if tok == "hop" {
                    break;
                }
                ts.push(Time(int_min(it.next(), "trace time", 0)?));
            }
            if ts.is_empty() {
                return Err("trace needs at least one release time".into());
            }
            ts.sort();
            Ok(ArrivalPattern::Trace(ts))
        }
        other => Err(format!("bad arrival kind {other:?}")),
    }
}

/// Render an arrival pattern in the grammar [`parse_arrival`] accepts.
/// Hyperbolic rates are quantized to thousandths (the wire lattice).
pub fn format_arrival(p: &ArrivalPattern) -> String {
    match p {
        ArrivalPattern::Periodic { period, offset } => {
            format!("periodic {} {}", period.ticks(), offset.ticks())
        }
        ArrivalPattern::PeriodicJitter {
            period,
            jitter,
            offset,
        } => format!(
            "jitter {} {} {}",
            period.ticks(),
            jitter.ticks(),
            offset.ticks()
        ),
        ArrivalPattern::Hyperbolic { x, ticks_per_unit } => {
            format!("bursty {} {ticks_per_unit}", (x * 1000.0).round() as i64)
        }
        ArrivalPattern::BurstTrain {
            burst_len,
            intra_gap,
            train_period,
            offset,
        } => format!(
            "burst {burst_len} {} {} {}",
            intra_gap.ticks(),
            train_period.ticks(),
            offset.ticks()
        ),
        ArrivalPattern::SporadicEnvelope { min_gap } => {
            format!("sporadic {}", min_gap.ticks())
        }
        ArrivalPattern::Trace(ts) => {
            let mut out = String::from("trace");
            for t in ts {
                out.push_str(&format!(" {}", t.ticks()));
            }
            out
        }
    }
}

/// Parse one `hop <processor> <exec> [prio <p>] [weight <w>]` clause, with
/// the leading `hop` keyword already consumed.
fn parse_hop(it: &mut Tokens) -> Result<HopSpec, String> {
    let processor = it.next().ok_or("missing hop processor")?.to_string();
    let exec = int(it.next(), "hop exec")?;
    let mut hop = HopSpec {
        processor,
        exec,
        priority: None,
        weight: None,
    };
    while let Some(&tok) = it.peek() {
        match tok {
            "prio" => {
                it.next();
                hop.priority = Some(uint(it.next(), "prio")?);
            }
            "weight" => {
                it.next();
                hop.weight = Some(uint(it.next(), "weight")?);
            }
            _ => break,
        }
    }
    Ok(hop)
}

/// Parse a job spec from the token after the `job` keyword: name, deadline,
/// arrival, and any *inline* hops (`ADMIT` form; description files usually
/// put hops on their own lines).
pub fn parse_job_draft(it: &mut Tokens) -> Result<JobDraft, String> {
    let name = it.next().ok_or("missing job name")?.to_string();
    match it.next() {
        Some("deadline") => {}
        other => return Err(format!("expected 'deadline', got {other:?}")),
    }
    let deadline = int(it.next(), "deadline")?;
    let arrival = parse_arrival(it)?;
    let mut hops = Vec::new();
    loop {
        match it.next() {
            None => break,
            Some("hop") => hops.push(parse_hop(it)?),
            Some(other) => return Err(format!("unexpected token '{other}' after arrival")),
        }
    }
    Ok(JobDraft {
        name,
        deadline,
        arrival,
        hops,
    })
}

/// Render a job spec in the grammar [`parse_job_draft`] accepts (without
/// the leading `job` keyword).
pub fn format_job_draft(j: &JobDraft) -> String {
    let mut out = format!(
        "{} deadline {} {}",
        j.name,
        j.deadline,
        format_arrival(&j.arrival)
    );
    for h in &j.hops {
        out.push_str(&format!(" hop {} {}", h.processor, h.exec));
        if let Some(p) = h.priority {
            out.push_str(&format!(" prio {p}"));
        }
        if let Some(w) = h.weight {
            out.push_str(&format!(" weight {w}"));
        }
    }
    out
}

/// Resolve a [`JobDraft`] against a concrete system: map processor names to
/// ids and fill unspecified priorities with the **lowest** slot on each
/// processor (admission must not reshuffle jobs that are already running).
pub fn resolve_job(sys: &TaskSystem, draft: &JobDraft) -> Result<Job, String> {
    if draft.hops.is_empty() {
        return Err(format!("job '{}' has no hops", draft.name));
    }
    let mut next_prio: HashMap<ProcessorId, u32> = HashMap::new();
    let mut subjobs = Vec::with_capacity(draft.hops.len());
    for hop in &draft.hops {
        let pid = sys
            .processors()
            .iter()
            .position(|p| p.name == hop.processor)
            .map(ProcessorId)
            .ok_or_else(|| format!("unknown processor '{}'", hop.processor))?;
        let kind = sys.processor(pid).scheduler;
        let priority = match hop.priority {
            Some(p) => Some(p),
            None if kind.uses_priorities() => {
                let next = next_prio.entry(pid).or_insert_with(|| {
                    sys.subjobs_on(pid)
                        .into_iter()
                        .filter_map(|r| sys.subjob(r).priority)
                        .max()
                        .unwrap_or(0)
                });
                *next += 1;
                Some(*next)
            }
            None => None,
        };
        subjobs.push(Subjob {
            processor: pid,
            exec: Time(hop.exec),
            priority,
            weight: hop.weight,
        });
    }
    Ok(Job {
        name: draft.name.clone(),
        deadline: Time(draft.deadline),
        arrival: draft.arrival.clone(),
        subjobs,
    })
}

/// Parse a full system description into a validated [`TaskSystem`].
pub fn parse_system(input: &str) -> Result<TaskSystem, ParseError> {
    let mut b = SystemBuilder::new();
    let mut procs: Vec<(String, ProcessorId)> = Vec::new();
    let mut pending: Option<JobDraft> = None;
    let mut drafts: Vec<JobDraft> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let located = |msg: String| ParseError {
            line: lineno + 1,
            text: line.to_string(),
            msg,
        };
        let mut it = line.split_whitespace().peekable();
        match it.next().unwrap() {
            "processor" => {
                let name = it
                    .next()
                    .ok_or_else(|| located("missing processor name".into()))?;
                let kind = match it.next() {
                    Some("spp") => SchedulerKind::Spp,
                    Some("spnp") => SchedulerKind::Spnp,
                    Some("fcfs") => SchedulerKind::Fcfs,
                    Some("iwrr") => SchedulerKind::Iwrr,
                    other => return Err(located(format!("bad scheduler {other:?}"))),
                };
                if procs.iter().any(|(n, _)| n == name) {
                    return Err(located(format!("duplicate processor '{name}'")));
                }
                let id = b.add_processor(name, kind);
                procs.push((name.to_string(), id));
            }
            "job" => {
                if let Some(j) = pending.take() {
                    drafts.push(j);
                }
                pending = Some(parse_job_draft(&mut it).map_err(located)?);
            }
            "hop" => {
                let Some(job) = pending.as_mut() else {
                    return Err(located("'hop' before any 'job'".into()));
                };
                job.hops.push(parse_hop(&mut it).map_err(located)?);
            }
            other => return Err(located(format!("unknown directive '{other}'"))),
        }
    }
    if let Some(j) = pending.take() {
        drafts.push(j);
    }

    let whole = |msg: String| ParseError {
        line: 0,
        text: String::new(),
        msg,
    };
    let explicit_prios = drafts
        .iter()
        .any(|d| d.hops.iter().any(|h| h.priority.is_some()));
    let mut refs = Vec::new();
    for draft in &drafts {
        let mut hops = Vec::with_capacity(draft.hops.len());
        let mut extras = Vec::new();
        for (hi, hop) in draft.hops.iter().enumerate() {
            let pid = procs
                .iter()
                .find(|(n, _)| *n == hop.processor)
                .map(|&(_, id)| id)
                .ok_or_else(|| {
                    whole(format!(
                        "job '{}': unknown processor '{}'",
                        draft.name, hop.processor
                    ))
                })?;
            hops.push((pid, Time(hop.exec)));
            extras.push((hi, hop.priority, hop.weight));
        }
        let id = b.add_job(
            draft.name.clone(),
            Time(draft.deadline),
            draft.arrival.clone(),
            hops,
        );
        refs.push((id, extras));
    }
    for (id, extras) in refs {
        for (hi, prio, weight) in extras {
            let r = rta_model::SubjobRef { job: id, index: hi };
            if let Some(p) = prio {
                b.set_priority(r, p);
            }
            if let Some(w) = weight {
                b.set_weight(r, w);
            }
        }
    }
    let mut sys = b.build().map_err(|e| whole(e.to_string()))?;
    if explicit_prios {
        sys.validate(true).map_err(|e| whole(e.to_string()))?;
    } else {
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic)
            .map_err(|e| whole(e.to_string()))?;
    }
    Ok(sys)
}

/// Run the right **cold** analysis for `sys`: exact for all-SPP, Theorem 4
/// bounds otherwise, falling back to the Section 6 fixed point on cyclic
/// topologies. Returns the verdict and the rendered report.
///
/// This is the one-shot path the CLI historically used; it is retained as
/// the oracle for the warm verdicts served by
/// [`rta_core::service::AdmissionService`].
pub fn analyze_cold(sys: &TaskSystem, cfg: &AnalysisConfig) -> Result<(bool, String), String> {
    let all_spp = sys
        .processors()
        .iter()
        .all(|p| p.scheduler == SchedulerKind::Spp);
    let first = if all_spp {
        analyze_exact_spp(sys, cfg).map(|r| (r.all_schedulable(), r.to_string()))
    } else {
        analyze_bounds(sys, cfg).map(|r| (r.all_schedulable(), r.to_string()))
    };
    match first {
        Ok(out) => return Ok(out),
        Err(AnalysisError::CyclicDependency { .. }) => {}
        Err(e) => return Err(e.to_string()),
    }
    analyze_with_loops(sys, cfg, 8)
        .map(|r| (r.all_schedulable(), r.to_string()))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_parses() {
        let sys = parse_system(EXAMPLE).unwrap();
        assert_eq!(sys.processors().len(), 2);
        assert_eq!(sys.jobs().len(), 4);
        assert_eq!(sys.jobs()[0].subjobs.len(), 2);
        assert!(matches!(
            sys.jobs()[2].arrival,
            ArrivalPattern::BurstTrain { burst_len: 3, .. }
        ));
    }

    #[test]
    fn parse_errors_carry_line_and_text() {
        let err = parse_system("processor P1 spp\njob T1 deadline x periodic 5 0").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.text, "job T1 deadline x periodic 5 0");
        assert!(err.msg.contains("bad deadline"), "{err}");
        let shown = err.to_string();
        assert!(
            shown.contains("line 2") && shown.contains("| job T1"),
            "{shown}"
        );

        let err = parse_system("hop P1 5").unwrap_err();
        assert!(err.msg.contains("before any 'job'"), "{err}");
        let err = parse_system("processor P1 meow").unwrap_err();
        assert!(err.msg.contains("bad scheduler"), "{err}");
        let err = parse_system("processor P1 spp\njob T1 deadline 10 periodic 5 0\nhop P9 2")
            .unwrap_err();
        assert_eq!(err.line, 0, "resolution errors are whole-input");
        assert!(err.msg.contains("unknown processor"), "{err}");
    }

    #[test]
    fn out_of_domain_arrival_parameters_are_rejected() {
        let parse = |text: &str| parse_arrival(&mut text.split_whitespace().peekable());
        for (text, what) in [
            ("periodic 0 0", "period"),
            ("periodic 100 -5", "offset"),
            ("jitter 0 1 1", "period"),
            ("jitter 100 -3 0", "jitter"),
            ("jitter 100 3 -1", "offset"),
            ("bursty 500 0", "ticks-per-unit"),
            ("burst 0 5 100 0", "burst length"),
            ("burst 3 -1 100 0", "intra-gap"),
            ("burst 3 5 0 0", "train period"),
            ("burst 3 50 100 0", "train period"),
            ("burst 3 5 100 -1", "offset"),
            ("sporadic 0", "min-gap"),
            ("trace -5 3", "trace time"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.starts_with(&format!("bad {what}:")), "{text}: {err}");
        }
        // The boundary values themselves are accepted.
        for text in [
            "periodic 1 0",
            "jitter 1 0 0",
            "bursty 500 1",
            "burst 1 0 1 0",
            "burst 3 49 100 0",
            "sporadic 1",
            "trace 0 3",
        ] {
            assert!(parse(text).is_ok(), "{text}");
        }
    }

    #[test]
    fn explicit_priorities_and_weights_are_honored() {
        let sys = parse_system(
            "processor P1 spp\n\
             job A deadline 50 periodic 20 0\nhop P1 5 prio 2\n\
             job B deadline 90 periodic 30 0\nhop P1 4 prio 1\n",
        )
        .unwrap();
        // Explicit: B higher priority despite the longer deadline.
        assert_eq!(sys.jobs()[0].subjobs[0].priority, Some(2));
        assert_eq!(sys.jobs()[1].subjobs[0].priority, Some(1));

        let sys =
            parse_system("processor P1 iwrr\njob A deadline 50 periodic 20 0\nhop P1 5 weight 3\n")
                .unwrap();
        assert_eq!(sys.jobs()[0].subjobs[0].weight, Some(3));
    }

    #[test]
    fn job_draft_round_trips_through_its_grammar() {
        let text = "T9 deadline 500 burst 4 10 800 0 hop P1 30 prio 7 hop P2 12 weight 2";
        let mut it = text.split_whitespace().peekable();
        let draft = parse_job_draft(&mut it).unwrap();
        assert_eq!(format_job_draft(&draft), text);
        let rendered = format_job_draft(&draft);
        let mut it2 = rendered.split_whitespace().peekable();
        assert_eq!(parse_job_draft(&mut it2).unwrap(), draft);
    }

    #[test]
    fn resolve_job_fills_lowest_priority_slots() {
        let sys = parse_system(
            "processor P1 spp\nprocessor P2 spp\n\
             job A deadline 50 periodic 20 0\nhop P1 5\nhop P2 5\n",
        )
        .unwrap();
        let mut it = "X deadline 100 periodic 50 0 hop P1 3 hop P2 2"
            .split_whitespace()
            .peekable();
        let draft = parse_job_draft(&mut it).unwrap();
        let job = resolve_job(&sys, &draft).unwrap();
        let base_p1 = sys.jobs()[0].subjobs[0].priority.unwrap();
        let base_p2 = sys.jobs()[0].subjobs[1].priority.unwrap();
        assert_eq!(job.subjobs[0].priority, Some(base_p1 + 1));
        assert_eq!(job.subjobs[1].priority, Some(base_p2 + 1));
        assert!(resolve_job(
            &sys,
            &JobDraft {
                hops: vec![],
                ..draft
            }
        )
        .is_err());
    }

    #[test]
    fn trace_jobs_sorted_and_cold_analyzable() {
        let sys =
            parse_system("processor P1 spp\njob T1 deadline 50 trace 9 1 4\nhop P1 5\n").unwrap();
        match &sys.jobs()[0].arrival {
            ArrivalPattern::Trace(ts) => assert_eq!(ts, &vec![Time(1), Time(4), Time(9)]),
            other => panic!("expected trace, got {other:?}"),
        }
        let (ok, report) = analyze_cold(&sys, &AnalysisConfig::default()).unwrap();
        assert!(ok, "{report}");
    }
}
