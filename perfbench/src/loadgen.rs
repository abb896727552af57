//! Single-threaded open-loop request generator for an in-process server.
//!
//! A [`Feed`] is the server's input: a `BufRead` that, whenever the server
//! has consumed everything handed over so far, hands over every request that
//! is due (at most `max_batch` of them) followed by one blank line, which the
//! daemon's `serve` loop treats as a batch flush. When nothing is due yet the
//! server is idle, and the feed spins until the next due time. A [`Sink`] is
//! the server's output: it stamps every response line with the time of the
//! flush that delivered it.
//!
//! A request's latency runs from when it was *due*, not from when it was
//! handed over, so a request that arrived while the server was busy is
//! charged the time it waited. With every due time at zero the same feed is
//! a closed loop that hands over `max_batch` requests back to back.

use std::io::{self, BufRead, Read, Write};
use std::time::{Duration, Instant};

/// Requests (each the full text of one request, without the trailing
/// newline) with their due offsets from the start of the run.
pub struct Schedule {
    /// Rendered requests.
    pub lines: Vec<String>,
    /// Due offset of each request, in nanoseconds, non-decreasing.
    pub due_ns: Vec<u64>,
}

impl Schedule {
    /// Requests offered at a fixed rate: request `i` is due at `i / rate`.
    pub fn fixed_rate(lines: Vec<String>, rate_per_s: f64) -> Schedule {
        let gap = 1e9 / rate_per_s;
        let due_ns = (0..lines.len()).map(|i| (i as f64 * gap) as u64).collect();
        Schedule { lines, due_ns }
    }

    /// Every request due at once: the closed-loop form.
    pub fn back_to_back(lines: Vec<String>) -> Schedule {
        let due_ns = vec![0; lines.len()];
        Schedule { lines, due_ns }
    }
}

/// The server's input side of one run.
pub struct Feed<'a> {
    sched: &'a Schedule,
    start: Instant,
    max_batch: usize,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    handed_ns: Vec<u64>,
    batches: u64,
    idle_handoffs: u64,
    late_ns: u64,
}

impl<'a> Feed<'a> {
    fn new(sched: &'a Schedule, start: Instant, max_batch: usize) -> Feed<'a> {
        Feed {
            sched,
            start,
            max_batch: max_batch.max(1),
            next: 0,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
            handed_ns: Vec::with_capacity(sched.lines.len()),
            batches: 0,
            idle_handoffs: 0,
            late_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Hand over the next batch. Called only when the server has consumed
    /// everything handed over before, i.e. when it is waiting for input.
    fn refill(&mut self) {
        self.buf.clear();
        self.pos = 0;
        let n = self.sched.lines.len();
        if self.next == n {
            return;
        }
        let due = self.sched.due_ns[self.next];
        let mut now = self.now_ns();
        if now < due {
            // The server is idle: wait for the due time, then measure how
            // late the hand-off came.
            while now < due {
                std::hint::spin_loop();
                now = self.now_ns();
            }
            self.idle_handoffs += 1;
            self.late_ns += now - due;
        }
        let first = self.next;
        while self.next < n
            && self.next - first < self.max_batch
            && self.sched.due_ns[self.next] <= now
        {
            self.buf
                .extend_from_slice(self.sched.lines[self.next].as_bytes());
            self.buf.push(b'\n');
            self.handed_ns.push(now);
            self.next += 1;
        }
        self.buf.push(b'\n');
        self.batches += 1;
    }
}

impl Read for Feed<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let k = avail.len().min(out.len());
        out[..k].copy_from_slice(&avail[..k]);
        self.consume(k);
        Ok(k)
    }
}

impl BufRead for Feed<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            self.refill();
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// The server's output side of one run.
pub struct Sink {
    start: Instant,
    keep: bool,
    bytes: Vec<u8>,
    pending: usize,
    done_ns: Vec<u64>,
}

impl Sink {
    fn new(start: Instant, keep: bool, lines: usize) -> Sink {
        Sink {
            start,
            keep,
            bytes: Vec::new(),
            pending: 0,
            done_ns: Vec::with_capacity(lines),
        }
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending += buf.iter().filter(|&&b| b == b'\n').count();
        if self.keep {
            self.bytes.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.pending > 0 {
            let now = self.start.elapsed().as_nanos() as u64;
            self.done_ns.extend(std::iter::repeat_n(now, self.pending));
            self.pending = 0;
        }
        Ok(())
    }
}

/// What one run observed.
pub struct Run {
    /// Wall time from the start until the server returned.
    pub elapsed: Duration,
    /// Per request: response time minus due time.
    pub latency_ns: Vec<u64>,
    /// Per request: hand-off time minus due time.
    pub queue_ns: Vec<u64>,
    /// Batches handed over (blank-line flushes).
    pub batches: u64,
    /// Hand-offs made after waiting on an idle server.
    pub idle_handoffs: u64,
    /// Summed lateness of those hand-offs.
    pub late_ns: u64,
    /// The response stream, when asked to keep it.
    pub output: Vec<u8>,
}

impl Run {
    /// Mean lateness of idle hand-offs in µs (0 when the server was never
    /// idle).
    pub fn late_us(&self) -> f64 {
        if self.idle_handoffs == 0 {
            0.0
        } else {
            self.late_ns as f64 / self.idle_handoffs as f64 / 1e3
        }
    }
}

/// Run `server` over `sched`, handing over at most `max_batch` requests per
/// flush. The server must answer every request with exactly one line.
pub fn drive<F>(sched: &Schedule, max_batch: usize, keep: bool, server: F) -> io::Result<Run>
where
    F: FnOnce(&mut Feed, &mut Sink) -> io::Result<()>,
{
    let start = Instant::now();
    let mut feed = Feed::new(sched, start, max_batch);
    let mut sink = Sink::new(start, keep, sched.lines.len());
    server(&mut feed, &mut sink)?;
    sink.flush()?;
    let elapsed = start.elapsed();
    let n = sched.lines.len();
    if sink.done_ns.len() != n || feed.handed_ns.len() != n {
        return Err(io::Error::other(format!(
            "{} requests, {} handed over, {} responses",
            n,
            feed.handed_ns.len(),
            sink.done_ns.len()
        )));
    }
    let latency_ns = (0..n)
        .map(|i| sink.done_ns[i].saturating_sub(sched.due_ns[i]))
        .collect();
    let queue_ns = (0..n)
        .map(|i| feed.handed_ns[i] - sched.due_ns[i])
        .collect();
    Ok(Run {
        elapsed,
        latency_ns,
        queue_ns,
        batches: feed.batches,
        idle_handoffs: feed.idle_handoffs,
        late_ns: feed.late_ns,
        output: sink.bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub of the daemon's serve loop: answers `OK <line>` per request,
    /// writes a batch's answers at its blank-line flush, and sleeps for
    /// `stall` while handling the request `STALL`.
    fn stub_server(stall: Duration) -> impl FnOnce(&mut Feed, &mut Sink) -> io::Result<()> {
        move |input: &mut Feed, out: &mut Sink| {
            let mut pending: Vec<String> = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                if input.read_line(&mut line)? == 0 {
                    break;
                }
                let req = line.trim();
                if req.is_empty() {
                    for r in pending.drain(..) {
                        writeln!(out, "OK {r}")?;
                    }
                    out.flush()?;
                    continue;
                }
                if req == "STALL" {
                    std::thread::sleep(stall);
                }
                pending.push(req.to_string());
            }
            for r in pending.drain(..) {
                writeln!(out, "OK {r}")?;
            }
            out.flush()
        }
    }

    fn lines(n: usize, stall_at: Option<usize>) -> Vec<String> {
        (0..n)
            .map(|i| {
                if Some(i) == stall_at {
                    "STALL".to_string()
                } else {
                    format!("R{i}")
                }
            })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let stall = Duration::from_millis(20);
        let gap_ns = 1_000_000; // one request per millisecond
        let sched = Schedule {
            lines: lines(60, Some(10)),
            due_ns: (0..60).map(|i| i * gap_ns).collect(),
        };
        let run = drive(&sched, 64, true, stub_server(stall)).unwrap();
        let stall_ns = stall.as_nanos() as u64;
        // The stall ends no earlier than `due[10] + stall`; every request
        // due before then was answered after it, and its latency from its
        // due time covers the rest of the stall.
        let stall_end = sched.due_ns[10] + stall_ns;
        let mut charged = 0;
        for i in 10..60 {
            if sched.due_ns[i] < stall_end {
                let done = sched.due_ns[i] + run.latency_ns[i];
                assert!(
                    done >= stall_end,
                    "request {i} answered at {done} ns, before the stall ended at {stall_end} ns"
                );
                assert!(run.latency_ns[i] >= stall_end - sched.due_ns[i]);
                charged += 1;
            }
        }
        assert!(
            charged >= 20,
            "only {charged} requests fell inside the stall"
        );
        // The server queue shows the stall too: those requests were handed
        // over late.
        assert!(run.queue_ns[15] >= stall_end - sched.due_ns[15]);
        let text = String::from_utf8(run.output).unwrap();
        assert_eq!(text.lines().count(), 60);
        assert_eq!(text.lines().nth(10), Some("OK STALL"));
    }

    #[test]
    fn late_handoffs_stay_near_zero_when_the_server_is_fast() {
        let n = 400u64;
        let sched = Schedule {
            lines: lines(n as usize, None),
            due_ns: (0..n).map(|i| i * 250_000).collect(),
        };
        let run = drive(&sched, 64, false, stub_server(Duration::ZERO)).unwrap();
        // Nearly every request found the server idle and went alone.
        assert!(run.idle_handoffs >= n * 9 / 10, "{}", run.idle_handoffs);
        assert!(run.late_us() < 20.0, "late {} µs", run.late_us());
        let mut lat = run.latency_ns.clone();
        lat.sort_unstable();
        assert!(
            lat[lat.len() / 2] < 200_000,
            "median {} ns",
            lat[lat.len() / 2]
        );
    }

    #[test]
    fn back_to_back_hands_over_full_batches() {
        let sched = Schedule::back_to_back(lines(100, None));
        let run = drive(&sched, 32, true, stub_server(Duration::ZERO)).unwrap();
        assert_eq!(run.batches, 4);
        assert_eq!(run.idle_handoffs, 0);
        assert_eq!(String::from_utf8(run.output).unwrap().lines().count(), 100);
    }
}
