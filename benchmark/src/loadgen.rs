//! The load generator: a closed loop (each connection sends its next
//! batch when the previous answer arrives) and an open loop (each
//! connection sends on a fixed schedule and times every request from the
//! instant it was **due**, so a stall is charged for the queue it
//! causes). Both check every answer bit for bit, off the timed path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::trace::{SpanId, Tracer};
use crate::workload::{Batch, BatchGen};

/// One answered batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Answered {
    /// One float per queried node.
    pub floats: Vec<f64>,
    /// The serving generation observed before and after the request (both
    /// 0 for stores that never swap).
    pub gens: (u64, u64),
    /// When the request was handed to the layer under test.
    pub sent: Instant,
    /// When its answer was back.
    pub done: Instant,
}

/// Something that answers batches: a wire client, or an engine in process.
pub trait Answerer {
    /// The span name of one [`Answerer::answer`] call.
    const SPAN: &'static str;

    /// Work a request needs before its send slot, kept off the timed path
    /// (the churn client reads the serving generation here).
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Answers one batch; only `sent..done` is timed.
    fn answer(&mut self, batch: &Batch) -> Result<Answered, String>;
}

/// What one loop measured, pooled over its connections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopReport {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that errored or answered wrong bits.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// Per-request latency in µs: service time in the closed loop, time
    /// since the intended send instant in the open loop.
    pub latencies_us: Vec<f64>,
    /// Each request's intended (open) or actual (closed) send time, in
    /// seconds since `origin`; parallel to `latencies_us`.
    pub sent_s: Vec<f64>,
    /// Nodes answered in each window of `window_s` seconds.
    pub windows: Vec<u64>,
    /// Length of one window in seconds.
    pub window_s: f64,
    /// Wall time of the loop in seconds.
    pub elapsed_s: f64,
    /// Open loop: the latest any request left after its due instant, µs.
    pub late_max_us: f64,
    /// Open loop: the most requests that were due but unsent at once.
    pub backlog_max: u64,
}

impl LoopReport {
    /// Pools the report of a connection that ran beside this one.
    fn merge(&mut self, other: LoopReport) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.latencies_us.extend(other.latencies_us);
        self.sent_s.extend(other.sent_s);
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), 0);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            *mine += theirs;
        }
        self.window_s = other.window_s;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.late_max_us = self.late_max_us.max(other.late_max_us);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
    }

    /// Median nodes answered per second over the full windows after the
    /// first `warmup` ones, and how many windows that is.
    pub fn nodes_per_s(&self, warmup: usize) -> (f64, u64) {
        // The last window is cut short by the loop's end.
        let full = self.windows.len().saturating_sub(1);
        let mut rates: Vec<f64> = self.windows[warmup.min(full)..full]
            .iter()
            .map(|&nodes| nodes as f64 / self.window_s)
            .collect();
        if rates.is_empty() {
            let nodes: u64 = self.windows.iter().sum();
            return (nodes as f64 / self.elapsed_s.max(1e-9), 1);
        }
        (crate::stats::median(&mut rates), rates.len() as u64)
    }

    fn note(&mut self, outcome: Result<bool, String>) {
        self.attempted += 1;
        let failure = match outcome {
            Ok(true) => return,
            Ok(false) => "answer differs from the oracle".to_string(),
            Err(e) => e,
        };
        self.failed += 1;
        self.first_failure.get_or_insert(failure);
    }
}

/// How a loop is driven: its connections, length, and how it is traced.
pub struct LoopCtx<'a> {
    /// Connections (= load threads).
    pub conns: usize,
    /// How long to run.
    pub dur: Duration,
    /// Ends the loop early when set.
    pub stop: Option<&'a AtomicBool>,
    /// Origin of `sent_s`.
    pub origin: Instant,
    /// The main tracer; every connection's spans are merged into it.
    pub tracer: &'a mut Tracer,
}

/// Runs `body` once per connection on its own thread after a common
/// start line, and pools the reports.
fn run_connections<A, M, C, B>(
    ctx: LoopCtx<'_>,
    phase: &'static str,
    make: &M,
    check: &C,
    body: B,
) -> LoopReport
where
    A: Answerer,
    M: Fn(usize) -> Result<(A, BatchGen), String> + Sync,
    C: Fn(&Batch, &Answered) -> bool + Sync,
    B: Fn(&ConnCtx<'_>, &mut A, &mut BatchGen, &C, &mut Tracer) -> LoopReport + Sync,
{
    let phase_span: SpanId = ctx.tracer.begin(phase);
    let line = Barrier::new(ctx.conns);
    let results: Vec<(LoopReport, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.conns)
            .map(|conn| {
                let mut tracer = ctx.tracer.worker();
                let (line, body) = (&line, &body);
                let conn_ctx = ConnCtx {
                    conn,
                    conns: ctx.conns,
                    dur: ctx.dur,
                    stop: ctx.stop,
                    origin: ctx.origin,
                };
                s.spawn(move || {
                    let made = make(conn);
                    line.wait();
                    let report = match made {
                        Ok((mut answerer, mut batches)) => {
                            body(&conn_ctx, &mut answerer, &mut batches, check, &mut tracer)
                        }
                        Err(e) => LoopReport {
                            attempted: 1,
                            failed: 1,
                            first_failure: Some(format!("connection {conn}: {e}")),
                            ..LoopReport::default()
                        },
                    };
                    (report, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    ctx.tracer.end(phase_span);
    let mut pooled = LoopReport::default();
    for (report, tracer) in results {
        pooled.merge(report);
        ctx.tracer.absorb(tracer, phase_span);
    }
    pooled
}

/// One connection's share of a [`LoopCtx`].
struct ConnCtx<'a> {
    conn: usize,
    conns: usize,
    dur: Duration,
    stop: Option<&'a AtomicBool>,
    origin: Instant,
}

impl ConnCtx<'_> {
    fn stopped(&self) -> bool {
        self.stop.is_some_and(|s| s.load(Ordering::Relaxed))
    }

    fn request_id(&self, seq: u64) -> u64 {
        ((self.conn as u64) << 40) | seq
    }
}

/// Windows a closed loop of `dur` is cut into.
const CLOSED_WINDOWS: u32 = 12;

/// Closed loop: every connection sends its next batch as soon as the
/// previous answer is back, for `ctx.dur`.
pub fn closed_loop<A, M, C>(ctx: LoopCtx<'_>, make: &M, check: &C) -> LoopReport
where
    A: Answerer,
    M: Fn(usize) -> Result<(A, BatchGen), String> + Sync,
    C: Fn(&Batch, &Answered) -> bool + Sync,
{
    run_connections(
        ctx,
        "loadgen.closed",
        make,
        check,
        |c, answerer, batches, check, tracer| {
            let window = c.dur / CLOSED_WINDOWS;
            let mut r = LoopReport {
                window_s: window.as_secs_f64(),
                windows: vec![0; CLOSED_WINDOWS as usize + 1],
                ..LoopReport::default()
            };
            let start = Instant::now();
            let mut seq = 0u64;
            loop {
                let batch = batches.next_batch();
                let outcome = answerer.prepare().and_then(|()| answerer.answer(&batch));
                let now = Instant::now();
                let verdict = outcome.map(|a| {
                    tracer.record(A::SPAN, c.request_id(seq), a.sent, a.done);
                    r.latencies_us.push((a.done - a.sent).as_secs_f64() * 1e6);
                    r.sent_s.push((a.sent - c.origin).as_secs_f64());
                    let w = ((a.done - start).as_nanos() / window.as_nanos().max(1)) as usize;
                    if let Some(slot) = r.windows.get_mut(w) {
                        *slot += batch.nodes.len() as u64;
                    }
                    check(&batch, &a)
                });
                r.note(verdict);
                seq += 1;
                if now - start >= c.dur || c.stopped() {
                    break;
                }
            }
            r.elapsed_s = start.elapsed().as_secs_f64();
            r
        },
    )
}

/// The longest the pacer busy-waits; anything further off is slept.
pub const SPIN_LIMIT: Duration = Duration::from_micros(100);

/// A clock the pacer can be tested against.
pub trait Clock {
    /// The current instant.
    fn now(&self) -> Instant;
    /// Blocks for about `d`.
    fn sleep(&self, d: Duration);
}

/// The system clock.
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Blocks until `due`, sleeping while it is more than [`SPIN_LIMIT`] away
/// and spinning only across the last stretch. Returns how late the caller
/// is released.
pub fn wait_until(clock: &impl Clock, due: Instant) -> Duration {
    loop {
        let now = clock.now();
        if now >= due {
            return now - due;
        }
        let left = due - now;
        if left > SPIN_LIMIT {
            clock.sleep(left - SPIN_LIMIT);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One connection's fixed send schedule. Request `i` is due at
/// `start + offset + i·interval` no matter when earlier ones were sent
/// or answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// When the loop started.
    pub start: Instant,
    /// This connection's stagger.
    pub offset: Duration,
    /// Time between two of this connection's requests.
    pub interval: Duration,
}

impl Schedule {
    /// Connection `conn` of `conns` sharing `rate` requests per second:
    /// each sends every `conns/rate` seconds, staggered evenly.
    pub fn new(start: Instant, rate: f64, conn: usize, conns: usize) -> Self {
        let interval = Duration::from_secs_f64(conns as f64 / rate);
        Self {
            start,
            offset: interval * conn as u32 / conns as u32,
            interval,
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.offset + Duration::from_nanos(self.interval.as_nanos() as u64 * i)
    }

    /// Requests already due but not yet sent when request `i` leaves
    /// `late` after its due instant.
    pub fn backlog(&self, late: Duration) -> u64 {
        (late.as_nanos() / self.interval.as_nanos().max(1)) as u64
    }
}

/// Open loop at `rate` requests per second over all connections. Each
/// connection keeps one request in flight; latency runs from the due
/// instant, so time spent waiting behind a slow answer is counted.
pub fn open_loop<A, M, C>(ctx: LoopCtx<'_>, rate: f64, make: &M, check: &C) -> LoopReport
where
    A: Answerer,
    M: Fn(usize) -> Result<(A, BatchGen), String> + Sync,
    C: Fn(&Batch, &Answered) -> bool + Sync,
{
    run_connections(
        ctx,
        "loadgen.open",
        make,
        check,
        |c, answerer, batches, check, tracer| {
            let mut r = LoopReport::default();
            let schedule = Schedule::new(Instant::now(), rate, c.conn, c.conns);
            for i in 0u64.. {
                let due = schedule.due(i);
                if due - schedule.start >= c.dur || c.stopped() {
                    break;
                }
                let batch = batches.next_batch();
                let prepared = answerer.prepare();
                let late = wait_until(&SystemClock, due);
                r.late_max_us = r.late_max_us.max(late.as_secs_f64() * 1e6);
                r.backlog_max = r.backlog_max.max(schedule.backlog(late));
                let outcome = prepared.and_then(|()| answerer.answer(&batch));
                let verdict = outcome.map(|a| {
                    tracer.record(A::SPAN, c.request_id(i), a.sent, a.done);
                    r.latencies_us.push((a.done - due).as_secs_f64() * 1e6);
                    r.sent_s.push((due - c.origin).as_secs_f64());
                    check(&batch, &a)
                });
                r.note(verdict);
            }
            r.elapsed_s = schedule.start.elapsed().as_secs_f64();
            r
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// A clock that advances 1 µs per reading and oversleeps by a fixed
    /// amount, recording what it was asked to sleep.
    struct FakeClock {
        now: Cell<Instant>,
        oversleep: Duration,
        sleeps: RefCell<Vec<Duration>>,
        spun: Cell<Duration>,
    }

    impl FakeClock {
        fn new(oversleep: Duration) -> Self {
            Self {
                now: Cell::new(Instant::now()),
                oversleep,
                sleeps: RefCell::new(Vec::new()),
                spun: Cell::new(Duration::ZERO),
            }
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Instant {
            let tick = Duration::from_micros(1);
            self.now.set(self.now.get() + tick);
            self.spun.set(self.spun.get() + tick);
            self.now.get()
        }

        fn sleep(&self, d: Duration) {
            self.sleeps.borrow_mut().push(d);
            self.now.set(self.now.get() + d + self.oversleep);
        }
    }

    #[test]
    fn the_pacer_sleeps_far_waits_and_spins_only_the_last_100us() {
        let clock = FakeClock::new(Duration::from_micros(60));
        let due = clock.now.get() + Duration::from_millis(5);
        let late = wait_until(&clock, due);
        assert_eq!(
            clock.sleeps.borrow().as_slice(),
            &[Duration::from_micros(4899)]
        );
        // Everything not slept was spun: at most the spin limit (plus the
        // clock's own ticks).
        assert!(clock.spun.get() <= SPIN_LIMIT + Duration::from_micros(2));
        assert!(late < Duration::from_micros(2), "released {late:?} late");
    }

    #[test]
    fn a_long_oversleep_is_reported_as_lateness_not_hidden() {
        let clock = FakeClock::new(Duration::from_micros(700));
        let due = clock.now.get() + Duration::from_millis(1);
        let late = wait_until(&clock, due);
        // Slept 899 µs + 700 µs oversleep from t = 1 µs: released at
        // 1601 µs, 601 µs past the due instant.
        assert_eq!(late, Duration::from_micros(601));
        assert_eq!(clock.sleeps.borrow().len(), 1);
    }

    #[test]
    fn a_due_instant_in_the_past_returns_at_once() {
        let clock = FakeClock::new(Duration::ZERO);
        let due = clock.now.get() - Duration::from_micros(250);
        assert_eq!(wait_until(&clock, due), Duration::from_micros(251));
        assert!(clock.sleeps.borrow().is_empty());
    }

    #[test]
    fn intended_stamps_are_fixed_by_the_schedule_alone() {
        let start = Instant::now();
        // 4000 req/s over 2 connections: 500 µs apart per connection,
        // the second staggered by 250 µs.
        let a = Schedule::new(start, 4000.0, 0, 2);
        let b = Schedule::new(start, 4000.0, 1, 2);
        assert_eq!(a.interval, Duration::from_micros(500));
        assert_eq!(a.due(0), start);
        assert_eq!(b.due(0), start + Duration::from_micros(250));
        assert_eq!(a.due(7), start + Duration::from_micros(3500));
        // A request released 1.2 ms late has two more already due.
        assert_eq!(a.backlog(Duration::from_micros(1200)), 2);
        assert_eq!(a.backlog(Duration::from_micros(499)), 0);
    }

    /// Answers instantly with the batch's node ids as floats.
    struct Echo;

    impl Answerer for Echo {
        const SPAN: &'static str = "test.echo";

        fn answer(&mut self, batch: &Batch) -> Result<Answered, String> {
            let sent = Instant::now();
            Ok(Answered {
                floats: batch.nodes.iter().map(|&v| f64::from(v)).collect(),
                gens: (0, 0),
                sent,
                done: Instant::now(),
            })
        }
    }

    fn echo_setup() -> (
        crate::workload::Params,
        std::sync::Arc<crate::workload::Popularity>,
    ) {
        let p = crate::workload::Params::named("serve_direct", true).unwrap();
        let pop = std::sync::Arc::new(crate::workload::Popularity::new(p.nodes(), 0.0));
        (p, pop)
    }

    #[test]
    fn the_open_loop_sends_on_schedule_and_counts_wrong_answers() {
        let (p, pop) = echo_setup();
        let origin = Instant::now();
        let mut tracer = Tracer::new(true, origin);
        let ctx = LoopCtx {
            conns: 2,
            dur: Duration::from_millis(200),
            stop: None,
            origin,
            tracer: &mut tracer,
        };
        let make = |conn| Ok((Echo, BatchGen::new(&p, pop.clone(), 9, "open", conn)));
        // Reject every batch whose first node is even: a stand-in for a
        // bitwise mismatch.
        let check =
            |b: &Batch, a: &Answered| a.floats.len() == b.nodes.len() && b.nodes[0] % 2 == 1;
        let r = open_loop(ctx, 1000.0, &make, &check);
        assert_eq!(r.attempted, 200, "1000 req/s for 0.2 s");
        assert!(r.failed > 0 && r.failed < r.attempted);
        assert_eq!(r.latencies_us.len(), 200);
        assert_eq!(r.sent_s.len(), 200);
        // Phase span + one span per request, re-parented under it.
        assert_eq!(tracer.len(), 201);
    }

    #[test]
    fn the_closed_loop_fills_windows_and_stops_on_the_flag() {
        let (p, pop) = echo_setup();
        let origin = Instant::now();
        let mut tracer = Tracer::new(false, origin);
        let make = |conn| Ok((Echo, BatchGen::new(&p, pop.clone(), 9, "closed", conn)));
        let check = |_: &Batch, _: &Answered| true;
        let r = closed_loop(
            LoopCtx {
                conns: 2,
                dur: Duration::from_millis(120),
                stop: None,
                origin,
                tracer: &mut tracer,
            },
            &make,
            &check,
        );
        assert_eq!(r.failed, 0);
        assert!(r.windows[..CLOSED_WINDOWS as usize].iter().all(|&w| w > 0));
        assert_eq!(
            r.windows.iter().sum::<u64>(),
            r.attempted * crate::workload::BATCH as u64
        );
        let (rate, windows) = r.nodes_per_s(2);
        assert!(rate > 0.0);
        assert_eq!(windows, u64::from(CLOSED_WINDOWS) - 2);

        let stop = AtomicBool::new(true);
        let r = closed_loop(
            LoopCtx {
                conns: 1,
                dur: Duration::from_secs(60),
                stop: Some(&stop),
                origin,
                tracer: &mut tracer,
            },
            &make,
            &check,
        );
        assert_eq!(r.attempted, 1, "a set flag ends the loop after one request");
    }
}
