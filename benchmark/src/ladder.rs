//! The layer ladder: one seed-derived set of batches replayed by one
//! caller at successive rungs of the serving stack, so that adjacent
//! rungs subtract to one layer's cost. Runs in the traced run only.
//!
//! | rung | metric | adds |
//! |---|---|---|
//! | 0 | `core.engine.batch_us` | the engine alone |
//! | 1 | `serve.server.answer_us` | request dispatch and checks |
//! | 2 | `serve.proto.codec_us` | the wire codec alone (cumulative: rung 1 + this) |
//! | 3 | `serve.server.loopback_us` | socket, framing, worker hand-off |
//! | 4 | `serve.router.nocache_us` | partition, scatter, merge |
//! | 5 | `serve.router.steady_us` | the answer cache at the workload's hit rate |
//! | 6 | `serve.router.allhit_us` | the answer cache alone |

use std::sync::Arc;
use std::time::Instant;

use adsketch::serve::{Request, RequestStore, Response};

use crate::loadgen::{Answered, Answerer};
use crate::run::Run;
use crate::stats;
use crate::workload::{Batch, BatchGen, Popularity};

/// Batches in the ladder's replay set.
pub const LADDER_BATCHES: usize = 256;

/// The replay set of a run: drawn from the workload's own popularity and
/// distance mix.
pub fn batches(run: &Run<'_>, popularity: &Arc<Popularity>) -> Vec<Batch> {
    let mut gen = BatchGen::new(
        run.p,
        popularity.clone(),
        run.inputs.traffic_seed,
        "ladder",
        0,
    );
    (0..LADDER_BATCHES).map(|_| gen.next_batch()).collect()
}

/// How often a rung replays the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replays {
    /// Replays whose timings are dropped. The set touches the same rows
    /// every time, so the first replays also warm the CPU caches; a rung
    /// measured straight after would look slower than the one after it.
    pub warm: usize,
    /// Replays whose timings are pooled.
    pub timed: usize,
}

/// One cold replay: for rungs whose subject is the first touch.
pub const ONCE: Replays = Replays { warm: 0, timed: 1 };
/// Two warming replays, then four timed ones.
pub const STEADY: Replays = Replays { warm: 2, timed: 4 };

/// Replays `batches` through `answerer`, checking every answer, and sets
/// `metric` to the median microseconds per batch over the timed replays.
pub fn replay<A: Answerer>(
    run: &mut Run<'_>,
    metric: &'static str,
    answerer: &mut A,
    batches: &[Batch],
    replays: Replays,
    check: &impl Fn(&Batch, &Answered) -> bool,
) {
    let rung = run.tracer.begin(metric);
    let mut us = Vec::with_capacity(batches.len() * replays.timed);
    let mut failed = 0;
    let mut first_failure = None;
    for replay in 0..replays.warm + replays.timed {
        for (i, batch) in batches.iter().enumerate() {
            match answerer.prepare().and_then(|()| answerer.answer(batch)) {
                Ok(a) => {
                    run.tracer.record(A::SPAN, i as u64, a.sent, a.done);
                    if replay >= replays.warm {
                        us.push((a.done - a.sent).as_secs_f64() * 1e6);
                    }
                    if !check(batch, &a) {
                        failed += 1;
                        first_failure
                            .get_or_insert_with(|| "answer differs from the oracle".to_string());
                    }
                }
                Err(e) => {
                    failed += 1;
                    first_failure.get_or_insert(e);
                }
            }
        }
    }
    run.tracer.end(rung);
    let attempted = (batches.len() * (replays.warm + replays.timed)) as u64;
    run.report.ops(attempted, failed, || {
        format!("{metric}: {}", first_failure.unwrap_or_default())
    });
    if !us.is_empty() {
        let n = us.len() as u64;
        run.report.set(metric, stats::median(&mut us), n);
    }
}

/// Rung 1: `RequestStore::answer_request` in process, no codec, no
/// socket.
pub struct Dispatch<'a, S: RequestStore> {
    /// The store a server would answer from.
    pub store: &'a S,
    /// The workload's distance grid.
    pub distances: [f64; 5],
}

impl<S: RequestStore> Answerer for Dispatch<'_, S> {
    const SPAN: &'static str = "serve.server.answer_request";

    fn answer(&mut self, batch: &Batch) -> Result<Answered, String> {
        let request = batch.request(&self.distances);
        let sent = Instant::now();
        let response = self.store.answer_request(&request);
        let done = Instant::now();
        match response {
            Response::Floats(floats) => Ok(Answered {
                floats,
                gens: (0, 0),
                sent,
                done,
            }),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }
}

/// Rung 2: what the wire codec alone costs one exchange — request encode
/// and decode, then response encode and decode — with the answer itself
/// computed outside the timed interval.
pub struct Codec<'a, S: RequestStore> {
    /// The store that produces the responses to encode.
    pub store: &'a S,
    /// The workload's distance grid.
    pub distances: [f64; 5],
}

impl<S: RequestStore> Answerer for Codec<'_, S> {
    const SPAN: &'static str = "serve.proto.codec";

    fn answer(&mut self, batch: &Batch) -> Result<Answered, String> {
        let request = batch.request(&self.distances);
        let response = self.store.answer_request(&request);
        let sent = Instant::now();
        let request_back = Request::decode(&request.encode());
        let response_back = Response::decode(&response.encode());
        let done = Instant::now();
        if request_back.as_ref().ok() != Some(&request) {
            return Err("request did not survive the codec".into());
        }
        match response_back {
            Ok(Response::Floats(floats)) => Ok(Answered {
                floats,
                gens: (0, 0),
                sent,
                done,
            }),
            other => Err(format!("response did not survive the codec: {other:?}")),
        }
    }
}
