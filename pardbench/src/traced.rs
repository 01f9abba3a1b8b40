//! The in-process traced run.
//!
//! It sends the same generated lines through each layer's public
//! functions in the order the gateway calls them, with a span around
//! every call: `ClientLine::decode` → (`advance_to`) → edge snapshot →
//! `EdgeSnapshot::decide_traced` → `PendingMap::reserve_tenant` →
//! `EngineHandle::submit` → `PendingMap::insert_tenant` → (`pump`) →
//! completion → `take_or_stash` → `Response::encode_into`. The
//! engine's drained `RequestLog` then gives the per-module stage and
//! GPU-share numbers. All tracing lives here; the program is not
//! instrumented.

use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use pard_core::Decision;
use pard_engine_api::{Completion, EngineBuilder, EngineHandle, SubmitSpec};
use pard_gateway::wire::ClientLine;
use pard_gateway::{EdgeSnapshot, PendingMap, Response, WireOutcome, EDGE_ID_BASE};
use pard_metrics::{Outcome, RequestLog};
use pard_obs::{ObsEvent, ObsKind};
use pard_sim::{SimDuration, SimTime};

use crate::client::Lines;
use crate::proto::Kind;
use crate::stats::Span;
use crate::workload::{Mode, Workload};

/// Traced layers, in table order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One request line through the server path (root span).
    Handle,
    /// One completion through the dispatcher path (root span).
    Dispatch,
    Decode,
    Advance,
    Refresh,
    Decide,
    Reserve,
    Submit,
    Insert,
    Pump,
    Take,
    Encode,
    Build,
}

pub const LAYERS: [(Layer, &str); 13] = [
    (Layer::Handle, "server.handle"),
    (Layer::Dispatch, "server.dispatch"),
    (Layer::Decode, "wire.decode"),
    (Layer::Advance, "engine.advance"),
    (Layer::Refresh, "admission.refresh"),
    (Layer::Decide, "admission.decide"),
    (Layer::Reserve, "pending.reserve"),
    (Layer::Submit, "engine.submit"),
    (Layer::Insert, "pending.insert"),
    (Layer::Pump, "engine.pump"),
    (Layer::Take, "pending.take"),
    (Layer::Encode, "wire.encode"),
    (Layer::Build, "engine.build"),
];

/// `req` of spans that serve no single request (the snapshot poller,
/// engine construction).
pub const NO_REQ: u32 = u32::MAX;

/// How often the gateway's poller republishes the edge snapshot for
/// the free-running path (`GatewayConfig::edge_refresh`).
const EDGE_REFRESH: Duration = Duration::from_millis(10);

/// The span buffer: preallocated, appended in place, read at the end.
pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::with_capacity(n),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: Layer, req: u32) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer: layer as u8,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() as u32 - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let index = self.open.pop().expect("exit without enter") as usize;
        self.spans[index].end_ns = end;
    }

    /// Re-labels the request of the innermost open span and of the
    /// `count - 1` spans recorded after it.
    pub fn relabel_last(&mut self, count: usize, req: u32) {
        let from = self.spans.len().saturating_sub(count);
        self.spans[from..].iter_mut().for_each(|s| s.req = req);
    }

    /// `f` under a span.
    pub fn span<T>(&mut self, layer: Layer, req: u32, f: impl FnOnce() -> T) -> T {
        self.enter(layer, req);
        let out = f();
        self.exit();
        out
    }
}

/// Cost of one empty span (enter + exit), ns — the tracing overhead
/// every traced call carries.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let mut tracer = Tracer::with_capacity(N);
    let start = Instant::now();
    for i in 0..N {
        tracer.enter(Layer::Handle, i as u32);
        tracer.exit();
    }
    let ns = start.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(&tracer.spans);
    ns
}

/// Everything one traced repetition measured.
pub struct TracedRep {
    pub spans: Vec<Span>,
    pub kinds: Vec<Kind>,
    /// Bytes of request lines plus encoded answers.
    pub bytes: u64,
    pub peak_pending: usize,
    /// Completions delivered per clock-driving engine call (sim) or
    /// per dispatcher wake-up (live).
    pub completions_per_call: Vec<f64>,
    /// Engine resolution to dispatcher pick-up, µs.
    pub complete_lag_us: Vec<f64>,
    pub submitted: u64,
    pub decode_failures: u64,
    pub reserve_failures: u64,
    /// Heap bytes still held after every request resolved, before the
    /// log is drained.
    pub retained_bytes: i64,
    pub recorder_events: u64,
    pub log: RequestLog,
    pub build_ms: f64,
}

/// One admitted request waiting in the pending table.
struct Entry {
    seq: Option<u64>,
}

/// The composed serving path with its tracer.
struct Composed<'a> {
    w: &'a Workload,
    engine: Box<dyn EngineHandle>,
    rx: Receiver<Completion>,
    pending: PendingMap<Entry, Completion>,
    source: usize,
    paths: Vec<Vec<usize>>,
    snapshot: EdgeSnapshot,
    refreshed: Instant,
    edge_seq: u64,
    answered: usize,
    tracer: Tracer,
    out: String,
    rep: TracedRep,
}

impl Composed<'_> {
    fn fresh_snapshot(&self) -> EdgeSnapshot {
        EdgeSnapshot::new(self.engine.edge_state(), self.source, &self.paths)
    }

    /// Encodes one answer and files its outcome.
    fn answer(&mut self, response: Response, req: u32) {
        self.out.clear();
        let out = &mut self.out;
        self.tracer
            .span(Layer::Encode, req, || response.encode_into(out));
        self.rep.bytes += self.out.len() as u64 + 1;
        let kind = match (response.outcome, response.edge) {
            (WireOutcome::Ok, _) => Kind::Ok,
            (WireOutcome::Violated, _) => Kind::Violated,
            (WireOutcome::Dropped, true) => Kind::EdgeDrop,
            (WireOutcome::Dropped, false) => Kind::PipelineDrop,
        };
        if let Some(slot) = response
            .seq
            .and_then(|s| self.rep.kinds.get_mut(s as usize))
        {
            if *slot == Kind::Unanswered {
                self.answered += 1;
            }
            *slot = kind;
        }
    }

    /// The dispatcher: every completion the engine has delivered;
    /// returns how many there were.
    fn dispatch(&mut self, delivered_at: Instant) -> usize {
        let mut count = 0;
        while let Ok(completion) = self.rx.try_recv() {
            count += 1;
            self.dispatch_one(completion, delivered_at);
        }
        count
    }

    /// Moves virtual time (sim) and dispatches what resolved.
    fn advance(&mut self, to_us: u64, req: u32) {
        let engine = &self.engine;
        self.tracer.span(Layer::Advance, req, || {
            engine.advance_to(SimTime::from_micros(to_us))
        });
        let n = self.dispatch(Instant::now());
        self.rep.completions_per_call.push(n as f64);
    }

    fn dispatch_one(&mut self, completion: Completion, delivered_at: Instant) {
        // The request is known only once its entry is taken; both spans
        // are re-labelled then.
        self.tracer.enter(Layer::Dispatch, NO_REQ);
        let lag_us = if self.engine.stepped() {
            delivered_at.elapsed().as_secs_f64() * 1e6
        } else {
            let resolved = match completion.outcome {
                Outcome::Completed { finished } => finished,
                Outcome::Dropped { at, .. } => at,
                Outcome::InFlight => self.engine.now(),
            };
            self.engine.now().saturating_since(resolved).as_secs_f64() * 1e6 / self.w.scale
        };
        self.rep.complete_lag_us.push(lag_us);
        let pending = &self.pending;
        let taken = self.tracer.span(Layer::Take, NO_REQ, || {
            pending.take_or_stash(completion.id, completion)
        });
        if let Some(entry) = taken {
            let req = entry.seq.map_or(NO_REQ, |s| s as u32);
            self.tracer.relabel_last(2, req);
            self.answer(reply(&completion, entry.seq), req);
        }
        self.tracer.exit();
    }

    /// One protocol line through the server path.
    fn handle(&mut self, text: &str, req: u32) {
        self.tracer.enter(Layer::Handle, req);
        let text = text.trim();
        let decoded = self
            .tracer
            .span(Layer::Decode, req, || ClientLine::decode(text));
        let request = match decoded {
            Ok(ClientLine::Request(request)) => request,
            Ok(ClientLine::Advance { to_us }) => {
                self.advance(to_us, req);
                self.tracer.exit();
                return;
            }
            _ => {
                self.rep.decode_failures += 1;
                self.tracer.exit();
                return;
            }
        };
        let snapshot = match request.at_us {
            // Scheduled replay: clock to the arrival, then a snapshot
            // taken at exactly that instant (`serve_scheduled`).
            Some(at) => {
                self.advance(at, req);
                self.tracer.enter(Layer::Refresh, req);
                let snapshot = self.fresh_snapshot();
                self.tracer.exit();
                snapshot
            }
            // Free-running: the poller's published snapshot, refreshed
            // on its cadence; poller work belongs to no request.
            None => {
                if self.refreshed.elapsed() >= EDGE_REFRESH {
                    self.tracer.enter(Layer::Refresh, NO_REQ);
                    self.snapshot = self.fresh_snapshot();
                    self.tracer.exit();
                    self.refreshed = Instant::now();
                }
                self.snapshot.clone()
            }
        };
        let now = self.engine.now();
        let slo = request
            .slo_ms
            .map(SimDuration::saturating_from_millis)
            .unwrap_or(self.engine.spec().slo);
        let deadline = now.saturating_add(slo);
        let (decision, trace) = self
            .tracer
            .span(Layer::Decide, req, || snapshot.decide_traced(now, deadline));
        let recorder = self.engine.telemetry();
        let record = |id: u64, reason| {
            if let Some(recorder) = &recorder {
                recorder.record(&ObsEvent {
                    t_us: now.as_micros(),
                    req: id,
                    kind: ObsKind::EdgeDecision {
                        lead_us: trace.lead_us,
                        sub_us: trace.sub_us,
                        slack_us: trace.slack_us,
                        reason,
                    },
                });
            }
        };
        match decision {
            Decision::Drop(reason) => {
                let id = EDGE_ID_BASE + self.edge_seq;
                self.edge_seq += 1;
                record(id, Some(reason));
                self.answer(
                    Response::dropped(id, request.seq, true, reason.label()),
                    req,
                );
            }
            Decision::Admit => {
                let pending = &self.pending;
                if !self
                    .tracer
                    .span(Layer::Reserve, req, || pending.reserve_tenant(0))
                {
                    self.rep.reserve_failures += 1;
                    self.tracer.exit();
                    return;
                }
                let engine = &self.engine;
                let spec = SubmitSpec {
                    slo: Some(slo),
                    tag: 0,
                    at: request.at_us.map(SimTime::from_micros),
                };
                let id = self.tracer.span(Layer::Submit, req, || engine.submit(spec));
                self.rep.submitted += 1;
                record(id, None);
                let entry = Entry { seq: request.seq };
                let pending = &self.pending;
                let raced = self
                    .tracer
                    .span(Layer::Insert, req, || pending.insert_tenant(id, 0, entry));
                self.rep.peak_pending = self.rep.peak_pending.max(self.pending.len());
                if let Some(completion) = raced {
                    self.answer(reply(&completion, request.seq), req);
                }
                if request.at_us.is_some() {
                    // A scheduled submit advances the clock to its
                    // arrival, so completions can fire inside it.
                    self.dispatch(Instant::now());
                }
            }
        }
        self.tracer.exit();
    }
}

/// The gateway's completion classification (`completion_reply`).
fn reply(completion: &Completion, seq: Option<u64>) -> Response {
    let latency_ms = completion
        .latency()
        .map(|d| d.as_millis_f64())
        .unwrap_or(0.0);
    match completion.outcome {
        Outcome::Completed { .. } if completion.within_slo() => {
            Response::ok(completion.id, seq, latency_ms)
        }
        Outcome::Completed { .. } => Response::violated(completion.id, seq, latency_ms),
        Outcome::Dropped { reason, .. } => {
            Response::dropped(completion.id, seq, false, reason.label())
        }
        Outcome::InFlight => unreachable!("completions are terminal"),
    }
}

/// Runs one traced repetition of `lines`, the same lines the untraced
/// client sends, followed by `tail` (the replay's final clock advance;
/// empty otherwise). `due` paces the open loop. The traced path serves
/// one request at a time: a closed loop keeps one request outstanding.
pub fn run(w: &Workload, lines: &Lines, tail: &str, due: &[Duration]) -> Result<TracedRep, String> {
    let n = lines.len();
    let mut tracer = Tracer::with_capacity(n * 16 + 1024);
    tracer.enter(Layer::Build, NO_REQ);
    let build_start = Instant::now();
    let engine = EngineBuilder::new(w.app.pipeline())
        .build(w.engine_backend())
        .map_err(|e| format!("engine build: {e}"))?;
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    tracer.exit();
    let (tx, rx) = mpsc::channel();
    engine.set_completion_sink(tx);
    let source = engine.spec().source();
    let paths = pard_pipeline::graph::downstream_paths(engine.spec(), source);
    let snapshot = EdgeSnapshot::new(engine.edge_state(), source, &paths);
    let mut path = Composed {
        w,
        engine,
        rx,
        pending: PendingMap::with_tenants(8192, vec![0]),
        source,
        paths,
        snapshot,
        refreshed: Instant::now(),
        edge_seq: 0,
        answered: 0,
        tracer,
        out: String::with_capacity(256),
        rep: TracedRep {
            spans: Vec::new(),
            kinds: vec![Kind::Unanswered; n],
            bytes: (lines.text.len() + tail.len()) as u64,
            peak_pending: 0,
            completions_per_call: Vec::with_capacity(4 * n + 64),
            complete_lag_us: Vec::with_capacity(n + 64),
            submitted: 0,
            decode_failures: 0,
            reserve_failures: 0,
            retained_bytes: 0,
            recorder_events: 0,
            log: RequestLog::new(),
            build_ms,
        },
    };
    let line = |i: usize| std::str::from_utf8(lines.line(i)).expect("generated lines are UTF-8");
    let baseline = crate::live_bytes();
    match w.mode {
        Mode::Replay => {
            for i in 0..n {
                path.handle(line(i), i as u32);
            }
            path.handle(tail, NO_REQ);
        }
        Mode::Closed => {
            for i in 0..n {
                path.handle(line(i), i as u32);
                while path.rep.kinds[i] == Kind::Unanswered {
                    let engine = &path.engine;
                    let progressed = path.tracer.span(Layer::Pump, i as u32, || engine.pump());
                    let delivered = path.dispatch(Instant::now());
                    path.rep.completions_per_call.push(delivered as f64);
                    if !progressed && delivered == 0 {
                        break;
                    }
                }
            }
        }
        Mode::Open => {
            let start = Instant::now();
            let mut next = 0;
            let mut quiet_since = Instant::now();
            while next < n || path.answered < n {
                while next < n && start + due[next] <= Instant::now() {
                    path.handle(line(next), next as u32);
                    next += 1;
                }
                let wait = match due.get(next) {
                    Some(d) => (start + *d).saturating_duration_since(Instant::now()),
                    None => Duration::from_millis(5),
                };
                if let Ok(first) = path.rx.recv_timeout(wait) {
                    let at = Instant::now();
                    path.dispatch_one(first, at);
                    let more = path.dispatch(at);
                    path.rep.completions_per_call.push(1.0 + more as f64);
                    quiet_since = Instant::now();
                } else if next >= n && quiet_since.elapsed() > Duration::from_secs(20) {
                    break;
                }
            }
        }
    }
    path.rep.retained_bytes = crate::live_bytes() - baseline;
    path.rep.recorder_events = path.engine.telemetry().map_or(0, |r| r.emitted());
    path.rep.log = path.engine.drain(SimDuration::from_secs(30));
    path.rep.spans = std::mem::take(&mut path.tracer.spans);
    Ok(path.rep)
}
