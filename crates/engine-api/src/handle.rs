//! The [`EngineHandle`] trait: what a serving front-end needs from an
//! engine, and nothing else.

use std::sync::mpsc::Sender;
use std::sync::Arc;

use pard_metrics::RequestLog;
use pard_obs::FlightRecorder;
use pard_pipeline::PipelineSpec;
use pard_runtime::{Completion, CompletionHandler, EdgeState};
use pard_sim::{SimDuration, SimTime};

/// Engine-assigned request identifier, unique for the lifetime of the
/// engine. Travels on the wire as a JSON number, so engines keep ids
/// within f64's exact-integer range.
pub type RequestId = u64;

/// Per-request submission parameters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitSpec {
    /// End-to-end latency budget; the pipeline's SLO when `None`.
    pub slo: Option<SimDuration>,
    /// Opaque caller tag echoed back verbatim in the [`Completion`].
    pub tag: u64,
    /// Scheduled virtual arrival for deterministic replay: a stepped
    /// engine advances its clock to this instant (gating background
    /// pumping) before stamping the request. `None` marks ordinary
    /// traffic and *releases* any replay gate — otherwise one replay
    /// interaction would leave the clock gated and starve every later
    /// plain request, whose events always lie beyond the gate. Live
    /// engines ignore the field.
    pub at: Option<SimTime>,
}

impl SubmitSpec {
    /// Overrides the per-request SLO.
    pub fn with_slo(mut self, slo: SimDuration) -> SubmitSpec {
        self.slo = Some(slo);
        self
    }

    /// Sets the caller tag.
    pub fn with_tag(mut self, tag: u64) -> SubmitSpec {
        self.tag = tag;
        self
    }

    /// Sets the scheduled virtual arrival (deterministic replay).
    pub fn with_at(mut self, at: SimTime) -> SubmitSpec {
        self.at = Some(at);
        self
    }
}

/// A running PARD serving engine, simulated or live.
///
/// All methods take `&self`: a handle is shared across a front-end's
/// threads (readers submit, a poller snapshots edge state, a pump
/// thread drives simulated time). Implementations are internally
/// synchronised.
pub trait EngineHandle: Send + Sync {
    /// The pipeline specification being served.
    fn spec(&self) -> &PipelineSpec;

    /// Current virtual time. Live engines derive it from the wall
    /// clock; simulated engines freeze it while idle.
    fn now(&self) -> SimTime;

    /// Submits one request; returns its id. The terminal state arrives
    /// at the completion handler.
    fn submit(&self, spec: SubmitSpec) -> RequestId;

    /// [`EngineHandle::submit`], calling `filed` with the new id before
    /// any other thread can step the request. A front-end records what
    /// it knows about the request there (its admission decision), so
    /// that record precedes the request's stage and completion events
    /// even when another thread's `pump` or `settle` runs right after
    /// the submit. A stepped engine calls `filed` under its internal
    /// lock, so it must not call back into the engine. The default
    /// submits, then calls `filed`: a self-driving engine records a
    /// request's first stage only after executing a batch.
    fn submit_then(&self, spec: SubmitSpec, filed: &mut dyn FnMut(RequestId)) -> RequestId {
        let id = self.submit(spec);
        filed(id);
        id
    }

    /// Snapshot of the state edge admission control needs.
    fn edge_state(&self) -> EdgeState;

    /// Registers the handler called with each [`Completion`] the moment
    /// its request resolves, replacing any previous one. It runs on the
    /// resolving thread — a live worker, or the caller of `pump`,
    /// `advance_to`, a scheduled `submit` or `drain` on a stepped
    /// engine — possibly under the engine's internal lock, so it must
    /// not call back into the engine. Locks it takes rank below the
    /// engine's (the gateway's order: engine → pending shard → shard
    /// inbox, never the reverse). Nothing is delivered after `drain`
    /// returns.
    fn set_completion_handler(&self, handler: CompletionHandler);

    /// [`EngineHandle::set_completion_handler`] forwarding each completion
    /// into `sink`; sends to a hung-up receiver are discarded.
    fn set_completion_sink(&self, sink: Sender<Completion>) {
        self.set_completion_handler(Arc::new(move |completion| {
            let _ = sink.send(completion);
        }));
    }

    /// Whether this engine's virtual time only advances when driven
    /// ([`EngineHandle::pump`] / [`EngineHandle::advance_to`]). Live
    /// engines are self-driving and return `false`; front-ends use
    /// this to tell "stalled because nothing drives the clock past the
    /// gate" from "still working" during drains.
    fn stepped(&self) -> bool {
        false
    }

    /// Drives engines whose virtual time does not advance on its own
    /// (the stepped simulator). Returns whether any progress was made —
    /// `false` means the caller may idle briefly. Live engines are
    /// self-driving and always return `false`.
    fn pump(&self) -> bool {
        false
    }

    /// Lets a submitting thread take the engine's next bounded step
    /// itself, so a request can resolve — and be answered — on the
    /// thread that submitted it, without waking whoever drives
    /// [`EngineHandle::pump`].
    ///
    /// Runs at most one bounded step on the calling thread; any
    /// completions it resolves reach the handler on this thread before
    /// `settle` returns. Returns `true` only when no request is left
    /// unresolved; `false` means the caller should leave the remaining
    /// work to the pump. The default does nothing and returns `false`,
    /// which is the right answer for self-driving engines and for any
    /// engine whose step might block: `pump` stays the one call a
    /// front-end supervises with a watchdog.
    fn settle(&self) -> bool {
        false
    }

    /// Moves virtual time to exactly `t` for engines with a stepped
    /// clock, processing every due event on the way (completions reach
    /// the handler) — the scheduled-replay primitive: a driver replaying a
    /// known arrival schedule advances to each arrival time before
    /// submitting, which also gates background pumping so outcomes are
    /// a pure function of the schedule and the seed (see
    /// [`pard_cluster::SimServer::advance_to`]). Calls must use
    /// non-decreasing `t`. Returns `false` on engines whose clock
    /// cannot be steered (the live runtime), which ignore the call.
    fn advance_to(&self, _t: SimTime) -> bool {
        false
    }

    /// Resolves in-flight requests (bounded by `limit` of virtual
    /// time), stops the engine, and returns the request log. The first
    /// call takes the log and drops the completion handler; later calls
    /// return an empty log. An engine built without the request log
    /// ([`EngineBuilder::keep_request_log`](crate::EngineBuilder::keep_request_log)
    /// `false`) always returns an empty log.
    fn drain(&self, limit: SimDuration) -> RequestLog;

    /// The engine's flight recorder, if it records lifecycle events.
    ///
    /// Both shipped engines (sim and live) record by default with the
    /// same event vocabulary and clocks, so a front-end can expose one
    /// `/flightrecord` endpoint — and a harness can explain a diverging
    /// golden — without caring which engine is behind the handle. The
    /// front-end also records its *edge* events (admission decisions
    /// with their Eq. 3 inputs) into the same ring, keeping one
    /// time-ordered stream per engine.
    fn telemetry(&self) -> Option<Arc<FlightRecorder>> {
        None
    }
}
