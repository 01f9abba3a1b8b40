//! The TCP serving front-end.
//!
//! One process serves *many* apps: each wire request routes by its
//! `app` field to a registered [`pard_engine_api::EngineHandle`] (the
//! live threaded runtime or the deterministic simulator), and every
//! app shares one connection fabric, one pending table (with per-tenant
//! weighted-fair quotas), and one observability listener. The PARD
//! admission check runs at accept time — a hopeless request is
//! answered `dropped` without ever touching a worker queue. Requests
//! carrying a scheduled arrival (`at_us`, deterministic trace replay)
//! first steer a stepped engine's virtual clock to that instant and
//! are admitted against a snapshot taken there, making replayed
//! scenarios bit-reproducible end to end — including replays split
//! across many connections, which coordinate through `replay_join`
//! watermarks (see [`crate::wire::ClientLine::Join`]).
//!
//! # The event loop
//!
//! Connection I/O is readiness-based, not thread-per-connection: a
//! small fixed pool of shard threads each runs a level-triggered
//! [`crate::netpoll::Poller`] over its slice of nonblocking sockets,
//! so one process holds tens of thousands of connections without tens
//! of thousands of stacks. Cross-thread work (new connections from the
//! acceptor, completion replies from whichever thread resolved the
//! request) arrives on a per-shard inbox whose self-pipe waker
//! interrupts a sleeping poll; a `sleeping` flag keeps the wake syscall
//! off the path while the shard is busy. Each shard processes a
//! bounded number of lines per connection per tick, so one pipelining
//! flood cannot starve the polite connections sharing its shard.
//!
//! # The hot path
//!
//! * **Admission is lock-free.** The poller publishes an immutable
//!   [`EdgeSnapshot`] (with the critical-path admission arithmetic
//!   precomputed) through an epoch counter; each shard thread
//!   revalidates its cached `Arc` with a single atomic load and
//!   decides with pure arithmetic — no lock, no clone, no allocation
//!   (see [`crate::admission::EdgePublisher`]).
//! * **The pending table is sharded and tenant-fair.** Submits and
//!   completions on different requests land on different
//!   [`crate::pending::PendingMap`] shards; capacity is one atomic
//!   reservation, the submit/complete race is closed by orphan parking,
//!   and under overload each app keeps a guaranteed share of the table
//!   (see [`PendingMap::with_tenants`]).
//! * **Per-tenant rate limits run at the edge.** An app configured
//!   with a [`RateLimit`] refuses excess requests with a
//!   `rate_limited` envelope before the admission math runs — the
//!   token bucket refills on the engine's own clock, so limits are
//!   deterministic under simulated time.
//! * **The submitting shard settles the sim.** After a free-running
//!   submit to a stepped engine, the shard takes the engine's next
//!   bounded step itself ([`EngineHandle::settle`]), so a closed-loop
//!   request resolves, is answered and is flushed in the same shard
//!   tick, with no thread handoff. Only work that one step leaves
//!   unresolved wakes the pump thread, which stays the one caller of
//!   the watchdog-supervised `pump`.
//! * **Completions are answered where they resolve.** The engine calls
//!   the gateway's handler on the resolving thread (submitting or
//!   replaying shard, pump or live worker), which queues the reply on
//!   the shard inbox directly. Locks nest engine → pending shard →
//!   shard inbox.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use pard_core::Decision;
use pard_engine_api::{Completion, CompletionHandler, EngineHandle, SubmitSpec};
use pard_metrics::{DropReason, ModuleDropCounters, Outcome, RequestLog, ServingCounters};
use pard_obs::{EngineFrame, FlightRecorder, FrameBus, ObsEvent, ObsKind};
use pard_sim::{SimDuration, SimTime, TokenBucket};

use crate::adaptive::{AdaptiveConfig, AdaptiveState};
use crate::admission::{EdgePublisher, EdgeSnapshot, SnapshotReader};
use crate::netpoll::{Poller, Waker, READABLE, WRITABLE};
use crate::pending::PendingMap;
use crate::telemetry::{window_rates, RttWindow, DEFAULT_RTT_SAMPLES};
use crate::wire::{seq_hint, ClientLine, ErrorCode, Request, Response};

/// Hard cap on one request line; a connection exceeding it gets an
/// error response and is closed, bounding per-connection memory against
/// newline-free byte streams.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Ids for edge-rejected requests live in their own space so they can
/// never collide with engine-assigned ids (record indices, which a
/// process cannot push anywhere near 2^52). The base is kept within
/// f64's exact-integer range because wire ids travel as JSON numbers:
/// 2^52 + seq round-trips exactly for any realistic seq, where 2^63
/// would silently lose its low bits.
pub const EDGE_ID_BASE: u64 = 1 << 52;

/// Pending-table keys namespace the engine-assigned id by app index so
/// two engines assigning the same dense ids cannot collide in the
/// shared table. App 0's keys equal its raw ids (the single-app case
/// is bit-identical to the pre-multi-tenant gateway), and the shift
/// clears both the engine-id range and [`EDGE_ID_BASE`].
const TENANT_SHIFT: u32 = 54;

#[inline]
fn pending_key(app: usize, id: u64) -> u64 {
    ((app as u64) << TENANT_SHIFT) | id
}

/// Reserved poller token for a shard's inbox waker.
const WAKER_TOKEN: u64 = u64::MAX;

/// Upper bound on protocol lines served per connection per shard tick;
/// connections with more buffered lines go to the shard's backlog so a
/// pipelining flood cannot starve its shard-mates.
const LINES_PER_TICK: usize = 64;

/// Upper bound on bytes read from one connection per shard tick
/// (level-triggered readiness re-fires for the rest).
const READ_BUDGET: usize = 256 * 1024;

/// Idle poll tick; bounds how stale shutdown/discard-deadline checks
/// can get when no I/O is flowing.
const TICK_MS: i32 = 100;

/// Gateway configuration (networking only — engine construction lives
/// in [`pard_engine_api::EngineBuilder`]).
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Listen address for the request protocol (`port 0` = ephemeral).
    pub addr: String,
    /// Listen address for the `/metrics` endpoint.
    pub metrics_addr: String,
    /// How often the admission snapshot refreshes (wall clock).
    pub edge_refresh: Duration,
    /// Cap on simultaneously admitted-but-unresolved requests; above
    /// it new requests are answered with [`ErrorCode::Overloaded`].
    /// With multiple apps, half the table is guaranteed to tenants in
    /// proportion to their weights and the rest is shared headroom.
    pub max_pending: usize,
    /// Whether the deterministic-replay controls (`at_us` arrival
    /// stamps, `advance_us` / `replay_join` control lines) are
    /// honoured. Replay steers the *shared* virtual clock, so it is a
    /// cooperative testing discipline: any client could fast-forward
    /// time past every other connection's deadlines. Disable on
    /// gateways serving mutually untrusting clients; such requests are
    /// then answered with a `malformed` envelope.
    pub allow_replay: bool,
    /// How often the telemetry sampler publishes an [`EngineFrame`]
    /// (the `/events` stream's cadence, wall clock).
    pub telemetry_period: Duration,
    /// Event-loop shard threads sharing the connection population.
    pub shards: usize,
    /// Online re-planning and brownout control (see [`crate::adaptive`]).
    /// `None` (the default) keeps the floor on the static profile —
    /// byte-identical to the pre-adaptive gateway.
    pub adaptive: Option<AdaptiveConfig>,
    /// Deterministic connection-chaos injection for robustness tests;
    /// `None` disables every fault.
    pub chaos: Option<ChaosConfig>,
    /// Engine-pump watchdog: a pump call exceeding this wall-clock
    /// budget marks its app unhealthy (in-flight requests are answered
    /// `shutting_down`, new ones refused). Pump *panics* always trip
    /// the watchdog regardless of this setting. `None` disables the
    /// stall check only.
    pub pump_stall: Option<Duration>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:7311".into(),
            metrics_addr: "127.0.0.1:7312".into(),
            edge_refresh: Duration::from_millis(10),
            max_pending: 8192,
            allow_replay: true,
            telemetry_period: Duration::from_millis(100),
            shards: 4,
            adaptive: None,
            chaos: None,
            pump_stall: None,
        }
    }
}

/// Deterministic connection-fault injection, counter-based (no RNG) so
/// a replayed scenario hits the same faults at the same protocol
/// positions every run. All faults are at the socket layer; the
/// admission and engine state machines above them are untouched, which
/// is exactly what the robustness tests pin down.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Cap on bytes written per flush call — forces partial writes and
    /// cross-tick `WANT_WRITE` resumes.
    pub max_write_chunk: Option<usize>,
    /// Skip every Nth read tick per connection (a read stall: the
    /// level-triggered poller re-delivers the readiness, so the bytes
    /// arrive one tick late).
    pub read_stall_every: Option<u64>,
    /// After every Nth served protocol line per connection, fail the
    /// connection's writes (a mid-request reset: the reply is computed
    /// but never delivered; the sweep closes the socket).
    pub reset_every: Option<u64>,
}

/// Per-app edge rate limit: a token bucket refilled on the app
/// engine's clock (virtual on the simulator — deterministic limits
/// under replay; wall-backed on live engines).
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Sustained admission rate, requests per (engine) second.
    pub rate_per_sec: f64,
    /// Burst allowance, requests.
    pub burst: f64,
}

/// One app served by the gateway: its engine plus edge policy.
pub struct AppConfig {
    /// The engine behind this app; its `spec().name` is the wire
    /// `app` field that routes to it.
    pub engine: Box<dyn EngineHandle>,
    /// Optional per-tenant edge rate limit.
    pub rate_limit: Option<RateLimit>,
    /// Weighted-fair share of the pending table under overload
    /// (relative to the other apps' weights; min 1).
    pub weight: usize,
}

impl AppConfig {
    /// An app with no rate limit and weight 1.
    pub fn new(engine: Box<dyn EngineHandle>) -> AppConfig {
        AppConfig {
            engine,
            rate_limit: None,
            weight: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-thread plumbing: shard inboxes and reply sinks
// ---------------------------------------------------------------------------

/// One unit of cross-thread work for a shard: a freshly accepted
/// connection, or bytes to queue on one of its connections.
enum ShardMsg {
    /// Hand over a new connection (from the accept thread).
    Conn(TcpStream),
    /// A typed outcome reply for connection `token`; `settles` marks a
    /// reply that retires one owed response (see [`ReplySink`]).
    Reply {
        token: u64,
        response: Response,
        settles: bool,
    },
    /// An already-encoded line (error envelopes — the cold path).
    Line {
        token: u64,
        line: String,
        settles: bool,
    },
}

/// A shard's mailbox: senders push under a short lock and wake the
/// shard's poller only when it declared itself asleep, so the wake
/// syscall stays off the path while the shard is busy. The shard sets
/// `sleeping` *before* its final emptiness check, which closes the
/// lost-wakeup race (a push between check and sleep sees the flag).
struct ShardInbox {
    queue: Mutex<Vec<ShardMsg>>,
    waker: Waker,
    sleeping: AtomicBool,
}

impl ShardInbox {
    fn new() -> io::Result<ShardInbox> {
        Ok(ShardInbox {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            sleeping: AtomicBool::new(false),
        })
    }

    fn push(&self, msg: ShardMsg) {
        self.queue.lock().push(msg);
        if self.sleeping.load(Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    /// Moves all queued messages into `into` (appended).
    fn take(&self, into: &mut Vec<ShardMsg>) {
        let mut queue = self.queue.lock();
        into.append(&mut queue);
    }

    fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }
}

/// Where replies for one connection go: its shard's inbox, addressed
/// by connection token. Cloneable and thread-safe, so completion
/// handlers and replay drains reply from any thread.
///
/// `outstanding` counts responses the connection is still owed (filed
/// pending entries plus parked replay requests); a connection whose
/// peer half-closed stays open until the count reaches zero, matching
/// the old writer-thread semantics where pending entries kept the
/// writer alive.
#[derive(Clone)]
struct ReplySink {
    inbox: Arc<ShardInbox>,
    token: u64,
    outstanding: Arc<AtomicI64>,
}

impl ReplySink {
    fn reply(&self, response: Response, settles: bool) {
        self.inbox.push(ShardMsg::Reply {
            token: self.token,
            response,
            settles,
        });
    }

    fn line(&self, line: String, settles: bool) {
        self.inbox.push(ShardMsg::Line {
            token: self.token,
            line,
            settles,
        });
    }
}

struct PendingEntry {
    sink: ReplySink,
    seq: Option<u64>,
}

// ---------------------------------------------------------------------------
// Pump signalling (unchanged from the thread-per-connection gateway)
// ---------------------------------------------------------------------------

/// Wakes the pump thread the moment a submit leaves it work (whatever
/// the submitting shard's [`EngineHandle::settle`] step did not
/// resolve), so stepped engines resolve requests at notify latency
/// instead of on the next idle-sleep tick.
///
/// The fast path is one `armed` load: while the pump is actively
/// working (or the engine is live and never pumps), submitters skip
/// the signal mutex entirely. The generation counter closes the lost-
/// wakeup race: the pump reads the generation *before* its final
/// empty-handed `pump()`, and [`PumpSignal::wait_after`] refuses to
/// sleep if any notify moved the generation since — a submit that
/// landed between the check and the wait is therefore never slept
/// through (the engine-mutex ordering makes the submitter's `armed`
/// load observe the pump's store).
struct PumpSignal {
    generation: Mutex<u64>,
    cv: Condvar,
    armed: AtomicBool,
}

impl PumpSignal {
    fn new() -> PumpSignal {
        PumpSignal {
            generation: Mutex::new(0),
            cv: Condvar::new(),
            armed: AtomicBool::new(false),
        }
    }

    /// Declares intent to sleep; returns the generation to hand to
    /// [`PumpSignal::wait_after`]. Call *before* the final work check.
    fn arm(&self) -> u64 {
        self.armed.store(true, Ordering::SeqCst);
        *self.generation.lock()
    }

    /// Withdraws the intent (work was found after all).
    fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Sleeps until a notify or `timeout` — unless the generation
    /// already moved past `observed`, in which case a submit raced the
    /// final check and the pump should run again immediately.
    fn wait_after(&self, observed: u64, timeout: Duration) {
        let mut generation = self.generation.lock();
        if *generation == observed {
            self.cv.wait_for(&mut generation, timeout);
        }
        drop(generation);
        self.disarm();
    }

    /// Wakes an armed pump; a no-op (one atomic load) while the pump
    /// is busy.
    fn notify(&self) {
        if !self.armed.load(Ordering::SeqCst) {
            return;
        }
        *self.generation.lock() += 1;
        self.cv.notify_all();
    }

    /// Unconditional wake (shutdown).
    fn force_notify(&self) {
        *self.generation.lock() += 1;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Per-app state and the shared core
// ---------------------------------------------------------------------------

/// Everything one app's request handling needs.
struct AppState {
    /// Position in [`Core::apps`]; doubles as the pending-table tenant
    /// index and the pending-key namespace.
    index: usize,
    /// The wire `app` field that routes here (`engine.spec().name`).
    name: String,
    engine: Box<dyn EngineHandle>,
    counters: Arc<ServingCounters>,
    module_drops: Arc<ModuleDropCounters>,
    /// The epoch-published admission snapshot (see the module docs).
    snapshot: EdgePublisher,
    pump_signal: PumpSignal,
    /// The pipeline's entry module (static).
    source: usize,
    /// Downstream paths from the entry module to the sink (static) —
    /// the admission estimate charges the critical one, so parallel
    /// DAG branches are not double-counted.
    paths: Vec<Vec<usize>>,
    /// Cached [`EngineHandle::stepped`]: live engines never need the
    /// pump, so per-request submit paths must not touch the pump
    /// signal for them at all.
    stepped: bool,
    /// The engine's flight recorder ([`EngineHandle::telemetry`]);
    /// edge admission decisions are recorded into the same ring the
    /// engine writes its lifecycle events to, so `/flightrecord`
    /// serves one time-ordered stream.
    recorder: Option<Arc<FlightRecorder>>,
    /// The `/events` stream's frame bus: the sampler publishes, SSE
    /// subscribers wait. Laggy subscribers skip to the latest frame
    /// and can never block the sampler.
    frames: Arc<FrameBus>,
    /// Rolling RTT window behind `pard_gateway_rtt_us` and the frame
    /// quantiles; completions push, scrapes read.
    rtt: Arc<RttWindow>,
    /// Per-tenant edge rate limiter, refilled on this engine's clock.
    limiter: Option<Mutex<TokenBucket>>,
    /// Online re-planner + brownout controller; `None` keeps the floor
    /// on the static profile. Snapshot rebuilds are already serialized
    /// per app in the common case (one poller, or the replay gate), so
    /// the mutex is uncontended — it exists for the race between the
    /// wall-clock poller and a scheduled-replay rebuild, where fold
    /// order must be serialized for determinism.
    adaptive: Option<Mutex<AdaptiveState>>,
    /// `false` once the engine-pump watchdog tripped: the engine is
    /// wedged or panicked, requests are refused, pending ones flushed.
    healthy: AtomicBool,
    /// Wall-clock millis (since gateway start) when the current pump
    /// call began; `u64::MAX` when no pump call is in flight. The
    /// watchdog reads it from the poller thread.
    pump_entered_ms: AtomicU64,
}

impl AppState {
    /// Builds a fresh snapshot from the engine's current state (the
    /// poller tick, and the scheduled-replay path).
    ///
    /// With the adaptive layer on, this is where the feedback loop
    /// closes: drain the engine's flight-recorder stream, fold it into
    /// the estimator, and compute the floor from *observed* per-module
    /// latencies instead of the static profile. Every floor movement
    /// the fold produced is stamped back into the recorder with the
    /// resulting `L_sub`.
    fn fresh_snapshot(&self) -> EdgeSnapshot {
        let mut state = self.engine.edge_state();
        let adjustments = match (&self.adaptive, &self.recorder) {
            (Some(adaptive), Some(recorder)) => {
                adaptive
                    .lock()
                    .observe_and_adjust(recorder, &mut state, self.source)
            }
            _ => Vec::new(),
        };
        let snapshot = EdgeSnapshot::new(state, self.source, &self.paths);
        if !adjustments.is_empty() {
            if let Some(recorder) = &self.recorder {
                let t_us = self.engine.now().as_micros();
                let sub_us = snapshot.floor().sub_total().as_micros();
                for adj in adjustments {
                    recorder.record(&ObsEvent {
                        t_us,
                        req: 0,
                        kind: ObsKind::FloorAdjust {
                            module: adj.module,
                            cause: adj.cause,
                            observed_us: adj.observed_us,
                            profiled_us: adj.profiled_us,
                            sub_us,
                        },
                    });
                }
            }
        }
        snapshot
    }

    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Records one edge admission decision into the engine's flight
    /// recorder: the Eq. 3 inputs plus the verdict. `reason` is the
    /// drop reason for rejections, `None` for admissions. Costs one
    /// ring write; a no-op for engines without a recorder.
    #[inline]
    fn record_edge_decision(
        &self,
        now: SimTime,
        id: u64,
        trace: &crate::admission::EdgeTrace,
        reason: Option<DropReason>,
    ) {
        if let Some(recorder) = &self.recorder {
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
    }

    /// One token-bucket acquire on this app's clock; `true` when no
    /// limit is configured.
    fn admit_rate(&self, now: SimTime) -> bool {
        match &self.limiter {
            Some(limiter) => limiter.lock().try_acquire(now),
            None => true,
        }
    }
}

/// Trips the engine watchdog for one app: stop admitting to it, and
/// answer every in-flight request it owes with `shutting_down` so no
/// client blocks on a reply the dead engine will never complete. The
/// flushed requests were admitted, so they resolve as drops — the
/// `admitted == ok + late + dropped` invariant survives the failure.
/// Idempotent; other apps are untouched.
fn mark_app_unhealthy(core: &Core, app: &AppState, why: &str) {
    if app.healthy.swap(false, Ordering::AcqRel) {
        let app_index = app.index as u64;
        for (_key, entry) in core
            .pending
            .drain_matching(|key| key >> TENANT_SHIFT == app_index)
        {
            app.counters.dropped.incr();
            entry.sink.line(
                Response::error_line(
                    ErrorCode::ShuttingDown,
                    entry.seq,
                    &format!("engine for app {:?} is unavailable ({why})", app.name),
                ),
                true,
            );
        }
    }
}

/// State shared by every serving thread.
struct Core {
    apps: Vec<Arc<AppState>>,
    by_name: HashMap<String, usize>,
    /// The shared pending table; tenant index == app index.
    pending: Arc<PendingMap<PendingEntry, Completion>>,
    /// Edge-rejection id counter, shared across apps so edge ids stay
    /// unique gateway-wide.
    edge_seq: AtomicU64,
    allow_replay: bool,
    /// Stops admitting (requests answered `shutting_down`).
    shutdown: AtomicBool,
    /// Stops the shard event loops entirely (after the drain flush).
    stop_io: AtomicBool,
    /// The multi-connection replay coordinator (see [`ReplayCoordinator`]).
    replay: Mutex<ReplayCoordinator>,
    /// Deterministic connection-fault injection; `None` in production.
    chaos: Option<ChaosConfig>,
    /// Gateway start instant; the pump watchdog's time base.
    epoch: Instant,
}

// ---------------------------------------------------------------------------
// Multi-connection deterministic replay
// ---------------------------------------------------------------------------

/// Orders scheduled requests from `K` cooperating replay connections.
///
/// Each participant's *watermark* is the `at_us` of the last control
/// or scheduled line it sent — its promise that nothing earlier is
/// still coming (arrival schedules are non-decreasing per connection).
/// Scheduled requests park in a heap keyed `(at, party, intra)` and
/// drain strictly below the minimum watermark across all parties, so
/// the admission order — and therefore every admission decision — is a
/// pure function of the schedule, not of socket interleaving. Parked
/// `advance_us` actions drain at-or-below the gate (advancing a clock
/// to a time every future entry is at or past is order-neutral), which
/// is what lets the trailing advances release the tail. A participant
/// that disconnects releases its watermark so the others finish.
struct ReplayCoordinator {
    /// Declared group size; 0 until the first `replay_join`.
    parties: u64,
    /// Per-participant watermarks (`u64::MAX` = departed).
    watermarks: Vec<u64>,
    /// Per-participant arrival counters breaking `at` ties stably.
    intra: Vec<u64>,
    heap: BinaryHeap<Reverse<Parked>>,
}

struct Parked {
    at: u64,
    /// Client-assigned sequence number (`u64::MAX` when absent, and for
    /// clock advances). Party indices are assigned by racy join-arrival
    /// order, so same-`at` entries from different connections would
    /// otherwise order differently run to run; a replaying client that
    /// stamps globally-unique `seq`s gets a schedule-determined order.
    seq: u64,
    party: usize,
    intra: u64,
    action: ParkedAction,
}

enum ParkedAction {
    Advance {
        to_us: u64,
    },
    Request {
        app: usize,
        sink: ReplySink,
        request: Request,
    },
}

impl PartialEq for Parked {
    fn eq(&self, other: &Parked) -> bool {
        (self.at, self.seq, self.party, self.intra)
            == (other.at, other.seq, other.party, other.intra)
    }
}
impl Eq for Parked {}
impl PartialOrd for Parked {
    fn partial_cmp(&self, other: &Parked) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Parked {
    fn cmp(&self, other: &Parked) -> std::cmp::Ordering {
        (self.at, self.seq, self.party, self.intra).cmp(&(
            other.at,
            other.seq,
            other.party,
            other.intra,
        ))
    }
}

impl ReplayCoordinator {
    fn new() -> ReplayCoordinator {
        ReplayCoordinator {
            parties: 0,
            watermarks: Vec::new(),
            intra: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Registers one participant; returns its party index.
    fn join(&mut self, parties: u64) -> Result<usize, String> {
        if self.parties == 0 {
            self.parties = parties;
        } else if self.parties != parties {
            return Err(format!(
                "a replay group of {} parties is already declared",
                self.parties
            ));
        }
        if self.watermarks.len() as u64 == self.parties {
            return Err(format!(
                "the replay group of {} parties is already full",
                self.parties
            ));
        }
        self.watermarks.push(0);
        self.intra.push(0);
        Ok(self.watermarks.len() - 1)
    }

    /// All declared parties have joined; nothing drains before this.
    fn complete(&self) -> bool {
        self.parties > 0 && self.watermarks.len() as u64 == self.parties
    }

    /// Raises a participant's watermark (non-decreasing).
    fn raise(&mut self, party: usize, at: u64) {
        if at > self.watermarks[party] {
            self.watermarks[party] = at;
        }
    }

    /// Parks one action under `(at, seq, party, next intra)`.
    fn park(&mut self, party: usize, at: u64, seq: u64, action: ParkedAction) {
        let intra = self.intra[party];
        self.intra[party] += 1;
        self.heap.push(Reverse(Parked {
            at,
            seq,
            party,
            intra,
            action,
        }));
    }

    /// A participant disconnected: release its gate so the rest of the
    /// group can finish (in the success path its trailing advance
    /// already raised the watermark past everything, so this is a
    /// no-op there).
    fn leave(&mut self, party: usize) {
        self.watermarks[party] = u64::MAX;
    }

    /// Removes every parked action (the shutdown flush).
    fn flush(&mut self) -> Vec<Parked> {
        self.heap.drain().map(|r| r.0).collect()
    }
}

/// Drains every parked action that is safely ordered: requests
/// strictly below the minimum watermark, clock advances at or below
/// it. Call with the coordinator lock held.
fn replay_drain_ready(coordinator: &mut ReplayCoordinator, core: &Core) {
    if !coordinator.complete() {
        return;
    }
    let gate = coordinator.watermarks.iter().copied().min().unwrap_or(0);
    loop {
        let pop = match coordinator.heap.peek() {
            Some(Reverse(top)) => match top.action {
                ParkedAction::Advance { .. } => top.at <= gate,
                ParkedAction::Request { .. } => top.at < gate,
            },
            None => false,
        };
        if !pop {
            return;
        }
        let parked = coordinator.heap.pop().expect("peeked").0;
        match parked.action {
            ParkedAction::Advance { to_us } => {
                for app in &core.apps {
                    app.engine.advance_to(SimTime::from_micros(to_us));
                }
            }
            ParkedAction::Request { app, sink, request } => {
                let at = request.at_us.expect("parked requests are scheduled");
                serve_scheduled(core, &core.apps[app], &sink, &request, at, true);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The shard event loop
// ---------------------------------------------------------------------------

/// One connection's state, owned by exactly one shard thread.
struct ConnState {
    stream: TcpStream,
    fd: RawFd,
    /// Unparsed request bytes (partial lines across reads).
    rbuf: Vec<u8>,
    /// Encoded response bytes not yet written; `out_pos` marks how far
    /// the kernel has taken them.
    out: Vec<u8>,
    out_pos: usize,
    /// Whether the poller interest currently includes `WRITABLE`.
    want_write: bool,
    /// A write hard-failed; the connection is swept on the next tick.
    write_failed: bool,
    /// The peer half-closed (EOF); the connection stays open until
    /// every owed response is written.
    read_closed: bool,
    /// Error path: drain inbound bytes until here, then close — a
    /// clean FIN instead of an RST that could clobber the error
    /// response in flight.
    discard_deadline: Option<Instant>,
    /// This connection's membership in the replay group, if joined.
    replay_party: Option<usize>,
    /// Read ticks taken on this connection — the [`ChaosConfig`] read-
    /// stall counter (zero cost when chaos is off).
    chaos_reads: u64,
    /// Protocol lines served on this connection — the [`ChaosConfig`]
    /// reset counter.
    chaos_lines: u64,
    sink: ReplySink,
}

impl ConnState {
    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }
}

fn shard_loop(core: Arc<Core>, inbox: Arc<ShardInbox>) {
    let Ok(poller) = Poller::new() else { return };
    if poller.add(inbox.waker.fd(), WAKER_TOKEN, READABLE).is_err() {
        return;
    }
    // One cached snapshot reader per app, revalidated per request with
    // a single atomic epoch load.
    let mut snapshots: Vec<SnapshotReader> = core
        .apps
        .iter()
        .map(|app| SnapshotReader::new(&app.snapshot))
        .collect();
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_token = 0u64;
    let mut events = Vec::new();
    let mut msgs: Vec<ShardMsg> = Vec::new();
    // Connections with more buffered complete lines than one tick's
    // budget; served another slice next iteration (with a zero poll
    // timeout, so a flood never adds latency for its shard-mates).
    let mut backlog: Vec<u64> = Vec::new();
    let mut scratch = String::with_capacity(256);
    loop {
        if core.stop_io.load(Ordering::SeqCst) {
            // Final flush: apply every queued reply (the shutdown
            // drain's flushes included), then push remaining bytes out
            // in blocking mode so no client loses an answer.
            inbox.take(&mut msgs);
            for msg in msgs.drain(..) {
                apply_msg(
                    msg,
                    &mut conns,
                    &mut next_token,
                    &poller,
                    &inbox,
                    &mut scratch,
                );
            }
            for (_, conn) in conns.drain() {
                final_flush(conn);
            }
            return;
        }

        events.clear();
        if backlog.is_empty() {
            // Sleep-intent protocol: declare sleep *before* the final
            // emptiness check so a concurrent push either sees the
            // flag (and wakes us) or its message is seen here.
            inbox.sleeping.store(true, Ordering::SeqCst);
            if inbox.is_empty() {
                let _ = poller.wait(&mut events, Some(TICK_MS));
            }
            inbox.sleeping.store(false, Ordering::SeqCst);
        } else {
            let _ = poller.wait(&mut events, Some(0));
        }

        // Cross-thread work: new connections, completion replies.
        inbox.take(&mut msgs);
        for msg in msgs.drain(..) {
            apply_msg(
                msg,
                &mut conns,
                &mut next_token,
                &poller,
                &inbox,
                &mut scratch,
            );
        }

        // Backlogged connections get their next slice of lines.
        if !backlog.is_empty() {
            let tokens = std::mem::take(&mut backlog);
            for token in tokens {
                if let Some(conn) = conns.get_mut(&token) {
                    shard_process_lines(&core, &mut snapshots, conn, &mut backlog);
                }
            }
        }

        for event in &events {
            if event.token == WAKER_TOKEN {
                inbox.waker.drain();
                continue;
            }
            let Some(conn) = conns.get_mut(&event.token) else {
                continue;
            };
            if event.is_readable() {
                shard_read(conn, core.chaos.as_ref());
                shard_process_lines(&core, &mut snapshots, conn, &mut backlog);
            }
            if event.is_writable() {
                shard_flush(conn, &poller, core.chaos.as_ref());
            }
        }

        // Same-tick self-replies: handlers answer through this shard's
        // own inbox; applying them now (instead of after a waker
        // round-trip) gets them into `out` before the flush below.
        inbox.take(&mut msgs);
        for msg in msgs.drain(..) {
            apply_msg(
                msg,
                &mut conns,
                &mut next_token,
                &poller,
                &inbox,
                &mut scratch,
            );
        }

        // Flush dirty connections, then sweep closable ones.
        let now = Instant::now();
        let mut closed: Vec<u64> = Vec::new();
        for (token, conn) in conns.iter_mut() {
            if !conn.write_failed && !conn.flushed() {
                shard_flush(conn, &poller, core.chaos.as_ref());
            }
            if should_close(conn, now) {
                closed.push(*token);
            }
        }
        for token in closed {
            let conn = conns.remove(&token).expect("swept token");
            let _ = poller.delete(conn.fd);
            if let Some(party) = conn.replay_party {
                // A departed participant releases its watermark so the
                // rest of the group can finish.
                let mut coordinator = core.replay.lock();
                coordinator.leave(party);
                replay_drain_ready(&mut coordinator, &core);
            }
        }
    }
}

fn apply_msg(
    msg: ShardMsg,
    conns: &mut HashMap<u64, ConnState>,
    next_token: &mut u64,
    poller: &Poller,
    inbox: &Arc<ShardInbox>,
    scratch: &mut String,
) {
    match msg {
        ShardMsg::Conn(stream) => {
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let token = *next_token;
            *next_token += 1;
            if poller.add(fd, token, READABLE).is_err() {
                return;
            }
            conns.insert(
                token,
                ConnState {
                    stream,
                    fd,
                    rbuf: Vec::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    want_write: false,
                    write_failed: false,
                    read_closed: false,
                    discard_deadline: None,
                    replay_party: None,
                    chaos_reads: 0,
                    chaos_lines: 0,
                    sink: ReplySink {
                        inbox: Arc::clone(inbox),
                        token,
                        outstanding: Arc::new(AtomicI64::new(0)),
                    },
                },
            );
        }
        ShardMsg::Reply {
            token,
            response,
            settles,
        } => {
            let Some(conn) = conns.get_mut(&token) else {
                return; // connection already gone; nobody is owed
            };
            if settles {
                conn.sink.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            scratch.clear();
            response.encode_into(scratch);
            conn.out.extend_from_slice(scratch.as_bytes());
            conn.out.push(b'\n');
        }
        ShardMsg::Line {
            token,
            line,
            settles,
        } => {
            let Some(conn) = conns.get_mut(&token) else {
                return;
            };
            if settles {
                conn.sink.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            conn.out.extend_from_slice(line.as_bytes());
            conn.out.push(b'\n');
        }
    }
}

/// Reads whatever the socket has, up to the per-tick budget (level-
/// triggered readiness re-fires for the rest). In discard mode the
/// bytes are dropped — the connection is only being drained for a
/// clean close.
fn shard_read(conn: &mut ConnState, chaos: Option<&ChaosConfig>) {
    if conn.write_failed {
        return;
    }
    if let Some(every) = chaos.and_then(|c| c.read_stall_every) {
        // Injected read stall: skip this readiness tick entirely. The
        // level-triggered poller re-delivers the readiness, so the
        // bytes arrive one tick late — a pure delay, never a loss,
        // which is why stalls must be outcome-preserving under replay.
        conn.chaos_reads += 1;
        if conn.chaos_reads.is_multiple_of(every.max(1)) {
            return;
        }
    }
    let mut tmp = [0u8; 16 * 1024];
    let mut budget = READ_BUDGET;
    loop {
        if budget == 0 {
            return;
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => {
                budget = budget.saturating_sub(n);
                if conn.discard_deadline.is_none() {
                    conn.rbuf.extend_from_slice(&tmp[..n]);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.write_failed = true;
                return;
            }
        }
    }
}

/// Serves up to [`LINES_PER_TICK`] complete lines from the read
/// buffer, enforcing [`MAX_LINE_BYTES`] on complete lines, on
/// newline-free buffered tails, and serving an unterminated final line
/// at EOF (the old reader-thread semantics, exactly).
fn shard_process_lines(
    core: &Core,
    snapshots: &mut [SnapshotReader],
    conn: &mut ConnState,
    backlog: &mut Vec<u64>,
) {
    if conn.write_failed || conn.discard_deadline.is_some() {
        return;
    }
    let mut consumed = 0usize;
    let mut served = 0usize;
    let mut oversize = false;
    while served < LINES_PER_TICK {
        let Some(offset) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') else {
            break;
        };
        if offset + 1 > MAX_LINE_BYTES {
            oversize = true;
            break;
        }
        let line_end = consumed + offset;
        let mut handled = false;
        {
            let text = String::from_utf8_lossy(&conn.rbuf[consumed..line_end]);
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                handle_line(core, snapshots, &conn.sink, &mut conn.replay_party, trimmed);
                handled = true;
            }
        }
        consumed = line_end + 1;
        served += 1;
        if handled {
            if let Some(every) = core.chaos.as_ref().and_then(|c| c.reset_every) {
                // Injected mid-request reset: the request was fully
                // handled (admitted, counted, possibly submitted), but
                // the connection dies before its reply can be written —
                // the sweep closes the socket, and any completion for
                // it resolves against a gone token. Server-side counter
                // algebra must survive exactly this.
                conn.chaos_lines += 1;
                if conn.chaos_lines.is_multiple_of(every.max(1)) {
                    conn.write_failed = true;
                    break;
                }
            }
        }
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }
    if oversize {
        oversized_line(core, conn);
        return;
    }
    if conn.rbuf.contains(&b'\n') {
        backlog.push(conn.sink.token);
    } else if conn.rbuf.len() > MAX_LINE_BYTES {
        // A newline-free stream past the line budget: same answer as an
        // oversized complete line, without buffering without bound.
        oversized_line(core, conn);
    } else if conn.read_closed && !conn.rbuf.is_empty() {
        // EOF with an unterminated final line: serve it trimmed.
        let rbuf = std::mem::take(&mut conn.rbuf);
        let text = String::from_utf8_lossy(&rbuf);
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            handle_line(core, snapshots, &conn.sink, &mut conn.replay_party, trimmed);
        }
    }
}

fn oversized_line(core: &Core, conn: &mut ConnState) {
    let counters = &core.apps[0].counters;
    counters.received.incr();
    counters.protocol_errors.incr();
    conn.sink.line(
        Response::error_line(
            ErrorCode::Malformed,
            None,
            &format!("request line exceeds {MAX_LINE_BYTES} bytes; closing connection"),
        ),
        false,
    );
    // Briefly drain what the client already sent so the close is a
    // clean FIN, not an RST that could clobber the error response.
    conn.discard_deadline = Some(Instant::now() + Duration::from_millis(250));
    conn.rbuf = Vec::new();
}

/// Writes as much of `out` as the socket takes, tracking `WRITABLE`
/// interest only while bytes remain (so an idle socket's permanent
/// write-readiness does not spin the poller).
fn shard_flush(conn: &mut ConnState, poller: &Poller, chaos: Option<&ChaosConfig>) {
    if conn.write_failed {
        return;
    }
    // Injected partial writes: cap each write call and stop after one
    // chunk per flush, forcing the cross-tick `WANT_WRITE` resume path
    // that short-write bugs hide in.
    let chunk = chaos.and_then(|c| c.max_write_chunk);
    while conn.out_pos < conn.out.len() {
        let end = match chunk {
            Some(cap) => (conn.out_pos + cap.max(1)).min(conn.out.len()),
            None => conn.out.len(),
        };
        match conn.stream.write(&conn.out[conn.out_pos..end]) {
            Ok(0) => {
                conn.write_failed = true;
                break;
            }
            Ok(n) => {
                conn.out_pos += n;
                if chunk.is_some() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.write_failed = true;
                break;
            }
        }
    }
    if conn.flushed() {
        conn.out.clear();
        conn.out_pos = 0;
        if conn.want_write {
            conn.want_write = false;
            let _ = poller.modify(conn.fd, conn.sink.token, READABLE);
        }
    } else if !conn.want_write && !conn.write_failed {
        conn.want_write = true;
        let _ = poller.modify(conn.fd, conn.sink.token, READABLE | WRITABLE);
    }
}

fn should_close(conn: &ConnState, now: Instant) -> bool {
    if conn.write_failed {
        return true;
    }
    if let Some(deadline) = conn.discard_deadline {
        // Error path: wait out the drain window (or the peer's EOF),
        // then close once the error response is flushed — with a grace
        // ceiling so an unwritable peer cannot pin the fd forever.
        let drained = conn.read_closed || now >= deadline;
        return drained && (conn.flushed() || now >= deadline + Duration::from_secs(2));
    }
    // Half-closed peers keep their connection until every owed
    // response (pending completions, parked replay requests) is
    // answered and written.
    conn.read_closed
        && conn.flushed()
        && conn.rbuf.is_empty()
        && conn.sink.outstanding.load(Ordering::SeqCst) <= 0
}

/// Shutdown's last act per connection: push any remaining queued bytes
/// in blocking mode (bounded by a write timeout) so the drain flush's
/// answers actually reach their clients.
fn final_flush(conn: ConnState) {
    let ConnState {
        mut stream,
        out,
        out_pos,
        write_failed,
        ..
    } = conn;
    if write_failed || out_pos >= out.len() {
        return;
    }
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = stream.write_all(&out[out_pos..]);
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

fn counted_error(
    counters: &ServingCounters,
    sink: &ReplySink,
    code: ErrorCode,
    seq: Option<u64>,
    message: &str,
) {
    counters.received.incr();
    counters.protocol_errors.incr();
    sink.line(Response::error_line(code, seq, message), false);
}

fn handle_line(
    core: &Core,
    snapshots: &mut [SnapshotReader],
    sink: &ReplySink,
    replay_party: &mut Option<usize>,
    line: &str,
) {
    let request = match ClientLine::decode(line) {
        // Replay control: steer the stepped clocks (live engines ignore
        // it). Not a request — no response, no serving counters. A
        // replay-group member parks it instead, so clock motion stays
        // ordered against every party's scheduled requests.
        Ok(ClientLine::Advance { to_us }) if core.allow_replay => {
            match *replay_party {
                Some(party) => {
                    let mut coordinator = core.replay.lock();
                    coordinator.raise(party, to_us);
                    coordinator.park(party, to_us, u64::MAX, ParkedAction::Advance { to_us });
                    replay_drain_ready(&mut coordinator, core);
                }
                None => {
                    for app in &core.apps {
                        app.engine.advance_to(SimTime::from_micros(to_us));
                    }
                }
            }
            return;
        }
        // A *refused* control line gets an error response, so it is
        // counted like any other answered protocol error (keeping
        // received = admitted + unadmitted); honored ones above stay
        // invisible to the serving counters because they produce no
        // response at all.
        Ok(ClientLine::Advance { .. }) => {
            counted_error(
                &core.apps[0].counters,
                sink,
                ErrorCode::Malformed,
                None,
                "deterministic replay is disabled on this gateway",
            );
            return;
        }
        Ok(ClientLine::Join { parties }) if core.allow_replay => {
            if replay_party.is_some() {
                counted_error(
                    &core.apps[0].counters,
                    sink,
                    ErrorCode::Malformed,
                    None,
                    "this connection already joined a replay group",
                );
                return;
            }
            let mut coordinator = core.replay.lock();
            match coordinator.join(parties) {
                Ok(party) => {
                    *replay_party = Some(party);
                    // The final join completes the group and may
                    // release entries earlier joiners already parked.
                    replay_drain_ready(&mut coordinator, core);
                }
                Err(message) => {
                    drop(coordinator);
                    counted_error(
                        &core.apps[0].counters,
                        sink,
                        ErrorCode::Malformed,
                        None,
                        &message,
                    );
                }
            }
            return;
        }
        Ok(ClientLine::Join { .. }) => {
            counted_error(
                &core.apps[0].counters,
                sink,
                ErrorCode::Malformed,
                None,
                "deterministic replay is disabled on this gateway",
            );
            return;
        }
        Ok(ClientLine::Request(request)) => request,
        Err(e) => {
            counted_error(
                &core.apps[0].counters,
                sink,
                e.code,
                seq_hint(line),
                &e.message,
            );
            return;
        }
    };

    // Route by the wire `app` field. A routable request's counters
    // belong to its app; unroutable ones land on app 0 (which *is* the
    // single-app gateway's only app, preserving its exact semantics).
    let resolved = core.by_name.get(request.app.as_str()).copied();
    core.apps[resolved.unwrap_or(0)].counters.received.incr();
    if request.at_us.is_some() && !core.allow_replay {
        core.apps[resolved.unwrap_or(0)]
            .counters
            .protocol_errors
            .incr();
        sink.line(
            Response::error_line(
                ErrorCode::Malformed,
                request.seq,
                "deterministic replay (\"at_us\") is disabled on this gateway",
            ),
            false,
        );
        return;
    }
    let Some(app_index) = resolved else {
        core.apps[0].counters.protocol_errors.incr();
        let message = if core.apps.len() == 1 {
            format!(
                "unknown app {:?} (serving {:?})",
                request.app, core.apps[0].name
            )
        } else {
            let served: Vec<&str> = core.apps.iter().map(|a| a.name.as_str()).collect();
            format!("unknown app {:?} (serving {:?})", request.app, served)
        };
        sink.line(
            Response::error_line(ErrorCode::UnknownApp, request.seq, &message),
            false,
        );
        return;
    };
    let app = &core.apps[app_index];
    if core.shutdown.load(Ordering::SeqCst) {
        // `refused`, not `rejected`: this is gateway back-pressure, not
        // a PARD admission decision.
        app.counters.refused.incr();
        sink.line(
            Response::error_line(
                ErrorCode::ShuttingDown,
                request.seq,
                "gateway is shutting down",
            ),
            false,
        );
        return;
    }
    if !app.is_healthy() {
        // The watchdog tripped on this app's engine: refuse rather
        // than submit into a wedged or panicked pipeline. Other apps
        // keep serving.
        app.counters.refused.incr();
        sink.line(
            Response::error_line(
                ErrorCode::ShuttingDown,
                request.seq,
                &format!("engine for app {:?} is unavailable", app.name),
            ),
            false,
        );
        return;
    }
    match (request.at_us, *replay_party) {
        (Some(at), Some(party)) => {
            // A scheduled request from a replay-group member parks; it
            // is served in global arrival order once every party's
            // watermark passes it. Its eventual reply (settles=true)
            // is owed from this moment.
            let mut coordinator = core.replay.lock();
            coordinator.raise(party, at);
            sink.outstanding.fetch_add(1, Ordering::SeqCst);
            coordinator.park(
                party,
                at,
                request.seq.unwrap_or(u64::MAX),
                ParkedAction::Request {
                    app: app_index,
                    sink: sink.clone(),
                    request,
                },
            );
            replay_drain_ready(&mut coordinator, core);
        }
        (Some(at), None) => serve_scheduled(core, app, sink, &request, at, false),
        (None, _) => serve_now(core, &mut snapshots[app_index], app, sink, &request),
    }
}

/// The ordinary hot path: decide against the published snapshot — pure
/// reads on shared immutable data, no lock.
fn serve_now(
    core: &Core,
    reader: &mut SnapshotReader,
    app: &AppState,
    sink: &ReplySink,
    request: &Request,
) {
    let now = app.engine.now();
    if !app.admit_rate(now) {
        app.counters.rate_limited.incr();
        sink.line(
            Response::error_line(
                ErrorCode::RateLimited,
                request.seq,
                &format!("rate limit exceeded for app {:?}", app.name),
            ),
            false,
        );
        return;
    }
    let slo = request
        .slo_ms
        .map(SimDuration::saturating_from_millis)
        .unwrap_or(app.engine.spec().slo);
    let deadline = now.saturating_add(slo);
    let (decision, trace) = reader.current(&app.snapshot).decide_traced(now, deadline);
    finish_decision(
        core, app, sink, request, slo, now, decision, &trace, None, false,
    );
}

/// A scheduled request (deterministic trace replay) first steers the
/// stepped clock to its virtual arrival time; admission — and the rate
/// limiter — then run against a snapshot taken at exactly that
/// instant, so the decision is a pure function of the schedule. Live
/// engines ignore the advance and serve the request on receipt.
fn serve_scheduled(
    core: &Core,
    app: &AppState,
    sink: &ReplySink,
    request: &Request,
    at_us: u64,
    settles: bool,
) {
    if core.shutdown.load(Ordering::SeqCst) || !app.is_healthy() {
        // Parked requests can surface here after the admission-path
        // shutdown and health checks ran; answer them instead of
        // submitting into a draining (or dead) engine.
        app.counters.refused.incr();
        sink.line(
            Response::error_line(
                ErrorCode::ShuttingDown,
                request.seq,
                "gateway is shutting down",
            ),
            settles,
        );
        return;
    }
    app.engine.advance_to(SimTime::from_micros(at_us));
    let now = app.engine.now();
    if !app.admit_rate(now) {
        app.counters.rate_limited.incr();
        sink.line(
            Response::error_line(
                ErrorCode::RateLimited,
                request.seq,
                &format!("rate limit exceeded for app {:?}", app.name),
            ),
            settles,
        );
        return;
    }
    let slo = request
        .slo_ms
        .map(SimDuration::saturating_from_millis)
        .unwrap_or(app.engine.spec().slo);
    let deadline = now.saturating_add(slo);
    let (decision, trace) = app.fresh_snapshot().decide_traced(now, deadline);
    finish_decision(
        core,
        app,
        sink,
        request,
        slo,
        now,
        decision,
        &trace,
        Some(at_us),
        settles,
    );
}

#[allow(clippy::too_many_arguments)]
fn finish_decision(
    core: &Core,
    app: &AppState,
    sink: &ReplySink,
    request: &Request,
    slo: SimDuration,
    now: SimTime,
    decision: Decision,
    trace: &crate::admission::EdgeTrace,
    at_us: Option<u64>,
    settles: bool,
) {
    match decision {
        Decision::Drop(reason) => {
            app.counters.rejected.incr();
            let id = EDGE_ID_BASE + core.edge_seq.fetch_add(1, Ordering::Relaxed);
            app.record_edge_decision(now, id, trace, Some(reason));
            sink.reply(
                Response::dropped(id, request.seq, true, reason.label()),
                settles,
            );
        }
        Decision::Admit => {
            // Reserve capacity before the submit; the entry itself is
            // filed right after. A completion firing in between (a live
            // worker, a replay advance, or the pump thread stepping
            // another request's work) is parked by the pending shard and
            // claimed by the insert (see `crate::pending`); the settle
            // step below runs after the insert, so the common sim path
            // never parks. Under multi-app overload the tenant
            // quota can refuse even with shared headroom left — that
            // headroom is another tenant's guarantee.
            if !core.pending.reserve_tenant(app.index) {
                app.counters.refused.incr();
                sink.line(
                    Response::error_line(
                        ErrorCode::Overloaded,
                        request.seq,
                        &format!(
                            "pending-request table is full ({} entries)",
                            core.pending.capacity()
                        ),
                    ),
                    settles,
                );
                return;
            }
            app.counters.admitted.incr();
            // The edge decision is recorded before any thread can step
            // the request, so `/flightrecord` reads edge → stage → done.
            let id = app.engine.submit_then(
                SubmitSpec {
                    slo: Some(slo),
                    tag: 0,
                    // Scheduled requests keep the replay gate pinned at
                    // their arrival; plain requests release it (see
                    // [`pard_engine_api::SubmitSpec::at`]).
                    at: at_us.map(SimTime::from_micros),
                },
                &mut |id| app.record_edge_decision(now, id, trace, None),
            );
            if !settles {
                // The completion handler's eventual reply settles this
                // owed response; parked requests were counted at park
                // time.
                sink.outstanding.fetch_add(1, Ordering::SeqCst);
            }
            if let Some(completion) = core.pending.insert_tenant(
                pending_key(app.index, id),
                app.index,
                PendingEntry {
                    sink: sink.clone(),
                    seq: request.seq,
                },
            ) {
                // The completion beat the insert; answer it here.
                let response = completion_reply(
                    &completion,
                    request.seq,
                    &app.counters,
                    &app.module_drops,
                    &app.rtt,
                );
                sink.reply(response, true);
            }
            // A free-running submit on a stepped engine takes the
            // engine's next bounded step right here, after the pending
            // entry is filed: the completion finds its entry, and the
            // reply lands in this shard's own inbox in time for this
            // tick's flush. Whatever one step leaves unresolved goes to
            // the pump thread. A live engine resolves work on its own
            // threads and skips both; a scheduled replay drives the
            // clock itself.
            if app.stepped && at_us.is_none() && !app.engine.settle() {
                app.pump_signal.notify();
            }
        }
    }
}

/// Classifies one completion into its wire reply, bumping the serving
/// counters — shared by the completion handler (completion found its
/// entry) and the shard thread (completion raced the insert and was
/// parked).
fn completion_reply(
    completion: &Completion,
    seq: Option<u64>,
    counters: &ServingCounters,
    module_drops: &ModuleDropCounters,
    rtt: &RttWindow,
) -> Response {
    let latency_ms = completion
        .latency()
        .map(|d| d.as_millis_f64())
        .unwrap_or(0.0);
    match completion.outcome {
        Outcome::Completed { .. } if completion.within_slo() => {
            counters.completed_ok.incr();
            rtt.push(latency_ms * 1000.0);
            Response::ok(completion.id, seq, latency_ms)
        }
        Outcome::Completed { .. } => {
            counters.completed_late.incr();
            rtt.push(latency_ms * 1000.0);
            Response::violated(completion.id, seq, latency_ms)
        }
        Outcome::Dropped { module, reason, .. } => {
            counters.dropped.incr();
            module_drops.record(module, reason);
            Response::dropped(completion.id, seq, false, reason.label())
        }
        Outcome::InFlight => unreachable!("completions are terminal"),
    }
}

/// `app`'s completion handler: runs on the resolving thread and answers
/// into the connection's shard inbox. A completion whose entry is not
/// filed yet parks for the inserting thread (see `crate::pending`); one
/// for a request flushed by the watchdog or at shutdown parks
/// harmlessly. It clones `app`'s counters and never captures `app`
/// itself: the engine owns the handler, so that would be a cycle.
fn completion_handler(
    pending: Arc<PendingMap<PendingEntry, Completion>>,
    app: &AppState,
) -> CompletionHandler {
    let app_index = app.index;
    let counters = Arc::clone(&app.counters);
    let module_drops = Arc::clone(&app.module_drops);
    let rtt = Arc::clone(&app.rtt);
    Arc::new(move |completion| {
        let key = pending_key(app_index, completion.id);
        if let Some(entry) = pending.take_or_stash(key, completion) {
            let response = completion_reply(&completion, entry.seq, &counters, &module_drops, &rtt);
            entry.sink.reply(response, true);
        }
    })
}

/// Spawns a gateway thread under `name`, which `/proc/<pid>/task/*/comm`
/// shows (truncated to 15 bytes), so per-thread CPU is attributable.
fn spawn_named(
    name: impl Into<String>,
    body: impl FnOnce() + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name.into()).spawn(body)
}

fn accept_loop(listener: TcpListener, core: Arc<Core>, inboxes: Vec<Arc<ShardInbox>>) {
    let mut next = 0usize;
    while !core.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Round-robin across shards: connection populations stay
                // balanced without any shared accounting.
                inboxes[next % inboxes.len()].push(ShardMsg::Conn(stream));
                next += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// The gateway lifecycle
// ---------------------------------------------------------------------------

/// A running gateway. Dropping it without calling
/// [`Gateway::shutdown`] leaks the serving threads; tests and binaries
/// should always shut down explicitly to collect the request logs.
pub struct Gateway {
    core: Arc<Core>,
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    service_threads: Vec<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    inboxes: Vec<Arc<ShardInbox>>,
}

impl Gateway {
    /// Starts serving `engine` — any [`EngineHandle`], simulated or
    /// live — over the wire protocol, with PARD admission at the edge.
    pub fn start(engine: Box<dyn EngineHandle>, config: GatewayConfig) -> io::Result<Gateway> {
        Gateway::start_multi(vec![AppConfig::new(engine)], config)
    }

    /// Starts serving several apps behind one listener; each wire
    /// request routes by its `app` field. With more than one app, half
    /// the pending table is guaranteed to tenants in proportion to
    /// their [`AppConfig::weight`]s and the other half is shared
    /// first-come headroom.
    pub fn start_multi(apps: Vec<AppConfig>, config: GatewayConfig) -> io::Result<Gateway> {
        if apps.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a gateway needs at least one app",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics_listener = TcpListener::bind(&config.metrics_addr)?;
        metrics_listener.set_nonblocking(true)?;
        let metrics_addr = metrics_listener.local_addr()?;

        let guaranteed = if apps.len() == 1 {
            // The legacy single-tenant table: no guarantees, pure
            // shared capacity — bit-identical to the old gateway.
            vec![0]
        } else {
            let total: usize = apps.iter().map(|a| a.weight.max(1)).sum();
            apps.iter()
                .map(|a| config.max_pending * a.weight.max(1) / (2 * total))
                .collect()
        };
        let pending: Arc<PendingMap<PendingEntry, Completion>> =
            Arc::new(PendingMap::with_tenants(config.max_pending, guaranteed));

        let mut states = Vec::with_capacity(apps.len());
        let mut by_name = HashMap::new();
        for (index, app) in apps.into_iter().enumerate() {
            let AppConfig {
                engine,
                rate_limit,
                weight: _,
            } = app;
            let source = engine.spec().source();
            let paths = pard_pipeline::graph::downstream_paths(engine.spec(), source);
            let recorder = engine.telemetry();
            let name = engine.spec().name.clone();
            if by_name.insert(name.clone(), index).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("two apps registered under the name {name:?}"),
                ));
            }
            let limiter = rate_limit.map(|limit| {
                Mutex::new(TokenBucket::new(
                    limit.rate_per_sec,
                    limit.burst,
                    engine.now(),
                ))
            });
            let state = Arc::new(AppState {
                index,
                name,
                snapshot: EdgePublisher::new(EdgeSnapshot::new(
                    engine.edge_state(),
                    source,
                    &paths,
                )),
                counters: Arc::new(ServingCounters::new()),
                module_drops: Arc::new(ModuleDropCounters::new(engine.spec().modules.len())),
                pump_signal: PumpSignal::new(),
                source,
                paths,
                stepped: engine.stepped(),
                recorder,
                frames: Arc::new(FrameBus::new()),
                rtt: Arc::new(RttWindow::new(DEFAULT_RTT_SAMPLES)),
                limiter,
                adaptive: config
                    .adaptive
                    .map(|cfg| Mutex::new(AdaptiveState::new(cfg))),
                healthy: AtomicBool::new(true),
                pump_entered_ms: AtomicU64::new(u64::MAX),
                engine,
            });
            let handler = completion_handler(Arc::clone(&pending), &state);
            state.engine.set_completion_handler(handler);
            states.push(state);
        }

        let core = Arc::new(Core {
            apps: states,
            by_name,
            pending: Arc::clone(&pending),
            edge_seq: AtomicU64::new(0),
            allow_replay: config.allow_replay,
            shutdown: AtomicBool::new(false),
            stop_io: AtomicBool::new(false),
            replay: Mutex::new(ReplayCoordinator::new()),
            chaos: config.chaos,
            epoch: Instant::now(),
        });

        // Shard event loops: the connection fabric.
        let mut inboxes = Vec::new();
        let mut shard_threads = Vec::new();
        for n in 0..config.shards.max(1) {
            let inbox = Arc::new(ShardInbox::new()?);
            let core = Arc::clone(&core);
            let thread_inbox = Arc::clone(&inbox);
            shard_threads.push(spawn_named(format!("pard-shard-{n}"), move || {
                shard_loop(core, thread_inbox)
            })?);
            inboxes.push(inbox);
        }

        let mut service_threads = Vec::new();

        // Edge-state poller: publishes every app's admission snapshot.
        // Doubles as the pump watchdog's monitor — it already wakes
        // every `edge_refresh` and holds the core, and it must skip
        // unhealthy apps anyway (a panicked engine's `edge_state` can
        // no longer be trusted not to panic too).
        {
            let core = Arc::clone(&core);
            let refresh = config.edge_refresh;
            let pump_stall = config.pump_stall;
            service_threads.push(spawn_named("pard-poller", move || {
                while !core.shutdown.load(Ordering::SeqCst) {
                    for app in &core.apps {
                        if !app.is_healthy() {
                            continue;
                        }
                        if let Some(stall) = pump_stall {
                            let entered = app.pump_entered_ms.load(Ordering::Acquire);
                            let now_ms = core.epoch.elapsed().as_millis() as u64;
                            if entered != u64::MAX
                                && now_ms.saturating_sub(entered) > stall.as_millis() as u64
                            {
                                mark_app_unhealthy(&core, app, "engine pump stalled");
                                continue;
                            }
                        }
                        app.snapshot.publish(app.fresh_snapshot());
                    }
                    std::thread::sleep(refresh);
                }
            })?);
        }

        // One pump per app: advances engines with a stepped virtual
        // clock (the simulator). Self-driving engines return false and
        // the thread idles on the signal; a submit that its own settle
        // step did not resolve notifies it, so the rest is picked up at
        // wake latency, not on the next timeout tick.
        //
        // The pump is the one gateway thread that runs arbitrary engine
        // code in a loop, so it carries the watchdog instrumentation: a
        // panic trips the app unhealthy immediately (instead of
        // silently wedging every request the dead pump owed), and the
        // entry stamp lets the poller catch a pump that never returns.
        for app in &core.apps {
            let app = Arc::clone(app);
            let core = Arc::clone(&core);
            service_threads.push(spawn_named(format!("pard-pump-{}", app.name), move || {
                while !core.shutdown.load(Ordering::SeqCst) {
                    if !app.is_healthy() {
                        return;
                    }
                    let observed = app.pump_signal.arm();
                    if app.stepped {
                        let now_ms = core.epoch.elapsed().as_millis() as u64;
                        app.pump_entered_ms.store(now_ms, Ordering::Release);
                        let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            app.engine.pump()
                        }));
                        app.pump_entered_ms.store(u64::MAX, Ordering::Release);
                        match pumped {
                            Ok(true) => {
                                app.pump_signal.disarm();
                                continue;
                            }
                            Ok(false) => {}
                            Err(_) => {
                                mark_app_unhealthy(&core, &app, "engine pump panicked");
                                return;
                            }
                        }
                    }
                    let idle = if app.stepped {
                        Duration::from_millis(1)
                    } else {
                        Duration::from_millis(200)
                    };
                    app.pump_signal.wait_after(observed, idle);
                }
            })?);
        }

        // Accept loop.
        {
            let core = Arc::clone(&core);
            let inboxes = inboxes.clone();
            service_threads.push(spawn_named("pard-accept", move || {
                accept_loop(listener, core, inboxes);
            })?);
        }

        // Telemetry sampler: periodically folds each app's serving
        // counters, published admission snapshot, and RTT window into
        // an EngineFrame on that app's bus. Off the hot path entirely.
        {
            let core = Arc::clone(&core);
            let period = config.telemetry_period;
            service_threads.push(spawn_named("pard-telemetry", move || {
                let mut seq = 0u64;
                let mut prev: Vec<_> = core.apps.iter().map(|a| a.counters.snapshot()).collect();
                loop {
                    for (app, prev) in core.apps.iter().zip(prev.iter_mut()) {
                        let (frame, counts) = build_frame(&core, app, seq, prev);
                        *prev = counts;
                        app.frames.publish(frame);
                    }
                    seq += 1;
                    if core.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(period);
                }
            })?);
        }

        // Metrics endpoint.
        {
            let core = Arc::clone(&core);
            service_threads.push(spawn_named("pard-metrics", move || {
                metrics_loop(metrics_listener, core);
            })?);
        }

        Ok(Gateway {
            core,
            addr,
            metrics_addr,
            service_threads,
            shard_threads,
            inboxes,
        })
    }

    /// The bound request-protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// Snapshot of the first app's serving counters (the only app on a
    /// single-app gateway); see [`Gateway::counters_of`] for the rest.
    pub fn counters(&self) -> pard_metrics::CountersSnapshot {
        self.core.apps[0].counters.snapshot()
    }

    /// Snapshot of one app's serving counters, by wire name.
    pub fn counters_of(&self, app: &str) -> Option<pard_metrics::CountersSnapshot> {
        let index = *self.core.by_name.get(app)?;
        Some(self.core.apps[index].counters.snapshot())
    }

    /// The wire names of every app served, in registration order.
    pub fn app_names(&self) -> Vec<String> {
        self.core.apps.iter().map(|a| a.name.clone()).collect()
    }

    /// Snapshot of the first app's per-module drop counters (where
    /// admitted requests died inside the pipeline, and why).
    pub fn module_drops(&self) -> pard_metrics::ModuleDropsSnapshot {
        self.core.apps[0].module_drops.snapshot()
    }

    /// Admitted-but-unresolved requests currently in the pending table
    /// (the `pard_gateway_pending_requests` gauge), across all apps.
    pub fn pending_len(&self) -> usize {
        self.core.pending.len()
    }

    /// The first app's flight recorder, if its engine records
    /// lifecycle events — the same ring `/flightrecord` serves.
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.core.apps[0].recorder.clone()
    }

    /// One app's flight recorder, by wire name (the ring
    /// `/flightrecord?app=NAME` serves).
    pub fn recorder_of(&self, app: &str) -> Option<Arc<FlightRecorder>> {
        let index = *self.core.by_name.get(app)?;
        self.core.apps[index].recorder.clone()
    }

    /// The first app's telemetry frame bus (the `/events` stream);
    /// in-process consumers can subscribe directly with
    /// [`pard_obs::FrameBus::wait_newer`].
    pub fn frames(&self) -> Arc<FrameBus> {
        Arc::clone(&self.core.apps[0].frames)
    }

    /// Stops accepting, drains in-flight requests (bounded by
    /// `drain_virtual` of virtual time and 30 s of wall time), stops
    /// the engine, and returns its request log. Single-app shorthand
    /// for [`Gateway::shutdown_multi`].
    pub fn shutdown(self, drain_virtual: SimDuration) -> RequestLog {
        self.shutdown_multi(drain_virtual).remove(0)
    }

    /// Shuts every app down and returns their request logs in
    /// registration order (empty for an engine built without the
    /// request log).
    pub fn shutdown_multi(self, drain_virtual: SimDuration) -> Vec<RequestLog> {
        let Gateway {
            core,
            addr: _,
            metrics_addr: _,
            service_threads,
            shard_threads,
            inboxes,
        } = self;
        core.shutdown.store(true, Ordering::SeqCst);
        // Wake the pump threads out of their idle waits so they observe
        // the flag now rather than on their next timeout tick.
        for app in &core.apps {
            app.pump_signal.force_notify();
        }
        for handle in service_threads {
            let _ = handle.join();
        }
        // Shards answer anything already buffered with `shutting_down`
        // within one tick of the flag; wait that out so no new
        // admissions race the flush below, then give the pipelines a
        // bounded window to resolve what is in flight. Stepped engines
        // no longer have their pump threads, so this loop pumps them
        // directly (their completions are answered on this thread,
        // while the shards still run to write them out) — and gives up
        // once no engine progresses (when a replay client vanished
        // without its trailing advance, the clock gate is unreachable
        // and waiting longer cannot resolve anything). Live engines
        // resolve work on their own threads, so only the 30 s ceiling
        // applies to them.
        std::thread::sleep(Duration::from_millis(150));
        let all_stepped = core.apps.iter().all(|a| a.stepped);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut last_progress = Instant::now();
        loop {
            if core.pending.is_empty() || Instant::now() >= deadline {
                break;
            }
            let mut progressed = false;
            for app in &core.apps {
                if app.is_healthy() && app.engine.pump() {
                    progressed = true;
                }
            }
            if progressed {
                last_progress = Instant::now();
            } else if all_stepped && last_progress.elapsed() > Duration::from_millis(500) {
                break;
            } else {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // Parked replay requests never reached admission; answer them
        // as refused so no client hangs on an owed response.
        for parked in core.replay.lock().flush() {
            if let ParkedAction::Request { app, sink, request } = parked.action {
                core.apps[app].counters.refused.incr();
                sink.line(
                    Response::error_line(
                        ErrorCode::ShuttingDown,
                        request.seq,
                        "gateway is shutting down",
                    ),
                    true,
                );
            }
        }
        // Flush whatever is still pending *before* stopping the shards:
        // the shard loops' final pass writes these answers out, so no
        // client hangs and the admitted = ok + late + dropped invariant
        // survives shutdown.
        const ID_MASK: u64 = (1u64 << TENANT_SHIFT) - 1;
        for (key, entry) in core.pending.drain_entries() {
            let app = (key >> TENANT_SHIFT) as usize;
            let id = key & ID_MASK;
            core.apps[app].counters.dropped.incr();
            entry
                .sink
                .reply(Response::dropped(id, entry.seq, false, "shutdown"), true);
        }
        core.stop_io.store(true, Ordering::SeqCst);
        for inbox in &inboxes {
            inbox.waker.wake();
        }
        for handle in shard_threads {
            let _ = handle.join();
        }
        // Draining stops each engine; completions it still resolves
        // find no entry and park harmlessly.
        core.apps
            .iter()
            .map(|app| {
                // A watchdog-tripped engine may panic again in drain;
                // its log is forfeit, the other apps' logs are not.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    app.engine.drain(drain_virtual)
                }))
                .unwrap_or_default()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Telemetry and the observability endpoints
// ---------------------------------------------------------------------------

/// One telemetry sample for one app: the cumulative serving counters
/// plus window rates differenced against `prev`, the published
/// admission snapshot's queue state and floor, the app's pending-table
/// share, the summed per-reason drop counters, and the rolling RTT
/// quantiles. Returns the counter snapshot it used so the sampler
/// differences the next frame against exactly what this one reported.
fn build_frame(
    core: &Core,
    app: &AppState,
    seq: u64,
    prev: &pard_metrics::CountersSnapshot,
) -> (EngineFrame, pard_metrics::CountersSnapshot) {
    let counts = app.counters.snapshot();
    let snapshot = app.snapshot.load();
    let state = snapshot.state();
    let floor = snapshot.floor();
    let module_drops = app.module_drops.snapshot();
    let mut drops_by_reason = vec![0u64; DropReason::ALL.len()];
    for module in &module_drops.counts {
        for (total, n) in drops_by_reason.iter_mut().zip(module) {
            *total += n;
        }
    }
    let rates = window_rates(prev, &counts);
    let [p50, p95, p99] = app.rtt.quantiles();
    let frame = EngineFrame {
        seq,
        t_us: app.engine.now().as_micros(),
        queues: state.queue_depths.clone(),
        workers: state.workers.clone(),
        pending: core.pending.tenant_len(app.index),
        floor_lead_us: floor.lead().as_micros(),
        floor_sub_us: floor.sub_total().as_micros(),
        received: counts.received,
        admitted: counts.admitted,
        rejected: counts.rejected,
        refused: counts.refused,
        completed_ok: counts.completed_ok,
        completed_late: counts.completed_late,
        dropped: counts.dropped,
        drops_by_reason,
        window_goodput: rates.goodput,
        window_violation: rates.violation,
        window_drop: rates.drop,
        rtt_p50_us: p50,
        rtt_p95_us: p95,
        rtt_p99_us: p99,
    };
    (frame, counts)
}

fn metrics_loop(listener: TcpListener, core: Arc<Core>) {
    // Each accepted connection gets its own thread: an `/events`
    // subscriber holds its connection open indefinitely and must not
    // block `/metrics` scrapes behind it.
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !core.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let core = Arc::clone(&core);
                conns.retain(|h| !h.is_finished());
                // A failed spawn drops the connection unanswered.
                if let Ok(handle) = spawn_named("pard-http", move || {
                    let _ = serve_http(stream, &core);
                }) {
                    conns.push(handle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    // Streaming handlers observe the shutdown flag within one wait
    // timeout; one-shot handlers are already gone or about to be.
    for handle in conns {
        let _ = handle.join();
    }
}

/// Minimal HTTP/1.x router for the observability listener: parse the
/// request line, drain the header block, dispatch on the path — one
/// request per connection. A malformed request line gets `400`, a
/// non-GET method `405`, an unknown path `404`. On a multi-app gateway
/// `/events` and `/flightrecord` take `?app=NAME` (default: the first
/// registered app).
fn serve_http(stream: TcpStream, core: &Core) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return Ok(()); // client vanished before sending a request line
    }
    // Drain the header block so the close after a one-shot response is
    // a clean FIN — a client still mid-send would otherwise see an RST
    // clobber the response in flight. Bounded by the read timeout.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(n) if n > 0 && header != "\r\n" && header != "\n" => continue,
            _ => break,
        }
    }
    let mut stream = stream;
    let Some((method, target)) = parse_request_line(&line) else {
        return respond(
            &mut stream,
            "400 Bad Request",
            "text/plain",
            "malformed request line\n",
        );
    };
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    };
    match path {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &render_metrics(core),
        ),
        "/events" => match query_app(core, query) {
            Some(app) => serve_events(&mut stream, core, app),
            None => respond_unknown_app(&mut stream, core),
        },
        "/flightrecord" => match query_app(core, query) {
            Some(app) => serve_flightrecord(&mut stream, app, query),
            None => respond_unknown_app(&mut stream, core),
        },
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "unknown path; try /metrics, /events, or /flightrecord\n",
        ),
    }
}

/// Splits a `METHOD SP TARGET SP HTTP/x.y` request line; `None` when
/// the line does not have that shape.
fn parse_request_line(line: &str) -> Option<(&str, &str)> {
    let mut parts = line.trim_end().split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if method.is_empty()
        || !target.starts_with('/')
        || !version.starts_with("HTTP/")
        || parts.next().is_some()
    {
        return None;
    }
    Some((method, target))
}

/// First value for `key` in a raw query string.
fn query_param<'q>(query: Option<&'q str>, key: &str) -> Option<&'q str> {
    query.into_iter().flat_map(|q| q.split('&')).find_map(|kv| {
        kv.split_once('=')
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
    })
}

/// Resolves the `?app=NAME` selector; no selector means the first
/// registered app, an unknown name means `None` (a 404).
fn query_app<'a>(core: &'a Core, query: Option<&str>) -> Option<&'a Arc<AppState>> {
    match query_param(query, "app") {
        Some(name) => core.by_name.get(name).map(|&index| &core.apps[index]),
        None => core.apps.first(),
    }
}

fn respond_unknown_app(stream: &mut TcpStream, core: &Core) -> io::Result<()> {
    let served: Vec<&str> = core.apps.iter().map(|a| a.name.as_str()).collect();
    respond(
        stream,
        "404 Not Found",
        "text/plain",
        &format!("unknown app (serving {served:?})\n"),
    )
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
}

/// `GET /events`: streams telemetry frames as server-sent events, one
/// `data:` line of JSON per frame. The subscriber always receives the
/// *latest* frame — a laggy consumer skips intermediate frames rather
/// than backpressuring the sampler — and the stream ends at shutdown
/// or when the client disconnects.
fn serve_events(stream: &mut TcpStream, core: &Core, app: &AppState) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
    )?;
    let mut seen = 0u64;
    while !core.shutdown.load(Ordering::SeqCst) {
        // The timeout exists only to re-check the shutdown flag.
        let Some((epoch, frame)) = app.frames.wait_newer(seen, Duration::from_millis(250)) else {
            continue;
        };
        seen = epoch;
        write!(stream, "data: {}\n\n", frame.to_json_line())?;
    }
    Ok(())
}

/// `GET /flightrecord[?last_us=N]`: dumps the app engine's flight-
/// recorder ring as JSONL, oldest event first — the whole retained
/// window, or only events within `N` microseconds of the newest one.
fn serve_flightrecord(
    stream: &mut TcpStream,
    app: &AppState,
    query: Option<&str>,
) -> io::Result<()> {
    let last_us = match query_param(query, "last_us") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                return respond(
                    stream,
                    "400 Bad Request",
                    "text/plain",
                    "last_us must be an unsigned integer of microseconds\n",
                )
            }
        },
        None => None,
    };
    let Some(recorder) = &app.recorder else {
        return respond(
            stream,
            "404 Not Found",
            "text/plain",
            "the engine behind this app exposes no flight recorder\n",
        );
    };
    let events = match last_us {
        Some(n) => recorder.dump_last_us(n),
        None => recorder.dump(),
    };
    let mut body = String::with_capacity(events.len() * 96 + 1);
    for event in &events {
        body.push_str(&event.to_json_line());
        body.push('\n');
    }
    respond(stream, "200 OK", "application/x-ndjson", &body)
}

/// Renders the Prometheus text exposition: the serving counters, the
/// per-module drop series, plus live queue-depth / goodput gauges.
pub fn render_metrics_text(
    snapshot: pard_metrics::CountersSnapshot,
    module_drops: &pard_metrics::ModuleDropsSnapshot,
    state: &pard_engine_api::EdgeState,
    pending: usize,
) -> String {
    let mut body = snapshot.to_prometheus("pard_gateway");
    body.push_str(&module_drops.to_prometheus("pard_gateway"));
    body.push_str("# TYPE pard_gateway_queue_depth gauge\n");
    for (module, depth) in state.queue_depths.iter().enumerate() {
        body.push_str(&format!(
            "pard_gateway_queue_depth{{module=\"{module}\"}} {depth}\n"
        ));
    }
    body.push_str(&format!(
        "# TYPE pard_gateway_pending_requests gauge\npard_gateway_pending_requests {pending}\n"
    ));
    body.push_str(&format!(
        "# TYPE pard_gateway_goodput_fraction gauge\npard_gateway_goodput_fraction {:.6}\n",
        snapshot.goodput_fraction()
    ));
    body.push_str(&format!(
        "# TYPE pard_gateway_drop_fraction gauge\npard_gateway_drop_fraction {:.6}\n",
        snapshot.drop_fraction()
    ));
    body
}

/// The full `/metrics` body. A single-app gateway's exposition starts
/// with the exact pre-multi-tenant body (the back-compat contract CI
/// greps); a multi-app gateway starts with the same families summed
/// across apps. Either way the per-app `{app="..."}` series follow.
fn render_metrics(core: &Core) -> String {
    let mut body = if core.apps.len() == 1 {
        let app = &core.apps[0];
        // The published snapshot is shared immutable data: rendering
        // reads it through the same `Arc` the admission path uses
        // instead of cloning the whole `EdgeState` per scrape.
        let snapshot = app.snapshot.load();
        let mut body = render_metrics_text(
            app.counters.snapshot(),
            &app.module_drops.snapshot(),
            snapshot.state(),
            core.pending.len(),
        );
        body.push_str(&crate::telemetry::render_rtt_lines(
            "pard_gateway",
            app.rtt.quantiles(),
        ));
        body
    } else {
        let mut total = pard_metrics::CountersSnapshot::default();
        for app in &core.apps {
            let s = app.counters.snapshot();
            total.received += s.received;
            total.admitted += s.admitted;
            total.rejected += s.rejected;
            total.completed_ok += s.completed_ok;
            total.completed_late += s.completed_late;
            total.dropped += s.dropped;
            total.refused += s.refused;
            total.rate_limited += s.rate_limited;
            total.protocol_errors += s.protocol_errors;
        }
        let mut body = total.to_prometheus("pard_gateway");
        body.push_str(&format!(
            "# TYPE pard_gateway_pending_requests gauge\npard_gateway_pending_requests {}\n",
            core.pending.len()
        ));
        body.push_str(&format!(
            "# TYPE pard_gateway_goodput_fraction gauge\npard_gateway_goodput_fraction {:.6}\n",
            total.goodput_fraction()
        ));
        body.push_str(&format!(
            "# TYPE pard_gateway_drop_fraction gauge\npard_gateway_drop_fraction {:.6}\n",
            total.drop_fraction()
        ));
        body
    };
    body.push_str(&render_app_series(core));
    body
}

/// Per-app labeled series: every serving-counter family as
/// `pard_gateway_app_<family>_total{app="..."}`, plus per-app pending
/// and queue-depth gauges. App names come from the engine spec and are
/// emitted verbatim (specs use identifier-like names).
fn render_app_series(core: &Core) -> String {
    type Pick = fn(&pard_metrics::CountersSnapshot) -> u64;
    const FAMILIES: [(&str, Pick); 9] = [
        ("received", |s| s.received),
        ("admitted", |s| s.admitted),
        ("rejected", |s| s.rejected),
        ("completed_ok", |s| s.completed_ok),
        ("completed_late", |s| s.completed_late),
        ("dropped", |s| s.dropped),
        ("refused", |s| s.refused),
        ("rate_limited", |s| s.rate_limited),
        ("protocol_errors", |s| s.protocol_errors),
    ];
    let snapshots: Vec<_> = core.apps.iter().map(|a| a.counters.snapshot()).collect();
    let mut body = String::new();
    for (family, pick) in FAMILIES {
        body.push_str(&format!("# TYPE pard_gateway_app_{family}_total counter\n"));
        for (app, snapshot) in core.apps.iter().zip(&snapshots) {
            body.push_str(&format!(
                "pard_gateway_app_{family}_total{{app=\"{}\"}} {}\n",
                app.name,
                pick(snapshot)
            ));
        }
    }
    body.push_str("# TYPE pard_gateway_app_pending_requests gauge\n");
    for app in &core.apps {
        body.push_str(&format!(
            "pard_gateway_app_pending_requests{{app=\"{}\"}} {}\n",
            app.name,
            core.pending.tenant_len(app.index)
        ));
    }
    body.push_str("# TYPE pard_gateway_app_queue_depth gauge\n");
    for app in &core.apps {
        let snapshot = app.snapshot.load();
        for (module, depth) in snapshot.state().queue_depths.iter().enumerate() {
            body.push_str(&format!(
                "pard_gateway_app_queue_depth{{app=\"{}\",module=\"{module}\"}} {depth}\n",
                app.name
            ));
        }
    }
    body.push_str("# TYPE pard_gateway_app_healthy gauge\n");
    for app in &core.apps {
        body.push_str(&format!(
            "pard_gateway_app_healthy{{app=\"{}\"}} {}\n",
            app.name,
            u8::from(app.is_healthy())
        ));
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_engine_api::EdgeState;
    use pard_sim::SimDuration;

    #[test]
    fn metrics_text_contains_counters_and_gauges() {
        use pard_metrics::{DropReason, ModuleDropCounters};

        let state = EdgeState {
            queue_depths: vec![3, 1],
            workers: vec![2, 2],
            batch_sizes: vec![4, 4],
            exec_ms: vec![40.0, 20.0],
            slo: SimDuration::from_millis(400),
        };
        let snapshot = pard_metrics::CountersSnapshot {
            received: 10,
            admitted: 8,
            rejected: 2,
            completed_ok: 6,
            dropped: 2,
            ..Default::default()
        };
        let module_drops = ModuleDropCounters::new(2);
        module_drops.record(1, DropReason::PredictedViolation);
        module_drops.record(1, DropReason::SiblingDropped);
        let text = render_metrics_text(snapshot, &module_drops.snapshot(), &state, 2);
        assert!(text.contains("pard_gateway_received_total 10"));
        assert!(text.contains("pard_gateway_rejected_total 2"));
        assert!(text.contains("pard_gateway_queue_depth{module=\"0\"} 3"));
        assert!(text.contains("pard_gateway_queue_depth{module=\"1\"} 1"));
        assert!(text.contains("pard_gateway_pending_requests 2"));
        // Per-module drops are labeled series in the same exposition.
        assert!(text.contains("# TYPE pard_gateway_module_dropped_total counter"));
        assert!(
            text.contains("pard_gateway_module_dropped_total{module=\"1\",reason=\"predicted\"} 1")
        );
        assert!(
            text.contains("pard_gateway_module_dropped_total{module=\"1\",reason=\"sibling\"} 1")
        );
        assert!(
            text.contains("pard_gateway_module_dropped_total{module=\"0\",reason=\"predicted\"} 0")
        );
    }

    #[test]
    fn metrics_scrape_format_is_well_formed() {
        // Every line is either a `# TYPE <name> counter|gauge` header or
        // a `<name>[{labels}] <value>` sample whose value parses —
        // the contract an actual Prometheus scraper holds us to.
        let state = EdgeState {
            queue_depths: vec![0, 0],
            workers: vec![1, 1],
            batch_sizes: vec![4, 4],
            exec_ms: vec![40.0, 20.0],
            slo: SimDuration::from_millis(400),
        };
        let drops = pard_metrics::ModuleDropCounters::new(2);
        drops.record(0, pard_metrics::DropReason::WorkerFailed);
        let mut text = render_metrics_text(
            pard_metrics::CountersSnapshot::default(),
            &drops.snapshot(),
            &state,
            0,
        );
        // The full scrape appends the RTT summary family; hold it to
        // the same contract.
        text.push_str(&crate::telemetry::render_rtt_lines(
            "pard_gateway",
            [150.0, 900.0, 1200.5],
        ));
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("metric name");
                assert!(name.starts_with("pard_gateway_"), "{line}");
                let kind = parts.next().expect("metric kind");
                assert!(
                    kind == "counter" || kind == "gauge" || kind == "summary",
                    "{line}"
                );
                assert_eq!(parts.next(), None, "{line}");
            } else {
                let (series, value) = line.rsplit_once(' ').expect("sample line");
                assert!(series.starts_with("pard_gateway_"), "{line}");
                if let Some(open) = series.find('{') {
                    assert!(series.ends_with('}'), "{line}");
                    let labels = &series[open + 1..series.len() - 1];
                    for label in labels.split(',') {
                        let (key, val) = label.split_once('=').expect("key=\"value\"");
                        assert!(!key.is_empty(), "{line}");
                        assert!(val.starts_with('"') && val.ends_with('"'), "{line}");
                    }
                }
                assert!(value.parse::<f64>().is_ok(), "{line}");
            }
        }
    }

    #[test]
    fn request_line_parser_accepts_http_and_rejects_noise() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("GET /flightrecord?last_us=5000 HTTP/1.0\n"),
            Some(("GET", "/flightrecord?last_us=5000"))
        );
        assert_eq!(
            parse_request_line("POST /events HTTP/1.1\r\n"),
            Some(("POST", "/events"))
        );
        // Shapes that must 400: too few or too many tokens, a target
        // that is not origin-form, a version that is not HTTP.
        assert_eq!(parse_request_line("GET /metrics\r\n"), None);
        assert_eq!(parse_request_line("GET /metrics HTTP/1.1 extra\r\n"), None);
        assert_eq!(parse_request_line("GET metrics HTTP/1.1\r\n"), None);
        assert_eq!(parse_request_line("GET /metrics SPDY/3\r\n"), None);
        assert_eq!(parse_request_line("{\"app\":\"tm\"}\r\n"), None);
    }

    #[test]
    fn edge_ids_round_trip_exactly_through_json_numbers() {
        // Wire ids travel as f64; every edge id must survive the trip.
        for seq in [0u64, 1, 2, 1_000_000_007] {
            let id = EDGE_ID_BASE + seq;
            assert_eq!((id as f64) as u64, id, "seq {seq} lost precision");
        }
        // And the space stays disjoint from any feasible record index.
        assert!(EDGE_ID_BASE > u32::MAX as u64 * 1024);
    }

    #[test]
    fn query_params_resolve_first_match() {
        assert_eq!(query_param(Some("app=tm&last_us=5"), "app"), Some("tm"));
        assert_eq!(query_param(Some("app=tm&last_us=5"), "last_us"), Some("5"));
        assert_eq!(query_param(Some("last_us=5"), "app"), None);
        assert_eq!(query_param(None, "app"), None);
        assert_eq!(query_param(Some("app=a&app=b"), "app"), Some("a"));
    }

    #[test]
    fn pending_keys_namespace_apps_and_preserve_app_zero() {
        // App 0's keys are the raw engine ids (the single-app gateway
        // is bit-identical to the pre-multi-tenant one)...
        assert_eq!(pending_key(0, 42), 42);
        assert_eq!(pending_key(0, EDGE_ID_BASE - 1), EDGE_ID_BASE - 1);
        // ...and distinct apps can never collide, even on equal ids.
        assert_ne!(pending_key(1, 42), pending_key(0, 42));
        assert_ne!(pending_key(1, 42), pending_key(2, 42));
        // Round trip through the shutdown flush's decomposition.
        const ID_MASK: u64 = (1u64 << TENANT_SHIFT) - 1;
        let key = pending_key(3, 123_456);
        assert_eq!((key >> TENANT_SHIFT) as usize, 3);
        assert_eq!(key & ID_MASK, 123_456);
    }

    #[test]
    fn replay_coordinator_orders_across_parties() {
        let mut c = ReplayCoordinator::new();
        let a = c.join(2).expect("first join");
        assert!(!c.complete(), "one of two parties");
        let b = c.join(2).expect("second join");
        assert!(c.complete());
        assert!(c.join(2).is_err(), "third join into a full group");

        // Park out-of-order across parties; the heap orders by (at,
        // seq, party, intra).
        c.park(b, 30, u64::MAX, ParkedAction::Advance { to_us: 30 });
        c.park(a, 10, u64::MAX, ParkedAction::Advance { to_us: 10 });
        c.park(a, 10, u64::MAX, ParkedAction::Advance { to_us: 11 });
        c.raise(a, 10);
        c.raise(b, 30);
        // Gate = min(10, 30) = 10: the two at=10 advances drain (at <=
        // gate), the at=30 one stays.
        let order: Vec<u64> = std::iter::from_fn(|| {
            let ready = matches!(
                c.heap.peek(),
                Some(Reverse(top)) if top.at <= c.watermarks.iter().copied().min().unwrap()
            );
            ready.then(|| {
                let Reverse(p) = c.heap.pop().unwrap();
                match p.action {
                    ParkedAction::Advance { to_us } => to_us,
                    ParkedAction::Request { .. } => unreachable!(),
                }
            })
        })
        .collect();
        assert_eq!(order, vec![10, 11]);

        // A departed party releases the gate entirely.
        c.leave(a);
        assert_eq!(c.watermarks[a], u64::MAX);
        assert_eq!(
            c.watermarks.iter().copied().min().unwrap(),
            30,
            "the remaining party's watermark gates alone"
        );
        assert_eq!(c.flush().len(), 1, "the at=30 advance was still parked");
    }

    #[test]
    fn replay_order_prefers_seq_over_join_order() {
        // Party indices reflect racy join-arrival order; a client that
        // stamps globally-unique seqs gets the same drain order no
        // matter which connection joined first. Here the *higher*
        // party's entry carries the lower seq and must drain first.
        let mut c = ReplayCoordinator::new();
        let a = c.join(2).expect("first join");
        let b = c.join(2).expect("second join");
        c.park(b, 50, 7, ParkedAction::Advance { to_us: 77 });
        c.park(a, 50, 9, ParkedAction::Advance { to_us: 99 });
        let pop = |c: &mut ReplayCoordinator| match c.heap.pop().unwrap().0.action {
            ParkedAction::Advance { to_us } => to_us,
            ParkedAction::Request { .. } => unreachable!(),
        };
        assert_eq!(pop(&mut c), 77, "seq 7 beats the lower party index");
        assert_eq!(pop(&mut c), 99);
    }

    #[test]
    fn replay_group_size_must_match() {
        let mut c = ReplayCoordinator::new();
        c.join(3).expect("declares the group");
        let err = c.join(2).expect_err("mismatched size");
        assert!(err.contains("3 parties"), "{err}");
    }
}
