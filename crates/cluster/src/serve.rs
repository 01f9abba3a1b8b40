//! Externally driven serving mode for the discrete-event cluster.
//!
//! [`crate::run_with_profiles`] owns the whole timeline: arrivals are
//! pre-drawn from a trace and the event loop runs to completion. A
//! serving front-end needs the opposite — requests arrive one at a
//! time from outside (a socket), and virtual time must only advance
//! when the driver says so. [`SimServer`] wraps [`ClusterWorld`] behind
//! that stepped virtual clock:
//!
//! * [`SimServer::submit`] stamps a request at the *current* virtual
//!   time and schedules its first module arrival; it never advances
//!   the clock.
//! * [`SimServer::pump`] processes queued events — advancing the clock
//!   event-by-event — but **only while at least one submitted request
//!   is unresolved**, and it stops as soon as any request reaches a
//!   terminal state. While the pipeline is idle the clock is frozen,
//!   so the virtual timeline is a pure function of the submit sequence
//!   (order, SLOs) and the seed — never of how often the driver polls.
//!   This is what makes a closed-loop socket-driven simulation
//!   bit-reproducible: when each request is submitted only after the
//!   previous one resolved, replaying the same submit sequence yields
//!   the same per-request outcomes. (With several requests in flight,
//!   how many events a driver pumps between two submits shifts the
//!   later request's virtual arrival time, so pipelined traffic is
//!   reproducible only if the pump/submit interleaving is.)
//! * Periodic [`Event::Sync`] / [`Event::Scale`] self-perpetuate (the
//!   horizon is [`SimTime::MAX`]); they fire in timestamp order
//!   between arrivals like in a trace-driven run, and every
//!   [`crate::FaultSpec`] in [`ClusterConfig::faults`] is scheduled at
//!   construction, so mid-run crashes and slowdowns fire when virtual
//!   time passes their timestamps.
//!
//! # Scheduled replay and the clock gate
//!
//! Closed-loop driving cannot overload a pipeline (one request in
//! flight at a time), and pipelined driving is only as reproducible as
//! the wall-clock interleaving. [`SimServer::advance_to`] closes that
//! gap for trace replay: a driver that knows its arrival schedule calls
//! `advance_to(t)` before each submit. The call processes every queued
//! event up to `t`, moves the clock to exactly `t` (through idle
//! stretches too, so syncs, scaling, and faults fire on schedule), and
//! raises the **clock gate** to `t`. Once the gate is set,
//! [`SimServer::pump`] never processes an event beyond it — so between
//! two `advance_to` calls the world is frozen, and the whole timeline
//! is a pure function of the submit sequence and the seed no matter how
//! driver threads interleave. Arrivals must be replayed in
//! non-decreasing schedule order (one driver, sorted schedule);
//! [`SimServer::drain`] releases the gate to its deadline so the tail
//! resolves.
//!
//! # Bounded state
//!
//! The world reports each request the moment it turns terminal, and
//! the server retires it once its [`TerminalEvent`] is built. Without
//! the request log ([`SimServer::set_keep_request_log`]) a serving
//! process therefore holds state for the requests in flight only, not
//! for every request it has served. With the log (the default) every
//! record is kept for [`SimServer::take_log`], as a trace run keeps it.

use pard_core::PolicyFactory;
use pard_metrics::{Outcome, RequestLog};
use pard_pipeline::PipelineSpec;
use pard_profile::ModelProfile;
use pard_sim::{SimDuration, SimTime, Simulation};

use crate::config::ClusterConfig;
use crate::engine::{ClusterWorld, Event};
use crate::worker::WorkerState;

/// A request that reached a terminal state during a pump or drain.
#[derive(Clone, Copy, Debug)]
pub struct TerminalEvent {
    /// The id [`SimServer::submit`] returned.
    pub id: u64,
    /// Virtual submit time.
    pub sent: SimTime,
    /// Absolute virtual deadline.
    pub deadline: SimTime,
    /// Terminal outcome (never [`Outcome::InFlight`]).
    pub outcome: Outcome,
}

/// Edge-visible serving state of the simulated cluster — the same
/// shape a live engine reports, built from the DES worker queues and
/// the static batch plan.
#[derive(Clone, Debug)]
pub struct EdgeSnapshot {
    /// Queued requests per module (summed over workers).
    pub queue_depths: Vec<usize>,
    /// Serviceable (`Up`) workers per module, floored at 1.
    pub workers: Vec<usize>,
    /// Planned batch size per module.
    pub batch_sizes: Vec<usize>,
    /// Profiled execution duration per module at the planned batch, ms.
    pub exec_ms: Vec<f64>,
    /// The pipeline's default SLO.
    pub slo: SimDuration,
}

/// The stepped-clock serving wrapper around [`ClusterWorld`].
pub struct SimServer {
    sim: Simulation<ClusterWorld>,
    /// Submitted requests not yet terminal.
    unresolved: usize,
    /// Scheduled-replay clock gate: once set (by the first
    /// [`SimServer::advance_to`]), [`SimServer::pump`] never processes
    /// an event beyond it. `None` = ungated closed-loop serving.
    gate: Option<SimTime>,
}

impl SimServer {
    /// Builds a serving cluster for `spec` with `workers_per_module`
    /// initial workers each.
    ///
    /// # Panics
    ///
    /// Panics if the spec or config is invalid, or if the worker vector
    /// length does not match the module count (configurations are built
    /// once; see [`ClusterConfig::validate`]).
    pub fn new(
        spec: PipelineSpec,
        profiles: Vec<ModelProfile>,
        factory: PolicyFactory,
        config: ClusterConfig,
        workers_per_module: Vec<usize>,
    ) -> SimServer {
        config.validate();
        spec.validate().expect("invalid pipeline spec");
        assert_eq!(profiles.len(), spec.modules.len(), "one profile per module");
        assert_eq!(
            workers_per_module.len(),
            spec.modules.len(),
            "one worker count per module"
        );
        let first_sync = config.pard.first_sync();
        let scale_period = config.scale_period;
        let faults = config.faults.clone();
        let world = ClusterWorld::new(
            spec,
            profiles,
            factory,
            config,
            workers_per_module,
            SimTime::MAX,
        );
        let mut sim = Simulation::new(world);
        sim.world_mut().resolved = Some(Vec::new());
        sim.schedule(first_sync, Event::Sync);
        sim.schedule(SimTime::ZERO + scale_period, Event::Scale);
        // Faults fire mid-run when virtual time passes their
        // timestamps, exactly as in a trace-driven run. Under a pure
        // closed-loop driver virtual time only moves while requests are
        // in flight, so a fault beyond the traffic horizon never fires;
        // scheduled replay ([`SimServer::advance_to`]) moves the clock
        // through idle stretches and hits every timestamp.
        crate::engine::schedule_faults(&mut sim, &faults);
        SimServer {
            sim,
            unresolved: 0,
            gate: None,
        }
    }

    /// Current virtual time (frozen while the pipeline is idle).
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The pipeline specification being served.
    pub fn spec(&self) -> &PipelineSpec {
        &self.sim.world().spec
    }

    /// Number of submitted requests not yet terminal.
    pub fn unresolved(&self) -> usize {
        self.unresolved
    }

    /// Chooses whether every request's record is kept for
    /// [`SimServer::take_log`] (the default) or freed as the request
    /// resolves, so state stays bounded by the requests in flight.
    ///
    /// # Panics
    ///
    /// Panics after the first [`SimServer::submit`].
    pub fn set_keep_request_log(&mut self, keep: bool) {
        self.sim.world_mut().requests.set_keep_log(keep);
    }

    /// Installs a flight recorder: from now on every lifecycle event
    /// (stage execution, drop, merge-barrier release, completion) is
    /// recorded with its virtual timestamp. Observation only — the
    /// event timeline is bit-identical with or without a recorder.
    pub fn set_recorder(&mut self, recorder: std::sync::Arc<pard_obs::FlightRecorder>) {
        self.sim.world_mut().recorder = Some(recorder);
    }

    /// Releases the replay clock gate, returning to ungated serving
    /// (pump advances freely while requests are unresolved). Ordinary
    /// (un-scheduled) traffic arriving on a previously gated server
    /// must clear the gate, or its events — always beyond the last
    /// scheduled arrival — could never be processed.
    pub fn clear_gate(&mut self) {
        self.gate = None;
    }

    /// Submits one request at the current virtual time under `slo` (the
    /// pipeline's default when `None`); returns its id. The clock does
    /// not advance — call [`SimServer::pump`] to make progress.
    pub fn submit(&mut self, slo: Option<SimDuration>) -> u64 {
        let now = self.sim.now();
        let (id, arrival, source) = {
            let w = self.sim.world_mut();
            let slo = slo.unwrap_or(w.spec.slo);
            let id = w.requests.insert(now, now.saturating_add(slo), &w.spec);
            (id, now.saturating_add(w.config.net_delay), w.spec.source())
        };
        self.sim.schedule(
            arrival,
            Event::ModuleArrival {
                module: source,
                req: id,
            },
        );
        self.unresolved += 1;
        id
    }

    /// Processes queued events while any request is unresolved, up to
    /// `max_events`, stopping early the moment one or more requests
    /// reach a terminal state. Never crosses the clock gate (see
    /// [`SimServer::advance_to`]). Returns the number of events
    /// processed and the terminals reached (possibly empty). A no-op
    /// when the pipeline is idle or the gate stalls it.
    pub fn pump(&mut self, max_events: usize) -> (usize, Vec<TerminalEvent>) {
        let mut out = Vec::new();
        let mut processed = 0;
        for _ in 0..max_events {
            if self.unresolved == 0 {
                break;
            }
            if let (Some(gate), Some(next)) = (self.gate, self.sim.peek_time()) {
                if next > gate {
                    break;
                }
            }
            if !self.sim.step() {
                break;
            }
            processed += 1;
            self.collect_terminals(&mut out);
            if !out.is_empty() {
                break;
            }
        }
        (processed, out)
    }

    /// Processes every queued event up to `t`, then moves the clock to
    /// exactly `t` — through idle stretches too, so periodic syncs,
    /// scaling evaluations, and scheduled faults fire even while no
    /// request is in flight — and raises the clock gate to `t`.
    ///
    /// This is the scheduled-replay primitive: a driver replaying a
    /// known arrival schedule calls `advance_to(arrival)` then
    /// [`SimServer::submit`], and because [`SimServer::pump`] never
    /// crosses the gate, the resulting timeline is a pure function of
    /// the schedule and the seed regardless of thread interleaving.
    /// Calls must use non-decreasing `t` (a sorted schedule); a stale
    /// `t` (at or before the gate) processes nothing and leaves the
    /// gate where it was. Returns the terminals reached.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<TerminalEvent> {
        let mut out = Vec::new();
        self.gate = Some(self.gate.map_or(t, |g| g.max(t)));
        while let Some(next) = self.sim.peek_time() {
            if next > t {
                break;
            }
            self.sim.step();
            self.collect_terminals(&mut out);
        }
        self.sim.advance_now_to(t);
        out
    }

    /// Pumps until every submitted request is terminal or virtual time
    /// has advanced by `limit`, returning every terminal reached. On a
    /// gated server the gate is released up to the drain deadline.
    pub fn drain(&mut self, limit: SimDuration) -> Vec<TerminalEvent> {
        let deadline = self.sim.now().saturating_add(limit);
        if let Some(gate) = self.gate {
            self.gate = Some(gate.max(deadline));
        }
        let mut out = Vec::new();
        while self.unresolved > 0 {
            match self.sim.peek_time() {
                Some(t) if t <= deadline => {
                    self.sim.step();
                    self.collect_terminals(&mut out);
                }
                _ => break,
            }
        }
        out
    }

    /// Snapshot of the state edge admission control needs.
    pub fn edge_snapshot(&self) -> EdgeSnapshot {
        let w = self.sim.world();
        let mut queue_depths = Vec::with_capacity(w.modules.len());
        let mut workers = Vec::with_capacity(w.modules.len());
        let mut batch_sizes = Vec::with_capacity(w.modules.len());
        let mut exec_ms = Vec::with_capacity(w.modules.len());
        for m in &w.modules {
            queue_depths.push(m.workers.iter().map(|w| w.policy.queue_len()).sum());
            workers.push(
                m.workers
                    .iter()
                    .filter(|w| w.state == WorkerState::Up)
                    .count()
                    .max(1),
            );
            batch_sizes.push(m.batch_size);
            exec_ms.push(m.profile.latency_ms(m.batch_size));
        }
        EdgeSnapshot {
            queue_depths,
            workers,
            batch_sizes,
            exec_ms,
            slo: w.spec.slo,
        }
    }

    /// Takes the accumulated request log, leaving the server empty (a
    /// subsequent take returns an empty log). Without the request log
    /// ([`SimServer::set_keep_request_log`]) the log is always empty.
    /// Ids keep counting up, so a request submitted later never shares
    /// an id with one taken here.
    pub fn take_log(&mut self) -> RequestLog {
        self.unresolved = 0;
        let world = self.sim.world_mut();
        if let Some(resolved) = &mut world.resolved {
            resolved.clear();
        }
        world.requests.take_log()
    }

    /// Turns the requests the world resolved since the last call into
    /// terminal events, in ascending id order, and retires them.
    fn collect_terminals(&mut self, out: &mut Vec<TerminalEvent>) {
        let world = self.sim.world_mut();
        let resolved = world.resolved.as_mut().expect("serving worlds report");
        resolved.sort_unstable();
        for id in resolved.drain(..) {
            let r = world
                .requests
                .get(id)
                .expect("a request is retired only after its terminal event");
            out.push(TerminalEvent {
                id,
                sent: r.sent,
                deadline: r.deadline,
                outcome: r.outcome,
            });
            world.requests.retire(id);
            self.unresolved -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_core::{PardPolicy, PardPolicyConfig};
    use pard_pipeline::AppKind;

    fn server(seed: u64) -> SimServer {
        let spec = AppKind::Tm.pipeline();
        let profiles = crate::engine::resolve_profiles(&spec).expect("builtin models in zoo");
        let config = ClusterConfig::default()
            .with_seed(seed)
            .with_fixed_workers(vec![2; spec.modules.len()])
            .with_pard(pard_core::PardConfig::default().with_mc_draws(500));
        let workers = config.fixed_workers.clone().unwrap();
        SimServer::new(
            spec,
            profiles,
            Box::new(|_| Box::new(PardPolicy::new(PardPolicyConfig::pard()))),
            config,
            workers,
        )
    }

    fn run_scenario(seed: u64) -> Vec<(u64, bool)> {
        let mut s = server(seed);
        let mut outcomes = Vec::new();
        for i in 0..20u64 {
            // Every fifth request carries an infeasible 1 ms budget.
            let slo = if i % 5 == 0 {
                Some(SimDuration::from_millis(1))
            } else {
                None
            };
            let id = s.submit(slo);
            // Closed loop: resolve before the next submit.
            let mut terminal = None;
            for _ in 0..1_000 {
                let (_, t) = s.pump(10_000);
                if let Some(t) = t.into_iter().find(|t| t.id == id) {
                    terminal = Some(t);
                    break;
                }
            }
            let t = terminal.expect("request resolves");
            outcomes.push((t.id, matches!(t.outcome, Outcome::Completed { .. })));
        }
        outcomes
    }

    #[test]
    fn idle_server_does_not_advance_time() {
        let mut s = server(1);
        let t0 = s.now();
        let (processed, terminals) = s.pump(1_000);
        assert_eq!(processed, 0);
        assert!(terminals.is_empty());
        assert_eq!(s.now(), t0, "pump must be a no-op while idle");
    }

    #[test]
    fn submitted_requests_resolve_and_drain() {
        let mut s = server(2);
        let a = s.submit(None);
        let b = s.submit(Some(SimDuration::from_micros(1)));
        let mut terminals = Vec::new();
        terminals.extend(s.drain(SimDuration::from_secs(30)));
        assert_eq!(terminals.len(), 2);
        assert_eq!(s.unresolved(), 0);
        let ok = terminals
            .iter()
            .find(|t| t.id == a)
            .expect("generous request resolves");
        assert!(matches!(ok.outcome, Outcome::Completed { .. }), "{ok:?}");
        let hopeless = terminals.iter().find(|t| t.id == b).unwrap();
        assert!(
            matches!(hopeless.outcome, Outcome::Dropped { .. }),
            "{hopeless:?}"
        );
        let log = s.take_log();
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn same_seed_same_submit_sequence_same_outcomes() {
        let a = run_scenario(7);
        let b = run_scenario(7);
        assert_eq!(a, b, "stepped sim must be bit-reproducible");
        assert!(a.iter().any(|&(_, ok)| ok), "some requests complete");
        assert!(a.iter().any(|&(_, ok)| !ok), "canaries are dropped");
    }

    #[test]
    fn advance_to_moves_the_clock_through_idle_stretches() {
        let mut s = server(3);
        assert_eq!(s.now(), SimTime::ZERO);
        let terminals = s.advance_to(SimTime::from_secs(5));
        assert!(terminals.is_empty(), "no requests were submitted");
        assert_eq!(s.now(), SimTime::from_secs(5));
        // A request submitted at the advanced clock resolves normally.
        let id = s.submit(None);
        let terminals = s.advance_to(SimTime::from_secs(10));
        let t = terminals.iter().find(|t| t.id == id).expect("resolves");
        assert_eq!(t.sent, SimTime::from_secs(5));
        assert!(matches!(t.outcome, Outcome::Completed { .. }), "{t:?}");
    }

    #[test]
    fn pump_never_crosses_the_gate() {
        let mut s = server(4);
        s.advance_to(SimTime::from_secs(1));
        let id = s.submit(None);
        // The arrival (and everything after it) lies beyond the gate:
        // pumping makes no progress until the gate is raised.
        let (processed, terminals) = s.pump(100_000);
        assert_eq!(processed, 0, "gate must stall the pump");
        assert!(terminals.is_empty());
        assert_eq!(s.now(), SimTime::from_secs(1));
        let terminals = s.advance_to(SimTime::from_secs(3));
        assert!(terminals.iter().any(|t| t.id == id), "released by gate");
    }

    #[test]
    fn scheduled_faults_fire_under_the_stepped_clock() {
        let spec = AppKind::Tm.pipeline();
        let profiles = crate::engine::resolve_profiles(&spec).expect("builtin models in zoo");
        let config = ClusterConfig::default()
            .with_seed(9)
            .with_fixed_workers(vec![1; spec.modules.len()])
            .with_pard(pard_core::PardConfig::default().with_mc_draws(500));
        let config = ClusterConfig {
            faults: vec![crate::FaultSpec::WorkerCrash {
                module: 0,
                worker: 0,
                at: SimTime::from_secs(2),
            }],
            exec_jitter_sigma: 0.0,
            ..config
        };
        let workers = config.fixed_workers.clone().unwrap();
        let mut s = SimServer::new(
            spec,
            profiles,
            Box::new(|_| Box::new(PardPolicy::new(PardPolicyConfig::pard()))),
            config,
            workers,
        );
        // Before the crash: a request completes.
        let a = s.submit(None);
        let before = s.advance_to(SimTime::from_secs(1));
        let a = before.iter().find(|t| t.id == a).expect("resolves");
        assert!(matches!(a.outcome, Outcome::Completed { .. }), "{a:?}");
        // Advance past the crash: module 0's only worker goes down, so
        // every later request is dropped at dispatch.
        s.advance_to(SimTime::from_secs(3));
        let b = s.submit(None);
        let after = s.advance_to(SimTime::from_secs(5));
        let b = after.iter().find(|t| t.id == b).expect("resolves");
        assert!(matches!(b.outcome, Outcome::Dropped { .. }), "{b:?}");
    }
}
