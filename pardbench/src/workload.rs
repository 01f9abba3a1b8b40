//! The three workloads and the inputs each repetition sends.

use std::time::Duration;

use pard_engine_api::{Backend, ClusterConfig, LiveConfig};
use pard_pipeline::AppKind;

use crate::client::Lines;
use crate::proto;
use crate::schedule::{self, Item};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Scheduled replay (`at_us` stamps) over one connection.
    Replay,
    /// Closed loop, one outstanding request per connection.
    Closed,
    /// Wall-paced open loop.
    Open,
}

/// Engine seed of every simulated gateway, so sim outcomes are a pure
/// function of the schedule.
pub const SIM_SEED: u64 = 42;

/// Workers per module, on both backends.
pub const WORKERS: usize = 2;

/// Seed of the fixed schedule whose outcome hash is pinned in
/// `expected_outcomes.json`; independent of `--seed`.
pub const PIN_SEED: u64 = 0;

/// Virtual seconds a replay schedule runs past its last arrival, so
/// every admitted request resolves.
const REPLAY_TAIL_US: u64 = 30_000_000;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub app: AppKind,
    pub mode: Mode,
    pub live: bool,
    /// Virtual seconds per wall second (live backend only).
    pub scale: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tweet-replay-sim",
        why: "bursty overload replayed on the simulator; exact outcomes, busy admission and drops",
        app: AppKind::Tm,
        mode: Mode::Replay,
        live: false,
        scale: 1.0,
    },
    Workload {
        name: "closed-tm-sim",
        why: "closed loop on the simulator; no queue, the fixed per-request cost of the stack",
        app: AppKind::Tm,
        mode: Mode::Closed,
        live: false,
        scale: 1.0,
    },
    Workload {
        name: "burst-da-live",
        why: "bursty DAG open loop on the live threaded runtime; queueing sets the tail",
        app: AppKind::Da,
        mode: Mode::Open,
        live: true,
        scale: 10.0,
    },
];

/// What one repetition sends.
pub struct Inputs {
    pub lines: Lines,
    /// The replay's final clock advance; empty otherwise.
    pub tail: String,
    /// Wall offsets of the open loop's sends; empty otherwise.
    pub due: Vec<Duration>,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Connections the client opens: two, but never more than `nproc`.
    pub fn conns(&self, nproc: usize) -> usize {
        match self.mode {
            Mode::Replay => 1,
            Mode::Closed | Mode::Open => 2.min(nproc).max(1),
        }
    }

    /// Gateway flags (addresses are added at spawn).
    pub fn gateway_args(&self, nproc: usize) -> Vec<String> {
        let app = self.app.name();
        let shards = 2.min(nproc).max(1).to_string();
        let workers = WORKERS.to_string();
        let mut args: Vec<String> = ["--app", app, "--workers", &workers, "--shards", &shards]
            .iter()
            .map(|s| s.to_string())
            .collect();
        if self.live {
            args.extend(["--backend", "live", "--scale"].map(String::from));
            args.push(self.scale.to_string());
        } else {
            args.extend(["--backend", "sim", "--seed"].map(String::from));
            args.push(SIM_SEED.to_string());
        }
        args
    }

    /// The engine the gateway binary builds from [`Workload::gateway_args`],
    /// for the in-process traced run.
    pub fn engine_backend(&self) -> Backend {
        let modules = self.app.pipeline().modules.len();
        let pard = pard_core::PardConfig::default().with_mc_draws(1_000);
        if self.live {
            Backend::Live(LiveConfig {
                time_scale: self.scale,
                pard,
                workers_per_module: vec![WORKERS; modules],
                headroom: 2.0,
            })
        } else {
            Backend::Sim(
                ClusterConfig::default()
                    .with_seed(SIM_SEED)
                    .with_fixed_workers(vec![WORKERS; modules])
                    .with_pard(pard),
            )
        }
    }

    /// The schedule of one repetition. `size` is virtual seconds for
    /// the Tweet-shaped workloads and a request count for the closed
    /// loop.
    pub fn schedule(&self, seed: u64, size: usize) -> Vec<Item> {
        match self.mode {
            Mode::Replay => schedule::tweet_schedule(seed, size, 450.0),
            Mode::Closed => schedule::closed_schedule(seed, size),
            Mode::Open => schedule::tweet_schedule(seed, size, 90.0),
        }
    }

    /// Renders a schedule into wire lines.
    pub fn inputs(&self, items: &[Item]) -> Inputs {
        let mut lines = Lines::default();
        let app = self.app.name();
        for (seq, item) in items.iter().enumerate() {
            let slo = item.canary.then_some(1);
            let at = (self.mode == Mode::Replay).then_some(item.at_us);
            lines.push(|out| proto::push_request(out, app, seq as u64, slo, at));
        }
        let mut tail = String::new();
        if self.mode == Mode::Replay {
            let last = items.last().map_or(0, |i| i.at_us);
            proto::push_advance(&mut tail, last + REPLAY_TAIL_US);
        }
        let due = match self.mode {
            Mode::Open => items
                .iter()
                .map(|i| Duration::from_secs_f64(i.at_us as f64 / 1e6 / self.scale))
                .collect(),
            _ => Vec::new(),
        };
        Inputs { lines, tail, due }
    }
}
