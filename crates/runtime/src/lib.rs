//! Live multi-threaded serving engine for PARD pipelines.
//!
//! The discrete-event simulator (`pard-cluster`) is the evaluation
//! substrate; this crate proves the same policy objects serve on real
//! threads: per-worker OS threads with condition-variable queues, a
//! controller thread doing periodic state synchronisation, wall-clock
//! time (optionally compressed via [`WallClock`]), and pluggable
//! [`InferenceBackend`]s — a sleep-based one following a
//! [`pard_profile::ModelProfile`], and a CPU mat-mul backend that can be
//! profiled offline exactly like a production model.

pub mod backend;
pub mod clock;
pub mod engine;

pub use backend::{CpuBackend, InferenceBackend, ScriptedSlowdownBackend, SleepBackend};
pub use clock::WallClock;
pub use engine::{
    BackendFactory, Completion, CompletionHandler, EdgeState, LiveCluster, LiveConfig,
    SubmitOptions,
};
