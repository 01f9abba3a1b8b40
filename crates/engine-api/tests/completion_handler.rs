//! The completion-handler contract of [`EngineHandle`]: every request
//! resolves to exactly one handler call carrying its id, tag and
//! outcome; the channel adapter (`set_completion_sink`) sees exactly
//! what a handler sees; `drain` drops the handler, so nothing is
//! delivered once it returns; and an engine that frees each request's
//! state as it resolves (no request log) delivers exactly the
//! completions of one that keeps the log. `settle` takes one bounded
//! step on the calling thread: a stepped engine resolves a closed-loop
//! request there, and a live engine leaves it to its own workers.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use pard_core::PardConfig;
use pard_engine_api::{
    Backend, ClusterConfig, Completion, EngineBuilder, EngineHandle, FaultSpec, LiveConfig,
    SubmitSpec,
};
use pard_metrics::Outcome;
use pard_pipeline::AppKind;
use pard_sim::{SimDuration, SimTime};

/// Requests in each fixed submit sequence.
const REQUESTS: u64 = 400;

type Seen = Arc<Mutex<Vec<(u64, u64, Outcome)>>>;

/// A seeded simulator for `app`. The DAG app also loses a worker of
/// one branch mid-sequence, so crash drops and re-dispatch run too.
fn sim_engine(app: AppKind, keep_log: bool) -> Box<dyn EngineHandle> {
    let modules = app.pipeline().modules.len();
    let faults = match app {
        AppKind::Da => vec![FaultSpec::WorkerCrash {
            module: 1,
            worker: 0,
            at: SimTime::from_millis(150),
        }],
        _ => Vec::new(),
    };
    EngineBuilder::for_app(app)
        .keep_request_log(keep_log)
        .with_faults(faults)
        .build(Backend::Sim(
            ClusterConfig::default()
                .with_seed(42)
                .with_fixed_workers(vec![2; modules])
                .with_pard(PardConfig::default().with_mc_draws(200)),
        ))
        .expect("sim engine builds")
}

fn live_engine() -> Box<dyn EngineHandle> {
    EngineBuilder::for_app(AppKind::Tm)
        .build(Backend::Live(LiveConfig::compressed(20.0, 3, 2)))
        .expect("live engine builds")
}

/// Registers a handler that records every completion it is called with.
fn record_with_handler(engine: &dyn EngineHandle) -> Seen {
    let seen: Seen = Arc::default();
    let sink = Arc::clone(&seen);
    engine.set_completion_handler(Arc::new(move |c: Completion| {
        sink.lock().unwrap().push((c.id, c.tag, c.outcome));
    }));
    seen
}

/// The fixed submit sequence: arrivals every 1.5 virtual ms (fast
/// enough to overload `tm`, so PARD drops inside the pipeline too),
/// every 9th a 1 ms canary, each tagged from its index. Scheduled
/// arrivals resolve earlier requests inside `submit` and the rest in
/// `drain`, the two delivery sites a stepped engine has besides `pump`.
/// Returns the submitted ids with their tags.
fn submit_sequence(engine: &dyn EngineHandle, scheduled: bool) -> Vec<(u64, u64)> {
    (0..REQUESTS)
        .map(|i| {
            let mut spec = SubmitSpec::default().with_tag(1_000 + i);
            if scheduled {
                spec = spec.with_at(SimTime::from_micros(i * 1_500));
            }
            if i % 9 == 0 {
                spec = spec.with_slo(SimDuration::from_millis(1));
            }
            (engine.submit(spec), spec.tag)
        })
        .collect()
}

/// Each submitted id resolved exactly once, with its own tag.
fn assert_exactly_once(backend: &str, seen: &[(u64, u64, Outcome)], submitted: &[(u64, u64)]) {
    let ids: HashSet<u64> = seen.iter().map(|&(id, _, _)| id).collect();
    assert_eq!(
        ids.len(),
        seen.len(),
        "{backend}: an id was delivered twice"
    );
    let mut got: Vec<(u64, u64)> = seen.iter().map(|&(id, tag, _)| (id, tag)).collect();
    got.sort_unstable();
    let mut want = submitted.to_vec();
    want.sort_unstable();
    assert_eq!(got, want, "{backend}: delivered (id, tag) set differs");
    assert!(
        seen.iter().all(|(_, _, o)| !matches!(o, Outcome::InFlight)),
        "{backend}: a completion carried a non-terminal outcome"
    );
}

#[test]
fn sim_handler_and_sink_adapter_see_the_same_completions() {
    for app in [AppKind::Tm, AppKind::Da] {
        handler_and_sink_agree(app);
    }
}

fn handler_and_sink_agree(app: AppKind) {
    let engine = sim_engine(app, true);
    let seen = record_with_handler(engine.as_ref());
    let submitted = submit_sequence(engine.as_ref(), true);
    let log = engine.drain(SimDuration::from_secs(60));
    let mut by_handler = seen.lock().unwrap().clone();
    assert_exactly_once("sim", &by_handler, &submitted);
    // The handler's outcomes are the log's.
    for &(id, _, outcome) in &by_handler {
        assert_eq!(log.records()[id as usize].outcome, outcome, "request {id}");
    }
    assert!(
        by_handler
            .iter()
            .any(|(_, _, o)| matches!(o, Outcome::Completed { .. })),
        "the sequence must complete some requests"
    );
    assert!(
        by_handler
            .iter()
            .any(|(_, _, o)| matches!(o, Outcome::Dropped { .. })),
        "the sequence must drop some requests"
    );

    // Without the request log each request's state is freed as it
    // resolves; the ordered completions must not change at all.
    let engine = sim_engine(app, false);
    let freed = record_with_handler(engine.as_ref());
    submit_sequence(engine.as_ref(), true);
    assert!(engine.drain(SimDuration::from_secs(60)).is_empty());
    assert_eq!(
        *freed.lock().unwrap(),
        by_handler,
        "{}: the log setting changed the completion sequence",
        app.name()
    );

    let engine = sim_engine(app, true);
    let (tx, rx) = std::sync::mpsc::channel();
    engine.set_completion_sink(tx);
    submit_sequence(engine.as_ref(), true);
    engine.drain(SimDuration::from_secs(60));
    // Draining dropped the adapter's sender, so the channel ends.
    let mut by_sink: Vec<_> = rx.iter().map(|c| (c.id, c.tag, c.outcome)).collect();
    by_handler.sort_unstable_by_key(|&(id, _, _)| id);
    by_sink.sort_unstable_by_key(|&(id, _, _)| id);
    assert_eq!(by_handler, by_sink);
}

/// Drives `engine` through `submit` and `drain`, then checks that
/// `drain` released the handler (no thread can call it any more) and
/// that nothing arrives afterwards.
fn assert_quiet_after_drain(backend: &str, engine: Box<dyn EngineHandle>) {
    let seen = record_with_handler(engine.as_ref());
    let submitted = submit_sequence(engine.as_ref(), false);
    // Stepped engines only move when driven; drain resolves the rest.
    engine.pump();
    engine.drain(SimDuration::from_secs(60));
    let delivered = seen.lock().unwrap().len();
    assert_eq!(
        Arc::strong_count(&seen),
        1,
        "{backend}: drain must drop the completion handler"
    );
    assert_exactly_once(backend, &seen.lock().unwrap(), &submitted);
    // The handler is gone, so no thread can call it; later calls are
    // harmless and deliver nothing.
    engine.pump();
    engine.drain(SimDuration::from_secs(1));
    assert_eq!(
        seen.lock().unwrap().len(),
        delivered,
        "{backend}: completion delivered after drain returned"
    );
}

#[test]
fn nothing_is_delivered_after_drain_on_either_backend() {
    assert_quiet_after_drain("sim", sim_engine(AppKind::Tm, true));
    assert_quiet_after_drain("live", live_engine());
}

/// Registers a handler that records each completion's id with the
/// thread it was delivered on.
fn record_threads(engine: &dyn EngineHandle) -> Arc<Mutex<Vec<(u64, ThreadId)>>> {
    let seen: Arc<Mutex<Vec<(u64, ThreadId)>>> = Arc::default();
    let sink = Arc::clone(&seen);
    engine.set_completion_handler(Arc::new(move |c: Completion| {
        sink.lock()
            .unwrap()
            .push((c.id, std::thread::current().id()));
    }));
    seen
}

#[test]
fn settle_resolves_a_closed_loop_on_the_calling_thread() {
    const CLOSED_LOOP: u64 = 1_000;
    let caller = std::thread::current().id();
    for app in [AppKind::Tm, AppKind::Da] {
        // Closed loop, as the gateway's submitting shard drives it: each
        // free-running submit files its id, then is settled before the
        // next one.
        let engine = sim_engine(app, false);
        let seen = record_threads(engine.as_ref());
        for i in 0..CLOSED_LOOP {
            let mut filed = None;
            let id = engine.submit_then(SubmitSpec::default().with_tag(1 + i), &mut |id| {
                // Called before any step could resolve the request.
                assert_eq!(seen.lock().unwrap().len() as u64, i);
                filed = Some(id);
            });
            assert_eq!(filed, Some(id));
            assert!(
                engine.settle(),
                "{}: request {i} left unresolved by one step",
                app.name()
            );
            assert_eq!(
                seen.lock().unwrap().last(),
                Some(&(id, caller)),
                "{}: request {i} not delivered on the settling thread",
                app.name()
            );
        }
        assert_eq!(seen.lock().unwrap().len() as u64, CLOSED_LOOP);
        // Nothing unresolved: settle is a no-op that still says so.
        assert!(engine.settle());
        assert_eq!(seen.lock().unwrap().len() as u64, CLOSED_LOOP);
        engine.drain(SimDuration::from_secs(1));

        // A backlog needs many steps; one settle takes exactly the one
        // bounded step a `pump` call takes on an identical engine.
        let settled = sim_engine(app, false);
        let pumped = sim_engine(app, false);
        let by_settle = record_threads(settled.as_ref());
        let by_pump = record_threads(pumped.as_ref());
        for engine in [&settled, &pumped] {
            for i in 0..REQUESTS {
                engine.submit(SubmitSpec::default().with_tag(1 + i));
            }
        }
        assert!(
            !settled.settle(),
            "{}: {REQUESTS} requests resolved within one step",
            app.name()
        );
        assert!(pumped.pump());
        let ids = |seen: &Arc<Mutex<Vec<(u64, ThreadId)>>>| -> Vec<u64> {
            seen.lock().unwrap().iter().map(|&(id, _)| id).collect()
        };
        assert_eq!(ids(&by_settle), ids(&by_pump), "{}", app.name());
        assert_eq!(settled.now(), pumped.now(), "{}", app.name());
        assert!(ids(&by_settle).len() < REQUESTS as usize);
        settled.drain(SimDuration::from_secs(60));
        pumped.drain(SimDuration::from_secs(60));
    }
}

#[test]
fn live_settle_declines_and_delivers_nothing() {
    let engine = live_engine();
    let seen = record_threads(engine.as_ref());
    assert!(!engine.settle(), "live: settle with nothing submitted");
    engine.submit(SubmitSpec::default());
    assert!(!engine.settle(), "live: settle after a submit");
    let caller = std::thread::current().id();
    assert!(
        seen.lock()
            .unwrap()
            .iter()
            .all(|&(_, thread)| thread != caller),
        "live: settle delivered a completion on the calling thread"
    );
    engine.drain(SimDuration::from_secs(60));
    assert_eq!(
        seen.lock().unwrap().len(),
        1,
        "live: the submit resolves on the workers"
    );
}
