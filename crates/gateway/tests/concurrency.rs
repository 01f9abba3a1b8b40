//! Exactly-once delivery under concurrency: many connections hammer
//! the gateway with deeply pipelined submits while completions race
//! back through the sharded pending table. Every request must be
//! answered exactly once — no lost completions (a dropped orphan), no
//! doubles (an entry routed twice) — and the serving-counter algebra
//! must survive the load. Completions are answered on the thread that
//! resolves them — the pump on the simulator, the runtime's worker
//! threads on the live engine — so the pipelined hammer runs on both.

use std::sync::mpsc;
use std::time::Duration;

use pard_engine_api::{Backend, ClusterConfig, EngineBuilder, LiveConfig};
use pard_gateway::{CallSpec, Client, Gateway, GatewayConfig};
use pard_pipeline::AppKind;

fn sim_backend(seed: u64) -> Backend {
    Backend::Sim(
        ClusterConfig::default()
            .with_seed(seed)
            .with_fixed_workers(vec![2, 2, 2])
            .with_pard(pard_core::PardConfig::default().with_mc_draws(200)),
    )
}

fn live_backend() -> Backend {
    Backend::Live(LiveConfig::compressed(20.0, 3, 2))
}

fn gateway(backend: Backend, keep_request_log: bool) -> Gateway {
    let engine = EngineBuilder::new(AppKind::Tm.pipeline())
        .keep_request_log(keep_request_log)
        .build(backend)
        .expect("engine builds");
    Gateway::start(
        engine,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            ..GatewayConfig::default()
        },
    )
    .expect("gateway starts")
}

/// ≥ 8 connections, each pipelining every request before reading any
/// answer: submits on all connections race one another (and the
/// threads resolving completions) across the pending-table shards, and
/// the 1 ms canaries keep the edge-reject path interleaved with
/// admissions. Runs on the simulator and on the live runtime, each
/// with its request log kept and with state freed as requests resolve.
#[test]
fn pipelined_connections_lose_no_completions_and_double_none() {
    for keep_log in [true, false] {
        for (name, backend) in [("sim", sim_backend(7)), ("live", live_backend())] {
            let label = format!("{name} keep_log={keep_log}");
            pipelined_exactly_once(&label, gateway(backend, keep_log));
        }
    }
}

fn pipelined_exactly_once(backend: &str, gateway: Gateway) {
    const CONNS: usize = 12;
    const PER_CONN: usize = 150;

    let addr = gateway.addr();

    let (result_tx, result_rx) = mpsc::channel();
    let mut workers = Vec::new();
    for conn in 0..CONNS {
        let result_tx = result_tx.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut sent_seqs = Vec::with_capacity(PER_CONN);
            for i in 0..PER_CONN {
                let mut spec = CallSpec::new("tm").with_payload_len(16);
                // Every 10th request is an infeasible canary, so edge
                // rejects interleave with admitted traffic.
                if i % 10 == 0 {
                    spec = spec.with_slo_ms(1);
                }
                sent_seqs.push(client.send(&spec).expect("send"));
            }
            let drained = client
                .finish(Duration::from_secs(30))
                .expect("drain answers");
            result_tx
                .send((conn, sent_seqs, drained))
                .expect("report results");
        }));
    }
    drop(result_tx);

    let mut answered_total = 0usize;
    for (conn, sent_seqs, drained) in result_rx.iter() {
        assert_eq!(
            drained.unanswered, 0,
            "{backend} connection {conn}: {} requests never answered (lost completions)",
            drained.unanswered
        );
        // Exactly once: the set of answered seqs equals the set sent.
        let mut answered: Vec<u64> = drained.answers.iter().map(|a| a.seq).collect();
        answered.sort_unstable();
        let before_dedup = answered.len();
        answered.dedup();
        assert_eq!(
            before_dedup,
            answered.len(),
            "{backend} connection {conn}: duplicate answers"
        );
        let mut expected = sent_seqs.clone();
        expected.sort_unstable();
        assert_eq!(
            answered, expected,
            "{backend} connection {conn}: answer set mismatch"
        );
        answered_total += before_dedup;
    }
    for worker in workers {
        worker.join().expect("connection thread");
    }
    assert_eq!(answered_total, CONNS * PER_CONN);

    // Counter algebra: everything received was either admitted or
    // edge-rejected (no protocol errors in this run), every admitted
    // request reached exactly one terminal counter, and the pending
    // table emptied.
    let counters = gateway.counters();
    assert_eq!(counters.received, (CONNS * PER_CONN) as u64);
    assert_eq!(counters.protocol_errors, 0);
    assert_eq!(counters.refused, 0);
    assert_eq!(counters.admitted + counters.rejected, counters.received);
    assert!(
        counters.rejected > 0,
        "{backend}: canaries should be edge-rejected"
    );
    assert!(
        counters.completed_ok > 0,
        "{backend}: admitted traffic should complete"
    );
    assert_eq!(
        counters.completed_ok + counters.completed_late + counters.dropped,
        counters.admitted,
        "{backend}: admitted requests must land in exactly one terminal counter"
    );
    assert_eq!(
        gateway.pending_len(),
        0,
        "{backend}: pending table must drain"
    );
    gateway.shutdown(pard_sim::SimDuration::from_secs(30));
}

/// The same hammer through the closed-loop path (one outstanding call
/// per connection, the bench discipline) — exercises the
/// submit-completes-before-insert orphan race hard, since the engine
/// often resolves a request while the reader is still between
/// `submit` and the pending insert.
#[test]
fn closed_loop_hammer_answers_every_call() {
    const CONNS: usize = 8;
    const PER_CONN: usize = 120;

    let gateway = gateway(sim_backend(11), true);
    let addr = gateway.addr();

    let mut workers = Vec::new();
    for _ in 0..CONNS {
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut answered = 0usize;
            for _ in 0..PER_CONN {
                let answer = client
                    .call(&CallSpec::new("tm"), Duration::from_secs(10))
                    .expect("call")
                    .expect("answered before timeout");
                let _ = answer.outcome;
                answered += 1;
            }
            answered
        }));
    }
    let answered: usize = workers
        .into_iter()
        .map(|w| w.join().expect("connection thread"))
        .sum();
    assert_eq!(answered, CONNS * PER_CONN);
    assert_eq!(gateway.pending_len(), 0);
    gateway.shutdown(pard_sim::SimDuration::from_secs(30));
}
