//! End-to-end tests of the live threaded engine (time-compressed).

use pard_core::{PardPolicy, PardPolicyConfig};
use pard_pipeline::PipelineSpec;
use pard_policies::NaivePolicy;
use pard_profile::ModelProfile;
use pard_runtime::{LiveCluster, LiveConfig, SleepBackend, SubmitOptions};
use pard_sim::{SimDuration, SimTime};

const SCALE: f64 = 40.0; // 40 virtual seconds per wall second

fn profiles() -> Vec<ModelProfile> {
    vec![
        ModelProfile::new("a", 10.0, 5.0, 0.9, 16),
        ModelProfile::new("b", 8.0, 4.0, 0.9, 16),
        ModelProfile::new("c", 6.0, 3.0, 0.9, 16),
    ]
}

fn spec(slo_ms: u64) -> PipelineSpec {
    PipelineSpec::chain("live", SimDuration::from_millis(slo_ms), &["a", "b", "c"])
}

fn start(slo_ms: u64, workers: usize, pard: bool) -> LiveCluster {
    let profs = profiles();
    let backend_profs = profs.clone();
    LiveCluster::start(
        spec(slo_ms),
        profs,
        if pard {
            Box::new(|_| Box::new(PardPolicy::new(PardPolicyConfig::pard())))
        } else {
            Box::new(|_| Box::new(NaivePolicy::new()))
        },
        Box::new(move |m, _| Box::new(SleepBackend::new(backend_profs[m].clone(), SCALE))),
        LiveConfig::compressed(SCALE, 3, workers),
    )
}

#[test]
fn light_load_serves_within_slo() {
    let cluster = start(400, 1, true);
    cluster.run_open_loop(30.0, SimDuration::from_secs(8), 7);
    let log = cluster.finish(SimDuration::from_secs(5));
    assert!(log.len() > 100, "submitted {}", log.len());
    let goodput = log.goodput_count() as f64 / log.len() as f64;
    assert!(goodput > 0.9, "goodput fraction {goodput}");
    // Requests traverse all three modules in order.
    let completed = log
        .records()
        .iter()
        .find(|r| r.is_goodput())
        .expect("at least one goodput request");
    let modules: Vec<usize> = completed.stages.iter().map(|s| s.module).collect();
    assert_eq!(modules, vec![0, 1, 2]);
}

#[test]
fn overload_drops_proactively_with_pard() {
    // SLO is tight and the offered rate exceeds one worker's capacity.
    let cluster = start(150, 1, true);
    cluster.run_open_loop(400.0, SimDuration::from_secs(6), 11);
    let log = cluster.finish(SimDuration::from_secs(4));
    assert!(log.len() > 500);
    assert!(
        log.drop_rate() > 0.1,
        "overload must drop, rate {}",
        log.drop_rate()
    );
    // Goodput requests really met the deadline.
    for r in log.records() {
        if r.is_goodput() {
            let latency = r.latency().expect("completed");
            assert!(latency <= SimDuration::from_millis(150));
        }
    }
}

#[test]
fn pard_beats_naive_under_live_overload() {
    let pard_cluster = start(200, 1, true);
    pard_cluster.run_open_loop(350.0, SimDuration::from_secs(6), 13);
    let pard_log = pard_cluster.finish(SimDuration::from_secs(4));

    let naive_cluster = start(200, 1, false);
    naive_cluster.run_open_loop(350.0, SimDuration::from_secs(6), 13);
    let naive_log = naive_cluster.finish(SimDuration::from_secs(4));

    let pard_frac = pard_log.goodput_count() as f64 / pard_log.len().max(1) as f64;
    let naive_frac = naive_log.goodput_count() as f64 / naive_log.len().max(1) as f64;
    assert!(
        pard_frac > naive_frac,
        "PARD {pard_frac:.3} should beat Naive {naive_frac:.3}"
    );
}

#[test]
fn stage_timestamps_are_ordered() {
    let cluster = start(400, 2, true);
    cluster.run_open_loop(60.0, SimDuration::from_secs(5), 17);
    let log = cluster.finish(SimDuration::from_secs(4));
    let mut stages = 0;
    for r in log.records() {
        let mut prev_end = SimTime::ZERO;
        for s in &r.stages {
            assert!(s.arrived <= s.batched);
            assert!(s.batched <= s.exec_start);
            assert!(s.exec_start < s.exec_end);
            assert!(s.arrived >= prev_end, "stage started before previous ended");
            prev_end = s.exec_end;
            stages += 1;
        }
    }
    assert!(stages > 200, "stages {stages}");
}

#[test]
fn submit_returns_monotonic_ids() {
    let cluster = start(400, 1, true);
    let a = cluster.submit();
    let b = cluster.submit();
    assert_eq!(b, a + 1);
    let log = cluster.finish(SimDuration::from_secs(3));
    assert_eq!(log.len(), 2);
}

#[test]
fn per_request_slo_overrides_pipeline_default() {
    let cluster = start(400, 1, true);
    // An SLO far tighter than the pipeline can serve: the request must
    // resolve as dropped or late, while a default-SLO request completes.
    let tight = cluster.submit_with(SubmitOptions::default().with_slo(SimDuration::from_millis(1)));
    let loose = cluster.submit();
    let log = cluster.finish(SimDuration::from_secs(5));
    let tight_rec = &log.records()[tight as usize];
    let loose_rec = &log.records()[loose as usize];
    assert_eq!(
        tight_rec.deadline,
        tight_rec.sent + SimDuration::from_millis(1)
    );
    assert!(tight_rec.is_dropped(), "tight SLO request must not count");
    assert!(loose_rec.is_goodput(), "default SLO request must complete");
}

#[test]
fn completion_sink_reports_every_request_with_its_tag() {
    let cluster = start(400, 1, true);
    let (tx, rx) = std::sync::mpsc::channel();
    cluster.set_completion_handler(std::sync::Arc::new(move |c| {
        let _ = tx.send(c);
    }));
    let mut expected = std::collections::HashMap::new();
    for tag in [7u64, 11, 13] {
        let id = cluster.submit_with(SubmitOptions::default().with_tag(tag));
        expected.insert(id, tag);
    }
    let mut seen = 0;
    while seen < expected.len() {
        let completion = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("completion within the drain window");
        assert_eq!(expected[&completion.id], completion.tag);
        assert!(!matches!(
            completion.outcome,
            pard_metrics::Outcome::InFlight
        ));
        if completion.within_slo() {
            assert!(completion.latency().expect("completed") <= SimDuration::from_millis(400));
        }
        seen += 1;
    }
    let log = cluster.finish(SimDuration::from_secs(3));
    assert_eq!(log.len(), 3);
}

#[test]
fn edge_state_reflects_plan_and_queues() {
    let cluster = start(400, 2, true);
    let state = cluster.edge_state();
    assert_eq!(state.queue_depths.len(), 3);
    assert_eq!(state.workers, vec![2, 2, 2]);
    assert_eq!(state.batch_sizes.len(), 3);
    assert_eq!(state.exec_ms.len(), 3);
    assert_eq!(state.slo, SimDuration::from_millis(400));
    assert!(state.exec_ms.iter().all(|&d| d > 0.0));
    assert!(state.batch_sizes.iter().all(|&b| b >= 1));
    let _ = cluster.finish(SimDuration::from_secs(1));
}
