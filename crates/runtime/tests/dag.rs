//! DAG execution on the live threaded engine: split fan-out, merge
//! join barriers, and sibling cancellation when a branch drops.

use pard_core::{PolicyFactory, PopCtx, PopOutcome, ReqMeta, WorkerPolicy};
use pard_metrics::{DropReason, Outcome};
use pard_pipeline::{ModuleSpec, PipelineSpec};
use pard_policies::NaivePolicy;
use pard_runtime::{LiveCluster, LiveConfig, SleepBackend};
use pard_sim::{SimDuration, SimTime};

const SCALE: f64 = 40.0; // 40 virtual seconds per wall second

/// The diamond of §5.1: 0 splits to {1, 2}, 3 merges them.
fn diamond() -> PipelineSpec {
    PipelineSpec {
        name: "diamond".into(),
        slo: SimDuration::from_millis(5_000),
        modules: vec![
            ModuleSpec {
                name: "a".into(),
                id: 0,
                pres: vec![],
                subs: vec![1, 2],
            },
            ModuleSpec {
                name: "b".into(),
                id: 1,
                pres: vec![0],
                subs: vec![3],
            },
            ModuleSpec {
                name: "c".into(),
                id: 2,
                pres: vec![0],
                subs: vec![3],
            },
            ModuleSpec {
                name: "d".into(),
                id: 3,
                pres: vec![1, 2],
                subs: vec![],
            },
        ],
    }
}

fn profiles() -> Vec<pard_profile::ModelProfile> {
    vec![
        pard_profile::ModelProfile::new("a", 10.0, 5.0, 0.9, 16),
        pard_profile::ModelProfile::new("b", 8.0, 4.0, 0.9, 16),
        // The c branch is deliberately ~4× slower than b, so the merge
        // barrier is always exercised: b's fragment arrives first and
        // must wait for c's.
        pard_profile::ModelProfile::new("c", 30.0, 15.0, 0.9, 16),
        pard_profile::ModelProfile::new("d", 6.0, 3.0, 0.9, 16),
    ]
}

fn start(policy: PolicyFactory) -> LiveCluster {
    let profs = profiles();
    let backend_profs = profs.clone();
    LiveCluster::start(
        diamond(),
        profs,
        policy,
        Box::new(move |m, _| Box::new(SleepBackend::new(backend_profs[m].clone(), SCALE))),
        LiveConfig::compressed(SCALE, 4, 1),
    )
}

fn naive_everywhere() -> PolicyFactory {
    Box::new(|_| Box::new(NaivePolicy::new()))
}

/// Refuses every request at admission — stands in for a PARD drop
/// firing on one DAG branch.
struct RefuseAll;

impl WorkerPolicy for RefuseAll {
    fn name(&self) -> &'static str {
        "refuse-all"
    }

    fn enqueue(&mut self, req: ReqMeta, _now: SimTime) -> Option<(ReqMeta, DropReason)> {
        Some((req, DropReason::PredictedViolation))
    }

    fn pop_next(&mut self, _ctx: &PopCtx) -> PopOutcome {
        PopOutcome::Empty
    }

    fn queue_len(&self) -> usize {
        0
    }

    fn drain_queue(&mut self) -> Vec<ReqMeta> {
        Vec::new()
    }
}

#[test]
fn split_fans_out_and_merge_waits_for_both_branches() {
    let cluster = start(naive_everywhere());
    let ids: Vec<u64> = (0..5).map(|_| cluster.submit()).collect();
    let log = cluster.finish(SimDuration::from_secs(20));
    assert_eq!(log.len(), ids.len());
    for record in log.records() {
        assert!(
            matches!(record.outcome, Outcome::Completed { .. }),
            "{record:?}"
        );
        // Every module executed exactly once — the split fragment per
        // branch, and a single merged execution at the sink.
        let mut visits = [0usize; 4];
        for stage in &record.stages {
            visits[stage.module] += 1;
        }
        assert_eq!(visits, [1, 1, 1, 1], "{record:?}");
        // The source ran first, the sink last.
        assert_eq!(record.stages.first().unwrap().module, 0);
        assert_eq!(record.stages.last().unwrap().module, 3);
        // The join barrier held: the merged fragment arrived at the
        // sink only after *both* branch executions ended.
        let end_of = |module: usize| {
            record
                .stages
                .iter()
                .find(|s| s.module == module)
                .unwrap()
                .exec_end
        };
        let sink_arrival = record
            .stages
            .iter()
            .find(|s| s.module == 3)
            .unwrap()
            .arrived;
        assert!(sink_arrival >= end_of(1), "{record:?}");
        assert!(sink_arrival >= end_of(2), "{record:?}");
    }
}

#[test]
fn branch_drop_cancels_siblings_and_reports_exactly_once() {
    // Module 1 (one branch of the split) refuses everything; module 2
    // would happily serve its fragment.
    let policy: PolicyFactory = Box::new(|module| {
        if module == 1 {
            Box::new(RefuseAll)
        } else {
            Box::new(NaivePolicy::new())
        }
    });
    let cluster = start(policy);
    let (tx, rx) = std::sync::mpsc::channel();
    cluster.set_completion_handler(std::sync::Arc::new(move |c| {
        let _ = tx.send(c);
    }));
    let id = cluster.submit();
    let log = cluster.finish(SimDuration::from_secs(20));

    // Exactly one terminal notification, and it is the branch drop.
    let completions: Vec<_> = rx.try_iter().collect();
    assert_eq!(completions.len(), 1, "{completions:?}");
    assert_eq!(completions[0].id, id);
    match completions[0].outcome {
        Outcome::Dropped { module, reason, .. } => {
            assert_eq!(module, 1);
            assert_eq!(reason, DropReason::PredictedViolation);
        }
        other => panic!("expected a drop, got {other:?}"),
    }

    // The sibling fragment on module 2 was cancelled before execution
    // and the sink never ran: only the source produced a stage.
    let record = &log.records()[id as usize];
    assert!(record.is_dropped(), "{record:?}");
    let visited: Vec<usize> = record.stages.iter().map(|s| s.module).collect();
    assert_eq!(visited, vec![0], "{record:?}");
}

#[test]
fn dropped_requests_resolve_promptly_not_at_drain_timeout() {
    // The cancel path must release the request the moment the branch
    // drops — a request wedged behind a never-filling merge barrier
    // would only "resolve" by hitting the drain ceiling.
    let policy: PolicyFactory = Box::new(|module| {
        if module == 2 {
            Box::new(RefuseAll)
        } else {
            Box::new(NaivePolicy::new())
        }
    });
    let cluster = start(policy);
    let (tx, rx) = std::sync::mpsc::channel();
    cluster.set_completion_handler(std::sync::Arc::new(move |c| {
        let _ = tx.send(c);
    }));
    let id = cluster.submit();
    let completion = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the drop must be notified without waiting for finish()");
    assert_eq!(completion.id, id);
    assert!(
        matches!(completion.outcome, Outcome::Dropped { module: 2, .. }),
        "{completion:?}"
    );
    let log = cluster.finish(SimDuration::from_secs(5));
    assert!(log.records()[id as usize].is_dropped());
}
