//! Per-layer metrics from the traced run, and the per-layer table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pard_metrics::Outcome;

use crate::stats::{self, Tally};
use crate::traced::{self, Layer, TracedRep, LAYERS, NO_REQ};
use crate::workload::{Mode, Workload};
use crate::{metric, Checks, Metric, Rep};

/// Modules reported per executor metric (the widest shipped pipeline);
/// a pipeline with fewer modules reports 0 with no samples for the rest.
const MODULES: usize = 4;

/// Stage quantities per module: queue wait, batch wait, exec (ms),
/// batch size, exec overrun.
const STAGE_METRICS: [(&str, &str); 5] = [
    ("queue_wait_ms", "ms"),
    ("batch_wait_ms", "ms"),
    ("exec_ms", "ms"),
    ("batch_size", "count"),
    ("exec_overrun_frac", "ratio"),
];

/// One layer in one repetition.
#[derive(Clone, Copy, Default)]
struct LayerRep {
    calls: u64,
    median_ns: f64,
    median_self_ns: f64,
    busy_ns: f64,
}

/// What one traced repetition contributes. Its spans and log are
/// dropped once summarised, so a run's memory stays bounded however
/// many repetitions it makes.
pub struct RepSummary {
    layers: Vec<LayerRep>,
    spans: u64,
    per_req_ns: f64,
    kinds_hash: u64,
    pub tally: Tally,
    bytes: u64,
    submitted: u64,
    events: u64,
    retained: i64,
    peak: usize,
    decode_failures: u64,
    reserve_failures: u64,
    per_call_sum: f64,
    per_call_n: u64,
    lag_us: f64,
    lag_n: u64,
    build_ms: f64,
    /// Per module: the median of each [`STAGE_METRICS`] quantity, and
    /// the stage count.
    stages: Vec<([f64; 5], u64)>,
    gpu_total: f64,
    gpu_wasted: f64,
    records: u64,
    pipeline_drops: u64,
}

fn median_or_zero(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// Summarises one traced repetition.
pub fn summarise_rep(w: &Workload, rep: TracedRep) -> RepSummary {
    let selfs = stats::self_times(&rep.spans);
    let mut durations: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
    let mut own: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
    let mut by_req: BTreeMap<u32, u64> = BTreeMap::new();
    for (span, self_ns) in rep.spans.iter().zip(&selfs) {
        durations[span.layer as usize].push((span.end_ns - span.start_ns) as f64);
        own[span.layer as usize].push(*self_ns as f64);
        if span.req != NO_REQ {
            *by_req.entry(span.req).or_default() += self_ns;
        }
    }
    let layers = durations
        .iter()
        .zip(&own)
        .map(|(d, s)| LayerRep {
            calls: d.len() as u64,
            median_ns: median_or_zero(d),
            median_self_ns: median_or_zero(s),
            busy_ns: d.iter().fold(0.0, |a, b| a + b),
        })
        .collect();
    let per_req: Vec<f64> = by_req.values().map(|&v| v as f64).collect();

    let profiles: Vec<_> = w
        .app
        .pipeline()
        .modules
        .iter()
        .map(|m| pard_profile::zoo::by_name(&m.name))
        .collect();
    let mut stage_samples: Vec<[Vec<f64>; 5]> = (0..MODULES).map(|_| Default::default()).collect();
    let (mut gpu_total, mut gpu_wasted, mut pipeline_drops) = (0.0, 0.0, 0);
    for record in rep.log.records() {
        let gpu = record.gpu_time().as_millis_f64();
        gpu_total += gpu;
        if !record.is_goodput() {
            gpu_wasted += gpu;
        }
        if matches!(record.outcome, Outcome::Dropped { .. }) {
            pipeline_drops += 1;
        }
        for stage in &record.stages {
            let Some(slot) = stage_samples.get_mut(stage.module) else {
                continue;
            };
            let exec = stage.execution().as_millis_f64();
            slot[0].push(stage.queueing().as_millis_f64());
            slot[1].push(stage.batch_wait().as_millis_f64());
            slot[2].push(exec);
            slot[3].push(stage.batch_size as f64);
            if let Some(Some(profile)) = profiles.get(stage.module) {
                slot[4].push(exec / profile.latency_ms(stage.batch_size) - 1.0);
            }
        }
    }
    RepSummary {
        layers,
        spans: rep.spans.len() as u64,
        per_req_ns: median_or_zero(&per_req),
        kinds_hash: stats::outcome_hash(&rep.kinds),
        tally: Tally::of(&rep.kinds),
        bytes: rep.bytes,
        submitted: rep.submitted,
        events: rep.recorder_events,
        retained: rep.retained_bytes,
        peak: rep.peak_pending,
        decode_failures: rep.decode_failures,
        reserve_failures: rep.reserve_failures,
        per_call_sum: rep.completions_per_call.iter().sum(),
        per_call_n: rep.completions_per_call.len() as u64,
        lag_us: median_or_zero(&rep.complete_lag_us),
        lag_n: rep.complete_lag_us.len() as u64,
        build_ms: rep.build_ms,
        stages: stage_samples
            .iter()
            .map(|slot| {
                (
                    slot.each_ref().map(|v| median_or_zero(v)),
                    slot[0].len() as u64,
                )
            })
            .collect(),
        gpu_total,
        gpu_wasted,
        records: rep.log.len() as u64,
        pipeline_drops,
    }
}

/// The per-layer metrics and table over a run's traced repetitions:
/// per-call times are the median over repetitions of each repetition's
/// median; counts and shares pool every repetition. `reference` is the
/// untraced repetition that sent the same inputs as the first traced
/// one: on the simulator both must reach identical outcomes, else the
/// composition diverged from the gateway's path.
pub fn aggregate(
    w: &Workload,
    reps: &[RepSummary],
    reference: &Rep,
    checks: &mut Checks,
) -> (Vec<Metric>, String) {
    let over =
        |f: &dyn Fn(&RepSummary) -> f64| median_or_zero(&reps.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&RepSummary) -> u64| reps.iter().map(f).sum::<u64>();
    let mut tally = Tally::default();
    reps.iter().for_each(|r| tally.add(&r.tally));
    let requests = tally.sent;
    let n = requests.max(1) as f64;
    let (decode_failures, reserve_failures) =
        (sum(&|r| r.decode_failures), sum(&|r| r.reserve_failures));

    let first = &reps[0];
    if !w.live {
        checks.add(
            "traced path reaches the gateway's outcomes",
            if first.kinds_hash == reference.hash {
                Ok(())
            } else {
                Err(format!(
                    "traced {:016x} ({:?}) vs gateway {:016x} ({:?})",
                    first.kinds_hash, first.tally, reference.hash, reference.tally
                ))
            },
        );
    }
    checks.add(
        "traced path answers every request",
        match (tally.unanswered, decode_failures, reserve_failures) {
            (0, 0, 0) => Ok(()),
            (u, d, r) => Err(format!(
                "{u} unanswered, {d} decode and {r} reserve failures"
            )),
        },
    );

    let layer = |l: Layer| LayerRep {
        calls: sum(&|r| r.layers[l as usize].calls),
        median_ns: over(&|r| r.layers[l as usize].median_ns),
        median_self_ns: over(&|r| r.layers[l as usize].median_self_ns),
        busy_ns: reps.iter().map(|r| r.layers[l as usize].busy_ns).sum(),
    };
    let span_ns = traced::span_cost_ns();
    let traced_per_req_us = over(&|r| r.per_req_ns) / 1e3;
    let rtt_us = stats::median(&reference.latency_ms).unwrap_or(0.0) * 1e3;
    let residual_us = rtt_us - traced_per_req_us;
    let ns = |l: Layer, name: &str| {
        let s = layer(l);
        metric(name, "ns", s.median_ns, s.calls)
    };
    let us = |l: Layer, name: &str| {
        let s = layer(l);
        metric(name, "us", s.median_ns / 1e3, s.calls)
    };
    let submitted = sum(&|r| r.submitted);
    let records = sum(&|r| r.records);
    let per_call_n = sum(&|r| r.per_call_n);
    let gpu_total: f64 = reps.iter().map(|r| r.gpu_total).sum();
    let gpu_wasted: f64 = reps.iter().map(|r| r.gpu_wasted).sum();
    let retained: i64 = reps.iter().map(|r| r.retained).sum();
    let mut m = vec![
        ns(Layer::Decode, "wire.decode_ns"),
        ns(Layer::Encode, "wire.encode_ns"),
        metric(
            "wire.bytes_per_req",
            "B",
            sum(&|r| r.bytes) as f64 / n,
            requests,
        ),
        us(Layer::Refresh, "admission.refresh_us"),
        ns(Layer::Decide, "admission.decide_ns"),
        metric(
            "admission.shed_frac",
            "ratio",
            tally.edge as f64 / n,
            requests,
        ),
        ns(Layer::Insert, "pending.insert_ns"),
        ns(Layer::Take, "pending.take_ns"),
        metric(
            "pending.peak_len",
            "count",
            reps.iter().map(|r| r.peak).max().unwrap_or(0) as f64,
            reps.len() as u64,
        ),
        metric(
            "engine.build_ms",
            "ms",
            over(&|r| r.build_ms),
            reps.len() as u64,
        ),
        ns(Layer::Submit, "engine.submit_ns"),
        us(Layer::Advance, "engine.advance_us"),
        us(Layer::Pump, "engine.pump_us"),
        metric(
            "engine.completions_per_call",
            "count",
            reps.iter().map(|r| r.per_call_sum).sum::<f64>() / per_call_n.max(1) as f64,
            per_call_n,
        ),
        metric(
            "engine.complete_lag_us",
            "us",
            over(&|r| r.lag_us),
            sum(&|r| r.lag_n),
        ),
        metric(
            "engine.drop_frac",
            "ratio",
            sum(&|r| r.pipeline_drops) as f64 / records.max(1) as f64,
            records,
        ),
        metric(
            "engine.wasted_gpu_frac",
            "ratio",
            if gpu_total > 0.0 {
                gpu_wasted / gpu_total
            } else {
                0.0
            },
            records,
        ),
        metric(
            "engine.retained_bytes_per_req",
            "B",
            retained as f64 / submitted.max(1) as f64,
            submitted,
        ),
    ];
    for k in 0..MODULES {
        for (i, (what, unit)) in STAGE_METRICS.into_iter().enumerate() {
            m.push(metric(
                format!("engine.m{k}.{what}"),
                unit,
                over(&|r| r.stages[k].0[i]),
                sum(&|r| r.stages[k].1),
            ));
        }
    }
    m.extend([
        metric(
            "obs.events_per_req",
            "count",
            sum(&|r| r.events) as f64 / n,
            requests,
        ),
        metric(
            "server.residual_us",
            "us",
            residual_us,
            reference.latency_ms.len() as u64,
        ),
        metric("trace.span_ns", "ns", span_ns, 1),
        metric(
            "trace.goodput_frac",
            "ratio",
            tally.goodput_frac(),
            requests,
        ),
        metric("trace.drop_frac", "ratio", tally.drop_frac(), requests),
    ]);

    let mut table = String::new();
    let _ = writeln!(
        table,
        "# {} traced run: {} repetitions, {requests} requests ({})",
        w.name,
        reps.len(),
        match w.mode {
            Mode::Replay => "scheduled replay, one line at a time",
            Mode::Closed => "closed loop, one request outstanding",
            Mode::Open => "wall-paced open loop",
        }
    );
    let _ = writeln!(
        table,
        "layer\tcalls\tmedian_ns\tmedian_self_ns\tbusy_ms\tfailures"
    );
    for (l, name) in LAYERS {
        let s = layer(l);
        let failures = match l {
            Layer::Decode => decode_failures,
            Layer::Reserve => reserve_failures,
            _ => 0,
        };
        let _ = writeln!(
            table,
            "{name}\t{}\t{:.0}\t{:.0}\t{:.3}\t{failures}",
            s.calls,
            s.median_ns,
            s.median_self_ns,
            s.busy_ns / 1e6
        );
    }
    let _ = writeln!(table, "\nmetric\tvalue\tunit\tsamples");
    for x in &m {
        let _ = writeln!(table, "{}\t{}\t{}\t{}", x.name, x.value, x.unit, x.samples);
    }
    let _ = writeln!(
        table,
        "\nspan overhead: {span_ns:.1} ns per span (enter + exit); {:.1} spans per request",
        sum(&|r| r.spans) as f64 / n
    );
    let _ = writeln!(
        table,
        "server.residual_us = median end-to-end RTT {rtt_us:.1} us - median traced self time per request {traced_per_req_us:.1} us = {residual_us:.1} us"
    );
    let _ = writeln!(
        table,
        "faithfulness: traced goodput_frac {:.6} drop_frac {:.6} hash {:016x}; untraced goodput_frac {:.6} drop_frac {:.6} hash {:016x}",
        first.tally.goodput_frac(),
        first.tally.drop_frac(),
        first.kinds_hash,
        reference.tally.goodput_frac(),
        reference.tally.drop_frac(),
        reference.hash
    );
    (m, table)
}
