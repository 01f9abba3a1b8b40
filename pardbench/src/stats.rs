//! Order statistics, the counter algebra, the outcome hash and span
//! self-time arithmetic.

use std::collections::BTreeMap;

use crate::proto::Kind;
use crate::schedule::mix64;

/// Median of unsorted samples (the mean of the middle two when even);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0–100) of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The percentiles a tail may be reported at, highest last.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile leaves beyond it must number at least this.
pub const MIN_BEYOND: f64 = 10.0;

/// Highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// of `n` samples beyond it; `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9)
}

/// Latency summary: median, p99 and the highest supported tail.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub p99: f64,
    pub tail_p: f64,
    pub tail: f64,
}

/// Summarises latency samples. p99 is reported only when the sample
/// supports it (at least [`MIN_BEYOND`] samples beyond it).
pub fn latency(mut samples: Vec<f64>) -> Result<Latency, String> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let tail_p = tail_percentile(n).unwrap_or(0.0);
    if tail_p < 99.0 {
        return Err(format!("{n} latency samples cannot support a p99"));
    }
    Ok(Latency {
        samples: n,
        p50: percentile(&samples, 50.0).unwrap_or(0.0),
        p99: percentile(&samples, 99.0).unwrap_or(0.0),
        tail_p,
        tail: percentile(&samples, tail_p).unwrap_or(0.0),
    })
}

/// The client's tally of one repetition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub violated: u64,
    pub edge: u64,
    pub pipeline: u64,
    pub errors: u64,
    pub unanswered: u64,
}

impl Tally {
    /// Tallies one outcome per request sent.
    pub fn of(kinds: &[Kind]) -> Tally {
        let mut t = Tally {
            sent: kinds.len() as u64,
            ..Tally::default()
        };
        for kind in kinds {
            *match kind {
                Kind::Ok => &mut t.ok,
                Kind::Violated => &mut t.violated,
                Kind::EdgeDrop => &mut t.edge,
                Kind::PipelineDrop => &mut t.pipeline,
                Kind::Error => &mut t.errors,
                Kind::Unanswered => &mut t.unanswered,
            } += 1;
        }
        t
    }

    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.violated += o.violated;
        self.edge += o.edge;
        self.pipeline += o.pipeline;
        self.errors += o.errors;
        self.unanswered += o.unanswered;
    }

    /// sent = ok + violated + edge + pipeline + errors + unanswered.
    pub fn check_algebra(&self) -> Result<(), String> {
        let sum =
            self.ok + self.violated + self.edge + self.pipeline + self.errors + self.unanswered;
        if sum == self.sent {
            Ok(())
        } else {
            Err(format!(
                "counter algebra broken: sent {} != outcomes {sum} ({self:?})",
                self.sent
            ))
        }
    }

    /// The gateway's `/metrics` counters must tell the same story as
    /// the client, after discounting `probes` set-up probes (each
    /// received and refused at the edge).
    pub fn check_metrics(&self, m: &BTreeMap<String, f64>, probes: u64) -> Result<(), String> {
        let get = |name: &str| m.get(&format!("pard_gateway_{name}_total")).copied();
        let answered = self.sent - self.unanswered;
        let expect = [
            ("received", answered + probes),
            ("completed_ok", self.ok),
            ("completed_late", self.violated),
            ("rejected", self.edge + probes),
            ("dropped", self.pipeline),
        ];
        for (name, want) in expect {
            match get(name) {
                Some(v) if v == want as f64 => {}
                got => return Err(format!("/metrics {name} = {got:?}, client saw {want}")),
            }
        }
        let errors: f64 = ["refused", "rate_limited", "protocol_errors"]
            .iter()
            .map(|n| get(n).unwrap_or(f64::NAN))
            .sum();
        if errors != self.errors as f64 {
            return Err(format!(
                "/metrics errors = {errors}, client saw {}",
                self.errors
            ));
        }
        Ok(())
    }

    pub fn goodput_frac(&self) -> f64 {
        self.ok as f64 / self.sent.max(1) as f64
    }

    pub fn drop_frac(&self) -> f64 {
        (self.edge + self.pipeline) as f64 / self.sent.max(1) as f64
    }
}

/// Order-independent hash of (seq → outcome): a wrapping sum of mixed
/// pairs, so it does not depend on the order answers arrived in.
pub fn outcome_hash(kinds: &[Kind]) -> u64 {
    kinds.iter().enumerate().fold(0u64, |acc, (seq, &kind)| {
        acc.wrapping_add(mix64(((seq as u64) << 3) | kind as u64))
    })
}

/// One traced call: layer, interval, the span that caused it, and the
/// request it served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, if any.
    pub parent: Option<u32>,
    pub req: u32,
}

/// Each span's self time: its duration minus the part of its interval
/// its child spans cover. Children of one parent never overlap (the
/// traced composition is single-threaded), so covering is a sum,
/// clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(15), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.99));
        assert!(latency(vec![1.0; 999]).is_err());
        let l = latency((1..=1000).map(f64::from).collect()).unwrap();
        assert_eq!(
            (l.p50, l.p99, l.tail_p, l.samples),
            (500.0, 990.0, 99.0, 1000)
        );
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), Some(4.0));
    }

    fn honest() -> (Tally, BTreeMap<String, f64>) {
        let kinds = [
            Kind::Ok,
            Kind::Ok,
            Kind::EdgeDrop,
            Kind::PipelineDrop,
            Kind::Violated,
        ];
        let tally = Tally::of(&kinds);
        let metrics = [
            ("received", 6.0),
            ("completed_ok", 2.0),
            ("completed_late", 1.0),
            ("rejected", 2.0),
            ("dropped", 1.0),
            ("refused", 0.0),
            ("rate_limited", 0.0),
            ("protocol_errors", 0.0),
        ]
        .into_iter()
        .map(|(k, v)| (format!("pard_gateway_{k}_total"), v))
        .collect();
        (tally, metrics)
    }

    #[test]
    fn counter_algebra_accepts_an_honest_tally() {
        let (tally, metrics) = honest();
        tally.check_algebra().unwrap();
        tally.check_metrics(&metrics, 1).unwrap();
    }

    #[test]
    fn counter_algebra_rejects_a_doctored_tally() {
        let (tally, metrics) = honest();
        let mut lost = tally;
        lost.ok -= 1;
        assert!(lost.check_algebra().is_err());
        let mut inflated = tally;
        inflated.ok += 1;
        inflated.sent += 1;
        inflated.check_algebra().unwrap();
        assert!(inflated.check_metrics(&metrics, 1).is_err());
        let mut moved = tally;
        moved.edge += 1;
        moved.pipeline -= 1;
        assert!(moved.check_metrics(&metrics, 1).is_err());
        let mut gateway = metrics.clone();
        gateway.insert("pard_gateway_refused_total".into(), 1.0);
        assert!(tally.check_metrics(&gateway, 1).is_err());
    }

    #[test]
    fn outcome_hash_binds_each_seq_to_its_outcome() {
        let a = [Kind::Ok, Kind::EdgeDrop, Kind::Ok];
        let swapped = [Kind::Ok, Kind::Ok, Kind::EdgeDrop];
        let moved = [Kind::Ok, Kind::PipelineDrop, Kind::Ok];
        assert_eq!(
            outcome_hash(&a),
            outcome_hash(&[Kind::Ok, Kind::EdgeDrop, Kind::Ok])
        );
        assert_ne!(outcome_hash(&a), outcome_hash(&swapped));
        assert_ne!(outcome_hash(&a), outcome_hash(&moved));
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |layer, start_ns, end_ns, parent| Span {
            layer,
            start_ns,
            end_ns,
            parent,
            req: 0,
        };
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 40, 90, Some(0)),
            span(3, 50, 60, Some(2)),
            // A child overrunning its parent is clipped to the parent.
            span(4, 95, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 50 - 5, 20, 40, 10, 25]);
    }
}
