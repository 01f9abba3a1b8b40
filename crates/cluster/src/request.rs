//! In-flight request tracking, including DAG split/merge bookkeeping.

use pard_metrics::{DropReason, Outcome, RequestLog, RequestRecord, RequestSlots, StageRecord};
use pard_pipeline::PipelineSpec;
use pard_sim::SimTime;

/// Lifecycle status of an in-flight request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqStatus {
    /// Travelling through the pipeline.
    Active,
    /// Dropped somewhere; surviving DAG branch copies are cancelled
    /// lazily when they surface.
    Dropped,
    /// Completed the sink module.
    Completed,
}

/// One in-flight request.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// Unique id.
    pub id: u64,
    /// Client send time.
    pub sent: SimTime,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Stage records accumulated so far (only when the table keeps its
    /// log; nothing else reads them).
    pub stages: Vec<StageRecord>,
    /// Current status.
    pub status: ReqStatus,
    /// Outcome details once finished.
    pub outcome: Outcome,
    /// Per-module count of predecessor copies that have arrived; a merge
    /// module only enqueues once all predecessors delivered (`usize`,
    /// so any validatable fan-in fits without wrapping).
    pub merge_arrivals: Vec<usize>,
}

impl InFlight {
    /// Creates a fresh request.
    pub fn new(id: u64, sent: SimTime, deadline: SimTime, modules: usize) -> InFlight {
        InFlight {
            id,
            sent,
            deadline,
            stages: Vec::new(),
            status: ReqStatus::Active,
            outcome: Outcome::InFlight,
            merge_arrivals: vec![0; modules],
        }
    }

    /// Marks the request dropped at `module`.
    pub fn mark_dropped(&mut self, module: usize, at: SimTime, reason: DropReason) {
        if self.status == ReqStatus::Active {
            self.status = ReqStatus::Dropped;
            self.outcome = Outcome::Dropped { module, at, reason };
        }
    }

    /// Marks the request completed at `finished`.
    pub fn mark_completed(&mut self, finished: SimTime) {
        if self.status == ReqStatus::Active {
            self.status = ReqStatus::Completed;
            self.outcome = Outcome::Completed { finished };
        }
    }

    /// Registers one predecessor delivery at a merge point and reports
    /// whether the request is now ready to enqueue at `module`.
    pub fn deliver(&mut self, module: usize, required: usize) -> bool {
        self.merge_arrivals[module] += 1;
        self.merge_arrivals[module] >= required.max(1)
    }

    /// Converts into the final metrics record.
    pub fn into_record(self) -> RequestRecord {
        RequestRecord {
            id: self.id,
            sent: self.sent,
            deadline: self.deadline,
            stages: self.stages,
            outcome: self.outcome,
        }
    }
}

/// Table of requests by sequential id. Without the request log it
/// holds live requests only: [`RequestTable::retire`] frees a resolved
/// request and later lookups of its id return `None`, which every call
/// site treats like a resolved (non-`Active`) record. With the log
/// kept, retirement is a no-op and every record stays until
/// [`RequestTable::take_log`].
#[derive(Debug)]
pub struct RequestTable {
    slots: RequestSlots<InFlight>,
}

impl RequestTable {
    /// Creates an empty table; `keep_log` retains every record.
    pub fn new(keep_log: bool) -> RequestTable {
        RequestTable {
            slots: RequestSlots::new(keep_log),
        }
    }

    /// Whether resolved records are kept for the request log.
    pub fn keeps_log(&self) -> bool {
        self.slots.keeps_log()
    }

    /// Switches the log mode before the first insert (see
    /// [`RequestSlots::set_keep_log`]).
    pub fn set_keep_log(&mut self, keep: bool) {
        self.slots.set_keep_log(keep);
    }

    /// Registers a new request and returns its id.
    pub fn insert(&mut self, sent: SimTime, deadline: SimTime, spec: &PipelineSpec) -> u64 {
        let modules = spec.modules.len();
        let mut request = InFlight::new(self.slots.next_id(), sent, deadline, modules);
        if self.keeps_log() {
            request.stages.reserve_exact(modules);
        }
        self.slots.insert(request)
    }

    /// Shared access by id; `None` once the request is retired.
    pub fn get(&self, id: u64) -> Option<&InFlight> {
        self.slots.get(id)
    }

    /// Exclusive access by id; `None` once the request is retired.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut InFlight> {
        self.slots.get_mut(id)
    }

    /// The request if it is still travelling through the pipeline.
    pub fn active(&self, id: u64) -> Option<&InFlight> {
        self.get(id).filter(|r| r.status == ReqStatus::Active)
    }

    /// Frees a resolved request (a no-op when the log is kept).
    pub fn retire(&mut self, id: u64) {
        self.slots.retire(id);
    }

    /// Counts of the records held, by status: `(active, dropped,
    /// completed)`.
    pub fn status_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for r in self.slots.iter() {
            match r.status {
                ReqStatus::Active => counts.0 += 1,
                ReqStatus::Dropped => counts.1 += 1,
                ReqStatus::Completed => counts.2 += 1,
            }
        }
        counts
    }

    /// Takes every record into a metrics log, leaving the table empty;
    /// later ids continue the sequence. Empty without the log.
    pub fn take_log(&mut self) -> RequestLog {
        let records = self.slots.take_all();
        let mut log = RequestLog::new();
        if self.keeps_log() {
            for (_, r) in records {
                log.push(r.into_record());
            }
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pard_pipeline::AppKind;
    use pard_sim::SimDuration;

    #[test]
    fn insert_and_lookup() {
        let spec = AppKind::Tm.pipeline();
        let mut table = RequestTable::new(true);
        let id = table.insert(SimTime::ZERO, SimTime::from_millis(400), &spec);
        assert_eq!(id, 0);
        assert_eq!(table.get(id).unwrap().status, ReqStatus::Active);
        assert!(table.active(id).is_some());
        assert!(table.get(1).is_none(), "unminted ids are absent");
    }

    #[test]
    fn drop_is_sticky_and_first_wins() {
        let spec = AppKind::Da.pipeline();
        let mut table = RequestTable::new(true);
        let id = table.insert(SimTime::ZERO, SimTime::from_millis(420), &spec);
        let r = table.get_mut(id).unwrap();
        r.mark_dropped(1, SimTime::from_millis(50), DropReason::PredictedViolation);
        // A later completion attempt must not overwrite the drop.
        r.mark_completed(SimTime::from_millis(60));
        assert_eq!(table.get(id).unwrap().status, ReqStatus::Dropped);
        assert!(table.active(id).is_none());
        match table.get(id).unwrap().outcome {
            Outcome::Dropped { module, .. } => assert_eq!(module, 1),
            ref o => panic!("unexpected outcome {o:?}"),
        }
    }

    #[test]
    fn merge_requires_all_predecessors() {
        let spec = AppKind::Da.pipeline();
        let mut table = RequestTable::new(true);
        let id = table.insert(SimTime::ZERO, SimTime::from_millis(420), &spec);
        // Module 3 merges branches from modules 1 and 2.
        assert!(!table.get_mut(id).unwrap().deliver(3, 2));
        assert!(table.get_mut(id).unwrap().deliver(3, 2));
    }

    #[test]
    fn status_counts_and_log_conversion() {
        let spec = AppKind::Tm.pipeline();
        let mut table = RequestTable::new(true);
        let a = table.insert(SimTime::ZERO, SimTime::from_millis(400), &spec);
        let b = table.insert(SimTime::ZERO, SimTime::from_millis(400), &spec);
        let _c = table.insert(SimTime::ZERO, SimTime::from_millis(400), &spec);
        table
            .get_mut(a)
            .unwrap()
            .mark_completed(SimTime::from_millis(300));
        table.get_mut(b).unwrap().mark_dropped(
            0,
            SimTime::from_millis(10),
            DropReason::PredictedViolation,
        );
        // Retirement keeps records while the log is kept.
        table.retire(a);
        assert!(table.get(a).is_some());
        assert_eq!(table.status_counts(), (1, 1, 1));
        let log = table.take_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log.goodput_count(), 1);
        assert_eq!(log.drop_count(), 1);
        assert!(table.get(a).is_none(), "the table is empty after take_log");
    }

    #[test]
    fn retired_ids_return_none_and_ids_stay_sequential() {
        let spec = AppKind::Tm.pipeline();
        let mut table = RequestTable::new(false);
        let ids: Vec<u64> = (0..3)
            .map(|_| table.insert(SimTime::ZERO, SimTime::from_millis(400), &spec))
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
        table
            .get_mut(1)
            .unwrap()
            .mark_completed(SimTime::from_millis(300));
        table.retire(1);
        assert!(table.get(1).is_none());
        assert!(table.active(1).is_none());
        assert_eq!(table.status_counts(), (2, 0, 0));
        let next = table.insert(SimTime::ZERO, SimTime::from_millis(400), &spec);
        assert_eq!(next, 3, "ids are never reused");
        assert_eq!(table.get(next).unwrap().id, 3);
        assert!(table.take_log().is_empty(), "no log without keep_log");
        assert_eq!(
            table.insert(SimTime::ZERO, SimTime::from_millis(400), &spec),
            4
        );
    }

    #[test]
    fn stage_accumulation() {
        let spec = AppKind::Tm.pipeline();
        let mut table = RequestTable::new(true);
        let id = table.insert(SimTime::ZERO, SimTime::from_millis(400), &spec);
        let t0 = SimTime::from_millis(10);
        table.get_mut(id).unwrap().stages.push(StageRecord {
            module: 0,
            worker: 0,
            arrived: t0,
            batched: t0 + SimDuration::from_millis(2),
            exec_start: t0 + SimDuration::from_millis(5),
            exec_end: t0 + SimDuration::from_millis(45),
            batch_size: 8,
            gpu_share: SimDuration::from_millis(5),
        });
        assert_eq!(table.get(id).unwrap().stages.len(), 1);
    }
}
