//! Pre-generated task sequences and their statistics.

use std::sync::Arc;

use dpm_units::{SimDuration, SimTime};

use crate::task::TaskSpec;

/// An arrival-ordered task sequence for one IP.
///
/// Traces are generated before simulation so the DPM run and the
/// always-max-frequency baseline replay identical arrivals, and they can
/// be saved/loaded as JSON for regression pinning.
///
/// A trace is immutable once built, so its tasks sit behind an [`Arc`]:
/// a clone shares the storage, and every simulation replaying one trace
/// (a DPM run and its baseline, every cell of a sweep with the same
/// workload and seed) reads the same tasks.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct TaskTrace {
    tasks: Arc<[TaskSpec]>,
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceStats {
    /// Number of tasks.
    pub count: usize,
    /// Total instructions across all tasks.
    pub total_instructions: u64,
    /// Mean inter-arrival time (zero for traces with < 2 tasks).
    pub mean_interarrival: SimDuration,
    /// Arrival of the first task.
    pub first_arrival: SimTime,
    /// Arrival of the last task.
    pub last_arrival: SimTime,
}

impl TaskTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace from tasks, sorted by arrival.
    ///
    /// # Panics
    ///
    /// Panics on duplicate task ids.
    pub fn from_tasks(mut tasks: Vec<TaskSpec>) -> Self {
        tasks.sort_by_key(|t| (t.arrival, t.id));
        let mut ids: Vec<u64> = tasks.iter().map(|t| t.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tasks.len(), "duplicate task ids in trace");
        Self {
            tasks: tasks.into(),
        }
    }

    /// The tasks in arrival order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the trace holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// `true` when arrivals are non-decreasing (always true for traces
    /// built through [`from_tasks`](Self::from_tasks); exposed for replay
    /// validation).
    pub fn is_sorted_by_arrival(&self) -> bool {
        self.tasks.windows(2).all(|w| w[0].arrival <= w[1].arrival)
    }

    /// Summary statistics.
    pub fn stats(&self) -> TraceStats {
        let count = self.tasks.len();
        let total_instructions = self.tasks.iter().map(|t| t.instructions).sum();
        let first_arrival = self.tasks.first().map_or(SimTime::ZERO, |t| t.arrival);
        let last_arrival = self.tasks.last().map_or(SimTime::ZERO, |t| t.arrival);
        let mean_interarrival = if count >= 2 {
            (last_arrival - first_arrival) / (count as u64 - 1)
        } else {
            SimDuration::ZERO
        };
        TraceStats {
            count,
            total_instructions,
            mean_interarrival,
            first_arrival,
            last_arrival,
        }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes from JSON produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error on malformed input; the trace is
    /// re-sorted and re-validated.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let raw: TaskTrace = serde_json::from_str(json)?;
        Ok(Self::from_tasks(raw.tasks.to_vec()))
    }
}

impl FromIterator<TaskSpec> for TaskTrace {
    fn from_iter<I: IntoIterator<Item = TaskSpec>>(iter: I) -> Self {
        Self::from_tasks(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a TaskTrace {
    type Item = &'a TaskSpec;
    type IntoIter = std::slice::Iter<'a, TaskSpec>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::Priority;
    use crate::task::TaskId;
    use dpm_power::InstructionMix;

    fn task(id: u64, at_us: u64, instr: u64) -> TaskSpec {
        TaskSpec::new(
            TaskId(id),
            SimTime::from_micros(at_us),
            instr,
            InstructionMix::default(),
            Priority::Medium,
        )
    }

    #[test]
    fn from_tasks_sorts() {
        let trace = TaskTrace::from_tasks(vec![task(2, 30, 10), task(1, 10, 10), task(3, 20, 10)]);
        let arrivals: Vec<u64> = trace.tasks().iter().map(|t| t.arrival.as_ps()).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(trace.is_sorted_by_arrival());
    }

    #[test]
    #[should_panic(expected = "duplicate task ids")]
    fn duplicate_ids_rejected() {
        let _ = TaskTrace::from_tasks(vec![task(1, 0, 1), task(1, 5, 1)]);
    }

    #[test]
    fn stats_are_consistent() {
        let trace =
            TaskTrace::from_tasks(vec![task(1, 0, 100), task(2, 10, 200), task(3, 40, 300)]);
        let s = trace.stats();
        assert_eq!(s.count, 3);
        assert_eq!(s.total_instructions, 600);
        assert_eq!(s.first_arrival, SimTime::ZERO);
        assert_eq!(s.last_arrival, SimTime::from_micros(40));
        assert_eq!(s.mean_interarrival, SimDuration::from_micros(20));
    }

    #[test]
    fn empty_trace_stats() {
        let s = TaskTrace::new().stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_interarrival, SimDuration::ZERO);
    }

    #[test]
    fn json_roundtrip() {
        let trace = TaskTrace::from_tasks(vec![task(1, 5, 10), task(2, 15, 20)]);
        let json = trace.to_json().unwrap();
        let back = TaskTrace::from_json(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn clones_share_their_tasks() {
        let trace = TaskTrace::from_tasks(vec![task(1, 5, 10), task(2, 15, 20)]);
        let clone = trace.clone();
        assert_eq!(clone, trace);
        assert_eq!(clone.tasks().as_ptr(), trace.tasks().as_ptr());
    }

    #[test]
    fn collect_from_iterator() {
        let trace: TaskTrace = vec![task(5, 50, 1), task(4, 40, 1)].into_iter().collect();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.tasks()[0].id, TaskId(4));
    }
}
