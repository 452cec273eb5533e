//! Splits a traced job's wall time into the runtime's layers.

use seqpar_runtime::{Timeline, TraceEventKind, DEGRADED_ATTEMPT, FALLBACK_ATTEMPT};
use std::collections::HashMap;
use std::time::Duration;

/// Nanoseconds per layer, summed over jobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    /// Service time of attempts that committed.
    pub compute: u64,
    /// Queue push to pop: dispatch and handoff.
    pub handoff: u64,
    /// Complete to commit: waiting on the commit frontier.
    pub commit: u64,
    /// Service time of attempts that were squashed.
    pub squashed: u64,
    /// Commits the supervisor issued inline (governor-degraded or
    /// fallback), each timed from the previous commit.
    pub inline: u64,
    /// Wall time covered by at least one of the intervals above.
    pub covered: u64,
    /// Job wall time.
    pub wall: u64,
}

impl Split {
    pub fn add(&mut self, other: &Split) {
        self.compute += other.compute;
        self.handoff += other.handoff;
        self.commit += other.commit;
        self.squashed += other.squashed;
        self.inline += other.inline;
        self.covered += other.covered;
        self.wall += other.wall;
    }

    /// Share of wall time no layer interval covers.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall == 0 {
            return 0.0;
        }
        1.0 - (self.covered.min(self.wall) as f64 / self.wall as f64)
    }
}

/// Splits one job's timeline (nanoseconds from the job's start).
pub fn split(timeline: &Timeline, wall: Duration) -> Split {
    let metrics = timeline.stage_metrics();
    let service_total: u64 = metrics.iter().map(|m| m.service.total).sum();
    let handoff = metrics.iter().map(|m| m.queue_wait.total).sum();
    let commit = metrics.iter().map(|m| m.commit_latency.total).sum();

    let mut push: HashMap<(u32, u32), u64> = HashMap::new();
    let mut dispatch: HashMap<(u32, u32), u64> = HashMap::new();
    let mut complete: HashMap<(u32, u32), (u64, u64)> = HashMap::new();
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut compute = 0;
    let mut inline = 0;
    let mut last_commit = 0;
    for e in timeline.events() {
        match e.kind {
            TraceEventKind::QueuePush { task, attempt, .. } => {
                push.insert((task, attempt), e.ts);
            }
            TraceEventKind::QueuePop { task, attempt, .. } => {
                if let Some(&p) = push.get(&(task, attempt)) {
                    intervals.push((p, e.ts));
                }
            }
            TraceEventKind::Dispatch { task, attempt, .. } => {
                dispatch.insert((task, attempt), e.ts);
            }
            TraceEventKind::Complete { task, attempt, .. } => {
                if let Some(&d) = dispatch.get(&(task, attempt)) {
                    intervals.push((d, e.ts));
                    complete.insert((task, attempt), (e.ts, e.ts.saturating_sub(d)));
                }
            }
            TraceEventKind::Commit { task, attempt } => {
                if attempt == DEGRADED_ATTEMPT || attempt == FALLBACK_ATTEMPT {
                    inline += e.ts.saturating_sub(last_commit);
                    intervals.push((last_commit, e.ts));
                } else if let Some(&(c, service)) = complete.get(&(task, attempt)) {
                    compute += service;
                    intervals.push((c, e.ts));
                }
                last_commit = e.ts;
            }
            _ => {}
        }
    }
    let wall = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    Split {
        compute,
        handoff,
        commit,
        squashed: service_total.saturating_sub(compute),
        inline,
        covered: union_length(intervals, wall),
        wall,
    }
}

/// Total length of the union of `intervals`, clipped to `[0, limit]`.
fn union_length(mut intervals: Vec<(u64, u64)>, limit: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(limit));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::union_length;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_length(vec![(0, 10), (5, 15), (20, 30)], 100), 25);
        assert_eq!(union_length(vec![(0, 10), (2, 3)], 100), 10);
        assert_eq!(union_length(vec![(90, 120)], 100), 10);
    }
}
