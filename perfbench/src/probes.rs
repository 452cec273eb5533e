//! Outside-in microprobes for layers the suite cannot time alone.

use crate::stats::median;
use seqpar::{IterationRecord, IterationTrace};
use seqpar_runtime::{Engine, EngineConfig, ExecConfig, ExecutionPlan};
use seqpar_specmem::{Addr, ConcurrentVersionedMemory, VersionId};
use seqpar_workloads::VersionedJob;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
const TASKS: usize = 10_000;
const CYCLES: u64 = 20_000;
const ADDRS: u64 = 64;

/// A probe's median reading, or why its output was wrong.
pub type Probe = Result<f64, String>;

/// Microseconds per task of an empty-body job on a warmed one-worker
/// engine, ungoverned: dispatch, handoff and commit with no work.
pub fn task_overhead_us() -> Probe {
    let mut trace = IterationTrace::new();
    for _ in 0..TASKS {
        trace.push(IterationRecord::new(1, 1, 1));
    }
    let job = VersionedJob::new(trace, |_, _, _| (Vec::new(), 0), |_| (Vec::new(), 0));
    let engine = Engine::new(EngineConfig::with_workers(1));
    engine.warm();
    let plan = ExecutionPlan::tls(1);
    let mut per_task = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (report, _mem) = job
            .execute_on(&engine, &plan, ExecConfig::default())
            .map_err(|e| format!("empty job failed: {e}"))?;
        if report.tasks_committed != TASKS as u64 || !report.output.is_empty() {
            return Err(format!(
                "empty job committed {} tasks and {} bytes",
                report.tasks_committed,
                report.output.len()
            ));
        }
        per_task.push(report.wall.as_secs_f64() * 1e6 / TASKS as f64);
    }
    Ok(median(&per_task))
}

/// Nanoseconds per speculative version cycle on a fresh memory:
/// `begin`, `read`, `write`, `commit_check`, `try_commit`.
pub fn spec_cycle_ns() -> Probe {
    cycle_ns(|m, v| {
        m.begin(v);
        let a = Addr(v.0 % ADDRS);
        let x = m.read(v, a);
        black_box(m.write(v, a, x + 1));
        m.commit_check(v)
            .map_err(|e| format!("commit_check: {e:?}"))?;
        m.try_commit(v).map_err(|e| format!("try_commit: {e:?}"))
    })
}

/// Nanoseconds per inline version cycle: `try_begin_inline`, `read`,
/// `write`, `commit_inline`.
pub fn inline_cycle_ns() -> Probe {
    cycle_ns(|m, v| {
        if !m.try_begin_inline(v) {
            return Err("try_begin_inline refused a quiescent memory".to_string());
        }
        let a = Addr(v.0 % ADDRS);
        let x = m.read(v, a);
        black_box(m.write(v, a, x + 1));
        black_box(m.commit_inline(v));
        Ok(())
    })
}

/// Times `CYCLES` cycles of `cycle` per rep on a fresh memory, then
/// checks every increment landed in committed state.
fn cycle_ns(cycle: impl Fn(&ConcurrentVersionedMemory, VersionId) -> Result<(), String>) -> Probe {
    let mut per_cycle = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let m = ConcurrentVersionedMemory::new();
        let start = Instant::now();
        for v in 0..CYCLES {
            cycle(&m, VersionId(v))?;
        }
        per_cycle.push(start.elapsed().as_secs_f64() * 1e9 / CYCLES as f64);
        m.end_inline();
        let total: u64 = (0..ADDRS).map(|a| m.committed(Addr(a)).unwrap_or(0)).sum();
        if total != CYCLES {
            return Err(format!(
                "committed increments sum to {total}, want {CYCLES}"
            ));
        }
    }
    Ok(median(&per_cycle))
}
