//! The three workloads: set-up through each layer's public entry points,
//! and the jobs the timed and traced passes run.

use crate::stats::{SpanId, Spans};
use seqpar::Parallelizer;
use seqpar_runtime::{
    Engine, EngineConfig, ExecConfig, ExecutionPlan, GovernorConfig, GovernorStats, NativeReport,
    SimConfig, Simulator, StageAssignment, Timeline,
};
use seqpar_specmem::MemStats;
use seqpar_workloads::{InputSize, VersionedJob, Workload};
use std::time::{Duration, Instant};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The default user path: planned, linted, governed, one client.
    PlannedSuite,
    /// TLS at every core with no governor, one client.
    SpecSuite,
    /// `PlannedSuite`'s jobs from one closed-loop client per core,
    /// sharing one engine.
    MultiJob,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "planned_suite" => Some(Self::PlannedSuite),
            "spec_suite" => Some(Self::SpecSuite),
            "multi_job" => Some(Self::MultiJob),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PlannedSuite => "planned_suite",
            Self::SpecSuite => "spec_suite",
            Self::MultiJob => "multi_job",
        }
    }

    /// `train` wherever a job survives it; `spec_suite` runs `test`
    /// because ungoverned vpr and twolf storm for tens of seconds at
    /// `train`.
    pub fn size(self) -> InputSize {
        match self {
            Self::SpecSuite => InputSize::Test,
            Self::PlannedSuite | Self::MultiJob => InputSize::Train,
        }
    }

    /// The plain-kernel pass, in ms, against which a round's host factor
    /// is taken: the median pass over this workload's runs on the 2-vCPU
    /// VM the benchmark was defined on. It fixes the host speed at which
    /// times are reported.
    pub fn reference_pass_ms(self) -> f64 {
        match self {
            Self::PlannedSuite => 250.0,
            Self::SpecSuite => 67.0,
            Self::MultiJob => 270.0,
        }
    }

    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Self::MultiJob => nproc,
            Self::PlannedSuite | Self::SpecSuite => 1,
        }
    }
}

/// One SPEC program, packaged and planned, with its oracle output.
#[derive(Debug)]
pub struct Program {
    pub name: &'static str,
    pub job: VersionedJob,
    pub plan: ExecutionPlan,
    pub config: ExecConfig,
    pub expected: Vec<u8>,
    pub conflict_permille: u32,
    /// How long the oracle run took at set-up.
    pub oracle: Duration,
}

/// Where one set-up spent its time, summed over programs.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub ir: Duration,
    pub parallelize: Duration,
    pub lint: Duration,
    pub package: Duration,
    pub oracle: Duration,
    pub warm: Duration,
}

/// Everything a run needs before its first timed job.
#[derive(Debug)]
pub struct Suite {
    pub programs: Vec<Program>,
    pub engine: Engine,
    pub times: SetupTimes,
}

impl Suite {
    /// Plans, packages and runs the oracle for every program, then
    /// builds and warms the engine. Fails if a plan does not lint clean.
    pub fn set_up(
        kind: Kind,
        workers: usize,
        workloads: &[Box<dyn Workload>],
        spans: &mut Spans,
        parent: SpanId,
    ) -> Result<Self, String> {
        let size = kind.size();
        let mut times = SetupTimes::default();
        let mut programs = Vec::with_capacity(workloads.len());
        for w in workloads {
            let name = w.meta().name;
            let (model, t) = spans.time("ir_model", name, Some(parent), || w.ir_model());
            times.ir += t;
            let (parallelized, t) = spans.time("parallelize", name, Some(parent), || {
                Parallelizer::new(&model.program)
                    .profile(model.profile.clone())
                    .parallelize_outermost(model.func)
            });
            times.parallelize += t;
            let parallelized = parallelized.map_err(|e| format!("{name}: {e}"))?;
            let ((plan, clean), t) = spans.time("plan_lint", name, Some(parent), || match kind {
                Kind::SpecSuite => {
                    // `plan_custom` shape-checks a one-stage plan against
                    // the TLS view of the partition and stamps it.
                    let plan = parallelized
                        .plan_custom(vec![StageAssignment::parallel((0..workers).collect())]);
                    let clean = plan.is_linted();
                    (plan, clean)
                }
                Kind::PlannedSuite | Kind::MultiJob => {
                    let plan = parallelized.plan(workers);
                    let clean = parallelized.lint_plan(&plan).is_clean();
                    (plan, clean)
                }
            });
            times.lint += t;
            if !clean {
                return Err(format!("{name}: plan does not lint clean"));
            }
            let conflict_permille = plan
                .conflict_profile()
                .map_or(0, seqpar_runtime::ConflictProfile::density_permille);
            let config = match kind {
                Kind::SpecSuite => ExecConfig::default(),
                Kind::PlannedSuite | Kind::MultiJob => ExecConfig::default().with_governor(
                    plan.conflict_profile()
                        .map(GovernorConfig::preset_for)
                        .unwrap_or_default(),
                ),
            };
            let (job, t) = spans.time("versioned_job", name, Some(parent), || {
                w.versioned_job(size)
            });
            times.package += t;
            let (oracle, t) = spans.time("sequential", name, Some(parent), || job.sequential());
            times.oracle += t;
            programs.push(Program {
                name,
                job,
                plan,
                config,
                expected: oracle.output,
                conflict_permille,
                oracle: t,
            });
        }
        let (engine, t) = spans.time("warm", "-", Some(parent), || {
            let engine = Engine::new(EngineConfig::with_workers(workers));
            engine.warm();
            engine
        });
        times.warm = t;
        Ok(Self {
            programs,
            engine,
            times,
        })
    }

    /// The simulator's predicted speedup for each program's graph and
    /// plan on a machine of `cores` cores.
    pub fn simulated_speedups(&self, cores: usize) -> Vec<f64> {
        let sim = Simulator::new(SimConfig::with_cores(cores));
        self.programs
            .iter()
            .map(|p| {
                let graph = if p.plan.stage_count() == 1 {
                    p.job.trace().tls_task_graph()
                } else {
                    p.job.trace().task_graph()
                };
                sim.run(&graph, &p.plan).map_or(0.0, |r| r.speedup())
            })
            .collect()
    }
}

/// The counters of one job's report, without its output bytes.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub wall: Duration,
    pub tasks: u64,
    pub attempts: u64,
    pub squashes: u64,
    pub busy: Duration,
    pub fallbacks: u64,
    pub mem: MemStats,
    pub governor: GovernorStats,
}

/// One job as its client saw it.
#[derive(Debug)]
pub struct JobSample {
    pub program: usize,
    /// Submit (or call) to report.
    pub latency: Duration,
    /// `Ok` and byte-identical to the oracle.
    pub ok: bool,
    pub counters: Counters,
    pub timeline: Option<Timeline>,
}

impl JobSample {
    fn new(
        program: usize,
        p: &Program,
        latency: Duration,
        result: Result<NativeReport, seqpar_runtime::ExecError>,
    ) -> Self {
        match result {
            Ok(r) => Self {
                program,
                latency,
                ok: r.output == p.expected,
                counters: Counters {
                    wall: r.wall,
                    tasks: r.tasks_committed,
                    attempts: r.attempts,
                    squashes: r.squashes,
                    busy: r.workers.iter().map(|w| w.busy).sum(),
                    fallbacks: u64::from(r.fallback_activated) + r.watchdog_trips,
                    mem: r.mem.unwrap_or_default(),
                    governor: r.governor.unwrap_or_default(),
                },
                timeline: r.timeline,
            },
            Err(e) => {
                eprintln!("{}: job failed: {e}", p.name);
                Self {
                    program,
                    latency,
                    ok: false,
                    counters: Counters::default(),
                    timeline: None,
                }
            }
        }
    }
}

fn config(p: &Program, tracing: bool) -> ExecConfig {
    p.config.clone().with_tracing(tracing)
}

/// Runs program `i` to completion on the calling thread
/// (`Engine::run`), the single-client path.
pub fn run(suite: &Suite, i: usize, tracing: bool) -> JobSample {
    let p = &suite.programs[i];
    let start = Instant::now();
    let result = p
        .job
        .execute_on(&suite.engine, &p.plan, config(p, tracing))
        .map(|(report, _mem)| report);
    JobSample::new(i, p, start.elapsed(), result)
}

/// Submits program `i` and waits for its report, the multi-client path.
pub fn submit_and_wait(suite: &Suite, i: usize, tracing: bool) -> JobSample {
    let p = &suite.programs[i];
    let start = Instant::now();
    let (handle, _mem) = p.job.submit_on(&suite.engine, &p.plan, config(p, tracing));
    let result = handle.wait();
    JobSample::new(i, p, start.elapsed(), result)
}
