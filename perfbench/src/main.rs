//! seqpar's benchmark, driven from outside through the public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload planned_suite --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Sets the workload up (planning, packaging, oracle outputs, engine
//! warm-up), then runs rounds over all eleven SPEC programs for at least
//! `--seconds`, timing the plain sequential kernel in every round and
//! byte-checking every job against its oracle. The set-up is repeated
//! between rounds, and every repeat replaces the suite that is measured.
//! Each round's kernel pass also gauges the host's speed, and times are
//! reported scaled to a reference speed.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` adds a traced
//! round and the microprobes and prints the per-layer metrics.
//! The last line of standard output is the result as one JSON object.
//! `perfbench/README.md` defines every metric.

mod probes;
mod stats;
mod suite;
mod traced;

use seqpar_workloads::{all_workloads, Prng, Workload};
use stats::{geomean, median, ms, peak_rss_mb, percentile, process_cpu, ratio, Spans};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use suite::{JobSample, Kind, SetupTimes, Suite};
use traced::Split;

/// Set-ups per run; `setup_s` is their median. The first comes before
/// the first timed round and the others are spread over the timed
/// rounds, so the set-ups sample the same stretches of host speed the
/// rounds do.
const SETUP_REPS: usize = 5;
/// Timed jobs a run needs at least: from 100 samples on, the
/// nearest-rank p90 has ten samples beyond it.
const MIN_JOBS: usize = 100;
/// A plain kernel is called repeatedly until this much time has passed,
/// and timed as the mean call.
const PLAIN_MIN: Duration = Duration::from_millis(20);
/// Timed rounds a run needs at least.
const MIN_ROUNDS: usize = 3;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload planned_suite|spec_suite|multi_job \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args, origin) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A random permutation of `0..n`, drawn from `rng`.
fn shuffled(n: usize, rng: &mut Prng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// The state of one benchmark run.
struct Bench {
    kind: Kind,
    workers: usize,
    clients: usize,
    workloads: Vec<Box<dyn Workload>>,
    suite: Suite,
    /// Each set-up's wall, in seconds, with the index of the round
    /// that follows it, and where its time went.
    setups: Vec<(f64, usize)>,
    setup_times: Vec<SetupTimes>,
    spans: Spans,
    /// Client `c` draws its pass orders from `client_rngs[c]`.
    client_rngs: Vec<Prng>,
    /// Plain-kernel wall per program, in ms.
    plain: Vec<Vec<f64>>,
    checksums: Vec<Option<u64>>,
    problems: Vec<String>,
    /// Every timed job.
    jobs: Vec<JobSample>,
    /// Every timed round.
    rounds: Vec<Round>,
}

/// One call a client made: the program, when the call started and
/// ended, and what it returned.
type Timed<T> = (usize, Instant, Instant, T);

/// One round: the jobs it completed byte-identically out of those it
/// ran, the wall and process CPU its job phase took, and how slowly the
/// host ran the round's plain kernels.
#[derive(Clone, Copy, Debug)]
struct Round {
    ok: usize,
    jobs: usize,
    wall: Duration,
    cpu: Duration,
    /// The round's plain-kernel pass over [`Kind::reference_pass_ms`]:
    /// above 1 when the host ran slower than the reference. 1 for traced
    /// rounds, which run no kernels.
    host: f64,
}

/// One set-up of `kind`, timed from its own start.
fn set_up(
    kind: Kind,
    workers: usize,
    workloads: &[Box<dyn Workload>],
    spans: &mut Spans,
) -> Result<(Suite, Duration), String> {
    let start = Instant::now();
    let root = spans.open("setup", "-", None);
    let suite = Suite::set_up(kind, workers, workloads, spans, root)?;
    spans.close(root);
    Ok((suite, start.elapsed()))
}

impl Bench {
    /// Sets the workload up again and measures the new suite from here
    /// on. The old suite's programs are freed first, so two suites'
    /// data are never alive at once.
    fn set_up_again(&mut self) -> Result<(), String> {
        self.suite.programs = Vec::new();
        let (suite, took) = set_up(self.kind, self.workers, &self.workloads, &mut self.spans)?;
        self.setups.push((took.as_secs_f64(), self.rounds.len()));
        self.setup_times.push(suite.times);
        self.suite = suite;
        Ok(())
    }

    /// Runs `work` on one thread per client, client `c` over `orders[c]`,
    /// and returns each client's results with the phase's wall and
    /// process CPU.
    fn phase<T: Send>(
        orders: &[Vec<usize>],
        work: impl Fn(usize) -> T + Sync,
    ) -> (Vec<Timed<T>>, Duration, Duration) {
        let cpu0 = process_cpu();
        let start = Instant::now();
        let per_client: Vec<Vec<_>> = std::thread::scope(|s| {
            let work = &work;
            let handles: Vec<_> = orders
                .iter()
                .map(|order| {
                    s.spawn(move || {
                        order
                            .iter()
                            .map(|&i| {
                                let t0 = Instant::now();
                                let out = work(i);
                                (i, t0, Instant::now(), out)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = start.elapsed();
        (
            per_client.into_iter().flatten().collect(),
            wall,
            process_cpu() - cpu0,
        )
    }

    /// One round: every client runs the plain kernels of the eleven
    /// programs, then, once all have finished, the seqpar jobs of its
    /// pass, so kernels and jobs run at the same concurrency. The kernels
    /// run in lockstep, every client in the first client's order, so each
    /// kernel always shares the machine with itself: how fast the pass
    /// runs then depends on the host and not on which kernels the seed
    /// happened to pair. The kernels' pass also gauges the host's speed
    /// for the round. Checksums must match earlier rounds. Traced rounds
    /// skip the plain kernels.
    fn round(&mut self, tracing: bool) -> (Vec<JobSample>, Round) {
        let n = self.suite.programs.len();
        let round = self
            .spans
            .open(if tracing { "traced_round" } else { "round" }, "-", None);
        let orders: Vec<Vec<usize>> = self
            .client_rngs
            .iter_mut()
            .map(|rng| shuffled(n, rng))
            .collect();
        let mut host = 1.0;
        if !tracing {
            let size = self.kind.size();
            let lockstep = vec![orders[0].clone(); orders.len()];
            let (sums, _, _) = Self::phase(&lockstep, |i| {
                // Workloads are not `Sync`, so each call builds its own.
                let w = &all_workloads()[i];
                // Sub-millisecond kernels are timed over repeated calls.
                let start = Instant::now();
                let mut sums = vec![black_box(w.checksum(size))];
                while start.elapsed() < PLAIN_MIN {
                    sums.push(black_box(w.checksum(size)));
                }
                let took = start.elapsed() / sums.len() as u32;
                sums.dedup();
                (sums, took)
            });
            let mut pass = 0.0;
            for (i, t0, t1, (sums, took)) in sums {
                let name = self.suite.programs[i].name;
                self.spans.record("checksum", name, Some(round), t0, t1);
                self.plain[i].push(ms(took));
                pass += ms(took);
                for sum in sums {
                    match self.checksums[i] {
                        None => self.checksums[i] = Some(sum),
                        Some(first) if first != sum => self
                            .problems
                            .push(format!("{name}: checksum {sum:#x} differs from {first:#x}")),
                        Some(_) => {}
                    }
                }
            }
            host = pass / self.clients as f64 / self.kind.reference_pass_ms();
        }
        let suite = &self.suite;
        let single = self.clients == 1;
        let (jobs, wall, cpu) = Self::phase(&orders, |i| {
            if single {
                suite::run(suite, i, tracing)
            } else {
                suite::submit_and_wait(suite, i, tracing)
            }
        });
        let mut out = Vec::with_capacity(jobs.len());
        for (i, t0, t1, job) in jobs {
            let name = if single { "run" } else { "submit_wait" };
            self.spans
                .record(name, self.suite.programs[i].name, Some(round), t0, t1);
            out.push(job);
        }
        self.spans.close(round);
        let round = Round {
            ok: out.iter().filter(|j| j.ok).count(),
            jobs: out.len(),
            wall,
            cpu,
            host,
        };
        (out, round)
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn run(args: &Args, origin: Instant) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let (workers, clients) = (nproc, args.kind.clients(nproc));
    let workloads = all_workloads();
    let mut spans = Spans::new(origin);
    let (suite, took) = set_up(args.kind, workers, &workloads, &mut spans)?;
    let n = suite.programs.len();

    let mut bench = Bench {
        kind: args.kind,
        workers,
        clients,
        workloads,
        setups: vec![(took.as_secs_f64(), 0)],
        setup_times: vec![suite.times],
        suite,
        spans,
        client_rngs: (0..clients as u64)
            .map(|c| Prng::new(args.seed ^ (c + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect(),
        plain: vec![Vec::new(); n],
        checksums: vec![None; n],
        problems: Vec::new(),
        jobs: Vec::new(),
        rounds: Vec::new(),
    };

    // Timed rounds, tracing off, for `--seconds` of rounds. Set-up
    // `k` runs once the rounds have taken k / SETUP_REPS of that time;
    // set-up time does not count towards it.
    let budget = Duration::from_secs(args.seconds);
    let mut timed = Duration::ZERO;
    while timed < budget || bench.jobs.len() < MIN_JOBS || bench.rounds.len() < MIN_ROUNDS {
        let k = bench.setups.len();
        if k < SETUP_REPS && timed >= budget * k as u32 / SETUP_REPS as u32 {
            bench.set_up_again()?;
        }
        let start = Instant::now();
        let (jobs, round) = bench.round(false);
        timed += start.elapsed();
        bench.rounds.push(round);
        bench.jobs.extend(jobs);
    }
    while bench.setups.len() < SETUP_REPS {
        bench.set_up_again()?;
    }

    let e2e = end_to_end(&bench, true);
    let measured = end_to_end(&bench, false);
    let metrics = if args.trace {
        per_layer(&mut bench)
    } else {
        e2e.metrics
    };

    print_rows(&bench);
    println!(
        "host: nproc={nproc} workers={workers} clients={clients} size={} seed={} workload={} \
         setup_reps={SETUP_REPS} rounds={} jobs={} host_factor={:.4} (median round)",
        args.kind.size(),
        args.seed,
        args.kind.name(),
        bench.rounds.len(),
        bench.jobs.len(),
        median(&bench.rounds.iter().map(|r| r.host).collect::<Vec<_>>()),
    );
    let as_measured: Vec<String> = measured
        .metrics
        .iter()
        .map(|m| format!("{}={:.4}", m.name, m.value))
        .collect();
    println!("as measured, not host-scaled: {}", as_measured.join(" "));
    for (name, p) in [("latency_ms_p50", &e2e.p50), ("latency_ms_p90", &e2e.p90)] {
        println!(
            "{name} = {:.3} ms over n={} samples, {} beyond it",
            p.value, p.samples, p.beyond
        );
    }
    if e2e.p90.beyond < 10 {
        bench.problems.push(format!(
            "p90 refused: only {} samples beyond it",
            e2e.p90.beyond
        ));
    }
    for p in &bench.problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"nproc\":{nproc},\"workers\":{workers},\"clients\":{clients},\"size\":\"{}\"",
        args.kind.name(),
        args.seed,
        args.kind.size()
    );
    let path = format!(
        "{}/spans/{}-trace{}.json",
        env!("CARGO_MANIFEST_DIR"),
        args.kind.name(),
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(format!("{}/spans", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&path, bench.spans.to_json(&header)))
    {
        eprintln!("perfbench: could not write {path}: {e}");
    }

    let attempted = bench.jobs.len();
    let failed = bench.jobs.iter().filter(|j| !j.ok).count();
    let correct = failed == 0 && bench.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    Ok(())
}

struct EndToEnd {
    metrics: Vec<Metric>,
    p50: stats::Percentile,
    p90: stats::Percentile,
}

/// Mean of `xs`, or 0 for none.
fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// Per program: Σ plain wall / Σ job latency, each normalised by its
/// sample count.
fn speedups(bench: &Bench) -> Vec<f64> {
    (0..bench.suite.programs.len())
        .map(|i| {
            let lat: Vec<f64> = bench
                .jobs
                .iter()
                .filter(|j| j.program == i)
                .map(|j| ms(j.latency))
                .collect();
            ratio(mean(&bench.plain[i]), mean(&lat))
        })
        .collect()
}

/// p50 and p90 of submit-to-report latency, `latency[k]` being job
/// `k`'s, with the program mix taken out: each job's latency is scaled
/// by M / (its program's mean), where M is the mean over all jobs. Over
/// a fixed mix of eleven programs, raw percentiles sit on the boundary
/// between two programs (the p90 is close to the second-slowest
/// program's maximum), so one slow job moves them by the gap between
/// programs. Scaled, they measure how far jobs stray from their
/// program's typical latency, in milliseconds of an average job.
fn latency_percentiles(bench: &Bench, latency: &[f64]) -> (stats::Percentile, stats::Percentile) {
    let n = bench.suite.programs.len();
    let mut sum = vec![0.0; n];
    let mut count = vec![0.0; n];
    for (j, l) in bench.jobs.iter().zip(latency) {
        sum[j.program] += l;
        count[j.program] += 1.0;
    }
    let overall = ratio(sum.iter().sum(), count.iter().sum());
    let scaled: Vec<f64> = bench
        .jobs
        .iter()
        .zip(latency)
        .map(|(j, l)| l * ratio(overall * count[j.program], sum[j.program]))
        .collect();
    (percentile(&scaled, 0.5), percentile(&scaled, 0.9))
}

/// The end-to-end metrics. Throughput and CPU are medians over rounds,
/// so a stretch of interference from outside the process moves them less
/// than it moves a whole-run mean. With `at_reference`, every time is
/// divided by the host factor of its round ([`Round::host`]), and a
/// set-up's by that of the round that follows it, which is how they are
/// reported; without, the times are as measured.
fn end_to_end(bench: &Bench, at_reference: bool) -> EndToEnd {
    let host = |r: &Round| if at_reference { r.host } else { 1.0 };
    let jobs = bench.jobs.len() as f64;
    let ok = bench.jobs.iter().filter(|j| j.ok).count() as f64;
    // Jobs are stored round by round.
    let latency: Vec<f64> = bench
        .rounds
        .iter()
        .flat_map(|r| std::iter::repeat_n(host(r), r.jobs))
        .zip(&bench.jobs)
        .map(|(h, j)| ms(j.latency) / h)
        .collect();
    let (p50, p90) = latency_percentiles(bench, &latency);
    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&bench.rounds.iter().map(f).collect::<Vec<_>>());
    let setup_s: Vec<f64> = bench
        .setups
        .iter()
        .map(|&(s, r)| s / host(&bench.rounds[r.min(bench.rounds.len() - 1)]))
        .collect();
    let metrics = vec![
        metric("speedup_geomean", geomean(&speedups(bench)), "x"),
        metric(
            "jobs_per_s",
            per_round(&|r| ratio(r.ok as f64 * host(r), r.wall.as_secs_f64())),
            "1/s",
        ),
        metric(
            "cpu_ms_per_job",
            per_round(&|r| ratio(ms(r.cpu) / host(r), r.jobs as f64)),
            "ms",
        ),
        metric("latency_ms_p50", p50.value, "ms"),
        metric("latency_ms_p90", p90.value, "ms"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("ok_share", ratio(ok, jobs), "ratio"),
    ];
    EndToEnd { metrics, p50, p90 }
}

fn per_layer(bench: &mut Bench) -> Vec<Metric> {
    // The traced round, after the timed ones, then the microprobes.
    let untraced_round = median(
        &bench
            .rounds
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let (traced_jobs, traced) = bench.round(true);
    let mut split = Split::default();
    for job in &traced_jobs {
        let name = bench.suite.programs[job.program].name;
        if !job.ok {
            bench.problems.push(format!("{name}: traced job failed"));
        }
        match &job.timeline {
            Some(tl) => {
                if let Err(e) = tl.validate() {
                    bench
                        .problems
                        .push(format!("{name}: timeline invalid: {e}"));
                }
                split.add(&traced::split(tl, job.counters.wall));
            }
            None => bench
                .problems
                .push(format!("{name}: traced job has no timeline")),
        }
    }
    let mut probe = |name: &str, r: probes::Probe| {
        r.unwrap_or_else(|e| {
            bench.problems.push(format!("{name} probe: {e}"));
            0.0
        })
    };
    let task_overhead = probe("task_overhead", probes::task_overhead_us());
    let spec_cycle = probe("spec_cycle", probes::spec_cycle_ns());
    let inline_cycle = probe("inline_cycle", probes::inline_cycle_ns());

    let bench = &*bench;
    let passes = (bench.rounds.len() * bench.clients) as f64;
    let programs = &bench.suite.programs;
    let n = programs.len();
    let setup_ms = |f: fn(&SetupTimes) -> Duration| {
        median(
            &bench
                .setup_times
                .iter()
                .map(|t| ms(f(t)))
                .collect::<Vec<_>>(),
        )
    };
    let sum = |f: &dyn Fn(&JobSample) -> f64| bench.jobs.iter().map(f).sum::<f64>();
    let c = |f: &dyn Fn(&suite::Counters) -> u64| sum(&|j| f(&j.counters) as f64);
    let plain_pass_ms = ratio(
        bench.plain.iter().flatten().sum(),
        bench.plain.iter().map(Vec::len).sum::<usize>() as f64 / n as f64,
    );
    let oracle_ms: Vec<f64> = programs.iter().map(|p| ms(p.oracle)).collect();
    let body_over_plain: Vec<f64> = (0..n)
        .map(|i| ratio(oracle_ms[i], mean(&bench.plain[i])))
        .collect();
    let over_oracle: Vec<f64> = (0..n)
        .map(|i| {
            let runs: Vec<f64> = bench
                .jobs
                .iter()
                .filter(|j| j.program == i)
                .map(|j| ms(j.counters.wall))
                .collect();
            ratio(mean(&runs), oracle_ms[i])
        })
        .collect();
    let speedup = geomean(&speedups(bench));
    let sim = geomean(&bench.suite.simulated_speedups(bench.workers));
    let waits: Vec<f64> = bench
        .jobs
        .iter()
        .map(|j| ms(j.latency.saturating_sub(j.counters.wall)))
        .collect();
    let (_, p90) = latency_percentiles(
        bench,
        &bench.jobs.iter().map(|j| ms(j.latency)).collect::<Vec<_>>(),
    );
    let tasks = c(&|c| c.tasks);
    let attempts = c(&|c| c.attempts);
    let commits = c(&|c| c.mem.commits);
    let reads = c(&|c| c.mem.reads);
    let writes = c(&|c| c.mem.writes);
    let busy = sum(&|j| j.counters.busy.as_secs_f64());
    let pool = sum(&|j| j.counters.wall.as_secs_f64()) * bench.workers as f64;
    let traced_ms = |ns: u64| ns as f64 / 1e6 / bench.clients as f64;

    vec![
        metric("host.nproc", bench.workers as f64, "count"),
        metric("host.clients", bench.clients as f64, "count"),
        metric(
            "host.input_factor",
            bench.kind.size().factor() as f64,
            "count",
        ),
        metric("latency.samples", p90.samples as f64, "count"),
        metric("latency.beyond_p90", p90.beyond as f64, "count"),
        metric("workloads.plain_ms", plain_pass_ms, "ms"),
        metric("workloads.package_ms", setup_ms(|t| t.package), "ms"),
        metric("workloads.oracle_ms", setup_ms(|t| t.oracle), "ms"),
        metric("workloads.body_over_plain", geomean(&body_over_plain), "x"),
        metric("ir.model_ms", setup_ms(|t| t.ir), "ms"),
        metric("core.parallelize_ms", setup_ms(|t| t.parallelize), "ms"),
        metric("analysis.lint_ms", setup_ms(|t| t.lint), "ms"),
        metric(
            "analysis.conflict_permille",
            mean(
                &programs
                    .iter()
                    .map(|p| f64::from(p.conflict_permille))
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric("runtime.sim.speedup_geomean", sim, "x"),
        metric("runtime.sim.gap", ratio(speedup, sim), "x"),
        metric("runtime.engine.warm_ms", setup_ms(|t| t.warm), "ms"),
        metric("runtime.engine.wait_ms", median(&waits), "ms"),
        metric(
            "runtime.exec.run_ms",
            sum(&|j| ms(j.counters.wall)) / passes,
            "ms",
        ),
        metric("runtime.exec.over_oracle", geomean(&over_oracle), "x"),
        metric(
            "runtime.exec.attempts_per_commit",
            ratio(attempts, tasks),
            "ratio",
        ),
        metric(
            "runtime.exec.squash_share",
            ratio(c(&|c| c.squashes), attempts),
            "ratio",
        ),
        metric("runtime.exec.utilization", ratio(busy, pool), "ratio"),
        metric(
            "runtime.exec.fallbacks",
            c(&|c| c.fallbacks) / passes,
            "count",
        ),
        metric("runtime.exec.task_overhead_us", task_overhead, "us"),
        metric(
            "runtime.governor.inline_share",
            ratio(c(&|c| c.governor.degraded_commits), tasks),
            "ratio",
        ),
        metric(
            "runtime.governor.degrades",
            c(&|c| c.governor.degrades) / passes,
            "count",
        ),
        metric(
            "runtime.governor.reprobes",
            c(&|c| c.governor.reprobes) / passes,
            "count",
        ),
        metric(
            "runtime.governor.backoffs",
            c(&|c| c.governor.backoffs) / passes,
            "count",
        ),
        metric("specmem.reads_per_commit", ratio(reads, commits), "ratio"),
        metric("specmem.writes_per_commit", ratio(writes, commits), "ratio"),
        metric(
            "specmem.forward_share",
            ratio(c(&|c| c.mem.forwards), reads),
            "ratio",
        ),
        metric(
            "specmem.silent_share",
            ratio(c(&|c| c.mem.silent_stores), writes),
            "ratio",
        ),
        metric(
            "specmem.violations",
            c(&|c| c.mem.violations) / passes,
            "count",
        ),
        metric(
            "specmem.rollbacks",
            c(&|c| c.mem.rollbacks) / passes,
            "count",
        ),
        metric("specmem.spec_cycle_ns", spec_cycle, "ns"),
        metric("specmem.inline_cycle_ns", inline_cycle, "ns"),
        metric("trace.compute_ms", traced_ms(split.compute), "ms"),
        metric("trace.handoff_ms", traced_ms(split.handoff), "ms"),
        metric("trace.commit_ms", traced_ms(split.commit), "ms"),
        metric("trace.squashed_ms", traced_ms(split.squashed), "ms"),
        metric("trace.inline_ms", traced_ms(split.inline), "ms"),
        metric(
            "trace.unattributed_share",
            split.unattributed_share(),
            "ratio",
        ),
        metric(
            "trace.overhead",
            ratio(traced.wall.as_secs_f64(), untraced_round),
            "x",
        ),
    ]
}

/// Per-program rows, printed next to the gated numbers and not gated.
fn print_rows(bench: &Bench) {
    let speedups = speedups(bench);
    println!(
        "{:<8} {:>10} {:>10} {:>8} {:>10} {:>7} {:>5}",
        "program", "plain_ms", "run_ms", "speedup", "squashes", "inline", "jobs"
    );
    for (i, p) in bench.suite.programs.iter().enumerate() {
        let jobs: Vec<&JobSample> = bench.jobs.iter().filter(|j| j.program == i).collect();
        let k = jobs.len() as f64;
        let lat: f64 = jobs.iter().map(|j| ms(j.latency)).sum();
        let squashes: u64 = jobs.iter().map(|j| j.counters.squashes).sum();
        let degraded: u64 = jobs
            .iter()
            .map(|j| j.counters.governor.degraded_commits)
            .sum();
        let tasks: u64 = jobs.iter().map(|j| j.counters.tasks).sum();
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>8.3} {:>10.1} {:>7.3} {:>5}",
            p.name,
            mean(&bench.plain[i]),
            ratio(lat, k),
            speedups[i],
            ratio(squashes as f64, k),
            ratio(degraded as f64, tasks as f64),
            jobs.len()
        );
    }
}
