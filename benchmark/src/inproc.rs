//! The in-process workloads' shared runner: one client thread runs a
//! repetition's search jobs first-in first-out through
//! `Searcher::run_batched` on a two-worker executor, optionally deploying
//! each winner. All jobs of a repetition count as submitted at its start.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fnas::latency::PassCounters;
use fnas::search::{BatchOptions, SearchConfig, Searcher, TelemetrySnapshot, TrialRecord};
use fnas_store::Store;

use crate::common::{secs, winner, Checks, Digest, Metrics};
use crate::stats::{median, percentile, Summary};
use crate::trace::{ms, Tracer};

/// Executor workers per search (the machine's two cores).
pub const WORKERS: usize = 2;

/// One finished search job.
#[derive(Debug)]
pub struct JobRun {
    /// The job's configuration.
    pub config: SearchConfig,
    /// Every trial, in order.
    pub trials: Vec<TrialRecord>,
    /// Telemetry of the run.
    pub telemetry: TelemetrySnapshot,
    /// Wall time of the client's call (search plus deployment), seconds.
    pub call_s: f64,
    /// Completion time since the repetition started, seconds.
    pub done_s: f64,
    /// Uncached design builds of this job's latency evaluator.
    pub design_builds: u64,
    /// Pass timers of this job's latency evaluator.
    pub passes: PassCounters,
}

/// Builds the searcher for one job, traced when given a tracer.
pub type MakeSearcher<'a> =
    &'a dyn Fn(&SearchConfig, Option<&Arc<Tracer>>) -> fnas::Result<Searcher>;

/// How a repetition builds its searchers.
pub struct Jobs<'a> {
    /// The repetition's job list, in submission order.
    pub configs: Vec<SearchConfig>,
    /// Builds the searcher for one job.
    pub searcher: MakeSearcher<'a>,
    /// Store attached to every searcher, if any.
    pub store: Option<Arc<dyn Store>>,
    /// Whether each job ends by deploying its winner.
    pub deploy: bool,
    /// Children per episode.
    pub batch: usize,
}

/// Builds every job's searcher, with the store attached: the set-up a
/// repetition pays before its first search starts.
///
/// # Errors
///
/// Controller construction and preset validation errors.
pub fn prepare(jobs: &Jobs<'_>, tracer: Option<&Arc<Tracer>>) -> fnas::Result<Vec<Searcher>> {
    jobs.configs
        .iter()
        .map(|config| {
            let mut searcher = (jobs.searcher)(config, tracer)?;
            if let Some(store) = &jobs.store {
                searcher.attach_store(Arc::clone(store));
            }
            Ok(searcher)
        })
        .collect()
}

/// Runs one repetition on searchers [`prepare`]d from `jobs`; returns its
/// makespan and the finished jobs.
///
/// # Errors
///
/// Search errors (which the benchmark treats as fatal: its workloads are
/// chosen so that no operation fails).
pub fn run_rep(
    jobs: &Jobs<'_>,
    searchers: Vec<Searcher>,
    tracer: Option<&Arc<Tracer>>,
) -> fnas::Result<(f64, Vec<JobRun>)> {
    let opts = BatchOptions::sequential()
        .with_workers(WORKERS)
        .with_batch_size(jobs.batch);
    let start = Instant::now();
    let mut runs = Vec::with_capacity(jobs.configs.len());
    for (i, (config, mut searcher)) in jobs.configs.iter().zip(searchers).enumerate() {
        let call = Instant::now();
        let root = tracer.map(|t| t.next_id());
        let previous = match (tracer, root) {
            (Some(t), Some(id)) => t.set_root(id),
            _ => 0,
        };
        let out = searcher.run_batched(config, &opts)?;
        if jobs.deploy {
            if let Some(best) = out.best() {
                let deploy = Instant::now();
                searcher.oracle().latency_eval().deploy(&best.arch)?;
                if let (Some(t), Some(id)) = (tracer, root) {
                    t.sample("fpga.deploy_ms", ms(deploy.elapsed()));
                    t.record("fpga.deploy", i as u64, id, deploy);
                }
            }
        }
        let (call_s, done_s) = (secs(call), secs(start));
        if let (Some(t), Some(id)) = (tracer, root) {
            t.set_root(previous);
            // The search span is the root of its children's spans; its
            // key, the job's position in the repetition, is shared by its
            // deployment span.
            t.record_as(id, "search.job", i as u64, 0, call);
        }
        let latency = searcher.oracle().latency_eval();
        runs.push(JobRun {
            config: config.clone(),
            trials: out.trials().to_vec(),
            telemetry: *out.telemetry(),
            call_s,
            done_s,
            design_builds: latency.design_builds(),
            passes: latency.pass_counters(),
        });
    }
    Ok((secs(start), runs))
}

/// Output checks of one repetition; returns the output digest.
pub fn check_rep(runs: &[JobRun], checks: &mut Checks) -> Digest {
    let mut digest = Digest::default();
    for (i, run) in runs.iter().enumerate() {
        let job = format!("job {i} ({})", run.config.job());
        checks.finite_rewards(&run.trials, &job);
        let best = winner(&run.trials, run.config.mode().required_latency());
        checks.winner_meets_spec(&run.config, best, &job);
        let children = run.telemetry.children_sampled;
        checks.ops(children, run.telemetry.children_failed, "children");
        run.trials.iter().for_each(|t| digest.trial(t));
    }
    digest
}

/// End-to-end figures accumulated over untraced repetitions. Rates and
/// times are taken per repetition and reported as the median over them,
/// so one repetition slowed by a noisy neighbour does not move the result.
#[derive(Debug, Default)]
pub struct EndToEnd {
    children: u64,
    timed_s: f64,
    rates: Vec<f64>,
    makespans: Vec<f64>,
    turnarounds: Vec<f64>,
    calls_ms: Vec<f64>,
}

impl EndToEnd {
    /// Adds one repetition.
    pub fn add(&mut self, makespan: f64, runs: &[JobRun]) {
        let children: u64 = runs.iter().map(|r| r.telemetry.children_sampled).sum();
        let done: Vec<f64> = runs.iter().map(|r| r.done_s).collect();
        self.children += children;
        self.timed_s += makespan;
        self.rates.push(children as f64 / makespan);
        self.makespans.push(makespan);
        self.turnarounds.push(median(&done).unwrap_or(f64::NAN));
        self.calls_ms.extend(runs.iter().map(|r| r.call_s * 1e3));
    }

    /// Seconds measured so far.
    pub fn timed_s(&self) -> f64 {
        self.timed_s
    }

    /// Writes the end-to-end metrics this runner owns.
    pub fn finish(&self, e2e: &mut Metrics, notes: &mut Vec<String>) {
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        e2e.set("children_per_s", med(&self.rates));
        e2e.set("makespan_s", med(&self.makespans));
        e2e.set("job_turnaround_s", med(&self.turnarounds));
        e2e.set("client_call_ms.p50", med(&self.calls_ms));
        e2e.set(
            "client_call_ms.p90",
            percentile(&self.calls_ms, 90.0).unwrap_or(f64::NAN),
        );
        notes.push(format!(
            "{} repetitions, {} children in {:.3} s timed",
            self.makespans.len(),
            self.children,
            self.timed_s
        ));
        notes.push(format!(
            "children_per_s per repetition {} {:.2?}",
            Summary::of(&self.rates),
            self.rates
        ));
        notes.push(format!(
            "makespan_s per repetition {}",
            Summary::of(&self.makespans)
        ));
        notes.push(format!(
            "job_turnaround_s, median job of each repetition {}",
            Summary::of(&self.turnarounds)
        ));
        notes.push(format!(
            "client_call_ms, one search call each {}",
            Summary::of(&self.calls_ms)
        ));
    }
}

/// Per-layer figures accumulated over traced repetitions.
#[derive(Debug, Default)]
pub struct Layers {
    reps: u64,
    telemetry: Option<TelemetrySnapshot>,
    design_builds: u64,
    passes: PassCounters,
    store: Option<fnas_store::StoreCounters>,
}

fn add_passes(a: &mut PassCounters, b: &PassCounters) {
    a.design_ns += b.design_ns;
    a.graph_ns += b.graph_ns;
    a.partition_ns += b.partition_ns;
    a.schedule_ns += b.schedule_ns;
    a.sim_ns += b.sim_ns;
    a.partitions_built += b.partitions_built;
    a.cross_partition_events += b.cross_partition_events;
}

impl Layers {
    /// Adds one traced repetition.
    pub fn add(&mut self, runs: &[JobRun], store: Option<&Arc<dyn Store>>) {
        self.reps += 1;
        for run in runs {
            self.telemetry = Some(match self.telemetry {
                None => run.telemetry,
                Some(t) => t.merge(&run.telemetry),
            });
            self.design_builds += run.design_builds;
            add_passes(&mut self.passes, &run.passes);
        }
        if let Some(c) = store.map(|s| s.counters()) {
            let acc = self.store.get_or_insert_with(Default::default);
            acc.hits += c.hits;
            acc.misses += c.misses;
            acc.writes += c.writes;
            acc.bytes_on_disk += c.bytes_on_disk;
        }
    }

    /// Writes the per-layer metrics (per repetition, ratios over all).
    pub fn finish(&self, tracer: &Tracer, out: &mut Metrics) {
        let Some(t) = self.telemetry else { return };
        let reps = self.reps.max(1) as f64;
        let per_rep_ms = |d: Duration| ms(d) / reps;
        let ns_ms = |ns: u64| ns as f64 / 1e6 / reps;
        let ratio = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };

        out.set("controller.sample_ms", per_rep_ms(t.sample_time));
        out.set("controller.update_ms", per_rep_ms(t.update_time));
        out.set("oracle.latency_ms", per_rep_ms(t.latency_time));
        out.set("oracle.accuracy_ms", per_rep_ms(t.accuracy_time));
        out.set(
            "search.prune_ratio",
            t.children_pruned as f64 / t.children_sampled.max(1) as f64,
        );
        out.set(
            "exec.latency_cache_hit_ratio",
            ratio(t.latency_cache_hits, t.latency_cache_misses),
        );
        out.set(
            "exec.accuracy_cache_hit_ratio",
            ratio(t.accuracy_cache_hits, t.accuracy_cache_misses),
        );
        let busy = tracer.total("oracle.accuracy_span_ms");
        let phase = ms(t.accuracy_time) * WORKERS as f64;
        out.set(
            "exec.busy_ratio",
            if phase > 0.0 { busy / phase } else { 0.0 },
        );

        out.set("fpga.design_builds", self.design_builds as f64 / reps);
        out.set("fpga.design_ms", ns_ms(self.passes.design_ns));
        out.set(
            "fpga.design_ms_per_build",
            if self.design_builds == 0 {
                0.0
            } else {
                self.passes.design_ns as f64 / 1e6 / self.design_builds as f64
            },
        );
        out.set("fpga.taskgraph_ms", ns_ms(self.passes.graph_ns));
        out.set("fpga.schedule_ms", ns_ms(self.passes.schedule_ns));
        out.set("fpga.sim_ms", ns_ms(self.passes.sim_ns));
        out.set(
            "fpga.deploy_ms",
            median(&tracer.samples("fpga.deploy_ms")).unwrap_or(0.0),
        );

        if let Some(s) = self.store {
            let get = tracer.samples("store.get_us");
            let put = tracer.samples("store.put_us");
            out.set("store.get_us.p50", median(&get).unwrap_or(0.0));
            out.set("store.get_us.p90", percentile(&get, 90.0).unwrap_or(0.0));
            out.set("store.put_us.p50", median(&put).unwrap_or(0.0));
            out.set("store.put_us.p90", percentile(&put, 90.0).unwrap_or(0.0));
            out.set("store.hit_ratio", ratio(s.hits, s.misses));
            out.set("store.writes", s.writes as f64 / reps);
            out.set("store.bytes", s.bytes_on_disk as f64 / reps);
        }
    }
}
