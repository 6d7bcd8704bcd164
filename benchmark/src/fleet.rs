//! `fleet-serve`: one in-process `fnas-serve` daemon on loopback, a fleet
//! of two `run_fleet_worker` workers sharing one store directory, and one
//! client thread that submits four paper-sized surrogate jobs and polls
//! `JobStatus` in a closed loop.
//!
//! The daemon and the workers run at their shipped defaults. Only what
//! makes a run terminate and exercise admission is changed: the daemon
//! expects four jobs, lingers briefly once they are done, and admits two
//! at a time, so the client is refused and must honour `Retry`.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fnas::checkpoint::SearchCheckpoint;
use fnas::experiment::ExperimentPreset;
use fnas::job::JobSpec;
use fnas::search::BatchOptions;
use fnas_coord::{
    run_fleet_worker, run_rounds_local, Clock, Journal, Response, WallClock, WorkerOptions,
    WorkerReport, JOB_STATE_CANCELLED, JOB_STATE_FINISHED,
};
use fnas_serve::{client, JobProgress, ServeOptions, Server};
use fnas_store::{DiskStore, Store};

use crate::common::{derive, secs, timed_setups, winner, Digest, Report, RunCtx};
use crate::stats::{median, percentile, Summary};
use crate::trace::{ms, Tracer};

/// Presets and timing specs (`TSn`) of the four jobs.
const JOBS: [(&str, usize); 4] = [("mnist", 2), ("cifar10", 3), ("imagenet", 1), ("mnist", 4)];
/// Trials per job (the paper's budget).
const TRIALS: usize = 60;
/// Shards per round.
const SHARDS: u32 = 2;
/// Rounds per job.
const ROUNDS: u64 = 2;
/// Children per episode inside a shard.
const BATCH: u32 = 5;
/// Fleet workers (the machine's two cores).
const FLEET: usize = 2;
/// Jobs the daemon runs at once: fewer than [`JOBS`], so admission refuses.
const MAX_JOBS: usize = 2;
/// How long the daemon keeps answering after the last job finished: longer
/// than a worker's heartbeat join (`heartbeat_ms`, 1 s by default), so
/// both workers hear `Finished` before the listener closes. With 50 ms,
/// some runs stalled for a worker's 30 s read timeout after the last job.
const LINGER_MS: u64 = 1_500;
/// A job not finished by then counts as failed and ends the run.
const REP_DEADLINE: Duration = Duration::from_secs(90);
/// Output digest of the first repetition at the default seed.
pub const PINNED: u64 = 0xbb03_53e5_1a45_01c3;

fn preset(name: &str) -> ExperimentPreset {
    match name {
        "cifar10" => ExperimentPreset::cifar10(),
        "imagenet" => ExperimentPreset::imagenet(),
        _ => ExperimentPreset::mnist(),
    }
}

fn specs(seed: u64) -> Vec<JobSpec> {
    JOBS.iter()
        .enumerate()
        .map(|(i, &(name, ts))| {
            JobSpec::new(name)
                .with_required_ms(Some(preset(name).ts(ts).get()))
                .with_trials(Some(TRIALS))
                .with_seed(Some(derive(seed, &[i as u64])))
        })
        .collect()
}

fn options() -> ServeOptions {
    ServeOptions {
        max_jobs: MAX_JOBS,
        expect_jobs: JOBS.len(),
        linger_ms: LINGER_MS,
        ..ServeOptions::default()
    }
}

/// A daemon with its fleet, serving one repetition.
struct Daemon {
    server: Arc<Server>,
    addr: String,
    serve: JoinHandle<fnas::Result<()>>,
    fleet: Vec<JoinHandle<fnas::Result<WorkerReport>>>,
}

/// A daemon whose store is open and whose listener is bound, in `root`.
struct Opened {
    root: PathBuf,
    server: Server,
    listener: TcpListener,
}

/// Opens the daemon's store, binds loopback and opens the fleet's shared
/// store: the set-up that is timed.
fn open(root: &Path) -> Result<Opened, Box<dyn std::error::Error>> {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let server = Server::new(&root.join("daemon"), options(), clock)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    DiskStore::open(root.join("fleet-store"))?;
    Ok(Opened {
        root: root.to_path_buf(),
        server,
        listener,
    })
}

fn start(opened: Opened) -> Result<Daemon, Box<dyn std::error::Error>> {
    let Opened {
        root,
        server,
        listener,
    } = opened;
    let server = Arc::new(server);
    let addr = listener.local_addr()?.to_string();
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run(listener))
    };
    let fleet = (0..FLEET)
        .map(|i| {
            let name = format!("fleet-{i}");
            let w = WorkerOptions::new(addr.clone(), name.clone(), root.join(&name))
                .with_store_dir(root.join("fleet-store"));
            std::thread::spawn(move || run_fleet_worker(&BatchOptions::sequential(), &w))
        })
        .collect();
    Ok(Daemon {
        server,
        addr,
        serve,
        fleet,
    })
}

/// The client's view of one job.
struct Slot {
    spec: JobSpec,
    digest: u64,
    first_submit: Option<Instant>,
    retry_at: Instant,
    accepted: bool,
    dead: bool,
    done: Option<Instant>,
    progress: Option<JobProgress>,
}

/// Client-side figures of one repetition.
#[derive(Default)]
struct Client {
    makespan_s: f64,
    turnarounds_s: Vec<f64>,
    status_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    refusals: u64,
    rpcs: u64,
    rpc_errors: u64,
    unfinished: u64,
    progress: Vec<JobProgress>,
}

/// Submits every job and polls until all finished (closed loop: the next
/// request goes out when the previous answer is in).
fn drive(addr: &str, specs: &[JobSpec], tracer: Option<&Arc<Tracer>>) -> Client {
    let mut c = Client::default();
    let start = Instant::now();
    let mut slots: Vec<Slot> = specs
        .iter()
        .map(|spec| Slot {
            spec: spec.clone(),
            digest: spec.job_digest(),
            first_submit: None,
            retry_at: start,
            accepted: false,
            dead: false,
            done: None,
            progress: None,
        })
        .collect();
    let root = tracer.map_or(0, |t| t.next_id());
    let rpc = |name: &'static str, c: &mut Client, call: &dyn Fn() -> fnas::Result<Response>| {
        let at = Instant::now();
        let out = call();
        c.rpcs += 1;
        if let Some(t) = tracer {
            let request = t.next_id();
            t.record(name, request, root, at);
        }
        (ms(at.elapsed()), out)
    };
    while Instant::now() < start + REP_DEADLINE {
        let open: Vec<usize> = (0..slots.len())
            .filter(|&i| !slots[i].dead && slots[i].done.is_none())
            .collect();
        if open.is_empty() {
            break;
        }
        let mut polled = false;
        for &i in &open {
            let now = Instant::now();
            let s = &mut slots[i];
            if !s.accepted && now >= s.retry_at {
                s.first_submit.get_or_insert(now);
                let spec = s.spec.clone();
                let (took, out) = rpc("serve.submit", &mut c, &|| {
                    client::submit_job(addr, &spec, BATCH, SHARDS, ROUNDS)
                });
                c.submit_ms.push(took);
                polled = true;
                match out {
                    Ok(Response::JobAccepted { job }) if job == s.digest => s.accepted = true,
                    Ok(Response::Retry { backoff_ms }) => {
                        c.refusals += 1;
                        s.retry_at = Instant::now() + Duration::from_millis(backoff_ms);
                    }
                    Ok(_) => {
                        c.rpc_errors += 1;
                        s.dead = true;
                    }
                    Err(_) => {
                        c.rpc_errors += 1;
                        s.retry_at = Instant::now() + Duration::from_millis(50);
                    }
                }
            } else if s.accepted {
                let job = s.digest;
                let (took, out) = rpc("serve.status", &mut c, &|| client::job_status(addr, job));
                c.status_ms.push(took);
                polled = true;
                match out {
                    Ok(Response::JobInfo {
                        state, progress, ..
                    }) => {
                        if state == JOB_STATE_FINISHED {
                            s.done = Some(Instant::now());
                            s.progress = JobProgress::decode(&progress);
                        } else if state == JOB_STATE_CANCELLED {
                            s.dead = true;
                        }
                    }
                    Ok(_) => {
                        c.rpc_errors += 1;
                        s.dead = true;
                    }
                    Err(_) => c.rpc_errors += 1,
                }
            }
        }
        if !polled {
            // Only refused submissions are left: wait for the earliest
            // backoff to run out.
            let next = open
                .iter()
                .map(|&i| slots[i].retry_at)
                .min()
                .unwrap_or(start);
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
        }
    }
    let last = slots.iter().filter_map(|s| s.done).max().unwrap_or(start);
    c.makespan_s = last.duration_since(start).as_secs_f64();
    for s in slots {
        match (s.first_submit, s.done) {
            (Some(first), Some(done)) => c
                .turnarounds_s
                .push(done.duration_since(first).as_secs_f64()),
            _ => c.unfinished += 1,
        }
        c.progress.extend(s.progress);
    }
    if let Some(t) = tracer {
        t.record_as(root, "fleet.run", 0, 0, start);
    }
    c
}

/// Per-repetition figures gathered after the timed window.
#[derive(Default)]
struct After {
    journal_records: u64,
    journal_bytes: u64,
    shards_run: u64,
    retry_sleep_ms: u64,
}

/// The run's four jobs and what `run_rounds_local` makes of them: the
/// bytes every repetition's `merged.ckpt` must equal.
struct Reference {
    specs: Vec<JobSpec>,
    merged: Vec<Vec<u8>>,
    /// Summed wall time of the four local runs, seconds.
    compute_s: f64,
}

impl Reference {
    fn compute(
        specs: Vec<JobSpec>,
        scratch: &Path,
    ) -> Result<Reference, Box<dyn std::error::Error>> {
        let opts = BatchOptions::sequential().with_batch_size(BATCH as usize);
        let mut merged = Vec::with_capacity(specs.len());
        let at = Instant::now();
        for (i, spec) in specs.iter().enumerate() {
            let dir = scratch.join(format!("ref-{i}"));
            merged
                .push(run_rounds_local(&spec.resolve()?, &opts, SHARDS, ROUNDS, &dir)?.to_bytes());
        }
        Ok(Reference {
            specs,
            merged,
            compute_s: secs(at),
        })
    }
}

/// Checks each job's `merged.ckpt` against the reference, plus rewards
/// and winners; returns the output digest.
fn check(
    daemon: &Server,
    reference: &Reference,
    report: &mut Report,
    after: &mut After,
) -> Result<Digest, Box<dyn std::error::Error>> {
    let mut digest = Digest::default();
    for (i, (spec, want)) in reference.specs.iter().zip(&reference.merged).enumerate() {
        let job = format!("job {i} ({spec})");
        let config = spec.resolve()?;
        let merged = daemon
            .store()
            .get_artifact(spec.job_digest(), "merged.ckpt");
        let checks = &mut report.checks;
        checks.check(merged.as_ref() == Some(want), || {
            format!("{job}: merged.ckpt differs from run_rounds_local")
        });
        let trials = match merged.as_deref().map(SearchCheckpoint::from_bytes) {
            Some(Ok(ckpt)) => ckpt.trials,
            _ => Vec::new(),
        };
        checks.finite_rewards(&trials, &job);
        checks.winner_meets_spec(
            &config,
            winner(&trials, config.mode().required_latency()),
            &job,
        );
        trials.iter().for_each(|t| digest.trial(t));
        let stat = Journal::stat(&daemon.store().job_dir(spec.job_digest()).join("wal"))?;
        after.journal_records += stat.records;
        after.journal_bytes += stat.wal_bytes;
    }
    Ok(digest)
}

/// Runs one repetition on an opened daemon: start, drive, join, check.
fn rep(
    opened: Opened,
    reference: &Reference,
    tracer: Option<&Arc<Tracer>>,
    report: &mut Report,
) -> Result<(Client, After, Digest), Box<dyn std::error::Error>> {
    let daemon = start(opened)?;
    let client = drive(&daemon.addr, &reference.specs, tracer);
    if client.unfinished > 0 {
        // The daemon only exits once every expected job finished, so its
        // threads cannot be joined; the caller fails the run.
        return Err(format!(
            "{} of {} jobs did not finish within {REP_DEADLINE:?}",
            client.unfinished,
            reference.specs.len()
        )
        .into());
    }
    daemon
        .serve
        .join()
        .map_err(|_| "daemon thread panicked")??;
    let mut after = After::default();
    for worker in daemon.fleet {
        let r = worker.join().map_err(|_| "fleet worker panicked")??;
        after.shards_run += r.shards_run;
        after.retry_sleep_ms += r.retry_sleep_ms;
    }
    let digest = check(&daemon.server, reference, report, &mut after)?;
    Ok((client, after, digest))
}

/// Runs the workload. Every repetition serves the same four jobs, so one
/// set of reference runs checks them all.
///
/// # Errors
///
/// Set-up and I/O errors, and jobs that never finish.
pub fn run(ctx: &RunCtx, report: &mut Report) -> Result<(), Box<dyn std::error::Error>> {
    let mut setups = Vec::new();
    let reference = Reference::compute(specs(ctx.seed), &ctx.fresh_dir("reference")?)?;

    let (mut makespans, mut turnarounds, mut status_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut timed_s) = (Vec::new(), 0.0);
    let mut traced_layers: Vec<(Client, After)> = Vec::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut n = 0usize;
    while n == 0 || timed_s + traced_s < ctx.seconds {
        let opened = timed_setups(
            &mut setups,
            crate::SETUPS,
            |i| {
                ctx.provision(
                    &format!("serve-{n}-{i}"),
                    &["daemon/objects", "fleet-store/objects"],
                )
            },
            open,
        )?;
        let (client, after, digest) = rep(opened, &reference, None, report)?;
        account(&client, report);
        if n == 0 {
            report
                .checks
                .pinned(ctx.seed, digest, PINNED, "fleet-serve");
            report
                .notes
                .push(format!("output digest {:#018x}", digest.value()));
        }
        rates.push((TRIALS * JOBS.len()) as f64 / client.makespan_s);
        timed_s += client.makespan_s;
        makespans.push(client.makespan_s);
        turnarounds.push(median(&client.turnarounds_s).unwrap_or(f64::NAN));
        status_ms.extend(&client.status_ms);
        report.notes.push(format!(
            "rep {n}: makespan {:.3} s, {} refusals, shards run {}, journal records {}",
            client.makespan_s, client.refusals, after.shards_run, after.journal_records
        ));
        if let Some(t) = &ctx.tracer {
            let opened = open(&ctx.fresh_dir(&format!("traced-{n}"))?)?;
            let (traced, after, _) = rep(opened, &reference, Some(t), report)?;
            account(&traced, report);
            plain_s += client.makespan_s;
            traced_s += traced.makespan_s;
            traced_layers.push((traced, after));
        }
        n += 1;
    }
    report.notes.push(format!(
        "run_rounds_local of the four jobs: {:.3} s",
        reference.compute_s
    ));

    report
        .notes
        .push(format!("setup_s {}", Summary::of(&setups)));
    let e2e = &mut report.e2e;
    e2e.set("setup_s", median(&setups).unwrap_or(f64::NAN));
    e2e.set("children_per_s", median(&rates).unwrap_or(f64::NAN));
    e2e.set("makespan_s", median(&makespans).unwrap_or(f64::NAN));
    e2e.set("job_turnaround_s", median(&turnarounds).unwrap_or(f64::NAN));
    e2e.set("client_call_ms.p50", median(&status_ms).unwrap_or(f64::NAN));
    e2e.set(
        "client_call_ms.p90",
        percentile(&status_ms, 90.0).unwrap_or(f64::NAN),
    );
    report.notes.push(format!(
        "makespan_s per repetition {}",
        Summary::of(&makespans)
    ));
    report.notes.push(format!(
        "job_turnaround_s, median job of each repetition {}",
        Summary::of(&turnarounds)
    ));
    report.notes.push(format!(
        "client_call_ms (JobStatus round trips) {}",
        Summary::of(&status_ms)
    ));

    if ctx.tracer.is_some() {
        layers(&traced_layers, reference.compute_s, report);
        report
            .layers
            .set("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0));
    }
    Ok(())
}

/// Counts a repetition's requests and jobs against the failure ratio.
fn account(c: &Client, report: &mut Report) {
    report.checks.ops(c.rpcs, c.rpc_errors, "requests");
    report.checks.ops(JOBS.len() as u64, c.unfinished, "jobs");
}

fn layers(reps: &[(Client, After)], compute_s: f64, report: &mut Report) {
    let n = reps.len().max(1) as f64;
    let sum = |f: &dyn Fn(&(Client, After)) -> f64| reps.iter().map(f).sum::<f64>();
    let progress = |f: fn(&JobProgress) -> u64| {
        sum(&|(c, _)| c.progress.iter().map(f).sum::<u64>() as f64) / n
    };
    let submits: Vec<f64> = reps.iter().flat_map(|(c, _)| c.submit_ms.clone()).collect();
    let status: Vec<f64> = reps.iter().flat_map(|(c, _)| c.status_ms.clone()).collect();
    let out = &mut report.layers;
    out.set(
        "coord.compute_share",
        compute_s / (FLEET as f64 * sum(&|(c, _)| c.makespan_s) / n),
    );
    out.set(
        "coord.journal_records",
        sum(&|(_, a)| a.journal_records as f64) / n,
    );
    out.set(
        "coord.journal_bytes",
        sum(&|(_, a)| a.journal_bytes as f64) / n,
    );
    out.set("coord.leases_expired", progress(|p| p.leases_expired));
    out.set(
        "coord.shards_redispatched",
        progress(|p| p.shards_redispatched),
    );
    out.set("coord.duplicate_results", progress(|p| p.duplicate_results));
    out.set("worker.shards_run", sum(&|(_, a)| a.shards_run as f64) / n);
    out.set(
        "worker.retry_sleep_ms",
        sum(&|(_, a)| a.retry_sleep_ms as f64) / n,
    );
    out.set(
        "serve.submit_refusals",
        sum(&|(c, _)| c.refusals as f64) / n,
    );
    out.set("serve.submit_rpc_ms.p50", median(&submits).unwrap_or(0.0));
    out.set("serve.status_rpc_ms.p50", median(&status).unwrap_or(0.0));
    out.set(
        "serve.status_rpc_ms.p90",
        percentile(&status, 90.0).unwrap_or(0.0),
    );
}
