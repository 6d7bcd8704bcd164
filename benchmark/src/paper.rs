//! `paper-sweep`: a Fig. 7-shaped surrogate sweep (mnist, cifar10,
//! imagenet × TS4…TS1 × three seeds × 60 trials = 2,160 children) on two
//! executor workers against one fresh `DiskStore`; each search ends by
//! deploying its winner.

use std::sync::Arc;

use fnas::evaluator::SurrogateEvaluator;
use fnas::experiment::ExperimentPreset;
use fnas::search::{SearchConfig, Searcher};
use fnas_store::{DiskStore, Store};

use crate::common::{derive, timed_setups, Report, RunCtx};
use crate::inproc::{check_rep, prepare, run_rep, EndToEnd, Jobs, Layers};
use crate::stats::{median, Summary};
use crate::trace::{TimedEvaluator, TimedStore, Tracer};

/// Seeds per (preset, spec) pair.
const SEEDS: u64 = 3;
/// Trials per search (the paper's budget).
const TRIALS: usize = 60;
/// Output digest of the first repetition at the default seed.
pub const PINNED: u64 = 0xe056_9b29_7feb_0189;

/// The 36 searches of one repetition, in submission order. As in the
/// `fig7` binary, the three search seeds are shared by every preset and
/// spec, so later specs sample architectures earlier ones already asked
/// the store about. Presets alternate job by job, so the median job's
/// turnaround does not hinge on which preset happens to sit mid-queue.
fn configs(rep_seed: u64) -> Vec<SearchConfig> {
    let presets = [
        ExperimentPreset::mnist(),
        ExperimentPreset::cifar10(),
        ExperimentPreset::imagenet(),
    ];
    let mut out = Vec::new();
    for n in (1..=4usize).rev() {
        for s in 0..SEEDS {
            for preset in &presets {
                let seed = derive(rep_seed, &[s]);
                let preset = preset.clone().with_trials(TRIALS);
                let ts = preset.ts(n).get();
                out.push(SearchConfig::fnas(preset, ts).with_seed(seed));
            }
        }
    }
    out
}

fn searcher(config: &SearchConfig, tracer: Option<&Arc<Tracer>>) -> fnas::Result<Searcher> {
    let surrogate = Box::new(SurrogateEvaluator::new(config.preset().calibration()));
    match tracer {
        None => Searcher::with_evaluator(config, surrogate),
        Some(t) => Searcher::with_evaluator(
            config,
            Box::new(TimedEvaluator::new(surrogate, Arc::clone(t), None)),
        ),
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up, search and I/O errors.
pub fn run(ctx: &RunCtx, report: &mut Report) -> Result<(), Box<dyn std::error::Error>> {
    let mut setups = Vec::new();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut rep = 0usize;
    while rep == 0 || e2e.timed_s() + traced_s < ctx.seconds {
        let configs = configs(derive(ctx.seed, &[rep as u64]));
        let jobs = |store| Jobs {
            configs: configs.clone(),
            searcher: &searcher,
            store: Some(store),
            deploy: true,
            batch: 8,
        };
        // Set-up: open a fresh store and build the repetition's searchers
        // (controllers and latency evaluators) around it.
        let (store, searchers) = timed_setups(
            &mut setups,
            crate::SETUPS,
            |i| ctx.provision(&format!("store-{rep}-{i}"), &["objects"]),
            |dir| -> Result<_, Box<dyn std::error::Error>> {
                let store: Arc<dyn Store> = Arc::new(DiskStore::open(dir)?);
                let searchers = prepare(&jobs(Arc::clone(&store)), None)?;
                Ok((store, searchers))
            },
        )?;
        let (makespan, runs) = run_rep(&jobs(store), searchers, None)?;
        e2e.add(makespan, &runs);
        let digest = check_rep(&runs, &mut report.checks);
        if rep == 0 {
            report
                .checks
                .pinned(ctx.seed, digest, PINNED, "paper-sweep");
            report
                .notes
                .push(format!("output digest {:#018x}", digest.value()));
        }
        if let Some(t) = &ctx.tracer {
            // The same inputs again, traced: the pair gives the overhead.
            let disk: Arc<dyn Store> =
                Arc::new(DiskStore::open(ctx.fresh_dir(&format!("traced-{rep}"))?)?);
            let store: Arc<dyn Store> = Arc::new(TimedStore::new(disk, Arc::clone(t)));
            let traced_jobs = jobs(Arc::clone(&store));
            let searchers = prepare(&traced_jobs, Some(t))?;
            let (traced, runs) = run_rep(&traced_jobs, searchers, Some(t))?;
            check_rep(&runs, &mut report.checks);
            layers.add(&runs, Some(&store));
            plain_s += makespan;
            traced_s += traced;
        }
        rep += 1;
    }
    report
        .e2e
        .set("setup_s", median(&setups).unwrap_or(f64::NAN));
    report
        .notes
        .push(format!("setup_s {}", Summary::of(&setups)));
    e2e.finish(&mut report.e2e, &mut report.notes);
    if let Some(t) = &ctx.tracer {
        layers.finish(t, &mut report.layers);
        report
            .layers
            .set("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0));
    }
    Ok(())
}
