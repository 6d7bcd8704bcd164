//! `trained-search`: FNAS searches whose children really train
//! (`TrainedEvaluator` on a CPU-sized synthetic MNIST-like problem, as in
//! `examples/search_mnist.rs`), on two executor workers.

use std::sync::Arc;

use fnas::evaluator::{AccuracyEvaluator, TrainedEvaluator};
use fnas::experiment::ExperimentPreset;
use fnas::search::{SearchConfig, Searcher};
use fnas_controller::arch::ChildArch;
use fnas_controller::space::SearchSpace;
use fnas_data::{SynthConfig, SynthDataset};
use fnas_exec::watchdog::Deadline;
use rand::RngCore;

use crate::common::{derive, timed_setups, Report, RunCtx};
use crate::inproc::{check_rep, prepare, run_rep, EndToEnd, Jobs, Layers};
use crate::replay::{Replayer, REPLAY_METRICS};
use crate::stats::{median, percentile};
use crate::trace::{TimedEvaluator, Tracer};

/// Training epochs per child.
const EPOCHS: usize = 1;
/// Training minibatch size.
const BATCH: usize = 20;
/// Trials per search (two episodes of eight).
const TRIALS: usize = 16;
/// Children per episode: four per executor worker, so a slow child
/// holds its whole episode back.
const EPISODE: usize = 8;
/// Searches per repetition.
const SEARCHES: u64 = 4;
/// Latency spec `rL` in ms; it prunes part of this space.
const REQUIRED_MS: f64 = 4.0;
/// SGD learning rate (as in the example).
const LR: f32 = 0.2;
/// Output digest of the first repetition at the default seed.
pub const PINNED: u64 = 0xe9c8_b9d4_d035_0213;

/// One evaluator, its dataset generated once, shared by every search.
#[derive(Debug)]
struct Shared(Arc<dyn AccuracyEvaluator>);

impl AccuracyEvaluator for Shared {
    fn evaluate(&self, arch: &ChildArch, rng: &mut dyn RngCore) -> fnas::Result<f32> {
        self.0.evaluate(arch, rng)
    }

    fn evaluate_with_deadline(
        &self,
        arch: &ChildArch,
        rng: &mut dyn RngCore,
        deadline: Option<&Deadline>,
    ) -> fnas::Result<f32> {
        self.0.evaluate_with_deadline(arch, rng, deadline)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn deterministic(&self) -> bool {
        self.0.deterministic()
    }
}

/// The run's dataset: 5 classes of 14×14 images, 80 train / 40 val.
fn dataset(seed: u64) -> SynthConfig {
    SynthConfig::mnist_like()
        .with_shape((1, 14, 14))
        .with_classes(5)
        .with_noise(0.2)
        .with_sizes(80, 40)
        .with_seed(derive(seed, &[u64::MAX]))
}

fn configs(
    data: &SynthConfig,
    rep_seed: u64,
) -> Result<Vec<SearchConfig>, Box<dyn std::error::Error>> {
    let space = SearchSpace::new(3, vec![3, 5], vec![8, 16])?;
    let preset = ExperimentPreset::mnist()
        .with_trials(TRIALS)
        .with_epochs(EPOCHS)
        .with_dataset(data.clone())
        .with_space(space);
    Ok((0..SEARCHES)
        .map(|s| SearchConfig::fnas(preset.clone(), REQUIRED_MS).with_seed(derive(rep_seed, &[s])))
        .collect())
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up, search and I/O errors.
pub fn run(ctx: &RunCtx, report: &mut Report) -> Result<(), Box<dyn std::error::Error>> {
    let data = dataset(ctx.seed);
    let new_evaluator = || -> fnas::Result<Arc<dyn AccuracyEvaluator>> {
        Ok(Arc::new(
            TrainedEvaluator::new(&data, EPOCHS, BATCH)?.with_lr(LR),
        ))
    };
    let replay_batch = SynthDataset::generate(&data)?
        .train()
        .batches(BATCH)?
        .swap_remove(0);
    let make = |trained: &Arc<dyn AccuracyEvaluator>,
                config: &SearchConfig,
                tracer: Option<&Arc<Tracer>>|
     -> fnas::Result<Searcher> {
        let trained = Box::new(Shared(Arc::clone(trained)));
        match tracer {
            None => Searcher::with_evaluator(config, trained),
            Some(t) => {
                let replay = Replayer::new(replay_batch.clone(), data.shape(), data.classes());
                Searcher::with_evaluator(
                    config,
                    Box::new(TimedEvaluator::new(trained, Arc::clone(t), Some(replay))),
                )
            }
        }
    };
    // Traced repetitions share one evaluator; their set-up is not timed.
    let shared = new_evaluator()?;
    let traced_searcher =
        |config: &SearchConfig, tracer: Option<&Arc<Tracer>>| make(&shared, config, tracer);

    let mut setups = Vec::new();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut rep = 0usize;
    while rep == 0 || e2e.timed_s() + traced_s < ctx.seconds {
        let jobs = Jobs {
            configs: configs(&data, derive(ctx.seed, &[rep as u64]))?,
            searcher: &traced_searcher,
            store: None,
            deploy: false,
            batch: EPISODE,
        };
        // Set-up: generate the dataset, cut its minibatches and build the
        // repetition's searchers around it.
        let searchers = timed_setups(
            &mut setups,
            crate::SETUPS,
            |_| Ok(ctx.scratch.clone()),
            |_| -> fnas::Result<Vec<Searcher>> {
                let trained = new_evaluator()?;
                jobs.configs
                    .iter()
                    .map(|config| make(&trained, config, None))
                    .collect()
            },
        )?;
        let (makespan, runs) = run_rep(&jobs, searchers, None)?;
        e2e.add(makespan, &runs);
        let digest = check_rep(&runs, &mut report.checks);
        if rep == 0 {
            report
                .checks
                .pinned(ctx.seed, digest, PINNED, "trained-search");
            report
                .notes
                .push(format!("output digest {:#018x}", digest.value()));
        }
        if let Some(t) = &ctx.tracer {
            let searchers = prepare(&jobs, Some(t))?;
            let (traced, runs) = run_rep(&jobs, searchers, Some(t))?;
            check_rep(&runs, &mut report.checks);
            layers.add(&runs, None);
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
        .push(format!("setup_s {}", crate::stats::Summary::of(&setups)));
    e2e.finish(&mut report.e2e, &mut report.notes);
    if let Some(t) = &ctx.tracer {
        layers.finish(t, &mut report.layers);
        let train = t.samples("nn.train_child_ms");
        report
            .layers
            .set("nn.train_child_ms.p50", median(&train).unwrap_or(0.0));
        report.layers.set(
            "nn.train_child_ms.p90",
            percentile(&train, 90.0).unwrap_or(0.0),
        );
        for name in REPLAY_METRICS {
            // Mean per replayed minibatch.
            let v = t.samples(name);
            report
                .layers
                .set(name, v.iter().sum::<f64>() / v.len().max(1) as f64);
        }
        report
            .layers
            .set("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0));
        report.notes.push(format!(
            "nn.train_child_ms {}",
            crate::stats::Summary::of(&train)
        ));
    }
    Ok(())
}
