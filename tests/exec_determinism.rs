//! Determinism of the batched execution engine.
//!
//! The contract pinned here: for a fixed `SearchConfig` (seed, batch
//! size), [`fnas::search::Searcher::run_batched`] produces **bit-identical
//! results regardless of worker count** — sequentially (0 workers) and on
//! 1, 2 or 8 pool threads. That holds even for the hard case of an
//! RNG-consuming oracle (real child training), because every child's
//! evaluation stream is derived from its logical position
//! `(run_seed, episode, child)` rather than from whichever worker happened
//! to pick it up.

use fnas::evaluator::TrainedEvaluator;
use fnas::experiment::ExperimentPreset;
use fnas::search::{BatchOptions, SearchConfig, SearchOutcome, Searcher};
use fnas_controller::space::SearchSpace;
use fnas_data::SynthConfig;

/// A CPU-sized preset: 10×10 images, 4 classes, 2-layer children.
fn tiny_preset() -> ExperimentPreset {
    let dataset = SynthConfig::mnist_like()
        .with_shape((1, 10, 10))
        .with_classes(4)
        .with_noise(0.15)
        .with_sizes(60, 30);
    let space = SearchSpace::new(2, vec![3, 5], vec![6, 12]).expect("valid space");
    ExperimentPreset::mnist()
        .with_trials(8)
        .with_epochs(3)
        .with_dataset(dataset)
        .with_space(space)
}

/// Everything a run's observable outcome consists of: the deployed
/// architecture, the full per-trial trace (arch, reward, latency bits,
/// trained flag) and the exact search-cost totals.
type Fingerprint = (
    Option<String>,
    Vec<(String, u32, Option<u64>, bool)>,
    u64,
    u64,
);

fn fingerprint(out: &SearchOutcome) -> Fingerprint {
    (
        out.best().map(|b| b.arch.describe()),
        out.trials()
            .iter()
            .map(|t| {
                (
                    t.arch.describe(),
                    t.reward.to_bits(),
                    t.latency.map(|l| l.get().to_bits()),
                    t.trained,
                )
            })
            .collect(),
        out.cost().training_seconds.to_bits(),
        out.cost().analyzer_seconds.to_bits(),
    )
}

fn run_trained(workers: usize) -> SearchOutcome {
    let preset = tiny_preset();
    let config = SearchConfig::fnas(preset.clone(), 2.0).with_seed(33);
    let evaluator = TrainedEvaluator::new(preset.dataset(), preset.epochs(), 8).expect("generates");
    let mut searcher =
        Searcher::with_evaluator(&config, Box::new(evaluator)).expect("constructible");
    let opts = BatchOptions::sequential()
        .with_workers(workers)
        .with_batch_size(4);
    searcher.run_batched(&config, &opts).expect("runs")
}

#[test]
fn trained_search_is_bit_identical_across_worker_counts() {
    let sequential = fingerprint(&run_trained(0));
    assert!(
        !sequential.1.is_empty(),
        "the run must explore at least one child"
    );
    for workers in [1usize, 2, 8] {
        assert_eq!(
            fingerprint(&run_trained(workers)),
            sequential,
            "workers = {workers}"
        );
    }
}

#[test]
fn surrogate_search_is_bit_identical_across_worker_counts() {
    // The second config is long enough for the controller to revisit
    // architectures, so both memo caches must see hits; the first sees none.
    for (trials, required_ms, seed, revisits) in [(24, 5.0, 101, false), (96, 10.0, 11, true)] {
        let config = SearchConfig::fnas(ExperimentPreset::mnist().with_trials(trials), required_ms)
            .with_seed(seed);
        let run = |workers: usize| {
            let opts = BatchOptions::sequential()
                .with_workers(workers)
                .with_batch_size(8);
            Searcher::surrogate(&config)
                .expect("constructible")
                .run_batched(&config, &opts)
                .expect("runs")
        };
        let sequential_run = run(0);
        if revisits {
            let t = sequential_run.telemetry();
            assert!(t.latency_cache_hits > 0, "latency cache saw no hits");
            assert!(t.accuracy_cache_hits > 0, "accuracy cache saw no hits");
        }
        let sequential = fingerprint(&sequential_run);
        for workers in [1usize, 2, 8] {
            assert_eq!(
                fingerprint(&run(workers)),
                sequential,
                "{trials} trials, workers = {workers}"
            );
        }
    }
}

#[test]
fn telemetry_counters_are_worker_independent() {
    // Wall times legitimately differ; every counter must not.
    let counters = |workers: usize| {
        let t = *run_trained(workers).telemetry();
        (
            t.children_sampled,
            t.children_pruned,
            t.children_trained,
            t.children_unbuildable,
            t.episodes,
            t.train_calls,
        )
    };
    let sequential = counters(0);
    for workers in [2usize, 8] {
        assert_eq!(counters(workers), sequential, "workers = {workers}");
    }
}

#[test]
fn repeated_identical_runs_agree() {
    // Same worker count twice: the engine holds no hidden global state.
    assert_eq!(fingerprint(&run_trained(2)), fingerprint(&run_trained(2)));
}
