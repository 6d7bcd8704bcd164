//! Pieces every workload shares: seeds, scratch space, output checks,
//! the metric sink and process memory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fnas::latency::LatencyEvaluator;
use fnas::search::{SearchConfig, TrialRecord};

use crate::trace::Tracer;

/// One invocation's settings.
#[derive(Debug)]
pub struct RunCtx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Per-run scratch directory (removed when the run ends).
    pub scratch: PathBuf,
    /// `Some` for a traced run.
    pub tracer: Option<Arc<Tracer>>,
}

impl RunCtx {
    /// A fresh, empty directory under the scratch root.
    ///
    /// # Errors
    ///
    /// I/O errors creating it.
    pub fn fresh_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        self.provision(name, &[])
    }

    /// A fresh directory with empty `subdirs` already in it. Set-ups are
    /// timed on provisioned directories: creating directories waits on the
    /// file system's journal, which on a shared disk measures the
    /// neighbours' writes rather than the program's set-up.
    ///
    /// # Errors
    ///
    /// I/O errors creating them.
    pub fn provision(&self, name: &str, subdirs: &[&str]) -> std::io::Result<PathBuf> {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        for sub in subdirs {
            std::fs::create_dir_all(dir.join(sub))?;
        }
        Ok(dir)
    }
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed derived from the workload seed and a path of indices, so each
/// input of each repetition gets its own stream.
pub fn derive(seed: u64, path: &[u64]) -> u64 {
    path.iter().fold(mix(seed), |acc, &i| mix(acc ^ mix(i)))
}

/// FNV-1a over the reward and accuracy bits of trials, in order: the
/// output digest a workload pins at its default seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one trial's reward and accuracy bits.
    pub fn trial(&mut self, t: &TrialRecord) {
        self.word(t.reward.to_bits());
        self.word(t.accuracy.map_or(u32::MAX, f32::to_bits));
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Output checks and failure accounting of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (children, requests, jobs and checks).
    pub attempted: u64,
    /// Operations that errored, failed checks included.
    pub failed: u64,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts `n` operations of which `failed` errored.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(format!("{failed} of {n} {what} failed"));
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Checks that every reward is finite.
    pub fn finite_rewards(&mut self, trials: &[TrialRecord], job: &str) {
        let bad = trials.iter().filter(|t| !t.reward.is_finite()).count();
        self.check(bad == 0, || format!("{job}: {bad} non-finite rewards"));
    }

    /// Checks that `winner`'s analytic latency, recomputed by a fresh
    /// evaluator on the job's platform, is at most the job's `rL`.
    pub fn winner_meets_spec(
        &mut self,
        config: &SearchConfig,
        winner: Option<&TrialRecord>,
        job: &str,
    ) {
        let (Some(required), Some(winner)) = (config.mode().required_latency(), winner) else {
            // No spec, or no spec-satisfying child: nothing was deployed.
            return;
        };
        let fresh =
            LatencyEvaluator::on_cluster(config.platform(), config.preset().dataset().shape());
        match fresh.latency(&winner.arch) {
            Ok(l) => self.check(l.get() <= required.get(), || {
                format!("{job}: winner latency {l} exceeds rL {required}")
            }),
            Err(e) => self.check(false, || format!("{job}: winner has no latency: {e}")),
        }
    }

    /// At the default seed, checks `digest` against the pinned value.
    pub fn pinned(&mut self, seed: u64, digest: Digest, pinned: u64, workload: &str) {
        if seed == DEFAULT_SEED {
            self.check(digest.value() == pinned, || {
                format!(
                    "{workload}: output digest {:#018x} differs from the pinned {pinned:#018x}",
                    digest.value()
                )
            });
        }
    }
}

/// The seed the output digests are pinned at.
pub const DEFAULT_SEED: u64 = 1;

/// The highest-accuracy trained child that meets `required` — the rule
/// `SearchOutcome::best` applies, for results read from a checkpoint.
pub fn winner(trials: &[TrialRecord], required: Option<fnas_fpga::Millis>) -> Option<&TrialRecord> {
    trials
        .iter()
        .filter(|t| t.accuracy.is_some())
        .filter(|t| required.is_none_or(|r| t.meets(r)))
        .max_by(|a, b| {
            a.accuracy
                .partial_cmp(&b.accuracy)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
}

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (from untraced repetitions).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Output checks and failures.
    pub checks: Checks,
    /// Human-readable lines describing distributions and counts.
    pub notes: Vec<String>,
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `setup` `n` times, each in its own directory from `dir`, adds
/// each duration in seconds to `times`, and returns the last result.
///
/// # Errors
///
/// The first error `dir` or `setup` returns.
pub fn timed_setups<T, E>(
    times: &mut Vec<f64>,
    n: usize,
    dir: impl Fn(usize) -> std::io::Result<PathBuf>,
    mut setup: impl FnMut(&Path) -> Result<T, E>,
) -> Result<T, Box<dyn std::error::Error>>
where
    E: Into<Box<dyn std::error::Error>>,
{
    let mut last = None;
    for i in 0..n.max(1) {
        let dir = dir(i)?;
        let start = Instant::now();
        let value = setup(&dir).map_err(Into::into)?;
        times.push(secs(start));
        last = Some(value);
    }
    Ok(last.expect("at least one set-up ran"))
}
