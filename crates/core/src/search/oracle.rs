//! The unified child oracle: one interface bundling everything the engine
//! asks about a sampled architecture.
//!
//! Before the decomposition, [`crate::search::Searcher`] hand-wired a
//! [`LatencyEvaluator`], a boxed [`AccuracyEvaluator`] and a separate
//! accuracy memo cache, and each loop re-implemented the cache/counter
//! bookkeeping. [`ChildOracle`] owns all three and exposes the four
//! answers the engine needs — latency (staged/memoised), accuracy
//! (memoised when the oracle is deterministic), rewards, and fault
//! statistics — behind `&self`, so the batch engine can hand one reference
//! to every worker.

use fnas_controller::arch::ChildArch;
use fnas_exec::{Deadline, SearchTelemetry, ShardedCache, TelemetrySnapshot};
use fnas_fpga::Millis;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::evaluator::AccuracyEvaluator;
use crate::latency::LatencyEvaluator;
use crate::resilience::FaultStatsSnapshot;
use crate::Result;

/// Cache-counter baseline captured at the start of a run; per-run
/// telemetry is the delta against it (the oracle's caches outlive
/// individual runs).
#[derive(Debug, Clone, Copy)]
pub struct CacheCounterBase {
    latency_hits: u64,
    latency_misses: u64,
    analyzer_calls: u64,
    accuracy_hits: u64,
    accuracy_misses: u64,
    store_hits: u64,
    store_misses: u64,
    store_writes: u64,
    store_evictions: u64,
    passes: crate::latency::PassCounters,
}

/// Latency + accuracy + reward + fault stats for one child architecture.
#[derive(Debug)]
pub struct ChildOracle {
    latency: LatencyEvaluator,
    evaluator: Box<dyn AccuracyEvaluator>,
    // Consulted only when the oracle is deterministic (a pure function of
    // the architecture): memoising a seed-dependent oracle would make a
    // child's recorded accuracy depend on which earlier trial happened to
    // fill the cache.
    accuracy_cache: ShardedCache<ChildArch, f32>,
}

impl ChildOracle {
    /// Bundles a latency evaluator and an accuracy oracle.
    pub fn new(latency: LatencyEvaluator, evaluator: Box<dyn AccuracyEvaluator>) -> Self {
        ChildOracle {
            latency,
            evaluator,
            accuracy_cache: ShardedCache::new(),
        }
    }

    /// The staged latency evaluator (exposed for deployment and benches).
    pub fn latency_eval(&self) -> &LatencyEvaluator {
        &self.latency
    }

    /// Attaches a persistent store as the L2 under the latency evaluator's
    /// in-memory caches (see [`LatencyEvaluator::set_store`]). The store
    /// never changes oracle answers, only how often the design, analyzer
    /// and simulator stages actually run.
    pub fn attach_store(&mut self, store: std::sync::Arc<dyn fnas_store::Store>) {
        self.latency.set_store(store);
    }

    /// Analytic FPGA latency of `arch` (Eq. 5), memoised at stage
    /// granularity with single-flight dedup.
    ///
    /// # Errors
    ///
    /// Propagates mapping and design errors (the architecture is not
    /// buildable on the platform).
    pub fn child_latency(&self, arch: &ChildArch) -> Result<Millis> {
        self.latency.latency(arch)
    }

    /// Accuracy of `arch` with an explicit RNG, bypassing the memo cache —
    /// the sequential loop's path, where the caller threads one RNG
    /// through every trial.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn accuracy_direct(&self, arch: &ChildArch, rng: &mut dyn RngCore) -> Result<f32> {
        self.evaluator.evaluate(arch, rng)
    }

    /// Accuracy of `arch` for a batched child with its derived seed:
    /// memoised when the oracle declares itself deterministic, evaluated
    /// fresh on a per-child RNG stream otherwise.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors (errors are never cached).
    pub fn accuracy_seeded(&self, arch: &ChildArch, seed: u64) -> Result<f32> {
        self.accuracy_seeded_deadline(arch, seed, None)
    }

    /// [`ChildOracle::accuracy_seeded`] with an optional work deadline
    /// (see [`AccuracyEvaluator::evaluate_with_deadline`]). A timed-out
    /// evaluation surfaces as a transient fault; because errors are never
    /// cached, a later retry under a roomier budget starts clean.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors, including deadline-exceeded transient
    /// faults (errors are never cached).
    pub fn accuracy_seeded_deadline(
        &self,
        arch: &ChildArch,
        seed: u64,
        deadline: Option<&Deadline>,
    ) -> Result<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        if self.evaluator.deterministic() {
            self.accuracy_cache.get_or_try_insert_with(arch, || {
                self.evaluator
                    .evaluate_with_deadline(arch, &mut rng, deadline)
            })
        } else {
            self.evaluator
                .evaluate_with_deadline(arch, &mut rng, deadline)
        }
    }

    /// Reward for a spec-satisfying trained child (Eq. 1's positive
    /// branch).
    pub fn valid_reward(
        &self,
        accuracy: f32,
        baseline: f32,
        latency: Millis,
        required: Millis,
    ) -> f32 {
        crate::reward::valid_reward(accuracy, baseline, latency, required)
    }

    /// Reward for a latency-violating child (Eq. 1's negative branch).
    pub fn violation_reward(&self, latency: Millis, required: Millis) -> f32 {
        crate::reward::violation_reward(latency, required)
    }

    /// Fault statistics accrued by the accuracy oracle, when it tracks
    /// them (see [`crate::resilience::ResilientEvaluator`]).
    pub fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.evaluator.fault_stats()
    }

    /// Captures the current cache counters as a per-run baseline.
    pub(super) fn cache_counters(&self) -> CacheCounterBase {
        let store = self.latency.store_counters();
        CacheCounterBase {
            latency_hits: self.latency.cache_hits(),
            latency_misses: self.latency.cache_misses(),
            analyzer_calls: self.latency.analyzer_calls(),
            accuracy_hits: self.accuracy_cache.hits(),
            accuracy_misses: self.accuracy_cache.misses(),
            store_hits: store.hits,
            store_misses: store.misses,
            store_writes: store.writes,
            store_evictions: store.evictions,
            passes: self.latency.pass_counters(),
        }
    }

    /// Charges the cache traffic since `base` into `t`.
    pub(super) fn charge_cache_deltas(&self, t: &SearchTelemetry, base: CacheCounterBase) {
        t.latency_cache_hits
            .add(self.latency.cache_hits() - base.latency_hits);
        t.latency_cache_misses
            .add(self.latency.cache_misses() - base.latency_misses);
        t.analyzer_calls
            .add(self.latency.analyzer_calls() - base.analyzer_calls);
        t.accuracy_cache_hits
            .add(self.accuracy_cache.hits() - base.accuracy_hits);
        t.accuracy_cache_misses
            .add(self.accuracy_cache.misses() - base.accuracy_misses);
        // The store handle may be shared beyond this run (one DiskStore per
        // worker process); saturate so an out-of-run decrease can't wrap.
        let store = self.latency.store_counters();
        t.store_hits.add(store.hits.saturating_sub(base.store_hits));
        t.store_misses
            .add(store.misses.saturating_sub(base.store_misses));
        t.store_writes
            .add(store.writes.saturating_sub(base.store_writes));
        t.store_evictions
            .add(store.evictions.saturating_sub(base.store_evictions));
        t.store_bytes.max(store.bytes_on_disk);
        let (p, b) = (self.latency.pass_counters(), base.passes);
        t.pass_design_ns.add(p.design_ns - b.design_ns);
        t.pass_graph_ns.add(p.graph_ns - b.graph_ns);
        t.pass_partition_ns.add(p.partition_ns - b.partition_ns);
        t.pass_schedule_ns.add(p.schedule_ns - b.schedule_ns);
        t.pass_sim_ns.add(p.sim_ns - b.sim_ns);
        t.partitions_built
            .add(p.partitions_built - b.partitions_built);
        t.cross_partition_events
            .add(p.cross_partition_events - b.cross_partition_events);
    }

    /// Records one checkpoint write into `telemetry` and returns the
    /// counters that checkpoint carries: the live checkpointed rows plus
    /// the fault deltas accrued since `fault_base`, which the engine only
    /// charges into the live counters when the run ends.
    pub(super) fn record_checkpoint(
        &self,
        telemetry: &SearchTelemetry,
        fault_base: FaultStatsSnapshot,
    ) -> TelemetrySnapshot {
        telemetry.checkpoints_written.add(1);
        let mut s = telemetry.snapshot().persisted();
        if let Some(f) = self.fault_stats() {
            s.retries += f.retries - fault_base.retries;
            s.quarantined += f.quarantined - fault_base.quarantined;
        }
        s
    }
}
