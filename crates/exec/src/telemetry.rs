//! Search telemetry: one table of atomic counters and monotonic phase timers.
//!
//! The engine records what the search actually did — children sampled,
//! pruned, trained, cache traffic, analyzer/train calls — and how long
//! each phase of the batch loop took on the wall clock. Every counter is
//! one row of the table at the bottom of this module: its field name, its
//! doc, its value type, its live cell (a summed [`Counter`] or a
//! max-merged [`Gauge`]), its [`Persistence`] and its label. The live
//! [`SearchTelemetry`], the frozen [`TelemetrySnapshot`], both merges,
//! checkpoint restore and the checkpointed projection are all derived from
//! that table, so adding a metric is one row (DESIGN.md §21).
//!
//! Cells are monotonic `AtomicU64`s (overflow-safe for any feasible run
//! length) so workers can bump them without locks; a
//! [`SearchTelemetry::snapshot`] freezes everything into a plain
//! [`TelemetrySnapshot`] for reporting.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One phase of the batch search loop, for wall-time attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Controller sampling (serial).
    Sample,
    /// FPGA latency analysis (parallel).
    Latency,
    /// Child accuracy evaluation (parallel).
    Accuracy,
    /// Reward computation + REINFORCE updates (serial).
    Update,
}

/// Whether a counter is logical search progress or describes one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// Written into `FNASCKPT` snapshots, in table order, and pre-loaded
    /// by [`SearchTelemetry::restore_counters`] on resume.
    Checkpointed,
    /// Work done by *this* process (cache traffic, analyzer calls,
    /// coordinator events, wall times): never persisted or replayed.
    Local,
}

/// A live summed cell: merges add, saturating.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`: one `Relaxed` `fetch_add`, cheap enough for worker hot
    /// paths.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
}

/// A live gauge cell: keeps the largest value seen, so merges stay
/// commutative.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Raises the gauge to `v` when `v` is larger.
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

/// A merge policy, carried by the type of a row's live cell.
trait Merge {
    /// Folds a raw value into the live cell.
    fn fold(&self, raw: u64);
    /// The pure merge of two snapshot values.
    fn merge<V: Value>(a: V, b: V) -> V;
}

impl Merge for Counter {
    fn fold(&self, n: u64) {
        // `fetch_add` wraps; merging counters from many shards must never
        // overflow a `u64` back to a small number, so saturate through a
        // CAS loop instead.
        let mut cur = self.0.load(Ordering::Relaxed);
        while let Err(seen) = self.0.compare_exchange_weak(
            cur,
            cur.saturating_add(n),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            cur = seen;
        }
    }

    fn merge<V: Value>(a: V, b: V) -> V {
        a.saturating_add(b)
    }
}

impl Merge for Gauge {
    fn fold(&self, v: u64) {
        self.max(v);
    }

    fn merge<V: Value>(a: V, b: V) -> V {
        a.max(b)
    }
}

/// A snapshot field type; its live cell holds the raw `u64` form.
trait Value: Copy + Ord {
    fn from_raw(raw: u64) -> Self;
    fn raw(self) -> u64;
    fn saturating_add(self, other: Self) -> Self;
}

impl Value for u64 {
    fn from_raw(raw: u64) -> Self {
        raw
    }

    fn raw(self) -> u64 {
        self
    }

    fn saturating_add(self, other: Self) -> Self {
        u64::saturating_add(self, other)
    }
}

/// Wall times live as nanoseconds.
impl Value for Duration {
    fn from_raw(raw: u64) -> Self {
        Duration::from_nanos(raw)
    }

    fn raw(self) -> u64 {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX)
    }

    fn saturating_add(self, other: Self) -> Self {
        Duration::saturating_add(self, other)
    }
}

/// One row of the counter table, read off a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The field name on [`SearchTelemetry`] and [`TelemetrySnapshot`].
    pub name: &'static str,
    /// Human-readable label, as the metric tables print it.
    pub label: &'static str,
    /// Whether checkpoints carry the row.
    pub persistence: Persistence,
    /// The raw value: the count, or nanoseconds for a wall-time row.
    pub value: u64,
}

/// Expands the counter table into the live and frozen structs and every
/// per-row operation on them.
macro_rules! counter_table {
    ($(
        $(#[doc = $doc:literal])*
        $name:ident: $ty:ty, $cell:ident, $persist:ident, $label:literal;
    )*) => {
        /// Live counters shared by the engine and its workers, one cell per
        /// row of the counter table. Record with [`Counter::add`] and
        /// [`Gauge::max`] on the named cell.
        #[derive(Debug, Default)]
        pub struct SearchTelemetry {
            $($(#[doc = $doc])* pub $name: $cell,)*
        }

        /// A frozen view of [`SearchTelemetry`], safe to store in search
        /// outcomes and render into reports.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct TelemetrySnapshot {
            $($(#[doc = $doc])* pub $name: $ty,)*
        }

        impl SearchTelemetry {
            /// Freezes the current values into a plain snapshot.
            pub fn snapshot(&self) -> TelemetrySnapshot {
                TelemetrySnapshot {
                    $($name: Value::from_raw(self.$name.0.load(Ordering::Relaxed)),)*
                }
            }

            /// Folds a frozen snapshot into the live counters — the
            /// engine's path for absorbing an episode's telemetry delta.
            /// Matches [`TelemetrySnapshot::merge`]: sums **saturate**
            /// instead of wrapping, gauges keep the maximum.
            pub fn merge_snapshot(&self, s: &TelemetrySnapshot) {
                $(self.$name.fold(s.$name.raw());)*
            }

            /// Pre-loads the [`Persistence::Checkpointed`] counters from a
            /// snapshot (checkpoint resume). Process-local rows describe
            /// work actually performed by *this* process and are not
            /// replayed.
            pub fn restore_counters(&self, s: &TelemetrySnapshot) {
                $(if Persistence::$persist == Persistence::Checkpointed {
                    self.$name.0.store(s.$name.raw(), Ordering::Relaxed);
                })*
            }
        }

        impl TelemetrySnapshot {
            /// The pure reduction behind every telemetry merge: each row
            /// merged by its cell's policy — **saturating** addition for
            /// counters and wall times, maximum for gauges. Both are
            /// commutative and associative, so folding any number of shard
            /// snapshots produces the same result in any association order
            /// (the checkpoint merge still fixes shard order for the float
            /// state it reduces alongside this).
            #[must_use]
            pub fn merge(&self, other: &TelemetrySnapshot) -> TelemetrySnapshot {
                TelemetrySnapshot {
                    $($name: <$cell as Merge>::merge(self.$name, other.$name),)*
                }
            }

            /// Every row of the counter table, in table order.
            pub fn rows(&self) -> [Row; ROWS] {
                [$(Row {
                    name: stringify!($name),
                    label: $label,
                    persistence: Persistence::$persist,
                    value: self.$name.raw(),
                },)*]
            }

            /// The checkpointed projection: process-local rows read zero.
            #[must_use]
            pub fn persisted(&self) -> TelemetrySnapshot {
                let mut s = TelemetrySnapshot::default();
                $(if Persistence::$persist == Persistence::Checkpointed {
                    s.$name = self.$name;
                })*
                s
            }

            /// Rebuilds a [`TelemetrySnapshot::persisted`] snapshot from
            /// its checkpointed values, pulled from `next` in table order
            /// (the order [`TelemetrySnapshot::rows`] lists them).
            ///
            /// # Errors
            ///
            /// Returns the first error `next` returns.
            pub fn from_checkpointed<E>(
                mut next: impl FnMut() -> Result<u64, E>,
            ) -> Result<TelemetrySnapshot, E> {
                let mut s = TelemetrySnapshot::default();
                $(if Persistence::$persist == Persistence::Checkpointed {
                    s.$name = Value::from_raw(next()?);
                })*
                Ok(s)
            }
        }

        /// Rows in the counter table.
        pub const ROWS: usize = [$(stringify!($name)),*].len();
    };
}

// The counter table. Columns: field, value type, live cell (`Counter` sums,
// `Gauge` keeps the maximum), persistence, label. The `Checkpointed` rows,
// in this order, are the `FNASCKPT` telemetry section: append new ones
// after the last, or bump the checkpoint version.
counter_table! {
    /// Children sampled from the controller.
    children_sampled: u64, Counter, Checkpointed, "children sampled";
    /// Children pruned by the latency spec without training.
    children_pruned: u64, Counter, Checkpointed, "children pruned";
    /// Children whose accuracy was evaluated (trained).
    children_trained: u64, Counter, Checkpointed, "children trained";
    /// Children that could not be built at all.
    children_unbuildable: u64, Counter, Checkpointed, "children unbuildable";
    /// Children whose evaluation faulted (panic, exhausted retries,
    /// quarantine) and were settled into failed trials.
    children_failed: u64, Counter, Checkpointed, "children failed";
    /// Completed episodes (batches).
    episodes: u64, Counter, Checkpointed, "episodes";
    /// Child-evaluation panics caught and isolated.
    panics_caught: u64, Counter, Checkpointed, "panics caught";
    /// Transient-fault retries issued by the resilient oracle.
    retries: u64, Counter, Checkpointed, "oracle retries";
    /// Children quarantined for non-finite accuracies.
    quarantined: u64, Counter, Checkpointed, "quarantined accuracies";
    /// Checkpoints written to disk during the run.
    checkpoints_written: u64, Counter, Checkpointed, "checkpoints written";
    /// Shard leases that expired without a heartbeat, so the coordinator
    /// reclaimed the shard (coordinator-side).
    leases_expired: u64, Counter, Local, "leases expired";
    /// Shards handed out more than once — speculative straggler copies
    /// plus expired-lease re-dispatches (coordinator-side).
    shards_redispatched: u64, Counter, Local, "shards re-dispatched";
    /// Duplicate shard completions discarded first-wins after the
    /// byte-compare assertion (coordinator-side).
    duplicate_results: u64, Counter, Local, "duplicate results";
    /// Records appended to the coordinator's crash-safe round journal
    /// (coordinator-side).
    journal_records: u64, Counter, Local, "journal records";
    /// Completed rounds resumed from the round journal on coordinator
    /// restart instead of being re-run (coordinator-side).
    rounds_recovered: u64, Counter, Local, "rounds recovered";
    /// Submissions rejected by epoch fencing because they were produced
    /// under a previous coordinator incarnation (coordinator-side).
    stale_submissions_rejected: u64, Counter, Local, "stale submissions rejected";
    /// `Retry` answers served at the submit-admission cap
    /// (coordinator-side). Workers count the `Retry`s they receive in
    /// their own `WorkerReport`, not here.
    retries_served: u64, Counter, Local, "retries served";
    /// Milliseconds of backoff those `Retry` answers advised
    /// (coordinator-side).
    retry_sleep_ms: u64, Counter, Local, "retry sleep (ms)";
    /// Uncached FNAS-tool (analyzer) invocations.
    analyzer_calls: u64, Counter, Local, "analyzer calls";
    /// Accuracy-oracle invocations.
    train_calls: u64, Counter, Checkpointed, "train calls";
    /// Latency-cache hits.
    latency_cache_hits: u64, Counter, Local, "latency cache hits";
    /// Latency-cache misses.
    latency_cache_misses: u64, Counter, Local, "latency cache misses";
    /// Accuracy-cache hits.
    accuracy_cache_hits: u64, Counter, Local, "accuracy cache hits";
    /// Accuracy-cache misses.
    accuracy_cache_misses: u64, Counter, Local, "accuracy cache misses";
    /// Persistent-store (L2) hits: oracle answers served from disk.
    store_hits: u64, Counter, Local, "store hits";
    /// Persistent-store lookups that found no usable record.
    store_misses: u64, Counter, Local, "store misses";
    /// Records written through to the persistent store.
    store_writes: u64, Counter, Local, "store writes";
    /// Records evicted from the persistent store by garbage collection.
    store_evictions: u64, Counter, Local, "store evictions";
    /// Latest known persistent-store size in record bytes (a gauge;
    /// merged as a maximum, not a sum).
    store_bytes: u64, Gauge, Local, "store bytes on disk";
    /// Wall time (ns) in the `design` lowering pass.
    pass_design_ns: u64, Counter, Local, "pass design (ns)";
    /// Wall time (ns) in the `taskgraph` lowering pass.
    pass_graph_ns: u64, Counter, Local, "pass taskgraph (ns)";
    /// Wall time (ns) in the `partition` lowering pass.
    pass_partition_ns: u64, Counter, Local, "pass partition (ns)";
    /// Wall time (ns) in the `schedule` lowering pass.
    pass_schedule_ns: u64, Counter, Local, "pass schedule (ns)";
    /// Wall time (ns) in the `sim` pass — cycle simulation, either
    /// backend.
    pass_sim_ns: u64, Counter, Local, "pass sim (ns)";
    /// Regions built by the `partition` pass for the parallel simulator.
    partitions_built: u64, Counter, Local, "partitions built";
    /// Cross-partition availability events settled by the partitioned
    /// simulator.
    cross_partition_events: u64, Counter, Local, "cross-partition events";
    /// Wall time in the (serial) sampling phase.
    sample_time: Duration, Counter, Local, "sample wall (ns)";
    /// Wall time in the (parallel) latency phase.
    latency_time: Duration, Counter, Local, "latency wall (ns)";
    /// Wall time in the (parallel) accuracy phase.
    accuracy_time: Duration, Counter, Local, "accuracy wall (ns)";
    /// Wall time in the (serial) reward/update phase.
    update_time: Duration, Counter, Local, "update wall (ns)";
}

impl SearchTelemetry {
    /// Fresh, all-zero telemetry.
    pub fn new() -> Self {
        SearchTelemetry::default()
    }

    /// Starts a monotonic timer attributing its lifetime to `phase`.
    #[must_use = "the timer records on drop"]
    pub fn phase_timer(&self, phase: Phase) -> PhaseTimer<'_> {
        PhaseTimer {
            telemetry: self,
            phase,
            start: Instant::now(),
        }
    }

    fn phase_cell(&self, phase: Phase) -> &Counter {
        match phase {
            Phase::Sample => &self.sample_time,
            Phase::Latency => &self.latency_time,
            Phase::Accuracy => &self.accuracy_time,
            Phase::Update => &self.update_time,
        }
    }
}

/// RAII guard adding its lifetime to one phase's wall time.
#[derive(Debug)]
pub struct PhaseTimer<'a> {
    telemetry: &'a SearchTelemetry,
    phase: Phase,
    start: Instant,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        self.telemetry
            .phase_cell(self.phase)
            .add(self.start.elapsed().raw());
    }
}

impl TelemetrySnapshot {
    /// Latency-cache hit rate over all lookups (`0.0` with no traffic).
    pub fn latency_cache_hit_rate(&self) -> f64 {
        ratio(self.latency_cache_hits, self.latency_cache_misses)
    }

    /// Accuracy-cache hit rate over all lookups (`0.0` with no traffic).
    pub fn accuracy_cache_hit_rate(&self) -> f64 {
        ratio(self.accuracy_cache_hits, self.accuracy_cache_misses)
    }

    /// Persistent-store hit rate over all L2 lookups (`0.0` with no
    /// traffic, including when the store is disabled).
    pub fn store_hit_rate(&self) -> f64 {
        ratio(self.store_hits, self.store_misses)
    }

    /// Fraction of sampled children pruned without training.
    pub fn prune_rate(&self) -> f64 {
        if self.children_sampled == 0 {
            0.0
        } else {
            self.children_pruned as f64 / self.children_sampled as f64
        }
    }

    /// Total attributed wall time across all phases (saturating).
    pub fn total_time(&self) -> Duration {
        self.phases()
            .into_iter()
            .fold(Duration::ZERO, |total, (_, d)| total.saturating_add(d))
    }

    /// Per-phase `(name, duration)` pairs, in loop order.
    pub fn phases(&self) -> [(&'static str, Duration); 4] {
        [
            ("sample", self.sample_time),
            ("latency", self.latency_time),
            ("accuracy", self.accuracy_time),
            ("update", self.update_time),
        ]
    }

    /// Per-pass `(name, nanoseconds)` pairs, in lowering-pipeline order.
    pub fn pass_ns(&self) -> [(&'static str, u64); 5] {
        [
            ("design", self.pass_design_ns),
            ("taskgraph", self.pass_graph_ns),
            ("partition", self.pass_partition_ns),
            ("schedule", self.pass_schedule_ns),
            ("sim", self.pass_sim_ns),
        ]
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits.saturating_add(misses);
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sampled {} | pruned {} ({:.0}%) | trained {} | unbuildable {} | episodes {}",
            self.children_sampled,
            self.children_pruned,
            self.prune_rate() * 100.0,
            self.children_trained,
            self.children_unbuildable,
            self.episodes,
        )?;
        writeln!(
            f,
            "latency cache {}/{} hits ({:.0}%) | accuracy cache {}/{} hits ({:.0}%)",
            self.latency_cache_hits,
            self.latency_cache_hits
                .saturating_add(self.latency_cache_misses),
            self.latency_cache_hit_rate() * 100.0,
            self.accuracy_cache_hits,
            self.accuracy_cache_hits
                .saturating_add(self.accuracy_cache_misses),
            self.accuracy_cache_hit_rate() * 100.0,
        )?;
        writeln!(
            f,
            "analyzer calls {} | train calls {}",
            self.analyzer_calls, self.train_calls
        )?;
        writeln!(
            f,
            "faults: failed {} | panics caught {} | retries {} | quarantined {} | checkpoints {}",
            self.children_failed,
            self.panics_caught,
            self.retries,
            self.quarantined,
            self.checkpoints_written,
        )?;
        writeln!(
            f,
            "coord: leases expired {} | shards re-dispatched {} | duplicate results {}",
            self.leases_expired, self.shards_redispatched, self.duplicate_results,
        )?;
        writeln!(
            f,
            "journal: {} records | {} rounds recovered | {} stale submissions rejected",
            self.journal_records, self.rounds_recovered, self.stale_submissions_rejected,
        )?;
        writeln!(
            f,
            "backpressure: {} retries served | {} ms retry sleep",
            self.retries_served, self.retry_sleep_ms,
        )?;
        writeln!(
            f,
            "store: {}/{} hits ({:.0}%) | writes {} | evictions {} | {} bytes on disk",
            self.store_hits,
            self.store_hits.saturating_add(self.store_misses),
            self.store_hit_rate() * 100.0,
            self.store_writes,
            self.store_evictions,
            self.store_bytes,
        )?;
        writeln!(
            f,
            "passes: design {:.1?} | taskgraph {:.1?} | partition {:.1?} | schedule {:.1?} | sim {:.1?}",
            Duration::from_nanos(self.pass_design_ns),
            Duration::from_nanos(self.pass_graph_ns),
            Duration::from_nanos(self.pass_partition_ns),
            Duration::from_nanos(self.pass_schedule_ns),
            Duration::from_nanos(self.pass_sim_ns),
        )?;
        writeln!(
            f,
            "partitioned sim: {} partitions built | {} cross-partition events",
            self.partitions_built, self.cross_partition_events,
        )?;
        write!(
            f,
            "wall: sample {:.1?} | latency {:.1?} | accuracy {:.1?} | update {:.1?} | total {:.1?}",
            self.sample_time,
            self.latency_time,
            self.accuracy_time,
            self.update_time,
            self.total_time(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = SearchTelemetry::new();
        t.children_sampled.add(10);
        t.children_pruned.add(2);
        t.store_bytes.max(4096);
        t.store_bytes.max(1024); // gauge: a smaller view never shrinks it
        t.pass_design_ns.add(10);
        t.pass_design_ns.add(1);
        let s = t.snapshot();
        assert_eq!(s.children_sampled, 10);
        assert_eq!(s.children_pruned, 2);
        assert_eq!(s.prune_rate(), 0.2);
        assert_eq!(s.store_bytes, 4096);
        assert_eq!(s.pass_ns()[0], ("design", 11));
    }

    #[test]
    fn checkpointed_rows_follow_table_order() {
        let mut n = 0;
        let s = TelemetrySnapshot::from_checkpointed(|| {
            n += 1;
            Ok::<_, ()>(n)
        })
        .unwrap();
        assert_eq!(
            (s.children_sampled, s.checkpoints_written, s.train_calls),
            (1, 10, 11)
        );
        let rows = s.rows();
        let checkpointed: Vec<u64> = rows
            .iter()
            .filter(|r| r.persistence == Persistence::Checkpointed)
            .map(|r| r.value)
            .collect();
        assert_eq!(checkpointed, (1..=11).collect::<Vec<_>>());
        assert_eq!(s.persisted(), s);
        assert_eq!(
            (rows[0].name, rows[0].label),
            ("children_sampled", "children sampled")
        );
        assert_eq!(rows[ROWS - 1].name, "update_time");
        // The live cells carry every row through merge and snapshot.
        let t = SearchTelemetry::new();
        t.merge_snapshot(&s);
        assert_eq!(t.snapshot(), s);
        assert_eq!(
            TelemetrySnapshot::from_checkpointed(|| Err("short")),
            Err("short")
        );
    }

    #[test]
    fn phase_timers_attribute_time() {
        let t = SearchTelemetry::new();
        {
            let _g = t.phase_timer(Phase::Latency);
            std::thread::sleep(Duration::from_millis(5));
        }
        {
            let _g = t.phase_timer(Phase::Update);
        }
        let s = t.snapshot();
        assert!(s.latency_time >= Duration::from_millis(5));
        assert!(s.total_time() >= s.latency_time);
        assert_eq!(s.phases()[1].0, "latency");
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let t = SearchTelemetry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.children_sampled.add(1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().children_sampled, 8000);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = TelemetrySnapshot::default();
        assert_eq!(s.prune_rate(), 0.0);
        assert_eq!(s.latency_cache_hit_rate(), 0.0);
        assert_eq!(s.accuracy_cache_hit_rate(), 0.0);
        assert_eq!(s.total_time(), Duration::ZERO);
    }

    #[test]
    fn display_renders_all_sections() {
        let t = SearchTelemetry::new();
        t.children_sampled.add(4);
        t.children_pruned.add(1);
        let text = t.snapshot().to_string();
        assert!(text.contains("sampled 4"));
        assert!(text.contains("pruned 1"));
        assert!(text.contains("latency cache"));
        assert!(text.contains("faults:"));
        assert!(text.contains("coord:"));
        assert!(text.contains("journal:"));
        assert!(text.contains("backpressure:"));
        assert!(text.contains("store:"));
        assert!(text.contains("bytes on disk"));
        assert!(text.contains("passes:"));
        assert!(text.contains("partitioned sim:"));
        assert!(text.contains("wall:"));
    }

    #[test]
    fn snapshot_merge_saturates_instead_of_wrapping() {
        // Counters right at the u64 edge: a wrapping add would fold these
        // back to tiny values and mis-report a huge run as short.
        let a = TelemetrySnapshot {
            children_sampled: u64::MAX - 1,
            retries: u64::MAX,
            episodes: 3,
            leases_expired: u64::MAX,
            latency_cache_hits: u64::MAX,
            accuracy_cache_misses: u64::MAX,
            store_hits: u64::MAX,
            sample_time: Duration::MAX,
            ..TelemetrySnapshot::default()
        };
        let b = TelemetrySnapshot {
            children_sampled: 7,
            retries: 1,
            episodes: 2,
            leases_expired: 9,
            latency_cache_misses: 1,
            accuracy_cache_hits: 1,
            store_misses: u64::MAX,
            sample_time: Duration::from_secs(1),
            update_time: Duration::from_secs(1),
            ..TelemetrySnapshot::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.children_sampled, u64::MAX);
        assert_eq!(m.retries, u64::MAX);
        assert_eq!(m.episodes, 5);
        assert_eq!(m.leases_expired, u64::MAX);
        assert_eq!(m.sample_time, Duration::MAX);
        // The saturated value stays readable: no reader overflows.
        assert_eq!(m.total_time(), Duration::MAX);
        assert_eq!(m.latency_cache_hit_rate(), 1.0);
        assert!(m.accuracy_cache_hit_rate() < 1e-9);
        assert_eq!(m.store_hit_rate(), 1.0);
        let text = m.to_string();
        assert!(text.contains(&format!("latency cache {0}/{0} hits", u64::MAX)));
        assert!(text.contains(&format!("store: {0}/{0} hits", u64::MAX)));
    }

    #[test]
    fn snapshot_merge_is_commutative_and_associative() {
        let mk = |base: u64| TelemetrySnapshot {
            children_sampled: base.saturating_mul(u64::MAX / 2),
            children_pruned: base,
            children_trained: base * 2,
            episodes: base,
            train_calls: u64::MAX - base,
            latency_cache_hits: base * 31,
            leases_expired: base * 5,
            shards_redispatched: u64::MAX - base * 7,
            duplicate_results: base,
            journal_records: base * 13,
            rounds_recovered: base,
            stale_submissions_rejected: u64::MAX - base * 2,
            store_hits: base * 11,
            store_writes: u64::MAX - base * 3,
            store_bytes: base * 1000, // merged as max, still commutative
            pass_partition_ns: u64::MAX - base * 17,
            pass_sim_ns: base * 19,
            partitions_built: base * 4,
            cross_partition_events: u64::MAX - base * 23,
            accuracy_time: Duration::from_nanos(base),
            ..TelemetrySnapshot::default()
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b).store_bytes, 2000);
        // Zero is the identity.
        assert_eq!(a.merge(&TelemetrySnapshot::default()), a);
    }

    #[test]
    fn live_merge_snapshot_matches_the_pure_reduction() {
        let t = SearchTelemetry::new();
        t.children_sampled.add(u64::MAX - 2);
        t.store_bytes.max(50);
        let delta = TelemetrySnapshot {
            children_sampled: 5,
            children_failed: 1,
            episodes: 1,
            store_bytes: 20,
            latency_time: Duration::from_millis(7),
            ..TelemetrySnapshot::default()
        };
        let expected = t.snapshot().merge(&delta);
        t.merge_snapshot(&delta);
        assert_eq!(t.snapshot(), expected);
        assert_eq!(t.snapshot().children_sampled, u64::MAX);
        assert_eq!(t.snapshot().store_bytes, 50);
    }

    #[test]
    fn restore_counters_preloads_logical_state_only() {
        let t = SearchTelemetry::new();
        t.latency_cache_hits.add(5);
        t.latency_cache_misses.add(5);
        let mut snap = TelemetrySnapshot {
            children_sampled: 40,
            episodes: 5,
            checkpoints_written: 2,
            latency_cache_hits: 99,
            store_hits: 77,
            pass_sim_ns: 55,
            ..TelemetrySnapshot::default()
        };
        t.restore_counters(&snap);
        t.children_sampled.add(8);
        t.episodes.add(1);
        let s = t.snapshot();
        assert_eq!(s.children_sampled, 48);
        assert_eq!(s.episodes, 6);
        assert_eq!(s.checkpoints_written, 2);
        // Process-local rows are not replayed: they reflect this process.
        assert_eq!((s.latency_cache_hits, s.latency_cache_misses), (5, 5));
        assert_eq!((s.store_hits, s.pass_sim_ns), (0, 0));
        // Restore is exactly the checkpointed projection.
        snap.latency_cache_hits = 0;
        let fresh = SearchTelemetry::new();
        fresh.restore_counters(&snap);
        assert_eq!(fresh.snapshot(), snap.persisted());
    }
}
