//! Bench-side tracing: spans kept in memory and written out when the run
//! ends, plus timing decorators around the public `Store` and
//! `AccuracyEvaluator` traits.
//!
//! Everything here wraps the program from outside: a span covers one call
//! into a layer's public API, so self time inside the program (journal
//! fsync, lock hold, request handling) is not visible from here.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fnas::evaluator::AccuracyEvaluator;
use fnas::resilience::FaultStatsSnapshot;
use fnas_controller::arch::ChildArch;
use fnas_exec::watchdog::Deadline;
use fnas_store::{CacheKey, Store, StoreCounters};
use rand::RngCore;

use crate::json::Json;
use crate::replay::Replayer;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// Layer boundary, e.g. `store.get`.
    pub name: &'static str,
    /// Identifier shared by every span of one child or one request.
    pub key: u64,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// End, in microseconds since the tracer was created.
    pub end_us: f64,
}

/// Collects spans and named duration samples for one traced run.
///
/// Samples (`ms` or `us` values per layer boundary) are what the
/// per-layer metrics are computed from; spans are the raw timeline
/// written to the span file.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// The span new spans on worker threads attach to (the running
    /// search or fleet run).
    current_root: AtomicU64,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// A fresh id for a span or a request.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span under a fresh id and returns the id.
    pub fn record(&self, name: &'static str, key: u64, parent: u64, start: Instant) -> u64 {
        let id = self.next_id();
        self.record_as(id, name, key, parent, start);
        id
    }

    /// Records a finished span under `id`, allocated earlier with
    /// [`Tracer::next_id`] so that spans opened inside it could name it
    /// as their parent.
    pub fn record_as(&self, id: u64, name: &'static str, key: u64, parent: u64, start: Instant) {
        let span = Span {
            id,
            parent,
            name,
            key,
            start_us: self.micros(start),
            end_us: self.micros(Instant::now()),
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Sets the span that spans opened on worker threads report as
    /// their parent, returning the previous one.
    pub fn set_root(&self, id: u64) -> u64 {
        self.current_root.swap(id, Ordering::Relaxed)
    }

    /// The span new worker-side spans attach to.
    pub fn root(&self) -> u64 {
        self.current_root.load(Ordering::Relaxed)
    }

    /// Adds one sample under `name`.
    pub fn sample(&self, name: &'static str, value: f64) {
        self.samples
            .lock()
            .expect("sample map lock")
            .entry(name)
            .or_default()
            .push(value);
    }

    /// All samples recorded under `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples
            .lock()
            .expect("sample map lock")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Sum of the samples under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.samples(name).iter().sum()
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list lock").len()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list lock");
        let mut text = String::new();
        for s in spans.iter() {
            let line = Json::obj([
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::str(s.name)),
                ("key", Json::Num(s.key as f64)),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
            ]);
            text.push_str(&line.encode());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A `Store` decorator timing every record get and put (a put includes
/// the store's fsync and rename).
#[derive(Debug)]
pub struct TimedStore {
    inner: Arc<dyn Store>,
    tracer: Arc<Tracer>,
}

impl TimedStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Store>, tracer: Arc<Tracer>) -> Self {
        TimedStore { inner, tracer }
    }
}

impl Store for TimedStore {
    fn get(&self, key: &CacheKey) -> Option<Vec<u8>> {
        let start = Instant::now();
        let out = self.inner.get(key);
        self.tracer
            .sample("store.get_us", start.elapsed().as_secs_f64() * 1e6);
        let id = self.tracer.next_id();
        self.tracer
            .record("store.get", id, self.tracer.root(), start);
        out
    }

    fn put(&self, key: &CacheKey, payload: &[u8]) {
        let start = Instant::now();
        self.inner.put(key, payload);
        self.tracer
            .sample("store.put_us", start.elapsed().as_secs_f64() * 1e6);
        let id = self.tracer.next_id();
        self.tracer
            .record("store.put", id, self.tracer.root(), start);
    }

    fn counters(&self) -> StoreCounters {
        self.inner.counters()
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn put_artifact(&self, job: u64, name: &str, bytes: &[u8]) {
        self.inner.put_artifact(job, name, bytes);
    }

    fn get_artifact(&self, job: u64, name: &str) -> Option<Vec<u8>> {
        self.inner.get_artifact(job, name)
    }
}

/// An `AccuracyEvaluator` decorator: times every child evaluation and,
/// when given a [`Replayer`], replays one minibatch of the child through
/// the public `fnas_nn::layer` types to split training time by layer
/// kind.
#[derive(Debug)]
pub struct TimedEvaluator {
    inner: Box<dyn AccuracyEvaluator>,
    tracer: Arc<Tracer>,
    replay: Option<Replayer>,
}

impl TimedEvaluator {
    /// Wraps `inner`.
    pub fn new(
        inner: Box<dyn AccuracyEvaluator>,
        tracer: Arc<Tracer>,
        replay: Option<Replayer>,
    ) -> Self {
        TimedEvaluator {
            inner,
            tracer,
            replay,
        }
    }

    fn timed(
        &self,
        arch: &ChildArch,
        eval: impl FnOnce() -> fnas::Result<f32>,
    ) -> fnas::Result<f32> {
        let child = self.tracer.next_id();
        let parent = self.tracer.root();
        let start = Instant::now();
        let out = eval();
        let took = start.elapsed();
        let span = self.tracer.record("oracle.accuracy", child, parent, start);
        self.tracer.sample("oracle.accuracy_span_ms", ms(took));
        if let Some(replay) = &self.replay {
            self.tracer.sample("nn.train_child_ms", ms(took));
            let start = Instant::now();
            // A child the trainer could not build cannot be replayed
            // either; its error already reached the search.
            if let Ok(times) = replay.replay(arch) {
                for (name, took) in times {
                    self.tracer.sample(name, ms(took));
                }
            }
            self.tracer.record("nn.replay", child, span, start);
        }
        out
    }
}

impl AccuracyEvaluator for TimedEvaluator {
    fn evaluate(&self, arch: &ChildArch, rng: &mut dyn RngCore) -> fnas::Result<f32> {
        self.timed(arch, || self.inner.evaluate(arch, rng))
    }

    fn evaluate_with_deadline(
        &self,
        arch: &ChildArch,
        rng: &mut dyn RngCore,
        deadline: Option<&Deadline>,
    ) -> fnas::Result<f32> {
        self.timed(arch, || {
            self.inner.evaluate_with_deadline(arch, rng, deadline)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.inner.fault_stats()
    }
}
