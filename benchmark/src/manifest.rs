//! The benchmark's definition: workloads and metrics. `BENCHMARK.json` at
//! the repository root is this table rendered by `--manifest`.

use crate::json::Json;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `(name, why)`: why each workload was chosen, what it stresses and
/// what it leaves out (`NOTES.md` has the long form).
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "paper-sweep",
        "Fig. 7 path: 36 surrogate searches x 60 trials, 2 workers, one fresh DiskStore, winners \
         deployed. Stresses controller, fpga, exec, store; no nn, wire or journal",
    ),
    (
        "trained-search",
        "FNAS searches whose children really train (TrainedEvaluator, 2 workers): nn and tensor \
         dominate, as in the paper's cost argument. No store, simulator or wire",
    ),
    (
        "fleet-serve",
        "fnas-serve daemon, 2 fleet workers at shipped defaults, 4 jobs over max_jobs 2: wire, \
         scheduler, admission, journal and round barriers; no nn, no in-process store",
    ),
];

/// `(name, unit, better, bound)` of the end-to-end metrics. The bounds are
/// wide because the CPU-bound workloads run on two shared vCPUs whose
/// single-thread speed was seen to swing by 1.7x within 40 s; see
/// `NOTES.md`.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("children_per_s", "children/s", "higher", 0.25),
    ("makespan_s", "s", "lower", 0.25),
    ("job_turnaround_s", "s", "lower", 0.25),
    ("client_call_ms.p50", "ms", "lower", 0.25),
    ("client_call_ms.p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("success_ratio", "ratio", "higher", 0.01),
];

/// `(name, unit, better)` of the per-layer metrics. A layer a workload
/// does not use reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 46] = [
    ("controller.sample_ms", "ms", "lower"),
    ("controller.update_ms", "ms", "lower"),
    ("fpga.design_builds", "count", "lower"),
    ("fpga.design_ms", "ms", "lower"),
    ("fpga.design_ms_per_build", "ms", "lower"),
    ("fpga.deploy_ms", "ms", "lower"),
    ("fpga.taskgraph_ms", "ms", "lower"),
    ("fpga.schedule_ms", "ms", "lower"),
    ("fpga.sim_ms", "ms", "lower"),
    ("search.prune_ratio", "ratio", "higher"),
    ("exec.latency_cache_hit_ratio", "ratio", "higher"),
    ("exec.accuracy_cache_hit_ratio", "ratio", "higher"),
    ("oracle.latency_ms", "ms", "lower"),
    ("oracle.accuracy_ms", "ms", "lower"),
    ("exec.busy_ratio", "ratio", "higher"),
    ("store.get_us.p50", "us", "lower"),
    ("store.get_us.p90", "us", "lower"),
    ("store.put_us.p50", "us", "lower"),
    ("store.put_us.p90", "us", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.writes", "count", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("nn.train_child_ms.p50", "ms", "lower"),
    ("nn.train_child_ms.p90", "ms", "lower"),
    ("nn.conv.fwd_ms", "ms", "lower"),
    ("nn.conv.bwd_ms", "ms", "lower"),
    ("nn.relu.fwd_ms", "ms", "lower"),
    ("nn.relu.bwd_ms", "ms", "lower"),
    ("nn.pool.fwd_ms", "ms", "lower"),
    ("nn.pool.bwd_ms", "ms", "lower"),
    ("nn.dense.fwd_ms", "ms", "lower"),
    ("nn.dense.bwd_ms", "ms", "lower"),
    ("nn.step_ms", "ms", "lower"),
    ("coord.compute_share", "ratio", "higher"),
    ("coord.journal_records", "count", "lower"),
    ("coord.journal_bytes", "bytes", "lower"),
    ("coord.leases_expired", "count", "lower"),
    ("coord.shards_redispatched", "count", "lower"),
    ("coord.duplicate_results", "count", "lower"),
    ("worker.shards_run", "count", "lower"),
    ("worker.retry_sleep_ms", "ms", "lower"),
    ("serve.submit_refusals", "count", "lower"),
    ("serve.submit_rpc_ms.p50", "ms", "lower"),
    ("serve.status_rpc_ms.p50", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
];

/// `BENCHMARK.json` as a value.
pub fn manifest() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(name, unit, better, bound)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", Json::str(*better)),
                            ("bound", Json::Num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", Json::str(*better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
