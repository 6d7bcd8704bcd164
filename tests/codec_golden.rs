//! Golden bytes for every binary format whose layout is otherwise only
//! round-trip tested.
//!
//! A round-trip test passes for any *symmetric* layout change — swap two
//! fields in both the encoder and the decoder and every existing journal,
//! store directory and in-flight frame is orphaned while CI stays green.
//! These pins commit the exact bytes (or hash values) of one canonical
//! instance per format, so any drift in the wire or disk layout fails
//! here first.

use std::time::Duration;

use fnas::checkpoint::SearchCheckpoint;
use fnas::experiment::ExperimentPreset;
use fnas::persist::encode_report;
use fnas::search::{SearchConfig, TelemetrySnapshot};
use fnas_controller::reinforce::TrainerState;
use fnas_coord::framing::write_frame;
use fnas_coord::journal::{encode_record, encode_spill, WalRecord};
use fnas_coord::proto::{config_fingerprint, Request, Response};
use fnas_fpga::analyzer::AnalyzerReport;
use fnas_fpga::sched::ReuseStrategy;
use fnas_fpga::{Cycles, Millis};
use fnas_serve::JobProgress;
use fnas_store::{Backend, CacheKey};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn config_fingerprint_is_pinned() {
    let config = SearchConfig::fnas(ExperimentPreset::mnist(), 10.0).with_seed(7);
    assert_eq!(config_fingerprint(&config, 4, 2, 3), 0xf421_c818_5c6c_7fa2);
}

#[test]
fn wal_records_of_every_kind_are_pinned() {
    let records = [
        WalRecord::EpochStarted {
            epoch: 1,
            fingerprint: 0x0102_0304_0506_0708,
            job: 0x1112_1314_1516_1718,
        },
        WalRecord::RoundStarted { epoch: 2, round: 3 },
        WalRecord::ShardSettled {
            epoch: 4,
            round: 5,
            shard: 6,
            len: 7,
            checksum: 0x2122_2324_2526_2728,
        },
        WalRecord::RoundMerged {
            epoch: 8,
            round: 9,
            checksum: 0x3132_3334_3536_3738,
        },
        WalRecord::Finished { epoch: 10 },
    ];
    let expected = [
        "464e415357414c310101000000000000000000000000000000000000001000000008070605040302011817161514131211f4f59b7a9188039c",
        "464e415357414c31020200000000000000030000000000000000000000000000000df6f7637c5214d6",
        "464e415357414c31030400000000000000050000000000000006000000100000000700000000000000282726252423222157dada44af042a7f",
        "464e415357414c3104080000000000000009000000000000000000000008000000383736353433323177bd08001e06cf9f",
        "464e415357414c31050a00000000000000000000000000000000000000000000007378c4b0e32c06d7",
    ];
    for (record, want) in records.iter().zip(expected) {
        assert_eq!(hex(&encode_record(record)), want, "{record:?}");
    }
}

#[test]
fn spill_file_is_pinned() {
    assert_eq!(
        hex(&encode_spill(3, 1, b"shard bytes")),
        "464e415357414c31060300000000000000010000000b00000073686172642062797465737c7c1a28243ea5e7"
    );
}

#[test]
fn store_record_is_pinned() {
    let key = CacheKey::new(
        0x0011_2233_4455_6677_8899_aabb_ccdd_eeff,
        0xfedc_ba98_7654_3210_0123_4567_89ab_cdef,
        0x0bad_cafe_dead_beef,
        Backend::Simulated,
    );
    assert_eq!(hex(&fnas_store::record::encode_record(&key, b"payload")),
        "464e4153544f5231ffeeddccbbaa99887766554433221100efcdab89674523011032547698badcfeefbeaddefecaad0b020200070000007061796c6f616454b3ccd9c91e9edc"
    );
}

#[test]
fn progress_snapshot_is_pinned() {
    let progress = JobProgress {
        job: 0xDEAD_BEEF_C0FF_EE00,
        round: 1,
        rounds: 2,
        shards: 3,
        rounds_merged: 1,
        finished: true,
        trials_done: 24,
        best_reward_bits: 1.25f32.to_bits(),
        best_arch: "5x5:18".to_string(),
        leases_expired: 4,
        shards_redispatched: 5,
        duplicate_results: 6,
        retries_served: 7,
        retry_sleep_ms: 150,
    };
    assert_eq!(
        hex(&progress.encode()),
        "464e50523100eeffc0efbeadde010000000000000002000000000000000100000000000000180000000000000004000000000000000500000000000000060000000000000007000000000000009600000000000000030000000000a03f01060000003578353a3138"
    );
}

/// An `FNASCKPT` snapshot whose every telemetry field is distinct and
/// non-zero: the eleven checkpointed counters (1–10 and 20) must appear in
/// their format order, and none of the process-local ones (11–19, 21–40)
/// may reach the bytes. Round trips cannot catch a symmetric reorder of
/// counters that happen to share a value; this pin can.
#[test]
fn checkpoint_telemetry_section_is_pinned() {
    let ckpt = SearchCheckpoint {
        shard_index: 0,
        shard_count: 1,
        parent_seed: 7,
        round: 0,
        job: Default::default(),
        run_seed: 7,
        next_episode: 3,
        rng_state: [1, 2, 3, 4],
        baseline: None,
        cost: Default::default(),
        trainer: TrainerState {
            params: vec![],
            optimizer: Default::default(),
            updates: 0,
        },
        telemetry: TelemetrySnapshot {
            children_sampled: 1,
            children_pruned: 2,
            children_trained: 3,
            children_unbuildable: 4,
            children_failed: 5,
            episodes: 6,
            panics_caught: 7,
            retries: 8,
            quarantined: 9,
            checkpoints_written: 10,
            leases_expired: 11,
            shards_redispatched: 12,
            duplicate_results: 13,
            journal_records: 14,
            rounds_recovered: 15,
            stale_submissions_rejected: 16,
            retries_served: 17,
            retry_sleep_ms: 18,
            analyzer_calls: 19,
            train_calls: 20,
            latency_cache_hits: 21,
            latency_cache_misses: 22,
            accuracy_cache_hits: 23,
            accuracy_cache_misses: 24,
            store_hits: 25,
            store_misses: 26,
            store_writes: 27,
            store_evictions: 28,
            store_bytes: 29,
            pass_design_ns: 30,
            pass_graph_ns: 31,
            pass_partition_ns: 32,
            pass_schedule_ns: 33,
            pass_sim_ns: 34,
            partitions_built: 35,
            cross_partition_events: 36,
            sample_time: Duration::from_nanos(37),
            latency_time: Duration::from_nanos(38),
            accuracy_time: Duration::from_nanos(39),
            update_time: Duration::from_nanos(40),
        },
        trials: vec![],
    };
    assert_eq!(
        hex(&ckpt.to_bytes()),
        concat!(
            "464e4153434b5054040000000000000001000000070000000000000000000000000000001a0000000000000001000000050000006d6e6973740001000000000000244000000007000000000000000300000000000000010000000000000002000000000000000300000000000000040000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
            // Telemetry: counters 1-10, then 20 (train calls).
            "0100000000000000020000000000000003000000000000000400000000000000",
            "0500000000000000060000000000000007000000000000000800000000000000",
            "09000000000000000a000000000000001400000000000000",
            "0000000000000000",
        )
    );
}

#[test]
fn analyzer_report_payload_is_pinned() {
    let report = AnalyzerReport {
        latency_cycles: Cycles::new(1234),
        latency: Millis::new(0.0625),
        eq5_cycles: Cycles::new(1200),
        et: vec![Cycles::new(1), Cycles::new(2)],
        processing: vec![Cycles::new(3)],
        start_deltas: vec![],
        reuse: vec![ReuseStrategy::OfmReuse, ReuseStrategy::IfmReuse],
    };
    assert_eq!(hex(&encode_report(&report)),
        "d204000000000000000000000000b03fb00400000000000002000000000000000100000000000000020000000000000001000000000000000300000000000000000000000000000002000000000000000102"
    );
}

#[test]
fn fnc1_request_and_response_frames_are_pinned() {
    let request = Request::Submit {
        worker: "w1".to_string(),
        round: 2,
        shard: 1,
        epoch: 3,
        job: 0x149b_8df2_5625_52c6,
        fingerprint: 0x0102_0304_0506_0708,
        bytes: vec![0xAA, 0xBB, 0xCC],
    };
    let response = Response::Assign {
        round: 2,
        shard: 1,
        shard_count: 4,
        lease_ms: 5000,
        epoch: 3,
        job: 0x149b_8df2_5625_52c6,
        spec: vec![1, 2],
        batch: 8,
        rounds: 6,
        init: vec![0xEE],
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &request.to_bytes()).unwrap();
    assert_eq!(
        hex(&frame),
        "464e433132000000030200000077310200000000000000010000000300000000000000c6522556f28d9b14080706050403020103000000aabbcc"
    );
    let mut frame = Vec::new();
    write_frame(&mut frame, &response.to_bytes()).unwrap();
    assert_eq!(
        hex(&frame),
        "464e4331400000000a0200000000000000010000000400000088130000000000000300000000000000c6522556f28d9b1402000000010208000000060000000000000001000000ee"
    );
}

/// The hash constructions behind seeds, fingerprints, checksums and
/// content addresses, pinned at fixed inputs.
#[test]
fn hash_and_seed_values_are_pinned() {
    use fnas_exec::{derive_child_seed, derive_round_seed, derive_shard_seed};
    let got = [
        derive_child_seed(0xF0A5, 3, 17),
        derive_shard_seed(0xF0A5, 3),
        derive_round_seed(0xF0A5, 3),
        fnas_fpga::passes::canonical_pipeline_fingerprint(),
        fnas_coord::journal::checksum(b"FNAS"),
    ];
    assert_eq!(
        got,
        [
            0xa283_c630_8f26_68dc,
            0x9f36_3b36_acca_6d05,
            0x7835_5a84_4e90_bfae,
            0xd2d6_debb_e3b6_95a5,
            0x25bd_3785_afb7_aa3d,
        ]
    );
    assert_eq!(
        fnas_store::digest128(b"FNAS"),
        0xedee_1425_8506_48fc_1a70_b702_bbbb_a85b
    );
}
