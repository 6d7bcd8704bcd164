//! Totality of every binary decoder: any byte string decodes to a value
//! or an error, never a panic.
//!
//! Each decoder is fed arbitrary bytes, arbitrary tails spliced onto
//! valid prefixes (so inputs get past the magics and length words), and
//! every truncation and every single-bit flip of one valid encoding of
//! every format. Every decoder sees every input — a WAL record is also
//! thrown at the checkpoint reader — so cross-format confusion is
//! covered too.

use std::io::Cursor;

use fnas::checkpoint::SearchCheckpoint;
use fnas::cost::SearchCost;
use fnas::job::{JobSpec, OracleBackend};
use fnas::persist::{decode_millis, decode_report, encode_millis, encode_report};
use fnas::search::{TelemetrySnapshot, TrialRecord};
use fnas_controller::arch::{ChildArch, LayerChoice};
use fnas_controller::reinforce::TrainerState;
use fnas_coord::framing::{read_frame, write_frame};
use fnas_coord::journal::{
    decode_journal, decode_record, decode_spill, encode_record, encode_spill,
};
use fnas_coord::proto::{Request, Response};
use fnas_coord::WalRecord;
use fnas_fpga::analyzer::AnalyzerReport;
use fnas_fpga::sched::ReuseStrategy;
use fnas_fpga::{Cycles, Millis};
use fnas_nn::optim::AdamState;
use fnas_serve::JobProgress;
use fnas_store::{Backend, CacheKey};
use proptest::prelude::*;

/// Runs every decoder over `bytes`; a panic fails the calling test.
fn decode_all(bytes: &[u8]) {
    let _ = SearchCheckpoint::from_bytes(bytes);
    let _ = JobSpec::decode(bytes);
    let _ = decode_report(bytes);
    let _ = decode_millis(bytes);
    let _ = Request::from_bytes(bytes);
    let _ = Response::from_bytes(bytes);
    let _ = read_frame(&mut Cursor::new(bytes));
    let _ = decode_record(bytes);
    let _ = decode_journal(bytes);
    let _ = decode_spill(bytes, 3, 1);
    let _ = fnas_store::decode_any_record(bytes);
    let _ = fnas_store::decode_record(bytes, &key());
    let _ = CacheKey::decode(bytes);
    let _ = JobProgress::decode(bytes);
}

fn key() -> CacheKey {
    CacheKey::new(1, 2, 3, Backend::Analytic)
}

fn job() -> JobSpec {
    JobSpec::new("cifar-10")
        .with_device(Some("zu9eg".to_string()))
        .with_required_ms(Some(2.5))
        .with_trials(Some(24))
        .with_seed(Some(77))
        .with_backend(OracleBackend::Simulated)
}

fn checkpoint() -> SearchCheckpoint {
    let arch = ChildArch::new(vec![LayerChoice {
        filter_size: 5,
        num_filters: 18,
    }])
    .unwrap();
    SearchCheckpoint {
        shard_index: 1,
        shard_count: 2,
        parent_seed: 0xF0A5,
        round: 1,
        job: job(),
        run_seed: 9,
        next_episode: 2,
        rng_state: [1, 2, 3, 4],
        baseline: Some(0.5),
        cost: SearchCost {
            training_seconds: 1.5,
            analyzer_seconds: 0.25,
        },
        trainer: TrainerState {
            params: vec![0.1, -0.2],
            optimizer: AdamState {
                t: 3,
                moments: vec![None, Some((vec![0.5], vec![0.25]))],
            },
            updates: 3,
        },
        telemetry: TelemetrySnapshot {
            children_sampled: 4,
            ..TelemetrySnapshot::default()
        },
        trials: vec![
            TrialRecord {
                index: 0,
                arch: arch.clone(),
                latency: Some(Millis::new(4.25)),
                accuracy: Some(0.99),
                reward: 1.0,
                trained: true,
            },
            TrialRecord {
                index: 1,
                arch,
                latency: None,
                accuracy: None,
                reward: -2.0,
                trained: false,
            },
        ],
    }
}

/// One valid encoding of every format.
fn valid_encodings() -> Vec<Vec<u8>> {
    let report = AnalyzerReport {
        latency_cycles: Cycles::new(1234),
        latency: Millis::new(0.0625),
        eq5_cycles: Cycles::new(1200),
        et: vec![Cycles::new(1), Cycles::new(2)],
        processing: vec![Cycles::new(3)],
        start_deltas: vec![Cycles::new(4)],
        reuse: vec![ReuseStrategy::OfmReuse, ReuseStrategy::IfmReuse],
    };
    let request = Request::Submit {
        worker: "w1".to_string(),
        round: 2,
        shard: 1,
        epoch: 3,
        job: 4,
        fingerprint: 5,
        bytes: vec![0xAA, 0xBB],
    }
    .to_bytes();
    let mut frame = Vec::new();
    write_frame(&mut frame, &request).unwrap();
    let journal: Vec<u8> = [
        WalRecord::EpochStarted {
            epoch: 0,
            fingerprint: 1,
            job: 2,
        },
        WalRecord::RoundStarted { epoch: 0, round: 3 },
        WalRecord::ShardSettled {
            epoch: 0,
            round: 3,
            shard: 1,
            len: 5,
            checksum: 6,
        },
        WalRecord::RoundMerged {
            epoch: 0,
            round: 3,
            checksum: 7,
        },
        WalRecord::Finished { epoch: 0 },
    ]
    .iter()
    .flat_map(encode_record)
    .collect();
    let progress = JobProgress {
        job: 1,
        rounds: 2,
        shards: 3,
        finished: true,
        best_arch: "5x5:18".to_string(),
        ..JobProgress::default()
    };
    vec![
        checkpoint().to_bytes(),
        job().encode(),
        encode_report(&report),
        encode_millis(Millis::new(1.5)),
        request,
        Response::Assign {
            round: 2,
            shard: 1,
            shard_count: 4,
            lease_ms: 5000,
            epoch: 3,
            job: 4,
            spec: job().encode(),
            batch: 8,
            rounds: 6,
            init: vec![0xEE],
        }
        .to_bytes(),
        Response::Jobs {
            jobs: vec![(1, 0), (2, 1)],
        }
        .to_bytes(),
        frame,
        journal,
        encode_spill(3, 1, b"shard bytes"),
        fnas_store::encode_record(&key(), b"payload"),
        key().encode().to_vec(),
        progress.encode(),
    ]
}

#[test]
fn valid_encodings_decode() {
    let e = valid_encodings();
    assert_eq!(SearchCheckpoint::from_bytes(&e[0]).unwrap(), checkpoint());
    assert_eq!(JobSpec::decode(&e[1]), Some(job()));
    assert!(decode_report(&e[2]).is_some());
    assert!(decode_millis(&e[3]).is_some());
    assert!(Request::from_bytes(&e[4]).is_ok());
    assert!(Response::from_bytes(&e[5]).is_ok());
    assert!(Response::from_bytes(&e[6]).is_ok());
    assert_eq!(read_frame(&mut Cursor::new(&e[7])).unwrap(), e[4]);
    let (records, clean) = decode_journal(&e[8]);
    assert_eq!((records.len(), clean), (5, e[8].len()));
    assert_eq!(
        decode_spill(&e[9], 3, 1).as_deref(),
        Some(&b"shard bytes"[..])
    );
    assert!(fnas_store::decode_record(&e[10], &key()).is_some());
    assert_eq!(CacheKey::decode(&e[11]), Some(key()));
    assert!(JobProgress::decode(&e[12]).is_some());
}

#[test]
fn every_truncation_and_bit_flip_decodes_totally() {
    for valid in valid_encodings() {
        for cut in 0..=valid.len() {
            decode_all(&valid[..cut]);
        }
        let mut flipped = valid.clone();
        for bit in 0..valid.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            decode_all(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_arbitrary_bytes_decode_totally(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        decode_all(&bytes);
    }

    #[test]
    fn prop_valid_prefixes_with_arbitrary_tails_decode_totally(
        which in 0usize..13,
        keep in 0usize..4096,
        tail in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let valid = &valid_encodings()[which];
        let mut bytes = valid[..keep.min(valid.len())].to_vec();
        bytes.extend_from_slice(&tail);
        decode_all(&bytes);
    }
}
