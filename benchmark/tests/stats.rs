//! The benchmark's own arithmetic: summary statistics, the JSON writer
//! and reader, and agreement between the code's metric table and the
//! committed `BENCHMARK.json`.

use fnas_benchmark::json::Json;
use fnas_benchmark::manifest::manifest;
use fnas_benchmark::stats::{
    median, percentile, quartiles, samples_beyond, top_percentile, Summary,
};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[7.5]), Some(7.5));
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[1.0, f64::NAN]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values are `statistics.quantiles(data, n=4)` in Python 3.11.
    let cases: [(&[f64], [f64; 3]); 5] = [
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[0.5, 2.5, 1.5, 9.0, 3.25, 7.75, 4.0], [1.5, 3.25, 7.75]),
    ];
    for (data, want) in cases {
        assert_eq!(quartiles(data), Some(want), "data {data:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 90.0), Some(90.0));
    assert_eq!(percentile(&v, 99.0), Some(99.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    assert_eq!(percentile(&v, 0.5), Some(1.0));
    assert_eq!(percentile(&v, 0.0), None);
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn top_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(top_percentile(19), None);
    assert_eq!(top_percentile(20), Some(50.0));
    assert_eq!(top_percentile(99), Some(50.0));
    assert_eq!(top_percentile(100), Some(90.0));
    assert_eq!(top_percentile(999), Some(90.0));
    assert_eq!(top_percentile(1_000), Some(99.0));
    assert_eq!(top_percentile(10_000), Some(99.9));
    for n in [20, 100, 1_000, 10_000, 12_345] {
        let p = top_percentile(n).expect("enough samples");
        assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
    }
}

#[test]
fn summary_counts_samples() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = Summary::of(&v);
    assert_eq!(s.count, 100);
    assert_eq!(s.median, 50.5);
    assert_eq!(s.top, Some((90.0, 90.0)));
    assert_eq!(s.to_string(), "p50 50.5000, p90 90.0000 (n=100)");
    let few = Summary::of(&[2.0, 4.0]);
    assert_eq!((few.count, few.median, few.top), (2, 3.0, None));
    assert_eq!(few.to_string(), "p50 3.0000 (n=2)");
}

#[test]
fn json_round_trips() {
    let value = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(1000.0)),
        ("nothing", Json::Null),
        ("fraction", Json::Num(1_234.567_890_123)),
        ("tiny", Json::Num(1.5e-9)),
        ("neg", Json::Num(-0.25)),
        (
            "text",
            Json::str("quote \" slash \\ tab \t line \n ctl \u{1} µs"),
        ),
        (
            "list",
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![]),
                Json::obj::<&str>([]),
            ]),
        ),
    ]);
    for text in [value.encode(), value.pretty()] {
        assert_eq!(Json::parse(&text), Ok(value.clone()), "text {text}");
    }
    assert_eq!(Json::Num(f64::NAN).encode(), "null");
}

#[test]
fn json_reader_rejects_malformed_input() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "tru",
        "\"open",
        "1 2",
        "{\"a\":1,}",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
    }
    let deep = "[".repeat(100) + &"]".repeat(100);
    assert!(Json::parse(&deep).is_err());
}

#[test]
fn committed_benchmark_json_matches_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        Json::parse(&text),
        Ok(manifest()),
        "regenerate it with `--manifest`"
    );
}
