//! Property test for the `BENCH_*.json` schema (serialize → parse →
//! compare) and a harness smoke test: every registered benchmark must
//! produce a finite, nonzero ns/iter on the tiny corpus.

use chason_bench::wallclock::compare::compare;
use chason_bench::wallclock::report::{BenchReport, BenchResult, HostInfo, SCHEMA_VERSION};
use chason_bench::wallclock::runner::Profile;
use chason_bench::wallclock::{registry, run_report};
use proptest::collection::vec;
use proptest::prelude::*;

/// Builds a name from index bytes over a charset that exercises JSON
/// escaping (quotes, backslashes, control chars, non-ASCII).
fn name_from(indices: &[u8]) -> String {
    const CHARSET: [char; 16] = [
        'a', 'b', 'c', 'z', '0', '9', '/', '-', '_', '.', '"', '\\', '\n', '\t', 'π', '✓',
    ];
    indices
        .iter()
        .map(|&i| CHARSET[i as usize % CHARSET.len()])
        .collect()
}

/// Maps arbitrary u64 pairs to a finite, non-negative f64 with a
/// fractional part, so shortest round-trip formatting is exercised on
/// non-integral values.
fn finite_f64(int_part: u64, frac_part: u64) -> f64 {
    (int_part % (1 << 50)) as f64 + (frac_part % 1000) as f64 / 7.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bench_report_json_round_trips(
        name_idx in vec(any::<u8>(), 1..12),
        profile_idx in vec(any::<u8>(), 1..8),
        os_idx in vec(any::<u8>(), 1..8),
        cpus in any::<u64>(),
        rows in vec(
            (
                vec(any::<u8>(), 1..20),                   // id
                any::<u64>(),                              // fingerprint
                (1u64..1000, 1u64..1000, 1u64..100_000),   // warmup/samples/iters
                (any::<u64>(), any::<u64>()),              // median parts
                (any::<u64>(), any::<u64>()),              // mad parts
                (any::<u64>(), 0u64..3, any::<u64>()),     // bytes, plan footprint
            ),
            0..10,
        ),
    ) {
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            name: name_from(&name_idx),
            profile: name_from(&profile_idx),
            host: HostInfo {
                os: name_from(&os_idx),
                arch: "x86_64".to_string(),
                cpus,
            },
            results: rows
                .iter()
                .map(|(id, fp, counts, med, mad, bytes)| BenchResult {
                    id: name_from(id),
                    fingerprint: *fp,
                    warmup_iters: counts.0,
                    samples: counts.1,
                    iters_per_sample: counts.2,
                    median_ns_per_iter: finite_f64(med.0, med.1),
                    mad_ns_per_iter: finite_f64(mad.0, mad.1),
                    bytes_per_iter: bytes.0,
                    plan_bytes: bytes.1,
                    stream_bytes: bytes.2,
                })
                .collect(),
        };
        let json = report.to_json();
        let parsed = BenchReport::parse(&json).expect("round trip parses");
        prop_assert_eq!(parsed, report);
    }
}

/// A tiny profile so the debug-build smoke test finishes quickly: the
/// registry falls back to the small (non-`full`) corpus for any profile
/// not named `full`.
fn tiny_profile() -> Profile {
    Profile {
        name: "tiny",
        warmup_iters: 1,
        samples: 2,
        target_sample_nanos: 1,
        max_iters_per_sample: 1,
    }
}

#[test]
fn every_registered_benchmark_produces_finite_nonzero_time() {
    let profile = tiny_profile();
    let report = run_report("tiny", &profile, None);
    let expected = registry::benchmarks(&profile, None).len();
    assert_eq!(report.results.len(), expected);
    assert!(expected >= 10, "registry unexpectedly small: {expected}");
    for r in &report.results {
        assert!(
            r.median_ns_per_iter.is_finite() && r.median_ns_per_iter > 0.0,
            "{}: median {}",
            r.id,
            r.median_ns_per_iter
        );
        assert!(r.mad_ns_per_iter.is_finite(), "{}", r.id);
        assert!(r.samples > 0 && r.iters_per_sample > 0, "{}", r.id);
        assert_ne!(r.fingerprint, 0, "{}", r.id);
    }
    // And the emitted file parses back to the same report.
    let parsed = BenchReport::parse(&report.to_json()).expect("self round trip");
    assert_eq!(parsed, report);
}

#[test]
fn injected_2x_slowdown_is_always_detected() {
    let profile = tiny_profile();
    let baseline = run_report("gate", &profile, Some("chsp"));
    let mut slowed = baseline.clone();
    for r in &mut slowed.results {
        r.median_ns_per_iter *= 2.0;
        r.mad_ns_per_iter *= 2.0;
    }
    let cmp = compare(&baseline, &slowed, 0.2);
    assert!(cmp.is_failure());
    assert_eq!(cmp.regressions().count(), baseline.results.len());
    // The unmodified run passes against itself.
    assert!(!compare(&baseline, &baseline, 0.2).is_failure());
}
