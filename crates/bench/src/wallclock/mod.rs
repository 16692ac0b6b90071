//! Wall-clock benchmark harness with `BENCH_<name>.json` regression
//! tracking (DESIGN.md §11).
//!
//! The harness measures four hot paths — threaded SpMV kernels, engine
//! planning, plan replay, and CHSP codec round-trips — and emits a
//! machine-readable report a committed baseline is compared against. The
//! interactive criterion-shim benches under `benches/` remain for quick
//! local exploration; this module is the reproducible, file-backed path
//! CI gates on (`chason bench` / `cargo xtask bench`).

pub mod compare;
pub mod registry;
pub mod report;
pub mod runner;

use report::{BenchReport, HostInfo, SCHEMA_VERSION};
use runner::Profile;

/// Runs every registered benchmark matching `filter` under `profile` and
/// assembles the report named `name`.
pub fn run_report(name: &str, profile: &Profile, filter: Option<&str>) -> BenchReport {
    BenchReport {
        schema_version: SCHEMA_VERSION,
        name: name.to_string(),
        profile: profile.name.to_string(),
        host: HostInfo::current(),
        results: registry::run_all(profile, filter),
    }
}

/// Renders a report as an aligned human-readable table (the CLI prints
/// this next to the JSON file).
pub fn render_table(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "profile {} on {}/{} ({} cpus)\n",
        report.profile, report.host.os, report.host.arch, report.host.cpus
    ));
    out.push_str(&format!(
        "{:<22} {:>14} {:>12} {:>10} {:>9}\n",
        "benchmark", "median ns/iter", "mad ns", "GB/s", "iters"
    ));
    for r in &report.results {
        let gbps = r
            .throughput_gbps()
            .map_or("-".to_string(), |g| format!("{g:.3}"));
        out.push_str(&format!(
            "{:<22} {:>14.1} {:>12.1} {:>10} {:>9}\n",
            r.id,
            r.median_ns_per_iter,
            r.mad_ns_per_iter,
            gbps,
            r.samples * r.iters_per_sample
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::BenchResult;

    #[test]
    fn report_renders_every_result_row() {
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            name: "t".to_string(),
            profile: "smoke".to_string(),
            host: HostInfo::current(),
            results: vec![BenchResult {
                id: "spmv/static-t1".to_string(),
                fingerprint: 1,
                warmup_iters: 1,
                samples: 2,
                iters_per_sample: 3,
                median_ns_per_iter: 1500.0,
                mad_ns_per_iter: 10.0,
                bytes_per_iter: 3000,
                plan_bytes: 0,
                stream_bytes: 0,
            }],
        };
        let table = render_table(&report);
        assert!(table.contains("spmv/static-t1"), "{table}");
        assert!(table.contains("2.000"), "GB/s column: {table}");
    }
}
