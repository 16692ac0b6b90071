//! End-to-end CHSP benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-spmv --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run starts in-process `chason serve` (or `chason route` over three
//! shards) on loopback with shipped defaults, drives two closed-loop
//! client connections through a seeded request program, checks every
//! reply against a reference computed before timing, and prints a
//! human-readable report on stderr and one JSON result line on stdout.
//!
//! * `--trace 0` reports the end-to-end metrics with tracing off.
//! * `--trace 1` runs the workload twice with the same seed, untraced and
//!   traced, then times isolated calls into each layer. It reports the
//!   per-layer metrics and writes the spans to
//!   `perfbench/out/<workload>.spans.jsonl`.
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod deploy;
mod layers;
mod oracle;
mod report;
mod traffic;
mod workload;

use deploy::{set_up, Ready};
use report::{json_line, median_f64, value, Metric};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::Instant;
use traffic::{run_connection, ConnRecord, Control, Sample, Tracer};
use workload::{generate, Inputs, Kind, Workload, CONNECTIONS};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// End-to-end metrics in the `--trace 0` result line: the ones every
/// workload has and whose run-to-run spread on a shared 2-CPU host stays
/// within their bounds.
const END_TO_END: [&str; 4] = ["throughput_rps", "spmv_p50_us", "setup_s", "peak_rss_mb"];

/// End-to-end metrics printed in every report but carried in the
/// `--trace 1` result line instead: `spmv_p99_us`, whose spread between
/// runs on a shared host (up to 0.46 of its median) is wider than any
/// allowed bound, and the metrics only some workloads have (`n/a`, written
/// as 0, on the others).
const UNGATED_END_TO_END: [&str; 7] = [
    "spmv_p99_us",
    "solve_p50_ms",
    "solve_p90_ms",
    "update_p50_us",
    "update_p99_us",
    "sim_gflops",
    "error_rate",
];

/// Metrics of the `--trace 1` result line besides `UNGATED_END_TO_END`.
const PER_LAYER: [&str; 34] = [
    "proto.spmv_codec_us",
    "proto.request_bytes",
    "serve.service_us",
    "serve.outside_us",
    "serve.queue_wait_p50_us",
    "serve.plan_hit_ratio",
    "serve.plans_spliced",
    "serve.replan_windows",
    "serve.batched_frac",
    "serve.busy_retries",
    "net.wakeups_per_frame",
    "net.read_pauses",
    "net.write_queue_hwm",
    "sim.replay_us",
    "sim.replay_gbps",
    "sim.inflation",
    "sim.plan_ms",
    "sim.replan_us",
    "sim.cycles_per_spmv",
    "sim.stall_slots",
    "sparse.csr_spmv_us",
    "sparse.gather_us",
    "solvers.cg_iterations",
    "solvers.cg_local_ms",
    "router.spmv_overhead_us",
    "router.per_iteration_us",
    "router.gather_p50_us",
    "router.shard_request_balance",
    "router.scatter_failures",
    "router.shard_retries",
    "trace.throughput_rps_untraced",
    "trace.throughput_rps_traced",
    "trace.overhead_frac",
    "reconcile.unattributed_frac",
];

/// One timed phase: every connection's record and the phase length.
#[derive(Debug)]
pub struct Phase {
    records: Vec<ConnRecord>,
    seconds: f64,
}

impl Phase {
    /// A counter summed over connections.
    pub fn sum(&self, f: impl Fn(&ConnRecord) -> u64) -> u64 {
        self.records.iter().map(f).sum()
    }

    /// A sample vector concatenated over connections.
    pub fn concat<'a>(&'a self, f: impl Fn(&'a ConnRecord) -> &'a Vec<u64>) -> Vec<u64> {
        self.records
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect()
    }

    /// Requests kept for the isolated layer calls.
    pub fn samples(&self) -> Vec<Sample> {
        self.records
            .iter()
            .flat_map(|r| r.samples.iter().cloned())
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.sum(|r| r.attempted)
    }

    fn failed(&self) -> u64 {
        self.sum(|r| r.failed)
    }

    /// Passed requests per second: the median over time slices.
    fn throughput(&self) -> f64 {
        let done: Vec<u64> = (0..Kind::COUNT)
            .flat_map(|k| self.concat(|r| &r.done_ns[k]))
            .collect();
        report::sliced_rate(&done, (self.seconds * 1e9) as u64)
    }

    /// Latencies of one kind, in completion order.
    fn latencies(&self, kind: Kind) -> Vec<u64> {
        let k = kind as usize;
        let mut timed: Vec<(u64, u64)> = self
            .records
            .iter()
            .flat_map(|r| {
                r.done_ns[k]
                    .iter()
                    .copied()
                    .zip(r.latency_ns[k].iter().copied())
            })
            .collect();
        timed.sort_unstable();
        timed.into_iter().map(|(_, latency)| latency).collect()
    }

    fn failures(&self) -> Vec<String> {
        self.records
            .iter()
            .flat_map(|r| r.failures.iter().cloned())
            .collect()
    }
}

/// Drives every connection of `inputs` against `ready` until the phase
/// has lasted `seconds` and collected its minimum samples.
fn timed_phase(inputs: &Inputs, ready: &Ready, seconds: u64, tracer: Option<&Tracer<'_>>) -> Phase {
    let workload = inputs.workload;
    let control = Control::new(seconds, workload.min_samples());
    let addr = ready.deployment.addr();
    let records: Vec<ConnRecord> = std::thread::scope(|scope| {
        let threads: Vec<_> = inputs
            .programs
            .iter()
            .zip(&ready.handles)
            .enumerate()
            .map(|(c, (program, handles))| {
                let control = &control;
                scope.spawn(move || {
                    run_connection(c, addr, program, handles, workload.depth(), control, tracer)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join().unwrap_or_else(|_| ConnRecord {
                    attempted: 1,
                    failed: 1,
                    failures: vec!["connection thread panicked".to_string()],
                    ..ConnRecord::default()
                })
            })
            .collect()
    });
    let end = records
        .iter()
        .filter_map(|r| r.finished)
        .max()
        .unwrap_or_else(Instant::now);
    Phase {
        seconds: end.duration_since(control.start).as_secs_f64(),
        records,
    }
}

/// The end-to-end metrics of a phase.
fn end_to_end(phase: &Phase, setup_s: Option<f64>, rss_mb: Option<f64>) -> Vec<Metric> {
    let (spmv, solve, update) = (
        phase.latencies(Kind::Spmv),
        phase.latencies(Kind::Solve),
        phase.latencies(Kind::Update),
    );
    let opt = |v: &[u64], m: Metric| {
        if v.is_empty() {
            Metric { samples: None, ..m }
        } else {
            m
        }
    };
    let flops = phase.sum(|r| r.sim_flops) as f64;
    let nanos = phase.sum(|r| r.sim_nanos) as f64;
    vec![
        Metric::new("throughput_rps", "req/s", Some(phase.throughput())).note(format!(
            "median of {} time slices; {} passed in {:.2} s",
            report::BLOCKS,
            phase.attempted() - phase.failed(),
            phase.seconds
        )),
        Metric::percentile("spmv_p50_us", "us", &spmv, 0.5),
        Metric::percentile("spmv_p99_us", "us", &spmv, 0.99),
        opt(
            &solve,
            Metric::percentile("solve_p50_ms", "ms", &solve, 0.5),
        ),
        opt(
            &solve,
            Metric::percentile("solve_p90_ms", "ms", &solve, 0.9),
        ),
        opt(
            &update,
            Metric::percentile("update_p50_us", "us", &update, 0.5),
        ),
        opt(
            &update,
            Metric::percentile("update_p99_us", "us", &update, 0.99),
        ),
        Metric::new(
            "sim_gflops",
            "GFLOP/s",
            (nanos > 0.0).then(|| flops / nanos),
        )
        .note("modeled 2*nnz/simulated_nanos over first-pass engine replies; unvalidated"),
        Metric::new(
            "error_rate",
            "fraction",
            Some(phase.failed() as f64 / phase.attempted().max(1) as f64),
        )
        .note(format!(
            "{} failed / {} attempted",
            phase.failed(),
            phase.attempted()
        )),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MiB", rss_mb),
    ]
}

/// Peak resident memory of this process, from the OS.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host CPUs, configured worker threads and connection count; a workload
/// whose server worker threads exceed the host's CPUs is oversubscribed,
/// and its figures are not scaling data.
fn host_stamp(workload: Workload) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let serve = chason_serve::ServeConfig::default().workers;
    let route = chason_router::RouterConfig::default().workers;
    let (threads, layout) = if workload.routed() {
        (
            route + workload::SHARDS * serve,
            format!(
                "router workers {route}, {} shards x {serve} workers",
                workload::SHARDS
            ),
        )
    } else {
        (serve, format!("server workers {serve}"))
    };
    let verdict = if threads > cpus {
        "OVERSUBSCRIBED: not scaling data"
    } else {
        "not oversubscribed"
    };
    format!(
        "host: {cpus} cpus; {layout}; {CONNECTIONS} client connections, depth {}; \
         {threads} server worker threads vs {cpus} cpus: {verdict}\n",
        workload.depth()
    )
}

fn setup_failed(e: String) -> String {
    format!("set-up failed: {e}")
}

fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let generated = Instant::now();
    let inputs = generate(workload, seed);
    eprintln!(
        "{}: inputs and references generated in {:.2} s (seed {seed})",
        workload.name(),
        generated.elapsed().as_secs_f64()
    );
    eprint!("{}", host_stamp(workload));
    if !trace {
        return run_untraced(&inputs, seconds);
    }
    run_traced(&inputs, seconds)
}

fn run_untraced(inputs: &Inputs, seconds: u64) -> Result<String, String> {
    // The first set-up serves the timed phase and the peak memory is read
    // right after it; the other set-ups only add timings to `setup_s`, so
    // their allocations cannot raise the reported high-water mark.
    let ready = set_up(inputs).map_err(setup_failed)?;
    let mut setups = vec![ready.seconds];
    let phase = timed_phase(inputs, &ready, seconds, None);
    let rss_mb = peak_rss_mb();
    ready.deployment.stop();
    for _ in 1..SETUP_REPS {
        let next = set_up(inputs).map_err(setup_failed)?;
        setups.push(next.seconds);
        next.deployment.stop();
    }
    let metrics = end_to_end(&phase, median_f64(&setups), rss_mb);
    eprint!("{}", report::table("end to end (tracing off)", &metrics));
    eprintln!("setup_s over {SETUP_REPS} set-ups: {setups:.3?}");
    report_failures(&phase);
    for name in END_TO_END {
        if value(&metrics, name).is_none() {
            return Err(format!(
                "{name} could not be measured; see the report above"
            ));
        }
    }
    Ok(json_line(
        phase.failed() == 0,
        phase.attempted(),
        phase.failed(),
        &END_TO_END,
        &metrics,
    ))
}

fn report_failures(phase: &Phase) {
    for failure in phase.failures() {
        eprintln!("FAILED: {failure}");
    }
}

fn run_traced(inputs: &Inputs, seconds: u64) -> Result<String, String> {
    let workload = inputs.workload;
    let ready = set_up(inputs).map_err(setup_failed)?;
    let untraced = timed_phase(inputs, &ready, seconds, None);
    ready.deployment.stop();
    let e2e = end_to_end(&untraced, None, None);

    let ready = set_up(inputs).map_err(setup_failed)?;
    let recorder =
        chason_telemetry::trace::FlightRecorder::new(4 * traffic::TRACED_REQUESTS as usize + 8192);
    let tracer = Tracer {
        recorder: &recorder,
        base: Instant::now(),
        recorded: AtomicU64::new(0),
    };
    let traced = timed_phase(inputs, &ready, seconds, Some(&tracer));
    let counters = deploy::counters(ready.deployment.addr());
    let layers = counters.and_then(|c| {
        layers::measure(inputs, &traced, &e2e, &c, &ready.deployment, &tracer).map(|l| (l, c))
    });
    ready.deployment.stop();
    let (layers, counters) = layers?;
    let traced_e2e = end_to_end(&traced, None, None);

    let mut metrics: Vec<Metric> = e2e
        .iter()
        .filter(|m| UNGATED_END_TO_END.contains(&m.name))
        .cloned()
        .collect();
    metrics.extend(layers.metrics);
    let (off, on) = (untraced.throughput(), traced.throughput());
    metrics.push(Metric::new(
        "trace.throughput_rps_untraced",
        "req/s",
        Some(off),
    ));
    metrics.push(Metric::new(
        "trace.throughput_rps_traced",
        "req/s",
        Some(on),
    ));
    metrics.push(
        Metric::new("trace.overhead_frac", "fraction", Some((off - on) / off))
            .note("(untraced - traced) / untraced throughput_rps"),
    );

    // Stage reconciliation against the traced phase's client median.
    let codec = report::median(&traced.concat(|r| &r.codec_ns)).map(|ns| ns as f64 / 1e3);
    let service = value(&metrics, "serve.service_us");
    let outside = value(&metrics, "serve.outside_us");
    let client = value(&traced_e2e, "spmv_p50_us");
    let mut reconcile = String::from("--- stage reconciliation (traced phase, Spmv p50s) ---\n");
    let unattributed = match (codec, service, outside, client) {
        (Some(codec), Some(service), Some(outside), Some(client)) => {
            let sum = codec + service + outside;
            reconcile.push_str(&format!(
                "client codec {codec:.1} + serve.service_us {service:.1} + serve.outside_us \
                 {outside:.1} = {sum:.1} us vs spmv_p50_us {client:.1} us; unattributed \
                 {:.1} us = {:.1}% of the client median\n",
                client - sum,
                100.0 * (client - sum) / client
            ));
            Some((client - sum) / client)
        }
        _ => None,
    };
    for name in ["sim.inflation", "router.spmv_overhead_us"] {
        if let Some(m) = report::find(&metrics, name) {
            reconcile.push_str(&format!(
                "{name}: {} [{}]\n",
                m.value
                    .map_or("n/a".into(), |v| format!("{v:.3} {}", m.unit)),
                m.note
            ));
        }
    }
    metrics.push(
        Metric::new("reconcile.unattributed_frac", "fraction", unattributed)
            .note("(spmv_p50_us - codec - service - outside) / spmv_p50_us, traced phase"),
    );

    let stats = &counters.stats;
    let requests = stats.requests_executed().max(1) as f64;
    let shares = format!(
        "--- property shares (traced phase, server counters) ---\n\
         plan-hit ratio {}, update share {:.3}, batched share {}, routed share {}\n",
        value(&metrics, "serve.plan_hit_ratio").map_or("n/a".into(), |v| format!("{v:.4}")),
        stats.requests_update as f64 / requests,
        value(&metrics, "serve.batched_frac").map_or("n/a".into(), |v| format!("{v:.3}")),
        if workload.routed() { "1.0" } else { "0.0" },
    );

    let spans_path = write_spans(workload, &recorder);
    eprint!("{}", report::table("end to end (tracing off)", &e2e));
    eprint!(
        "{}",
        report::table("end to end (traced phase)", &traced_e2e)
    );
    eprint!("{}", report::table("per layer (traced run)", &metrics));
    eprint!("{reconcile}{shares}");
    eprintln!("tracing overhead: throughput_rps untraced {off:.1}, traced {on:.1}");
    match spans_path {
        Ok(path) => eprintln!("spans: {} spans written to {path}", recorder.len()),
        Err(e) => eprintln!("spans: not written: {e}"),
    }
    report_failures(&untraced);
    report_failures(&traced);
    if layers.wrong > 0 {
        eprintln!(
            "FAILED: {} of {} isolated results were wrong",
            layers.wrong, layers.checked
        );
    }
    let attempted = untraced.attempted() + traced.attempted() + layers.checked;
    let failed = untraced.failed() + traced.failed() + layers.wrong;
    let names: Vec<&str> = UNGATED_END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .copied()
        .collect();
    Ok(json_line(failed == 0, attempted, failed, &names, &metrics))
}

/// Writes the span file under this package's `out/` directory.
fn write_spans(
    workload: Workload,
    recorder: &chason_telemetry::trace::FlightRecorder,
) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.spans.jsonl", workload.name()));
    std::fs::write(&path, recorder.export_jsonl())?;
    Ok(path.display().to_string())
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<(Workload, u64, u64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or_else(usage)?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}; {}", usage()))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| usage())?,
            "--seconds" => seconds = value.parse().map_err(|_| usage())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                }
            }
            _ => return Err(usage()),
        }
        i += 2;
    }
    Ok((workload.ok_or_else(usage)?, seed, seconds.max(1), trace))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(workload, seed, seconds, trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of `BENCHMARK.json`, in file order.
    fn benchmark_names() -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        text.split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next().map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let expected: Vec<String> = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END)
            .chain(UNGATED_END_TO_END)
            .chain(PER_LAYER)
            .map(str::to_string)
            .collect();
        assert_eq!(benchmark_names(), expected);
    }
}
