//! The per-layer breakdown of the traced run.
//!
//! Server counters come from the public `Stats` / `Metrics` requests.
//! Everything else is an *isolated* call: the benchmark calls a layer's
//! public function itself, on inputs taken from requests it sampled in
//! the traced phase, with the deployment otherwise idle. Each isolated
//! call is recorded as a span parented to the request whose inputs it
//! replays.

use crate::deploy::{Counters, Deployment};
use crate::oracle::{check, Verdict};
use crate::report::{median, value, Metric};
use crate::traffic::{Sample, Tracer};
use crate::workload::{served_chason, Inputs, Kind, PlannedOp, SHARDS};
use crate::Phase;
use chason::solvers::{conjugate_gradient, CgOptions, CpuBackend};
use chason_core::plan::{matrix_fingerprint, SpmvPlan};
use chason_serve::client::Client;
use chason_serve::loadgen::parse_router_metrics;
use chason_serve::proto::{decode_reply, decode_request, encode_reply, encode_request, Engine};
use chason_sparse::{CooMatrix, CsrMatrix, MatrixDelta, ShardSpec};
use chason_telemetry::trace::SpanEvent;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each isolated call; the median is kept.
const REPS: usize = 5;

/// Per-layer metrics, plus the isolated calls whose results were checked.
#[derive(Debug)]
pub struct Layers {
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Isolated results checked against the references.
    pub checked: u64,
    /// Of those, how many were wrong.
    pub wrong: u64,
}

struct Iso<'a, 'b> {
    tracer: &'a Tracer<'b>,
}

impl Iso<'_, '_> {
    /// Runs `f` `reps` times, recording a span per call parented to
    /// `parent`; returns the median nanoseconds and the last output.
    fn time<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (u64, T) {
        let mut times = Vec::with_capacity(reps);
        let mut out = None;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let v = black_box(f());
            let end = Instant::now();
            self.span(name, parent, start, end);
            times.push(end.duration_since(start).as_nanos() as u64);
            out = Some(v);
        }
        #[allow(clippy::expect_used)] // at least one repetition ran
        (median(&times).unwrap_or(0), out.expect("ran at least once"))
    }

    fn span(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) {
        let mut span =
            SpanEvent::new(name, self.tracer.ns(start), self.tracer.ns(end)).attr("isolated", 1u64);
        if let Some(parent) = parent {
            span = span.attr("trace_id", parent).attr("parent_id", parent);
        }
        self.tracer.recorder.record(span);
    }
}

fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn scaled(op: &PlannedOp, scale: f32) -> Vec<f32> {
    op.vector.iter().map(|&v| v * scale).collect()
}

/// Bytes a CSR SpMV moves: values and column indices, `x` and `y`.
fn spmv_bytes(matrix: &CooMatrix) -> u64 {
    (matrix.nnz() * 8 + matrix.cols() * 4 + matrix.rows() * 4) as u64
}

/// Measures every per-layer metric of `workload` after its traced phase.
///
/// # Errors
///
/// A failed plan, replay or client call, rendered.
pub fn measure(
    inputs: &Inputs,
    traced: &Phase,
    untraced_e2e: &[Metric],
    counters: &Counters,
    deployment: &Deployment,
    tracer: &Tracer<'_>,
) -> Result<Layers, String> {
    let iso = Iso { tracer };
    let workload = inputs.workload;
    let samples = traced.samples();
    let op_of = |s: &Sample| &inputs.programs[s.conn].ops[s.op];
    let of_kind = |kind: Kind| samples.iter().filter(move |s| op_of(s).kind == kind);
    let mut checked = 0u64;
    let mut wrong = 0u64;
    let mut m = Vec::new();

    // proto: the codec on the workload's own Spmv frames.
    let mut codec = Vec::new();
    for s in of_kind(Kind::Spmv) {
        let (ns, ()) = iso.time("proto.codec", Some(s.span_id), REPS, || {
            let request = decode_request(&s.request).map(|r| encode_request(&r));
            let reply = decode_reply(&s.reply).map(|r| encode_reply(&r));
            black_box((request.is_ok(), reply.is_ok()));
        });
        codec.push(ns);
    }
    m.push(
        Metric::new("proto.spmv_codec_us", "us", median(&codec).map(us))
            .moves("spmv_p50_us")
            .note("isolated encode+decode of request and reply"),
    );
    let client_bytes = ratio(
        traced.sum(|r| r.spmv_bytes) as f64,
        traced.sum(|r| r.spmv_frames) as f64,
    );
    // Behind a router every shard is sent the same x again.
    let fan_out = if workload.routed() { 1 + SHARDS } else { 1 };
    m.push(
        Metric::new(
            "proto.request_bytes",
            "B",
            client_bytes.map(|b| b * fan_out as f64),
        )
        .moves("spmv_p50_us")
        .note(format!("encoded bytes per Spmv across {fan_out} frame(s)")),
    );

    // serve: service time, time outside it, and the server counters.
    let stats = &counters.stats;
    let service = traced.concat(|r| &r.service_us[Kind::Spmv as usize]);
    let per_kind: Vec<String> = (0..Kind::COUNT)
        .filter_map(|k| {
            median(&traced.concat(|r| &r.service_us[k]))
                .map(|v| format!("{} p50 {v} us", Kind::NAMES[k]))
        })
        .collect();
    m.push(
        Metric::new("serve.service_us", "us", median(&service).map(|v| v as f64))
            .moves("spmv_p50_us, throughput_rps")
            .note(per_kind.join(", ")),
    );
    let outside = traced.concat(|r| &r.outside_ns);
    m.push(
        Metric::new("serve.outside_us", "us", median(&outside).map(us))
            .moves("spmv_p50_us")
            .note("write-to-reply minus service_micros: loopback, queue, server codec"),
    );
    m.push(
        Metric::new(
            "serve.queue_wait_p50_us",
            "us",
            Some(stats.queue_p50_micros as f64),
        )
        .moves("spmv_p99_us")
        .note("server counter; power-of-two bucket bound"),
    );
    let lookups = stats.plan_cache_hits + stats.plan_cache_misses;
    m.push(
        Metric::new(
            "serve.plan_hit_ratio",
            "fraction",
            ratio(stats.plan_cache_hits as f64, lookups as f64),
        )
        .moves("spmv_p50_us")
        .note(format!(
            "{} hits / {lookups} lookups",
            stats.plan_cache_hits
        )),
    );
    let updates = stats.requests_update as f64;
    m.push(
        Metric::new(
            "serve.plans_spliced",
            "plans/update",
            ratio(stats.plans_spliced as f64, updates),
        )
        .moves("update_p50_us"),
    );
    m.push(
        Metric::new(
            "serve.replan_windows",
            "windows/update",
            ratio(stats.replan_windows as f64, updates),
        )
        .moves("update_p50_us"),
    );
    m.push(
        Metric::new(
            "serve.batched_frac",
            "fraction",
            ratio(stats.batched as f64, stats.requests_spmv as f64),
        )
        .moves("throughput_rps"),
    );
    m.push(
        Metric::new(
            "serve.busy_retries",
            "count",
            Some(traced.sum(|r| r.busy_retries) as f64),
        )
        .moves("error_rate, spmv_p99_us")
        .note("client count"),
    );

    // net: the event loop's counters.
    let text = &counters.metrics;
    let wakeups = metric_value(text, "net_loop_wakeups_total");
    let frames = metric_value(text, "net_frames_in_total");
    m.push(
        Metric::new(
            "net.wakeups_per_frame",
            "ratio",
            wakeups.zip(frames).and_then(|(w, f)| ratio(w, f)),
        )
        .moves("throughput_rps"),
    );
    m.push(
        Metric::new(
            "net.read_pauses",
            "count",
            metric_value(text, "net_read_pauses_total"),
        )
        .moves("spmv_p99_us"),
    );
    m.push(
        Metric::new(
            "net.write_queue_hwm",
            "B",
            metric_value(text, "net_write_queue_depth_hwm"),
        )
        .moves("spmv_p99_us"),
    );

    // sim: plan once per matrix an engine serves, replay sampled requests.
    // Plans are keyed by fingerprint, like the server's cache: connections
    // sharing a matrix share one plan.
    let engine = served_chason();
    let fingerprint = |c: usize, k: usize| matrix_fingerprint(&inputs.programs[c].matrices[k]);
    let mut plans: HashMap<u64, SpmvPlan> = HashMap::new();
    let mut plan_ns = Vec::new();
    for program in &inputs.programs {
        if !program.warm_engines.contains(&Engine::Chason) {
            continue;
        }
        for matrix in &program.matrices {
            let key = matrix_fingerprint(matrix);
            if plans.contains_key(&key) {
                continue;
            }
            let (ns, plan) = iso.time("sim.plan", None, 3, || engine.plan(matrix));
            plans.insert(key, plan.map_err(|e| format!("plan failed: {e}"))?);
            plan_ns.push(ns);
        }
    }
    let mut replay_ns = Vec::new();
    let mut replay_bytes = 0u64;
    let mut cycles = Vec::new();
    let mut stalls = Vec::new();
    for s in of_kind(Kind::Spmv).filter(|s| op_of(s).engine == Engine::Chason) {
        let op = op_of(s);
        let x = scaled(op, s.scale);
        let plan = &plans[&fingerprint(s.conn, op.matrix)];
        let (ns, exec) = iso.time("sim.replay", Some(s.span_id), 3, || {
            engine.run_planned(plan, &x)
        });
        let exec = exec.map_err(|e| format!("replay failed: {e}"))?;
        replay_ns.push(ns);
        replay_bytes += spmv_bytes(&inputs.programs[s.conn].matrices[op.matrix]);
        cycles.push(exec.cycles.total() as f64);
        stalls.push(exec.stalls as f64);
    }
    let replay_us = median(&replay_ns).map(us);
    let replay_total: u64 = replay_ns.iter().sum();
    m.push(
        Metric::new("sim.replay_us", "us", replay_us)
            .moves("spmv_p50_us, solve_p50_ms, throughput_rps")
            .note("isolated run_planned"),
    );
    m.push(
        Metric::new(
            "sim.replay_gbps",
            "GB/s",
            ratio(replay_bytes as f64, replay_total as f64),
        )
        .moves("spmv_p50_us, solve_p50_ms, throughput_rps")
        .note("computed: CSR-equivalent bytes / replay time"),
    );
    let engine_service = median(&traced.concat(|r| &r.engine_service_us)).map(|v| v as f64);
    let inflation = engine_service.zip(replay_us).and_then(|(s, r)| ratio(s, r));
    m.push(
        Metric::new("sim.inflation", "ratio", inflation)
            .moves("spmv_p50_us")
            .note(format!(
                "engine service p50 {} us / isolated replay p50 {} us",
                engine_service.map_or("n/a".into(), |v| format!("{v:.0}")),
                replay_us.map_or("n/a".into(), |v| format!("{v:.0}"))
            )),
    );
    m.push(
        Metric::new(
            "sim.plan_ms",
            "ms",
            (!plan_ns.is_empty()).then(|| plan_ns.iter().sum::<u64>() as f64 / 1e6),
        )
        .moves("setup_s")
        .note(format!(
            "isolated plan of the {} matrices set-up plans",
            plan_ns.len()
        )),
    );
    let mut replan_ns = Vec::new();
    for s in of_kind(Kind::Update) {
        let op = op_of(s);
        let base = &inputs.programs[s.conn].matrices[op.matrix];
        let mut delta = MatrixDelta::for_matrix(base);
        for &(r, c, v) in &op.revalues {
            delta
                .push_revalue(r as usize, c as usize, v)
                .map_err(|e| e.to_string())?;
        }
        let updated = delta.apply(base).map_err(|e| e.to_string())?;
        let plan = &plans[&fingerprint(s.conn, op.matrix)];
        let mut times = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let mut spliced = plan.clone();
            let start = Instant::now();
            let report = engine.replan_delta(&mut spliced, &updated, &delta);
            let end = Instant::now();
            report.map_err(|e| format!("replan failed: {e}"))?;
            iso.span("sim.replan", Some(s.span_id), start, end);
            times.push(end.duration_since(start).as_nanos() as u64);
        }
        replan_ns.extend(median(&times));
    }
    m.push(
        Metric::new("sim.replan_us", "us", median(&replan_ns).map(us))
            .moves("update_p50_us")
            .note("isolated replan_delta on the sampled updates"),
    );
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    m.push(
        Metric::new("sim.cycles_per_spmv", "cycles", mean(&cycles))
            .moves("sim_gflops")
            .note("exact, from Execution"),
    );
    m.push(
        Metric::new("sim.stall_slots", "count", mean(&stalls))
            .moves("sim_gflops")
            .note("exact, from Execution"),
    );

    // sparse: the CSR kernel on the full matrix (and shard slices).
    let mut csr: HashMap<(usize, usize), CsrMatrix> = HashMap::new();
    let mut csr_ns = Vec::new();
    for s in of_kind(Kind::Spmv) {
        let op = op_of(s);
        let matrix = csr.entry((s.conn, op.matrix)).or_insert_with(|| {
            CsrMatrix::from(inputs.programs[s.conn].matrices[op.matrix].as_ref())
        });
        let x = scaled(op, s.scale);
        let (ns, _) = iso.time("sparse.csr_spmv", Some(s.span_id), REPS, || matrix.spmv(&x));
        csr_ns.push(ns);
    }
    let mut csr_metric =
        Metric::new("sparse.csr_spmv_us", "us", median(&csr_ns).map(us)).moves("spmv_p50_us");
    let mut gather_metric = Metric::new("sparse.gather_us", "us", None).moves("spmv_p50_us");
    let mut overhead_metric =
        Metric::new("router.spmv_overhead_us", "us", None).moves("spmv_p50_us");

    // router: routed vs direct-to-shard SpMV on the same slices and x.
    if workload.routed() {
        let matrix = &inputs.programs[0].matrices[0];
        let spec = ShardSpec::nnz_balanced(matrix, SHARDS).map_err(|e| e.to_string())?;
        let slices = (0..SHARDS)
            .map(|k| spec.slice(matrix, k))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let slice_csr: Vec<CsrMatrix> = slices.iter().map(CsrMatrix::from).collect();
        let mut routed = Client::connect(deployment.addr()).map_err(|e| e.to_string())?;
        let mut direct = deployment
            .shard_addrs()
            .into_iter()
            .map(Client::connect)
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| e.to_string())?;
        let shard_handles: Vec<u64> = slices.iter().map(matrix_fingerprint).collect();
        let routed_handle = [matrix_fingerprint(matrix)];
        let mut routed_ns = Vec::new();
        let mut direct_ns: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
        let mut slice_ns: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
        let mut gather_ns = Vec::new();
        for s in of_kind(Kind::Spmv) {
            let op = op_of(s);
            let x = scaled(op, s.scale);
            for _ in 0..REPS {
                let start = Instant::now();
                let reply = routed.request(&op.request(&routed_handle, s.scale));
                let end = Instant::now();
                iso.span("router.routed_spmv", Some(s.span_id), start, end);
                routed_ns.push(end.duration_since(start).as_nanos() as u64);
                checked += 1;
                let ok = reply.is_ok_and(|r| check(&r, &op.expect, s.scale, 0) == Verdict::Pass);
                wrong += u64::from(!ok);
            }
            let mut partials = vec![Vec::new(); SHARDS];
            for k in 0..SHARDS {
                for _ in 0..REPS {
                    let start = Instant::now();
                    let reply = direct[k].spmv(shard_handles[k], Engine::Cpu, x.clone());
                    let end = Instant::now();
                    iso.span("shard.direct_spmv", Some(s.span_id), start, end);
                    direct_ns[k].push(end.duration_since(start).as_nanos() as u64);
                    partials[k] = reply
                        .map_err(|e| format!("direct shard Spmv failed: {e}"))?
                        .0;
                }
                let (ns, _) = iso.time("sparse.csr_spmv_slice", Some(s.span_id), REPS, || {
                    slice_csr[k].spmv(&x)
                });
                slice_ns[k].push(ns);
            }
            let (ns, gathered) = iso.time("sparse.gather", Some(s.span_id), REPS, || {
                spec.gather(&partials)
            });
            gather_ns.push(ns);
            checked += 1;
            let ok = gathered.is_ok_and(|y| {
                let reply = chason_serve::proto::Reply::Vector {
                    y,
                    service_micros: 0,
                    simulated_nanos: 0,
                };
                check(&reply, &op.expect, s.scale, 0) == Verdict::Pass
            });
            wrong += u64::from(!ok);
        }
        let slices_note: Vec<String> = slice_ns
            .iter()
            .map(|v| median(v).map_or("n/a".into(), |ns| format!("{:.1}", us(ns))))
            .collect();
        csr_metric = csr_metric.note(format!(
            "full matrix; shard slices [{}] us",
            slices_note.join(", ")
        ));
        gather_metric.value = median(&gather_ns).map(us);
        let routed_p50 = median(&routed_ns).map(us);
        let direct_p50: Vec<f64> = direct_ns.iter().filter_map(|v| median(v).map(us)).collect();
        let slowest = direct_p50
            .iter()
            .copied()
            .fold(None, |a: Option<f64>, v| Some(a.map_or(v, |a| a.max(v))));
        overhead_metric.value = routed_p50.zip(slowest).map(|(r, d)| r - d);
        overhead_metric = overhead_metric.note(format!(
            "routed p50 {} us - slowest direct shard p50 {} us (shards {:?})",
            routed_p50.map_or("n/a".into(), |v| format!("{v:.0}")),
            slowest.map_or("n/a".into(), |v| format!("{v:.0}")),
            direct_p50.iter().map(|v| v.round()).collect::<Vec<_>>()
        ));
    }
    m.push(csr_metric);
    m.push(gather_metric);

    // solvers: iterations from the replies, and a local CPU solve.
    let iterations = median(&traced.concat(|r| &r.cg_iterations)).map(|v| v as f64);
    m.push(
        Metric::new("solvers.cg_iterations", "count", iterations)
            .moves("solve_p50_ms")
            .note("from Solved replies"),
    );
    let mut local_ns = Vec::new();
    for s in of_kind(Kind::Solve) {
        let op = op_of(s);
        let matrix = &inputs.programs[s.conn].matrices[op.matrix];
        let b = scaled(op, s.scale);
        let options = CgOptions {
            max_iterations: op.solve.0 as usize,
            tolerance: op.solve.1,
        };
        let (ns, solved) = iso.time("solvers.cg_local", Some(s.span_id), 3, || {
            conjugate_gradient(&mut CpuBackend::default(), matrix, &b, options)
        });
        solved.map_err(|e| format!("local CG failed: {e}"))?;
        local_ns.push(ns);
    }
    let cg_local_ms = median(&local_ns).map(|ns| ns as f64 / 1e6);
    m.push(
        Metric::new("solvers.cg_local_ms", "ms", cg_local_ms)
            .moves("solve_p50_ms")
            .note("isolated conjugate_gradient(CpuBackend)"),
    );

    m.push(overhead_metric);
    let per_iteration = if workload.routed() {
        value(untraced_e2e, "solve_p50_ms")
            .zip(cg_local_ms)
            .zip(iterations)
            .and_then(|((solve, local), it)| ratio((solve - local) * 1e3, it))
    } else {
        None
    };
    m.push(
        Metric::new("router.per_iteration_us", "us", per_iteration)
            .moves("solve_p50_ms")
            .note("(solve_p50_ms - solvers.cg_local_ms) / iterations"),
    );
    let router = parse_router_metrics(text);
    let field = |f: fn(&chason_serve::loadgen::RouterLoadReport) -> f64| router.as_ref().map(f);
    m.push(
        Metric::new(
            "router.gather_p50_us",
            "us",
            field(|r| r.gather_micros.0 as f64),
        )
        .moves("spmv_p99_us")
        .note("router counter; power-of-two bucket bound"),
    );
    m.push(
        Metric::new(
            "router.shard_request_balance",
            "max/mean",
            field(|r| r.request_balance),
        )
        .moves("spmv_p99_us"),
    );
    m.push(
        Metric::new(
            "router.scatter_failures",
            "count",
            field(|r| r.scatter_failures as f64),
        )
        .moves("error_rate"),
    );
    m.push(
        Metric::new(
            "router.shard_retries",
            "count",
            field(|r| r.shard_retries as f64),
        )
        .moves("error_rate"),
    );

    Ok(Layers {
        metrics: m,
        checked,
        wrong,
    })
}
