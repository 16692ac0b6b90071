//! Closed-loop CHSP traffic: one thread per connection, each keeping
//! up to `depth` requests in flight, every reply checked by the oracle.
//!
//! Latency runs from the first send of a request (before it is encoded)
//! to the decoded reply that passed the oracle; a `Busy` reply is resent
//! and keeps its first-send time. An `Update` is a write barrier: the
//! window drains, the `Update` goes alone and its ack is awaited, so every
//! later read can be checked against the new matrix version.

use crate::oracle::{check, Expect, Verdict};
use crate::workload::{pass_scale, Kind, Program};
use chason_serve::proto::{
    decode_reply, encode_request, read_frame_blocking, write_frame, ProtoError, Reply,
    DEFAULT_MAX_FRAME,
};
use chason_telemetry::trace::{FlightRecorder, SpanEvent};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// When a timed phase stops admitting requests: after `min_end` once
/// every kind has its minimum sample count, and at `max_end` regardless.
#[derive(Debug)]
pub struct Control {
    /// Start of the timed phase.
    pub start: Instant,
    /// Earliest stop.
    pub min_end: Instant,
    /// Latest stop.
    pub max_end: Instant,
    /// Samples of each kind the phase must collect.
    pub min_samples: [u64; Kind::COUNT],
    /// Samples collected so far, across connections.
    pub done: [AtomicU64; Kind::COUNT],
}

impl Control {
    /// A phase of at least `seconds` that may stretch to three times that
    /// to reach `min_samples`.
    pub fn new(seconds: u64, min_samples: [u64; Kind::COUNT]) -> Control {
        let start = Instant::now();
        Control {
            start,
            min_end: start + Duration::from_secs(seconds),
            max_end: start + Duration::from_secs(3 * seconds),
            min_samples,
            done: Default::default(),
        }
    }

    fn should_stop(&self) -> bool {
        let now = Instant::now();
        now >= self.max_end
            || (now >= self.min_end
                && self
                    .done
                    .iter()
                    .zip(self.min_samples)
                    .all(|(done, min)| done.load(Ordering::Relaxed) >= min))
    }
}

/// Requests whose spans a traced phase records; later requests are
/// timed but not recorded, which bounds the span file.
pub const TRACED_REQUESTS: u64 = 16_384;

/// Span recording for the traced phase.
#[derive(Debug)]
pub struct Tracer<'a> {
    /// Where spans go (written as JSONL at the end).
    pub recorder: &'a FlightRecorder,
    /// Time zero of the span clock (nanoseconds since this instant).
    pub base: Instant,
    /// Requests recorded so far.
    pub recorded: AtomicU64,
}

impl Tracer<'_> {
    /// Whether the next request's spans are recorded.
    fn admit(&self) -> bool {
        self.recorded.fetch_add(1, Ordering::Relaxed) < TRACED_REQUESTS
    }

    /// Nanoseconds from the span clock's zero to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }
}

/// Requests of each kind a traced connection keeps for the isolated
/// layer calls, by `Kind as usize`.
const SAMPLES: [usize; Kind::COUNT] = [16, 3, 8, 0];

/// A request kept for the isolated layer calls of the traced run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Connection that sent it.
    pub conn: usize,
    /// Index of the op in the connection's program.
    pub op: usize,
    /// The pass scale it was sent with.
    pub scale: f32,
    /// Its `request` span id (the parent of the isolated-call spans).
    pub span_id: u64,
    /// The encoded request payload.
    pub request: Vec<u8>,
    /// The reply payload.
    pub reply: Vec<u8>,
}

/// What one connection measured.
#[derive(Debug, Default)]
pub struct ConnRecord {
    /// Client latency of passed requests, by kind (nanoseconds).
    pub latency_ns: [Vec<u64>; Kind::COUNT],
    /// When each of those requests completed, in nanoseconds since the
    /// phase started (parallel to `latency_ns`).
    pub done_ns: [Vec<u64>; Kind::COUNT],
    /// The replies' `service_micros`, by kind.
    pub service_us: [Vec<u64>; Kind::COUNT],
    /// `service_micros` of engine (`chason`) `Spmv` replies.
    pub engine_service_us: Vec<u64>,
    /// `Spmv` client encode + decode time (nanoseconds).
    pub codec_ns: Vec<u64>,
    /// `Spmv` write-to-reply time minus `service_micros` (nanoseconds):
    /// loopback, server codec and queue wait.
    pub outside_ns: Vec<u64>,
    /// Requests settled (passed or failed).
    pub attempted: u64,
    /// Requests that failed the oracle, errored or were lost.
    pub failed: u64,
    /// `Busy` replies resent.
    pub busy_retries: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Modeled flops of the engine `Spmv` replies of the first epoch
    /// pass (a fixed set of requests, so the ratio repeats exactly).
    pub sim_flops: u64,
    /// Their `simulated_nanos`.
    pub sim_nanos: u64,
    /// Iterations of each passed `Solve`.
    pub cg_iterations: Vec<u64>,
    /// Plans spliced, summed over acked updates.
    pub plans_spliced: u64,
    /// Windows re-planned, summed over acked updates.
    pub windows_replanned: u64,
    /// Encoded bytes of every `Spmv` frame sent (header included).
    pub spmv_bytes: u64,
    /// `Spmv` frames sent.
    pub spmv_frames: u64,
    /// Requests kept for the isolated layer calls (traced phase only).
    pub samples: Vec<Sample>,
    /// When the connection drained its window and stopped.
    pub finished: Option<Instant>,
}

impl ConnRecord {
    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// A request on the wire.
struct InFlight {
    op: usize,
    pass: usize,
    scale: f32,
    /// Version an `Update` ack must carry.
    version: u64,
    id: u64,
    payload: Vec<u8>,
    first_sent: Instant,
    encoded: Instant,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

/// Drives one connection through `program` until `control` says stop,
/// then drains its window.
pub fn run_connection(
    conn: usize,
    addr: SocketAddr,
    program: &Program,
    handles: &[u64],
    depth: usize,
    control: &Control,
    tracer: Option<&Tracer<'_>>,
) -> ConnRecord {
    let mut rec = ConnRecord::default();
    let mut stream = match connect(addr) {
        Ok(stream) => stream,
        Err(err) => {
            rec.fail(format!("connect failed: {err}"));
            rec.finished = Some(Instant::now());
            return rec;
        }
    };
    let epoch = program.ops.len();
    let mut versions = vec![0u64; program.matrices.len()];
    let mut cursor = 0usize;
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    let result: Result<(), ProtoError> = (|| {
        loop {
            while window.len() < depth && !control.should_stop() {
                let index = cursor % epoch;
                let op = &program.ops[index];
                let barrier = op.kind == Kind::Update;
                let update_in_flight = window
                    .front()
                    .is_some_and(|f| program.ops[f.op].kind == Kind::Update);
                if update_in_flight || (barrier && !window.is_empty()) {
                    break;
                }
                let scale = pass_scale(cursor / epoch);
                let request = op.request(handles, scale);
                let first_sent = Instant::now();
                let payload = encode_request(&request);
                let encoded = Instant::now();
                if op.kind == Kind::Spmv {
                    rec.spmv_bytes += payload.len() as u64 + 4;
                    rec.spmv_frames += 1;
                }
                window.push_back(InFlight {
                    op: index,
                    pass: cursor / epoch,
                    scale,
                    version: if barrier { versions[op.matrix] + 1 } else { 0 },
                    id: ((conn as u64 + 1) << 40) | cursor as u64,
                    payload,
                    first_sent,
                    encoded,
                });
                cursor += 1;
                if let Some(sent) = window.back() {
                    write_frame(&mut stream, &sent.payload)?;
                }
                if barrier {
                    break;
                }
            }
            let Some(mut head) = window.pop_front() else {
                return Ok(());
            };
            // On a read or decode failure the stream is out of step: the
            // head and the rest of the window are lost.
            let reply_payload = match read_frame_blocking(&mut stream, DEFAULT_MAX_FRAME) {
                Ok(payload) => payload,
                Err(err) => {
                    window.push_front(head);
                    return Err(err);
                }
            };
            let received = Instant::now();
            let reply = match decode_reply(&reply_payload) {
                Ok(reply) => reply,
                Err(err) => {
                    window.push_front(head);
                    return Err(err);
                }
            };
            let decoded = Instant::now();
            let op = &program.ops[head.op];
            match check(&reply, &op.expect, head.scale, head.version) {
                Verdict::Busy(hint_ms) => {
                    rec.busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(hint_ms.max(1))));
                    head.encoded = Instant::now();
                    window.push_back(head);
                    if let Some(resent) = window.back() {
                        write_frame(&mut stream, &resent.payload)?;
                    }
                }
                Verdict::Fail(why) => rec.fail(format!(
                    "{} #{}: {why}",
                    Kind::NAMES[op.kind as usize],
                    head.op
                )),
                Verdict::Pass => {
                    rec.attempted += 1;
                    let kind = op.kind as usize;
                    let latency = decoded.duration_since(head.first_sent).as_nanos() as u64;
                    rec.latency_ns[kind].push(latency);
                    rec.done_ns[kind].push(decoded.duration_since(control.start).as_nanos() as u64);
                    let service = service_micros(&reply);
                    if let Some(service) = service {
                        rec.service_us[kind].push(service);
                    }
                    match (&reply, &op.expect) {
                        (
                            Reply::Vector {
                                simulated_nanos, ..
                            },
                            Expect::Vector { sim_flops, .. },
                        ) => {
                            if *sim_flops > 0 {
                                rec.engine_service_us.extend(service);
                                if head.pass == 0 {
                                    rec.sim_flops += sim_flops;
                                    rec.sim_nanos += simulated_nanos;
                                }
                            }
                            let codec = head.encoded.duration_since(head.first_sent)
                                + decoded.duration_since(received);
                            rec.codec_ns.push(codec.as_nanos() as u64);
                            let roundtrip = received.duration_since(head.encoded).as_nanos() as u64;
                            let service_ns = service.unwrap_or(0) * 1000;
                            rec.outside_ns.push(roundtrip.saturating_sub(service_ns));
                        }
                        (Reply::Solved { iterations, .. }, _) => {
                            rec.cg_iterations.push(*iterations)
                        }
                        (
                            Reply::Updated {
                                plans_spliced,
                                windows_replanned,
                                ..
                            },
                            _,
                        ) => {
                            versions[op.matrix] = head.version;
                            rec.plans_spliced += u64::from(*plans_spliced);
                            rec.windows_replanned += windows_replanned;
                        }
                        _ => {}
                    }
                    control.done[kind].fetch_add(1, Ordering::Relaxed);
                    if let Some(tracer) = tracer.filter(|t| t.admit()) {
                        record_spans(tracer, conn, &head, op.kind, service, received, decoded);
                        if rec
                            .samples
                            .iter()
                            .filter(|s| program.ops[s.op].kind == op.kind)
                            .count()
                            < SAMPLES[kind]
                        {
                            rec.samples.push(Sample {
                                conn,
                                op: head.op,
                                scale: head.scale,
                                span_id: head.id,
                                request: head.payload,
                                reply: reply_payload,
                            });
                        }
                    }
                }
            }
        }
    })();
    if let Err(err) = result {
        // A broken connection loses everything still in flight.
        let lost = window.len().max(1);
        for _ in 0..lost {
            rec.fail(format!("connection failed: {err}"));
        }
    }
    rec.finished = Some(Instant::now());
    rec
}

fn service_micros(reply: &Reply) -> Option<u64> {
    match reply {
        Reply::Vector { service_micros, .. } | Reply::Solved { service_micros, .. } => {
            Some(*service_micros)
        }
        _ => None,
    }
}

/// The `request` span and its `proto.encode`, `wire.roundtrip` and
/// `proto.decode` children. The server's `service_micros` is a field of
/// the request span, not a span of its own.
fn record_spans(
    tracer: &Tracer<'_>,
    conn: usize,
    head: &InFlight,
    kind: Kind,
    service: Option<u64>,
    received: Instant,
    decoded: Instant,
) {
    let (start, encoded) = (tracer.ns(head.first_sent), tracer.ns(head.encoded));
    let (received, decoded) = (tracer.ns(received), tracer.ns(decoded));
    let mut request = SpanEvent::new("request", start, decoded)
        .attr("span_id", head.id)
        .attr("trace_id", head.id)
        .attr("conn", conn)
        .attr("kind", Kind::NAMES[kind as usize])
        .attr("bytes", head.payload.len());
    if let Some(service) = service {
        request = request.attr("service_micros", service);
    }
    tracer.recorder.record(request);
    for (name, from, to) in [
        ("proto.encode", start, encoded),
        ("wire.roundtrip", encoded, received),
        ("proto.decode", received, decoded),
    ] {
        tracer.recorder.record(
            SpanEvent::new(name, from, to)
                .attr("trace_id", head.id)
                .attr("parent_id", head.id),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spmv_op;
    use chason_serve::proto::{decode_request, encode_reply, Engine, Request};
    use chason_sparse::CooMatrix;
    use std::net::TcpListener;
    use std::sync::Arc;

    /// How the fake server answers each `Spmv`.
    #[derive(Clone, Copy)]
    enum Script {
        /// `Busy` once, then the right answer.
        BusyThenRight,
        /// The right answer with one bit of `y` flipped.
        FlipOneBit,
    }

    /// A one-connection CHSP server that answers `Spmv` on `matrix` by
    /// its CSR product, following `script`.
    fn fake_server(matrix: CooMatrix, script: Script) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let csr = chason_sparse::CsrMatrix::from(&matrix);
            let mut busy_sent = false;
            while let Ok(payload) = read_frame_blocking(&mut stream, DEFAULT_MAX_FRAME) {
                let Ok(Request::Spmv { x, .. }) = decode_request(&payload) else {
                    return;
                };
                let mut y = csr.spmv(&x);
                let reply = match script {
                    Script::BusyThenRight if !busy_sent => {
                        busy_sent = true;
                        Reply::Busy { retry_after_ms: 1 }
                    }
                    Script::BusyThenRight => Reply::Vector {
                        y,
                        service_micros: 1,
                        simulated_nanos: 0,
                    },
                    Script::FlipOneBit => {
                        y[0] = f32::from_bits(y[0].to_bits() ^ 1);
                        Reply::Vector {
                            y,
                            service_micros: 1,
                            simulated_nanos: 0,
                        }
                    }
                };
                if write_frame(&mut stream, &encode_reply(&reply)).is_err() {
                    return;
                }
            }
        });
        (addr, thread)
    }

    fn drive(script: Script) -> ConnRecord {
        let matrix = CooMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 2.0), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 3.0)],
        )
        .expect("valid matrix");
        let program = Program {
            matrices: vec![Arc::new(matrix.clone())],
            warm_engines: Vec::new(),
            ops: vec![spmv_op(0, &matrix, Engine::Cpu, vec![0.75, -1.25])],
        };
        let (addr, server) = fake_server(matrix, script);
        let start = Instant::now();
        let control = Control {
            start,
            min_end: start,
            max_end: start + Duration::from_millis(300),
            min_samples: [3, 0, 0, 0],
            done: Default::default(),
        };
        let record = run_connection(0, addr, &program, &[7], 1, &control, None);
        server.join().expect("fake server");
        record
    }

    #[test]
    fn a_busy_retried_to_success_is_not_a_failure() {
        let record = drive(Script::BusyThenRight);
        assert_eq!(record.failed, 0, "{:?}", record.failures);
        assert_eq!(record.busy_retries, 1);
        assert!(record.attempted >= 3);
        // The retried request's latency runs from its first send, so it
        // includes the back-off.
        assert!(record.latency_ns[0][0] >= 1_000_000);
    }

    #[test]
    fn a_one_bit_corruption_counts_as_a_failure() {
        let record = drive(Script::FlipOneBit);
        assert!(record.attempted > 0);
        assert_eq!(record.failed, record.attempted);
        assert!(record.latency_ns[0].is_empty());
    }
}
