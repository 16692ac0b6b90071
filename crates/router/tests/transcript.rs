//! CHSP wire transcript of the router: a committed recording of request
//! frames and the reply frames `chason route` must answer them with,
//! replayed against a live router over one in-process shard and compared
//! byte for byte.
//!
//! The serve transcript (`crates/serve/tests/transcript.rs`) pins the
//! server's connection edge; this one pins the router's: its drain and
//! unknown-handle wording, the refused `Plan`, reply ordering across a
//! pipelined burst, and the close behaviour on an over-cap header and on
//! `Shutdown`.
//!
//! Determinism: router and shard each run one worker, every `Stats` is
//! sent only after all earlier replies are read, and the wall-clock words
//! are zeroed before comparison (see [`normalise`]). Re-bless with
//! `UPDATE_GOLDEN=1 cargo test -p chason-router --test transcript`.
//!
//! Golden layout, one record per step:
//! `conn u8, sent_len u32, sent bytes, replies u32,
//! replies × (len u32, payload), closed u8` (integers little-endian).

use chason_conformance::golden::check_or_bless_bytes;
use chason_core::plan::matrix_fingerprint;
use chason_router::{Router, RouterConfig};
use chason_serve::proto::{
    decode_reply, encode_reply, encode_request, read_frame_blocking, write_frame, Engine, Reply,
    Request, SolverKind, DEFAULT_MAX_FRAME,
};
use chason_serve::server::{ServeConfig, Server};
use chason_sparse::CooMatrix;
use std::io::Read;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// One scripted exchange: raw bytes written on connection `conn`, the
/// number of reply frames to read back, and whether the router must close
/// the connection after them.
struct Step {
    conn: usize,
    sent: Vec<u8>,
    replies: usize,
    expect_close: bool,
}

fn frames(requests: &[Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    for request in requests {
        write_frame(&mut wire, &encode_request(request)).expect("frame fits");
    }
    wire
}

fn exchange(conn: usize, requests: &[Request]) -> Step {
    Step {
        conn,
        sent: frames(requests),
        replies: requests.len(),
        expect_close: false,
    }
}

/// A 20-row SPD system (tridiagonal plus a long-range coupling), in a
/// fixed triplet order so the `LoadMatrix` bytes are stable.
fn system() -> (u64, u64, Vec<(u64, u64, f32)>) {
    let n = 20u64;
    let mut triplets = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let v = if i == j {
                4.0 + i as f32 * 0.25
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else if i.abs_diff(j) == 9 {
                0.5
            } else {
                continue;
            };
            triplets.push((i, j, v));
        }
    }
    (n, n, triplets)
}

fn script() -> Vec<Step> {
    let (rows, cols, triplets) = system();
    let matrix = CooMatrix::from_triplets(
        rows as usize,
        cols as usize,
        triplets
            .iter()
            .map(|&(r, c, v)| (r as usize, c as usize, v))
            .collect(),
    )
    .expect("system is well-formed");
    let handle = matrix_fingerprint(&matrix);
    let n = rows as usize;
    let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).cos()).collect();
    let b: Vec<f32> = (0..n).map(|i| 1.0 + (i % 3) as f32 * 0.5).collect();
    let spmv = |engine: Engine| Request::Spmv {
        handle,
        engine,
        x: x.clone(),
    };
    let cg = |engine: Engine| Request::Solve {
        handle,
        engine,
        solver: SolverKind::Cg,
        max_iterations: 60,
        tolerance: 1e-6,
        b: b.clone(),
    };
    let mut over_cap = Vec::new();
    over_cap.extend_from_slice(&(DEFAULT_MAX_FRAME as u32 + 1).to_le_bytes());
    vec![
        exchange(
            0,
            &[Request::LoadMatrix {
                rows,
                cols,
                triplets,
            }],
        ),
        exchange(0, &[spmv(Engine::Cpu)]),
        exchange(0, &[spmv(Engine::Chason)]),
        exchange(0, &[cg(Engine::Chason)]),
        exchange(
            0,
            &[Request::Update {
                handle,
                inserts: vec![(0, 4, 0.25), (4, 0, 0.25)],
                revalues: vec![(2, 2, 7.5)],
                deletes: vec![(0, 9), (9, 0)],
            }],
        ),
        exchange(0, &[spmv(Engine::Chason)]),
        // Plans are per-shard: the router refuses with BadRequest.
        exchange(
            0,
            &[Request::Plan {
                handle,
                engine: Engine::Chason,
            }],
        ),
        exchange(
            0,
            &[Request::Spmv {
                handle: 0xdead_beef,
                engine: Engine::Cpu,
                x: x.clone(),
            }],
        ),
        exchange(
            0,
            &[Request::Spmv {
                handle,
                engine: Engine::Cpu,
                x: x[1..].to_vec(),
            }],
        ),
        // A malformed payload poisons only itself: the Sleep after it is
        // answered on the same connection.
        Step {
            conn: 0,
            sent: {
                let mut wire = Vec::new();
                write_frame(&mut wire, &[0x42, 1, 2, 3]).expect("frame fits");
                wire
            },
            replies: 1,
            expect_close: false,
        },
        exchange(0, &[Request::Sleep { millis: 5 }]),
        // A burst written before any read: replies come back in request
        // order.
        exchange(
            0,
            &[
                Request::Sleep { millis: 20 },
                spmv(Engine::Chason),
                spmv(Engine::Cpu),
                Request::Plan {
                    handle,
                    engine: Engine::Serpens,
                },
                cg(Engine::Cpu),
            ],
        ),
        exchange(0, &[Request::Stats]),
        // An over-cap length header cannot be resynchronised past: one
        // FrameTooLarge reply, then the router hangs up.
        Step {
            conn: 1,
            sent: over_cap,
            replies: 1,
            expect_close: true,
        },
        Step {
            expect_close: true,
            ..exchange(0, &[Request::Shutdown])
        },
    ]
}

/// Zeroes the wall-clock words of a reply so the transcript is a pure
/// function of the request bytes: `service_micros` of `Vector`/`Solved`,
/// and the uptime, latency-quantile and queue-depth high-water-mark words
/// of `Stats` — the same words the serve transcript zeroes.
fn normalise(payload: &[u8]) -> Vec<u8> {
    let reply = match decode_reply(payload).expect("router reply decodes") {
        Reply::Vector {
            y, simulated_nanos, ..
        } => Reply::Vector {
            y,
            service_micros: 0,
            simulated_nanos,
        },
        Reply::Solved {
            solution,
            iterations,
            residual,
            converged,
            simulated_nanos,
            ..
        } => Reply::Solved {
            solution,
            iterations,
            residual,
            converged,
            service_micros: 0,
            simulated_nanos,
        },
        Reply::Stats(mut s) => {
            s.uptime_millis = 0;
            s.queue_depth_hwm = 0;
            s.service_p50_micros = 0;
            s.service_p99_micros = 0;
            s.service_max_micros = 0;
            s.queue_p50_micros = 0;
            s.queue_p99_micros = 0;
            s.queue_max_micros = 0;
            Reply::Stats(s)
        }
        other => other,
    };
    encode_reply(&reply)
}

/// Runs the script against a fresh one-worker router over one one-worker
/// shard and returns the recorded transcript.
fn record() -> Vec<u8> {
    let shard = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("shard binds an ephemeral port");
    let router = Router::start(RouterConfig {
        shards: vec![shard.local_addr().to_string()],
        workers: 1,
        ..RouterConfig::default()
    })
    .expect("router binds an ephemeral port");
    let mut conns: Vec<TcpStream> = Vec::new();
    let mut transcript = Vec::new();
    for step in script() {
        while conns.len() <= step.conn {
            let stream = TcpStream::connect(router.local_addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            conns.push(stream);
        }
        let stream = &mut conns[step.conn];
        std::io::Write::write_all(stream, &step.sent).expect("send step");
        transcript.push(step.conn as u8);
        transcript.extend_from_slice(&(step.sent.len() as u32).to_le_bytes());
        transcript.extend_from_slice(&step.sent);
        transcript.extend_from_slice(&(step.replies as u32).to_le_bytes());
        for _ in 0..step.replies {
            let payload = read_frame_blocking(stream, DEFAULT_MAX_FRAME).expect("reply frame");
            write_frame(&mut transcript, &normalise(&payload)).expect("frame fits");
        }
        let closed = step.expect_close && matches!(stream.read(&mut [0u8; 1]), Ok(0));
        transcript.push(u8::from(closed));
    }
    drop(conns);
    router.join();
    shard.shutdown();
    shard.join();
    transcript
}

#[test]
fn router_replays_the_chsp_transcript() {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/chsp_router_transcript.bin");
    if let Err(err) = check_or_bless_bytes(&golden, &record()) {
        panic!("{err}");
    }
}
