//! The CHSP daemon skeleton, shared by `chason serve` and `chason route`.
//!
//! Both daemons accept the same wire protocol, answer
//! `Stats`/`Metrics`/`Shutdown` inline, refuse queued work while
//! draining, and shed with [`Reply::Busy`] when their bounded worker
//! queue is full. [`Frontend`] owns all of that once: the
//! [`chason_net`] readiness event loop (one thread multiplexes every
//! connection, and requests may be pipelined), the bounded job queue,
//! the worker threads, the drain flag (the event loop's own), and the
//! per-job wrapper that records the request kind, queue wait and service
//! time, catches panics and sends the reply.
//!
//! A daemon implements [`Daemon`] and supplies only what differs: its
//! `Stats` and `Metrics` bodies, the wire-`Shutdown` fan-out, per-worker
//! state, and how one request executes (plus, for `chason serve`, which
//! queued twins ride along with a dequeued job).
//!
//! Replies are written strictly in per-connection request order (the
//! event loop re-orders worker completions by sequence number), and the
//! idle-timeout clock resets on any completed frame in either direction.
//! The committed CHSP transcripts (`tests/golden/chsp_transcript.bin` and
//! `tests/golden/chsp_router_transcript.bin`) pin the wire behaviour of
//! both daemons byte for byte.

use crate::proto::{
    decode_request, encode_reply, ErrorCode, Reply, Request, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use crate::stats::ServerStats;
use chason_net::server::{FrameOutcome, NetConfig, NetServer};
use chason_net::{LoopHandle, Service};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a client connection may sit idle before a daemon hangs up,
/// unless configured otherwise.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// A unit of queued work: the decoded request plus the event-loop
/// completion slot its reply fills. The worker encodes the reply itself,
/// off the loop thread.
#[derive(Debug)]
pub struct Job {
    /// The decoded request.
    pub request: Request,
    /// Enqueue time, for the queue-wait histogram.
    received: Instant,
    /// Completion handle into the event loop.
    handle: LoopHandle,
    /// Connection the frame arrived on.
    conn: u64,
    /// Per-connection sequence number of the frame.
    seq: u64,
}

/// What one CHSP daemon supplies to [`Frontend`].
pub trait Daemon: Send + Sync + 'static {
    /// Per-worker state, built on the worker thread and rebuilt after a
    /// request panics (the router's pooled shard connections).
    type Worker;
    /// Names the daemon in drain refusals (`"server is draining"`) and
    /// worker thread names.
    const NAME: &'static str;

    /// The CHSP counters the skeleton records requests, shedding, queue
    /// depth and latencies into; its registry also carries `net_*`.
    fn stats(&self) -> &ServerStats;
    /// The `Stats` reply body.
    fn snapshot(&self) -> StatsSnapshot;
    /// The `Metrics` reply body.
    fn exposition(&self) -> String;
    /// A wire `Shutdown` arrived: any fan-out (the router forwards to its
    /// shards) runs here, before the drain starts and `Done` is sent.
    fn on_wire_shutdown(&self) {}
    /// Fresh state for worker `index`.
    fn worker(&self, index: usize) -> Self::Worker;
    /// Queued jobs to run right after a dequeued job, taken off the front
    /// of the queue (same-matrix batching). None by default.
    fn batch(&self, _first: &Job, _queue: &Receiver<Job>) -> Vec<Job> {
        Vec::new()
    }
    /// Executes one queued request.
    fn execute(&self, worker: &mut Self::Worker, request: Request) -> Reply;
}

/// A [`Reply::Error`] with [`ErrorCode::BadRequest`].
pub fn bad_request(message: impl Into<String>) -> Reply {
    Reply::Error {
        code: ErrorCode::BadRequest,
        message: message.into(),
    }
}

/// A [`Reply::Error`] with [`ErrorCode::UnknownHandle`]; `kind` names what
/// the daemon keeps resident (`"resident"`, `"sharded"`).
pub fn unknown_handle(kind: &str, handle: u64) -> Reply {
    Reply::Error {
        code: ErrorCode::UnknownHandle,
        message: format!("no {kind} matrix with handle {handle:#018x}; send LoadMatrix first"),
    }
}

/// The connection half of [`Frontend`], run by the event loop. It holds
/// the only queue sender, so once the loop exits the workers drain what
/// remains and stop.
struct ChspService<D> {
    daemon: Arc<D>,
    queue: Sender<Job>,
    retry_after_ms: u32,
    handle: LoopHandle,
}

impl<D: Daemon> ChspService<D> {
    /// Offers a request to the bounded queue without blocking: accepted,
    /// shed with `Busy`, or refused because the pool is gone.
    fn enqueue(&self, conn: u64, seq: u64, request: Request) -> FrameOutcome {
        let job = Job {
            request,
            received: Instant::now(),
            handle: self.handle.clone(),
            conn,
            seq,
        };
        let stats = self.daemon.stats();
        match self.queue.try_send(job) {
            Ok(()) => {
                stats.observe_queue_depth(self.queue.len() as u64);
                FrameOutcome::Pending
            }
            Err(TrySendError::Full(_)) => {
                stats.shed.add(1);
                FrameOutcome::Reply(encode_reply(&Reply::Busy {
                    retry_after_ms: self.retry_after_ms,
                }))
            }
            Err(TrySendError::Disconnected(_)) => {
                FrameOutcome::ReplyThenClose(encode_reply(&Reply::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "worker pool has stopped".to_string(),
                }))
            }
        }
    }
}

impl<D: Daemon> Service for ChspService<D> {
    fn on_frame(&mut self, conn: u64, seq: u64, payload: Vec<u8>) -> FrameOutcome {
        let reply = match decode_request(&payload) {
            Err(err) => Reply::Error {
                code: ErrorCode::MalformedFrame,
                message: err.to_string(),
            },
            Ok(Request::Stats) => {
                self.daemon.stats().requests.stats.add(1);
                Reply::Stats(self.daemon.snapshot())
            }
            Ok(Request::Metrics) => {
                self.daemon.stats().requests.metrics.add(1);
                Reply::MetricsText {
                    text: self.daemon.exposition(),
                }
            }
            Ok(Request::Shutdown) => {
                // Daemon-specific fan-out first ("Done" acknowledges a
                // completed drain start), then stop the loop's accept
                // thread and begin the drain.
                self.daemon.on_wire_shutdown();
                self.handle.begin_drain();
                return FrameOutcome::ReplyThenClose(encode_reply(&Reply::Done));
            }
            Ok(_) if self.handle.is_draining() => {
                return FrameOutcome::ReplyThenClose(encode_reply(&Reply::Error {
                    code: ErrorCode::ShuttingDown,
                    message: format!("{} is draining", D::NAME),
                }));
            }
            Ok(request) => return self.enqueue(conn, seq, request),
        };
        FrameOutcome::Reply(encode_reply(&reply))
    }

    fn on_oversized(&mut self, _conn: u64, len: u64, cap: u64) -> Option<Vec<u8>> {
        Some(encode_reply(&Reply::Error {
            code: ErrorCode::FrameTooLarge,
            message: format!("frame of {len} bytes exceeds the {cap}-byte cap"),
        }))
    }
}

/// A running CHSP daemon: the event loop, the bounded job queue and the
/// worker pool around one [`Daemon`].
pub struct Frontend<D> {
    daemon: Arc<D>,
    net: NetServer,
    workers: Vec<JoinHandle<()>>,
}

impl<D: Daemon> Frontend<D> {
    /// Binds `addr`, spawns `workers` (at least one) worker threads behind
    /// a queue of `queue_capacity` jobs, and starts the event loop.
    /// `retry_after_ms` is the back-off hint a shed request's `Busy`
    /// carries; `idle_timeout` reaps silent connections.
    ///
    /// # Errors
    ///
    /// I/O failures binding the listener, spawning threads or starting the
    /// poller.
    pub fn start(
        addr: &str,
        daemon: Arc<D>,
        workers: usize,
        queue_capacity: usize,
        retry_after_ms: u32,
        idle_timeout: Duration,
    ) -> std::io::Result<Frontend<D>> {
        let listener = TcpListener::bind(addr)?;
        let (queue, jobs) = channel::bounded::<Job>(queue_capacity);
        let workers = (0..workers.max(1))
            .map(|index| {
                let daemon = Arc::clone(&daemon);
                let jobs = jobs.clone();
                thread::Builder::new()
                    .name(format!("chason-{}-worker-{index}", D::NAME))
                    .spawn(move || worker_loop(&*daemon, &jobs, index))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        drop(jobs);
        let config = NetConfig {
            idle_timeout,
            max_frame_len: DEFAULT_MAX_FRAME,
            ..NetConfig::default()
        };
        let service_daemon = Arc::clone(&daemon);
        let net = NetServer::start(listener, config, daemon.stats().registry(), |handle| {
            ChspService {
                daemon: service_daemon,
                queue,
                retry_after_ms,
                handle,
            }
        })?;
        Ok(Frontend {
            daemon,
            net,
            workers,
        })
    }

    /// The daemon state.
    pub fn daemon(&self) -> &D {
        &self.daemon
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// A handle whose [`LoopHandle::is_draining`] turns true once a drain
    /// has begun, for daemon threads that must stop with it.
    pub fn drain_handle(&self) -> LoopHandle {
        self.net.handle()
    }

    /// Initiates the same graceful drain a wire `Shutdown` does, without
    /// the daemon's fan-out: new work is refused, accepted work is
    /// answered.
    pub fn shutdown(&self) {
        self.net.shutdown();
    }

    /// Blocks until the event loop, every connection and every worker
    /// have exited. Call [`shutdown`](Self::shutdown) first (or send a
    /// `Shutdown` request) or this blocks forever.
    pub fn join(self) {
        self.net.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn worker_loop<D: Daemon>(daemon: &D, jobs: &Receiver<Job>, index: usize) {
    let mut state = daemon.worker(index);
    while let Ok(job) = jobs.recv() {
        let twins = daemon.batch(&job, jobs);
        for job in std::iter::once(job).chain(twins) {
            run_job(daemon, &mut state, index, job);
        }
    }
}

fn run_job<D: Daemon>(daemon: &D, state: &mut D::Worker, index: usize, job: Job) {
    let stats = daemon.stats();
    stats.requests.record_accepted(&job.request);
    // Queue wait (enqueue to dequeue) and execution time feed separate
    // histograms: summing them into one "service time" conflates queue
    // pressure with execution cost and made service_p99 track load, not
    // the kernels.
    stats.record_queue_wait_micros(job.received.elapsed().as_micros() as u64);
    let started = Instant::now();
    // The executors validate their inputs, but a panic in a worker must
    // not take the pool down: surface it as an Internal error, and start
    // the worker's state over (a router's shard connection may have been
    // left mid-frame).
    let reply = catch_unwind(AssertUnwindSafe(|| daemon.execute(state, job.request)))
        .unwrap_or_else(|_| {
            *state = daemon.worker(index);
            Reply::Error {
                code: ErrorCode::Internal,
                message: "request execution panicked".to_string(),
            }
        });
    stats.record_service_micros(started.elapsed().as_micros() as u64);
    // A gone connection (client disconnected) drops the reply silently.
    job.handle.complete(job.conn, job.seq, encode_reply(&reply));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use chason_core::cache::CacheStats;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A daemon whose `Sleep { millis: 0 }` panics; its worker state is
    /// the number of states built so far.
    struct Panicky {
        stats: ServerStats,
        built: AtomicUsize,
    }

    impl Daemon for Panicky {
        type Worker = usize;
        const NAME: &'static str = "test";

        fn stats(&self) -> &ServerStats {
            &self.stats
        }

        fn snapshot(&self) -> StatsSnapshot {
            self.stats.snapshot(CacheStats::default(), 0, 0)
        }

        fn exposition(&self) -> String {
            String::new()
        }

        fn worker(&self, _index: usize) -> usize {
            self.built.fetch_add(1, Ordering::SeqCst) + 1
        }

        fn execute(&self, worker: &mut usize, request: Request) -> Reply {
            match request {
                Request::Sleep { millis: 0 } => panic!("injected worker panic"),
                _ => bad_request(format!("worker state {worker}")),
            }
        }
    }

    #[test]
    fn a_panicking_request_gets_internal_and_its_worker_a_fresh_state() {
        let daemon = Arc::new(Panicky {
            stats: ServerStats::new(),
            built: AtomicUsize::new(0),
        });
        let frontend =
            Frontend::start("127.0.0.1:0", daemon, 1, 4, 20, IDLE_TIMEOUT).expect("bind");
        let mut client = Client::connect(frontend.local_addr()).expect("connect");
        let mut error = |millis| match client.request(&Request::Sleep { millis }) {
            Ok(Reply::Error { code, message }) => (code, message),
            other => panic!("expected an error reply, got {other:?}"),
        };
        assert_eq!(
            error(1),
            (ErrorCode::BadRequest, "worker state 1".to_string())
        );
        assert_eq!(error(0).0, ErrorCode::Internal);
        // Same connection, same single worker, rebuilt state.
        assert_eq!(
            error(1),
            (ErrorCode::BadRequest, "worker state 2".to_string())
        );
        let stats = client.stats().expect("stats");
        assert_eq!(stats.requests_sleep, 3);
        assert_eq!(stats.service_samples, 3);
        frontend.shutdown();
        frontend.join();
    }
}
