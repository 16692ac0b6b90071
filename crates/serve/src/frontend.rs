//! The CHSP connection front end, shared by `chason serve` and
//! `chason route`.
//!
//! Both daemons accept the same wire protocol, answer
//! `Stats`/`Metrics`/`Shutdown` inline, refuse queued work while
//! draining, and shed with [`Reply::Busy`] when their bounded worker
//! queue is full. This module captures that contract once, behind the
//! [`ChspFrontend`] trait, and runs it as a [`chason_net::Service`]
//! ([`ChspService`]) on the readiness event loop, where one thread
//! multiplexes every connection and requests may be pipelined.
//!
//! Replies are written strictly in per-connection request order (the
//! event loop re-orders worker completions by sequence number), and the
//! idle-timeout clock resets on any completed frame in either direction.
//! The committed CHSP transcript (`tests/golden/chsp_transcript.bin`,
//! replayed by `crates/serve/tests/transcript.rs`) pins the wire
//! behaviour byte for byte.

use crate::proto::{decode_request, encode_reply, ErrorCode, Reply, Request};
use chason_net::server::{FrameOutcome, NetConfig, NetServer};
use chason_net::{LoopHandle, Service};
use chason_telemetry::metrics::Registry;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a worker's reply goes: the event loop's completion slot for the
/// frame. The worker encodes the reply itself, off the loop thread.
pub struct ReplySink {
    /// Completion handle into the event loop.
    pub handle: LoopHandle,
    /// Connection the frame arrived on.
    pub conn: u64,
    /// Per-connection sequence number of the frame.
    pub seq: u64,
}

impl ReplySink {
    /// Delivers the reply. A gone connection (client disconnected) is not
    /// an error.
    pub fn send(self, reply: &Reply) {
        self.handle
            .complete(self.conn, self.seq, encode_reply(reply));
    }
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplySink")
            .field("conn", &self.conn)
            .field("seq", &self.seq)
            .finish()
    }
}

/// A unit of queued work: the decoded request plus where its reply goes.
#[derive(Debug)]
pub struct Job {
    /// The decoded request.
    pub request: Request,
    /// Reply destination.
    pub reply_tx: ReplySink,
    /// Enqueue time, for the queue-wait histogram.
    pub received: Instant,
}

/// What became of an enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Queued; a worker will deliver the reply through the job's sink.
    Accepted,
    /// Queue full; the job was shed (the implementation counted it) and
    /// the caller replies [`Reply::Busy`].
    Shed,
    /// The worker pool is gone; the caller replies `ShuttingDown` and
    /// closes.
    Disconnected,
}

/// The pieces of a CHSP daemon the connection layer needs: inline
/// replies, drain state, and the worker queue. `chason serve` and
/// `chason route` each implement this once.
pub trait ChspFrontend: Send + Sync + 'static {
    /// Answers `Stats` (implementations bump their own counter).
    fn stats_reply(&self) -> Reply;
    /// Answers `Metrics` (implementations bump their own counter).
    fn metrics_reply(&self) -> Reply;
    /// A wire `Shutdown` arrived: set the drain flag and do any
    /// daemon-specific fan-out (the router forwards to its shards here)
    /// BEFORE the `Done` acknowledgement is sent.
    fn on_wire_shutdown(&self);
    /// Whether the daemon is draining (new queued work is refused).
    fn is_draining(&self) -> bool;
    /// Human-readable drain refusal (`"server is draining"` /
    /// `"router is draining"`).
    fn draining_message(&self) -> String;
    /// Back-off hint carried by [`Reply::Busy`].
    fn retry_after_ms(&self) -> u32;
    /// Offers a job to the bounded worker queue; never blocks. A `Shed`
    /// return has already been counted in the daemon's shed statistics.
    fn enqueue(&self, job: Job) -> EnqueueOutcome;
    /// How long a connection may sit idle before the daemon hangs up.
    fn idle_timeout(&self) -> Duration;
    /// Largest accepted frame payload.
    fn max_frame_len(&self) -> usize;
}

fn frame_too_large_reply(len: u64, cap: u64) -> Reply {
    Reply::Error {
        code: ErrorCode::FrameTooLarge,
        message: format!("frame of {len} bytes exceeds the {cap}-byte cap"),
    }
}

/// The request handling of [`ChspFrontend`] as a [`chason_net::Service`]:
/// run by the readiness event loop, so one thread serves every
/// connection and clients may pipeline.
pub struct ChspService<F> {
    frontend: Arc<F>,
    handle: LoopHandle,
}

impl<F: ChspFrontend> Service for ChspService<F> {
    fn on_frame(&mut self, conn: u64, seq: u64, payload: Vec<u8>) -> FrameOutcome {
        let request = match decode_request(&payload) {
            Ok(request) => request,
            Err(err) => {
                return FrameOutcome::Reply(encode_reply(&Reply::Error {
                    code: ErrorCode::MalformedFrame,
                    message: err.to_string(),
                }));
            }
        };
        match request {
            Request::Stats => FrameOutcome::Reply(encode_reply(&self.frontend.stats_reply())),
            Request::Metrics => FrameOutcome::Reply(encode_reply(&self.frontend.metrics_reply())),
            Request::Shutdown => {
                // Daemon-specific fan-out first ("Done" acknowledges a
                // completed drain start), then stop the loop's accept
                // thread and begin the drain.
                self.frontend.on_wire_shutdown();
                self.handle.begin_drain();
                FrameOutcome::ReplyThenClose(encode_reply(&Reply::Done))
            }
            request => {
                if self.frontend.is_draining() {
                    return FrameOutcome::ReplyThenClose(encode_reply(&Reply::Error {
                        code: ErrorCode::ShuttingDown,
                        message: self.frontend.draining_message(),
                    }));
                }
                let job = Job {
                    request,
                    reply_tx: ReplySink {
                        handle: self.handle.clone(),
                        conn,
                        seq,
                    },
                    received: Instant::now(),
                };
                match self.frontend.enqueue(job) {
                    EnqueueOutcome::Accepted => FrameOutcome::Pending,
                    EnqueueOutcome::Shed => FrameOutcome::Reply(encode_reply(&Reply::Busy {
                        retry_after_ms: self.frontend.retry_after_ms(),
                    })),
                    EnqueueOutcome::Disconnected => {
                        FrameOutcome::ReplyThenClose(encode_reply(&Reply::Error {
                            code: ErrorCode::ShuttingDown,
                            message: "worker pool has stopped".to_string(),
                        }))
                    }
                }
            }
        }
    }

    fn on_oversized(&mut self, _conn: u64, len: u64, cap: u64) -> Option<Vec<u8>> {
        Some(encode_reply(&frame_too_large_reply(len, cap)))
    }
}

/// Starts the readiness-loop front end over `frontend`, registering
/// `net_*` metrics into `registry` (the daemon's own registry, so one
/// `Metrics` reply exposes both families).
///
/// # Errors
///
/// Poller or thread-spawn failures.
pub fn start_async_frontend<F: ChspFrontend>(
    listener: TcpListener,
    frontend: Arc<F>,
    registry: &Registry,
) -> std::io::Result<NetServer> {
    let config = NetConfig {
        idle_timeout: frontend.idle_timeout(),
        max_frame_len: frontend.max_frame_len(),
        ..NetConfig::default()
    };
    NetServer::start(listener, config, registry, move |handle| ChspService {
        frontend,
        handle,
    })
}
