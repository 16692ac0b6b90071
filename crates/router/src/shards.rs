//! Per-shard connection management: pooled blocking clients with
//! reconnect-on-failure, bounded `Busy` retry, and a shared liveness
//! board.
//!
//! A request goes out in two halves, `ShardConn::begin` (write) and
//! `ShardConn::finish` (read), so one thread can have every shard
//! working at once; [`ShardConn::call`] is the two back to back.
//!
//! Each router worker owns one [`ShardConn`] per backend, so scatter
//! traffic never contends on a shared connection lock; the only shared
//! state is the [`HealthBoard`] of atomic liveness flags, written both by
//! the background health checker and by workers observing failures
//! first-hand.

use chason_serve::client::{Client, ClientError, RetryPolicy};
use chason_serve::proto::{ErrorCode, Reply, Request};
use chason_telemetry::metrics::Counter;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What went wrong talking to one shard.
#[derive(Debug)]
pub enum ShardErrorKind {
    /// Could not connect, the connection broke mid-request, or the shard
    /// is draining for shutdown.
    Unavailable(String),
    /// The shard still shed the request after every allowed retry.
    Busy {
        /// The shard's last back-off hint.
        retry_after_ms: u32,
    },
    /// The shard answered with a typed CHSP error.
    Server {
        /// The shard's error code.
        code: ErrorCode,
        /// The shard's rendered message.
        message: String,
    },
    /// The shard answered with a reply of the wrong type for the request.
    Unexpected(String),
}

/// A failure attributed to a specific shard.
#[derive(Debug)]
pub struct ShardError {
    /// Index of the failing shard in the router's backend list.
    pub shard: usize,
    /// Failure class.
    pub kind: ShardErrorKind,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ShardErrorKind::Unavailable(detail) => {
                write!(f, "shard {} unavailable: {detail}", self.shard)
            }
            ShardErrorKind::Busy { retry_after_ms } => write!(
                f,
                "shard {} still busy after retries; last hint {retry_after_ms} ms",
                self.shard
            ),
            ShardErrorKind::Server { code, message } => {
                write!(f, "shard {} error ({code:?}): {message}", self.shard)
            }
            ShardErrorKind::Unexpected(what) => {
                write!(f, "shard {} sent an unexpected reply: {what}", self.shard)
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Shared per-shard liveness flags.
///
/// Written by the health-check thread (periodic `Stats` pings) and by
/// workers when a request fails or succeeds; read by [`Stats`] reporting.
/// The board is advisory — workers always attempt the request rather than
/// fast-failing on a stale flag.
#[derive(Debug)]
pub struct HealthBoard {
    up: Vec<AtomicBool>,
}

impl HealthBoard {
    /// A board with every shard optimistically marked up.
    pub fn new(shards: usize) -> Self {
        HealthBoard {
            up: (0..shards).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.up.len()
    }

    /// Marks shard `k` up or down.
    pub fn set(&self, k: usize, up: bool) {
        if let Some(flag) = self.up.get(k) {
            flag.store(up, Ordering::SeqCst);
        }
    }

    /// Whether shard `k` was up at last contact.
    pub fn is_up(&self, k: usize) -> bool {
        self.up
            .get(k)
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Shards currently marked up.
    pub fn up_count(&self) -> usize {
        self.up
            .iter()
            .filter(|flag| flag.load(Ordering::SeqCst))
            .count()
    }
}

/// One worker's pooled connection to one backend shard.
///
/// Connects lazily, reconnects after I/O failures (resending at most once
/// and only for idempotent requests), and retries `Busy` replies with the
/// policy's bounded jittered back-off before giving up.
#[derive(Debug)]
pub struct ShardConn {
    index: usize,
    addr: String,
    client: Option<Client>,
    retry: RetryPolicy,
    jitter: u64,
    health: Arc<HealthBoard>,
    requests: Arc<Counter>,
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
}

impl ShardConn {
    /// Creates an unconnected conn for shard `index` at `addr`.
    ///
    /// `requests` / `retries` / `reconnects` are the telemetry counters
    /// this conn bumps (resolved once so the hot path has no name
    /// lookups); `jitter_seed` desynchronises this conn's back-off from
    /// its siblings'.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index: usize,
        addr: String,
        retry: RetryPolicy,
        jitter_seed: u64,
        health: Arc<HealthBoard>,
        requests: Arc<Counter>,
        retries: Arc<Counter>,
        reconnects: Arc<Counter>,
    ) -> Self {
        ShardConn {
            index,
            addr,
            client: None,
            retry,
            jitter: jitter_seed,
            health,
            requests,
            retries,
            reconnects,
        }
    }

    fn error(&self, kind: ShardErrorKind) -> ShardError {
        ShardError {
            shard: self.index,
            kind,
        }
    }

    /// Sends one request and reads its reply, pooling the connection
    /// across calls: `begin` then `finish`.
    ///
    /// * `Busy` replies are retried up to the policy's attempt budget,
    ///   sleeping the maximum of the shard's hint and the jittered
    ///   exponential back-off.
    /// * On an I/O or protocol failure the connection is dropped; if the
    ///   failure hit a pooled (possibly stale) connection and
    ///   `resend_safe` is set, the conn reconnects and resends once.
    ///   Non-idempotent requests (`Update`) must pass `resend_safe =
    ///   false` — a reply lost in transit may mean the shard already
    ///   applied the delta.
    /// * A `ShuttingDown` reply counts as unavailable: the shard is
    ///   refusing new work.
    ///
    /// # Errors
    ///
    /// [`ShardError`] attributing the failure to this shard.
    pub fn call(&mut self, request: &Request, resend_safe: bool) -> Result<Reply, ShardError> {
        let in_flight = self.begin(request, resend_safe)?;
        self.finish(request, in_flight)
    }

    /// The send half of [`call`](Self::call): connects if no connection
    /// is pooled and writes `request` without waiting for the reply, so a
    /// caller can start every shard before reading any. A write that
    /// fails on a pooled connection follows `call`'s resend rule.
    ///
    /// # Errors
    ///
    /// [`ShardError`] when the shard cannot be reached.
    pub(crate) fn begin(
        &mut self,
        request: &Request,
        resend_safe: bool,
    ) -> Result<InFlight, ShardError> {
        self.send(request, 0, u32::from(resend_safe))
    }

    /// The receive half of [`call`](Self::call): reads the reply to the
    /// request `begin` wrote, retrying `Busy` and resending after a lost
    /// pooled connection as `call` describes. `request` must be the one
    /// passed to `begin`. The connection returns to the pool only after a
    /// complete reply.
    ///
    /// # Errors
    ///
    /// [`ShardError`] attributing the failure to this shard.
    pub(crate) fn finish(
        &mut self,
        request: &Request,
        mut in_flight: InFlight,
    ) -> Result<Reply, ShardError> {
        loop {
            let InFlight {
                mut client,
                pooled,
                mut busy_attempts,
                mut resends_left,
            } = in_flight;
            in_flight = match client.recv() {
                Ok(Reply::Busy { retry_after_ms }) => {
                    self.client = Some(client);
                    busy_attempts += 1;
                    if busy_attempts >= self.retry.max_attempts.max(1) {
                        return Err(self.error(ShardErrorKind::Busy { retry_after_ms }));
                    }
                    self.retries.add(1);
                    let sleep_ms =
                        self.retry
                            .backoff_ms(busy_attempts - 1, retry_after_ms, &mut self.jitter);
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                    self.send(request, busy_attempts, resends_left)?
                }
                Ok(Reply::Error {
                    code: ErrorCode::ShuttingDown,
                    message,
                }) => {
                    self.health.set(self.index, false);
                    return Err(self.error(ShardErrorKind::Unavailable(format!(
                        "shard is draining: {message}"
                    ))));
                }
                Ok(Reply::Error { code, message }) => {
                    // The shard is alive and answered; the request failed.
                    self.client = Some(client);
                    self.health.set(self.index, true);
                    return Err(self.error(ShardErrorKind::Server { code, message }));
                }
                Ok(reply) => {
                    self.client = Some(client);
                    self.health.set(self.index, true);
                    return Ok(reply);
                }
                Err(err) => {
                    drop(client);
                    self.lost(err, pooled, &mut resends_left)?;
                    self.send(request, busy_attempts, resends_left)?
                }
            };
        }
    }

    /// Writes `request` on the pooled connection (or a fresh one),
    /// resending once on a lost pooled connection if the budget allows.
    fn send(
        &mut self,
        request: &Request,
        busy_attempts: u32,
        mut resends_left: u32,
    ) -> Result<InFlight, ShardError> {
        loop {
            let pooled = self.client.is_some();
            let mut client = match self.client.take() {
                Some(client) => client,
                None => match Client::connect(&self.addr) {
                    Ok(client) => client,
                    Err(e) => {
                        self.health.set(self.index, false);
                        return Err(self.error(ShardErrorKind::Unavailable(format!(
                            "connect to {} failed: {e}",
                            self.addr
                        ))));
                    }
                },
            };
            self.requests.add(1);
            match client.send(request) {
                Ok(()) => {
                    return Ok(InFlight {
                        client,
                        pooled,
                        busy_attempts,
                        resends_left,
                    })
                }
                Err(err) => {
                    drop(client);
                    self.lost(err, pooled, &mut resends_left)?;
                }
            }
        }
    }

    /// Handles a connection that failed mid-request (already dropped):
    /// `Ok` when the request may be resent on a fresh connection — the
    /// failure was an I/O error on a pooled (possibly stale: shard
    /// restarted, idle timeout) connection and a resend is left —
    /// otherwise the shard is marked down and the error returned.
    fn lost(
        &mut self,
        err: ClientError,
        pooled: bool,
        resends_left: &mut u32,
    ) -> Result<(), ShardError> {
        let detail = match err {
            ClientError::Io(_) if pooled && *resends_left > 0 => {
                *resends_left -= 1;
                self.reconnects.add(1);
                return Ok(());
            }
            ClientError::Io(e) => e.to_string(),
            other => other.to_string(),
        };
        self.health.set(self.index, false);
        Err(self.error(ShardErrorKind::Unavailable(detail)))
    }
}

/// A request `ShardConn::begin` wrote whose reply `ShardConn::finish`
/// has yet to read. It owns the connection the
/// reply will arrive on: dropping it unfinished closes that connection,
/// so a stale reply can never answer a later request.
#[derive(Debug)]
#[must_use = "read the reply with `ShardConn::finish`"]
pub(crate) struct InFlight {
    client: Client,
    /// Whether `client` came from the pool (and may have gone stale).
    pooled: bool,
    busy_attempts: u32,
    resends_left: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_board_flags_flip() {
        let board = HealthBoard::new(3);
        assert_eq!(board.up_count(), 3);
        board.set(1, false);
        assert!(!board.is_up(1));
        assert!(board.is_up(0));
        assert_eq!(board.up_count(), 2);
        board.set(1, true);
        assert_eq!(board.up_count(), 3);
        // Out-of-range indexes are ignored, not panics.
        board.set(9, false);
        assert!(!board.is_up(9));
    }

    #[test]
    fn dead_address_is_unavailable() {
        let board = Arc::new(HealthBoard::new(1));
        let counter = || Arc::new(Counter::new());
        let mut conn = ShardConn::new(
            0,
            // Reserved port on localhost: connect fails fast.
            "127.0.0.1:1".to_string(),
            RetryPolicy::default(),
            7,
            Arc::clone(&board),
            counter(),
            counter(),
            counter(),
        );
        let err = conn.call(&Request::Stats, true).unwrap_err();
        assert_eq!(err.shard, 0);
        assert!(matches!(err.kind, ShardErrorKind::Unavailable(_)), "{err}");
        assert!(!board.is_up(0));
    }
}
