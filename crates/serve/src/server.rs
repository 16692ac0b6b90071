//! The `chason serve` daemon: connection front end plus worker pool.
//!
//! # Threading model
//!
//! The connection edge runs in one of two modes
//! ([`ServeConfig::net`], `--net async|threads`), byte-identical at the
//! wire:
//!
//! * **async** (default): a [`chason_net`] readiness event loop — one
//!   accept thread plus one loop thread multiplex every connection,
//!   reassemble frames incrementally, and allow request pipelining.
//! * **threads**: the original thread-per-connection loop.
//!
//! Either way, `Stats`/`Metrics`/`Shutdown` are answered inline by the
//! connection layer; everything else is pushed onto one bounded MPMC
//! queue feeding a fixed pool of worker threads. The queue is the
//! backpressure boundary: when it is full, the front end replies
//! [`Reply::Busy`] immediately (load-shedding) instead of blocking, so a
//! saturated server stays responsive and observable — `Stats` never
//! queues. The shared connection-layer logic lives in
//! [`crate::frontend`].
//!
//! # Shutdown
//!
//! `Shutdown` (or [`Server::shutdown`]) flips a flag and stops the
//! accept path. In-flight requests finish and their replies flush; new
//! work is refused with [`ErrorCode::ShuttingDown`]. Once the connection
//! layer has dropped its queue handle the workers drain what remains and
//! exit: accepted work is always answered.

use crate::frontend::{
    start_async_frontend, threaded_listener_loop, ChspFrontend, EnqueueOutcome, Job,
};
use crate::proto::{
    Engine, ErrorCode, Reply, Request, SolverKind, StatsSnapshot, DEFAULT_MAX_FRAME,
};
use crate::stats::{lock_unpoisoned, ServerStats};
use chason::solvers::{conjugate_gradient, jacobi, CgOptions, SpmvBackend};
use chason_core::cache::LruCache;
use chason_core::plan::{matrix_fingerprint, PlanKey, SpmvPlan};
use chason_core::schedule::SchedulerConfig;
use chason_net::{NetMode, NetServer};
use chason_sim::{AcceleratorConfig, ChasonEngine, PlanningEngine, SerpensEngine, SimError};
use chason_sparse::{CooMatrix, CowCsr, MatrixDelta};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunable knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing queued requests.
    pub workers: usize,
    /// Bounded queue capacity between connections and workers; the
    /// load-shedding threshold.
    pub queue_capacity: usize,
    /// Plan-cache capacity (entries are `(engine, plan key)` pairs).
    pub plan_cache_capacity: usize,
    /// Resident-matrix cache capacity.
    pub matrix_cache_capacity: usize,
    /// How long a connection may sit idle (no frame progress) before the
    /// server hangs up.
    pub idle_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Largest accepted frame payload.
    pub max_frame_len: usize,
    /// Most same-matrix SpMV requests one worker dequeue may batch.
    pub batch_max: usize,
    /// Back-off hint carried by [`Reply::Busy`].
    pub retry_after_ms: u32,
    /// Scheduler configuration both simulated engines run under.
    pub sched: SchedulerConfig,
    /// Which connection front end to run (`--net async|threads`).
    pub net: NetMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            plan_cache_capacity: 64,
            matrix_cache_capacity: 32,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME,
            batch_max: 8,
            retry_after_ms: 20,
            sched: SchedulerConfig::paper(),
            net: NetMode::default(),
        }
    }
}

/// A resident matrix: the COO source of truth, a CSR mirror whose row
/// storage is structurally shared across versions, a version counter that
/// `Update` bumps, and the content fingerprint of this version. The cache
/// key (the load-time fingerprint) never changes; the version distinguishes
/// delta generations.
#[derive(Debug, Clone)]
struct ResidentMatrix {
    matrix: Arc<CooMatrix>,
    csr: Arc<CowCsr>,
    version: u64,
    /// `matrix_fingerprint(&matrix)`, computed once per version (at
    /// `LoadMatrix` it equals the handle) so plan lookups never re-hash
    /// the triplets.
    fingerprint: u64,
}

/// State shared by every connection and worker thread.
///
/// Lock ordering: `matrices` before `plans` (updates splice plans while
/// serialized under the matrices lock); no path acquires them in the
/// opposite nesting.
struct Shared {
    chason: ChasonEngine,
    serpens: SerpensEngine,
    /// Resident matrices keyed by load-time structural fingerprint.
    matrices: Mutex<LruCache<u64, ResidentMatrix>>,
    /// Plans keyed by engine family, matrix version, and `(fingerprint,
    /// scheduler config)`. The engine tag matters: both engines share one
    /// scheduler configuration here, so `PlanKey` alone would collide
    /// across families. The version keeps plans for superseded matrix
    /// generations from serving requests against the current one.
    plans: Mutex<LruCache<(Engine, u64, PlanKey), Arc<SpmvPlan>>>,
    stats: ServerStats,
    shutdown: AtomicBool,
    config: ServeConfig,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        let plan_stats = lock_unpoisoned(&self.plans).stats();
        let matrices = lock_unpoisoned(&self.matrices);
        let m = matrices.stats();
        drop(matrices);
        self.stats.snapshot(plan_stats, m.len as u64, m.evictions)
    }

    fn exposition(&self) -> String {
        let plan_stats = lock_unpoisoned(&self.plans).stats();
        let matrices = lock_unpoisoned(&self.matrices);
        let m = matrices.stats();
        drop(matrices);
        self.stats
            .render_exposition(plan_stats, m.len as u64, m.evictions)
    }

    fn matrix(&self, handle: u64) -> Option<ResidentMatrix> {
        lock_unpoisoned(&self.matrices).get(&handle).cloned()
    }

    /// The current version of a resident matrix, without touching
    /// recency or hit/miss counters (the batching predicate polls this).
    fn matrix_version(&self, handle: u64) -> Option<u64> {
        lock_unpoisoned(&self.matrices)
            .peek(&handle)
            .map(|r| r.version)
    }

    /// Returns the cached plan for (`engine`, `resident` at its version),
    /// keyed by the resident's stored fingerprint, scheduling and inserting
    /// it on a miss. Scheduling runs outside the cache lock, so concurrent
    /// misses on the same key may schedule twice; the loser's insert is a
    /// harmless replace.
    fn resolve_plan<E: PlanningEngine>(
        &self,
        wire: Engine,
        planner: &E,
        resident: &ResidentMatrix,
    ) -> Result<Arc<SpmvPlan>, SimError> {
        let key = (
            wire,
            resident.version,
            planner.plan_key(resident.fingerprint),
        );
        if let Some(plan) = lock_unpoisoned(&self.plans).get(&key) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(planner.plan(&resident.matrix)?);
        lock_unpoisoned(&self.plans).insert(key, Arc::clone(&plan));
        Ok(plan)
    }
}

/// The serve daemon's [`ChspFrontend`]: inline replies from [`Shared`],
/// the worker queue sender. Held only by the connection layer (threaded
/// listener or async service), so dropping that layer drops the last
/// queue sender and lets the workers drain and exit.
struct ServeFrontend {
    shared: Arc<Shared>,
    job_tx: Sender<Job>,
}

impl ChspFrontend for ServeFrontend {
    fn stats_reply(&self) -> Reply {
        self.shared.stats.requests.stats.add(1);
        Reply::Stats(self.shared.snapshot())
    }

    fn metrics_reply(&self) -> Reply {
        self.shared.stats.requests.metrics.add(1);
        Reply::MetricsText {
            text: self.shared.exposition(),
        }
    }

    fn on_wire_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    fn is_draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    fn draining_message(&self) -> String {
        "server is draining".to_string()
    }

    fn retry_after_ms(&self) -> u32 {
        self.shared.config.retry_after_ms
    }

    fn enqueue(&self, job: Job) -> EnqueueOutcome {
        match self.job_tx.try_send(job) {
            Ok(()) => {
                self.shared
                    .stats
                    .observe_queue_depth(self.job_tx.len() as u64);
                EnqueueOutcome::Accepted
            }
            Err(TrySendError::Full(_)) => {
                self.shared.stats.shed.add(1);
                EnqueueOutcome::Shed
            }
            Err(TrySendError::Disconnected(_)) => EnqueueOutcome::Disconnected,
        }
    }

    fn idle_timeout(&self) -> Duration {
        self.shared.config.idle_timeout
    }

    fn write_timeout(&self) -> Duration {
        self.shared.config.write_timeout
    }

    fn max_frame_len(&self) -> usize {
        self.shared.config.max_frame_len
    }
}

/// A running `chason serve` instance.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    listener_thread: Option<JoinHandle<()>>,
    net: Option<NetServer>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the configured connection front
    /// end, and returns immediately.
    ///
    /// # Errors
    ///
    /// I/O failures binding the listener or starting the front end.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            chason: ChasonEngine::new(AcceleratorConfig {
                sched: config.sched,
                ..AcceleratorConfig::chason()
            }),
            serpens: SerpensEngine::new(AcceleratorConfig {
                sched: config.sched,
                ..AcceleratorConfig::serpens()
            }),
            matrices: Mutex::new(LruCache::new(config.matrix_cache_capacity)),
            plans: Mutex::new(LruCache::new(config.plan_cache_capacity)),
            stats: ServerStats::new(),
            shutdown: AtomicBool::new(false),
            config: config.clone(),
        });
        let (job_tx, job_rx) = channel::bounded::<Job>(config.queue_capacity);
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = job_rx.clone();
                thread::Builder::new()
                    .name(format!("chason-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        drop(job_rx);
        let frontend = Arc::new(ServeFrontend {
            shared: Arc::clone(&shared),
            job_tx,
        });
        let (listener_thread, net) = match config.net {
            NetMode::Async => {
                let net = start_async_frontend(listener, frontend, shared.stats.registry())?;
                (None, Some(net))
            }
            NetMode::Threads => {
                let listener_thread = thread::Builder::new()
                    .name("chason-listener".to_string())
                    .spawn(move || threaded_listener_loop(&listener, &frontend, "chason-conn"))?;
                (Some(listener_thread), None)
            }
        };
        Ok(Server {
            local_addr,
            shared,
            listener_thread,
            net,
            workers: worker_handles,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Initiates the same graceful drain a `Shutdown` request does.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        match &self.net {
            Some(net) => net.shutdown(),
            // Nudge the threaded listener out of `accept`.
            None => {
                let _ = TcpStream::connect(self.local_addr);
            }
        }
    }

    /// Blocks until the connection front end, every connection, and every
    /// worker have exited. Call [`shutdown`](Self::shutdown) first (or
    /// send a `Shutdown` request) or this blocks forever.
    pub fn join(mut self) {
        if let Some(listener) = self.listener_thread.take() {
            let _ = listener.join();
        }
        if let Some(net) = self.net.take() {
            net.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn record_accepted_kind(shared: &Shared, request: &Request) {
    let counter = match request {
        Request::LoadMatrix { .. } => &shared.stats.requests.load,
        Request::Spmv { .. } => &shared.stats.requests.spmv,
        Request::Solve { .. } => &shared.stats.requests.solve,
        Request::Plan { .. } => &shared.stats.requests.plan,
        Request::Sleep { .. } => &shared.stats.requests.sleep,
        Request::Update { .. } => &shared.stats.requests.update,
        // Served inline, counted there.
        Request::Stats | Request::Metrics | Request::Shutdown => return,
    };
    counter.add(1);
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, rx: &Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        // Same-matrix SpMV batching: one dequeue resolves the matrix and
        // plan once, then drains queued twins (front-of-queue only, so
        // FIFO fairness holds for everything else).
        if let Request::Spmv { handle, engine, .. } = job.request {
            // The batch key is (handle, engine, version): an Update racing
            // on another worker bumps the version and closes the batch, so
            // a batch never mixes requests against different matrix
            // generations. (Front-of-queue-only draining already keeps a
            // queued Update ordered before any Spmv sent after it.)
            let version = shared.matrix_version(handle);
            let mut batch = vec![job];
            while batch.len() < shared.config.batch_max {
                let twin = rx.try_recv_if(|next| {
                    matches!(
                        next.request,
                        Request::Spmv {
                            handle: h,
                            engine: e,
                            ..
                        } if h == handle && e == engine
                    ) && shared.matrix_version(handle) == version
                });
                match twin {
                    Some(next) => batch.push(next),
                    None => break,
                }
            }
            if batch.len() > 1 {
                shared.stats.batched.add(batch.len() as u64 - 1);
            }
            for job in batch {
                run_job(shared, job);
            }
        } else {
            run_job(shared, job);
        }
    }
}

fn run_job(shared: &Arc<Shared>, job: Job) {
    record_accepted_kind(shared, &job.request);
    // Queue wait (enqueue to dequeue) and execution time feed separate
    // histograms: summing them into one "service time" conflates queue
    // pressure with execution cost and made service_p99 track load, not
    // the kernels.
    shared
        .stats
        .record_queue_wait_micros(job.received.elapsed().as_micros() as u64);
    let started = Instant::now();
    // The executors validate their inputs, but a panic in a worker must
    // not take the pool down: surface it as an Internal error instead.
    let reply =
        catch_unwind(AssertUnwindSafe(|| execute(shared, job.request))).unwrap_or_else(|_| {
            Reply::Error {
                code: ErrorCode::Internal,
                message: "request execution panicked".to_string(),
            }
        });
    shared
        .stats
        .record_service_micros(started.elapsed().as_micros() as u64);
    job.reply_tx.send(&reply); // receiver gone = client disconnected
}

fn bad_request(message: impl Into<String>) -> Reply {
    Reply::Error {
        code: ErrorCode::BadRequest,
        message: message.into(),
    }
}

fn unknown_handle(handle: u64) -> Reply {
    Reply::Error {
        code: ErrorCode::UnknownHandle,
        message: format!("no resident matrix with handle {handle:#018x}; send LoadMatrix first"),
    }
}

fn sim_error_reply(err: &SimError) -> Reply {
    Reply::Error {
        code: ErrorCode::BadRequest,
        message: err.to_string(),
    }
}

fn execute(shared: &Shared, request: Request) -> Reply {
    match request {
        Request::LoadMatrix {
            rows,
            cols,
            triplets,
        } => execute_load(shared, rows, cols, &triplets),
        Request::Spmv { handle, engine, x } => execute_spmv(shared, handle, engine, &x),
        Request::Solve {
            handle,
            engine,
            solver,
            max_iterations,
            tolerance,
            b,
        } => execute_solve(
            shared,
            handle,
            engine,
            solver,
            max_iterations,
            tolerance,
            &b,
        ),
        Request::Plan { handle, engine } => execute_plan(shared, handle, engine),
        Request::Update {
            handle,
            inserts,
            revalues,
            deletes,
        } => execute_update(shared, handle, &inserts, &revalues, &deletes),
        Request::Sleep { millis } => {
            thread::sleep(Duration::from_millis(u64::from(millis.min(10_000))));
            Reply::Done
        }
        Request::Stats | Request::Metrics | Request::Shutdown => Reply::Error {
            code: ErrorCode::Internal,
            message: "inline request reached the worker pool".to_string(),
        },
    }
}

fn execute_load(shared: &Shared, rows: u64, cols: u64, triplets: &[(u64, u64, f32)]) -> Reply {
    const MAX_DIM: u64 = 1 << 32;
    if rows == 0 || cols == 0 || rows > MAX_DIM || cols > MAX_DIM {
        return bad_request(format!("matrix dimensions {rows}x{cols} out of range"));
    }
    for &(r, c, v) in triplets {
        if !v.is_finite() || v == 0.0 {
            // §3.2 reserves the all-zero word for stalls, so an explicit
            // zero (or non-finite) value is unschedulable.
            return bad_request(format!(
                "unschedulable value {v} at ({r}, {c}): values must be finite and non-zero"
            ));
        }
    }
    let converted: Vec<(usize, usize, f32)> = triplets
        .iter()
        .map(|&(r, c, v)| (r as usize, c as usize, v))
        .collect();
    let matrix = match CooMatrix::from_triplets(rows as usize, cols as usize, converted) {
        Ok(matrix) => matrix,
        Err(err) => return bad_request(err.to_string()),
    };
    let handle = matrix_fingerprint(&matrix);
    let csr = Arc::new(CowCsr::from(&matrix));
    let mut matrices = lock_unpoisoned(&shared.matrices);
    // Re-loading a matrix whose resident copy has since been updated keeps
    // the updated (current-version) copy: the handle names a lineage. The
    // reply carries the lineage's current version so the caller can tell
    // the resident content has moved past the triplets it sent.
    let (fresh, version) = match matrices.peek(&handle) {
        Some(resident) => (false, resident.version),
        None => {
            matrices.insert(
                handle,
                ResidentMatrix {
                    matrix: Arc::new(matrix),
                    csr,
                    version: 0,
                    fingerprint: handle,
                },
            );
            (true, 0)
        }
    };
    Reply::Loaded {
        handle,
        rows,
        cols,
        nnz: triplets.len() as u64,
        fresh,
        version,
    }
}

fn execute_spmv(shared: &Shared, handle: u64, engine: Engine, x: &[f32]) -> Reply {
    let Some(resident) = shared.matrix(handle) else {
        return unknown_handle(handle);
    };
    if x.len() != resident.matrix.cols() {
        return bad_request(format!(
            "x has {} entries, matrix has {} columns",
            x.len(),
            resident.matrix.cols()
        ));
    }
    let start = Instant::now();
    let (y, simulated_nanos) = match engine {
        Engine::Cpu => (resident.csr.spmv(x), 0),
        Engine::Chason => match run_engine_spmv(shared, engine, &shared.chason, &resident, x) {
            Ok(out) => out,
            Err(err) => return sim_error_reply(&err),
        },
        Engine::Serpens => match run_engine_spmv(shared, engine, &shared.serpens, &resident, x) {
            Ok(out) => out,
            Err(err) => return sim_error_reply(&err),
        },
    };
    Reply::Vector {
        y,
        service_micros: start.elapsed().as_micros() as u64,
        simulated_nanos,
    }
}

fn run_engine_spmv<E: PlanningEngine>(
    shared: &Shared,
    wire: Engine,
    planner: &E,
    resident: &ResidentMatrix,
    x: &[f32],
) -> Result<(Vec<f32>, u64), SimError> {
    let plan = shared.resolve_plan(wire, planner, resident)?;
    let exec = planner.run_planned(&plan, x)?;
    let nanos = (exec.latency_seconds() * 1e9) as u64;
    Ok((exec.y, nanos))
}

/// A solver backend that routes every product through the server's shared
/// plan cache, so a solve warms the same cache later `Spmv` requests hit.
///
/// The solvers hand `spmv` the same matrix every iteration: the backend's
/// resident, whose cached fingerprint keys every lookup.
struct SharedPlanBackend<'a, E: PlanningEngine> {
    shared: &'a Shared,
    wire: Engine,
    resident: &'a ResidentMatrix,
    planner: &'a E,
    elapsed: f64,
}

impl<E: PlanningEngine> SpmvBackend for SharedPlanBackend<'_, E> {
    fn spmv(&mut self, matrix: &CooMatrix, x: &[f32]) -> Result<Vec<f32>, SimError> {
        debug_assert!(std::ptr::eq(matrix, &*self.resident.matrix));
        let plan = self
            .shared
            .resolve_plan(self.wire, self.planner, self.resident)?;
        let exec = self.planner.run_planned(&plan, x)?;
        self.elapsed += exec.latency_seconds();
        Ok(exec.y)
    }

    fn elapsed_seconds(&self) -> f64 {
        self.elapsed
    }

    fn name(&self) -> &'static str {
        self.wire.name()
    }
}

fn execute_solve(
    shared: &Shared,
    handle: u64,
    engine: Engine,
    solver: SolverKind,
    max_iterations: u32,
    tolerance: f64,
    b: &[f32],
) -> Reply {
    let Some(resident) = shared.matrix(handle) else {
        return unknown_handle(handle);
    };
    let matrix = Arc::clone(&resident.matrix);
    // The solvers assert on these; validate ahead so a bad request cannot
    // panic a worker.
    if matrix.rows() != matrix.cols() {
        return bad_request(format!(
            "solver requires a square system, matrix is {}x{}",
            matrix.rows(),
            matrix.cols()
        ));
    }
    if b.len() != matrix.rows() {
        return bad_request(format!(
            "b has {} entries, system has {} rows",
            b.len(),
            matrix.rows()
        ));
    }
    if !tolerance.is_finite() || tolerance < 0.0 {
        return bad_request(format!(
            "tolerance {tolerance} must be finite and non-negative"
        ));
    }
    if solver == SolverKind::Jacobi {
        let mut diag = vec![false; matrix.rows()];
        for &(r, c, v) in matrix.iter() {
            if r == c && v != 0.0 {
                diag[r] = true;
            }
        }
        if let Some(row) = diag.iter().position(|&set| !set) {
            return bad_request(format!(
                "Jacobi requires a non-zero diagonal; row {row} has none"
            ));
        }
    }
    let options = CgOptions {
        max_iterations: max_iterations as usize,
        tolerance,
    };
    let start = Instant::now();
    let run = |backend: &mut dyn SpmvBackend| match solver {
        SolverKind::Cg => conjugate_gradient(backend, &matrix, b, options),
        SolverKind::Jacobi => jacobi(backend, &matrix, b, options),
    };
    let (result, simulated_nanos) = match engine {
        Engine::Cpu => {
            let mut backend = chason::solvers::CpuBackend::default();
            (run(&mut backend), 0)
        }
        Engine::Chason => {
            let mut backend = SharedPlanBackend {
                shared,
                wire: engine,
                resident: &resident,
                planner: &shared.chason,
                elapsed: 0.0,
            };
            let result = run(&mut backend);
            (result, (backend.elapsed * 1e9) as u64)
        }
        Engine::Serpens => {
            let mut backend = SharedPlanBackend {
                shared,
                wire: engine,
                resident: &resident,
                planner: &shared.serpens,
                elapsed: 0.0,
            };
            let result = run(&mut backend);
            (result, (backend.elapsed * 1e9) as u64)
        }
    };
    match result {
        Ok(result) => Reply::Solved {
            solution: result.solution,
            iterations: result.iterations as u64,
            residual: result.residual,
            converged: result.converged,
            service_micros: start.elapsed().as_micros() as u64,
            simulated_nanos,
        },
        Err(err) => sim_error_reply(&err),
    }
}

fn execute_plan(shared: &Shared, handle: u64, engine: Engine) -> Reply {
    let Some(resident) = shared.matrix(handle) else {
        return unknown_handle(handle);
    };
    let plan = match engine {
        Engine::Cpu => return bad_request("the cpu backend has no schedule plan"),
        Engine::Chason => shared.resolve_plan(engine, &shared.chason, &resident),
        Engine::Serpens => shared.resolve_plan(engine, &shared.serpens, &resident),
    };
    match plan {
        Ok(plan) => {
            let mut bytes = Vec::new();
            match chason_core::export::write_plan(&mut bytes, &plan) {
                Ok(()) => Reply::PlanArtifact { bytes },
                Err(err) => Reply::Error {
                    code: ErrorCode::Internal,
                    message: format!("plan serialization failed: {err}"),
                },
            }
        }
        Err(err) => sim_error_reply(&err),
    }
}

/// Takes the cached plan for the outgoing matrix generation (if any),
/// resplices its dirty windows in place, and re-inserts it under the new
/// generation's key. Returns `(windows_replanned, windows_total)`, or
/// `None` when there was no cached plan or the splice failed — either way
/// the stale plan is gone and the next request schedules from scratch.
fn splice_plan<E: PlanningEngine>(
    shared: &Shared,
    wire: Engine,
    planner: &E,
    outgoing: &ResidentMatrix,
    incoming: &ResidentMatrix,
    delta: &MatrixDelta,
) -> Option<(u64, u64)> {
    let old_key = (
        wire,
        outgoing.version,
        planner.plan_key(outgoing.fingerprint),
    );
    let plan = lock_unpoisoned(&shared.plans).remove(&old_key)?;
    let mut spliced = (*plan).clone();
    match planner.replan_delta(&mut spliced, &incoming.matrix, delta) {
        Ok(report) => {
            let windows_total = spliced.window_count() as u64;
            let new_key = (
                wire,
                incoming.version,
                planner.plan_key(incoming.fingerprint),
            );
            lock_unpoisoned(&shared.plans).insert(new_key, Arc::new(spliced));
            Some((report.windows_replanned as u64, windows_total))
        }
        Err(_) => None,
    }
}

fn execute_update(
    shared: &Shared,
    handle: u64,
    inserts: &[(u64, u64, f32)],
    revalues: &[(u64, u64, f32)],
    deletes: &[(u64, u64)],
) -> Reply {
    for &(r, c, v) in inserts.iter().chain(revalues.iter()) {
        if !v.is_finite() || v == 0.0 {
            // Same rule as LoadMatrix: §3.2 reserves the all-zero word for
            // stalls. Deleting is the way to write a zero.
            return bad_request(format!(
                "unschedulable value {v} at ({r}, {c}): values must be finite and non-zero"
            ));
        }
    }
    // Updates to a handle serialize under the matrices lock so version
    // N+1 is always derived from version N (lock ordering: matrices
    // before plans).
    let mut matrices = lock_unpoisoned(&shared.matrices);
    let Some(resident) = matrices.get(&handle).cloned() else {
        return unknown_handle(handle);
    };
    let mut delta = MatrixDelta::for_matrix(&resident.matrix);
    let push = |result: Result<(), chason_sparse::SparseError>| result.map_err(|e| e.to_string());
    for &(r, c, v) in inserts {
        if let Err(e) = push(delta.push_insert(r as usize, c as usize, v)) {
            return bad_request(e);
        }
    }
    for &(r, c, v) in revalues {
        if let Err(e) = push(delta.push_revalue(r as usize, c as usize, v)) {
            return bad_request(e);
        }
    }
    for &(r, c) in deletes {
        if let Err(e) = push(delta.push_delete(r as usize, c as usize)) {
            return bad_request(e);
        }
    }
    let updated = match delta.apply(&resident.matrix) {
        Ok(updated) => updated,
        Err(err) => return bad_request(err.to_string()),
    };
    let csr = match resident.csr.apply_delta(&delta) {
        Ok(csr) => csr,
        Err(err) => {
            return Reply::Error {
                code: ErrorCode::Internal,
                message: format!("csr delta diverged from coo delta: {err}"),
            }
        }
    };
    let incoming = ResidentMatrix {
        fingerprint: matrix_fingerprint(&updated),
        matrix: Arc::new(updated),
        csr: Arc::new(csr),
        version: resident.version + 1,
    };
    let mut plans_spliced: u32 = 0;
    let mut windows_replanned: u64 = 0;
    let mut windows_total: u64 = 0;
    let chason = splice_plan(
        shared,
        Engine::Chason,
        &shared.chason,
        &resident,
        &incoming,
        &delta,
    );
    let serpens = splice_plan(
        shared,
        Engine::Serpens,
        &shared.serpens,
        &resident,
        &incoming,
        &delta,
    );
    for (replanned, total) in [chason, serpens].into_iter().flatten() {
        plans_spliced += 1;
        windows_replanned += replanned;
        windows_total = windows_total.max(total);
    }
    shared.stats.plans_spliced.add(u64::from(plans_spliced));
    shared.stats.replan_windows.add(windows_replanned);
    let version = incoming.version;
    let nnz = incoming.matrix.nnz() as u64;
    matrices.insert(handle, incoming);
    Reply::Updated {
        version,
        nnz,
        plans_spliced,
        windows_replanned,
        windows_total,
    }
}
