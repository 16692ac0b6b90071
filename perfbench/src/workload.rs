//! The three workloads: seeded matrices, per-connection request programs
//! and the reference answer for every request, all computed before any
//! server starts.
//!
//! A program is one *epoch* of requests that a connection replays in a
//! loop. Every matrix it updates is restored by the end of the epoch, so
//! the references stay valid on every pass. Each pass scales `x` (and
//! `b`) by a different power of two: the products and the CG iterates
//! scale exactly, so the requests stay distinct while the references are
//! the epoch's own, scaled.

use crate::oracle::{Expect, SolveWant};
use chason::solvers::{conjugate_gradient, CgOptions, CpuBackend, EngineBackend, SpmvBackend};
use chason_conformance::ulp::row_scales;
use chason_core::schedule::SchedulerConfig;
use chason_serve::proto::{Engine, Request, SolverKind};
use chason_sim::{AcceleratorConfig, ChasonEngine};
use chason_sparse::generators::power_law;
use chason_sparse::{CooMatrix, CsrMatrix, MatrixDelta};
use std::sync::Arc;

/// Client connections per workload (the bench host has 2 CPUs).
pub const CONNECTIONS: usize = 2;

/// Rows of the `engine-spmv` matrix: above one 8192-column window, so
/// the plan spans two.
pub const ENGINE_ROWS: usize = 9000;
/// CG iteration budget on `engine-spmv` (tolerance 0: every solve runs
/// exactly this many replays).
pub const ENGINE_CG_BUDGET: u32 = 8;
/// Side of the `router-cg` 2-D grid (8100 rows).
pub const GRID_SIDE: usize = 90;
/// Diagonal shift of the `router-cg` grid operator; sets the condition
/// number, hence the CG iteration count at tolerance 1e-6 (about 80).
pub const GRID_SHIFT: f32 = 0.02;
/// CG tolerance and iteration cap on `router-cg`.
pub const ROUTER_CG_TOLERANCE: f64 = 1e-6;
const ROUTER_CG_CAP: u32 = 1000;
/// Matrix sizes each `churn-pipelined` connection owns.
pub const CHURN_ROWS: [usize; 3] = [400, 900, 2000];
/// Shards behind the router on `router-cg`.
pub const SHARDS: usize = 3;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plan replay on one large power-law matrix.
    EngineSpmv,
    /// Small matrices, pipelined reads beside diagonal updates.
    ChurnPipelined,
    /// A 3-shard router running SpMV and router-side CG.
    RouterCg,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::EngineSpmv,
        Workload::ChurnPipelined,
        Workload::RouterCg,
    ];

    /// The CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineSpmv => "engine-spmv",
            Workload::ChurnPipelined => "churn-pipelined",
            Workload::RouterCg => "router-cg",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests each connection keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::ChurnPipelined => 8,
            Workload::EngineSpmv | Workload::RouterCg => 1,
        }
    }

    /// Whether traffic goes through a router.
    pub fn routed(self) -> bool {
        self == Workload::RouterCg
    }

    /// Requests in one epoch of a connection's program.
    fn epoch(self) -> usize {
        match self {
            Workload::ChurnPipelined => 1000,
            Workload::EngineSpmv | Workload::RouterCg => 100,
        }
    }

    /// Fewest samples of each kind a timed phase must collect so every
    /// reported percentile has at least ten samples beyond it (p99 needs
    /// 1000, p90 needs 100). `router-cg` collects ten such blocks of
    /// `Spmv`: its tail varies most from block to block, and the reported
    /// p99 is the median over blocks.
    pub fn min_samples(self) -> [u64; Kind::COUNT] {
        let mut min = [0; Kind::COUNT];
        min[Kind::Spmv as usize] = if self == Workload::RouterCg {
            10_000
        } else {
            1000
        };
        match self {
            Workload::EngineSpmv | Workload::RouterCg => min[Kind::Solve as usize] = 100,
            Workload::ChurnPipelined => min[Kind::Update as usize] = 1000,
        }
        min
    }
}

/// Request kinds, as counted in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Spmv`.
    Spmv = 0,
    /// `Solve`.
    Solve = 1,
    /// `Update`.
    Update = 2,
    /// `Stats`.
    Stats = 3,
}

impl Kind {
    /// Number of kinds.
    pub const COUNT: usize = 4;
    /// Report names, indexed by `Kind as usize`.
    pub const NAMES: [&'static str; Kind::COUNT] = ["spmv", "solve", "update", "stats"];
}

/// One request of a program with its reference answer.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// What the request is.
    pub kind: Kind,
    /// Index into the connection's matrices (unused by `Stats`).
    pub matrix: usize,
    /// Engine of a `Spmv` / `Solve`.
    pub engine: Engine,
    /// `x` of a `Spmv`, `b` of a `Solve`; empty otherwise.
    pub vector: Arc<Vec<f32>>,
    /// Iteration cap and tolerance of a `Solve`.
    pub solve: (u32, f64),
    /// Diagonal revalues of an `Update`.
    pub revalues: Vec<(u64, u64, f32)>,
    /// The reference answer at scale 1.
    pub expect: Expect,
}

impl PlannedOp {
    /// The wire request for this op against `handles`, with `x`/`b`
    /// scaled by `scale` (a power of two).
    pub fn request(&self, handles: &[u64], scale: f32) -> Request {
        let scaled = || self.vector.iter().map(|&v| v * scale).collect();
        match self.kind {
            Kind::Spmv => Request::Spmv {
                handle: handles[self.matrix],
                engine: self.engine,
                x: scaled(),
            },
            Kind::Solve => Request::Solve {
                handle: handles[self.matrix],
                engine: self.engine,
                solver: SolverKind::Cg,
                max_iterations: self.solve.0,
                tolerance: self.solve.1,
                b: scaled(),
            },
            Kind::Update => Request::Update {
                handle: handles[self.matrix],
                inserts: Vec::new(),
                revalues: self.revalues.clone(),
                deletes: Vec::new(),
            },
            Kind::Stats => Request::Stats,
        }
    }
}

/// One connection's matrices and request epoch.
#[derive(Debug, Clone)]
pub struct Program {
    /// Matrices the connection loads during setup, as loaded.
    pub matrices: Vec<Arc<CooMatrix>>,
    /// Engines whose first request builds a plan during setup.
    pub warm_engines: Vec<Engine>,
    /// One epoch of requests.
    pub ops: Vec<PlannedOp>,
}

/// The scale of epoch pass `pass`: powers of two from 2^-8 to 2^8.
pub fn pass_scale(pass: usize) -> f32 {
    let exponent = (pass % 17) as i32 - 8;
    2f32.powi(exponent)
}

/// SplitMix64, the seeded stream every input is drawn from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `counts[k]` copies of each index `k`, in a seeded random order:
    /// an epoch's exact request mix.
    pub fn shuffled_mix(&mut self, counts: &[usize]) -> Vec<usize> {
        let mut mix: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
            .collect();
        for i in (1..mix.len()).rev() {
            let j = self.below(i + 1);
            mix.swap(i, j);
        }
        mix
    }

    /// Uniform in `[lo, hi)`, on a 1/1024 grid.
    pub fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * (self.below(1024) as f32 / 1024.0)
    }

    /// A dense vector with entries in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.range(-1.0, 1.0)).collect()
    }
}

/// A symmetric, strictly diagonally dominant (hence SPD) matrix on the
/// undirected edge set `edges`, with weights in `[0.05, 0.45)` and
/// diagonal `row sum + shift`.
#[allow(clippy::expect_used)] // coordinates are in range by construction
pub fn spd_on_edges(
    n: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
    shift: f32,
    rng: &mut Rng,
) -> CooMatrix {
    let mut triplets = Vec::new();
    let mut row_sum = vec![0.0f32; n];
    for (r, c) in edges {
        if r == c {
            continue;
        }
        let v = rng.range(0.05, 0.45);
        triplets.push((r, c, v));
        triplets.push((c, r, v));
        row_sum[r] += v;
        row_sum[c] += v;
    }
    for (i, &sum) in row_sum.iter().enumerate() {
        triplets.push((i, i, sum + shift));
    }
    CooMatrix::from_triplets_summing(n, n, triplets).expect("edges lie inside the matrix")
}

/// The `engine-spmv` matrix: a symmetrized power-law pattern, about 10
/// non-zeros per row.
pub fn engine_matrix(seed: u64) -> CooMatrix {
    let n = ENGINE_ROWS;
    let pattern = power_law(n, n, n * 9 / 2, 1.0, seed);
    let mut rng = Rng::new(seed ^ 0xe5);
    spd_on_edges(n, pattern.iter().map(|&(r, c, _)| (r, c)), 1.0, &mut rng)
}

/// The `router-cg` matrix: a shifted 5-point operator on a
/// `GRID_SIDE`² grid with seeded edge weights.
pub fn grid_matrix(seed: u64) -> CooMatrix {
    let side = GRID_SIDE;
    let mut edges = Vec::with_capacity(2 * side * side);
    for i in 0..side {
        for j in 0..side {
            let v = i * side + j;
            if j + 1 < side {
                edges.push((v, v + 1));
            }
            if i + 1 < side {
                edges.push((v, v + side));
            }
        }
    }
    let mut rng = Rng::new(seed ^ 0x9d);
    spd_on_edges(side * side, edges, GRID_SHIFT, &mut rng)
}

/// A small `churn-pipelined` matrix: three random partners per row.
pub fn churn_matrix(n: usize, seed: u64) -> CooMatrix {
    let mut rng = Rng::new(seed);
    let mut edges = Vec::with_capacity(3 * n);
    for i in 0..n {
        for _ in 0..3 {
            edges.push((i, rng.below(n)));
        }
    }
    spd_on_edges(n, edges, 1.0, &mut rng)
}

fn cpu_product(matrix: &CooMatrix, x: &[f32]) -> Vec<f32> {
    CsrMatrix::from(matrix).spmv(x)
}

/// The engine configuration `chason serve` runs by default.
pub fn served_chason() -> ChasonEngine {
    ChasonEngine::new(AcceleratorConfig {
        sched: SchedulerConfig::paper(),
        ..AcceleratorConfig::chason()
    })
}

pub(crate) fn spmv_op(
    matrix_index: usize,
    matrix: &CooMatrix,
    engine: Engine,
    x: Vec<f32>,
) -> PlannedOp {
    let want = Arc::new(cpu_product(matrix, &x));
    // Engine replies reassociate the row sums, so they are held to the
    // ULP oracle; cpu replies must match bit for bit.
    let scales = (engine != Engine::Cpu).then(|| Arc::new(row_scales(matrix, &x)));
    let sim_flops = if engine == Engine::Cpu {
        0
    } else {
        2 * matrix.nnz() as u64
    };
    PlannedOp {
        kind: Kind::Spmv,
        matrix: matrix_index,
        engine,
        vector: Arc::new(x),
        solve: (0, 0.0),
        revalues: Vec::new(),
        expect: Expect::Vector {
            want,
            scales,
            sim_flops,
        },
    }
}

fn solve_op(
    engine: Engine,
    b: Arc<Vec<f32>>,
    solve: (u32, f64),
    want: Arc<SolveWant>,
) -> PlannedOp {
    PlannedOp {
        kind: Kind::Solve,
        matrix: 0,
        engine,
        vector: b,
        solve,
        revalues: Vec::new(),
        expect: Expect::Solved(want),
    }
}

/// 90% `Spmv` and 10% `Solve` CG on one matrix, the solves against a pool
/// of three right-hand sides whose reference solutions `backend` computes.
#[allow(clippy::expect_used)] // the generated systems are square and match b
fn read_solve_program(
    matrix: Arc<CooMatrix>,
    engine: Engine,
    solve: (u32, f64),
    backend: &mut dyn SpmvBackend,
    epoch: usize,
    rng: &mut Rng,
) -> Program {
    let n = matrix.rows();
    let options = CgOptions {
        max_iterations: solve.0 as usize,
        tolerance: solve.1,
    };
    let rhs: Vec<Arc<Vec<f32>>> = (0..3).map(|_| Arc::new(rng.vector(n))).collect();
    let wants: Vec<Arc<SolveWant>> = rhs
        .iter()
        .map(|b| {
            let r = conjugate_gradient(backend, &matrix, b, options).expect("reference CG");
            Arc::new(SolveWant {
                solution: r.solution,
                iterations: r.iterations as u64,
                residual: r.residual,
                converged: r.converged,
            })
        })
        .collect();
    let solves = epoch / 10;
    let ops = rng
        .shuffled_mix(&[epoch - solves, solves])
        .into_iter()
        .map(|kind| {
            if kind == 1 {
                let k = rng.below(rhs.len());
                solve_op(engine, Arc::clone(&rhs[k]), solve, Arc::clone(&wants[k]))
            } else {
                spmv_op(0, &matrix, engine, rng.vector(n))
            }
        })
        .collect();
    Program {
        matrices: vec![matrix],
        warm_engines: vec![engine],
        ops,
    }
}

fn churn_program(seed: u64, rng: &mut Rng, epoch: usize) -> Program {
    let base: Vec<CooMatrix> = CHURN_ROWS
        .iter()
        .enumerate()
        .map(|(k, &n)| churn_matrix(n, seed ^ ((k as u64 + 1) << 40)))
        .collect();
    let diagonals: Vec<Vec<f32>> = base.iter().map(diagonal_of).collect();
    let mut current = base.clone();
    // Rows each matrix has bumped and not yet restored.
    let mut bumped: Vec<Vec<usize>> = vec![Vec::new(); base.len()];
    let mut ops = Vec::with_capacity(epoch + base.len());
    // 55% cpu Spmv, 25% chason Spmv, 15% Update, 5% Stats.
    let percent = |p: usize| epoch * p / 100;
    let mix = [percent(55), percent(25), percent(15), percent(5)];
    for kind in rng.shuffled_mix(&mix) {
        let m = rng.below(base.len());
        let op = if kind == 0 {
            let x = rng.vector(current[m].cols());
            spmv_op(m, &current[m], Engine::Cpu, x)
        } else if kind == 1 {
            let x = rng.vector(current[m].cols());
            spmv_op(m, &current[m], Engine::Chason, x)
        } else if kind == 2 {
            // Updates come in pairs: bump a few diagonal entries upward
            // (the matrix stays diagonally dominant), later restore them.
            let rows = if bumped[m].is_empty() {
                let count = 4 + rng.below(9);
                let mut rows: Vec<usize> =
                    (0..count).map(|_| rng.below(current[m].rows())).collect();
                rows.sort_unstable();
                rows.dedup();
                bumped[m] = rows.clone();
                rows.into_iter()
                    .map(|r| (r, diagonals[m][r] + rng.range(0.5, 2.0)))
                    .collect::<Vec<_>>()
            } else {
                std::mem::take(&mut bumped[m])
                    .into_iter()
                    .map(|r| (r, diagonals[m][r]))
                    .collect()
            };
            update_op(m, &mut current[m], &rows)
        } else {
            PlannedOp {
                kind: Kind::Stats,
                matrix: 0,
                engine: Engine::Cpu,
                vector: Arc::new(Vec::new()),
                solve: (0, 0.0),
                revalues: Vec::new(),
                expect: Expect::Stats,
            }
        };
        ops.push(op);
    }
    for m in 0..base.len() {
        if !bumped[m].is_empty() {
            let rows: Vec<(usize, f32)> = std::mem::take(&mut bumped[m])
                .into_iter()
                .map(|r| (r, diagonals[m][r]))
                .collect();
            ops.push(update_op(m, &mut current[m], &rows));
        }
    }
    debug_assert!(current.iter().zip(&base).all(|(c, b)| c == b));
    Program {
        matrices: base.into_iter().map(Arc::new).collect(),
        warm_engines: vec![Engine::Cpu, Engine::Chason],
        ops,
    }
}

/// Applies the revalues to `matrix` through the same `MatrixDelta` path
/// the server uses, and returns the op with the post-update `nnz`.
#[allow(clippy::expect_used)] // revalues target existing diagonal entries
fn update_op(m: usize, matrix: &mut CooMatrix, rows: &[(usize, f32)]) -> PlannedOp {
    let mut delta = MatrixDelta::for_matrix(matrix);
    for &(r, v) in rows {
        delta
            .push_revalue(r, r, v)
            .expect("diagonal entries always exist");
    }
    *matrix = delta.apply(matrix).expect("revalues keep the shape");
    PlannedOp {
        kind: Kind::Update,
        matrix: m,
        engine: Engine::Cpu,
        vector: Arc::new(Vec::new()),
        solve: (0, 0.0),
        revalues: rows.iter().map(|&(r, v)| (r as u64, r as u64, v)).collect(),
        expect: Expect::Updated {
            nnz: matrix.nnz() as u64,
        },
    }
}

/// The diagonal of a matrix (1.0 where absent).
pub fn diagonal_of(matrix: &CooMatrix) -> Vec<f32> {
    let mut diag = vec![1.0f32; matrix.rows()];
    for &(r, c, v) in matrix.iter() {
        if r == c {
            diag[r] = v;
        }
    }
    diag
}

/// Everything a run of one workload needs, generated from its seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// One program per connection.
    pub programs: Vec<Program>,
}

/// Generates a workload's programs and references from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x5eed_0000);
    let epoch = workload.epoch();
    let programs = match workload {
        Workload::EngineSpmv => {
            let matrix = Arc::new(engine_matrix(seed));
            // One reference backend (one plan) serves both connections.
            let mut backend = EngineBackend::chason(served_chason());
            (0..CONNECTIONS)
                .map(|_| {
                    let solve = (ENGINE_CG_BUDGET, 0.0);
                    let m = Arc::clone(&matrix);
                    read_solve_program(m, Engine::Chason, solve, &mut backend, epoch, &mut rng)
                })
                .collect()
        }
        Workload::RouterCg => {
            let matrix = Arc::new(grid_matrix(seed));
            let mut backend = CpuBackend::default();
            (0..CONNECTIONS)
                .map(|_| {
                    let solve = (ROUTER_CG_CAP, ROUTER_CG_TOLERANCE);
                    let m = Arc::clone(&matrix);
                    read_solve_program(m, Engine::Cpu, solve, &mut backend, epoch, &mut rng)
                })
                .collect()
        }
        Workload::ChurnPipelined => (0..CONNECTIONS)
            .map(|c| churn_program(seed ^ ((c as u64 + 1) << 48), &mut rng, epoch))
            .collect(),
    };
    Inputs { workload, programs }
}
