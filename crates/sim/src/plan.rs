//! The plan/execute split: build an [`SpmvPlan`] once, run it many times.
//!
//! `plan` schedules every column window of a matrix (row-partitioning first
//! when it exceeds the partial-sum URAM capacity, exactly as
//! `run_partitioned` would) and packages the result with the matrix
//! fingerprint and scheduler configuration. `run_planned` replays the plan
//! against a dense vector without touching a scheduler, producing an
//! [`Execution`] bit-identical to `run` / `run_partitioned` on the source
//! matrix. Window scheduling is fanned out across threads — windows are
//! independent — with results reassembled in window order, so the plan is
//! the same at every thread count.

use crate::engine::{execute_pass, plan_pass};
use crate::memory::URAM_PARTIALS;
use crate::partitioned::combine;
use crate::{ChasonEngine, Execution, SerpensEngine, SimError};
use chason_core::plan::{PlanKey, SpmvPlan};
use chason_core::replan::ReplanReport;
use chason_core::shard::ShardedPlan;
use chason_core::window::partition_rows_capacity;
use chason_sparse::shard::ShardSpec;
use chason_sparse::{CooMatrix, MatrixDelta};

/// Threads used by `plan` when the caller does not choose a count.
fn default_planning_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engines supporting the plan/execute split, for callers generic over the
/// accelerator family (e.g. solver backends caching plans per matrix).
pub trait PlanningEngine {
    /// Schedules `matrix` into a reusable plan. See `ChasonEngine::plan`.
    fn plan(&self, matrix: &CooMatrix) -> Result<SpmvPlan, SimError>;

    /// Executes a previously built plan against `x`. See
    /// `ChasonEngine::run_planned`.
    fn run_planned(&self, plan: &SpmvPlan, x: &[f32]) -> Result<Execution, SimError>;

    /// The cache key of a matrix whose [`matrix_fingerprint`] is
    /// `fingerprint`, scheduled under this engine's configuration. Callers
    /// that keep a matrix resident compute its fingerprint once and reuse
    /// it, rather than re-hashing every triplet per lookup.
    ///
    /// [`matrix_fingerprint`]: chason_core::plan::matrix_fingerprint
    fn plan_key(&self, fingerprint: u64) -> PlanKey;

    /// Splices `delta` into `plan` by re-scheduling only the dirty windows.
    /// See `ChasonEngine::replan_delta`.
    fn replan_delta(
        &self,
        plan: &mut SpmvPlan,
        updated: &CooMatrix,
        delta: &MatrixDelta,
    ) -> Result<ReplanReport, SimError>;
}

macro_rules! impl_planning {
    ($engine:ty, $name:literal, $has_reduction:expr) => {
        impl $engine {
            /// Schedules `matrix` into a reusable [`SpmvPlan`] without
            /// executing it.
            ///
            /// The plan captures every column window's schedule (grouped
            /// into row-partition passes when the matrix exceeds the
            /// per-PE partial-sum capacity, mirroring `run_partitioned`),
            /// keyed by the matrix fingerprint and scheduler
            /// configuration. Windows are scheduled in parallel across all
            /// available cores; the result is independent of the thread
            /// count.
            ///
            /// # Errors
            ///
            /// [`SimError::InvalidConfig`] for inconsistent configurations.
            pub fn plan(&self, matrix: &CooMatrix) -> Result<SpmvPlan, SimError> {
                self.plan_with_threads(matrix, default_planning_threads())
            }

            /// [`plan`](Self::plan) with an explicit window-scheduling
            /// thread count (`1` forces serial planning).
            pub fn plan_with_threads(
                &self,
                matrix: &CooMatrix,
                threads: usize,
            ) -> Result<SpmvPlan, SimError> {
                let config = self.config();
                let total_pes = config.sched.total_pes();
                let single_pass = matrix.rows().div_ceil(total_pes.max(1)) <= URAM_PARTIALS;
                let passes = if single_pass {
                    vec![plan_pass(self.scheduler(), config, matrix, 0, threads)?]
                } else {
                    partition_rows_capacity(matrix, URAM_PARTIALS, total_pes)
                        .iter()
                        .map(|p| {
                            plan_pass(self.scheduler(), config, &p.matrix, p.row_start, threads)
                        })
                        .collect::<Result<Vec<_>, _>>()?
                };
                Ok(SpmvPlan {
                    key: PlanKey::new(matrix, config.sched),
                    engine: $name.to_string(),
                    window: config.window,
                    rows: matrix.rows(),
                    cols: matrix.cols(),
                    nnz: matrix.nnz(),
                    passes,
                })
            }

            /// Splices `delta` into `plan` by re-scheduling only the column
            /// windows the delta's row/column footprint dirties, leaving
            /// every other window's schedule untouched.
            ///
            /// `updated` must be the delta applied to the plan's source
            /// matrix (`MatrixDelta::apply`). Because the pass/window
            /// skeleton depends only on the matrix shape — which deltas
            /// never change — and this engine's scheduler is
            /// deterministic, the spliced plan is bit-identical to
            /// [`plan`](Self::plan) of `updated`; the conformance suite's
            /// delta oracle asserts exactly that across the corpus. The
            /// report says how many windows were re-scheduled.
            ///
            /// # Errors
            ///
            /// * [`SimError::PlanMismatch`] if the plan was built by a
            ///   different engine family or configuration, or if
            ///   `updated`/`delta` are inconsistent with the plan (shape or
            ///   non-zero count disagreement).
            pub fn replan_delta(
                &self,
                plan: &mut SpmvPlan,
                updated: &CooMatrix,
                delta: &MatrixDelta,
            ) -> Result<ReplanReport, SimError> {
                let config = self.config();
                if plan.engine != $name {
                    return Err(SimError::PlanMismatch(format!(
                        "plan built by the {} engine cannot be respliced on {}",
                        plan.engine, $name
                    )));
                }
                if plan.key.config != config.sched || plan.window != config.window {
                    return Err(SimError::PlanMismatch(
                        "plan was built under a different configuration".to_string(),
                    ));
                }
                plan.apply_delta(updated, delta, self.scheduler())
                    .map_err(|e| SimError::PlanMismatch(e.to_string()))
            }

            /// Executes `y = A·x` from a plan built by
            /// [`plan`](Self::plan), without rescheduling. The result is
            /// bit-identical to `run` (or `run_partitioned` for matrices
            /// that needed row partitioning) on the plan's source matrix.
            ///
            /// # Errors
            ///
            /// * [`SimError::PlanMismatch`] if the plan was built by a
            ///   different engine family or under a different scheduler
            ///   configuration or window width;
            /// * [`SimError::VectorLengthMismatch`] if
            ///   `x.len() != plan.cols`;
            /// * [`SimError::InvalidConfig`] for inconsistent
            ///   configurations.
            pub fn run_planned(&self, plan: &SpmvPlan, x: &[f32]) -> Result<Execution, SimError> {
                let config = self.config();
                if plan.engine != $name {
                    return Err(SimError::PlanMismatch(format!(
                        "plan built by the {} engine cannot run on {}",
                        plan.engine, $name
                    )));
                }
                if plan.key.config != config.sched || plan.window != config.window {
                    return Err(SimError::PlanMismatch(
                        "plan was built under a different configuration".to_string(),
                    ));
                }
                if x.len() != plan.cols {
                    return Err(SimError::VectorLengthMismatch {
                        got: x.len(),
                        expected: plan.cols,
                    });
                }
                let scug = self.scug_size();
                let mut parts = plan
                    .passes
                    .iter()
                    .map(|pass| {
                        execute_pass($name, config, scug, $has_reduction, pass, plan.cols, x)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                match parts.pop() {
                    Some(single) if parts.is_empty() => Ok(single),
                    Some(last) => {
                        parts.push(last);
                        Ok(combine($name, parts, plan.cols))
                    }
                    None => Err(SimError::PlanMismatch(
                        "plan contains no passes".to_string(),
                    )),
                }
            }
        }

        impl PlanningEngine for $engine {
            fn plan(&self, matrix: &CooMatrix) -> Result<SpmvPlan, SimError> {
                <$engine>::plan(self, matrix)
            }

            fn run_planned(&self, plan: &SpmvPlan, x: &[f32]) -> Result<Execution, SimError> {
                <$engine>::run_planned(self, plan, x)
            }

            fn plan_key(&self, fingerprint: u64) -> PlanKey {
                PlanKey {
                    fingerprint,
                    config: self.config().sched,
                }
            }

            fn replan_delta(
                &self,
                plan: &mut SpmvPlan,
                updated: &CooMatrix,
                delta: &MatrixDelta,
            ) -> Result<ReplanReport, SimError> {
                <$engine>::replan_delta(self, plan, updated, delta)
            }
        }
    };
}

impl_planning!(ChasonEngine, "chason", true);
impl_planning!(SerpensEngine, "serpens", false);

/// Result of executing a [`ShardedPlan`]'s shards and reducing the
/// partials, with the latency accounting a distributed deployment would
/// observe.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedExecution {
    /// The gathered output vector `y = A·x`.
    pub y: Vec<f32>,
    /// Makespan: the slowest shard's modeled latency (shards run
    /// concurrently in a deployment).
    pub max_latency_seconds: f64,
    /// Aggregate device time: sum of every shard's modeled latency.
    pub total_latency_seconds: f64,
}

/// Plans each row-block slice of `matrix` under `spec` with `engine`.
///
/// The spec's slices keep the full column width, so each per-shard plan
/// consumes the same dense input vector as a full-matrix plan would.
pub fn plan_shards<E: PlanningEngine>(
    engine: &E,
    matrix: &CooMatrix,
    spec: &ShardSpec,
) -> Result<ShardedPlan, SimError> {
    let mut plans = Vec::with_capacity(spec.shards());
    for k in 0..spec.shards() {
        let slice = spec
            .slice(matrix, k)
            .map_err(|e| SimError::InvalidConfig(format!("shard {k}: {e}")))?;
        plans.push(engine.plan(&slice)?);
    }
    ShardedPlan::assemble(spec.clone(), plans).map_err(|e| SimError::InvalidConfig(e.to_string()))
}

/// Executes every shard plan against `x` and reduces the partial vectors.
///
/// The gather is a pure placement (each output row is owned by exactly one
/// shard), so the result matches running the shards on separate machines
/// and concatenating their replies.
pub fn run_sharded<E: PlanningEngine>(
    engine: &E,
    sharded: &ShardedPlan,
    x: &[f32],
) -> Result<ShardedExecution, SimError> {
    let mut partials = Vec::with_capacity(sharded.shards());
    let mut max_latency = 0.0f64;
    let mut total_latency = 0.0f64;
    for plan in sharded.plans() {
        let exec = engine.run_planned(plan, x)?;
        let latency = exec.latency_seconds();
        max_latency = max_latency.max(latency);
        total_latency += latency;
        partials.push(exec.y);
    }
    let y = sharded
        .reduce_partials(&partials)
        .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
    Ok(ShardedExecution {
        y,
        max_latency_seconds: max_latency,
        total_latency_seconds: total_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AcceleratorConfig;
    use chason_core::schedule::SchedulerConfig;
    use chason_sparse::generators::{power_law, uniform_random};

    #[test]
    fn planned_run_is_bit_identical_to_direct_run() {
        let m = power_law(400, 400, 3000, 1.8, 17);
        let x: Vec<f32> = (0..400).map(|i| (i as f32 * 0.21).cos()).collect();
        for threads in [1, 4] {
            let engine = ChasonEngine::default();
            let plan = engine.plan_with_threads(&m, threads).unwrap();
            assert_eq!(
                engine.run_planned(&plan, &x).unwrap(),
                engine.run(&m, &x).unwrap()
            );
        }
        let serpens = SerpensEngine::default();
        let plan = serpens.plan(&m).unwrap();
        assert_eq!(
            serpens.run_planned(&plan, &x).unwrap(),
            serpens.run(&m, &x).unwrap()
        );
    }

    #[test]
    fn parallel_planning_matches_serial() {
        let m = uniform_random(64, 60_000, 20_000, 3); // 8 windows of W = 8192
        let engine = ChasonEngine::default();
        let serial = engine.plan_with_threads(&m, 1).unwrap();
        for threads in [2, 3, 8, 64] {
            assert_eq!(engine.plan_with_threads(&m, threads).unwrap(), serial);
        }
    }

    #[test]
    fn oversized_matrix_plans_in_passes_matching_run_partitioned() {
        let engine = ChasonEngine::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        });
        // 4 PEs x 8192 rows/PE = 32_768 rows per pass.
        let m = uniform_random(70_000, 128, 30_000, 5);
        let x: Vec<f32> = (0..128).map(|i| 0.25 + (i % 3) as f32).collect();
        let plan = engine.plan(&m).unwrap();
        assert_eq!(plan.passes.len(), 3);
        assert_eq!(plan.passes.iter().map(|p| p.nnz).sum::<usize>(), 30_000);
        let planned = engine.run_planned(&plan, &x).unwrap();
        assert_eq!(planned, engine.run_partitioned(&m, &x).unwrap());
    }

    #[test]
    fn plan_records_key_and_stats() {
        let m = uniform_random(128, 20_000, 5_000, 3);
        let engine = ChasonEngine::default();
        let plan = engine.plan(&m).unwrap();
        assert_eq!(
            plan.key,
            chason_core::plan::PlanKey::new(&m, engine.config().sched)
        );
        assert_eq!(plan.window_count(), 3); // 20_000 cols / W = 8192
        assert_eq!(plan.nnz, 5_000);
        let exec = engine.run_planned(&plan, &vec![1.0; 20_000]).unwrap();
        assert_eq!(plan.stalls(), exec.stalls);
    }

    /// Debug builds (and `strict-verify` release builds) run the static
    /// checker before executing a pass; a corrupted schedule is rejected
    /// with the rendered diagnostic report instead of mis-executing.
    #[test]
    #[cfg(any(debug_assertions, feature = "strict-verify"))]
    fn corrupted_plan_is_rejected_before_execution() {
        let m = uniform_random(64, 64, 300, 1);
        let engine = ChasonEngine::default();
        let mut plan = engine.plan(&m).unwrap();
        let schedule = &mut plan.passes[0].windows[0].schedule;
        assert!(chason_verify::mutate::Corruption::TagFlip.apply(schedule));
        match engine.run_planned(&plan, &vec![1.0; 64]) {
            Err(SimError::InvalidSchedule(report)) => {
                assert!(report.contains("S005"), "{report}");
                assert!(report.contains("verification failed"), "{report}");
            }
            other => panic!("expected InvalidSchedule, got {other:?}"),
        }
    }

    /// The stale-stream guard: a window whose schedule is edited after it
    /// was lowered (here a value change, which the static checker cannot
    /// see without the source matrix) no longer matches its stream, and is
    /// refused instead of replaying the old data.
    #[test]
    #[cfg(any(debug_assertions, feature = "strict-verify"))]
    fn schedule_edited_after_planning_is_rejected_as_stale() {
        let m = uniform_random(64, 64, 300, 1);
        let engine = ChasonEngine::default();
        let mut plan = engine.plan(&m).unwrap();
        let slot = plan.passes[0].windows[0]
            .schedule
            .channels
            .iter_mut()
            .flat_map(|ch| ch.grid.iter_mut().flatten())
            .flatten()
            .next()
            .unwrap();
        slot.value *= 2.0;
        match engine.run_planned(&plan, &vec![1.0; 64]) {
            Err(SimError::InvalidSchedule(report)) => {
                assert!(report.contains("stale"), "{report}");
            }
            other => panic!("expected a stale-stream rejection, got {other:?}"),
        }
    }

    /// A small structural delta against a multi-window matrix: revalue and
    /// delete existing entries, insert at a vacant coordinate.
    fn sample_delta(m: &CooMatrix) -> MatrixDelta {
        let mut delta = MatrixDelta::for_matrix(m);
        let t = m.triplets();
        let (r, c, _) = t[t.len() / 3];
        delta.push_revalue(r, c, 2.75).unwrap();
        let (r, c, _) = t[2 * t.len() / 3];
        delta.push_delete(r, c).unwrap();
        let vacant = (0..m.cols())
            .find(|&c| !t.iter().any(|&(tr, tc, _)| tr == 0 && tc == c))
            .unwrap();
        delta.push_insert(0, vacant, -4.5).unwrap();
        delta
    }

    #[test]
    fn respliced_plan_equals_scratch_plan_for_both_engines() {
        let m = uniform_random(256, 20_000, 8_000, 21); // 3 windows of W = 8192
        let delta = sample_delta(&m);
        let updated = delta.apply(&m).unwrap();

        let chason = ChasonEngine::default();
        let mut spliced = chason.plan(&m).unwrap();
        let report = chason.replan_delta(&mut spliced, &updated, &delta).unwrap();
        assert_eq!(spliced, chason.plan(&updated).unwrap());
        assert!(report.windows_replanned < report.windows_total);

        let serpens = SerpensEngine::default();
        let mut spliced = serpens.plan(&m).unwrap();
        serpens
            .replan_delta(&mut spliced, &updated, &delta)
            .unwrap();
        assert_eq!(spliced, serpens.plan(&updated).unwrap());
    }

    #[test]
    fn respliced_plan_replays_like_the_updated_matrix() {
        let m = power_law(300, 17_000, 4_000, 1.8, 29);
        let delta = sample_delta(&m);
        let updated = delta.apply(&m).unwrap();
        let engine = ChasonEngine::default();
        let mut plan = engine.plan(&m).unwrap();
        engine.replan_delta(&mut plan, &updated, &delta).unwrap();
        let x: Vec<f32> = (0..m.cols()).map(|i| (i as f32 * 0.19).sin()).collect();
        assert_eq!(
            engine.run_planned(&plan, &x).unwrap(),
            engine.run(&updated, &x).unwrap()
        );
    }

    #[test]
    fn resplice_spans_row_partition_passes() {
        let engine = ChasonEngine::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        });
        // 4 PEs x 8192 rows/PE = 32_768 rows per pass -> 3 passes.
        let m = uniform_random(70_000, 128, 30_000, 5);
        let delta = sample_delta(&m);
        let updated = delta.apply(&m).unwrap();
        let mut spliced = engine.plan(&m).unwrap();
        let report = engine.replan_delta(&mut spliced, &updated, &delta).unwrap();
        assert_eq!(spliced, engine.plan(&updated).unwrap());
        assert!(report.passes_touched >= 1);
        assert_eq!(
            spliced.passes.iter().map(|p| p.nnz).sum::<usize>(),
            updated.nnz()
        );
    }

    #[test]
    fn resplice_rejects_foreign_or_inconsistent_inputs() {
        let m = uniform_random(64, 64, 300, 1);
        let delta = sample_delta(&m);
        let updated = delta.apply(&m).unwrap();
        let chason = ChasonEngine::default();
        let serpens = SerpensEngine::default();
        let mut plan = chason.plan(&m).unwrap();
        assert!(matches!(
            serpens.replan_delta(&mut plan, &updated, &delta),
            Err(SimError::PlanMismatch(_))
        ));
        // Updated matrix inconsistent with the delta (nnz disagreement).
        assert!(matches!(
            chason.replan_delta(&mut plan, &m, &delta),
            Err(SimError::PlanMismatch(_))
        ));
        // Plan untouched by the failed attempts.
        assert_eq!(plan, chason.plan(&m).unwrap());
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let m = uniform_random(64, 64, 300, 1);
        let chason = ChasonEngine::default();
        let serpens = SerpensEngine::default();
        let plan = chason.plan(&m).unwrap();
        assert!(matches!(
            serpens.run_planned(&plan, &[0.0; 64]),
            Err(SimError::PlanMismatch(_))
        ));
        let toy = ChasonEngine::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        });
        assert!(matches!(
            toy.run_planned(&plan, &[0.0; 64]),
            Err(SimError::PlanMismatch(_))
        ));
        assert!(matches!(
            chason.run_planned(&plan, &[0.0; 63]),
            Err(SimError::VectorLengthMismatch { .. })
        ));
    }
}
