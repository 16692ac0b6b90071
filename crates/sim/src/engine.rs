//! Shared execution core of the two accelerator engines, split into a
//! *planning* half (schedule every column window — vector-independent,
//! parallelizable) and an *execution* half (replay a plan against a dense
//! vector). `run` composes the two, so planned and unplanned execution are
//! bit-identical by construction.

use crate::config::{AcceleratorConfig, CycleBreakdown, Execution};
use crate::memory::URAM_PARTIALS;
use crate::SimError;
use chason_core::plan::{PassPlan, PlanWindow};
use chason_core::schedule::{ScheduledMatrix, Scheduler, SchedulerConfig};
use chason_core::stream::AccumulatorLayout;
use chason_core::window::{partition_columns, ColumnWindow};
use chason_sparse::CooMatrix;

/// Schedules every column window of `matrix`, producing the windows of a
/// [`PassPlan`] covering rows `row_start..row_start + matrix.rows()`.
///
/// Windows are independent — each is scheduled from its own sub-matrix — so
/// with `threads > 1` they are scheduled concurrently. Workers own disjoint
/// contiguous chunks of the window list — the calling thread takes the
/// first — and results are reassembled in window order, so the plan is
/// identical for every thread count. The calling thread then lowers each
/// schedule into its replay stream.
pub(crate) fn plan_pass<S: Scheduler + Sync>(
    scheduler: &S,
    config: &AcceleratorConfig,
    matrix: &CooMatrix,
    row_start: usize,
    threads: usize,
) -> Result<PassPlan, SimError> {
    if !config.is_valid() {
        return Err(SimError::InvalidConfig(
            "accelerator configuration failed validation".to_string(),
        ));
    }
    let sched = &config.sched;
    let windows = partition_columns(matrix, config.window);

    let plan_one = |window: &ColumnWindow| scheduler.schedule(&window.matrix, sched);

    let threads = threads.clamp(1, windows.len().max(1));
    let chunk = windows.len().div_ceil(threads).max(1);
    let mut chunks = windows.chunks(chunk);
    let own = chunks.next().unwrap_or_default();
    let planned = crossbeam::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|ws| scope.spawn(move |_| ws.iter().map(plan_one).collect::<Vec<_>>()))
            .collect();
        // The calling thread schedules the first chunk itself instead of
        // idling in `join`.
        let mut schedules: Vec<ScheduledMatrix> = own.iter().map(plan_one).collect();
        for handle in handles {
            // A panic in a worker can only come from a scheduler bug;
            // propagating it (rather than discarding the plan) is the
            // correct surface for that failure.
            #[allow(clippy::expect_used)] // xtask: propagates worker panics
            schedules.extend(handle.join().expect("window planner threads do not panic"));
        }
        schedules
    });
    #[allow(clippy::expect_used)] // xtask: scope only errs if a child panicked
    let schedules = planned.expect("window planner scope does not panic");
    let planned = windows
        .iter()
        .zip(schedules)
        .map(|(window, schedule)| PlanWindow::new(window.col_start, window.col_end, schedule))
        .collect();

    Ok(PassPlan {
        row_start,
        row_end: row_start + matrix.rows(),
        nnz: matrix.nnz(),
        windows: planned,
    })
}

/// Executes one planned pass against `x` by replaying each window's
/// lowered stream, then charges the plan-invariant cycle/traffic accounting
/// and runs the Reduction Unit and Merger formulas.
///
/// The replay is one gather-multiply-accumulate loop over the pass's
/// streams into a flat accumulator array laid out by
/// [`AccumulatorLayout`]: the private region plays the PEs' `URAM_pvt`
/// banks, the rest their ScUG banks. Streams keep the PEG models' per-PE
/// add order, so `y` is bit-identical to the cycle-level model. Routing was
/// checked when the windows were lowered; a window whose lowering found a
/// violation is refused with [`SimError::RoutingViolation`] in every build.
///
/// In debug builds (and under the `strict-verify` feature) the pass is
/// first run through the `chason-verify` static checker, and every window's
/// stream is checked against a fresh lowering of its schedule; a pass with
/// rule violations or a stale stream is rejected with
/// [`SimError::InvalidSchedule`] instead of executing and producing
/// silently wrong numbers.
pub(crate) fn execute_pass(
    engine: &'static str,
    config: &AcceleratorConfig,
    scug_size: usize,
    has_reduction: bool,
    pass: &PassPlan,
    cols: usize,
    x: &[f32],
) -> Result<Execution, SimError> {
    if !config.is_valid() {
        return Err(SimError::InvalidConfig(
            "accelerator configuration failed validation".to_string(),
        ));
    }
    if x.len() != cols {
        return Err(SimError::VectorLengthMismatch {
            got: x.len(),
            expected: cols,
        });
    }
    #[cfg(any(debug_assertions, feature = "strict-verify"))]
    {
        let report = chason_verify::verify_pass(pass, &config.sched, config.window);
        if report.has_errors() {
            return Err(SimError::InvalidSchedule(report.to_string()));
        }
        if let Some(i) = pass.windows.iter().position(|w| !w.stream_is_current()) {
            return Err(SimError::InvalidSchedule(format!(
                "window {i} replay stream is stale: its schedule changed after the window was lowered"
            )));
        }
    }
    let sched = &config.sched;
    let rows = pass.rows();
    let layout = AccumulatorLayout::new(sched, rows);
    let rows_per_pe = layout.rows_per_pe;
    if rows_per_pe > URAM_PARTIALS {
        return Err(SimError::RowCapacityExceeded {
            rows_per_pe,
            capacity: URAM_PARTIALS,
        });
    }
    for window in &pass.windows {
        let stream = &window.stream;
        if let Some(fault) = &stream.fault {
            return Err(SimError::RoutingViolation(fault.clone()));
        }
        if stream.migrated > 0 && scug_size == 0 {
            return Err(SimError::RoutingViolation(format!(
                "{} migrated elements of columns {}..{} reached PEs without a ScUG",
                stream.migrated, window.col_start, window.col_end
            )));
        }
        if window.schedule.config != *sched || window.schedule.rows != rows {
            return Err(SimError::PlanMismatch(format!(
                "window {}..{} was lowered for a different pass geometry",
                window.col_start, window.col_end
            )));
        }
        if window.col_start > window.col_end
            || window.col_end > cols
            || window.col_end - window.col_start > config.window
        {
            return Err(SimError::PlanMismatch(format!(
                "window {}..{} does not fit the {cols}-column vector in {}-word x buffers",
                window.col_start, window.col_end, config.window
            )));
        }
    }

    // Replay: every product lands in its PE's private or ScUG partial sum.
    // A Serpens pass streams no migrated elements, so its array stops at
    // the private region.
    let accumulators = if scug_size > 0 {
        layout.checked_len().ok_or_else(|| {
            SimError::InvalidConfig("partial-sum banks overflow the address space".to_string())
        })?
    } else {
        layout.private_len()
    };
    let mut acc = vec![0.0f32; accumulators];
    for window in &pass.windows {
        let x_window = &x[window.col_start..window.col_end];
        let stream = &window.stream;
        for ((&value, &col), &slot) in stream.value.iter().zip(&stream.x_index).zip(&stream.acc) {
            acc[slot as usize] += value * x_window[col as usize];
        }
    }

    let mut cycles = CycleBreakdown::default();
    let mut stalls = 0usize;
    let mut bytes_streamed = 0u64;
    let mut bytes_auxiliary = 0u64;
    let mut mac_ops = 0u64;
    let mut hazards = 0u64;
    let mut occupancy: Vec<u16> = Vec::new();
    for window in &pass.windows {
        // Reload every PEG's x buffer with this window's slice; the reload
        // is broadcast from one HBM channel at `x_reload_lanes` words/cycle.
        let x_len = window.col_end - window.col_start;
        cycles.x_reload +=
            (x_len.div_ceil(config.x_reload_lanes) as f64 * config.stream_ii).ceil() as u64;
        // Stream: all channels advance in lockstep, one beat per cycle,
        // derated by the calibrated initiation-interval inflation.
        let stream_cycles = window.stream_cycles;
        cycles.stream += (stream_cycles as f64 * config.stream_ii).ceil() as u64;
        cycles.fill_drain += sched.dependency_distance as u64;
        stalls += window.stalls;
        // Every channel streams its (equalized) list: one 64-bit word per
        // lane per cycle.
        bytes_streamed += (stream_cycles * sched.channels * sched.pes_per_channel * 8) as u64;
        bytes_auxiliary += (x_len * 4) as u64; // x reload
        mac_ops += window.stream.len() as u64;
        hazards += window.stream.hazards;
        if config.record_occupancy {
            occupancy.extend_from_slice(&window.stream.occupancy);
        }
    }
    debug_assert_eq!(hazards, 0, "scheduler emitted a stream with RAW hazards");

    // Reduction Unit sweep (Chasoň only): the adder tree visits every
    // partial-sum address once per source lane's consolidated URAM, plus the
    // tree's own depth (§4.2.2).
    if has_reduction && scug_size > 0 {
        let tree_depth = (sched.pes_per_channel as f64).log2().ceil() as u64;
        cycles.reduction +=
            ((rows_per_pe as u64 + tree_depth) as f64 * config.stream_ii).ceil() as u64;
    }
    // Arbiter/Merger drain: 16 FP32 output values per cycle (§4.3).
    cycles.merge += (rows.div_ceil(config.merge_width) as f64 * config.stream_ii).ceil() as u64;
    cycles.invocation += config.invocation_overhead_cycles;

    let y = merge(&acc, &layout, sched, rows, scug_size > 0);

    let nnz = pass.nnz;
    let underutilization = if nnz + stalls == 0 {
        0.0
    } else {
        stalls as f64 / (nnz + stalls) as f64
    };

    bytes_auxiliary += (rows * 4) as u64; // y writeback
    Ok(Execution {
        engine,
        y,
        cycles,
        clock_mhz: config.clock_mhz,
        nnz,
        rows,
        cols,
        stalls,
        underutilization,
        bytes_streamed,
        bytes_auxiliary,
        windows: pass.windows.len(),
        mac_ops,
        occupancy,
    })
}

/// The Reduction Unit and the Rearrange Unit's Merger over the replayed
/// partial sums (§4.2.2, §4.3).
///
/// For the row owned by `(channel c, lane l)` at local address `r`:
///
/// ```text
/// y[row] = pvt[row] + Σ_hop Σ_pe sh[(c + C − hop) % C][pe][(hop−1)·P + l][r]
/// ```
///
/// — the adder tree consolidates bank `(hop−1)·P + l` across the holder
/// channel's PEs (starting from zero, in PE order), and the Merger adds
/// each hop's consolidated sum to the private one. Both sums are evaluated
/// in exactly the order `Peg::reduce` and `merge_outputs` use, so the
/// result is bit-identical to the cycle-level model.
fn merge(
    acc: &[f32],
    layout: &AccumulatorLayout,
    sched: &SchedulerConfig,
    rows: usize,
    has_scug: bool,
) -> Vec<f32> {
    let channels = sched.channels;
    let pes = sched.pes_per_channel;
    let hops = if has_scug && channels >= 2 {
        sched.migration_hops.min(channels - 1)
    } else {
        0
    };
    (0..rows)
        .map(|row| {
            // Start from zero like the Merger's accumulator: `0.0 + -0.0`
            // is `+0.0`, so `acc[row]` cannot seed the sum directly.
            let mut sum = 0.0f32;
            sum += acc[row];
            let c = sched.channel_for_row(row);
            let l = sched.lane_for_row(row);
            let r = sched.local_row(row);
            for hop in 1..=hops {
                let holder = (c + channels - hop) % channels;
                let first = layout.shared(holder, 0, (hop - 1) * pes + l, r);
                let mut consolidated = 0.0f32;
                for &partial in &acc[first..first + pes] {
                    consolidated += partial;
                }
                sum += consolidated;
            }
            sum
        })
        .collect()
}

/// Runs one SpMV on the architecture described by `config`, scheduling each
/// column window with `scheduler` and executing immediately.
///
/// `scug_size` selects the architecture family: `pes_per_channel` for
/// Chasoň (one `URAM_sh` per neighbour PE), 0 for Serpens. When
/// `has_reduction` is set the Reduction Unit sweep is charged to the cycle
/// budget (§4.2.2); Serpens has no such unit.
pub(crate) fn execute<S: Scheduler + Sync>(
    engine: &'static str,
    scheduler: &S,
    config: &AcceleratorConfig,
    scug_size: usize,
    has_reduction: bool,
    matrix: &CooMatrix,
    x: &[f32],
) -> Result<Execution, SimError> {
    if x.len() != matrix.cols() {
        return Err(SimError::VectorLengthMismatch {
            got: x.len(),
            expected: matrix.cols(),
        });
    }
    let pass = plan_pass(scheduler, config, matrix, 0, 1)?;
    execute_pass(
        engine,
        config,
        scug_size,
        has_reduction,
        &pass,
        matrix.cols(),
        x,
    )
}

#[cfg(test)]
mod tests {
    //! Differential tests of the stream replay against the cycle-level PEG
    //! models.
    //!
    //! [`peg_replay`] executes a plan on the cycle-level models: it walks
    //! every window's `Option<NzSlot>` grid through freshly built
    //! [`Peg`]/[`Pe`](crate::Pe) models (BRAM x buffers, URAM partial sums,
    //! per-PE hazard detectors, the Reduction Unit and the Merger). It is the
    //! oracle `run_planned` must match exactly: `y` bit for bit, and every
    //! counter of the [`Execution`].

    use super::*;
    use crate::partitioned::combine;
    use crate::peg::Peg;
    use crate::rearrange::merge_outputs;
    use crate::{ChasonEngine, SerpensEngine};
    use chason_core::plan::SpmvPlan;
    use chason_core::schedule::{ChannelSchedule, NzSlot, ScheduledMatrix};
    use chason_sparse::CooMatrix;
    use chason_testutil::{dense_x, rng, sparse_matrix_nonempty};
    use proptest::prelude::*;
    use rand::Rng;

    /// Replays one pass on the PEG models, charging the same accounting as the
    /// engines. Returns the execution and the hazards the PEs detected.
    fn peg_replay_pass(
        engine: &'static str,
        config: &AcceleratorConfig,
        scug_size: usize,
        has_reduction: bool,
        pass: &PassPlan,
        cols: usize,
        x: &[f32],
    ) -> Result<(Execution, u64), SimError> {
        let sched = &config.sched;
        let rows = pass.rows();
        let rows_per_pe = rows.div_ceil(sched.total_pes().max(1));
        let mut pegs = (0..sched.channels)
            .map(|c| {
                Peg::new(
                    c,
                    sched.pes_per_channel,
                    config.window,
                    rows_per_pe,
                    scug_size,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut cycles = CycleBreakdown::default();
        let mut stalls = 0usize;
        let mut bytes_streamed = 0u64;
        let mut bytes_auxiliary = 0u64;
        let mut stamp_base = 0u64;
        let mut occupancy: Vec<u16> = Vec::new();
        for window in &pass.windows {
            let schedule = &window.schedule;
            let x_slice = &x[window.col_start..window.col_end];
            for peg in &mut pegs {
                peg.load_x(x_slice);
            }
            cycles.x_reload += (x_slice.len().div_ceil(config.x_reload_lanes) as f64
                * config.stream_ii)
                .ceil() as u64;
            let stream_cycles = schedule.stream_cycles();
            cycles.stream += (stream_cycles as f64 * config.stream_ii).ceil() as u64;
            cycles.fill_drain += sched.dependency_distance as u64;
            stalls += schedule.stalls();
            bytes_streamed += (stream_cycles * sched.channels * sched.pes_per_channel * 8) as u64;
            bytes_auxiliary += (x_slice.len() * 4) as u64;
            let occupancy_base = occupancy.len();
            if config.record_occupancy {
                occupancy.resize(occupancy_base + stream_cycles, 0);
            }
            for (c, channel) in schedule.channels.iter().enumerate() {
                for (cycle, slots) in channel.grid.iter().enumerate() {
                    pegs[c].consume_cycle_at(slots, sched, Some(stamp_base + cycle as u64))?;
                    if config.record_occupancy {
                        occupancy[occupancy_base + cycle] += slots.iter().flatten().count() as u16;
                    }
                }
            }
            stamp_base += (stream_cycles
                + sched.dependency_distance
                + config.window.div_ceil(config.x_reload_lanes)) as u64;
        }
        if has_reduction && scug_size > 0 {
            let tree_depth = (sched.pes_per_channel as f64).log2().ceil() as u64;
            cycles.reduction +=
                ((rows_per_pe as u64 + tree_depth) as f64 * config.stream_ii).ceil() as u64;
        }
        cycles.merge += (rows.div_ceil(config.merge_width) as f64 * config.stream_ii).ceil() as u64;
        cycles.invocation += config.invocation_overhead_cycles;
        let outputs: Vec<_> = pegs.iter().map(Peg::reduce).collect();
        let y = merge_outputs(&outputs, sched, rows);
        let nnz = pass.nnz;
        let underutilization = if nnz + stalls == 0 {
            0.0
        } else {
            stalls as f64 / (nnz + stalls) as f64
        };
        bytes_auxiliary += (rows * 4) as u64;
        let execution = Execution {
            engine,
            y,
            cycles,
            clock_mhz: config.clock_mhz,
            nnz,
            rows,
            cols,
            stalls,
            underutilization,
            bytes_streamed,
            bytes_auxiliary,
            windows: pass.windows.len(),
            mac_ops: pegs.iter().map(Peg::mac_ops).sum(),
            occupancy,
        };
        Ok((execution, pegs.iter().map(Peg::hazards).sum()))
    }

    /// The PEG-model replay of a whole plan.
    fn peg_replay(
        engine: &'static str,
        config: &AcceleratorConfig,
        scug_size: usize,
        plan: &SpmvPlan,
        x: &[f32],
    ) -> Result<Execution, SimError> {
        let mut parts = plan
            .passes
            .iter()
            .map(|pass| {
                peg_replay_pass(engine, config, scug_size, scug_size > 0, pass, plan.cols, x)
                    .map(|(exec, _)| exec)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(if parts.len() == 1 {
            parts.remove(0)
        } else {
            combine(engine, parts, plan.cols)
        })
    }

    /// Whole-execution equality, with `y` compared by bit pattern.
    fn assert_same_execution(got: &Execution, want: &Execution) {
        let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.y), bits(&want.y), "y differs");
        let strip = |e: &Execution| Execution {
            y: Vec::new(),
            ..e.clone()
        };
        assert_eq!(strip(got), strip(want));
    }

    /// The scheduler configurations the differential tests sweep.
    fn configs() -> [SchedulerConfig; 3] {
        [
            SchedulerConfig::paper(),
            SchedulerConfig::toy(2, 2, 4),
            SchedulerConfig {
                migration_hops: 2,
                ..SchedulerConfig::paper()
            },
        ]
    }

    /// `m` on its own, or — when `partitioned` — stacked above and below a gap
    /// so the matrix needs two row-partition passes under `sched`.
    fn shaped(m: &CooMatrix, sched: &SchedulerConfig, partitioned: bool) -> CooMatrix {
        if !partitioned {
            return m.clone();
        }
        let offset = sched.total_pes() * URAM_PARTIALS;
        let triplets: Vec<_> = m
            .iter()
            .flat_map(|&(r, c, v)| [(r, c, v), (offset + r, c, -v)])
            .collect();
        CooMatrix::from_triplets(offset + m.rows(), m.cols(), triplets).unwrap()
    }

    /// Plans `m` on one engine family and checks `run_planned` (and `run` /
    /// `run_partitioned`) against the PEG-model replay of the same plan.
    fn check_against_oracle(
        m: &CooMatrix,
        sched: SchedulerConfig,
        chason: bool,
        partitioned: bool,
        record_occupancy: bool,
    ) {
        let m = shaped(m, &sched, partitioned);
        let x = dense_x(m.cols());
        if chason {
            let engine = ChasonEngine::new(AcceleratorConfig {
                sched,
                record_occupancy,
                ..AcceleratorConfig::chason()
            });
            let plan = engine.plan(&m).unwrap();
            assert_eq!(plan.passes.len(), if partitioned { 2 } else { 1 });
            let want =
                peg_replay("chason", engine.config(), engine.scug_size(), &plan, &x).unwrap();
            assert_same_execution(&engine.run_planned(&plan, &x).unwrap(), &want);
            assert_same_execution(&engine.run_partitioned(&m, &x).unwrap(), &want);
        } else {
            let engine = SerpensEngine::new(AcceleratorConfig {
                sched,
                record_occupancy,
                ..AcceleratorConfig::serpens()
            });
            let plan = engine.plan(&m).unwrap();
            assert_eq!(plan.passes.len(), if partitioned { 2 } else { 1 });
            let want = peg_replay("serpens", engine.config(), 0, &plan, &x).unwrap();
            assert_same_execution(&engine.run_planned(&plan, &x).unwrap(), &want);
            assert_same_execution(&engine.run_partitioned(&m, &x).unwrap(), &want);
        }
    }

    /// Every point of {chason, serpens} × {paper, toy(2,2,4), two hops} ×
    /// {single-pass, row-partitioned} × occupancy recording on/off, on one
    /// skewed matrix spanning two column windows.
    #[test]
    fn stream_replay_matches_peg_models_across_the_grid() {
        let m = chason_sparse::generators::power_law(400, 9_000, 6_000, 1.8, 5);
        for sched in configs() {
            for chason in [true, false] {
                for partitioned in [false, true] {
                    for record_occupancy in [false, true] {
                        check_against_oracle(&m, sched, chason, partitioned, record_occupancy);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `run_planned` equals the PEG-model replay on random matrices, for a
        /// random point of the configuration grid.
        #[test]
        fn run_planned_matches_peg_models(
            m in sparse_matrix_nonempty(48, 200),
            config in 0usize..3,
            chason in any::<bool>(),
            partitioned in any::<bool>(),
            record_occupancy in any::<bool>(),
        ) {
            check_against_oracle(&m, configs()[config], chason, partitioned, record_occupancy);
        }
    }

    /// A seeded random grid whose rows repeat within the dependency distance:
    /// private elements at their owner PE, migrated ones one hop from home.
    fn raw_violating_schedule(sched: SchedulerConfig, rows: usize, seed: u64) -> ScheduledMatrix {
        let mut rng = rng(seed);
        let pes = sched.pes_per_channel;
        let total = sched.total_pes();
        let channels = (0..sched.channels)
            .map(|c| {
                let grid = (0..40)
                    .map(|_| {
                        (0..pes)
                            .map(|lane| {
                                let local = rng.gen_range(0..rows / total);
                                match rng.gen_range(0..4) {
                                    0 => None,
                                    1 => {
                                        let home = (c + 1) % sched.channels;
                                        let src = rng.gen_range(0..pes);
                                        Some(NzSlot {
                                            value: 1.5,
                                            row: local * total + home * pes + src,
                                            col: rng.gen_range(0..16),
                                            pvt: false,
                                            pe_src: src as u8,
                                        })
                                    }
                                    _ => Some(NzSlot::private(
                                        0.5,
                                        local * total + c * pes + lane,
                                        rng.gen_range(0..16),
                                    )),
                                }
                            })
                            .collect()
                    })
                    .collect();
                ChannelSchedule { channel: c, grid }
            })
            .collect::<Vec<_>>();
        let nnz = channels.iter().map(ChannelSchedule::nonzeros).sum();
        ScheduledMatrix {
            config: sched,
            channels,
            rows,
            cols: 16,
            nnz,
        }
    }

    /// Lowering's dense last-access detector counts exactly the hazards the
    /// per-PE detectors of the PEG models count, on schedules full of them.
    #[test]
    fn lowering_counts_the_hazards_the_pegs_count() {
        for (seed, sched) in [
            (1, SchedulerConfig::toy(2, 2, 4)),
            (2, SchedulerConfig::toy(3, 4, 10)),
            (3, SchedulerConfig::paper()),
        ] {
            let schedule = raw_violating_schedule(sched, sched.total_pes() * 3, seed);
            let config = AcceleratorConfig {
                sched,
                ..AcceleratorConfig::chason()
            };
            let scug = sched.pes_per_channel * sched.migration_hops;
            let window = PlanWindow::new(0, 16, schedule);
            let pass = PassPlan {
                row_start: 0,
                row_end: window.schedule.rows,
                nnz: window.nnz,
                windows: vec![window],
            };
            let (_, hazards) =
                peg_replay_pass("chason", &config, scug, true, &pass, 16, &[1.0; 16]).unwrap();
            assert!(hazards > 0, "seed {seed} produced no hazards");
            assert_eq!(pass.windows[0].stream.hazards, hazards, "seed {seed}");
        }
    }

    /// A plan whose window was lowered from a mis-routed schedule is refused
    /// with a routing violation in every build, release included: the
    /// check runs once, when the window is lowered, not per replay.
    #[test]
    fn misrouted_plan_is_refused_in_every_build() {
        let m = chason_sparse::generators::uniform_random(64, 64, 300, 1);
        let engine = ChasonEngine::default();
        let mut plan = engine.plan(&m).unwrap();
        let window = &plan.passes[0].windows[0];
        let mut schedule = window.schedule.clone();
        let slot = schedule
            .channels
            .iter_mut()
            .flat_map(|ch| ch.grid.iter_mut().flatten())
            .flatten()
            .find(|nz| nz.pvt)
            .unwrap();
        slot.row += 1; // now owned by the neighbouring PE
        plan.passes[0].windows[0] = PlanWindow::new(window.col_start, window.col_end, schedule);
        let result = engine.run_planned(&plan, &[1.0; 64]);
        assert!(
            matches!(result, Err(SimError::RoutingViolation(_))),
            "{result:?}"
        );
    }

    /// A Serpens engine refuses a stream carrying migrated elements: its PEs
    /// have no ScUG to accumulate them in.
    #[test]
    fn serpens_refuses_migrated_streams() {
        let m = chason_sparse::generators::power_law(256, 256, 2_000, 1.7, 3);
        let chason = ChasonEngine::default();
        let mut plan = chason.plan(&m).unwrap();
        assert!(plan.passes[0].windows.iter().any(|w| w.stream.migrated > 0));
        plan.engine = "serpens".to_string();
        let serpens = SerpensEngine::default();
        let result = serpens.run_planned(&plan, &vec![1.0; 256]);
        assert!(
            matches!(result, Err(SimError::RoutingViolation(_))),
            "{result:?}"
        );
    }
}
