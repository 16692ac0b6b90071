//! Flat replay streams: a window's schedule lowered once for execution.
//!
//! A [`ScheduledMatrix`] is a per-channel grid of `Option<NzSlot>` — the
//! right shape for scheduling, verification and export, but a poor one to
//! execute: every replay would walk stall slots, re-derive each element's
//! accumulator from its routing tags, and re-run the RAW-hazard detector,
//! none of which depends on the dense vector. [`ReplayStream::lower`] does
//! that work once per window and keeps only what a replay needs: three
//! contiguous arrays (`value`, `x_index`, `acc`) with stall slots left out —
//! the software analogue of SSSR's dense register streams over sparse data.
//!
//! Entries are laid out in window → channel → cycle → lane order, the order
//! the PEG models consumed the grid in. Every accumulator belongs to exactly
//! one PE, which sees its elements in cycle order, so a replay that walks the
//! stream front to back adds into every partial sum in the same order as the
//! cycle-level model and reproduces its `y` bit for bit.

use crate::schedule::{ScheduledMatrix, SchedulerConfig};

/// Largest accumulator space a pass may lower into (partial sums across
/// every PE's private and ScUG banks). Plan artifacts are untrusted input,
/// so the bound keeps a forged geometry from sizing the hazard detector's
/// scratch; real passes stay far below it (the paper's 128 PEs at full URAM
/// capacity with three migration hops need about 2^24.6).
pub const MAX_ACCUMULATORS: usize = 1 << 28;

/// Where each partial sum of one row-partition pass lives in the flat
/// accumulator array a replay adds into.
///
/// The first [`private_len`](Self::private_len) entries are the PEs'
/// `URAM_pvt` banks, indexed by pass-local row (row `r` is owned by exactly
/// one PE at local address `r / total_pes`). The rest are the ScUG banks:
/// channel `c`'s PE `lane` keeps `scug` banks of `rows_per_pe` partial sums,
/// stored lane-minor so the Reduction Unit's sum over a bank's PEs reads
/// contiguous memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccumulatorLayout {
    /// PEs per channel.
    pub pes: usize,
    /// PEs across all channels.
    pub total_pes: usize,
    /// Partial sums per URAM bank (`ceil(rows / total_pes)`).
    pub rows_per_pe: usize,
    /// ScUG banks per PE: one per neighbour PE per migration hop.
    pub scug: usize,
}

impl AccumulatorLayout {
    /// The layout of a pass of `rows` rows under `config`.
    pub fn new(config: &SchedulerConfig, rows: usize) -> Self {
        let total_pes = config.total_pes().max(1);
        AccumulatorLayout {
            pes: config.pes_per_channel,
            total_pes,
            rows_per_pe: rows.div_ceil(total_pes),
            scug: config.pes_per_channel * config.migration_hops,
        }
    }

    /// Entries of the private (`URAM_pvt`) region.
    pub fn private_len(&self) -> usize {
        self.total_pes * self.rows_per_pe
    }

    /// Entries of the whole array, or `None` if it overflows `usize`.
    pub fn checked_len(&self) -> Option<usize> {
        self.total_pes
            .checked_mul(self.rows_per_pe)?
            .checked_mul(self.scug + 1)
    }

    /// Index of bank `bank`, local row `local_row` of the ScUG of PE
    /// `lane` in channel `channel`.
    pub fn shared(&self, channel: usize, lane: usize, bank: usize, local_row: usize) -> usize {
        self.private_len()
            + ((channel * self.scug + bank) * self.rows_per_pe + local_row) * self.pes
            + lane
    }
}

/// One column window's schedule, lowered for replay.
///
/// Built by [`ReplayStream::lower`] (via
/// [`PlanWindow::new`](crate::plan::PlanWindow::new)); derived from the
/// schedule and never serialized.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayStream {
    /// Non-zero values in replay order.
    pub value: Vec<f32>,
    /// Window-local column of each value: the `x` word it multiplies.
    pub x_index: Vec<u32>,
    /// [`AccumulatorLayout`] index each product is added to.
    pub acc: Vec<u32>,
    /// Busy PEs per stream cycle, summed over channels.
    pub occupancy: Vec<u16>,
    /// Entries that accumulate into ScUG banks (migrated elements). An
    /// engine without a ScUG (Serpens) cannot execute them.
    pub migrated: usize,
    /// Accumulator read-modify-write hazards: the same partial sum entering
    /// its PE twice within the dependency distance. A valid schedule has
    /// none.
    pub hazards: u64,
    /// The first routing violation in stream order, if any. Lowering stops
    /// there; a stream with a fault must not be executed.
    pub fault: Option<String>,
}

impl ReplayStream {
    /// Lowers a window's schedule (`width` columns wide) into its replay
    /// stream, checking every element's routing the way the PE Router
    /// does and counting RAW hazards with a dense last-access array.
    pub fn lower(schedule: &ScheduledMatrix, width: usize) -> Self {
        let mut stream = ReplayStream::default();
        if let Err(fault) = stream.fill(schedule, width) {
            stream.fault = Some(fault);
        }
        stream
    }

    /// Multiply-accumulate operations one replay performs.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the window streams no non-zeros.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Heap bytes the stream occupies.
    pub fn bytes(&self) -> usize {
        self.value.capacity() * 4
            + self.x_index.capacity() * 4
            + self.acc.capacity() * 4
            + self.occupancy.capacity() * 2
    }

    fn fill(&mut self, schedule: &ScheduledMatrix, width: usize) -> Result<(), String> {
        let sched = &schedule.config;
        if !sched.is_valid() {
            return Err("schedule carries an invalid scheduler configuration".to_string());
        }
        if schedule.channels.len() > sched.channels {
            return Err(format!(
                "schedule has {} channels but the configuration has {}",
                schedule.channels.len(),
                sched.channels
            ));
        }
        let layout = AccumulatorLayout::new(sched, schedule.rows);
        let accumulators = layout
            .checked_len()
            .filter(|&n| n <= MAX_ACCUMULATORS)
            .ok_or_else(|| {
                format!(
                    "a {}-row pass needs more than {MAX_ACCUMULATORS} partial sums",
                    schedule.rows
                )
            })?;
        let cycles = schedule.stream_cycles();
        if cycles >= u32::MAX as usize {
            return Err(format!("a {cycles}-cycle stream is too long to replay"));
        }
        let nonzeros = schedule.scheduled_nonzeros();
        self.value.reserve_exact(nonzeros);
        self.x_index.reserve_exact(nonzeros);
        self.acc.reserve_exact(nonzeros);
        self.occupancy = vec![0; cycles];
        // Cycle (plus one; zero = never) each partial sum last entered its
        // accumulator.
        let mut last_access = vec![0u32; accumulators];
        for (c, channel) in schedule.channels.iter().enumerate() {
            for (cycle, slots) in channel.grid.iter().enumerate() {
                if slots.len() > sched.pes_per_channel {
                    return Err(format!(
                        "channel {c} cycle {cycle} carries {} lanes but a PEG has {} PEs",
                        slots.len(),
                        sched.pes_per_channel
                    ));
                }
                for (lane, nz) in slots.iter().enumerate() {
                    let Some(nz) = nz else { continue };
                    let local_row = sched.local_row(nz.row);
                    if local_row >= layout.rows_per_pe {
                        return Err(format!(
                            "element of row {} lies outside the {}-row pass",
                            nz.row, schedule.rows
                        ));
                    }
                    let x_index = u32::try_from(nz.col)
                        .ok()
                        .filter(|&col| (col as usize) < width)
                        .ok_or_else(|| {
                            format!(
                                "element of column {} lies outside the {width}-column window",
                                nz.col
                            )
                        })?;
                    let acc = if nz.pvt {
                        if sched.channel_for_row(nz.row) != c || sched.lane_for_row(nz.row) != lane
                        {
                            return Err(format!(
                                "private element of row {} reached PE ({c}, {lane})",
                                nz.row
                            ));
                        }
                        nz.row
                    } else {
                        let hop = sched.hop_for(c, sched.channel_for_row(nz.row));
                        if hop == 0 {
                            return Err(format!(
                                "element of row {} tagged as migrated inside its home channel {c}",
                                nz.row
                            ));
                        }
                        let bank = (hop - 1) * sched.pes_per_channel + usize::from(nz.pe_src);
                        if bank >= layout.scug {
                            return Err(format!(
                                "migrated element (hop {hop}, PE_src {}) reached PE ({c}, {lane}) with ScUG size {}",
                                nz.pe_src, layout.scug
                            ));
                        }
                        self.migrated += 1;
                        layout.shared(c, lane, bank, local_row)
                    };
                    // `cycle < cycles < u32::MAX`.
                    let now = cycle as u32 + 1;
                    let prev = last_access[acc];
                    if prev != 0 && ((now - prev) as usize) < sched.dependency_distance {
                        self.hazards += 1;
                    }
                    last_access[acc] = now;
                    self.occupancy[cycle] += 1;
                    self.value.push(nz.value);
                    self.x_index.push(x_index);
                    // `acc < accumulators <= MAX_ACCUMULATORS < 2^32`.
                    self.acc.push(acc as u32);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ChannelSchedule, Crhcs, NzSlot, Scheduler};
    use chason_sparse::generators::power_law;

    fn toy() -> SchedulerConfig {
        SchedulerConfig::toy(2, 2, 4)
    }

    fn one_channel(
        config: SchedulerConfig,
        rows: usize,
        grid: Vec<Vec<Option<NzSlot>>>,
    ) -> ScheduledMatrix {
        let nnz = grid.iter().flatten().flatten().count();
        ScheduledMatrix {
            config,
            channels: vec![ChannelSchedule { channel: 0, grid }],
            rows,
            cols: 8,
            nnz,
        }
    }

    #[test]
    fn stalls_are_left_out_and_order_is_cycle_then_lane() {
        // Rows 0 and 1 are owned by channel 0, lanes 0 and 1.
        let grid = vec![
            vec![Some(NzSlot::private(1.0, 0, 3)), None],
            vec![None, Some(NzSlot::private(2.0, 1, 5))],
            vec![
                Some(NzSlot::private(3.0, 4, 0)),
                Some(NzSlot::private(4.0, 5, 1)),
            ],
        ];
        let stream = ReplayStream::lower(&one_channel(toy(), 8, grid), 8);
        assert_eq!(stream.fault, None);
        assert_eq!(stream.value, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(stream.x_index, vec![3, 5, 0, 1]);
        assert_eq!(stream.acc, vec![0, 1, 4, 5]);
        assert_eq!(stream.occupancy, vec![1, 1, 2]);
        assert_eq!((stream.migrated, stream.hazards), (0, 0));
    }

    #[test]
    fn migrated_elements_land_in_the_streaming_pes_scug() {
        // Row 2 belongs to channel 1 lane 0; channel 0 lane 1 streams it.
        let slot = NzSlot {
            value: 2.0,
            row: 2,
            col: 0,
            pvt: false,
            pe_src: 0,
        };
        let stream = ReplayStream::lower(&one_channel(toy(), 8, vec![vec![None, Some(slot)]]), 8);
        let layout = AccumulatorLayout::new(&toy(), 8);
        assert_eq!(stream.acc, vec![layout.shared(0, 1, 0, 0) as u32]);
        assert_eq!(stream.migrated, 1);
    }

    #[test]
    fn routing_faults_stop_lowering() {
        // Row 1 is owned by lane 1, not lane 0.
        let grid = vec![vec![Some(NzSlot::private(1.0, 1, 0)), None]];
        let stream = ReplayStream::lower(&one_channel(toy(), 8, grid), 8);
        assert!(stream.fault.unwrap().contains("reached PE (0, 0)"));
        let grid = vec![vec![Some(NzSlot::private(1.0, 0, 9)), None]];
        let stream = ReplayStream::lower(&one_channel(toy(), 8, grid), 8);
        assert!(stream
            .fault
            .unwrap()
            .contains("outside the 8-column window"));
    }

    #[test]
    fn hazards_are_counted_within_the_dependency_distance() {
        // Row 0 enters PE (0, 0) at cycles 0, 1 and 5 with distance 4: the
        // second access collides, the third does not.
        let mut grid = vec![vec![None, None]; 6];
        for cycle in [0, 1, 5] {
            grid[cycle][0] = Some(NzSlot::private(1.0, 0, cycle));
        }
        let stream = ReplayStream::lower(&one_channel(toy(), 8, grid), 8);
        assert_eq!(stream.hazards, 1);
    }

    #[test]
    fn forged_geometry_is_refused_without_allocating() {
        let schedule = ScheduledMatrix {
            config: toy(),
            channels: Vec::new(),
            rows: usize::MAX / 2,
            cols: 8,
            nnz: 0,
        };
        assert!(ReplayStream::lower(&schedule, 8).fault.is_some());
    }

    #[test]
    fn real_schedules_lower_cleanly() {
        let m = power_law(256, 256, 2_000, 1.7, 3);
        let schedule = Crhcs::new().schedule(&m, &toy());
        let stream = ReplayStream::lower(&schedule, 256);
        assert_eq!(stream.fault, None);
        assert_eq!(stream.hazards, 0);
        assert_eq!(stream.len(), m.nnz());
        assert_eq!(stream.occupancy.len(), schedule.stream_cycles());
        assert!(stream.migrated > 0);
    }
}
