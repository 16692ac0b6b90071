//! A library of targeted schedule corruptions.
//!
//! Each [`Corruption`] breaks exactly one invariant of an otherwise-clean
//! [`ScheduledMatrix`], chosen so the checker's corresponding rule — and
//! ideally only it — fires. The mutation test suite applies every
//! corruption to every schedule in its generator corpus and asserts the
//! [`expected rule`](Corruption::expected_rule) is reported; the
//! `chason verify --corrupt` CLI flag uses the same library to produce
//! demonstration fixtures.

use chason_core::diag::RuleId;
use chason_core::element::WINDOW;
use chason_core::schedule::{NzSlot, ScheduledMatrix};

/// One targeted corruption of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corruption {
    /// Set a scheduled value to `+0.0`, colliding with the stall word.
    ZeroValue,
    /// Push a column index past the 13-bit window budget.
    ColOverflow,
    /// Stream a second, bit-identical copy of an entry from another channel.
    DuplicateAcrossChannels,
    /// Silently drop one scheduled non-zero.
    DropElement,
    /// Reorder a lane so a row re-enters its PE within the RAW distance.
    RawSqueeze,
    /// Re-home a private element two ring hops away (hop budget is 1).
    TwoHopMigration,
    /// Flip a slot's `pvt` tag without moving it.
    TagFlip,
    /// Point a slot's `PE_src` tag at the wrong source lane.
    PeSrcSwap,
    /// Give one cycle more lanes than the PEG has PEs.
    RaggedLanes,
    /// Append a physical all-stall cycle to the longest channel.
    PhantomPadding,
}

impl Corruption {
    /// Every corruption, in declaration order.
    pub const ALL: [Corruption; 10] = [
        Corruption::ZeroValue,
        Corruption::ColOverflow,
        Corruption::DuplicateAcrossChannels,
        Corruption::DropElement,
        Corruption::RawSqueeze,
        Corruption::TwoHopMigration,
        Corruption::TagFlip,
        Corruption::PeSrcSwap,
        Corruption::RaggedLanes,
        Corruption::PhantomPadding,
    ];

    /// Stable kebab-case name (the `chason verify --corrupt` argument).
    pub fn name(self) -> &'static str {
        match self {
            Corruption::ZeroValue => "zero-value",
            Corruption::ColOverflow => "col-overflow",
            Corruption::DuplicateAcrossChannels => "duplicate",
            Corruption::DropElement => "drop",
            Corruption::RawSqueeze => "raw-squeeze",
            Corruption::TwoHopMigration => "two-hop",
            Corruption::TagFlip => "tag-flip",
            Corruption::PeSrcSwap => "pe-src-swap",
            Corruption::RaggedLanes => "ragged",
            Corruption::PhantomPadding => "padding",
        }
    }

    /// Parses a [`name`](Corruption::name) back into a corruption.
    pub fn from_name(name: &str) -> Option<Self> {
        Corruption::ALL.into_iter().find(|c| c.name() == name)
    }

    /// The rule the corruption is designed to trip. (Collateral findings —
    /// e.g. a dropped element also leaving a trailing stall cycle — may fire
    /// additional rules; this one is guaranteed.)
    pub fn expected_rule(self) -> RuleId {
        match self {
            Corruption::ZeroValue | Corruption::ColOverflow => RuleId::S001,
            Corruption::DuplicateAcrossChannels | Corruption::DropElement => RuleId::S002,
            Corruption::RawSqueeze => RuleId::S003,
            Corruption::TwoHopMigration => RuleId::S004,
            Corruption::TagFlip | Corruption::PeSrcSwap => RuleId::S005,
            Corruption::RaggedLanes | Corruption::PhantomPadding => RuleId::S006,
        }
    }

    /// Applies the corruption in place. Returns `false` when the schedule
    /// offers no site for it (e.g. no migrated slot to tag-flip, or too few
    /// channels for a two-hop move); the schedule is unchanged in that case.
    pub fn apply(self, s: &mut ScheduledMatrix) -> bool {
        match self {
            Corruption::ZeroValue => with_first_nz(s, |nz| nz.value = 0.0),
            Corruption::ColOverflow => with_first_nz(s, |nz| nz.col += WINDOW),
            Corruption::DuplicateAcrossChannels => duplicate_across_channels(s),
            Corruption::DropElement => {
                let Some((c, cycle, lane)) = first_nz(s) else {
                    return false;
                };
                s.channels[c].grid[cycle][lane] = None;
                true
            }
            Corruption::RawSqueeze => raw_squeeze(s),
            Corruption::TwoHopMigration => two_hop_migration(s),
            Corruption::TagFlip => tag_flip(s),
            Corruption::PeSrcSwap => pe_src_swap(s),
            Corruption::RaggedLanes => {
                let Some(ch) = s.channels.iter_mut().find(|ch| !ch.grid.is_empty()) else {
                    return false;
                };
                ch.grid[0].push(None);
                true
            }
            Corruption::PhantomPadding => {
                let pes = s.config.pes_per_channel;
                let Some(ch) = s.channels.iter_mut().max_by_key(|ch| ch.grid.len()) else {
                    return false;
                };
                if ch.grid.is_empty() {
                    return false;
                }
                ch.grid.push(vec![None; pes]);
                true
            }
        }
    }
}

impl Corruption {
    /// Applies the corruption to the first corruptible window of a plan.
    ///
    /// Plans embed full [`ScheduledMatrix`] grids per window, so every
    /// schedule-level corruption applies unchanged; `verify_plan` must then
    /// report the same [`expected rule`](Corruption::expected_rule) the
    /// schedule-level checker would. Returns `false` when no window offers
    /// a site.
    pub fn apply_to_plan(self, plan: &mut chason_core::plan::SpmvPlan) -> bool {
        plan.passes
            .iter_mut()
            .flat_map(|p| &mut p.windows)
            .any(|w| self.apply(&mut w.schedule))
    }
}

/// Position of the first scheduled non-zero, as (channel, cycle, lane).
fn first_nz(s: &ScheduledMatrix) -> Option<(usize, usize, usize)> {
    s.channels.iter().enumerate().find_map(|(c, ch)| {
        ch.grid.iter().enumerate().find_map(|(cycle, slots)| {
            slots
                .iter()
                .position(Option::is_some)
                .map(|lane| (c, cycle, lane))
        })
    })
}

fn with_first_nz(s: &mut ScheduledMatrix, f: impl FnOnce(&mut NzSlot)) -> bool {
    let Some((c, cycle, lane)) = first_nz(s) else {
        return false;
    };
    if let Some(nz) = s.channels[c].grid[cycle][lane].as_mut() {
        f(nz);
        true
    } else {
        false
    }
}

/// Finds the first slot matching `pred`, as (channel, cycle, lane).
fn find_nz(
    s: &ScheduledMatrix,
    mut pred: impl FnMut(usize, &NzSlot) -> bool,
) -> Option<(usize, usize, usize)> {
    for (c, ch) in s.channels.iter().enumerate() {
        for (cycle, slots) in ch.grid.iter().enumerate() {
            for (lane, slot) in slots.iter().enumerate() {
                if let Some(nz) = slot {
                    if pred(c, nz) {
                        return Some((c, cycle, lane));
                    }
                }
            }
        }
    }
    None
}

/// Streams a bit-identical second copy of a private element from the
/// channel that could legally have received it as a 1-hop migration, with
/// tags a migrated element would carry — only conservation (S002) breaks.
fn duplicate_across_channels(s: &mut ScheduledMatrix) -> bool {
    let cfg = s.config;
    if cfg.channels < 2 {
        return false;
    }
    let Some((c, cycle, lane)) = find_nz(s, |_, nz| nz.pvt) else {
        return false;
    };
    let Some(original) = s.channels[c].grid[cycle][lane] else {
        return false;
    };
    // hop_for(dest, home) == 1  ⇔  dest == home - 1 (mod channels).
    let dest = (c + cfg.channels - 1) % cfg.channels;
    let mut copy = original;
    copy.pvt = false;
    copy.pe_src = cfg.lane_for_row(copy.row) as u8;
    let mut row = vec![None; cfg.pes_per_channel];
    row[0] = Some(copy);
    s.channels[dest].grid.push(row);
    true
}

/// Swaps a lane's slots so two occurrences of one row land one cycle apart.
fn raw_squeeze(s: &mut ScheduledMatrix) -> bool {
    for ch in &mut s.channels {
        let width = ch.grid.iter().map(Vec::len).max().unwrap_or(0);
        for lane in 0..width {
            let mut prev: Option<(usize, usize)> = None; // (cycle, row)
            for cycle in 0..ch.grid.len() {
                let Some(nz) = ch.grid[cycle].get(lane).copied().flatten() else {
                    continue;
                };
                if let Some((a, row)) = prev {
                    if row == nz.row && cycle > a + 1 {
                        // Pull the later occurrence right behind the earlier
                        // one; the displaced slot moves to the later cycle,
                        // so nothing is lost or duplicated.
                        let moved = ch.grid[cycle][lane].take();
                        let displaced = ch.grid[a + 1][lane];
                        ch.grid[a + 1][lane] = moved;
                        ch.grid[cycle][lane] = displaced;
                        return true;
                    }
                }
                prev = Some((cycle, nz.row));
            }
        }
    }
    false
}

/// Moves a private element to a channel two ring hops from its home; the
/// copy carries otherwise-correct migration tags, so only the hop budget
/// (S004) breaks.
fn two_hop_migration(s: &mut ScheduledMatrix) -> bool {
    let cfg = s.config;
    if cfg.channels < 3 || cfg.migration_hops >= 2 {
        return false;
    }
    let Some((c, cycle, lane)) = find_nz(s, |_, nz| nz.pvt) else {
        return false;
    };
    let Some(original) = s.channels[c].grid[cycle][lane].take() else {
        return false;
    };
    // hop_for(dest, home) == 2  ⇔  dest == home - 2 (mod channels).
    let dest = (c + cfg.channels - 2) % cfg.channels;
    let mut moved = original;
    moved.pvt = false;
    moved.pe_src = cfg.lane_for_row(moved.row) as u8;
    let mut row = vec![None; cfg.pes_per_channel];
    row[0] = Some(moved);
    s.channels[dest].grid.push(row);
    true
}

/// Flips `pvt` on a migrated slot (preferred — the lie is "this is mine"),
/// falling back to un-flagging a private slot.
fn tag_flip(s: &mut ScheduledMatrix) -> bool {
    if let Some((c, cycle, lane)) = find_nz(s, |_, nz| !nz.pvt) {
        if let Some(nz) = s.channels[c].grid[cycle][lane].as_mut() {
            nz.pvt = true;
            return true;
        }
    }
    if let Some((c, cycle, lane)) = find_nz(s, |_, nz| nz.pvt) {
        if let Some(nz) = s.channels[c].grid[cycle][lane].as_mut() {
            nz.pvt = false;
            return true;
        }
    }
    false
}

/// Points a slot's `PE_src` at a lane that is not the element's home lane
/// (for migrated slots), or sets a non-zero tag on a private slot.
fn pe_src_swap(s: &mut ScheduledMatrix) -> bool {
    let pes = s.config.pes_per_channel;
    if let Some((c, cycle, lane)) = find_nz(s, |_, nz| !nz.pvt) {
        if let Some(nz) = s.channels[c].grid[cycle][lane].as_mut() {
            nz.pe_src = if pes >= 2 {
                ((nz.pe_src as usize + 1) % pes) as u8
            } else {
                7
            };
            return true;
        }
    }
    if let Some((c, cycle, lane)) = find_nz(s, |_, nz| nz.pvt) {
        if let Some(nz) = s.channels[c].grid[cycle][lane].as_mut() {
            nz.pe_src = 1;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for c in Corruption::ALL {
            assert_eq!(Corruption::from_name(c.name()), Some(c));
        }
        assert_eq!(Corruption::from_name("nope"), None);
    }

    #[test]
    fn every_corruption_targets_a_schedule_rule() {
        for c in Corruption::ALL {
            let code = c.expected_rule().code();
            assert!(code.starts_with('S'), "{code} is not a schedule rule");
        }
    }

    #[test]
    fn plan_level_corruption_is_caught_by_verify_plan() {
        use chason_core::plan::{PassPlan, PlanKey, PlanWindow, SpmvPlan};
        use chason_core::schedule::{Crhcs, Scheduler, SchedulerConfig};
        use chason_sparse::generators::uniform_random;

        let m = uniform_random(48, 48, 260, 21);
        let config = SchedulerConfig::toy(3, 3, 4);
        let schedule = Crhcs::new().schedule(&m, &config);
        let clean = SpmvPlan {
            key: PlanKey::new(&m, config),
            engine: "chason".to_string(),
            window: 8192,
            rows: 48,
            cols: 48,
            nnz: m.nnz(),
            passes: vec![PassPlan {
                row_start: 0,
                row_end: 48,
                nnz: m.nnz(),
                windows: vec![PlanWindow::new(0, 48, schedule)],
            }],
        };
        assert!(crate::verify_plan(&clean, Some(&m)).is_clean());
        for c in Corruption::ALL {
            let mut plan = clean.clone();
            if !c.apply_to_plan(&mut plan) {
                continue;
            }
            let report = crate::verify_plan(&plan, Some(&m));
            assert!(
                report.rules_fired().contains(&c.expected_rule()),
                "{} did not fire {:?} at plan level",
                c.name(),
                c.expected_rule()
            );
        }
    }
}
