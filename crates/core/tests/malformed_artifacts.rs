//! Malformed-input corpus for the binary artifact readers.
//!
//! `chason-serve` feeds `read_plan` bytes straight off a socket, so the
//! readers must hard-fail with a typed [`ExportError`] on *any* input —
//! truncated, bit-flipped, or count-bombed — without panicking and without
//! allocating proportionally to attacker-declared counts.

use chason_core::export::{read_plan, read_schedule, write_plan, write_schedule, ExportError};
use chason_core::plan::{PassPlan, PlanKey, PlanWindow, SpmvPlan};
use chason_core::schedule::{Crhcs, Scheduler, SchedulerConfig};
use chason_sparse::generators::power_law;

fn sample_plan_bytes() -> Vec<u8> {
    let m = power_law(64, 64, 300, 1.7, 5);
    let config = SchedulerConfig::toy(4, 4, 6);
    let schedule = Crhcs::new().schedule(&m, &config);
    let plan = SpmvPlan {
        key: PlanKey::new(&m, config),
        engine: "chason".to_string(),
        window: 8192,
        rows: 64,
        cols: 64,
        nnz: 300,
        passes: vec![PassPlan {
            row_start: 0,
            row_end: 64,
            nnz: 300,
            windows: vec![PlanWindow::new(0, 64, schedule)],
        }],
    };
    let mut buf = Vec::new();
    write_plan(&mut buf, &plan).unwrap();
    buf
}

fn sample_schedule_bytes() -> Vec<u8> {
    let m = power_law(64, 64, 300, 1.7, 5);
    let schedule = Crhcs::new().schedule(&m, &SchedulerConfig::toy(4, 4, 6));
    let mut buf = Vec::new();
    write_schedule(&mut buf, &schedule).unwrap();
    buf
}

/// Deterministic PRNG for the mutation corpus (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn every_truncation_of_a_plan_is_a_typed_error() {
    let bytes = sample_plan_bytes();
    // Every strict prefix must fail cleanly; step 1 for the header region
    // (where field boundaries live), a coarser stride over the slot data.
    let fine_region = 256.min(bytes.len());
    let lengths = (0..fine_region).chain((fine_region..bytes.len()).step_by(7));
    for len in lengths {
        match read_plan(&bytes[..len]) {
            Err(ExportError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "len {len}")
            }
            Err(_) => {} // a truncated count field may decode as garbage first
            Ok(_) => panic!("truncated plan of {len} bytes parsed successfully"),
        }
    }
}

#[test]
fn every_truncation_of_a_schedule_is_a_typed_error() {
    let bytes = sample_schedule_bytes();
    for len in (0..bytes.len()).step_by(3) {
        assert!(
            read_schedule(&bytes[..len]).is_err(),
            "truncated schedule of {len} bytes parsed"
        );
    }
}

#[test]
fn random_byte_corruptions_never_panic() {
    let bytes = sample_plan_bytes();
    let mut rng = SplitMix64(0x5eed);
    for _ in 0..4000 {
        let mut corrupted = bytes.clone();
        let pos = (rng.next() as usize) % corrupted.len();
        let val = rng.next() as u8;
        corrupted[pos] = val;
        // Either outcome is fine; what must never happen is a panic or an
        // unbounded allocation. (Corruptions in slot payload bytes can
        // still decode to a structurally valid plan.)
        let _ = read_plan(&corrupted[..]);
    }
}

#[test]
fn random_multi_byte_corruptions_never_panic() {
    let bytes = sample_plan_bytes();
    let mut rng = SplitMix64(0xfeed_beef);
    for _ in 0..1000 {
        let mut corrupted = bytes.clone();
        for _ in 0..1 + (rng.next() % 8) {
            let pos = (rng.next() as usize) % corrupted.len();
            corrupted[pos] = rng.next() as u8;
        }
        let _ = read_plan(&corrupted[..]);
    }
}

#[test]
fn count_bomb_fails_fast_without_allocating() {
    // A CHPL header that declares the format cap of 2^20 passes and then
    // ends. Before the hardening this pre-allocated per declared count;
    // now it must fail with clean truncation after reading ~0 bytes.
    let mut bytes = sample_plan_bytes();
    // pass count offset: magic 4 + version 4 + fingerprint 8 + config 20 +
    // engine len 4 + "chason" 6 + window/rows/cols/nnz 32 = 78.
    bytes.truncate(78);
    bytes.extend_from_slice(&(1u64 << 20).to_le_bytes());
    let err = read_plan(&bytes[..]).unwrap_err();
    assert!(matches!(err, ExportError::Io(_)), "{err}");

    // One past the cap is rejected as Oversized before any read.
    let mut bytes = sample_plan_bytes();
    bytes.truncate(78);
    bytes.extend_from_slice(&((1u64 << 20) + 1).to_le_bytes());
    let err = read_plan(&bytes[..]).unwrap_err();
    assert!(
        matches!(
            err,
            ExportError::Oversized {
                what: "pass",
                got: _,
                cap: _
            }
        ),
        "{err}"
    );
}

#[test]
fn schedule_cycle_bomb_fails_fast_without_allocating() {
    // CHSN header declaring 2^30 cycles with no list data: the implied
    // 2^30 × pes word count is under the format cap, so the reader must
    // hit truncation (not an allocation abort) almost immediately.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"CHSN");
    bytes.extend_from_slice(&1u32.to_le_bytes()); // version
    for v in [4u32, 4, 6, 1] {
        bytes.extend_from_slice(&v.to_le_bytes()); // channels/pes/distance/hops
    }
    for v in [64u64, 64, 300, 1 << 30] {
        bytes.extend_from_slice(&v.to_le_bytes()); // rows/cols/nnz/cycles
    }
    let err = read_schedule(&bytes[..]).unwrap_err();
    assert!(matches!(err, ExportError::Io(_)), "{err}");
}

#[test]
fn oversized_engine_name_is_rejected() {
    let mut bytes = sample_plan_bytes();
    // engine-name length field offset: magic 4 + version 4 + fingerprint 8
    // + config 20 = 36.
    bytes[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = read_plan(&bytes[..]).unwrap_err();
    assert!(err.to_string().contains("engine name"), "{err}");
}

#[test]
fn foreign_containers_are_rejected_with_bad_magic() {
    let plan = sample_plan_bytes();
    let schedule = sample_schedule_bytes();
    // Feeding each container to the other reader is a magic failure.
    assert!(matches!(
        read_plan(&schedule[..]).unwrap_err(),
        ExportError::BadMagic { expected: "CHPL" }
    ));
    assert!(matches!(
        read_schedule(&plan[..]).unwrap_err(),
        ExportError::BadMagic { expected: "CHSN" }
    ));
    assert!(read_plan(&b""[..]).is_err());
    assert!(read_schedule(&b"CH"[..]).is_err());
}

#[test]
fn export_error_converts_to_io_error() {
    let err = read_plan(&b"XXXXXXXX"[..]).unwrap_err();
    let io_err: std::io::Error = err.into();
    assert_eq!(io_err.kind(), std::io::ErrorKind::InvalidData);
}
