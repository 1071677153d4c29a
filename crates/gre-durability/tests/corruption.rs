//! Corruption-class integration tests: every way a WAL can rot on disk must
//! be *detected*, recovery must stop at the last valid record, and nothing
//! may panic — including on adversarial random bytes.

use gre_core::Request;
use gre_durability::RecordError;
use gre_durability::StopReason;
use gre_durability::TempDir;
use gre_durability::{decode_record, DurableLog, LogFollower, Recovery, SyncPolicy, MANIFEST};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("shard-0.wal")
}

/// Three groups on one shard; returns the byte offsets of each record.
fn seed_log(dir: &Path) -> Vec<usize> {
    let log = DurableLog::create(dir, 1, SyncPolicy::EveryGroup).unwrap();
    log.log_group(0, &[Request::Insert(1, 10), Request::Insert(2, 20)])
        .unwrap();
    log.log_group(0, &[Request::Update(2, 21), Request::Remove(1)])
        .unwrap();
    log.log_group(0, &[Request::Insert(3, 30)]).unwrap();
    drop(log);
    let bytes = std::fs::read(wal_path(dir)).unwrap();
    let mut offsets = vec![0usize];
    let mut at = 0usize;
    while at < bytes.len() {
        at += decode_record(&bytes, at).unwrap().frame_len;
        offsets.push(at);
    }
    offsets // [0, end-of-rec1, end-of-rec2, end-of-rec3]
}

fn recovered_groups(dir: &Path) -> (usize, StopReason) {
    let rec = Recovery::recover(dir).unwrap();
    (rec.shards[0].groups.len(), rec.shards[0].stop)
}

#[test]
fn payload_bit_flip_is_caught_by_the_checksum() {
    let dir = TempDir::new("corrupt-bitflip");
    let offsets = seed_log(dir.path());
    let pristine = std::fs::read(wal_path(dir.path())).unwrap();
    // Flip one bit inside the second record's op payload.
    let mut bytes = pristine.clone();
    bytes[offsets[1] + 20] ^= 0x10;
    std::fs::write(wal_path(dir.path()), &bytes).unwrap();

    let (groups, stop) = recovered_groups(dir.path());
    assert_eq!(groups, 1, "scan stops at the last valid record");
    assert_eq!(stop, StopReason::Corrupt(RecordError::BadChecksum));
}

#[test]
fn truncated_length_prefix_is_a_torn_tail() {
    let dir = TempDir::new("corrupt-shortlen");
    let offsets = seed_log(dir.path());
    let pristine = std::fs::read(wal_path(dir.path())).unwrap();
    // Keep two full records plus 3 bytes of the third's length prefix.
    std::fs::write(wal_path(dir.path()), &pristine[..offsets[2] + 3]).unwrap();

    let (groups, stop) = recovered_groups(dir.path());
    assert_eq!(groups, 2);
    assert_eq!(stop, StopReason::TornTail { dropped: 3 });

    // Resume repairs the tail: the file shrinks to the valid prefix and new
    // groups append cleanly after it.
    let rec = Recovery::recover(dir.path()).unwrap();
    let resumed = rec.resume(SyncPolicy::EveryGroup).unwrap();
    assert_eq!(
        std::fs::metadata(wal_path(dir.path())).unwrap().len(),
        offsets[2] as u64
    );
    resumed.log_group(0, &[Request::Insert(4, 40)]).unwrap();
    let (groups, stop) = recovered_groups(dir.path());
    assert_eq!((groups, stop), (3, StopReason::CleanEnd));
}

#[test]
fn duplicate_tail_record_stops_at_the_sequence_break() {
    let dir = TempDir::new("corrupt-duptail");
    let offsets = seed_log(dir.path());
    let pristine = std::fs::read(wal_path(dir.path())).unwrap();
    // A torn rewrite that re-appends the final record: valid frame, stale
    // seq. The checksum holds, so only seq continuity can reject it.
    let mut bytes = pristine.clone();
    bytes.extend_from_slice(&pristine[offsets[2]..]);
    std::fs::write(wal_path(dir.path()), &bytes).unwrap();

    let (groups, stop) = recovered_groups(dir.path());
    assert_eq!(groups, 3, "all original records survive");
    assert_eq!(
        stop,
        StopReason::SeqBreak {
            expected: 4,
            found: 3
        }
    );
}

#[test]
fn flipping_any_bit_anywhere_never_panics_and_never_gains_records() {
    let dir = TempDir::new("corrupt-sweep");
    seed_log(dir.path());
    let pristine = std::fs::read(wal_path(dir.path())).unwrap();
    for byte in 0..pristine.len() {
        for bit in 0..8 {
            let mut bytes = pristine.clone();
            bytes[byte] ^= 1 << bit;
            std::fs::write(wal_path(dir.path()), &bytes).unwrap();
            let rec = Recovery::recover(dir.path()).unwrap();
            assert!(
                rec.shards[0].groups.len() <= 3,
                "flip {byte}.{bit} must not invent records"
            );
        }
    }
}

#[test]
fn random_garbage_logs_recover_to_empty_without_panicking() {
    let dir = TempDir::new("corrupt-garbage");
    let _ = DurableLog::create(dir.path(), 1, SyncPolicy::EveryGroup).unwrap();
    // A cheap deterministic byte stream; no record structure whatsoever.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for len in [1usize, 7, 64, 1024] {
        let mut garbage = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            garbage.push((state >> 56) as u8);
        }
        std::fs::write(wal_path(dir.path()), &garbage).unwrap();
        let rec = Recovery::recover(dir.path()).unwrap();
        assert!(rec.shards[0].groups.is_empty(), "len {len}");
        assert!(!matches!(rec.shards[0].stop, StopReason::CleanEnd));
    }
}

#[test]
fn manifest_counting_more_shards_than_the_directory_holds_is_invalid_data() {
    let dir = TempDir::new("corrupt-manifest");
    let _ = DurableLog::create(dir.path(), 2, SyncPolicy::EveryGroup).unwrap();
    // `usize::MAX` would overflow any capacity sized from it; 3 names one
    // shard file too many.
    for count in [usize::MAX, 3] {
        let body = format!("gre-wal v1\nshards {count}\n");
        std::fs::write(dir.path().join(MANIFEST), body).unwrap();
        let recovered = Recovery::recover(dir.path()).map(|_| ());
        assert_eq!(
            recovered.unwrap_err().kind(),
            ErrorKind::InvalidData,
            "recover, shards {count}"
        );
        let followed = LogFollower::from_start(dir.path()).map(|_| ());
        assert_eq!(
            followed.unwrap_err().kind(),
            ErrorKind::InvalidData,
            "follow, shards {count}"
        );
    }
}

/// A snapshot that rots after its checkpoint truncated the log leaves a
/// log that starts past what any snapshot covers. No prefix of it is a
/// state that ever existed, so recovery and the follower both refuse it
/// instead of replaying the later records without the earlier ones.
#[test]
fn a_gap_between_the_snapshot_and_the_log_is_invalid_data() {
    let dir = TempDir::new("corrupt-gap");
    let log = DurableLog::create(dir.path(), 1, SyncPolicy::EveryGroup).unwrap();
    log.log_group(0, &[Request::Insert(1, 10)]).unwrap();
    log.checkpoint(0, &[(1, 10)]).unwrap();
    log.log_group(0, &[Request::Insert(2, 20)]).unwrap();
    drop(log);
    let snap = dir.path().join("shard-0.snap");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();

    let recovered = Recovery::recover(dir.path()).map(|_| ());
    assert_eq!(recovered.unwrap_err().kind(), ErrorKind::InvalidData);
    let mut follower = LogFollower::from_start(dir.path()).unwrap();
    assert_eq!(
        follower.poll_all().unwrap_err().kind(),
        ErrorKind::InvalidData
    );
}

/// A duplicated record is a sequence break for every reader: recovery
/// stops before it, and the follower fails rather than skipping it as if
/// a snapshot covered it.
#[test]
fn a_duplicated_record_stops_recovery_and_fails_the_follower() {
    let dir = TempDir::new("corrupt-dup");
    let log = DurableLog::create(dir.path(), 1, SyncPolicy::EveryGroup).unwrap();
    log.log_group(0, &[Request::Insert(1, 10)]).unwrap();
    log.log_group(0, &[Request::Insert(2, 20)]).unwrap();
    drop(log);
    let pristine = std::fs::read(wal_path(dir.path())).unwrap();
    let second = decode_record(&pristine, 0).unwrap().frame_len;
    let mut bytes = pristine.clone();
    bytes.extend_from_slice(&pristine[second..]);
    std::fs::write(wal_path(dir.path()), &bytes).unwrap();

    let (groups, stop) = recovered_groups(dir.path());
    assert_eq!(groups, 2);
    assert_eq!(
        stop,
        StopReason::SeqBreak {
            expected: 3,
            found: 2
        }
    );
    let mut follower = LogFollower::from_start(dir.path()).unwrap();
    assert_eq!(
        follower.poll_all().unwrap_err().kind(),
        ErrorKind::InvalidData
    );
}
