//! The on-disk WAL record frame: length-prefixed, CRC-checksummed groups of
//! wire-encoded operations.
//!
//! Layout of one record (all integers little-endian):
//!
//! ```text
//! +---------+---------+---------+-----------+------------------------+
//! | len u32 | crc u32 | seq u64 | count u32 | count wire-encoded ops |
//! +---------+---------+---------+-----------+------------------------+
//!  `len`  = bytes after the crc field (12 + op bytes)
//!  `crc`  = CRC-32C over those same `len` bytes
//! ```
//!
//! `seq` is the shard's monotonically increasing **group sequence number**
//! (one per group commit); recovery uses it to skip records already covered
//! by a snapshot and to stop at the first discontinuity (a duplicate tail
//! record left by a torn rewrite reuses a seq and is rejected).
//!
//! [`decode_record`] classifies every way a scan can end ([`RecordError`]):
//! a clean record, a torn tail (fewer bytes than the header or body claims —
//! the normal crash signature, truncated by recovery), or a corrupt record
//! (checksum or payload decode failure — bit rot or a bug). It never panics
//! and never reads past the buffer.

use gre_core::Request;
use gre_core::{decode_requests, encode_requests};

/// Bytes before the checksummed region: the `len` and `crc` fields.
const FRAME_HEADER: usize = 8;
/// Checksummed bytes before the op payload: `seq` and `count`.
const RECORD_HEADER: usize = 12;
/// Sanity cap on a single record's body, so a corrupt length prefix cannot
/// ask recovery to buffer gigabytes. One group is one pipeline sub-batch;
/// 16 MiB is orders of magnitude above any real group.
pub(crate) const MAX_RECORD_LEN: u32 = 16 << 20;
/// Encode one group of operations as a framed record appended to `out`.
pub(crate) fn encode_record(seq: u64, ops: &[Request<u64>], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]); // len + crc backpatched below
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    encode_requests(ops, out);
    let len = (out.len() - start - FRAME_HEADER) as u32;
    debug_assert!(len <= MAX_RECORD_LEN, "a group never approaches the cap");
    let crc = crc32c(&out[start + FRAME_HEADER..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    out.len() - start
}

/// One successfully decoded record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub seq: u64,
    pub ops: Vec<Request<u64>>,
    /// Total framed size in bytes (frame header included).
    pub frame_len: usize,
}

/// Why a record could not be decoded at the current offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes remain than a frame header or the length prefix claims:
    /// the crash signature of a torn append. Recovery truncates here.
    TornTail {
        /// Bytes remaining at the failed offset.
        remaining: usize,
    },
    /// The length prefix exceeds the 16 MiB record cap — a corrupt prefix, not
    /// a plausible record.
    BadLength { claimed: u32 },
    /// The CRC-32C over the record body does not match the stored checksum.
    BadChecksum,
    /// The checksum held but the op payload does not decode — only possible
    /// through a format bug or a collision-grade corruption.
    BadPayload,
}

/// Decode the record starting at `buf[at..]`.
pub fn decode_record(buf: &[u8], at: usize) -> Result<Record, RecordError> {
    let remaining = buf.len().saturating_sub(at);
    if remaining < FRAME_HEADER {
        return Err(RecordError::TornTail { remaining });
    }
    let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN || (len as usize) < RECORD_HEADER {
        return Err(RecordError::BadLength { claimed: len });
    }
    let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes"));
    let body_start = at + FRAME_HEADER;
    let body_end = body_start + len as usize;
    if body_end > buf.len() {
        return Err(RecordError::TornTail { remaining });
    }
    let body = &buf[body_start..body_end];
    if crc32c(body) != crc {
        return Err(RecordError::BadChecksum);
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    let ops =
        decode_requests(&body[RECORD_HEADER..], count as usize).ok_or(RecordError::BadPayload)?;
    Ok(Record {
        seq,
        ops,
        frame_len: FRAME_HEADER + len as usize,
    })
}

/// CRC-32C (Castagnoli), bitwise-reflected, software table implementation.
/// The polynomial choice matches what production log formats use (ext4,
/// iSCSI, RocksDB WALs); the table is built at first use.
pub(crate) fn crc32c(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        const POLY: u32 = 0x82F6_3B78; // reflected 0x1EDC6F41
        let mut table = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    });
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use gre_core::RangeSpec;

    fn sample_ops() -> Vec<Request<u64>> {
        vec![
            Request::Insert(10, 100),
            Request::Update(20, 200),
            Request::Remove(30),
            Request::Range(RangeSpec::bounded(1, 9, 4)),
        ]
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 / iSCSI test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn record_round_trips() {
        let mut buf = Vec::new();
        let written = encode_record(42, &sample_ops(), &mut buf);
        assert_eq!(written, buf.len());
        let rec = decode_record(&buf, 0).expect("valid record");
        assert_eq!(rec.seq, 42);
        assert_eq!(rec.ops, sample_ops());
        assert_eq!(rec.frame_len, buf.len());
    }

    #[test]
    fn back_to_back_records_decode_in_sequence() {
        let mut buf = Vec::new();
        encode_record(1, &sample_ops()[..2], &mut buf);
        let second_at = buf.len();
        encode_record(2, &sample_ops()[2..], &mut buf);
        let first = decode_record(&buf, 0).expect("first");
        assert_eq!(first.frame_len, second_at);
        let second = decode_record(&buf, first.frame_len).expect("second");
        assert_eq!(second.seq, 2);
        assert_eq!(second.ops, sample_ops()[2..]);
    }

    #[test]
    fn every_truncation_is_a_torn_tail() {
        let mut buf = Vec::new();
        encode_record(7, &sample_ops(), &mut buf);
        for cut in 0..buf.len() {
            match decode_record(&buf[..cut], 0) {
                Err(RecordError::TornTail { .. }) => {}
                other => panic!("cut at {cut}: expected torn tail, got {other:?}"),
            }
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut pristine = Vec::new();
        encode_record(7, &sample_ops(), &mut pristine);
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                let mut buf = pristine.clone();
                buf[byte] ^= 1 << bit;
                // A flip in the length prefix may masquerade as a torn
                // tail or an absurd length; anywhere else it must be the
                // checksum that catches it. All are detections — only a
                // silent clean decode is a failure.
                if let Ok(rec) = decode_record(&buf, 0) {
                    panic!("flip {byte}.{bit} decoded silently as seq {}", rec.seq);
                }
            }
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        encode_record(7, &sample_ops(), &mut buf);
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_record(&buf, 0),
            Err(RecordError::BadLength { claimed: u32::MAX })
        ));
        // A length below the record header is equally implausible.
        buf[0..4].copy_from_slice(&4u32.to_le_bytes());
        assert!(matches!(
            decode_record(&buf, 0),
            Err(RecordError::BadLength { claimed: 4 })
        ));
    }

    #[test]
    fn empty_group_is_a_valid_record() {
        let mut buf = Vec::new();
        encode_record(1, &[], &mut buf);
        let rec = decode_record(&buf, 0).expect("valid");
        assert!(rec.ops.is_empty());
    }

    #[test]
    fn a_count_with_the_top_bit_set_is_a_bad_payload() {
        // Older logs flagged a range-handoff record with the count's top bit
        // and a 30-byte body that is no op encoding. Such a frame passes the
        // checksum, then must fail the payload decode — without reserving
        // 2^31 op slots first.
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0x8000_0000u32.to_le_bytes());
        body.push(1);
        body.extend_from_slice(&[0u8; 29]);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32c(&body).to_le_bytes());
        buf.extend_from_slice(&body);
        assert_eq!(decode_record(&buf, 0), Err(RecordError::BadPayload));
    }
}
