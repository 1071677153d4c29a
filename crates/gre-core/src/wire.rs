//! Wire serialization of the typed operation vocabulary.
//!
//! The durability tier logs accepted write operations to a per-shard
//! write-ahead log and replays them on recovery, so [`Request<u64>`] needs a
//! stable, self-delimiting byte encoding. The format is deliberately boring:
//! a one-byte tag followed by fixed-width little-endian fields, no varints,
//! no padding. Every encoded operation decodes back to exactly the request
//! that produced it ([`decode_request`] returns the consumed length, so
//! operations can be concatenated back to back inside a log record).
//!
//! Corruption robustness is split between layers: this module only promises
//! to *reject* (return `None` for) any prefix it cannot decode — truncated
//! buffers, unknown tags — never to panic or to read past `buf`. Detecting
//! *silent* corruption (bit flips that still decode) is the log layer's job;
//! `gre-durability` wraps each record of concatenated operations in a
//! length-prefixed, CRC-checksummed frame.

use crate::index::RangeSpec;
use crate::key::Payload;
use crate::ops::Request;

/// Operation tags. `u8` values are part of the on-disk format: never reuse
/// or renumber, only append.
const TAG_GET: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_REMOVE: u8 = 4;
const TAG_RANGE: u8 = 5;
const TAG_RANGE_BOUNDED: u8 = 6;

/// Bytes of the shortest encoded operation (a get or a remove: tag + key).
const MIN_REQUEST_LEN: usize = 9;

/// Append the wire encoding of `op` to `out`. Returns the number of bytes
/// written.
pub fn encode_request(op: &Request<u64>, out: &mut Vec<u8>) -> usize {
    let before = out.len();
    match *op {
        Request::Get(k) => {
            out.push(TAG_GET);
            out.extend_from_slice(&k.to_le_bytes());
        }
        Request::Insert(k, v) => {
            out.push(TAG_INSERT);
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        Request::Update(k, v) => {
            out.push(TAG_UPDATE);
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        Request::Remove(k) => {
            out.push(TAG_REMOVE);
            out.extend_from_slice(&k.to_le_bytes());
        }
        Request::Range(spec) => {
            match spec.end {
                None => out.push(TAG_RANGE),
                Some(end) => {
                    out.push(TAG_RANGE_BOUNDED);
                    out.extend_from_slice(&end.to_le_bytes());
                }
            }
            out.extend_from_slice(&spec.start.to_le_bytes());
            out.extend_from_slice(&(spec.count as u64).to_le_bytes());
        }
    }
    out.len() - before
}

/// Read one `u64` at `at`, or `None` past the end.
#[inline]
fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    let bytes = buf.get(at..at + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
}

/// Decode one operation from the front of `buf`. Returns the request and
/// the number of bytes consumed, or `None` if the buffer is truncated or
/// starts with an unknown tag (the caller treats either as corruption).
pub fn decode_request(buf: &[u8]) -> Option<(Request<u64>, usize)> {
    let tag = *buf.first()?;
    match tag {
        TAG_GET => Some((Request::Get(read_u64(buf, 1)?), 9)),
        TAG_INSERT => Some((
            Request::Insert(read_u64(buf, 1)?, read_u64(buf, 9)? as Payload),
            17,
        )),
        TAG_UPDATE => Some((
            Request::Update(read_u64(buf, 1)?, read_u64(buf, 9)? as Payload),
            17,
        )),
        TAG_REMOVE => Some((Request::Remove(read_u64(buf, 1)?), 9)),
        TAG_RANGE => {
            let start = read_u64(buf, 1)?;
            let count = read_u64(buf, 9)?;
            Some((
                Request::Range(RangeSpec::new(start, usize::try_from(count).ok()?)),
                17,
            ))
        }
        TAG_RANGE_BOUNDED => {
            let end = read_u64(buf, 1)?;
            let start = read_u64(buf, 9)?;
            let count = read_u64(buf, 17)?;
            Some((
                Request::Range(RangeSpec::bounded(start, end, usize::try_from(count).ok()?)),
                25,
            ))
        }
        _ => None,
    }
}

/// Encode a slice of operations back to back.
pub fn encode_requests(ops: &[Request<u64>], out: &mut Vec<u8>) -> usize {
    let before = out.len();
    for op in ops {
        encode_request(op, out);
    }
    out.len() - before
}

/// Decode exactly `count` concatenated operations from `buf`, requiring the
/// buffer to be fully consumed. `None` on any decode failure, trailing
/// garbage, or short buffer. `count` is untrusted: the reservation is
/// capped at what `buf` can hold, so a corrupt count fails the decode
/// instead of the allocation.
pub fn decode_requests(buf: &[u8], count: usize) -> Option<Vec<Request<u64>>> {
    let mut ops = Vec::with_capacity(count.min(buf.len() / MIN_REQUEST_LEN));
    let mut at = 0usize;
    for _ in 0..count {
        let (op, used) = decode_request(&buf[at..])?;
        ops.push(op);
        at += used;
    }
    (at == buf.len()).then_some(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Request<u64>> {
        vec![
            Request::Get(0),
            Request::Get(u64::MAX),
            Request::Insert(7, 70),
            Request::Update(8, 80),
            Request::Remove(9),
            Request::Range(RangeSpec::new(100, 5)),
            Request::Range(RangeSpec::bounded(100, 200, usize::MAX)),
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for op in all_variants() {
            let mut buf = Vec::new();
            let written = encode_request(&op, &mut buf);
            assert_eq!(written, buf.len());
            let (decoded, used) = decode_request(&buf).expect("decodes");
            assert_eq!(decoded, op);
            assert_eq!(used, buf.len(), "{op:?} must be fully consumed");
        }
    }

    #[test]
    fn concatenated_streams_round_trip() {
        let ops = all_variants();
        let mut buf = Vec::new();
        encode_requests(&ops, &mut buf);
        let decoded = decode_requests(&buf, ops.len()).expect("decodes");
        assert_eq!(decoded, ops);
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        for op in all_variants() {
            let mut buf = Vec::new();
            encode_request(&op, &mut buf);
            for cut in 0..buf.len() {
                assert_eq!(
                    decode_request(&buf[..cut]).map(|(o, _)| o),
                    None,
                    "{op:?} truncated to {cut} bytes must not decode"
                );
            }
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(decode_request(&[0u8; 32]).is_none());
        assert!(decode_request(&[99u8; 32]).is_none());
        assert!(decode_request(&[]).is_none());
    }

    #[test]
    fn trailing_garbage_fails_strict_stream_decode() {
        let mut buf = Vec::new();
        encode_request(&Request::Get(1), &mut buf);
        buf.push(0xFF);
        assert!(decode_requests(&buf, 1).is_none());
    }

    #[test]
    fn an_absurd_count_is_rejected_not_allocated() {
        let mut one_get = Vec::new();
        encode_request(&Request::Get(1), &mut one_get);
        assert_eq!(one_get.len(), MIN_REQUEST_LEN);
        assert!(decode_requests(&one_get, u32::MAX as usize).is_none());
    }
}
