//! Shared versioned, checksum-framed record files and the one binary
//! encoding of durable state.
//!
//! Both durable formats in this workspace — the [`ArtifactStore`] index
//! (`index.rds`/`blobs.rds`) and the attack-campaign checkpoint log — follow
//! the same discipline: a 4-byte magic + `u32` version header, append-only
//! records each sealed with a trailing [`xxh64`] checksum, and *tolerant
//! replay* that stops at the first torn or damaged record instead of
//! failing the whole file. This module is the single home of that format
//! logic:
//!
//! * [`xxh64`], [`write_header`], [`read_header`] — the shared
//!   primitives;
//! * [`frame_record`] / [`FramedReader`] — length-prefixed records (store
//!   index entries, campaign checkpoints carrying frontiers of arbitrary
//!   size);
//! * [`encode_payload`] / [`decode_payload`] — a canonical binary encoding
//!   of the vendored-serde data model, so any `Serialize + Deserialize`
//!   type can travel inside a record body or a store blob. Encoding streams:
//!   the value's `serialize` calls go through an encoding `serde::Sink`
//!   straight into the output buffer, with no [`Value`] tree in between.
//!   Decoding reads the bytes back into a [`Value`] ([`decode_value`]) for
//!   `Deserialize`. No other code in the workspace lays out durable bytes.
//!
//! Corruption is always *local and fail-safe*: a record that does not
//! checksum clean is indistinguishable from end-of-file, and a payload that
//! does not decode is `None` — callers demote both to "recompute", never to
//! wrong data.
//!
//! [`ArtifactStore`]: crate::ArtifactStore

use serde::{Deserialize, Serialize, Sink, Value};
use std::fs::File;
use std::io::Write;

/// Byte length of the `magic + version` file header.
pub const HEADER_LEN: usize = 8;

// XXH64's five 64-bit primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// The checksum sealing every record and store blob: XXH64 with seed 0,
/// the standard four-lane hash that consumes 32-byte stripes. Not
/// cryptographic — it guards against torn writes and bit rot, not
/// adversaries. Identity hashes (keys, fingerprints) use the 128-bit
/// `raindrop::stable_hash_bytes` instead.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = xxh_round(*acc, le64(lane));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &acc| xxh_merge(h, acc))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for word in words {
        h = (h ^ xxh_round(0, le64(word))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64;
        h = (h ^ half.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Writes a `magic + u32 version` header at the file's current position.
pub fn write_header(file: &mut File, magic: [u8; 4], version: u32) -> std::io::Result<()> {
    file.write_all(&magic)?;
    file.write_all(&version.to_le_bytes())?;
    Ok(())
}

/// Reads a file header; `None` when missing/torn/wrong magic.
pub fn read_header(bytes: &[u8], magic: [u8; 4]) -> Option<u32> {
    if bytes.len() < HEADER_LEN || bytes[..4] != magic {
        return None;
    }
    Some(u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")))
}

/// Frames a variable-size record: `u32 len ++ body ++ xxh64(len ++ body)`,
/// the checksum stored little-endian.
pub fn frame_record(body: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(4 + body.len() + 8);
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(body);
    let sum = xxh64(&rec);
    rec.extend_from_slice(&sum.to_le_bytes());
    rec
}

/// Iterates the framed records of a byte buffer, stopping at the first
/// torn, truncated or damaged record (tolerant replay: everything after a
/// bad record is treated as never written).
pub struct FramedReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FramedReader<'a> {
    /// Starts reading at `start` (typically [`HEADER_LEN`]).
    pub fn new(bytes: &'a [u8], start: usize) -> FramedReader<'a> {
        FramedReader { bytes, pos: start.min(bytes.len()) }
    }

    /// The offset of the next unread byte — after iteration ends, the
    /// position replay stopped at (file length when the log was clean).
    pub fn pos(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for FramedReader<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.pos..];
        if rest.len() < 12 {
            return None; // not even len + checksum: torn tail
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let total = 4usize.checked_add(len)?.checked_add(8)?;
        if total > rest.len() {
            return None; // truncated record
        }
        let framed = &rest[..total];
        let (sealed, sum_bytes) = framed.split_at(total - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if xxh64(sealed) != stored {
            return None; // damaged record: stop replay here
        }
        self.pos += total;
        Some(&sealed[4..])
    }
}

// --- canonical binary Value codec -------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;
const TAG_BYTES: u8 = 8;

/// Nesting depth cap for [`decode_value`]: deeper (i.e. corrupt) input
/// errors instead of overflowing the stack.
const MAX_DECODE_DEPTH: usize = 128;

/// The [`Sink`] laying out the canonical binary encoding: a 1-byte tag,
/// then little-endian scalars / `u32`-length-prefixed strings, byte
/// strings, sequences and maps (each map key a length-prefixed string).
/// The encoding is deterministic — equal values encode to equal bytes —
/// which is what lets record contents participate in checksums and content
/// hashes.
struct Encoder<'a>(&'a mut Vec<u8>);

impl Encoder<'_> {
    fn tagged(&mut self, tag: u8, scalar: [u8; 8]) {
        self.0.push(tag);
        self.0.extend_from_slice(&scalar);
    }

    fn len(&mut self, n: usize) {
        self.0.extend_from_slice(&(n as u32).to_le_bytes());
    }

    fn put_bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.0.extend_from_slice(b);
    }
}

impl Sink for Encoder<'_> {
    fn null(&mut self) {
        self.0.push(TAG_NULL);
    }
    fn bool(&mut self, v: bool) {
        self.0.extend_from_slice(&[TAG_BOOL, v as u8]);
    }
    fn i64(&mut self, v: i64) {
        self.tagged(TAG_I64, v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.tagged(TAG_U64, v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.tagged(TAG_F64, v.to_bits().to_le_bytes());
    }
    fn str(&mut self, v: &str) {
        self.0.push(TAG_STR);
        self.put_bytes(v.as_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.0.push(TAG_BYTES);
        self.put_bytes(v);
    }
    fn seq_begin(&mut self, len: usize) {
        self.0.push(TAG_SEQ);
        self.len(len);
    }
    fn seq_end(&mut self) {}
    fn map_begin(&mut self, len: usize) {
        self.0.push(TAG_MAP);
        self.len(len);
    }
    fn map_key(&mut self, key: &str) {
        self.put_bytes(key.as_bytes());
    }
    fn map_end(&mut self) {}
}

/// Decodes a canonical binary [`Value`], requiring the buffer to be exactly
/// one encoded value. `None` for any malformed input.
pub fn decode_value(bytes: &[u8]) -> Option<Value> {
    let mut pos = 0usize;
    let v = decode_at(bytes, &mut pos, 0)?;
    (pos == bytes.len()).then_some(v)
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let end = pos.checked_add(n)?;
    if end > bytes.len() {
        return None;
    }
    let slice = &bytes[*pos..end];
    *pos = end;
    Some(slice)
}

fn take_bytes<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = u32::from_le_bytes(take(bytes, pos, 4)?.try_into().expect("4 bytes")) as usize;
    take(bytes, pos, len)
}

fn take_str(bytes: &[u8], pos: &mut usize) -> Option<String> {
    String::from_utf8(take_bytes(bytes, pos)?.to_vec()).ok()
}

fn decode_at(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    if depth > MAX_DECODE_DEPTH {
        return None;
    }
    let tag = *take(bytes, pos, 1)?.first()?;
    match tag {
        TAG_NULL => Some(Value::Null),
        TAG_BOOL => match take(bytes, pos, 1)?[0] {
            0 => Some(Value::Bool(false)),
            1 => Some(Value::Bool(true)),
            _ => None,
        },
        TAG_I64 => {
            Some(Value::I64(i64::from_le_bytes(take(bytes, pos, 8)?.try_into().expect("8 bytes"))))
        }
        TAG_U64 => {
            Some(Value::U64(u64::from_le_bytes(take(bytes, pos, 8)?.try_into().expect("8 bytes"))))
        }
        TAG_F64 => Some(Value::F64(f64::from_bits(u64::from_le_bytes(
            take(bytes, pos, 8)?.try_into().expect("8 bytes"),
        )))),
        TAG_STR => take_str(bytes, pos).map(Value::Str),
        TAG_BYTES => take_bytes(bytes, pos).map(|b| Value::Bytes(b.to_vec())),
        TAG_SEQ => {
            let count =
                u32::from_le_bytes(take(bytes, pos, 4)?.try_into().expect("4 bytes")) as usize;
            // Every element costs at least one tag byte; a count beyond the
            // remaining input is corrupt, not a huge allocation.
            if count > bytes.len().saturating_sub(*pos) {
                return None;
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_at(bytes, pos, depth + 1)?);
            }
            Some(Value::Seq(items))
        }
        TAG_MAP => {
            let count =
                u32::from_le_bytes(take(bytes, pos, 4)?.try_into().expect("4 bytes")) as usize;
            if count > bytes.len().saturating_sub(*pos) {
                return None;
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let k = take_str(bytes, pos)?;
                let v = decode_at(bytes, pos, depth + 1)?;
                entries.push((k, v));
            }
            Some(Value::Map(entries))
        }
        _ => None,
    }
}

/// Serializes any `Serialize` type to its canonical binary encoding.
pub fn encode_payload<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.serialize(&mut Encoder(&mut out));
    out
}

/// Rebuilds a `Deserialize` type from its canonical binary encoding.
/// `None` for malformed bytes or a shape mismatch — corruption demotes,
/// never panics.
pub fn decode_payload<T: Deserialize>(bytes: &[u8]) -> Option<T> {
    T::from_value(&decode_value(bytes)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Reference XXH64 (seed 0) digests; the inputs reach every tail
        // path: single bytes, a 4-byte word, 8-byte words and 32-byte stripes.
        let upto = |n: u8| (0..n).collect::<Vec<u8>>();
        let cases: [(&[u8], u64); 6] = [
            (b"", 0xef46_db37_51d8_e999),
            (b"a", 0xd24e_c4f1_a98c_6e5b),
            (b"abc", 0x44bc_2cf5_ad77_0999),
            (b"Nobody inspects the spammish repetition", 0xfbce_a83c_8a37_8bf1),
            (&upto(45), 0x10fd_d84d_6409_abdf),
            (&upto(100), 0x6ac1_e580_3216_6597),
        ];
        for (input, want) in cases {
            assert_eq!(xxh64(input), want, "xxh64 of {} bytes", input.len());
        }
    }

    #[test]
    fn framed_replay_stops_at_first_bad_record() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"one"));
        log.extend_from_slice(&frame_record(b"two"));
        log.extend_from_slice(&frame_record(b"three"));
        let all: Vec<&[u8]> = FramedReader::new(&log, 0).collect();
        assert_eq!(all, vec![&b"one"[..], &b"two"[..], &b"three"[..]]);

        // Damage the middle record: replay keeps the head, drops the tail.
        let first_len = frame_record(b"one").len();
        let mut bad = log.clone();
        bad[first_len + 6] ^= 0xff;
        let mut rd = FramedReader::new(&bad, 0);
        assert_eq!(rd.next(), Some(&b"one"[..]));
        assert_eq!(rd.next(), None);
        assert_eq!(rd.pos(), first_len, "replay stopped at the damage");

        // A torn tail (partial record) is end-of-file.
        let torn = &log[..log.len() - 3];
        let head: Vec<&[u8]> = FramedReader::new(torn, 0).collect();
        assert_eq!(head, vec![&b"one"[..], &b"two"[..]]);
    }

    #[test]
    fn framed_records_reject_any_flipped_byte() {
        let rec = frame_record(b"hello record");
        assert_eq!(FramedReader::new(&rec, 0).next(), Some(&b"hello record"[..]));
        for i in 0..rec.len() {
            let mut bad = rec.clone();
            bad[i] ^= 0x40;
            assert_eq!(FramedReader::new(&bad, 0).next(), None, "flipped byte {i} must not verify");
        }
        assert_eq!(FramedReader::new(&rec[..rec.len() - 1], 0).next(), None, "truncated");
    }

    #[test]
    fn value_codec_round_trips_every_variant() {
        let v = Value::Map(vec![
            ("null".into(), Value::Null),
            ("b".into(), Value::Bool(true)),
            ("i".into(), Value::I64(-42)),
            ("u".into(), Value::U64(u64::MAX)),
            ("f".into(), Value::F64(1.5)),
            ("s".into(), Value::Str("héllo".into())),
            ("seq".into(), Value::Seq(vec![Value::U64(1), Value::Str("x".into())])),
            ("map".into(), Value::Map(vec![("k".into(), Value::I64(0))])),
            ("bytes".into(), Value::Bytes(vec![0, 1, 255])),
        ]);
        assert_eq!(decode_value(&encode_payload(&v)), Some(v));
    }

    #[test]
    fn byte_strings_round_trip_and_reject_overlong_lengths() {
        for raw in [Vec::new(), (0..64 * 1024).map(|i| (i * 7) as u8).collect()] {
            let v = Value::Bytes(raw);
            assert_eq!(decode_value(&encode_payload(&v)), Some(v));
        }
        let mut past_end = vec![TAG_BYTES];
        past_end.extend_from_slice(&4u32.to_le_bytes());
        past_end.extend_from_slice(&[1, 2, 3]);
        assert_eq!(decode_value(&past_end), None, "length past the end");
    }

    #[test]
    fn value_codec_rejects_malformed_input() {
        assert_eq!(decode_value(&[]), None);
        assert_eq!(decode_value(&[99]), None, "unknown tag");
        assert_eq!(decode_value(&[TAG_BOOL, 2]), None, "bad bool");
        assert_eq!(decode_value(&[TAG_U64, 1, 2]), None, "short scalar");
        assert_eq!(decode_value(&[TAG_SEQ, 0xff, 0xff, 0xff, 0xff]), None, "absurd count");
        let mut ok = encode_payload(&Value::U64(7));
        ok.push(0);
        assert_eq!(decode_value(&ok), None, "trailing bytes");
        // Deep nesting beyond the cap decodes to None instead of crashing.
        let mut deep = Vec::new();
        for _ in 0..200 {
            deep.push(TAG_SEQ);
            deep.extend_from_slice(&1u32.to_le_bytes());
        }
        deep.push(TAG_NULL);
        assert_eq!(decode_value(&deep), None);
    }

    #[test]
    fn typed_payloads_round_trip() {
        let data: Vec<(u64, String)> = vec![(1, "a".into()), (2, "b".into())];
        let bytes = encode_payload(&data);
        assert_eq!(decode_payload::<Vec<(u64, String)>>(&bytes), Some(data));
        assert_eq!(decode_payload::<Vec<(u64, String)>>(b"junk"), None);
    }
}
