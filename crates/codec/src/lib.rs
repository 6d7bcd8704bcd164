//! The one byte codec behind every FNAS binary format.
//!
//! Checkpoints (`FNASCKPT`), job specs (`FNASJOB1` digests), WAL records
//! and spill files (`FNASWAL1`), store records (`FNASTOR1`) and their
//! keys, progress snapshots (`FNPR1`), oracle payloads and the `FNC1`
//! wire protocol all speak the same dialect: little-endian fixed-width
//! integers, floats as raw IEEE bits, length-prefixed byte strings,
//! `0`/`1`-tagged options. This crate is that dialect, once:
//!
//! * [`Writer`] appends fields to a byte buffer;
//! * [`Reader`] is a bounds-checked cursor: every read either yields a
//!   value or a typed [`CodecError`], never a panic, and length prefixes
//!   are bounded by the bytes that remain, so a corrupt length fails
//!   cleanly instead of asking for a huge allocation;
//! * [`decode`] runs a field decoder and rejects trailing bytes;
//! * [`encode_frame`]/[`decode_frame`] implement the checksummed
//!   `magic | header | u32 len | payload | FNV-1a` frame that store
//!   records, WAL records and spill files share;
//! * [`fnv1a`], [`avalanche`]/[`splitmix64`] and [`digest128`] are the
//!   hash primitives every seed, fingerprint, checksum and content
//!   address is built from.
//!
//! Decoders that treat any defect as a miss call `.ok()` on the result;
//! decoders that report errors map [`CodecError`] into their own error
//! type under their own context prefix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The golden-ratio increment of SplitMix64 (`2^64 / φ`, odd).
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Second-lane offset basis of [`digest128`].
const DIGEST_LANE_B: u64 = 0x6c62_272e_07bb_0142;

/// Folds `bytes` into `h` by xor-then-multiply, one byte at a time.
fn xor_mul_fold(mut h: u64, multiplier: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h = (h ^ u64::from(byte)).wrapping_mul(multiplier);
    }
    h
}

/// 64-bit FNV-1a over `bytes`, starting from `basis` ([`FNV_OFFSET`] for
/// the textbook hash; another basis acts as a domain tag).
pub fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    xor_mul_fold(basis, FNV_PRIME, bytes)
}

/// The SplitMix64 output finaliser without the increment: a bijective
/// avalanche mix of one word.
pub fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: `avalanche(z + GOLDEN)`.
pub fn splitmix64(z: u64) -> u64 {
    avalanche(z.wrapping_add(GOLDEN))
}

/// An eight-byte ASCII tag as a little-endian word — the domain
/// separator the seed tree and digests fold in (`b"SHARD_ST"`, …).
pub const fn domain(tag: &[u8; 8]) -> u64 {
    u64::from_le_bytes(*tag)
}

/// 128-bit non-cryptographic content digest.
///
/// Two independent 64-bit lanes with distinct offset bases: lane A is
/// [`fnv1a`] from [`FNV_OFFSET`], finalised as
/// `splitmix64(h ^ len)`; lane B folds with the odd multiplier
/// `GOLDEN | 1`, finalised as `splitmix64(h ^ len·GOLDEN)`. Stable across
/// platforms (pure integer arithmetic) and intended only for content
/// addressing.
pub fn digest128(bytes: &[u8]) -> u128 {
    let len = bytes.len() as u64;
    let a = splitmix64(fnv1a(FNV_OFFSET, bytes) ^ len);
    let b = splitmix64(xor_mul_fold(DIGEST_LANE_B, GOLDEN | 1, bytes) ^ len.wrapping_mul(GOLDEN));
    (u128::from(a) << 64) | u128::from(b)
}

/// Why a byte string failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside a field.
    Truncated,
    /// A length prefix exceeds the bytes that remain.
    ImplausibleLength(u64),
    /// An option tag other than `0` (absent) or `1` (present).
    BadOptionTag(u8),
    /// A string field is not UTF-8.
    NotUtf8,
    /// Bytes remain after the last field.
    TrailingBytes,
    /// A format-level rule was violated (bad magic, version, checksum…).
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "unexpected end of payload"),
            CodecError::ImplausibleLength(n) => write!(f, "implausible length {n}"),
            CodecError::BadOptionTag(tag) => write!(f, "bad option tag {tag}"),
            CodecError::NotUtf8 => write!(f, "string is not UTF-8"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after payload"),
            CodecError::Invalid(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Shorthand for a [`CodecError::Invalid`] with the given text.
pub fn invalid(what: impl Into<String>) -> CodecError {
    CodecError::Invalid(what.into())
}

/// Appends little-endian fields to a growing byte buffer.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// A bounds-checked little-endian cursor over a byte slice. Every read
/// yields a value or a [`CodecError`]; none panics.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

/// Fixed-width little-endian integers, written and read.
macro_rules! le_ints {
    ($($t:ident),*) => {
        impl Writer {$(
            #[doc = concat!("A little-endian `", stringify!($t), "`.")]
            pub fn $t(&mut self, v: $t) {
                self.raw(&v.to_le_bytes());
            }
        )*}
        impl Reader<'_> {$(
            #[doc = concat!("A little-endian `", stringify!($t), "`.")]
            pub fn $t(&mut self) -> Result<$t> {
                let bytes = self.raw(std::mem::size_of::<$t>())?;
                Ok($t::from_le_bytes(bytes.try_into().expect("raw yields the width asked for")))
            }
        )*}
    };
}

le_ints!(u8, u16, u32, u64, u128);

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// An `f32` as its raw IEEE bits.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// An `f64` as its raw IEEE bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A count or length as a `u32` prefix.
    pub fn len32(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// A count or length as a `u64` prefix.
    pub fn len64(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A byte string behind a `u32` length prefix.
    pub fn blob32(&mut self, bytes: &[u8]) {
        self.len32(bytes.len());
        self.raw(bytes);
    }

    /// A byte string behind a `u64` length prefix.
    pub fn blob64(&mut self, bytes: &[u8]) {
        self.len64(bytes.len());
        self.raw(bytes);
    }

    /// A UTF-8 string behind a `u32` length prefix.
    pub fn str32(&mut self, s: &str) {
        self.blob32(s.as_bytes());
    }

    /// A tagged option: `0`, or `1` followed by the value `put` writes.
    pub fn opt<T>(&mut self, value: Option<T>, put: impl FnOnce(&mut Self, T)) {
        match value {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                put(self, v);
            }
        }
    }
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Bytes consumed so far.
    fn position(&self) -> usize {
        self.at
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// [`CodecError::TrailingBytes`] unless every byte was consumed.
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(CodecError::TrailingBytes),
        }
    }

    /// The next `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        self.at += n;
        Ok(&self.buf[self.at - n..self.at])
    }

    /// An `f32` from its raw IEEE bits.
    pub fn f32(&mut self) -> Result<f32> {
        self.u32().map(f32::from_bits)
    }

    /// An `f64` from its raw IEEE bits.
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A length prefix `n`, which must not exceed the bytes that remain.
    fn bounded(&self, n: u64) -> Result<usize> {
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining())
            .ok_or(CodecError::ImplausibleLength(n))
    }

    /// A `u32` count or length, bounded by the bytes that remain.
    pub fn len32(&mut self) -> Result<usize> {
        let n = self.u32()?;
        self.bounded(n.into())
    }

    /// A `u64` count or length, bounded by the bytes that remain.
    pub fn len64(&mut self) -> Result<usize> {
        let n = self.u64()?;
        self.bounded(n)
    }

    /// A byte string behind a `u32` length prefix.
    pub fn blob32(&mut self) -> Result<&'a [u8]> {
        let n = self.len32()?;
        self.raw(n)
    }

    /// A byte string behind a `u64` length prefix.
    pub fn blob64(&mut self) -> Result<&'a [u8]> {
        let n = self.len64()?;
        self.raw(n)
    }

    /// A UTF-8 string behind a `u32` length prefix.
    pub fn str32(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.blob32()?).map_err(|_| CodecError::NotUtf8)
    }

    /// A tagged option: `0` is `None`, `1` is followed by the value `get`
    /// reads, anything else is [`CodecError::BadOptionTag`].
    pub fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            tag => Err(CodecError::BadOptionTag(tag)),
        }
    }
}

/// Decodes all of `bytes` with `fields`, rejecting trailing bytes.
pub fn decode<'a, T>(
    bytes: &'a [u8],
    fields: impl FnOnce(&mut Reader<'a>) -> Result<T>,
) -> Result<T> {
    let mut r = Reader::new(bytes);
    let value = fields(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Bytes a checksummed frame adds around its payload.
pub const fn frame_overhead(magic_len: usize, header_len: usize) -> usize {
    magic_len + header_len + 4 + 8
}

/// Frames `payload` as
/// `magic | header | u32 LE payload length | payload | u64 LE checksum`,
/// the checksum being [`fnv1a`] from [`FNV_OFFSET`] over everything
/// before it.
pub fn encode_frame(magic: &[u8], header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(frame_overhead(magic.len(), header.len()) + payload.len());
    w.raw(magic);
    w.raw(header);
    w.blob32(payload);
    let sum = fnv1a(FNV_OFFSET, &w.buf);
    w.u64(sum);
    w.into_bytes()
}

/// One frame unpacked by [`decode_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The fixed-width header between magic and payload length.
    pub header: &'a [u8],
    /// The payload bytes.
    pub payload: &'a [u8],
    /// Bytes the whole frame occupies, checksum included.
    pub len: usize,
}

/// Unpacks the [`encode_frame`] frame at the start of `bytes`; bytes
/// after it are left alone (see [`Frame::len`]). A wrong magic or
/// checksum is [`CodecError::Invalid`].
pub fn decode_frame<'a>(bytes: &'a [u8], magic: &[u8], header_len: usize) -> Result<Frame<'a>> {
    let mut r = Reader::new(bytes);
    if r.raw(magic.len())? != magic {
        return Err(invalid("bad frame magic"));
    }
    let header = r.raw(header_len)?;
    let payload = r.blob32()?;
    let body = r.position();
    if r.u64()? != fnv1a(FNV_OFFSET, &bytes[..body]) {
        return Err(invalid("frame checksum mismatch"));
    }
    Ok(Frame {
        header,
        payload,
        len: r.position(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_primitives_match_their_reference_values() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // The first output of a SplitMix64 generator seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(7), avalanche(7u64.wrapping_add(GOLDEN)));
        assert_eq!(domain(b"FNASJOB1"), u64::from_le_bytes(*b"FNASJOB1"));
    }

    #[test]
    fn fields_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.u128(u128::MAX / 3);
        w.f32(-0.0);
        w.f64(f64::NAN);
        w.blob32(b"abc");
        w.blob64(b"");
        w.str32("héllo");
        w.opt(None::<u64>, Writer::u64);
        w.opt(Some(2.5f64), Writer::f64);
        let bytes = w.into_bytes();
        let got = decode(&bytes, |r| {
            Ok((
                (r.u8()?, r.u16()?, r.u32()?, r.u64()?, r.u128()?),
                (r.f32()?.to_bits(), r.f64()?.to_bits()),
                (r.blob32()?, r.blob64()?, r.str32()?),
                (r.opt(Reader::u64)?, r.opt(Reader::f64)?),
            ))
        })
        .unwrap();
        assert_eq!(got.0, (7, 0xBEEF, 0xDEAD_BEEF, u64::MAX - 1, u128::MAX / 3));
        assert_eq!(got.1, ((-0.0f32).to_bits(), f64::NAN.to_bits()));
        assert_eq!(got.2, (&b"abc"[..], &b""[..], "héllo"));
        assert_eq!(got.3, (None, Some(2.5)));
    }

    #[test]
    fn defects_are_typed_errors_with_stable_texts() {
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(CodecError::Truncated));
        let huge = u64::MAX.to_le_bytes();
        let err = Reader::new(&huge).len64().unwrap_err();
        assert_eq!(err, CodecError::ImplausibleLength(u64::MAX));
        assert_eq!(err.to_string(), format!("implausible length {}", u64::MAX));
        let err = Reader::new(&[9]).opt(Reader::u8).unwrap_err();
        assert_eq!(err.to_string(), "bad option tag 9");
        let err = Reader::new(&[1, 0, 0, 0, 0xFF]).str32().unwrap_err();
        assert_eq!(err, CodecError::NotUtf8);
        assert_eq!(decode(&[1, 2], Reader::u8), Err(CodecError::TrailingBytes));
        assert_eq!(
            CodecError::Truncated.to_string(),
            "unexpected end of payload"
        );
        assert_eq!(invalid("bad magic").to_string(), "bad magic");
    }

    #[test]
    fn frames_round_trip_and_reject_every_defect() {
        let frame = encode_frame(b"MAGC", b"hdr", b"payload");
        assert_eq!(frame.len(), frame_overhead(4, 3) + 7);
        let mut stream = frame.clone();
        stream.extend_from_slice(b"next");
        let got = decode_frame(&stream, b"MAGC", 3).unwrap();
        assert_eq!(got.header, b"hdr");
        assert_eq!(got.payload, b"payload");
        assert_eq!(got.len, frame.len());
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut], b"MAGC", 3).is_err());
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(decode_frame(&bad, b"MAGC", 3).is_err(), "flip at {i}");
        }
        assert!(decode_frame(&frame, b"MAGX", 3).is_err());
    }
}
