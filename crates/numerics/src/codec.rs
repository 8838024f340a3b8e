//! Little-endian binary codec primitives for on-disk artifacts.
//!
//! The REM snapshot format (`aerorem-core::snapshot`, specified byte by
//! byte in `docs/SNAPSHOT_FORMAT.md`) needs three things from its substrate:
//! an **endian-stable** writer (every multi-byte field is little-endian on
//! every host), a bounds-checked reader that returns typed errors instead
//! of panicking on truncated input, and a **CRC-32** checksum so corruption
//! is detected before any field is trusted. This module provides exactly
//! those three, with no format knowledge of its own — the snapshot layer
//! owns the field layout.
//!
//! Floats are transported as raw IEEE-754 bit patterns (`f64::to_bits` /
//! `from_bits`), so a write→read round trip is **bit-identical** even for
//! NaNs with unusual payloads — the property the snapshot round-trip tests
//! pin.

use std::fmt;

/// Error type for bounds-checked binary reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a field could be read in full.
    UnexpectedEof {
        /// Byte offset the read started at.
        offset: usize,
        /// Bytes the field needed.
        wanted: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A length-prefixed field declared more bytes than the caller's cap
    /// allows — hostile inputs must fail *before* any allocation is sized
    /// from the declared length.
    OverlongField {
        /// Byte offset of the length prefix.
        offset: usize,
        /// Length the prefix declared.
        declared: usize,
        /// Caller-supplied maximum.
        max: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof {
                offset,
                wanted,
                remaining,
            } => write!(
                f,
                "unexpected end of input at byte {offset}: field needs {wanted} bytes, \
                 {remaining} remain"
            ),
            CodecError::OverlongField {
                offset,
                declared,
                max,
            } => write!(
                f,
                "length prefix at byte {offset} declares {declared} bytes, cap is {max}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends little-endian fields to a growing byte buffer.
///
/// # Examples
///
/// ```
/// use aerorem_numerics::codec::{ByteReader, ByteWriter};
///
/// let mut w = ByteWriter::new();
/// w.put_u32(0xDEAD_BEEF);
/// w.put_f64(-73.25);
/// let bytes = w.into_bytes();
///
/// let mut r = ByteReader::new(&bytes);
/// assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
/// assert_eq!(r.take_f64().unwrap(), -73.25);
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates a writer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` length prefix followed by the bytes themselves —
    /// the variable-length-field convention of the wire protocol
    /// (`docs/WIRE_FORMAT.md`). Pairs with [`ByteReader::take_len_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than `u32::MAX` (no real field is).
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("length-prefixed field over 4 GiB");
        self.put_u32(len);
        self.put_bytes(bytes);
    }

    /// The accumulated buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the accumulated buffer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked little-endian reads over a byte slice.
///
/// Every `take_*` advances an internal cursor and returns
/// [`CodecError::UnexpectedEof`] instead of panicking when the input is
/// truncated — corrupted files must surface as typed errors.
///
/// Every method is `#[inline]`: the wire and snapshot decoders in other
/// crates call one `take_*` per field, and a release build without LTO
/// keeps an unmarked cross-crate call out of line.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `bytes`, cursor at the start.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Current cursor offset from the start of the input.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the cursor has consumed the entire input.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    #[inline]
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                offset: self.pos,
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] at end of input.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if fewer than 2 bytes remain.
    #[inline]
    pub fn take_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take_bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if fewer than 4 bytes remain.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take_bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if fewer than 8 bytes remain.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Takes an `f64` stored as its raw little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if fewer than 8 bytes remain.
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Takes a `u32`-length-prefixed byte field written by
    /// [`ByteWriter::put_len_bytes`], enforcing a caller-supplied cap on
    /// the declared length *before* any bytes are consumed or allocated.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::OverlongField`] when the prefix declares more
    /// than `max` bytes (the cursor is left on the prefix), or
    /// [`CodecError::UnexpectedEof`] when the prefix or the declared bytes
    /// run past the end of input.
    #[inline]
    pub fn take_len_bytes(&mut self, max: usize) -> Result<&'a [u8], CodecError> {
        let offset = self.pos;
        let declared = self.take_u32()? as usize;
        if declared > max {
            self.pos = offset; // leave the reader where the bad field began
            return Err(CodecError::OverlongField {
                offset,
                declared,
                max,
            });
        }
        self.take_bytes(declared)
    }
}

/// Slicing-by-16 lookup tables for CRC-32 (reflected polynomial
/// `0xEDB88320`), built at compile time. Row 0 is the classic bytewise
/// table; row `k` is row 0 advanced through `k` further zero bytes, so
/// `CRC32_TABLES[k][b]` is the contribution of byte `b` when `k` bytes
/// follow it in a 16-byte block. [`crc32_zeros_tables`] advances the
/// same row further to build [`crc32`]'s stripe fold tables.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut row = 1;
    while row < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[row - 1][i];
            tables[row][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        row += 1;
    }
    tables
};

/// Bytes in each of the three stripes of one [`crc32`] super-block.
const CRC32_STRIPE: usize = 128;

/// Tables that advance a CRC-32 register through `n` zero bytes (`n ≥ 4`):
/// `tables[j][b]` is the register `b << 8j` after `n` zero bytes. Its low
/// `j` bytes are zero, so the first `j` steps only shift it down to `b`,
/// and the entry is row 0 of [`CRC32_TABLES`] advanced through `n - j - 1`
/// further zero bytes.
const fn crc32_zeros_tables(n: usize) -> [[u32; 256]; 4] {
    let row0 = CRC32_TABLES[0];
    let mut tables = [[0u32; 256]; 4];
    let mut b = 0;
    while b < 256 {
        let mut reg = b as u32;
        let mut step = 1;
        while step <= n {
            reg = (reg >> 8) ^ row0[(reg & 0xFF) as usize];
            if n - step < 4 {
                tables[n - step][b] = reg;
            }
            step += 1;
        }
        b += 1;
    }
    tables
}

/// Folds the first stripe's CRC over the two stripes that follow it.
const CRC32_FOLD_TWO_STRIPES: [[u32; 256]; 4] = crc32_zeros_tables(2 * CRC32_STRIPE);

/// Folds the second stripe's CRC over the third stripe.
const CRC32_FOLD_ONE_STRIPE: [[u32; 256]; 4] = crc32_zeros_tables(CRC32_STRIPE);

/// CRC-32 register `c` advanced through the zero bytes `fold` was built
/// for.
#[inline(always)]
fn crc32_advance(c: u32, fold: &[[u32; 256]; 4]) -> u32 {
    let [b0, b1, b2, b3] = c.to_le_bytes();
    fold[0][usize::from(b0)]
        ^ fold[1][usize::from(b1)]
        ^ fold[2][usize::from(b2)]
        ^ fold[3][usize::from(b3)]
}

/// One slicing-by-16 step: register `c` after the 16 bytes of `block`.
#[inline(always)]
fn crc32_block(c: u32, block: &[u8; 16]) -> u32 {
    // Fold the running CRC into the block's first four bytes, then look
    // every byte up in the row for the bytes that follow it.
    let mut block = *block;
    let head = c ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
    block[..4].copy_from_slice(&head.to_le_bytes());
    block
        .iter()
        .zip(CRC32_TABLES.iter().rev())
        .fold(0, |acc, (&b, row)| acc ^ row[usize::from(b)])
}

/// CRC-32 (IEEE 802.3: reflected polynomial `0xEDB88320`, initial value
/// `0xFFFFFFFF`, final XOR `0xFFFFFFFF`) of `bytes`.
///
/// This is the same CRC-32 used by zlib/PNG/Ethernet, so an independent
/// reimplementation of the snapshot format can validate against any
/// standard library: `crc32(b"123456789") == 0xCBF43926`.
///
/// The input is taken in 384-byte super-blocks of three 128-byte stripes.
/// Three slicing-by-16 streams run at once, one per stripe, the first
/// from the running CRC and the other two from zero, so no lookup waits
/// on another stream's. CRC-32 is linear, so the super-block's CRC is the
/// first stream advanced through 256 zero bytes, XOR the second advanced
/// through 128, XOR the third; two compile-time tables do each advance in
/// four lookups. What is left after the last super-block runs one stream,
/// 16 bytes per step, and its last `len % 16` bytes one at a time. The
/// result is identical to the bytewise definition.
///
/// # Examples
///
/// ```
/// use aerorem_numerics::codec::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (supers, rest) = bytes.as_chunks::<{ 3 * CRC32_STRIPE }>();
    for sb in supers {
        let (blocks, _) = sb.as_chunks::<16>();
        let (first, later) = blocks.split_at(CRC32_STRIPE / 16);
        let (second, third) = later.split_at(CRC32_STRIPE / 16);
        let (mut c1, mut c2, mut c3) = (c, 0, 0);
        for ((b1, b2), b3) in first.iter().zip(second).zip(third) {
            c1 = crc32_block(c1, b1);
            c2 = crc32_block(c2, b2);
            c3 = crc32_block(c3, b3);
        }
        c = crc32_advance(c1, &CRC32_FOLD_TWO_STRIPES)
            ^ crc32_advance(c2, &CRC32_FOLD_ONE_STRIPE)
            ^ c3;
    }
    let (blocks, tail) = rest.as_chunks::<16>();
    for block in blocks {
        c = crc32_block(c, block);
    }
    for &b in tail {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise definition: one row-0 lookup per byte. The oracle the
    /// striped `crc32` must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest! {
        // Slices starting at offsets 0..16 put the 16-byte blocks at every
        // alignment and leave every tail length from 0 to 15.
        #[test]
        fn crc32_matches_the_bytewise_oracle(bytes in prop::collection::vec(any::<u8>(), 0..=4096)) {
            for start in 0..16.min(bytes.len() + 1) {
                let slice = &bytes[start..];
                prop_assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "length {} from offset {}",
                    bytes.len(),
                    start
                );
            }
        }
    }

    /// Lengths within 17 bytes of one, two and three super-blocks, from
    /// every offset 0..16: the seams between stripes, between
    /// super-blocks, and between the striped body and the single-stream
    /// rest.
    #[test]
    fn crc32_matches_the_bytewise_oracle_at_the_stripe_seams() {
        let super_block = 3 * CRC32_STRIPE;
        let bytes: Vec<u8> = (0..3 * super_block + 17 + 16)
            .map(|i: usize| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8)
            .collect();
        for k in 1..=3 {
            for d in [-17, -16, -1, 0, 1, 15, 16, 17] {
                let len = (k * super_block).saturating_add_signed(d);
                for start in 0..16 {
                    let slice = &bytes[start..start + len];
                    assert_eq!(
                        crc32(slice),
                        crc32_bytewise(slice),
                        "length {len} from offset {start}"
                    );
                }
            }
        }
    }

    /// 1 MiB + 13 bytes against a value from an independent
    /// implementation, Python's zlib, which pins the stripe fold tables:
    /// `zlib.crc32(bytes(((i ^ (i >> 8) ^ (i >> 16)) * 167) & 255 for i in range(2**20 + 13)))`
    #[test]
    fn crc32_of_a_mebibyte_matches_zlib() {
        let bytes: Vec<u8> = (0..(1usize << 20) + 13)
            .map(|i| (((i ^ (i >> 8) ^ (i >> 16)) * 167) & 255) as u8)
            .collect();
        assert_eq!(crc32(&bytes), 0x4CDE_2623);
    }

    #[test]
    fn crc32_known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Sensitive to single-bit flips.
        assert_ne!(crc32(b"123456788"), crc32(b"123456789"));
    }

    #[test]
    fn writer_reader_round_trip_all_field_types() {
        let mut w = ByteWriter::with_capacity(64);
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-73.25);
        w.put_bytes(b"tail");
        assert_eq!(w.len(), 1 + 2 + 4 + 8 + 8 + 4);
        assert!(!w.is_empty());

        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u16().unwrap(), 0x1234);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.take_f64().unwrap(), -73.25);
        assert_eq!(r.take_bytes(4).unwrap(), b"tail");
        assert!(r.is_empty());
        assert_eq!(r.position(), bytes.len());
    }

    #[test]
    fn fields_are_little_endian_on_disk() {
        let mut w = ByteWriter::new();
        w.put_u32(0x0102_0304);
        assert_eq!(w.as_slice(), &[0x04, 0x03, 0x02, 0x01]);
        let mut w = ByteWriter::new();
        w.put_u16(0x1234);
        assert_eq!(w.as_slice(), &[0x34, 0x12]);
    }

    #[test]
    fn f64_round_trip_is_bit_identical_including_nan_payloads() {
        let weird = f64::from_bits(0x7FF8_DEAD_BEEF_0001); // NaN with payload
        for v in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, weird, 1e-308] {
            let mut w = ByteWriter::new();
            w.put_f64(v);
            let bytes = w.into_bytes();
            let got = ByteReader::new(&bytes).take_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn len_prefixed_fields_round_trip_and_enforce_the_cap() {
        let mut w = ByteWriter::new();
        w.put_len_bytes(b"hello");
        w.put_len_bytes(b"");
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 4 + 5 + 4);

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_len_bytes(16).unwrap(), b"hello");
        assert_eq!(r.take_len_bytes(16).unwrap(), b"");
        assert!(r.is_empty());

        // Cap violations fail before any allocation and leave the cursor
        // on the offending prefix.
        let mut r = ByteReader::new(&bytes);
        let err = r.take_len_bytes(4).unwrap_err();
        assert_eq!(
            err,
            CodecError::OverlongField {
                offset: 0,
                declared: 5,
                max: 4
            }
        );
        assert!(err.to_string().contains("cap is 4"));
        assert_eq!(r.position(), 0);

        // A hostile prefix declaring gigabytes is rejected by the cap, not
        // by attempting the read.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let huge = w.into_bytes();
        let err = ByteReader::new(&huge).take_len_bytes(1024).unwrap_err();
        assert!(matches!(err, CodecError::OverlongField { declared, .. }
            if declared == u32::MAX as usize));

        // Within the cap but past end-of-input is a plain EOF.
        let mut w = ByteWriter::new();
        w.put_u32(12);
        w.put_bytes(b"short");
        let cut = w.into_bytes();
        let err = ByteReader::new(&cut).take_len_bytes(64).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { wanted: 12, .. }));
    }

    #[test]
    fn truncated_reads_are_typed_errors_not_panics() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u16().unwrap(), 0x0201);
        let err = r.take_u32().unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEof {
                offset: 2,
                wanted: 4,
                remaining: 1
            }
        );
        assert!(err.to_string().contains("needs 4 bytes"));
        // The failed read did not advance the cursor.
        assert_eq!(r.position(), 2);
        assert_eq!(r.take_u8().unwrap(), 3);
        assert!(r.take_u8().is_err());
    }
}
