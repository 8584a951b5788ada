//! `erebor-wire`: a tiny deterministic byte codec for migration records.
//!
//! Live migration (DESIGN.md §12) serializes every architectural structure
//! — sEPT, pinned MSRs, monitor state, the EMC ledger, frame tags, the
//! domain pool — into sealed records. The codec therefore has three hard
//! requirements the general-purpose serializers can't promise:
//!
//! * **Determinism**: the same state encodes to the same bytes, always
//!   (field order is the code order; integers are fixed-width
//!   little-endian; collections are length-prefixed and iterated in
//!   their canonical order).
//! * **No panics**: a malformed or hostile peer hands us arbitrary
//!   bytes; every decode path returns a typed [`WireError`] instead of
//!   panicking the monitor.
//! * **No dependencies**: the crate sits at the very bottom of the
//!   workspace (even below `erebor-hw`) so every layer can describe its
//!   own state without cycles.
//!
//! [`WireWriter`] appends; [`WireReader`] consumes with bounds checks and
//! an end-of-input check ([`WireReader::finish`]) so trailing garbage —
//! a classic state-confusion vector in migration streams — is rejected,
//! not silently ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Decoding failure. Every variant names what was being decoded so a
/// migration abort can be audited from the error alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a field was complete.
    Truncated {
        /// Bytes the field needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// An enum tag or type byte had no defined meaning.
    BadTag {
        /// The structure being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A declared length exceeded the decoder's hard cap (a hostile
    /// length prefix must not drive allocation).
    TooLong {
        /// Declared length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// A decoded value violated a structural invariant.
    BadValue {
        /// The structure being decoded.
        what: &'static str,
    },
    /// Input remained after the last expected field.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated input: needed {need} bytes, had {have}")
            }
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} decoding {what}"),
            WireError::TooLong { len, max } => {
                write!(f, "declared length {len} exceeds cap {max}")
            }
            WireError::BadValue { what } => write!(f, "invalid value decoding {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after final field")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Hard cap on any single length-prefixed field (64 MiB). Larger values
/// are rejected before allocation; legitimate migration records are far
/// smaller (a page record is ~4 KiB).
pub const MAX_FIELD_LEN: u64 = 64 * 1024 * 1024;

/// Append-only encoder. Infallible: encoding valid in-memory state
/// cannot fail, so the writer has no error paths at all.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64` (the simulated machine never exceeds it).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append raw bytes with no length prefix (fixed-width fields).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append a collection length prefix (callers then encode each item).
    pub fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume `n` raw bytes.
    ///
    /// # Errors
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Decode one byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Decode a bool; any byte other than 0/1 is rejected.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::BadValue`].
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue { what: "bool" }),
        }
    }

    /// Decode a little-endian `u16`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Decode a little-endian `u32`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Decode a little-endian `u64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Decode a little-endian `i64`.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn i64(&mut self) -> Result<i64, WireError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Decode a `usize` encoded as `u64`, rejecting values that don't
    /// fit the host's `usize`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::BadValue`].
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadValue { what: "usize" })
    }

    /// Decode a length-prefixed byte string (capped at
    /// [`MAX_FIELD_LEN`]).
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::TooLong`].
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        if len > MAX_FIELD_LEN {
            return Err(WireError::TooLong {
                len,
                max: MAX_FIELD_LEN,
            });
        }
        self.take(len as usize)
    }

    /// Decode a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::TooLong`] /
    /// [`WireError::BadValue`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        core::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadValue { what: "utf-8" })
    }

    /// Decode a collection length prefix, bounding it by the bytes that
    /// actually remain divided by `min_item_bytes` (every item costs at
    /// least one byte) so a hostile prefix cannot drive allocation.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::TooLong`].
    pub fn seq(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let len = self.u64()?;
        let cap = (self.remaining() / min_item_bytes.max(1)) as u64;
        if len > cap {
            return Err(WireError::TooLong { len, max: cap });
        }
        Ok(len as usize)
    }

    /// Decode a fixed-size array of `N` bytes.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let b = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(b);
        Ok(out)
    }

    /// Assert the input is fully consumed.
    ///
    /// # Errors
    /// [`WireError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() -> Result<(), WireError> {
        let mut w = WireWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.usize(12345);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8()?, 7);
        assert!(r.bool()?);
        assert_eq!(r.u16()?, 0xBEEF);
        assert_eq!(r.u32()?, 0xDEAD_BEEF);
        assert_eq!(r.u64()?, u64::MAX);
        assert_eq!(r.i64()?, -42);
        assert_eq!(r.usize()?, 12345);
        r.finish()
    }

    #[test]
    fn roundtrip_bytes_and_str() -> Result<(), WireError> {
        let mut w = WireWriter::new();
        w.bytes(b"hello");
        w.str("wörld");
        w.bytes(b"");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes()?, b"hello");
        assert_eq!(r.str()?, "wörld");
        assert_eq!(r.bytes()?, b"");
        r.finish()
    }

    #[test]
    fn truncation_rejected_at_every_boundary() {
        let mut w = WireWriter::new();
        w.u64(99);
        w.bytes(b"abc");
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            let got = r.u64().and_then(|_| r.bytes().map(<[u8]>::to_vec));
            assert!(got.is_err(), "cut at {cut} must fail");
        }
        // The full buffer decodes.
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u64().expect("full"), 99);
        assert_eq!(r.bytes().expect("full"), b"abc");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX); // absurd declared length
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.bytes(), Err(WireError::TooLong { .. })));
        let mut r2 = WireReader::new(&buf);
        assert!(matches!(r2.seq(1), Err(WireError::TooLong { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = WireWriter::new();
        w.u8(1);
        w.u8(2);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().expect("first"), 1);
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn bool_rejects_non_binary() {
        let buf = [2u8];
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.bool(), Err(WireError::BadValue { .. })));
    }

    #[test]
    fn display_names_every_variant() {
        let errs: [WireError; 5] = [
            WireError::Truncated { need: 8, have: 3 },
            WireError::BadTag { what: "x", tag: 9 },
            WireError::TooLong { len: 10, max: 1 },
            WireError::BadValue { what: "bool" },
            WireError::TrailingBytes { extra: 4 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
