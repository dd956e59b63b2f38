//! Canonical byte encoding — the shared little-endian, length-prefixed
//! wire form every hashed or MACed structure in the tree uses.
//!
//! Attestation evidence is only as strong as the bytes the hash and MAC
//! actually cover: if two distinct structures can serialize to the same
//! bytes (or one structure to two byte strings), chained hashes stop
//! identifying records. The helpers here make the canonical form a
//! library property instead of a per-call-site convention:
//!
//! - every integer is fixed-width little-endian,
//! - every variable-length field carries an explicit `u32` length prefix,
//! - decoding is total: any input yields `Ok` or a typed [`CanonError`],
//!   never a panic, and trailing bytes are rejected by
//!   [`Reader::finish`].
//!
//! Every byte layout a hash, MAC or seal covers goes through here: the
//! evidence chain, Merkle epochs and verifiable reports, the service's
//! wire frames and snapshots, the quorum vote and session-resume MAC
//! transcripts, and the enclave-sealed calibration.

/// Why a canonical decode failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CanonError {
    /// The byte stream ended before the structure did.
    Truncated,
    /// An enum/flag tag held an out-of-range value.
    BadTag {
        /// Which field the tag belongs to.
        field: &'static str,
        /// The offending value.
        value: u8,
    },
    /// A declared length exceeds the hard per-field bound (decoders must
    /// not allocate unbounded memory on hostile input).
    OversizedField(u32),
    /// This many bytes remained after the structure ended.
    TrailingBytes(usize),
}

impl core::fmt::Display for CanonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CanonError::Truncated => write!(f, "canonical encoding truncated"),
            CanonError::BadTag { field, value } => {
                write!(f, "bad {field} tag {value} in canonical encoding")
            }
            CanonError::OversizedField(n) => {
                write!(f, "oversized field ({n} bytes) in canonical encoding")
            }
            CanonError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after canonical encoding")
            }
        }
    }
}

impl std::error::Error for CanonError {}

/// Hard bound on any single variable-length field (1 MiB). Canonical
/// structures in this tree are all far smaller; the bound exists so a
/// hostile length prefix cannot drive a huge allocation.
pub const MAX_FIELD_LEN: usize = 1 << 20;

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a fixed-width byte array (no length prefix — the width is
/// part of the structure).
pub fn put_fixed<const N: usize>(out: &mut Vec<u8>, v: &[u8; N]) {
    out.extend_from_slice(v);
}

/// Appends a `u32` length prefix followed by the bytes.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len().min(u32::MAX as usize) as u32);
    out.extend_from_slice(&v[..v.len().min(u32::MAX as usize)]);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked cursor over a canonical encoding. Every accessor
/// returns a typed error instead of panicking, so decoders built on it
/// are total by construction.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts a reader at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CanonError> {
        let end = self.pos.checked_add(n).ok_or(CanonError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CanonError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CanonError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CanonError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CanonError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CanonError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a fixed-width byte array.
    pub fn fixed<const N: usize>(&mut self) -> Result<[u8; N], CanonError> {
        let b = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// Reads a `u32`-length-prefixed byte string (bounded by
    /// [`MAX_FIELD_LEN`]).
    pub fn bytes(&mut self) -> Result<Vec<u8>, CanonError> {
        let len = self.u32()?;
        if len as usize > MAX_FIELD_LEN {
            return Err(CanonError::OversizedField(len));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CanonError> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| CanonError::BadTag {
            field: "utf-8 string",
            value: 0,
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Asserts the structure consumed the input exactly.
    pub fn finish(self) -> Result<(), CanonError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CanonError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 3);
        put_fixed(&mut out, &[9u8; 32]);
        put_bytes(&mut out, b"payload");
        put_str(&mut out, "gpu-a");

        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.fixed::<32>().unwrap(), [9u8; 32]);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.str().unwrap(), "gpu-a");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_are_typed() {
        let mut out = Vec::new();
        put_u64(&mut out, 42);
        let mut r = Reader::new(&out[..5]);
        assert_eq!(r.u64(), Err(CanonError::Truncated));

        let mut r = Reader::new(&out);
        r.u32().unwrap();
        assert_eq!(r.finish(), Err(CanonError::TrailingBytes(4)));
    }

    #[test]
    fn hostile_length_prefix_is_bounded() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX); // claims a 4 GiB field
        let mut r = Reader::new(&out);
        assert_eq!(r.bytes(), Err(CanonError::OversizedField(u32::MAX)));
    }

    #[test]
    fn non_utf8_string_is_an_error_not_a_panic() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xFF, 0xFE, 0xFD]);
        let mut r = Reader::new(&out);
        assert!(r.str().is_err());
    }
}
