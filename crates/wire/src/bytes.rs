//! Little-endian byte-level primitives shared by every codec in the crate.
//!
//! [`ByteWriter`] appends fixed-width little-endian scalars (floats as raw
//! IEEE bits) and length-prefixed strings/sequences to a growable buffer;
//! [`ByteReader`] is its validating inverse over a borrowed slice.  The
//! reader's cardinal rule: **never allocate from an unvalidated length** —
//! every count is checked against the bytes actually remaining before any
//! buffer is sized from it, so a hostile length prefix is a cheap typed
//! error instead of a multi-gigabyte allocation.

use crate::{Result, WireError};

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its raw IEEE bits (bit-exact for every value,
    /// including `-0.0`, subnormals and NaN payloads).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its raw IEEE bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `usize` as a `u32`, rejecting values that do not fit (no
    /// structure in this workspace legitimately exceeds 2^32 elements).
    ///
    /// # Errors
    /// Returns [`WireError::InvalidPayload`] if `v` exceeds `u32::MAX`.
    pub fn put_len(&mut self, v: usize) -> Result<()> {
        let v = u32::try_from(v)
            .map_err(|_| WireError::InvalidPayload(format!("length {v} exceeds u32::MAX")))?;
        self.put_u32(v);
        Ok(())
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a UTF-8 string with a `u32` byte-length prefix.
    ///
    /// # Errors
    /// Returns [`WireError::InvalidPayload`] for strings above 4 GiB.
    pub fn put_str(&mut self, s: &str) -> Result<()> {
        self.put_len(s.len())?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Validating little-endian decoder over a borrowed slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for reading from its start.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Returns `true` if every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails with [`WireError::TrailingBytes`] unless the reader is
    /// exhausted — the final step of every self-delimiting decode.
    ///
    /// # Errors
    /// Returns [`WireError::TrailingBytes`] if bytes remain.
    pub fn expect_exhausted(&self) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    /// Returns [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`WireError::Truncated`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Returns [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// Returns [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f32` from its raw IEEE bits.
    ///
    /// # Errors
    /// Returns [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` from its raw IEEE bits.
    ///
    /// # Errors
    /// Returns [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u32` length prefix for elements of `elem_size` bytes each
    /// and validates that many bytes are actually present **before** the
    /// caller allocates anything from it.
    ///
    /// # Errors
    /// Returns [`WireError::Truncated`] if the announced `count *
    /// elem_size` bytes are not all present.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize> {
        let count = self.get_u32()? as usize;
        // `count` and `elem_size` both fit in 32 bits in practice, but the
        // product is computed in u64 so a hostile count cannot overflow the
        // check itself.
        let needed = (count as u64).saturating_mul(elem_size as u64);
        if needed > self.remaining() as u64 {
            return Err(WireError::Truncated {
                needed: needed.min(usize::MAX as u64) as usize,
                have: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Reads a `u32`-byte-length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Returns [`WireError::Truncated`] for short input and
    /// [`WireError::InvalidPayload`] for non-UTF-8 bytes.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::InvalidPayload(format!("non-UTF-8 string: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bitwise() {
        let mut w = ByteWriter::default();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f32(-0.0);
        w.put_f32(f32::MIN_POSITIVE / 2.0); // subnormal
        w.put_f64(f64::MAX);
        w.put_f64(-0.0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(
            r.get_f32().unwrap().to_bits(),
            (f32::MIN_POSITIVE / 2.0).to_bits()
        );
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::MAX.to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut w = ByteWriter::default();
        w.put_str("hëllo wïre").unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "hëllo wïre");

        // 2-byte string that is not UTF-8.
        let bad = [2u8, 0, 0, 0, 0xFF, 0xFE];
        assert!(matches!(
            ByteReader::new(&bad).get_str(),
            Err(WireError::InvalidPayload(_))
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        // A string claiming u32::MAX bytes with 2 bytes present.
        let hostile = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2];
        match ByteReader::new(&hostile).get_str() {
            Err(WireError::Truncated { needed, have }) => {
                assert_eq!(needed, u32::MAX as usize);
                assert_eq!(have, 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Same through get_len with wide elements: the u64 product check
        // survives counts whose byte total would overflow usize math.
        let mut r = ByteReader::new(&hostile);
        assert!(matches!(r.get_len(8), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn truncation_is_typed_at_every_width() {
        let short = [1u8, 2, 3];
        assert!(matches!(
            ByteReader::new(&short).get_u32(),
            Err(WireError::Truncated { needed: 4, have: 3 })
        ));
        assert!(matches!(
            ByteReader::new(&short).get_u64(),
            Err(WireError::Truncated { needed: 8, have: 3 })
        ));
        let mut r = ByteReader::new(&short);
        r.take(3).unwrap();
        assert!(matches!(
            r.get_u8(),
            Err(WireError::Truncated { needed: 1, have: 0 })
        ));
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        r.get_u8().unwrap();
        assert_eq!(
            r.expect_exhausted(),
            Err(WireError::TrailingBytes { count: 2 })
        );
    }
}
