//! Canonical binary encoding for chain structures.
//!
//! Every hashed or signed structure in SmartCrowd (headers, records, SRAs,
//! reports) is serialized with this deterministic little codec before
//! hashing, so two nodes always compute identical identifiers. The format
//! is length-prefixed and self-delimiting; it has no schema evolution
//! machinery because identifiers must stay bit-stable.

use crate::error::ChainError;

/// An append-only encoder producing the canonical byte form.
///
/// # Example
///
/// ```
/// use smartcrowd_chain::codec::{Encoder, Decoder};
///
/// let mut enc = Encoder::new();
/// enc.put_u64(7).put_bytes(b"payload");
/// let buf = enc.finish();
/// let mut dec = Decoder::new(&buf);
/// assert_eq!(dec.take_u64().unwrap(), 7);
/// assert_eq!(dec.take_bytes().unwrap(), b"payload");
/// assert!(dec.is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder that appends to `buf`.
    pub(crate) fn onto(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// Appends a `u8`.
    pub(crate) fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u64` (big-endian).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `u128` (big-endian).
    pub fn put_u128(&mut self, v: u128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a fixed-size array verbatim (no length prefix).
    pub fn put_array(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends variable-length bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a UTF-8 string (length-prefixed).
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Consumes the encoder, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A checked reader over canonical bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ChainError> {
        if self.buf.len() - self.pos < n {
            return Err(ChainError::Codec {
                detail: format!(
                    "need {n} bytes at offset {}, only {} remain",
                    self.pos,
                    self.buf.len() - self.pos
                ),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] on truncation.
    pub(crate) fn take_u8(&mut self) -> Result<u8, ChainError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] on truncation.
    pub fn take_u64(&mut self) -> Result<u64, ChainError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Reads a big-endian `u128`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] on truncation.
    pub fn take_u128(&mut self) -> Result<u128, ChainError> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_be_bytes(a))
    }

    /// Reads a fixed-size array.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] on truncation.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ChainError> {
        let b = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// Reads length-prefixed bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] on truncation or an absurd length
    /// prefix (longer than the remaining input).
    pub fn take_bytes(&mut self) -> Result<&'a [u8], ChainError> {
        let len = self.take_u64()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] on truncation or invalid UTF-8.
    pub fn take_str(&mut self) -> Result<&'a str, ChainError> {
        let bytes = self.take_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| ChainError::Codec {
            detail: "invalid UTF-8 in string field".to_string(),
        })
    }

    /// Whether all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Asserts full consumption (trailing garbage is a forgery signal).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), ChainError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(ChainError::Codec {
                detail: format!("{} trailing bytes", self.buf.len() - self.pos),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut enc = Encoder::new();
        enc.put_u8(9)
            .put_u64(u64::MAX)
            .put_u128(u128::MAX - 5)
            .put_array(&[1, 2, 3])
            .put_bytes(b"var")
            .put_str("text");
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.take_u8().unwrap(), 9);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX);
        assert_eq!(dec.take_u128().unwrap(), u128::MAX - 5);
        assert_eq!(dec.take_array::<3>().unwrap(), [1, 2, 3]);
        assert_eq!(dec.take_bytes().unwrap(), b"var");
        assert_eq!(dec.take_str().unwrap(), "text");
        assert!(dec.expect_end().is_ok());
    }

    #[test]
    fn truncation_detected() {
        let mut enc = Encoder::new();
        enc.put_u64(1);
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf[..4]);
        assert!(dec.take_u64().is_err());
    }

    #[test]
    fn absurd_length_prefix_rejected() {
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX); // length prefix claiming 2^64-1 bytes
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        assert!(dec.take_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut enc = Encoder::new();
        enc.put_u8(1).put_u8(2);
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        dec.take_u8().unwrap();
        assert!(dec.expect_end().is_err());
        dec.take_u8().unwrap();
        assert!(dec.expect_end().is_ok());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        assert!(dec.take_str().is_err());
    }

    #[test]
    fn empty_bytes_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_bytes(b"");
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.take_bytes().unwrap(), b"");
    }
}
