//! Compact binary serialization for tensors and experiment artifacts.
//!
//! The workspace builds fully offline with no serialization crates, so
//! artifacts (datasets, cached features, trained models) are persisted with
//! this small self-describing little-endian format built directly on
//! `to_le_bytes`/`from_le_bytes`.
//!
//! Layout conventions: every record starts with a 4-byte tag; integers are
//! little-endian; slices are length-prefixed with `u64`.

use crate::{Shape, Tensor};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Magic tag prefixed to every serialized tensor.
const TENSOR_TAG: &[u8; 4] = b"FSAT";

/// Error returned when decoding malformed or truncated artifact bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
}

impl DecodeError {
    /// Creates a decode error with a context message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.message)
    }
}

impl Error for DecodeError {}

/// Incremental little-endian encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes encoding and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw 4-byte tag.
    pub fn put_tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, xs: &[f32]) {
        self.put_u64(xs.len() as u64);
        self.buf.reserve(xs.len() * 4);
        for &x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, xs: &[u32]) {
        self.put_u64(xs.len() as u64);
        self.buf.reserve(xs.len() * 4);
        for &x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a length-prefixed list of `u64` words; `usize` lists
    /// widen to `u64`.
    ///
    /// # Panics
    ///
    /// Panics on a value wider than 64 bits.
    pub fn put_u64_slice<T: Copy>(&mut self, xs: &[T])
    where
        u64: TryFrom<T>,
    {
        self.put_u64(xs.len() as u64);
        self.buf.reserve(xs.len() * 8);
        for &x in xs {
            let word = u64::try_from(x).unwrap_or_else(|_| panic!("list value wider than u64"));
            self.buf.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a tensor (tag, rank, dims, data).
    pub fn put_tensor(&mut self, t: &Tensor) {
        self.put_tag(TENSOR_TAG);
        self.put_u32(t.ndim() as u32);
        for &d in t.shape() {
            self.put_u64(d as u64);
        }
        self.put_f32_slice(t.as_slice());
    }
}

/// Incremental decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder reading from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize, what: &str) -> Result<(), DecodeError> {
        if self.buf.len() < n {
            Err(DecodeError::new(format!(
                "truncated input reading {what}: need {n} bytes, have {}",
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    /// Consumes and returns the next `N` bytes; caller must `need` first.
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.buf.split_at(N);
        self.buf = rest;
        head.try_into().expect("split_at returned wrong length")
    }

    /// Reads and verifies a 4-byte tag.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the input is truncated or the tag differs.
    fn expect_tag(&mut self, tag: &[u8; 4]) -> Result<(), DecodeError> {
        self.need(4, "tag")?;
        let got: [u8; 4] = self.take();
        if &got != tag {
            return Err(DecodeError::new(format!(
                "bad tag: expected {tag:?}, got {got:?}"
            )));
        }
        Ok(())
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn read_u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4, "u32")?;
        Ok(u32::from_le_bytes(self.take()))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8, "u64")?;
        Ok(u64::from_le_bytes(self.take()))
    }

    /// Reads an `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn read_f32(&mut self) -> Result<f32, DecodeError> {
        self.need(4, "f32")?;
        Ok(f32::from_le_bytes(self.take()))
    }

    /// Reads a length-prefixed `f32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input or absurd lengths.
    pub fn read_f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.read_u64()? as usize;
        self.need(n.saturating_mul(4), "f32 slice body")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f32::from_le_bytes(self.take()));
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u32` slice.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input.
    pub fn read_u32_vec(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.read_u64()? as usize;
        self.need(n.saturating_mul(4), "u32 slice body")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(u32::from_le_bytes(self.take()));
        }
        Ok(out)
    }

    /// Reads a length-prefixed list of `u64` words written by
    /// [`Encoder::put_u64_slice`], into `u64`s or `usize`s.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated input, or a word the element
    /// type cannot hold.
    pub fn read_u64_vec<T: TryFrom<u64>>(&mut self) -> Result<Vec<T>, DecodeError> {
        let n = self.read_u64()? as usize;
        self.need(n.saturating_mul(8), "u64 slice body")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let word = u64::from_le_bytes(self.take());
            out.push(T::try_from(word).map_err(|_| {
                DecodeError::new(format!("list value {word} overflows its element type"))
            })?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or non-UTF-8 input.
    pub fn read_str(&mut self) -> Result<String, DecodeError> {
        let n = self.read_u64()? as usize;
        self.need(n, "string body")?;
        let (head, rest) = self.buf.split_at(n);
        let bytes = head.to_vec();
        self.buf = rest;
        String::from_utf8(bytes).map_err(|e| DecodeError::new(format!("invalid utf-8: {e}")))
    }

    /// Reads a tensor written by [`Encoder::put_tensor`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn read_tensor(&mut self) -> Result<Tensor, DecodeError> {
        self.expect_tag(TENSOR_TAG)?;
        let rank = self.read_u32()? as usize;
        if rank > 8 {
            return Err(DecodeError::new(format!("absurd tensor rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.read_u64()? as usize);
        }
        // Checked product: forged dims like `[2^63, 2]` overflow the
        // element count, which must be an error, not a panic or a
        // wrapped count that happens to match the data.
        let numel = dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .ok_or_else(|| DecodeError::new(format!("tensor dims {dims:?} overflow usize")))?;
        let shape = Shape::new(&dims);
        let data = self.read_f32_vec()?;
        if data.len() != numel {
            return Err(DecodeError::new(format!(
                "tensor data length {} does not match shape {shape}",
                data.len()
            )));
        }
        Ok(Tensor::from_vec(data, &dims))
    }
}

/// Writes encoder output atomically (write temp + rename) to `path`.
///
/// # Errors
///
/// Returns any I/O error from the filesystem.
pub fn write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Reads a whole artifact file.
///
/// # Errors
///
/// Returns any I/O error from the filesystem.
pub fn read_file(path: &Path) -> std::io::Result<Vec<u8>> {
    fs::read(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u32(7);
        e.put_u64(u64::MAX);
        e.put_f32(-1.5);
        e.put_str("héllo");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.read_u32().unwrap(), 7);
        assert_eq!(d.read_u64().unwrap(), u64::MAX);
        assert_eq!(d.read_f32().unwrap(), -1.5);
        assert_eq!(d.read_str().unwrap(), "héllo");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn tensor_roundtrip() {
        let mut rng = Prng::new(10);
        let t = Tensor::randn(&[3, 4, 5], 2.0, &mut rng);
        let mut e = Encoder::new();
        e.put_tensor(&t);
        let bytes = e.into_bytes();
        let got = Decoder::new(&bytes).read_tensor().unwrap();
        assert_eq!(got, t);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut e = Encoder::new();
        e.put_tensor(&Tensor::ones(&[4]));
        let bytes = e.into_bytes();
        let r = Decoder::new(&bytes[..bytes.len() - 2]).read_tensor();
        assert!(r.is_err());
    }

    #[test]
    fn overflowing_dims_are_an_error() {
        let mut e = Encoder::new();
        e.put_tag(TENSOR_TAG);
        e.put_u32(2);
        e.put_u64(1 << 63);
        e.put_u64(2);
        e.put_f32_slice(&[]);
        let bytes = e.into_bytes();
        let err = Decoder::new(&bytes).read_tensor().unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn wrong_tag_is_an_error() {
        let mut e = Encoder::new();
        e.put_tag(b"NOPE");
        let bytes = e.into_bytes();
        assert!(Decoder::new(&bytes).read_tensor().is_err());
    }

    #[test]
    fn slice_roundtrips() {
        let mut e = Encoder::new();
        e.put_f32_slice(&[1.0, 2.0, 3.0]);
        e.put_u32_slice(&[9, 8]);
        e.put_u64_slice(&[u64::MAX, 0]);
        e.put_u64_slice(&[5usize, 1 << 20]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.read_f32_vec().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.read_u32_vec().unwrap(), vec![9, 8]);
        assert_eq!(d.read_u64_vec::<u64>().unwrap(), vec![u64::MAX, 0]);
        assert_eq!(d.read_u64_vec::<usize>().unwrap(), vec![5, 1 << 20]);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fsa_tensor_io_test");
        let path = dir.join("t.bin");
        let mut e = Encoder::new();
        e.put_str("artifact");
        write_file(&path, &e.into_bytes()).unwrap();
        let bytes = read_file(&path).unwrap();
        assert_eq!(Decoder::new(&bytes).read_str().unwrap(), "artifact");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
