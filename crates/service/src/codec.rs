//! The one byte codec behind every stream-parsed format: `TDFSSNAP`
//! query snapshots, the cluster message payload, and the state-directory
//! records `JOURNAL`, `MANIFEST` and `DELTA`.
//!
//! Integers are little-endian; strings and blobs carry a `u32` length
//! prefix (state-directory names a `u16` one). A *sealed* record is
//! `[magic: 8 bytes][version: u16][body][crc32: u32]`, the CRC-32 (the
//! `TDFSGRPH` container's) covering every byte before it.
//! [`Reader::unseal`] checks the magic first, then the version, then the
//! CRC. [`Reader::list`] refuses a count that claims more elements than
//! there are bytes left, so no decoder allocates beyond its input.
//! `TDFSGRPH` containers are not parsed here: they are read at fixed
//! offsets through mmap.

use std::fmt;
use std::ops::RangeInclusive;

use tdfs_graph::container::crc32;

/// Why bytes failed to decode. `TDFSSNAP` decoding returns it as is;
/// the cluster's `WireError` and the state-directory records'
/// [`StorageError`](crate::StorageError) variants map it onto their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the format's magic.
    BadMagic,
    /// The version is not one this build can decode.
    UnsupportedVersion(u16),
    /// The buffer ended before the structure did, or a count claimed
    /// more elements than the remaining bytes hold.
    Truncated,
    /// A field held an impossible value, or the checksum failed
    /// (`Corrupt("checksum mismatch")`).
    Corrupt(&'static str),
}

impl DecodeError {
    /// The error as a short reason, for error types that carry only text.
    pub fn reason(self) -> &'static str {
        match self {
            DecodeError::BadMagic => "bad magic",
            DecodeError::UnsupportedVersion(_) => "unsupported version",
            DecodeError::Truncated => "truncated",
            DecodeError::Corrupt(what) => what,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            _ => f.write_str(self.reason()),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a record: `magic`, then `version`.
    pub fn record(magic: &[u8; 8], version: u16) -> Writer {
        let mut w = Writer::default();
        w.raw(magic);
        w.u16(version);
        w
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A `u32` length prefix, then the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A `u16` length prefix, then the UTF-8 bytes.
    pub fn str16(&mut self, s: &str) {
        self.u16(s.len() as u16);
        self.raw(s.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes followed by their CRC-32.
    pub fn seal(mut self) -> Vec<u8> {
        self.u32(crc32(&self.buf));
        self.buf
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Opens a sealed record of `version` (magic, then version, then
    /// CRC) and returns a reader over its body.
    pub fn unseal(
        bytes: &'a [u8],
        magic: &[u8; 8],
        version: u16,
    ) -> Result<Reader<'a>, DecodeError> {
        let mut r = Reader::new(bytes);
        r.header(magic, version..=version)?;
        r.check_seal()?;
        Ok(r)
    }

    /// Reads a record header: `magic`, then a version in `versions`.
    pub fn header(
        &mut self,
        magic: &[u8; 8],
        versions: RangeInclusive<u16>,
    ) -> Result<u16, DecodeError> {
        if self.take(magic.len())? != magic {
            return Err(DecodeError::BadMagic);
        }
        let version = self.u16()?;
        if !versions.contains(&version) {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        Ok(version)
    }

    /// Verifies and strips the CRC-32 trailer, which covers every byte
    /// of the buffer before it.
    pub fn check_seal(&mut self) -> Result<(), DecodeError> {
        let end = self.buf.len().checked_sub(4).filter(|&end| end >= self.pos);
        let (body, trailer) = self.buf.split_at(end.ok_or(DecodeError::Truncated)?);
        if Reader::new(trailer).u32()? != crc32(body) {
            return Err(DecodeError::Corrupt("checksum mismatch"));
        }
        self.buf = body;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let bytes = self.buf[self.pos..]
            .get(..n)
            .ok_or(DecodeError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    /// A `0`/`1` byte; any other value is `Corrupt(what)`.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt(what)),
        }
    }

    /// A `u32` length prefix and that many bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()?;
        self.take(n as usize)
    }

    pub fn str(&mut self) -> Result<String, DecodeError> {
        self.bytes().and_then(utf8)
    }

    /// A `u16` length prefix and that many UTF-8 bytes.
    pub fn str16(&mut self) -> Result<String, DecodeError> {
        let n = self.u16()?;
        self.take(n as usize).and_then(utf8)
    }

    /// `count` elements read by `element`, each at least `min_size > 0`
    /// bytes long. A count the remaining bytes cannot hold is
    /// [`DecodeError::Truncated`] before anything is allocated.
    pub fn list<T>(
        &mut self,
        count: u64,
        min_size: usize,
        mut element: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        if count.saturating_mul(min_size as u64) > (self.buf.len() - self.pos) as u64 {
            return Err(DecodeError::Truncated);
        }
        (0..count).map(|_| element(self)).collect()
    }

    /// Succeeds only when every byte has been read.
    pub fn done(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::Corrupt("trailing bytes"));
        }
        Ok(())
    }
}

fn utf8(bytes: &[u8]) -> Result<String, DecodeError> {
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Corrupt("non-utf8 string"))
}

/// `Writer::u16(v)` writes and `Reader::u16()` reads a little-endian
/// `u16`, and likewise for each listed type.
macro_rules! fixed_width {
    ($($ty:ident),*) => {
        impl Writer {
            $(pub fn $ty(&mut self, v: $ty) {
                self.raw(&v.to_le_bytes());
            })*
        }

        impl Reader<'_> {
            $(pub fn $ty(&mut self) -> Result<$ty, DecodeError> {
                let bytes = self.take(std::mem::size_of::<$ty>())?;
                Ok($ty::from_le_bytes(bytes.try_into().expect("take returns the size asked")))
            })*
        }
    };
}

fixed_width!(u8, u16, u32, u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_refuses_a_count_the_bytes_cannot_hold() {
        let mut w = Writer::default();
        for v in [1u32, 2, 3] {
            w.u32(v);
        }
        let bytes = w.finish();
        assert_eq!(
            Reader::new(&bytes).list(3, 4, Reader::u32),
            Ok(vec![1, 2, 3])
        );
        for count in [4, u32::MAX as u64, u64::MAX] {
            assert_eq!(
                Reader::new(&bytes).list(count, 4, Reader::u32),
                Err(DecodeError::Truncated),
                "count {count}"
            );
        }
    }

    #[test]
    fn unseal_checks_magic_then_version_then_crc() {
        let mut w = Writer::record(b"TESTMAGC", 2);
        w.u32(5);
        let sealed = w.seal();
        let mut r = Reader::unseal(&sealed, b"TESTMAGC", 2).unwrap();
        assert_eq!(r.u32(), Ok(5));
        assert_eq!(r.done(), Ok(()), "the trailer is not part of the body");

        // A wrong magic, then a wrong version, win over a bad CRC.
        let mut damaged = sealed.clone();
        *damaged.last_mut().unwrap() ^= 1;
        assert_eq!(
            Reader::unseal(&damaged, b"OTHERMAG", 2).unwrap_err(),
            DecodeError::BadMagic
        );
        assert_eq!(
            Reader::unseal(&damaged, b"TESTMAGC", 3).unwrap_err(),
            DecodeError::UnsupportedVersion(2)
        );
        assert_eq!(
            Reader::unseal(&damaged, b"TESTMAGC", 2).unwrap_err(),
            DecodeError::Corrupt("checksum mismatch")
        );
        for cut in 0..sealed.len() {
            assert!(Reader::unseal(&sealed[..cut], b"TESTMAGC", 2).is_err());
        }
    }
}
