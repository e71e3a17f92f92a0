//! Payload serialization for the real TCP transport.
//!
//! The Java system serialised `Algorithm` inputs and results over RMI /
//! raw sockets (paper §2.1). The in-process backends model that with a
//! declared `wire_bytes` per [`crate::problem::Payload`]; the TCP
//! backend makes it real: every problem that wants to run over sockets
//! registers a [`WireCodec`] translating its unit and result payloads
//! to and from bytes, so declared sizes become measured sizes.
//!
//! Codecs are hand-rolled (no serde — the workspace builds offline with
//! zero external dependencies) on top of two tiny helpers:
//! [`ByteWriter`] and [`ByteReader`]. Every `ByteReader` method is
//! bounds-checked and returns [`WireError`] instead of panicking, so a
//! corrupted or truncated body can never take the server down — the
//! transport routes decode failures to [`crate::Server::result_corrupted`].

use crate::problem::Payload;
use std::sync::Arc;

/// A payload failed to encode or decode for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire codec error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Shorthand constructor.
    pub fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

/// One data chunk a work unit depends on: what to ask the server for,
/// how to recognise it in the donor cache, and what it costs on the
/// wire when absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkNeed {
    /// Codec-defined chunk id (for DSEARCH: a database index).
    pub chunk: u64,
    /// Content digest of the chunk's encoded bytes — the donor-cache
    /// key and the integrity check on the `ChunkData` reply.
    pub digest: u64,
    /// Encoded size in bytes (what a cache miss transfers).
    pub bytes: u64,
}

/// Serialises one problem's unit and result payloads.
///
/// Implementations must round-trip: `decode_unit(encode_unit(p))`
/// yields a payload the problem's [`crate::Algorithm`] computes exactly
/// as it would the original, and likewise for results — the chaos suite
/// asserts TCP runs digest-equal to the sequential reference.
///
/// Decoders must be total: any byte string either decodes or returns a
/// [`WireError`]; panicking or allocating proportionally to a length
/// field (rather than to the actual input size) is a bug.
pub trait WireCodec: Send + Sync {
    /// Writes a unit payload's wire form into `w` (server → client):
    /// straight into a connection's output buffer, behind whatever is
    /// already there. A failed write may leave part of it behind; the
    /// caller truncates.
    fn write_unit(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError>;
    /// Decodes a unit payload (client side).
    fn decode_unit(&self, bytes: &[u8]) -> Result<Payload, WireError>;
    /// Writes a result payload's wire form into `w` (client → server),
    /// like [`WireCodec::write_unit`].
    fn write_result(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError>;
    /// Decodes a result payload (server side).
    fn decode_result(&self, bytes: &[u8]) -> Result<Payload, WireError>;

    /// The data chunks a unit payload depends on. The default — no
    /// chunks — means the unit is self-contained and the transport
    /// ships it exactly as before; codecs that separate *references*
    /// from *residues* (DSEARCH) return the chunk list here so donors
    /// can fetch misses into their LRU cache.
    fn unit_chunks(&self, _payload: &Payload) -> Vec<ChunkNeed> {
        Vec::new()
    }

    /// Writes one chunk's bytes into `w` (server side, answering a
    /// `ChunkRequest`). Only meaningful for codecs whose
    /// [`WireCodec::unit_chunks`] is non-empty.
    fn write_chunk(&self, chunk: u64, _w: &mut ByteWriter) -> Result<(), WireError> {
        Err(WireError::new(format!(
            "codec does not serve chunks (requested chunk {chunk})"
        )))
    }

    /// The digest chunk `chunk` is advertised under in [`ChunkNeed`]s,
    /// if the codec keeps it: the origin serves the chunk under it
    /// instead of hashing the bytes (the default, `None`, hashes them).
    /// Donors verify every chunk, so a wrong digest fails the fetch.
    fn known_digest(&self, _chunk: u64) -> Option<u64> {
        None
    }

    /// [`WireCodec::write_unit`] into a buffer of its own.
    fn encode_unit(&self, payload: &Payload) -> Result<Vec<u8>, WireError> {
        ByteWriter::collect(|w| self.write_unit(payload, w))
    }

    /// [`WireCodec::write_result`] into a buffer of its own.
    fn encode_result(&self, payload: &Payload) -> Result<Vec<u8>, WireError> {
        ByteWriter::collect(|w| self.write_result(payload, w))
    }

    /// [`WireCodec::write_chunk`] into a buffer of its own.
    fn encode_chunk(&self, chunk: u64) -> Result<Vec<u8>, WireError> {
        ByteWriter::collect(|w| self.write_chunk(chunk, w))
    }

    /// Rebuilds a computable unit payload from its decoded reference
    /// form plus the fetched chunk bytes, `(chunk id, bytes)` pairs in
    /// [`WireCodec::unit_chunks`] order. The default passes the payload
    /// through untouched (self-contained units need no hydration).
    fn hydrate_unit(
        &self,
        payload: Payload,
        _chunks: &[(u64, Arc<Vec<u8>>)],
    ) -> Result<Payload, WireError> {
        Ok(payload)
    }
}

/// Little-endian byte-string builder for codec implementations.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer, with room for a small body (a unit, a result, a
    /// journal record) before it has to grow.
    pub fn new() -> Self {
        Self::appending(Vec::with_capacity(64))
    }

    /// A writer that appends to `buf` (the frame encoder writes bodies
    /// straight into a connection's output buffer this way).
    pub fn appending(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Finishes, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes of a fresh writer that `write` filled.
    pub fn collect(
        write: impl FnOnce(&mut Self) -> Result<(), WireError>,
    ) -> Result<Vec<u8>, WireError> {
        let mut w = Self::new();
        write(&mut w)?;
        Ok(w.into_bytes())
    }

    /// The bytes written so far — those the writer started with
    /// included — for a caller that patches a placeholder once its value
    /// is known, or takes a failed write back out.
    pub fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Appends what `write` writes as a length-prefixed byte string —
    /// [`ByteWriter::bytes`] without the intermediate buffer — and
    /// returns where its bytes start. A failed `write` is truncated
    /// back out, prefix and all.
    pub fn bytes_with(
        &mut self,
        write: impl FnOnce(&mut Self) -> Result<(), WireError>,
    ) -> Result<usize, WireError> {
        let at = self.buf.len();
        self.u32(0);
        if let Err(e) = write(self) {
            self.buf.truncate(at);
            return Err(e);
        }
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        Ok(at + 4)
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (payload ids and indices).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `Option<usize>` (`u64::MAX` encodes `None`).
    pub fn opt_usize(&mut self, v: Option<usize>) {
        self.u64(v.map(|x| x as u64).unwrap_or(u64::MAX));
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice.
///
/// Every method returns [`WireError`] on exhaustion; none allocates
/// more than the slice it was given, so a hostile length prefix cannot
/// drive an over-allocation.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Fails unless every byte was consumed (trailing garbage is a
    /// decode error, not silent slack).
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::new(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(truncated(n, self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64`-encoded `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::new(format!("usize overflow: {v}")))
    }

    /// Reads an `Option<usize>` (`u64::MAX` is `None`).
    pub fn opt_usize(&mut self) -> Result<Option<usize>, WireError> {
        let v = self.u64()?;
        if v == u64::MAX {
            Ok(None)
        } else {
            usize::try_from(v)
                .map(Some)
                .map_err(|_| WireError::new(format!("usize overflow: {v}")))
        }
    }

    /// Reads a length-prefixed byte string. The length is validated
    /// against the remaining input before any allocation.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::new("invalid UTF-8 in string"))
    }

    /// Reads a `u32` element count, validated against a per-element
    /// lower bound in bytes so a hostile count cannot reserve unbounded
    /// memory: `count × min_elem_bytes` must fit in the remaining input.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(WireError::new(format!(
                "element count {n} exceeds remaining input ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// A read past the end, out of line so that the reads inline.
#[cold]
#[inline(never)]
fn truncated(need: usize, have: usize) -> WireError {
    WireError::new(format!("truncated: need {need} bytes, have {have}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_primitives() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i32(-42);
        w.f64(std::f64::consts::PI);
        w.opt_usize(None);
        w.opt_usize(Some(99));
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.opt_usize().unwrap(), None);
        assert_eq!(r.opt_usize().unwrap(), Some(99));
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(r.u64().is_err());
        // The failed read consumed nothing extra; a smaller read works.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u8().unwrap(), 1);
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        // Claims a 4 GiB string in a 10-byte input.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0; 6]);
        let mut r = ByteReader::new(&bytes);
        assert!(r.bytes().is_err());
        let mut r2 = ByteReader::new(&bytes);
        assert!(r2.count(1).is_err());
    }

    #[test]
    fn trailing_garbage_is_a_decode_error() {
        let mut w = ByteWriter::new();
        w.u32(5);
        w.u8(0xAA);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 5);
        assert!(r.finish().is_err());
    }
}
