//! The framed wire protocol spoken on the real TCP transport.
//!
//! Every message is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic        0xB10D157C, little-endian
//! 4       1     version      currently 1
//! 5       1     frame type   see the `Frame` discriminants
//! 6       4     body length  little-endian, ≤ MAX_BODY
//! 10      4     header CRC   CRC-32 (IEEE) over bytes 0..10
//! 14      n     body         frame-type-specific, ByteWriter layout
//! 14+n    4     body CRC     CRC-32 (IEEE) over the body
//! ```
//!
//! The split checksum matters: the header CRC lets a receiver trust the
//! *length* before allocating or skipping, so a corrupted body never
//! desynchronises the stream — the frame is skipped whole and the error
//! reported ([`DecodeError::BodyCrc`] carries the body prefix so a
//! corrupt `Turn` or `SubmitResult` can still route every unit it names
//! to [`crate::Server::result_corrupted`]). Decoding is total: any byte
//! string yields a frame or a [`DecodeError`], never a panic, and no
//! length field can drive an allocation past the bytes actually
//! received (the property tests below pin all of this down).

pub use super::crc::crc32;
use crate::codec::{ByteReader, ByteWriter, WireError};
pub use crate::server::Then;
use std::io::Read;

/// Frame magic: "BIODIST" squeezed into 4 bytes.
pub const MAGIC: u32 = 0xB10D_157C;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 14;
/// Hard cap on a frame body. Anything larger is rejected before any
/// allocation — a corrupted or hostile length cannot balloon memory.
pub const MAX_BODY: u32 = 64 * 1024 * 1024;

const FT_HELLO: u8 = 1;
const FT_REQUEST_WORK: u8 = 2;
const FT_ASSIGN_UNIT: u8 = 3;
const FT_WAIT: u8 = 4;
const FT_FINISHED: u8 = 5;
const FT_SUBMIT_RESULT: u8 = 6;
const FT_RESULT_ACK: u8 = 7;
const FT_HEARTBEAT: u8 = 8;
const FT_HEARTBEAT_ACK: u8 = 9;
const FT_GOODBYE: u8 = 10;
const FT_CHUNK_REQUEST: u8 = 11;
const FT_CHUNK_DATA: u8 = 12;
const FT_CHUNK_MISSING: u8 = 13;
const FT_REPLICA_ANNOUNCE: u8 = 14;
const FT_METRICS_REPORT: u8 = 15;
const FT_STATUS_REQUEST: u8 = 16;
const FT_STATUS_REPORT: u8 = 17;
const FT_TURN: u8 = 18;
const FT_TURN_REPLY: u8 = 19;

/// Frame type code for [`Frame::SubmitResult`] — exposed so the origin
/// can route the units of a corrupt result frame from its
/// [`DecodeError::BodyCrc`] alone.
pub const SUBMIT_RESULT_TYPE: u8 = FT_SUBMIT_RESULT;
/// Frame type code for [`Frame::Turn`]: see [`SUBMIT_RESULT_TYPE`].
pub const TURN_TYPE: u8 = FT_TURN;

/// Floor of a donor's measured pipeline depth, and the depth until its
/// connection is warm: one unit computing while the next is ready or
/// requested (chunks fetched, unit hydrated), so the next compute starts
/// without a request round trip, and at most this many results
/// unacknowledged. Units that take longer than the donor's waits run at
/// exactly this depth: one turn of one per unit.
pub const MIN_PIPELINE_DEPTH: usize = 2;

/// Ceiling of a donor's measured pipeline depth, and so of what one
/// [`Frame::Turn`] may `want`: the most assignments a donor keeps ready
/// or requested, and results unacknowledged, however short its units
/// are next to a round trip. The donor's wait *is* the origin serving
/// its turn, so with microsecond units the measured depth always ends
/// here: the ceiling is the design, set where the turn's fixed costs
/// (two syscalls a side, a poll, a journal write) stop showing. Swept
/// on `dispatch-journal`, this constant the only edit: `efficiency`
/// 0.118 at 64, 0.135 at 256, 0.137 at 1,024 — 256 is the knee. A turn
/// of 256 integration units is ~13 KB each way, one origin pump and one
/// ~18 KB journal group (1,024 would split its records across the
/// journal's 64 KiB group); deeper would only lengthen what one lost
/// connection resubmits and what one slow donor hoards from the others.
pub const MAX_PIPELINE_DEPTH: usize = 256;

/// The fixed head of a [`Frame::Turn`] body — client, seq, want and
/// the result count — ahead of its id table.
const TURN_HEAD_LEN: usize = 24;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client announces itself on a fresh connection.
    Hello {
        /// The donor's client id.
        client: u64,
    },
    /// Client asks for a unit.
    RequestWork {
        /// The donor's client id.
        client: u64,
    },
    /// Server hands out a unit (payload is the problem codec's bytes).
    AssignUnit {
        /// Problem the unit belongs to.
        problem: u64,
        /// Unit id within the problem.
        unit: u64,
        /// Estimated cost in abstract ops.
        cost_ops: f64,
        /// Codec-encoded unit payload.
        payload: Vec<u8>,
    },
    /// No unit available right now; ask again shortly.
    Wait,
    /// Every problem is complete; the client may shut down.
    Finished,
    /// Client reports a computed result.
    SubmitResult {
        /// The donor's client id.
        client: u64,
        /// Problem the unit belongs to.
        problem: u64,
        /// Unit id within the problem.
        unit: u64,
        /// Codec-encoded result payload.
        payload: Vec<u8>,
    },
    /// Server acknowledges a result (idempotence anchor: the client
    /// retires its pending result only on a matching ack).
    ResultAck {
        /// Problem the acked unit belongs to.
        problem: u64,
        /// The acked unit.
        unit: u64,
        /// Whether the result was folded (false = duplicate/corrupt).
        accepted: bool,
    },
    /// Client liveness beacon.
    Heartbeat {
        /// The donor's client id.
        client: u64,
    },
    /// Server's reply to a heartbeat.
    HeartbeatAck,
    /// Client leaves gracefully; the server releases its leases.
    Goodbye {
        /// The donor's client id.
        client: u64,
    },
    /// Client asks for one data chunk it does not hold in its cache
    /// (work units carry only chunk *references*; residues cross the
    /// wire once and are cached donor-side).
    ChunkRequest {
        /// The donor's client id.
        client: u64,
        /// Problem whose codec serves the chunk.
        problem: u64,
        /// Codec-defined chunk id within the problem.
        chunk: u64,
    },
    /// Server ships the requested chunk's bytes.
    ChunkData {
        /// Problem the chunk belongs to.
        problem: u64,
        /// Codec-defined chunk id within the problem.
        chunk: u64,
        /// Content digest of `payload` (FNV-1a); the client verifies it
        /// before caching, so a stale or mismatched chunk is refetched
        /// rather than silently used.
        digest: u64,
        /// Codec-encoded chunk bytes.
        payload: Vec<u8>,
    },
    /// Negative reply to a [`Frame::ChunkRequest`] the serving endpoint
    /// cannot satisfy (replica not yet synced and origin unreachable,
    /// or an out-of-range chunk id). Without it a miss would leave the
    /// requester blocked in `await_frame` until the liveness sweep
    /// reclaimed its lease — the explicit refusal lets it fail over to
    /// the next candidate endpoint immediately.
    ChunkMissing {
        /// Problem the unsatisfiable request named.
        problem: u64,
        /// Chunk id the serving endpoint does not hold.
        chunk: u64,
    },
    /// Server advertises the replica endpoints serving the chunk tier
    /// (sent in reply to `Hello`). Clients merge the list into their
    /// directory so chunk fetches can be routed by rendezvous hashing.
    ReplicaAnnounce {
        /// Replica socket addresses, in stable announcement order.
        endpoints: Vec<std::net::SocketAddr>,
    },
    /// Client ships a *delta* snapshot of its local metrics registry
    /// (counters/gauges/histograms accumulated since the last report);
    /// the server merges it into the cluster registry under a
    /// `donor.c<id>.` prefix.
    MetricsReport {
        /// The donor's client id.
        client: u64,
        /// [`crate::telemetry::MetricsSnapshot`] wire bytes.
        snapshot: Vec<u8>,
    },
    /// Anyone (a monitoring tool, `biodist_top`) asks the server for a
    /// live cluster snapshot.
    StatusRequest,
    /// Server's reply to a [`Frame::StatusRequest`].
    StatusReport {
        /// [`crate::server::StatusSnapshot`] wire bytes.
        snapshot: Vec<u8>,
    },
    /// One donor turn: every result computed since the last one and the
    /// request for the units that replace them. The `(problem, unit)`
    /// ids lead the body as one table, so a turn whose body fails its
    /// CRC still names every unit it carried ([`decode_turn_head`]).
    Turn {
        /// The donor's client id.
        client: u64,
        /// The donor's turn counter; the reply echoes it.
        seq: u64,
        /// Units asked for (clamped to [`MAX_PIPELINE_DEPTH`]).
        want: u32,
        /// `(problem, unit, codec-encoded result payload)`.
        results: Vec<(u64, u64, Vec<u8>)>,
    },
    /// The origin's answer to a [`Frame::Turn`]: a ruling on each of
    /// its results, in order, and the units leased against its `want`.
    TurnReply {
        /// The `seq` of the turn this answers.
        seq: u64,
        /// `(problem, unit, accepted)` per result of the turn (false =
        /// duplicate/corrupt; either way the result is retired).
        acks: Vec<(u64, u64, bool)>,
        /// `(problem, unit, cost in ops, codec-encoded unit payload)`.
        units: Vec<(u64, u64, f64, Vec<u8>)>,
        /// Whether to keep asking.
        then: Then,
    },
}

impl Frame {
    fn type_code(&self) -> u8 {
        match self {
            Frame::Hello { .. } => FT_HELLO,
            Frame::RequestWork { .. } => FT_REQUEST_WORK,
            Frame::AssignUnit { .. } => FT_ASSIGN_UNIT,
            Frame::Wait => FT_WAIT,
            Frame::Finished => FT_FINISHED,
            Frame::SubmitResult { .. } => FT_SUBMIT_RESULT,
            Frame::ResultAck { .. } => FT_RESULT_ACK,
            Frame::Heartbeat { .. } => FT_HEARTBEAT,
            Frame::HeartbeatAck => FT_HEARTBEAT_ACK,
            Frame::Goodbye { .. } => FT_GOODBYE,
            Frame::ChunkRequest { .. } => FT_CHUNK_REQUEST,
            Frame::ChunkData { .. } => FT_CHUNK_DATA,
            Frame::ChunkMissing { .. } => FT_CHUNK_MISSING,
            Frame::ReplicaAnnounce { .. } => FT_REPLICA_ANNOUNCE,
            Frame::MetricsReport { .. } => FT_METRICS_REPORT,
            Frame::StatusRequest => FT_STATUS_REQUEST,
            Frame::StatusReport { .. } => FT_STATUS_REPORT,
            Frame::Turn { .. } => FT_TURN,
            Frame::TurnReply { .. } => FT_TURN_REPLY,
        }
    }
}

/// A decoded frame whose bulk — a turn's results, a reply's units, a
/// chunk — is borrowed from the bytes it was decoded from (the
/// assembler's own buffer, on both the origin and the donor), so a
/// payload is copied only where somebody keeps it.
/// [`FrameRef::into_owned`] is the [`Frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum FrameRef<'a> {
    /// Any other frame, owned: control frames carry no payload, and the
    /// rest are off the donor pipeline's path.
    Plain(Frame),
    /// See [`Frame::ChunkData`]: `(problem, chunk, digest, payload)`.
    ChunkData(u64, u64, u64, &'a [u8]),
    /// See [`Frame::Turn`]: `(client, seq, want, ids, payloads)`, the
    /// results' `(problem, unit)` ids and their payloads as two runs.
    Turn(u64, u64, u32, Run<'a, (u64, u64)>, Run<'a, &'a [u8]>),
    /// See [`Frame::TurnReply`]: `(seq, acks, units, then)`.
    TurnReply(
        u64,
        Run<'a, (u64, u64, bool)>,
        Run<'a, (u64, u64, f64, &'a [u8])>,
        Then,
    ),
}

impl FrameRef<'_> {
    /// The frame with everything it borrows copied out.
    #[inline]
    pub fn into_owned(self) -> Frame {
        match self {
            FrameRef::Plain(frame) => frame,
            FrameRef::ChunkData(problem, chunk, digest, payload) => Frame::ChunkData {
                problem,
                chunk,
                digest,
                payload: payload.to_vec(),
            },
            FrameRef::Turn(client, seq, want, ids, payloads) => Frame::Turn {
                client,
                seq,
                want,
                results: (ids.zip(payloads).map(|((p, u), b)| (p, u, b.to_vec()))).collect(),
            },
            FrameRef::TurnReply(seq, acks, units, then) => Frame::TurnReply {
                seq,
                acks: acks.collect(),
                units: units.map(|(p, u, c, b)| (p, u, c, b.to_vec())).collect(),
                then,
            },
        }
    }
}

/// A run of elements borrowed from a frame body — a turn's ids, its
/// payloads, a reply's acks, its units — that [`decode_ref`] checked by
/// *length* and the consumer parses, one at a time and once, with `read`.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a, T> {
    left: usize,
    bytes: &'a [u8],
    read: fn(&mut ByteReader<'a>) -> Result<T, WireError>,
}

impl<'a, T> Run<'a, T> {
    /// The run of `n` elements at the front of `r`, each `fixed` bytes
    /// and, if `sliced`, one length-prefixed slice more. Nothing `read`
    /// does can fail except by running out of bytes, so an element that
    /// is all there will parse: skip it, don't parse it twice.
    fn of(
        r: &mut ByteReader<'a>,
        n: usize,
        (fixed, sliced): (usize, bool),
        read: fn(&mut ByteReader<'a>) -> Result<T, WireError>,
    ) -> Result<Self, WireError> {
        let bytes = r.rest();
        let sliced_end = |at: usize, _| {
            let len = bytes.get(at.checked_add(fixed)?..)?.get(..4)?;
            let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
            let end = (at + fixed + 4).checked_add(len)?;
            (end <= bytes.len()).then_some(end)
        };
        let end = match sliced {
            true => (0..n).try_fold(0, sliced_end),
            false => n.checked_mul(fixed).filter(|&end| end <= bytes.len()),
        };
        let Some(end) = end else {
            // Malformed: parse, to fail where and as a parse does.
            for _ in 0..n {
                read(r)?;
            }
            return Err(WireError::new("a run that parses has its length"));
        };
        *r = ByteReader::new(&bytes[end..]);
        Ok(Self {
            left: n,
            bytes: &bytes[..end],
            read,
        })
    }
}

impl<T> Iterator for Run<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.left = self.left.checked_sub(1)?;
        let mut r = ByteReader::new(self.bytes);
        let item = (self.read)(&mut r).ok()?;
        self.bytes = r.rest();
        Some(item)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for Run<'_, T> {}

impl<T> PartialEq for Run<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

fn read_ack(r: &mut ByteReader) -> Result<(u64, u64, bool), WireError> {
    Ok((r.u64()?, r.u64()?, r.u8()? != 0))
}

fn read_unit<'a>(r: &mut ByteReader<'a>) -> Result<(u64, u64, f64, &'a [u8]), WireError> {
    Ok((r.u64()?, r.u64()?, r.f64()?, r.bytes()?))
}

/// Why a byte string failed to decode as a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// Not enough bytes yet — read more and retry (streaming).
    Incomplete,
    /// First four bytes are not the protocol magic.
    BadMagic(u32),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    BadFrameType(u8),
    /// The header checksum failed; the length cannot be trusted and the
    /// stream is unrecoverable.
    HeaderCrc,
    /// Declared body length exceeds [`MAX_BODY`].
    Oversized(u32),
    /// The body checksum failed. The header (and thus the frame span)
    /// was valid, so the stream can resync past the frame; the body
    /// prefix is carried so a corrupt result can still be routed to the
    /// reissue path.
    BodyCrc {
        /// The frame's type byte (already header-CRC-validated).
        frame_type: u8,
        /// The first 24 body bytes (ids for a `SubmitResult`), or as
        /// few as the body has; for a `Turn`, its head and id table.
        body_prefix: Vec<u8>,
    },
    /// The body checksum passed but the payload did not parse.
    Body(WireError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Incomplete => write!(f, "incomplete frame"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            DecodeError::HeaderCrc => write!(f, "header checksum mismatch"),
            DecodeError::Oversized(n) => write!(f, "body length {n} exceeds {MAX_BODY}"),
            DecodeError::BodyCrc { frame_type, .. } => {
                write!(f, "body checksum mismatch on frame type {frame_type}")
            }
            DecodeError::Body(e) => write!(f, "body parse failure: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes one frame to wire bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(frame, &mut out);
    out
}

/// Appends one frame of type `frame_type` to `out` — `write_body`
/// writes the body in place behind a header whose length and checksum
/// are patched afterwards, so a burst of frames costs no allocation
/// beyond `out`'s own growth, and the body is checksummed in one pass
/// once it is whole. Returns what `write_body` returned.
fn frame_into<T>(
    frame_type: u8,
    out: &mut Vec<u8>,
    write_body: impl FnOnce(&mut ByteWriter) -> T,
) -> T {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(frame_type);
    out.extend_from_slice(&[0u8; 8]); // body length + header CRC, patched below
    let mut body = ByteWriter::appending(std::mem::take(out));
    let wrote = write_body(&mut body);
    *out = body.into_bytes();
    let body_start = start + HEADER_LEN;
    let body_len = (out.len() - body_start) as u32;
    out[start + 6..start + 10].copy_from_slice(&body_len.to_le_bytes());
    let header_crc = crc32(&out[start..start + 10]);
    out[start + 10..body_start].copy_from_slice(&header_crc.to_le_bytes());
    let body_crc = crc32(&out[body_start..]);
    out.extend_from_slice(&body_crc.to_le_bytes());
    wrote
}

/// Appends a [`Frame::TurnReply`] whose unit payloads are written in
/// place: each of `units` is `(problem, unit, cost in ops, writer of
/// the codec-encoded payload)`. A unit whose writer fails — a codec
/// bug — is taken back out and not counted: its lease expires and
/// reissues.
pub fn encode_turn_reply_into<W>(
    out: &mut Vec<u8>,
    seq: u64,
    then: Then,
    acks: impl ExactSizeIterator<Item = (u64, u64, bool)>,
    units: impl Iterator<Item = (u64, u64, f64, W)>,
) where
    W: FnOnce(&mut ByteWriter) -> Result<(), WireError>,
{
    frame_into(FT_TURN_REPLY, out, |body| {
        body.u64(seq);
        body.u8(then as u8);
        body.u32(acks.len() as u32);
        for (problem, unit, accepted) in acks {
            body.u64(problem);
            body.u64(unit);
            body.u8(u8::from(accepted));
        }
        let (count_at, mut sent) = (body.buf().len(), 0u32);
        body.u32(0);
        for (problem, unit, cost_ops, write) in units {
            let at = body.buf().len();
            body.u64(problem);
            body.u64(unit);
            body.f64(cost_ops);
            match body.bytes_with(write) {
                Ok(_) => sent += 1,
                Err(_) => body.buf().truncate(at),
            }
        }
        body.buf()[count_at..count_at + 4].copy_from_slice(&sent.to_le_bytes());
    })
}

/// Appends a [`Frame::ChunkData`] whose payload `write` writes in place
/// and whose digest is `digest` of the bytes written, patched in behind
/// them like the length. Returns `(digest, payload length)`; a failed
/// `write` leaves `out` as it was.
pub fn encode_chunk_data_into(
    out: &mut Vec<u8>,
    problem: u64,
    chunk: u64,
    digest: impl FnOnce(&[u8]) -> u64,
    write: impl FnOnce(&mut ByteWriter) -> Result<(), WireError>,
) -> Result<(u64, usize), WireError> {
    let start = out.len();
    let wrote = frame_into(FT_CHUNK_DATA, out, |body| {
        body.u64(problem);
        body.u64(chunk);
        let digest_at = body.buf().len();
        body.u64(0);
        let payload_at = body.bytes_with(write)?;
        let buf = body.buf();
        let digest = digest(&buf[payload_at..]);
        buf[digest_at..digest_at + 8].copy_from_slice(&digest.to_le_bytes());
        Ok((digest, buf.len() - payload_at))
    });
    if wrote.is_err() {
        out.truncate(start);
    }
    wrote
}

/// Appends a [`Frame::Turn`] built from borrowed results — the donor
/// keeps its unacknowledged payloads and encodes straight from them.
pub fn encode_turn_into<'a>(
    out: &mut Vec<u8>,
    client: u64,
    seq: u64,
    want: u32,
    results: impl ExactSizeIterator<Item = (u64, u64, &'a [u8])> + Clone,
) {
    frame_into(FT_TURN, out, |body| {
        body.u64(client);
        body.u64(seq);
        body.u32(want);
        body.u32(results.len() as u32);
        for (problem, unit, _) in results.clone() {
            body.u64(problem);
            body.u64(unit);
        }
        for (_, _, payload) in results {
            body.bytes(payload);
        }
    });
}

/// The payload writer of an in-place encoder that copies `payload` in.
pub fn raw(payload: &[u8]) -> impl FnOnce(&mut ByteWriter) -> Result<(), WireError> + '_ {
    move |w| {
        w.buf().extend_from_slice(payload);
        Ok(())
    }
}

/// Appends one encoded frame to `out`, its body written in place
/// behind a header whose length and checksum are patched afterwards.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    // The three frames with an in-place encoder go through it.
    match frame {
        Frame::Turn {
            client,
            seq,
            want,
            results,
        } => {
            let results = results.iter().map(|(p, u, b)| (*p, *u, b.as_slice()));
            return encode_turn_into(out, *client, *seq, *want, results);
        }
        Frame::TurnReply {
            seq,
            acks,
            units,
            then,
        } => {
            let units = units.iter().map(|(p, u, c, b)| (*p, *u, *c, raw(b)));
            return encode_turn_reply_into(out, *seq, *then, acks.iter().copied(), units);
        }
        Frame::ChunkData {
            problem,
            chunk,
            digest,
            payload,
        } => {
            let wrote = encode_chunk_data_into(out, *problem, *chunk, |_| *digest, raw(payload));
            return wrote.map(drop).expect("a raw copy cannot fail");
        }
        _ => {}
    }
    frame_into(frame.type_code(), out, |body| match frame {
        Frame::Hello { client }
        | Frame::RequestWork { client }
        | Frame::Heartbeat { client }
        | Frame::Goodbye { client } => body.u64(*client),
        Frame::AssignUnit {
            problem,
            unit,
            cost_ops,
            payload,
        } => {
            body.u64(*problem);
            body.u64(*unit);
            body.f64(*cost_ops);
            body.bytes(payload);
        }
        Frame::Wait | Frame::Finished | Frame::HeartbeatAck => {}
        Frame::SubmitResult {
            client,
            problem,
            unit,
            payload,
        } => {
            body.u64(*client);
            body.u64(*problem);
            body.u64(*unit);
            body.bytes(payload);
        }
        Frame::ResultAck {
            problem,
            unit,
            accepted,
        } => {
            body.u64(*problem);
            body.u64(*unit);
            body.u8(u8::from(*accepted));
        }
        Frame::ChunkRequest {
            client,
            problem,
            chunk,
        } => {
            body.u64(*client);
            body.u64(*problem);
            body.u64(*chunk);
        }
        Frame::ChunkMissing { problem, chunk } => {
            body.u64(*problem);
            body.u64(*chunk);
        }
        Frame::ReplicaAnnounce { endpoints } => {
            body.u32(endpoints.len() as u32);
            for ep in endpoints {
                body.str(&ep.to_string());
            }
        }
        Frame::MetricsReport { client, snapshot } => {
            body.u64(*client);
            body.bytes(snapshot);
        }
        Frame::StatusRequest => {}
        Frame::StatusReport { snapshot } => body.bytes(snapshot),
        Frame::Turn { .. } | Frame::TurnReply { .. } | Frame::ChunkData { .. } => {
            unreachable!("encoded above")
        }
    });
}

/// `(client, seq, want, (problem, unit) ids)`.
pub type TurnHead<'a> = (u64, u64, u32, Run<'a, (u64, u64)>);

/// The head of a [`Frame::Turn`] body: also what the origin reads from
/// the [`DecodeError::BodyCrc`] prefix of a turn mangled in transit, to
/// attribute the results it carried.
pub fn decode_turn_head<'a>(r: &mut ByteReader<'a>) -> Result<TurnHead<'a>, WireError> {
    let (client, seq, want, n) = (r.u64()?, r.u64()?, r.u32()?, r.count(16)?);
    Ok((
        client,
        seq,
        want,
        Run::of(r, n, (16, false), |r| Ok((r.u64()?, r.u64()?)))?,
    ))
}

/// Parses and validates a frame header, returning `(frame_type,
/// body_len)`. The caller may trust the length (it is header-CRC
/// protected) even when the body later fails its own checksum.
pub fn parse_header(buf: &[u8]) -> Result<(u8, u32), DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Incomplete);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let declared_crc = u32::from_le_bytes(buf[10..14].try_into().expect("4 bytes"));
    if crc32(&buf[..10]) != declared_crc {
        return Err(DecodeError::HeaderCrc);
    }
    let version = buf[4];
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let frame_type = buf[5];
    if !(FT_HELLO..=FT_TURN_REPLY).contains(&frame_type) {
        return Err(DecodeError::BadFrameType(frame_type));
    }
    let body_len = u32::from_le_bytes(buf[6..10].try_into().expect("4 bytes"));
    if body_len > MAX_BODY {
        return Err(DecodeError::Oversized(body_len));
    }
    Ok((frame_type, body_len))
}

/// Decodes one frame from the front of `buf`; returns the frame and the
/// bytes consumed. [`DecodeError::Incomplete`] means "read more".
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), DecodeError> {
    decode_ref(buf).map(|(frame, used)| (frame.into_owned(), used))
}

/// [`decode_frame`] without the copies: the one decoder, whose frame
/// borrows its payloads from `buf`.
pub fn decode_ref(buf: &[u8]) -> Result<(FrameRef<'_>, usize), DecodeError> {
    let (frame_type, body_len) = parse_header(buf)?;
    let total = HEADER_LEN + body_len as usize + 4;
    if buf.len() < total {
        return Err(DecodeError::Incomplete);
    }
    let body = &buf[HEADER_LEN..HEADER_LEN + body_len as usize];
    let declared_crc = u32::from_le_bytes(buf[total - 4..total].try_into().expect("4 bytes"));
    if crc32(body) != declared_crc {
        // A turn's prefix reaches to the end of its id table; its
        // (unverified) count cannot ask for more than the body holds.
        let keep = match body.get(TURN_HEAD_LEN - 4..TURN_HEAD_LEN) {
            Some(n) if frame_type == FT_TURN => {
                let n = u32::from_le_bytes(n.try_into().expect("4 bytes")) as usize;
                TURN_HEAD_LEN.saturating_add(n.saturating_mul(16))
            }
            _ => 24,
        };
        return Err(DecodeError::BodyCrc {
            frame_type,
            body_prefix: body[..body.len().min(keep)].to_vec(),
        });
    }
    let mut r = ByteReader::new(body);
    let frame = (|| -> Result<FrameRef, WireError> {
        use FrameRef::Plain;
        let frame = match frame_type {
            FT_HELLO => Plain(Frame::Hello { client: r.u64()? }),
            FT_REQUEST_WORK => Plain(Frame::RequestWork { client: r.u64()? }),
            FT_ASSIGN_UNIT => {
                let (problem, unit, cost_ops, payload) = read_unit(&mut r)?;
                Plain(Frame::AssignUnit {
                    problem,
                    unit,
                    cost_ops,
                    payload: payload.to_vec(),
                })
            }
            FT_WAIT => Plain(Frame::Wait),
            FT_FINISHED => Plain(Frame::Finished),
            FT_SUBMIT_RESULT => Plain(Frame::SubmitResult {
                client: r.u64()?,
                problem: r.u64()?,
                unit: r.u64()?,
                payload: r.bytes()?.to_vec(),
            }),
            FT_RESULT_ACK => {
                let (problem, unit, accepted) = read_ack(&mut r)?;
                Plain(Frame::ResultAck {
                    problem,
                    unit,
                    accepted,
                })
            }
            FT_HEARTBEAT => Plain(Frame::Heartbeat { client: r.u64()? }),
            FT_HEARTBEAT_ACK => Plain(Frame::HeartbeatAck),
            FT_GOODBYE => Plain(Frame::Goodbye { client: r.u64()? }),
            FT_CHUNK_REQUEST => Plain(Frame::ChunkRequest {
                client: r.u64()?,
                problem: r.u64()?,
                chunk: r.u64()?,
            }),
            FT_CHUNK_DATA => FrameRef::ChunkData(r.u64()?, r.u64()?, r.u64()?, r.bytes()?),
            FT_CHUNK_MISSING => Plain(Frame::ChunkMissing {
                problem: r.u64()?,
                chunk: r.u64()?,
            }),
            FT_REPLICA_ANNOUNCE => {
                let n = r.count(4)?; // each endpoint is a length-prefixed string
                let mut endpoints = Vec::with_capacity(n);
                for _ in 0..n {
                    let s = r.str()?;
                    let ep = s
                        .parse::<std::net::SocketAddr>()
                        .map_err(|_| WireError::new(format!("bad socket address {s:?}")))?;
                    endpoints.push(ep);
                }
                Plain(Frame::ReplicaAnnounce { endpoints })
            }
            FT_METRICS_REPORT => Plain(Frame::MetricsReport {
                client: r.u64()?,
                snapshot: r.bytes()?.to_vec(),
            }),
            FT_STATUS_REQUEST => Plain(Frame::StatusRequest),
            FT_STATUS_REPORT => Plain(Frame::StatusReport {
                snapshot: r.bytes()?.to_vec(),
            }),
            FT_TURN => {
                let (client, seq, want, ids) = decode_turn_head(&mut r)?;
                let payloads = Run::of(&mut r, ids.len(), (0, true), ByteReader::bytes)?;
                FrameRef::Turn(client, seq, want, ids, payloads)
            }
            FT_TURN_REPLY => {
                let seq = r.u64()?;
                let then = match r.u8()? {
                    0 => Then::More,
                    1 => Then::Wait,
                    2 => Then::Finished,
                    other => return Err(WireError::new(format!("bad turn verdict {other}"))),
                };
                let n = r.count(17)?;
                let acks = Run::of(&mut r, n, (17, false), read_ack)?;
                let n = r.count(28)?;
                FrameRef::TurnReply(seq, acks, Run::of(&mut r, n, (24, true), read_unit)?, then)
            }
            _ => unreachable!("parse_header validated the type"),
        };
        r.finish()?;
        Ok(frame)
    })()
    .map_err(DecodeError::Body)?;
    Ok((frame, total))
}

/// A frame-read failure at the transport layer.
#[derive(Debug)]
pub enum ReadError {
    /// Socket-level failure (includes EOF as `UnexpectedEof`).
    Io(std::io::Error),
    /// The bytes were read but did not decode.
    Decode(DecodeError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "frame read i/o error: {e}"),
            ReadError::Decode(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// The spare room a busy connection's stream reads are offered. A read
/// that fills its room doubles the storage until the room reaches this,
/// so a burst of replies drains in a handful of reads while a
/// connection that only ever trades small frames (most of a 1k-donor
/// pool) keeps holding [`MIN_READ_STEP`].
const READ_STEP: usize = 64 * 1024;
/// Smallest spare room a stream read is offered.
const MIN_READ_STEP: usize = 4 * 1024;

/// The frame-reassembly state machine: push bytes in whatever split
/// points the transport produced, pull whole frames out. This is the
/// single home of the resync logic — the blocking client-side
/// [`FrameReader`] and the event loop's connections both wrap it, so a
/// split point can never behave differently between them.
///
/// `next` returns `Ok(None)` when more bytes are needed. A
/// [`DecodeError::BodyCrc`] consumes the whole offending frame before
/// being returned (its span is header-CRC-trusted), so the caller can
/// report the corruption and keep pulling frames from the same buffer;
/// every other error leaves the buffer untrustworthy and the caller
/// should drop the connection.
///
/// Consuming a frame only advances a read cursor; the consumed prefix
/// is reclaimed when room is next needed, and then only once it is at
/// least as large as the live bytes behind it — every byte is moved at
/// most once, however long the backlog of frames it arrived in.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Storage, initialised once and reused: the live bytes are
    /// `buf[head..tail]`, everything past `tail` is spare room that
    /// stream reads land in directly.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw transport bytes at any split point.
    pub fn push(&mut self, bytes: &[u8]) {
        self.spare(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// Reads once from `stream` straight into the spare room; returns
    /// what `read` returned (0 = end of stream).
    pub fn read_from<R: Read>(&mut self, stream: &mut R) -> std::io::Result<usize> {
        let room = self.spare(MIN_READ_STEP);
        let n = stream.read(room)?;
        let filled = n == room.len() && n < READ_STEP;
        self.tail += n;
        if filled {
            // More is waiting than the room could take: the next read
            // gets twice the storage (at most READ_STEP more).
            let len = self.buf.len();
            self.buf.resize(len + len.min(READ_STEP), 0);
        }
        Ok(n)
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// Bytes of storage held (live, consumed-but-unreclaimed and spare).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The spare room past the live bytes, at least `want` bytes of it.
    fn spare(&mut self, want: usize) -> &mut [u8] {
        if self.buf.len() - self.tail < want {
            let live = self.tail - self.head;
            if self.head >= live {
                self.buf.copy_within(self.head..self.tail, 0);
                self.head = 0;
                self.tail = live;
            }
            if self.buf.len() - self.tail < want {
                self.buf.resize(self.tail + want, 0);
            }
        }
        &mut self.buf[self.tail..]
    }

    /// Pulls the next complete frame, if the buffered bytes hold one.
    #[inline]
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        Ok(self.next_ref()?.map(|frame| frame.into_owned()))
    }

    /// [`Self::next_frame`], borrowed: the frame's payloads are slices
    /// of this buffer, good until the next call that takes `&mut self`.
    #[inline]
    pub fn next_ref(&mut self) -> Result<Option<FrameRef<'_>>, DecodeError> {
        let Self { buf, head, tail } = self;
        let live = &buf[*head..*tail];
        // Consuming only moves the cursor: the bytes stay where they are.
        let mut consume = |used: usize| {
            *head += used;
            if *head == *tail {
                (*head, *tail) = (0, 0);
            }
        };
        match decode_ref(live) {
            Ok((frame, used)) => {
                consume(used);
                Ok(Some(frame))
            }
            Err(DecodeError::Incomplete) => Ok(None),
            Err(e @ DecodeError::BodyCrc { .. }) => {
                // The header was sound, so the frame's span is known:
                // skip it whole and let the caller keep the stream.
                if let Ok((_, body_len)) = parse_header(live) {
                    consume(HEADER_LEN + body_len as usize + 4);
                }
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Whether the buffered bytes start with a whole frame (sound or
    /// not); `Err`: none can start there.
    fn ready(&self) -> Result<bool, DecodeError> {
        let live = &self.buf[self.head..self.tail];
        match parse_header(live) {
            Ok((_, body_len)) => Ok(live.len() >= HEADER_LEN + body_len as usize + 4),
            Err(DecodeError::Incomplete) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Incremental frame reader over a (possibly timeout-configured)
/// *blocking* stream, for whatever plays the client role: the donor,
/// a replica's upstream pull from the origin, tools and tests. Nothing
/// that serves connections reads through it — servers run
/// [`super::evloop::serve`] over the [`FrameAssembler`] directly.
/// Partial reads are buffered, so a read timeout mid-frame never
/// desynchronises the stream; `poll` returns `Ok(None)` on timeout so
/// the caller can check shutdown flags and retry.
///
/// A [`DecodeError::BodyCrc`] consumes the whole offending frame (its
/// span is header-CRC-trusted) before being returned, so the caller can
/// report the corruption and keep reading the same connection.
#[derive(Debug, Default)]
pub struct FrameReader {
    asm: FrameAssembler,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next frame among the bytes earlier reads already buffered,
    /// without touching the stream: `Ok(None)` when they hold no whole
    /// frame. Errors are those of [`FrameAssembler::next_frame`].
    pub fn next_buffered(&mut self) -> Result<Option<FrameRef<'_>>, DecodeError> {
        self.asm.next_ref()
    }

    /// Reads until one full frame is available, the stream times out
    /// (`Ok(None)`), or the connection fails.
    pub fn poll<R: Read>(&mut self, stream: &mut R) -> Result<Option<Frame>, ReadError> {
        Ok(self.poll_ref(stream)?.map(|frame| frame.into_owned()))
    }

    /// [`Self::poll`], borrowed: the frame's payloads are slices of the
    /// reader's buffer, good until its next call.
    pub fn poll_ref<R: Read>(&mut self, stream: &mut R) -> Result<Option<FrameRef<'_>>, ReadError> {
        loop {
            // (Asked first, so that the borrow is taken only on the way out.)
            if self.asm.ready().map_err(ReadError::Decode)? {
                return self.asm.next_ref().map_err(ReadError::Decode);
            }
            match self.asm.read_from(stream) {
                Ok(0) => {
                    return Err(ReadError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    )))
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biodist_util::rng::{Rng, SplitMix64};

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { client: 3 },
            Frame::RequestWork { client: u64::MAX },
            Frame::AssignUnit {
                problem: 1,
                unit: 42,
                cost_ops: 1.5e9,
                payload: vec![0xAB; 257],
            },
            Frame::Wait,
            Frame::Finished,
            Frame::SubmitResult {
                client: 2,
                problem: 0,
                unit: 7,
                payload: (0..=255).collect(),
            },
            Frame::ResultAck {
                problem: 0,
                unit: 7,
                accepted: true,
            },
            Frame::Heartbeat { client: 5 },
            Frame::HeartbeatAck,
            Frame::Goodbye { client: 0 },
            Frame::ChunkRequest {
                client: 6,
                problem: 1,
                chunk: 13,
            },
            Frame::ChunkData {
                problem: 1,
                chunk: 13,
                digest: 0xDEAD_BEEF_CAFE_F00D,
                payload: (0..=127).rev().collect(),
            },
            Frame::ChunkMissing {
                problem: 1,
                chunk: u64::MAX,
            },
            Frame::ReplicaAnnounce {
                endpoints: Vec::new(),
            },
            Frame::ReplicaAnnounce {
                endpoints: vec![
                    "127.0.0.1:9001".parse().unwrap(),
                    "[::1]:65535".parse().unwrap(),
                    "10.0.0.7:80".parse().unwrap(),
                ],
            },
            Frame::MetricsReport {
                client: 9,
                snapshot: (0..64).collect(),
            },
            Frame::StatusRequest,
            Frame::StatusReport {
                snapshot: vec![0x42; 96],
            },
            Frame::Turn {
                client: 4,
                seq: 1,
                want: 2,
                results: Vec::new(),
            },
            Frame::Turn {
                client: 4,
                seq: u64::MAX,
                want: 64,
                results: vec![(0, 7, vec![1; 40]), (1, 8, Vec::new()), (0, 9, vec![2; 3])],
            },
            Frame::TurnReply {
                seq: 9,
                acks: Vec::new(),
                units: Vec::new(),
                then: Then::Finished,
            },
            Frame::TurnReply {
                seq: 10,
                acks: vec![(0, 7, true), (1, 8, false)],
                units: vec![(0, 10, 2.5e6, vec![3; 33]), (1, 11, 1.0, Vec::new())],
                then: Then::Wait,
            },
        ]
    }

    /// `encode_frame` of every frame of `all_frames()`, in order, as the
    /// commit before the in-place encoders and the CLMUL checksum wrote
    /// them: not one wire byte may move.
    const GOLDEN: &[&str] = &[
        "7c150db1010108000000618927c703000000000000008ad8adeb",
        "7c150db1010208000000b1f38780ffffffffffffffff1cdf4421",
        "7c150db101031d0100009b17e2db01000000000000002a00000000000000000000c00b5ad64101010000ababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababababab2d3d43e4",
        "7c150db1010400000000fe2e73ca00000000",
        "7c150db10105000000004e0713f700000000",
        "7c150db101061c0100008effbeab02000000000000000000000000000000070000000000000000010000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeffac7e7520",
        "7c150db1010711000000d46476650000000000000000070000000000000001e2ac89da",
        "7c150db101080800000010eb37ca05000000000000000dd1c22d",
        "7c150db10109000000004feae33200000000",
        "7c150db1010a0800000070b8f7b0000000000000000069df2265",
        "7c150db1010b180000005fc68edd060000000000000001000000000000000d00000000000000301c9126",
        "7c150db1010c9c000000233b950d01000000000000000d000000000000000df0fecaefbeadde800000007f7e7d7c7b7a797877767574737271706f6e6d6c6b6a696867666564636261605f5e5d5c5b5a595857565554535251504f4e4d4c4b4a494847464544434241403f3e3d3c3b3a393837363534333231302f2e2d2c2b2a292827262524232221201f1e1d1c1b1a191817161514131211100f0e0d0c0b0a09080706050403020100be87241c",
        "7c150db1010d10000000101b7a970100000000000000ffffffffffffffffb1dab506",
        "7c150db1010e0400000008a1a10f000000001cdf4421",
        "7c150db1010e34000000a9598aff030000000e0000003132372e302e302e313a393030310b0000005b3a3a315d3a36353533350b00000031302e302e302e373a383031a62141",
        "7c150db1010f4c0000006af8616c090000000000000040000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f7d589a81",
        "7c150db1011000000000bc1f135f00000000",
        "7c150db1011164000000585637d6600000004242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242424242428802efa3",
        "7c150db1011218000000ac337eb004000000000000000100000000000000020000000000000093c28a26",
        "7c150db101127f00000016fc8f160400000000000000ffffffffffffffff40000000030000000000000000000000070000000000000001000000000000000800000000000000000000000000000009000000000000002800000001010101010101010101010101010101010101010101010101010101010101010101010101010101000000000300000002020283c62fda",
        "7c150db1011311000000965516f00900000000000000020000000000000000e65daf86",
        "7c150db101138c000000ef6c3cbf0a000000000000000102000000000000000000000007000000000000000101000000000000000800000000000000000200000000000000000000000a0000000000000000000000d01243412100000003030303030303030303030303030303030303030303030303030303030303030301000000000000000b00000000000000000000000000f03f00000000a0425dd4",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn golden_frame_bytes_have_not_moved() {
        let frames = all_frames();
        assert_eq!(frames.len(), GOLDEN.len());
        for (frame, golden) in frames.iter().zip(GOLDEN) {
            assert_eq!(hex(&encode_frame(frame)), *golden, "{frame:?}");
        }
    }

    /// The borrowed decoder is the decoder: on every frame, every
    /// truncation and every single-byte corruption it and the owned
    /// form reach the same verdict — the same frame and length, or the
    /// same error with the same `BodyCrc` prefix — and an assembler
    /// hands out the same frames borrowed as owned.
    #[test]
    fn borrowed_decode_reaches_the_owned_verdict_on_every_input() {
        let owned = |buf: &[u8]| decode_ref(buf).map(|(frame, used)| (frame.into_owned(), used));
        let (mut by_ref, mut by_value) = (FrameAssembler::new(), FrameAssembler::new());
        for frame in all_frames() {
            let clean = encode_frame(&frame);
            assert_eq!(owned(&clean), Ok((frame.clone(), clean.len())));
            for cut in 0..clean.len() {
                assert_eq!(owned(&clean[..cut]), decode_frame(&clean[..cut]));
            }
            for pos in 0..clean.len() {
                let mut bad = clean.clone();
                bad[pos] ^= 0x41;
                assert_eq!(owned(&bad), decode_frame(&bad), "byte {pos} of {frame:?}");
                if pos >= HEADER_LEN {
                    by_ref.push(&bad);
                    by_value.push(&bad);
                }
            }
            by_ref.push(&clean);
            by_value.push(&clean);
            loop {
                let borrowed = by_ref.next_ref().map(|f| f.map(|f| f.into_owned()));
                assert_eq!(borrowed, by_value.next_frame());
                if borrowed == Ok(None) {
                    break;
                }
            }
            assert_eq!((by_ref.buffered(), by_value.buffered()), (0, 0));
        }
    }

    /// A unit whose payload writer fails is taken back out of the reply
    /// and out of its count; what was written around it is untouched.
    #[test]
    fn an_unencodable_unit_is_truncated_out_of_the_turn_reply() {
        type Write<'a> = Box<dyn FnOnce(&mut ByteWriter) -> Result<(), WireError> + 'a>;
        let partial = |w: &mut ByteWriter| {
            w.u64(0xDEAD);
            Err(WireError::new("codec bug"))
        };
        let units: Vec<(u64, u64, f64, Write)> = vec![
            (0, 10, 1.5, Box::new(raw(&[3; 33]))),
            (0, 11, 2.5, Box::new(partial)),
            (1, 12, 3.5, Box::new(raw(&[]))),
        ];
        let mut out = vec![0xEE; 3];
        let acks = [(0, 7, true)].into_iter();
        encode_turn_reply_into(&mut out, 9, Then::More, acks, units.into_iter());
        let sent = Frame::TurnReply {
            seq: 9,
            acks: vec![(0, 7, true)],
            units: vec![(0, 10, 1.5, vec![3; 33]), (1, 12, 3.5, Vec::new())],
            then: Then::More,
        };
        assert_eq!(out[..3], [0xEE; 3]);
        assert_eq!(out[3..], encode_frame(&sent));
    }

    /// The in-place chunk encoder patches in the digest of what was
    /// written, to the byte what the owned frame encodes to; a failed
    /// writer leaves the output as it was.
    #[test]
    fn chunk_data_is_digested_in_place_and_a_failed_write_leaves_no_trace() {
        let payload: Vec<u8> = (0..=200).collect();
        let digest = crate::net::chunk_digest(&payload);
        let mut out = vec![0xEE; 3];
        let wrote =
            encode_chunk_data_into(&mut out, 1, 13, crate::net::chunk_digest, raw(&payload));
        assert_eq!(wrote, Ok((digest, payload.len())));
        let owned = Frame::ChunkData {
            problem: 1,
            chunk: 13,
            digest,
            payload,
        };
        assert_eq!(out[3..], encode_frame(&owned));
        let before = out.clone();
        let failing = |w: &mut ByteWriter| {
            w.buf().extend([1, 2, 3]);
            Err(WireError::new("no such chunk"))
        };
        assert!(encode_chunk_data_into(&mut out, 1, 14, |_| 0, failing).is_err());
        assert_eq!(out, before);
    }

    #[test]
    fn every_frame_type_round_trips() {
        for frame in all_frames() {
            let bytes = encode_frame(&frame);
            let (decoded, used) = decode_frame(&bytes).expect("clean frame decodes");
            assert_eq!(decoded, frame);
            assert_eq!(used, bytes.len(), "whole frame consumed");
            // Concatenated frames decode one at a time.
            let mut double = bytes.clone();
            double.extend_from_slice(&bytes);
            let (first, used) = decode_frame(&double).unwrap();
            assert_eq!(first, frame);
            let (second, _) = decode_frame(&double[used..]).unwrap();
            assert_eq!(second, frame);
        }
    }

    #[test]
    fn every_truncation_is_incomplete_never_a_panic() {
        for frame in all_frames() {
            let bytes = encode_frame(&frame);
            for cut in 0..bytes.len() {
                match decode_frame(&bytes[..cut]) {
                    Err(DecodeError::Incomplete) => {}
                    other => panic!("truncated at {cut}: expected Incomplete, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        // Flip every byte of every frame through several XOR masks; the
        // double CRC must reject all of them (single-byte corruption is
        // well inside CRC-32's guarantee) without panicking.
        for frame in all_frames() {
            let clean = encode_frame(&frame);
            for pos in 0..clean.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut bad = clean.clone();
                    bad[pos] ^= mask;
                    // Any Err is fine — Oversized/Incomplete would need
                    // the flip to land in the length field and the
                    // header CRC simultaneously, so the errors seen
                    // here are the magic/version/type/CRC family. The
                    // requirement is "never accept, never panic".
                    if let Ok((decoded, _)) = decode_frame(&bad) {
                        panic!(
                            "corruption at byte {pos} (mask {mask:#04x}) of {frame:?} \
                             decoded as {decoded:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_body_reports_type_and_prefix_for_reissue_routing() {
        let frame = Frame::SubmitResult {
            client: 4,
            problem: 1,
            unit: 99,
            payload: vec![7; 64],
        };
        let mut bytes = encode_frame(&frame);
        // Corrupt a payload byte well past the id fields.
        let idx = HEADER_LEN + 24 + 10;
        bytes[idx] ^= 0xFF;
        match decode_frame(&bytes) {
            Err(DecodeError::BodyCrc {
                frame_type,
                body_prefix,
            }) => {
                assert_eq!(frame_type, SUBMIT_RESULT_TYPE);
                let mut r = ByteReader::new(&body_prefix);
                assert_eq!(r.u64().unwrap(), 4, "client id survives");
                assert_eq!(r.u64().unwrap(), 1, "problem id survives");
                assert_eq!(r.u64().unwrap(), 99, "unit id survives");
            }
            other => panic!("expected BodyCrc, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_turn_reports_its_head_and_whole_id_table() {
        let results: Vec<_> = (0..40)
            .map(|u| (u % 3, 100 + u, vec![u as u8; 9]))
            .collect();
        let mut bytes = encode_frame(&Frame::Turn {
            client: 4,
            seq: 77,
            want: 5,
            results: results.clone(),
        });
        let n = bytes.len();
        bytes[n - 7] ^= 0xFF; // inside the last payload
        let Err(DecodeError::BodyCrc {
            frame_type,
            body_prefix,
        }) = decode_frame(&bytes)
        else {
            panic!("expected BodyCrc");
        };
        assert_eq!(frame_type, TURN_TYPE);
        assert_eq!(body_prefix.len(), TURN_HEAD_LEN + 16 * results.len());
        let mut r = ByteReader::new(&body_prefix);
        let (client, seq, want, ids) = decode_turn_head(&mut r).unwrap();
        assert_eq!((client, seq, want), (4, 77, 5));
        let sent: Vec<_> = results.iter().map(|(p, u, _)| (*p, *u)).collect();
        let ids: Vec<_> = ids.collect();
        assert_eq!(ids, sent, "every unit the turn carried can be routed");
        r.finish().unwrap();

        // A count mangled along with the body claims no more than the
        // body holds, and then names nobody.
        let count_at = HEADER_LEN + TURN_HEAD_LEN - 4;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let Err(DecodeError::BodyCrc { body_prefix, .. }) = decode_frame(&bytes) else {
            panic!("expected BodyCrc");
        };
        assert_eq!(body_prefix.len(), n - HEADER_LEN - 4, "the body, no more");
        assert!(decode_turn_head(&mut ByteReader::new(&body_prefix)).is_err());
    }

    /// Frames whose CRCs are sound but whose element counts promise
    /// more than the body holds: rejected from the count alone, before
    /// anything is reserved for them.
    #[test]
    fn oversized_turn_counts_are_rejected_against_the_bytes_received() {
        let framed = |frame_type: u8, write: &dyn Fn(&mut ByteWriter)| {
            let mut out = Vec::new();
            frame_into(frame_type, &mut out, |body| write(body));
            out
        };
        let turn = framed(FT_TURN, &|b| {
            b.u64(4);
            b.u64(1);
            b.u32(1);
            b.u32(u32::MAX); // results
            b.u64(0);
        });
        let acks = framed(FT_TURN_REPLY, &|b| {
            b.u64(1);
            b.u8(0);
            b.u32(u32::MAX);
        });
        let units = framed(FT_TURN_REPLY, &|b| {
            b.u64(1);
            b.u8(0);
            b.u32(0);
            b.u32(1 << 30);
            b.u64(0);
        });
        let verdict = framed(FT_TURN_REPLY, &|b| {
            b.u64(1);
            b.u8(3);
            b.u32(0);
            b.u32(0);
        });
        for bytes in [turn, acks, units, verdict] {
            assert!(matches!(decode_frame(&bytes), Err(DecodeError::Body(_))));
        }
    }

    /// A run is checked by skipping its elements and parsed by whoever
    /// consumes it, once — and the skip reaches the verdict of a parse
    /// of every element, message for message, on whole bodies, on every
    /// truncation of them, with bytes left over, and with a length
    /// prefix that lies in either direction.
    #[test]
    fn a_run_is_validated_by_length_and_parsed_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static READS: AtomicUsize = AtomicUsize::new(0);
        fn counted<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], WireError> {
            READS.fetch_add(1, Ordering::SeqCst);
            r.bytes()
        }
        let mut w = ByteWriter::new();
        for payload in [&[1u8; 8][..], &[], &[2; 300]] {
            w.bytes(payload);
        }
        let body = w.into_bytes();
        let mut r = ByteReader::new(&body);
        let run = Run::of(&mut r, 3, (0, true), counted).unwrap();
        assert_eq!((READS.load(Ordering::SeqCst), r.remaining()), (0, 0));
        assert_eq!(run.map(<[u8]>::len).collect::<Vec<_>>(), [8, 0, 300]);
        assert_eq!(READS.load(Ordering::SeqCst), 3, "each element parsed once");

        // What `decode_ref` said of a body while it parsed every element.
        let by_parsing = |frame_type: u8, body: &[u8]| -> Result<(), WireError> {
            let mut r = ByteReader::new(body);
            if frame_type == FT_TURN {
                let (_, _, _, n) = (r.u64()?, r.u64()?, r.u32()?, r.count(16)?);
                for _ in 0..n {
                    let _ids = (r.u64()?, r.u64()?);
                }
                for _ in 0..n {
                    r.bytes()?;
                }
            } else {
                let _seq_and_verdict = (r.u64()?, r.u8()?); // (left alone below)
                for _ in 0..r.count(17)? {
                    read_ack(&mut r)?;
                }
                for _ in 0..r.count(28)? {
                    read_unit(&mut r)?;
                }
            }
            r.finish()
        };
        let turn = Frame::Turn {
            client: 4,
            seq: 9,
            want: 2,
            results: vec![(0, 1, vec![7; 8]), (0, 2, Vec::new()), (1, 3, vec![8; 40])],
        };
        let reply = Frame::TurnReply {
            seq: 9,
            acks: vec![(0, 1, true), (0, 2, false)],
            units: vec![(0, 5, 1.5, vec![3; 24]), (1, 6, 2.5, Vec::new())],
            then: Then::More,
        };
        let mut checked = 0;
        for frame in [turn, reply] {
            let clean = encode_frame(&frame);
            let body = &clean[HEADER_LEN..clean.len() - 4];
            let mut bodies: Vec<Vec<u8>> =
                (0..=body.len()).map(|cut| body[..cut].to_vec()).collect();
            bodies.extend((1..6).map(|extra| [body, &vec![0x5A; extra][..]].concat()));
            // Every aligned word past the head read as a length that is
            // one short, one long, and far too long.
            for at in (9..body.len() - 4).step_by(4) {
                let word = u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
                for lie in [word.wrapping_sub(1), word + 1, u32::MAX] {
                    let mut lying = body.to_vec();
                    lying[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                    bodies.push(lying);
                }
            }
            for body in bodies {
                let mut framed = Vec::new();
                frame_into(frame.type_code(), &mut framed, |w| raw(&body)(w).unwrap());
                let expected = by_parsing(frame.type_code(), &body).map_err(DecodeError::Body);
                let got = decode_ref(&framed).map(|(f, used)| {
                    assert_eq!(used, framed.len());
                    // (Iterating the runs must not trip on what the skip let through.)
                    f.into_owned();
                });
                assert_eq!(got, expected, "{frame:?} body {body:?}");
                checked += 1;
            }
        }
        assert!(checked > 300, "{checked} bodies");
    }

    #[test]
    fn replica_announce_rejects_malformed_addresses() {
        // A syntactically valid frame whose body is not a parseable
        // socket address must fail as a Body error, never panic or
        // yield a bogus endpoint.
        let mut body = ByteWriter::new();
        body.u32(1);
        body.str("not-an-address");
        let body = body.into_bytes();
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(VERSION);
        out.push(FT_REPLICA_ANNOUNCE);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        let crc = crc32(&out[..10]);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        match decode_frame(&out) {
            Err(DecodeError::Body(_)) => {}
            other => panic!("expected Body error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_any_body_read() {
        // Hand-build a header claiming a body far past MAX_BODY, with a
        // *valid* header CRC, so only the length check can reject it.
        let mut h = Vec::new();
        h.extend_from_slice(&MAGIC.to_le_bytes());
        h.push(VERSION);
        h.push(FT_WAIT);
        h.extend_from_slice(&(MAX_BODY + 1).to_le_bytes());
        let crc = crc32(&h);
        h.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_frame(&h),
            Err(DecodeError::Oversized(MAX_BODY + 1)),
            "must reject by length, not demand MAX_BODY bytes first"
        );
    }

    #[test]
    fn random_garbage_never_panics_or_decodes() {
        let mut rng = SplitMix64::new(0xB10D);
        for round in 0..500 {
            let len = (rng.next_u64() % 200) as usize;
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            if let Ok((frame, _)) = decode_frame(&garbage) {
                panic!("round {round}: garbage decoded as {frame:?}");
            }
        }
    }

    #[test]
    fn encode_into_appends_exactly_what_encode_frame_returns() {
        let mut appended = vec![0xEE; 3]; // pre-existing bytes must survive
        let mut expected = appended.clone();
        for frame in all_frames() {
            encode_frame_into(&frame, &mut appended);
            expected.extend_from_slice(&encode_frame(&frame));
        }
        assert_eq!(appended, expected);
    }

    /// The mixed frame stream the backlog tests push: every frame type,
    /// over and over, until `n` frames.
    fn backlog(n: usize) -> (Vec<Frame>, Vec<u8>) {
        let frames: Vec<Frame> = all_frames().into_iter().cycle().take(n).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut bytes);
        }
        (frames, bytes)
    }

    #[test]
    fn ten_thousand_frame_backlog_decodes_like_frame_at_a_time() {
        let (frames, bytes) = backlog(10_000);
        let mut bulk = FrameAssembler::new();
        bulk.push(&bytes);
        let mut single = FrameAssembler::new();
        let mut offset = 0;
        for (i, want) in frames.iter().enumerate() {
            assert_eq!(bulk.next_frame().unwrap().as_ref(), Some(want), "frame {i}");
            let len = encode_frame(want).len();
            single.push(&bytes[offset..offset + len]);
            offset += len;
            assert_eq!(
                single.next_frame().unwrap().as_ref(),
                Some(want),
                "frame {i}"
            );
            assert_eq!(single.buffered(), 0);
        }
        assert_eq!(bulk.next_frame(), Ok(None));
        assert_eq!(bulk.buffered(), 0, "every byte consumed");
        assert!(
            bulk.capacity() <= bytes.len(),
            "one push of the backlog holds the backlog, no more: {} > {}",
            bulk.capacity(),
            bytes.len()
        );
        // The drained storage is reused, not grown, by the next backlog.
        bulk.push(&bytes);
        assert_eq!(bulk.capacity(), bytes.len());
    }

    #[test]
    fn streaming_reclaims_consumed_bytes_so_capacity_stays_bounded() {
        // 10k frames trickled through in 1000-byte pushes that never
        // line up with frame boundaries: the cursor advances frame by
        // frame, compaction reclaims the consumed prefix, and storage
        // stays a small multiple of (push size + largest frame).
        let (frames, bytes) = backlog(10_000);
        let largest = frames.iter().map(|f| encode_frame(f).len()).max().unwrap();
        let mut asm = FrameAssembler::new();
        let mut decoded = 0;
        let mut high_water = 0;
        for piece in bytes.chunks(1000) {
            asm.push(piece);
            while let Some(frame) = asm.next_frame().unwrap() {
                assert_eq!(frame, frames[decoded]);
                decoded += 1;
            }
            assert!(asm.buffered() < largest, "only a partial frame stays");
            high_water = high_water.max(asm.capacity());
        }
        assert_eq!(decoded, frames.len());
        assert_eq!(asm.buffered(), 0);
        assert!(
            high_water <= 4 * (1000 + largest),
            "storage grew to {high_water} bytes over a {} byte stream",
            bytes.len()
        );
    }

    #[test]
    fn stream_reads_land_in_spare_room_that_grows_only_under_load() {
        // A reader fed one small frame per read never outgrows the
        // minimum step; one fed a long backlog works up to READ_STEP
        // reads and then stops growing.
        let ping = encode_frame(&Frame::HeartbeatAck);
        let mut quiet = FrameReader::new();
        for _ in 0..1000 {
            let mut one = std::io::Cursor::new(ping.clone());
            assert_eq!(quiet.poll(&mut one).unwrap(), Some(Frame::HeartbeatAck));
        }
        assert_eq!(quiet.asm.capacity(), MIN_READ_STEP);

        let (frames, bytes) = backlog(20_000);
        let total = bytes.len();
        let mut stream = std::io::Cursor::new(bytes);
        let mut busy = FrameReader::new();
        for want in &frames {
            assert_eq!(busy.poll(&mut stream).unwrap().as_ref(), Some(want));
        }
        assert!(total > 8 * READ_STEP, "the backlog must outlast the ramp");
        assert!(
            busy.asm.capacity() >= READ_STEP && busy.asm.capacity() <= 4 * READ_STEP,
            "busy reader holds {} bytes",
            busy.asm.capacity()
        );
    }

    #[test]
    fn frame_reader_resyncs_past_a_corrupt_body() {
        // A corrupt frame followed by a clean one: the reader reports
        // the corruption, then yields the clean frame from the same
        // stream.
        let mut corrupt = encode_frame(&Frame::SubmitResult {
            client: 1,
            problem: 0,
            unit: 5,
            payload: vec![9; 32],
        });
        let n = corrupt.len();
        corrupt[n - 1] ^= 0x55; // break the body CRC
        let clean = encode_frame(&Frame::Heartbeat { client: 1 });
        let mut stream: Vec<u8> = corrupt;
        stream.extend_from_slice(&clean);
        let mut cursor = std::io::Cursor::new(stream);
        let mut reader = FrameReader::new();
        match reader.poll(&mut cursor) {
            Err(ReadError::Decode(DecodeError::BodyCrc { frame_type, .. })) => {
                assert_eq!(frame_type, SUBMIT_RESULT_TYPE)
            }
            other => panic!("expected BodyCrc, got {other:?}"),
        }
        match reader.poll(&mut cursor) {
            Ok(Some(Frame::Heartbeat { client: 1 })) => {}
            other => panic!("expected the clean heartbeat, got {other:?}"),
        }
    }
}
