//! Crash-recoverable server durability: the append-only checkpoint log.
//!
//! The Java system's server was a single point of failure; volunteer
//! platforms like Folding@Home treat server restarts as routine
//! (PAPERS.md). This module is the log format that gives the TCP backend
//! the same property: the server's one journal handle — a
//! [`CheckpointWriter`] installed with [`crate::Server::set_journal`] —
//! records, inside the server's own critical section, every event a
//! fresh [`crate::DataManager`] needs to reach the crashed one's state —
//!
//! * `Issue` records: which unit the manager produced, and the
//!   granularity hint that produced it (managers are deterministic
//!   functions of the interleaved hint/result sequence);
//! * `Result` records: the codec-encoded result folded for a unit,
//!   written **before** the fold (write-ahead).
//!
//! No donor's speed estimate is logged: a recovered server learns each
//! donor's speed from its first completion, as it does a new donor's.
//!
//! Log framing: `[body_len: u32][record_type: u8][body][crc32(type ‖
//! body): u32]`, little-endian; a donor turn's unit records are one
//! `Turn` record (type 8) whose body is each one's `[record_type][body]`
//! in order. Retired types are never reused: an older log's per-part
//! snapshots (3–5), replica topology (7) and donor snapshots (9) are
//! skipped whole, and a quorum vote (6) is refused as any unknown type
//! is. Unit records reach the
//! file a *group* at a time — one `write` per
//! [`CheckpointWriter::commit`], which the TCP server issues once per
//! pump, before that pump's replies leave (see [`CheckpointWriter`]). The reader stops at the first record that is
//! truncated, fails its CRC or is a malformed turn — a *torn tail* from
//! a crash mid-write, anywhere in the group being written — and recovery
//! proceeds from what survived: any unit whose result record was lost
//! is simply recomputed. [`crate::server::recovery`] replays the
//! surviving records against freshly-built problems and returns a
//! server that resumes without recombining any completed unit (the
//! exactly-once property the chaos suite's `audited()` checker
//! verifies).

use super::wire::{MAX_BODY, MAX_PIPELINE_DEPTH};
use crate::codec::{ByteReader, ByteWriter};
use crate::problem::{UnitId, WorkUnit};
use crate::server::{ProblemId, RunJournal};
use crate::telemetry::SIZE_BOUNDS;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

const REC_ISSUE: u8 = 1;
const REC_RESULT: u8 = 2;
const REC_TURN: u8 = 8;

/// Largest record body the reader will accept; larger means the length
/// field itself is torn garbage.
const MAX_RECORD: u32 = 256 * 1024 * 1024;

// A `Turn` record fits: a `Turn` frame's results (≥ 20 bytes each on the
// wire, 1 more as a result record) and a 25-byte issue a unit leased.
const _: () = assert!(MAX_BODY / 20 * 21 + 25 * MAX_PIPELINE_DEPTH as u32 <= MAX_RECORD);

/// One decoded checkpoint record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A data manager issued `unit` in response to `hint_ops`.
    Issue {
        /// Problem the unit belongs to.
        problem: ProblemId,
        /// The issued unit id.
        unit: UnitId,
        /// Granularity hint that produced the unit.
        hint_ops: f64,
    },
    /// A result was accepted for folding.
    Result {
        /// Problem the unit belongs to.
        problem: ProblemId,
        /// The completed unit.
        unit: UnitId,
        /// Codec-encoded result payload.
        payload: Vec<u8>,
    },
}

/// An open group is written out once it holds this many bytes, whatever
/// the caller's commit cadence: it bounds the writer's memory when a
/// journal is driven without commits (the in-process backends) and is
/// far above what one pump of unit records amounts to.
const GROUP_BYTES: usize = 64 * 1024;

/// Appends `rtype` and what `body` writes to `buf`.
fn write_body(buf: &mut Vec<u8>, rtype: u8, body: impl FnOnce(&mut ByteWriter)) {
    buf.push(rtype);
    let mut w = ByteWriter::appending(std::mem::take(buf));
    body(&mut w);
    *buf = w.into_bytes();
}

/// Patches the length of the record at `buf[start..]`, appends its CRC;
/// returns its size.
fn seal_record(buf: &mut Vec<u8>, start: usize) -> usize {
    let body_len = buf.len() - start - 5;
    buf[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    let crc = super::wire::crc32(&buf[start + 4..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    body_len + 9
}

/// The log file and its open group: records framed but not yet written.
#[derive(Debug)]
struct Log {
    file: File,
    /// The framed records of the open group, in log order — reused, so
    /// appends allocate nothing.
    group: Vec<u8>,
    /// Records in `group`.
    records: u64,
}

impl Log {
    fn new(file: File) -> Arc<Mutex<Self>> {
        Arc::new(Mutex::new(Self {
            file,
            group: Vec::new(),
            records: 0,
        }))
    }

    /// Writes the open group in one `write`. `None`: nothing was open;
    /// otherwise the records it held and whether the write succeeded.
    ///
    /// What this makes durable: the bytes are in the kernel's page
    /// cache, so they survive the death of this *process* — the crash
    /// `NetServer::kill` models and recovery is tested against. They do
    /// not survive power loss or a kernel crash until the OS writes
    /// them back: nothing here calls `sync_data` (a `File` has no
    /// user-space buffer, so there is nothing to `flush` either).
    fn write_group(&mut self) -> Option<(u64, bool)> {
        if self.group.is_empty() {
            return None;
        }
        let wrote = self.file.write_all(&self.group).is_ok();
        self.group.clear();
        Some((std::mem::take(&mut self.records), wrote))
    }
}

impl Drop for Log {
    /// The last writer going away ends the group: a journal driven
    /// without commits still reaches the file.
    fn drop(&mut self) {
        self.write_group();
    }
}

/// Append-only, cloneable checkpoint writer; install it as the server's
/// [`RunJournal`], the one handle every record goes through. Clones
/// share one log and one open group.
///
/// Records (`Issue` / `Result`) are **group-committed**:
/// each is CRC-framed into the open group as it is reported, and the
/// group reaches the file in one `write` at [`CheckpointWriter::commit`],
/// when it passes 64 KiB, and when the last clone is dropped. The TCP
/// server commits once per pump, *before* that pump's replies are flushed, so the
/// write-ahead property recovery rests on holds per pump: no donor
/// can read a `TurnReply` (`AssignUnit`, `ResultAck`) whose records are not in
/// the file. A crash loses the open group — records nobody was told
/// about — and [`CheckpointWriter::discard`] is that crash for
/// `NetServer::kill`. A reader of the log while a writer lives must
/// commit first. The handle installed as the journal writes the unit
/// records of one donor turn ([`RunJournal::begin_turn`]) as one `Turn`
/// record in a buffer of its own, framed and joined to the group when
/// the turn ends: one CRC and one log lock a turn, and [`read_log`]
/// reads the records back in report order.
///
/// Write failures are counted (`ckpt.write_errors`), not propagated: a
/// full disk degrades durability — lost records mean recomputed units
/// — but never takes down the run.
#[derive(Debug, Clone)]
pub struct CheckpointWriter {
    log: Arc<Mutex<Log>>,
    telemetry: crate::telemetry::Telemetry,
    /// Between [`RunJournal::begin_turn`] and `end_turn`, this handle's
    /// `Turn` record is written here, its unit records counted — empty
    /// outside a turn, so a clone starts with none.
    turn: Vec<u8>,
    turn_records: u64,
}

impl CheckpointWriter {
    /// Creates (truncating) a fresh log at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::over(File::create(path)?))
    }

    fn over(file: File) -> Self {
        Self {
            log: Log::new(file),
            telemetry: crate::telemetry::Telemetry::disabled(),
            turn: Vec::new(),
            turn_records: 0,
        }
    }

    /// Opens an existing log for appending (a recovered server keeps
    /// journaling to the same file; the replayed prefix stays valid).
    pub fn append(path: &Path) -> std::io::Result<Self> {
        Ok(Self::over(OpenOptions::new().append(true).open(path)?))
    }

    /// Attaches a telemetry handle: every appended record (a turn's
    /// each) becomes a `checkpoint_write` trace event (kind `issue` or
    /// `result`) plus `ckpt.records` and `ckpt.bytes`
    /// counter bumps, and every group written counts in `ckpt.commits`,
    /// its size in `ckpt.group_records`, its `write`'s time in
    /// `ckpt.commit_us` and a failed write in `ckpt.write_errors`.
    pub fn with_telemetry(mut self, telemetry: crate::telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Writes the open group to the file (one `write`); a no-op when
    /// nothing is open.
    pub fn commit(&self) {
        let mut log = self.log.lock().expect("checkpoint lock");
        self.write_group(&mut log);
    }

    /// Drops the open group unwritten: what a crash of the journaling
    /// process would have lost.
    pub fn discard(&self) {
        let mut log = self.log.lock().expect("checkpoint lock");
        log.group.clear();
        log.records = 0;
    }

    fn write_group(&self, log: &mut Log) {
        let started = self.telemetry.is_enabled().then(std::time::Instant::now);
        let Some((records, wrote)) = log.write_group() else {
            return;
        };
        if let Some(started) = started {
            let (tel, commit_us) = (&self.telemetry, started.elapsed().as_secs_f64() * 1e6);
            tel.observe("ckpt.commit_us", &[1.0, 10.0, 100.0, 1e3, 1e4], commit_us);
            tel.counter_add("ckpt.commits", 1);
            tel.observe("ckpt.group_records", SIZE_BOUNDS, records as f64);
            if !wrote {
                tel.counter_add("ckpt.write_errors", 1);
            }
        }
    }

    /// Frames one record into the open group: `body` writes its fields
    /// in place, behind a length that is patched afterwards.
    fn write_record(&self, rtype: u8, body: impl FnOnce(&mut ByteWriter)) {
        let mut log = self.log.lock().expect("checkpoint lock");
        log.records += 1;
        let start = log.group.len();
        log.group.extend_from_slice(&[0; 4]);
        write_body(&mut log.group, rtype, body);
        let framed = seal_record(&mut log.group, start);
        self.trace_record(rtype, framed);
        // A crash can tear at most the group being written, at any
        // byte; the reader's CRC check keeps the records wholly before
        // the tear and drops the rest.
        if log.group.len() >= GROUP_BYTES {
            self.write_group(&mut log);
        }
    }

    /// [`Self::write_record`] for a unit record: inside a turn it is
    /// a sub-record of the handle's own `Turn` record, with no lock
    /// taken — [`RunJournal::end_turn`] frames that and moves it into
    /// the group under one.
    fn unit_record(&mut self, rtype: u8, body: impl FnOnce(&mut ByteWriter)) {
        if self.turn.is_empty() {
            return self.write_record(rtype, body);
        }
        self.turn_records += 1;
        let start = self.turn.len();
        write_body(&mut self.turn, rtype, body);
        self.trace_record(rtype, self.turn.len() - start);
    }

    fn trace_record(&self, rtype: u8, framed: usize) {
        if self.telemetry.is_enabled() {
            let kind = if rtype == REC_ISSUE {
                "issue"
            } else {
                "result"
            };
            self.telemetry
                .emit(crate::telemetry::EventKind::CheckpointWrite {
                    kind: kind.to_string(),
                });
            self.telemetry.counter_add("ckpt.records", 1);
            self.telemetry.counter_add("ckpt.bytes", framed as u64);
        }
    }
}

impl RunJournal for CheckpointWriter {
    fn unit_issued(&mut self, problem: ProblemId, unit: &WorkUnit, hint_ops: f64) {
        self.unit_record(REC_ISSUE, |w| {
            w.usize(problem);
            w.u64(unit.id);
            w.f64(hint_ops);
        });
    }

    fn result_folded(&mut self, problem: ProblemId, unit: UnitId, encoded: &[u8]) {
        self.unit_record(REC_RESULT, |w| {
            w.usize(problem);
            w.u64(unit);
            w.bytes(encoded);
        });
    }

    fn begin_turn(&mut self) {
        self.turn.extend_from_slice(&[0, 0, 0, 0, REC_TURN]);
    }

    /// A turn that journaled nothing writes nothing; any other becomes
    /// one record (its records counted their bytes; this counts its 9).
    fn end_turn(&mut self) {
        if self.turn_records == 0 {
            self.turn.clear();
            return;
        }
        seal_record(&mut self.turn, 0);
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("ckpt.bytes", 9);
        }
        let mut log = self.log.lock().expect("checkpoint lock");
        log.group.append(&mut self.turn);
        log.records += std::mem::take(&mut self.turn_records);
        if log.group.len() >= GROUP_BYTES {
            self.write_group(&mut log);
        }
    }

    fn commit(&mut self) {
        CheckpointWriter::commit(self);
    }

    fn discard(&mut self) {
        CheckpointWriter::discard(self);
    }
}

/// Reads every intact record from a checkpoint log, a turn's as the
/// unit records it holds. The second return is `true` when a torn tail
/// (truncated, CRC-failed or malformed trailing bytes) was dropped.
pub fn read_log(path: &Path) -> std::io::Result<(Vec<LogRecord>, bool)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(parse_log(&bytes))
}

fn parse_log(bytes: &[u8]) -> (Vec<LogRecord>, bool) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(next) = parse_record(&bytes[pos..], &mut records) else {
            return (records, true); // torn tail: keep the prefix
        };
        pos += next;
    }
    (records, false)
}

/// Parses `buf`'s first record onto `out`: its size, or `None` if torn.
fn parse_record(buf: &[u8], out: &mut Vec<LogRecord>) -> Option<usize> {
    if buf.len() < 5 {
        return None;
    }
    let body_len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if body_len > MAX_RECORD {
        return None;
    }
    let total = 4 + 1 + body_len as usize + 4;
    if buf.len() < total {
        return None;
    }
    let rtype = buf[4];
    let body = &buf[5..5 + body_len as usize];
    let declared = u32::from_le_bytes(buf[total - 4..total].try_into().expect("4 bytes"));
    // The checksum covers `type ‖ body`, contiguous in the buffer.
    if super::wire::crc32(&buf[4..total - 4]) != declared {
        return None;
    }
    let mut r = ByteReader::new(body);
    let before = out.len();
    let parsed = match rtype {
        REC_TURN => parse_turn(&mut r, out),
        // An older log's donor snapshots (per part, then whole) and its
        // replica topology, which nothing replays: skipped.
        3..=5 | 7 | 9 => return Some(total),
        _ => parse_body(rtype, &mut r).map(|record| out.push(record)),
    };
    if parsed.and_then(|()| r.finish().ok()).is_none() {
        out.truncate(before);
        return None;
    }
    Some(total)
}

/// A `Turn` record's body: unit records, nothing else, to its last byte.
fn parse_turn(r: &mut ByteReader, out: &mut Vec<LogRecord>) -> Option<()> {
    while r.remaining() > 0 {
        let unit_record = |t: &u8| matches!(*t, REC_ISSUE | REC_RESULT);
        out.push(parse_body(r.u8().ok().filter(unit_record)?, r)?);
    }
    Some(())
}

/// The record of type `rtype` whose body `r` is at.
fn parse_body(rtype: u8, r: &mut ByteReader) -> Option<LogRecord> {
    Some(match rtype {
        REC_ISSUE => LogRecord::Issue {
            problem: r.usize().ok()?,
            unit: r.u64().ok()?,
            hint_ops: r.f64().ok()?,
        },
        REC_RESULT => LogRecord::Result {
            problem: r.usize().ok()?,
            unit: r.u64().ok()?,
            payload: r.bytes().ok()?.to_vec(),
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::integration_problem;
    use crate::server::recovery::tests::{drive, fixed_cfg, sequential_pi, temp_log};
    use crate::server::{recover, Assignment, Server};
    use std::sync::Arc;

    /// The installed handle frames a turn's records without the log
    /// lock and joins them to the group under one acquisition: a turn
    /// of eight results and eight leases runs to its last record while
    /// this test *holds* the lock, and blocks only at its end. The log
    /// reads back record for record as the one the same turns write
    /// through a journal that never hears of turns (a record, a lock),
    /// results in frame order ahead of the issues — in two `Turn`
    /// records, 650 bytes to the singles' 824.
    #[test]
    fn a_turns_records_take_the_log_lock_once_and_read_back_in_order() {
        const K: usize = 8;
        struct Watched {
            inner: CheckpointWriter,
            turns: bool,
            framed: std::sync::mpsc::Sender<u64>,
        }
        impl RunJournal for Watched {
            fn unit_issued(&mut self, problem: ProblemId, unit: &WorkUnit, hint: f64) {
                self.inner.unit_issued(problem, unit, hint);
            }
            fn result_folded(&mut self, problem: ProblemId, unit: UnitId, encoded: &[u8]) {
                self.inner.result_folded(problem, unit, encoded);
            }
            fn begin_turn(&mut self) {
                if self.turns {
                    self.inner.begin_turn();
                }
            }
            fn end_turn(&mut self) {
                let _ = self.framed.send(self.inner.turn_records);
                self.inner.end_turn();
            }
        }
        let run = |tag: &str, turns: bool| {
            let path = temp_log(tag);
            let observer = CheckpointWriter::create(&path).unwrap();
            let (framed, framed_rx) = std::sync::mpsc::channel();
            let mut server = Server::new(fixed_cfg());
            let pid = server.submit(integration_problem(1_000_000));
            server.set_journal(Box::new(Watched {
                inner: observer.clone(),
                turns,
                framed,
            }));
            let held = server.turn_wire(0, 0.0, std::iter::empty(), K).units;
            assert_eq!(
                (held.len(), framed_rx.recv().unwrap()),
                (K, K as u64 * u64::from(turns))
            );
            let (algorithm, codec) = (server.algorithm(pid), server.codec(pid).unwrap());
            let encode = |unit| {
                codec
                    .encode_result(&algorithm.compute(unit).payload)
                    .unwrap()
            };
            let bytes: Vec<_> = held.iter().map(|(_, unit)| encode(unit)).collect();
            let results = held.iter().zip(&bytes);
            let results =
                results.map(|((problem, unit), bytes)| (*problem, unit.id, Some(&bytes[..])));
            if turns {
                let log = observer.log.lock().unwrap();
                std::thread::scope(|s| {
                    let turn = s.spawn(|| server.turn_wire(0, 1.0, results, K));
                    let timeout = std::time::Duration::from_secs(20);
                    let framed = framed_rx.recv_timeout(timeout);
                    assert_eq!(framed, Ok(2 * K as u64), "a record waited for the log lock");
                    assert!(!turn.is_finished(), "the turn's end takes the lock");
                    drop(log);
                    assert_eq!(turn.join().unwrap().accepted, [true; K]);
                });
            } else {
                assert_eq!(server.turn_wire(0, 1.0, results, K).accepted, [true; K]);
            }
            observer.commit();
            let ids = |issue: bool| held.iter().map(move |(_, unit)| (issue, unit.id));
            let (records, torn) = read_log(&path).unwrap();
            let order = records.iter().map(|r| match r {
                LogRecord::Issue { unit, .. } => (true, *unit),
                LogRecord::Result { unit, .. } => (false, *unit),
            });
            let order: Vec<_> = order.collect();
            assert!(!torn);
            assert_eq!(
                order[..2 * K],
                ids(true).chain(ids(false)).collect::<Vec<_>>()
            );
            assert!(order[2 * K..].iter().all(|&(issue, _)| issue));
            let bytes = std::fs::metadata(&path).unwrap().len() as usize;
            let _ = std::fs::remove_file(&path);
            (records, bytes)
        };
        let (by_turn, by_record) = (run("lock-turns", true), run("lock-records", false));
        assert_eq!(
            (by_turn.1, by_record.1),
            (2 * 9 + K * (2 * 25 + 29), K * (2 * 33 + 37)),
            "2K issues of 25 bytes and K results of 29 in two turns of 9, or of 33 and 37"
        );
        assert_eq!(by_turn.0, by_record.0);
    }

    /// An older log's retired records — per-part donor snapshots (3–5),
    /// replica topology (7) and whole donor snapshots (9), one with a
    /// retired reputation part — are skipped whole wherever they sit:
    /// every unit record around them reads back and the log is not torn.
    #[test]
    fn an_older_logs_retired_records_are_skipped_whole() {
        let framed = |rtype: u8, body: &dyn Fn(&mut ByteWriter)| {
            let mut record = vec![0; 4];
            write_body(&mut record, rtype, body);
            seal_record(&mut record, 0);
            record
        };
        let issue = |unit: u64| {
            framed(REC_ISSUE, &|w| {
                w.usize(0);
                w.u64(unit);
                w.f64(1.25e6);
            })
        };
        // A donor snapshot: a row count, then each row's client, part
        // mask (1: speed and units; 2: agreements, disputes, trusted)
        // and parts.
        let snapshot = |parts: u8| {
            framed(9, &move |w| {
                w.u32(1);
                w.u64(0);
                w.u8(parts);
                w.f64(1.5e7);
                w.u64(12);
                if parts & 2 != 0 {
                    w.u64(5);
                    w.u64(0);
                    w.u8(1);
                }
            })
        };
        let retired = [
            framed(3, &|w| w.u64(1)),
            framed(4, &|w| w.u64(1)),
            framed(5, &|w| w.u64(1)),
            framed(7, &|w| {
                w.u32(1);
                w.str("127.0.0.1:9001");
            }),
            snapshot(1),
            snapshot(1 | 2),
        ];
        // Each retired record ahead of an issue, and the last one again
        // at the end of the log.
        let mut log = Vec::new();
        for (unit, old) in retired.iter().enumerate() {
            log.extend_from_slice(old);
            log.extend_from_slice(&issue(unit as u64));
        }
        log.extend_from_slice(&retired[retired.len() - 1]);
        let issues = (0..retired.len() as u64).map(|unit| LogRecord::Issue {
            problem: 0,
            unit,
            hint_ops: 1.25e6,
        });
        assert_eq!(parse_log(&log), (issues.collect(), false));
        assert_eq!(parse_log(&retired.concat()), (vec![], false));
    }

    /// A crash while a group is being written can leave any prefix of
    /// it in the file. Whatever the byte it tears at, the reader keeps
    /// exactly the records wholly before the tear — of a group that
    /// mixes issue and result records, written one at a time or as the
    /// `Turn` records of donor turns — and the recovered run finishes
    /// with every unit folded exactly once.
    #[test]
    fn a_group_torn_at_any_byte_recovers_exactly_the_records_before_the_tear() {
        let n = 50_000;
        let reference = sequential_pi(n);
        for by_turns in [false, true] {
            let path = temp_log("torn-group");
            let writer = CheckpointWriter::create(&path).unwrap();
            let mut server = Server::new(fixed_cfg());
            server.submit(integration_problem(n));
            server.set_journal(Box::new(writer.clone()));
            let (algorithm, codec) = (server.algorithm(0), server.codec(0).unwrap());
            let mut now = 0.0;
            let mut held: [Vec<Arc<WorkUnit>>; 2] = Default::default();
            // One exchange — `client` asks, computes and hands the
            // result in — or one turn: `client` hands in what it holds
            // and asks for `want` more.
            let mut step = |server: &mut Server, client: usize, want: usize| {
                if !by_turns {
                    let Assignment::Unit { problem, unit, .. } = server.request_work(client, now)
                    else {
                        panic!("work must be available")
                    };
                    now += 1.0;
                    assert!(server.submit_result(client, problem, algorithm.compute(&unit), now));
                    return;
                }
                now += 1.0;
                let results = held[client].drain(..).map(|unit| {
                    let bytes = codec.encode_result(&algorithm.compute(&unit).payload);
                    (unit.id, bytes.unwrap())
                });
                let results: Vec<_> = results.collect();
                let results = results
                    .iter()
                    .map(|(unit, bytes)| (0, *unit, Some(&bytes[..])));
                let out = server.turn_wire(client, now, results, want);
                assert!(out.accepted.iter().all(|&a| a));
                held[client].extend(out.units.into_iter().map(|(_, unit)| unit));
            };
            // An earlier group, whole in the file, then the group the
            // crash tears, which leaves a unit leased and unfolded in the
            // turns.
            let (earlier, group) = if by_turns {
                let group = vec![(0, 2), (1, 2), (0, 1), (1, 1), (0, 0)];
                (vec![(0, 1), (1, 1), (0, 0), (1, 0)], group)
            } else {
                let group = [0, 1, 0, 1, 0].map(|client| (client, 0));
                (vec![(0, 0), (1, 0)], group.to_vec())
            };
            for &(client, want) in &earlier {
                step(&mut server, client, want);
            }
            writer.commit();
            let group_start = std::fs::metadata(&path).unwrap().len() as usize;
            for &(client, want) in &group {
                step(&mut server, client, want);
            }
            writer.commit();
            drop(server);
            let bytes = std::fs::read(&path).unwrap();
            let (records, torn) = read_log(&path).unwrap();
            assert!(!torn);
            // Where each record of the file ends, and the records read
            // back up to there.
            let (mut ends, mut parsed, mut pos) = (Vec::new(), Vec::new(), 0);
            while pos < bytes.len() {
                pos += parse_record(&bytes[pos..], &mut parsed).expect("whole log parses");
                ends.push((pos, parsed.len()));
            }
            assert_eq!(parsed, records);
            let read_by = |cut: usize| {
                let whole = ends.iter().take_while(|&&(end, _)| end <= cut);
                whole.last().map_or(0, |&(_, read)| read)
            };
            let group = &records[read_by(group_start)..];
            assert!(
                group.iter().any(|r| matches!(r, LogRecord::Issue { .. }))
                    && group.iter().any(|r| matches!(r, LogRecord::Result { .. })),
                "the torn group mixes both unit records: {group:?}"
            );
            let turns = ends.windows(2).filter(|w| w[1].1 - w[0].1 > 1).count();
            assert_eq!(turns > 2, by_turns);

            for cut in group_start..=bytes.len() {
                std::fs::write(&path, &bytes[..cut]).unwrap();
                let (survived, torn) = read_log(&path).unwrap();
                assert_eq!(survived, records[..read_by(cut)], "cut at byte {cut}");
                let at_an_end = ends.iter().any(|&(end, _)| end == cut);
                assert_eq!(torn, !at_an_end, "cut at byte {cut}");

                let (problem, audit) = crate::audit::audited(integration_problem(n));
                let (mut recovered, report) = recover(fixed_cfg(), vec![problem], &path).unwrap();
                assert_eq!(report.torn_tail, torn, "cut at byte {cut}");
                drive(&mut recovered);
                audit
                    .verify_run(&recovered)
                    .unwrap_or_else(|v| panic!("cut at byte {cut}: {v:?}"));
                let pi = recovered.take_output(0).unwrap().into_inner::<f64>();
                assert_eq!(pi.to_bits(), reference.to_bits(), "cut at byte {cut}");
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A turn of one result and two issues, as the writer frames it.
    fn golden_turn() -> Vec<u8> {
        let path = temp_log("golden-turn");
        let mut writer = CheckpointWriter::create(&path).unwrap();
        writer.begin_turn();
        writer.result_folded(0, 1, &std::f64::consts::PI.to_le_bytes());
        for id in [2, 3] {
            let payload = crate::problem::Payload::new((), 0);
            let unit = WorkUnit {
                id,
                payload,
                cost_ops: 1e4,
            };
            writer.unit_issued(0, &unit, 1.25e6);
        }
        writer.end_turn();
        writer.commit();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    }

    /// The `Turn` record is a log format — a recovered server reads logs
    /// an older one wrote — so its bytes are pinned (captured when it
    /// was introduced, in PR 26), and they read back as the three
    /// records that went in.
    #[test]
    fn golden_turn_record_bytes_have_not_moved() {
        // `[79][8]`, then `[2][problem 0][unit 1][8][π]` and twice
        // `[1][problem 0][unit 2, 3][1.25e6]`, then the CRC (zlib's).
        const GOLDEN: &str = "4f00000008\
            020000000000000000010000000000000008000000\
            182d4454fb210940\
            010000000000000000020000000000000000000000d0123341\
            010000000000000000030000000000000000000000d0123341\
            65720556";
        let bytes = golden_turn();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        let issue = |unit| LogRecord::Issue {
            problem: 0,
            unit,
            hint_ops: 1.25e6,
        };
        let result = LogRecord::Result {
            problem: 0,
            unit: 1,
            payload: std::f64::consts::PI.to_le_bytes().to_vec(),
        };
        assert_eq!(parse_log(&bytes), (vec![result, issue(2), issue(3)], false));
    }

    /// A `Turn` record that is whole and checksummed but holds what a
    /// turn cannot — an unknown or non-unit sub-record, a nested turn, a
    /// truncated or over-long tail, a result whose length lies — is torn
    /// as a whole: the records before it are kept, none of its own are,
    /// and nothing panics. So is every single-byte change to a valid one.
    #[test]
    fn a_malformed_turn_record_is_dropped_whole() {
        let turn = golden_turn();
        let body = &turn[5..turn.len() - 4];
        let mut prefix = vec![0; 4];
        write_body(&mut prefix, REC_ISSUE, |w| {
            w.usize(0);
            w.u64(0);
            w.f64(1.25e6);
        });
        seal_record(&mut prefix, 0);
        let issue = LogRecord::Issue {
            problem: 0,
            unit: 0,
            hint_ops: 1.25e6,
        };
        let kept = vec![issue];
        // `prefix`, then a `Turn` record around `body`, checksummed.
        let log_of = |body: &[u8]| {
            let mut log = prefix.clone();
            let start = log.len();
            log.extend_from_slice(&[0; 4]);
            log.push(REC_TURN);
            log.extend_from_slice(body);
            seal_record(&mut log, start);
            log
        };
        assert_eq!(log_of(body)[prefix.len()..], turn[..]);
        // The result's sub-record is first, its payload length at 17.
        let (result_len, first_issue) = (1 + 16, 1 + 20 + 8);
        let with = |at: usize, b: u8| {
            let mut body = body.to_vec();
            body[at] = b;
            body
        };
        let nested = [&[REC_TURN][..], body].concat();
        // The retired donor snapshot (9): one row, client 0, its speed
        // and units.
        let mut snapshot = Vec::new();
        write_body(&mut snapshot, 9, |w| {
            w.u32(1);
            w.u64(0);
            w.u8(1);
            w.f64(1.5e7);
            w.u64(12);
        });
        let malformed: [(&str, Vec<u8>); 9] = [
            ("an unknown sub-type", with(first_issue, 9)),
            ("a retired vote sub-type (6)", with(first_issue, 6)),
            ("a zero sub-type", with(0, 0)),
            ("a nested turn", [body, &nested].concat()),
            ("a snapshot sub-record", [body, &snapshot].concat()),
            (
                "a truncated last sub-record",
                body[..body.len() - 1].to_vec(),
            ),
            ("a trailing byte", [body, &[REC_ISSUE]].concat()),
            ("a result length one too long", with(result_len, 9)),
            ("a result length one too short", with(result_len, 7)),
        ];
        for (what, bad) in malformed {
            assert_eq!(parse_log(&log_of(&bad)), (kept.clone(), true), "{what}");
        }
        let clean = log_of(body);
        for at in prefix.len()..clean.len() {
            for flip in 1..=255u8 {
                let mut bad = clean.clone();
                bad[at] ^= flip;
                let (records, torn) = parse_log(&bad);
                assert_eq!((&records, torn), (&kept, true), "byte {at} ^ {flip:#04x}");
            }
        }
    }
}
