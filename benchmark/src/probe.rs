//! Source (c) of the per-layer metrics: a bench-owned probe donor
//! speaking `encode_frame` / `FrameReader` to a live `NetServer` (and
//! `ReplicaServer`), one connection, nothing else loading the server —
//! so every round trip is the unloaded cost of the `net` layer. The
//! loop in `crates/bench/src/bin/abl_scale.rs` is the model.

use crate::inproc::{compute_layer, unit_key};
use crate::spans::{span, Rec, NO_UNIT};
use crate::workloads::{Inputs, Spec};
use biodist_core::net::wire::{encode_frame, Frame, FrameReader};
use biodist_core::net::{Clock, Directory, NetServer, NetServerOptions};
use biodist_core::{ReplicaServer, Server, Telemetry, WorkUnit};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// CLK_TCK: `evloop.cpu_ticks` counts 10 ms ticks.
const MS_PER_TICK: f64 = 10.0;
/// Frames kept (both directions) for the wire-layer drivers.
const FRAME_SAMPLE: usize = 4096;
/// Chunks fetched twice through the replica (sync, then synced).
const REPLICA_CHUNKS: usize = 200;

#[derive(Default)]
pub struct ProbeReport {
    pub connect_hello_us: f64,
    pub request_rtt_us: Vec<f64>,
    pub submit_rtt_us: Vec<f64>,
    pub chunk_rtt_us: Vec<f64>,
    pub heartbeat_rtt_us: Vec<f64>,
    pub units: u64,
    /// Frames and wire bytes in both directions over the whole probe.
    pub frames: u64,
    pub bytes: u64,
    /// The first frames the probe sent and received: the workload's
    /// actual frame mix.
    pub frame_sample: Vec<Frame>,
    pub frames_in: u64,
    pub chunk_bytes_out: u64,
    pub server_cpu_ms_per_kframe: f64,
    /// Replica tier (workloads with replicas only): first fetch of a
    /// chunk (pull-through sync) and second fetch (already synced).
    pub replica_sync_rtt_us: Vec<f64>,
    pub replica_chunk_rtt_us: Vec<f64>,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        stream.set_nodelay(true).expect("set nodelay");
        // A blocked read must end if the server dies; a healthy reply
        // arrives in microseconds.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set read timeout");
        Conn {
            stream,
            reader: FrameReader::new(),
        }
    }

    /// Sends `frame` and blocks for the first reply `accept` claims;
    /// returns it with the round-trip time in µs.
    fn round_trip(
        &mut self,
        report: &mut ProbeReport,
        frame: Frame,
        accept: impl Fn(&Frame) -> bool,
    ) -> (Frame, f64) {
        let t = Instant::now();
        self.send(report, frame);
        loop {
            match self.reader.poll(&mut self.stream) {
                Ok(Some(reply)) => {
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    // The reader hides the wire length: re-encode.
                    report.note(&reply, encode_frame(&reply).len());
                    if accept(&reply) {
                        return (reply, us);
                    }
                }
                Ok(None) => panic!("probe: server did not answer within 5 s"),
                Err(e) => panic!("probe: connection failed: {e:?}"),
            }
        }
    }

    fn send(&mut self, report: &mut ProbeReport, frame: Frame) {
        let bytes = encode_frame(&frame);
        self.stream
            .write_all(&bytes)
            .expect("write to loopback server");
        report.note(&frame, bytes.len());
    }
}

impl ProbeReport {
    fn note(&mut self, frame: &Frame, wire_bytes: usize) {
        self.frames += 1;
        self.bytes += wire_bytes as u64;
        if self.frame_sample.len() < FRAME_SAMPLE {
            self.frame_sample.push(frame.clone());
        }
    }
}

/// Runs the probe donor against a fresh server over `inputs` for at
/// most `budget`, each step `request -> fetch[chunk] -> decode ->
/// compute -> encode -> submit` inside a span.
pub fn run_probe(spec: &Spec, inputs: &Inputs, rec: &Rec, budget: Duration) -> ProbeReport {
    const CLIENT: u64 = 0;
    let mut report = ProbeReport::default();
    let telemetry = Telemetry::enabled();
    let mut server = Server::new(spec.sched());
    server.set_telemetry(telemetry.clone());
    for p in inputs.problems() {
        server.submit(p);
    }
    let kit: Vec<_> = (0..server.problem_count())
        .map(|pid| {
            (
                server.algorithm(pid),
                server.codec(pid).expect("wire codec"),
            )
        })
        .collect();
    let clock = Clock::new(1.0);
    let opts = NetServerOptions {
        shards: 1,
        ..Default::default()
    };
    let net = NetServer::start(server, clock, opts).expect("bind loopback listener");
    let compute = compute_layer(inputs);

    let pass = rec
        .lock()
        .expect("recorder lock")
        .open("bench", "probe_pass", NO_UNIT);
    let t = Instant::now();
    let mut conn = Conn::open(net.addr());
    conn.send(&mut report, Frame::Hello { client: CLIENT });
    // The heartbeat ack proves the server has read the Hello.
    conn.round_trip(&mut report, Frame::Heartbeat { client: CLIENT }, |f| {
        *f == Frame::HeartbeatAck
    });
    report.connect_hello_us = t.elapsed().as_secs_f64() * 1e6;

    let started = Instant::now();
    while started.elapsed() < budget {
        if report.units.is_multiple_of(16) {
            let (_, us) = span(rec, "net", "heartbeat", NO_UNIT, || {
                conn.round_trip(&mut report, Frame::Heartbeat { client: CLIENT }, |f| {
                    *f == Frame::HeartbeatAck
                })
            });
            report.heartbeat_rtt_us.push(us);
        }
        let id = rec
            .lock()
            .expect("recorder lock")
            .open("net", "request", NO_UNIT);
        let (reply, us) =
            conn.round_trip(&mut report, Frame::RequestWork { client: CLIENT }, |f| {
                matches!(f, Frame::AssignUnit { .. } | Frame::Wait | Frame::Finished)
            });
        rec.lock().expect("recorder lock").close(id);
        let Frame::AssignUnit {
            problem,
            unit,
            cost_ops,
            payload,
        } = reply
        else {
            // Wait cannot happen with one donor holding nothing;
            // Finished ends the probe early on small inputs.
            break;
        };
        report.request_rtt_us.push(us);
        let key = unit_key(problem as usize, unit);
        rec.lock().expect("recorder lock").spans[id as usize - 1].unit = key;
        let (algorithm, codec) = &kit[problem as usize];
        let decoded = span(rec, "codec", "decode_unit", key, || {
            codec.decode_unit(&payload)
        })
        .expect("unit decodes");
        let needs = codec.unit_chunks(&decoded);
        let hydrated = if needs.is_empty() {
            decoded
        } else {
            let mut chunks = Vec::with_capacity(needs.len());
            for need in &needs {
                let ask = Frame::ChunkRequest {
                    client: CLIENT,
                    problem,
                    chunk: need.chunk,
                };
                let (reply, us) = span(rec, "net", "fetch_chunk", key, || {
                    conn.round_trip(
                        &mut report,
                        ask,
                        |f| matches!(f, Frame::ChunkData { chunk, .. } if *chunk == need.chunk),
                    )
                });
                report.chunk_rtt_us.push(us);
                let Frame::ChunkData { payload, .. } = reply else {
                    unreachable!("accept() admits only ChunkData")
                };
                chunks.push((need.chunk, Arc::new(payload)));
            }
            span(rec, "codec", "hydrate_unit", key, || {
                codec.hydrate_unit(decoded, &chunks)
            })
            .expect("unit hydrates")
        };
        let wu = WorkUnit {
            id: unit,
            payload: hydrated,
            cost_ops,
        };
        let result = span(rec, compute, "compute", key, || algorithm.compute(&wu));
        let encoded = span(rec, "codec", "encode_result", key, || {
            codec.encode_result(&result.payload)
        })
        .expect("result encodes");
        let submit = Frame::SubmitResult {
            client: CLIENT,
            problem,
            unit,
            payload: encoded,
        };
        let (_, us) = span(rec, "net", "submit", key, || {
            conn.round_trip(
                &mut report,
                submit,
                |f| matches!(f, Frame::ResultAck { unit: u, .. } if *u == unit),
            )
        });
        report.submit_rtt_us.push(us);
        report.units += 1;
    }
    rec.lock().expect("recorder lock").close(pass);

    if spec.replicas > 0 {
        probe_replica(&mut report, &net, clock, &telemetry, inputs, rec);
    }
    drop(conn);
    // kill() joins the shard/acceptor/ticker threads, which is when
    // each charges its CPU to `evloop.cpu_ticks`.
    net.kill();
    let snap = telemetry.metrics_snapshot();
    report.frames_in = snap.counter("net.frames_in");
    report.chunk_bytes_out = snap.counter("net.chunk_bytes_out");
    if report.frames_in > 0 {
        report.server_cpu_ms_per_kframe =
            snap.counter("evloop.cpu_ticks") as f64 * MS_PER_TICK * 1000.0
                / report.frames_in as f64;
    }
    report
}

/// Fetches the first chunks through one replica the way a donor does —
/// a short-lived connection per chunk — twice: the first fetch pulls
/// the chunk through from the origin, the second finds it synced.
fn probe_replica(
    report: &mut ProbeReport,
    net: &NetServer,
    clock: Clock,
    telemetry: &Telemetry,
    inputs: &Inputs,
    rec: &Rec,
) {
    let Inputs::Dsearch { db, .. } = inputs else {
        return;
    };
    let replica = ReplicaServer::start(
        Directory::with_origin(net.addr()),
        clock,
        telemetry.clone(),
        Vec::new(),
        Vec::new(),
    )
    .expect("bind replica listener");
    let n = db.len().min(REPLICA_CHUNKS) as u64;
    for round in 0..2 {
        for chunk in 0..n {
            let name = if round == 0 {
                "replica_sync"
            } else {
                "replica_fetch"
            };
            let us = span(rec, "replica", name, NO_UNIT, || {
                let t = Instant::now();
                let mut conn = Conn::open(replica.addr());
                let ask = Frame::ChunkRequest {
                    client: 0,
                    problem: 0,
                    chunk,
                };
                // Not counted in the origin connection's frame tally.
                let mut scratch = ProbeReport::default();
                conn.round_trip(&mut scratch, ask, |f| matches!(f, Frame::ChunkData { .. }));
                t.elapsed().as_secs_f64() * 1e6
            });
            if round == 0 {
                report.replica_sync_rtt_us.push(us);
            } else {
                report.replica_chunk_rtt_us.push(us);
            }
        }
    }
    replica.stop();
}
