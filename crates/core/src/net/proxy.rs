//! A socket-level fault interposer for the TCP backend.
//!
//! [`FaultProxy`] sits between donor clients and the server and applies
//! the delivery faults of a [`FaultPlan`] to the *actual bytes*:
//! dropped results vanish from the wire, duplicated results are sent
//! twice, corrupted results get a flipped checksum byte, chunk replies
//! are dropped or corrupted mid-burst, the pipeline's control replies
//! (`TurnReply`; a raw client's `ResultAck`, `AssignUnit`) are dropped,
//! repeated or corrupted, and link degradation becomes real added
//! latency. A donor's results travel in its `Turn`s, so a result fault
//! takes the whole frame — every result in it and the request that
//! rides along. Lifecycle faults stay
//! client-side (see [`super::client`]); this layer only mutates
//! transport.
//!
//! Both directions are parsed frame-by-frame through the one
//! [`FrameAssembler`] (using only the header-CRC-validated span, so
//! already-corrupt bytes pass through untouched): client→server `Turn`s that carry a result (and
//! `SubmitResult`s) meet the plan's delivery faults, server→client
//! `ChunkData` replies its chunk faults and `TurnReply` / `ResultAck` /
//! `AssignUnit` frames its control-reply faults. Each
//! proxied connection dials upstream through the server
//! [`super::Directory`] at accept time, so clients reconnecting after a
//! server restart are transparently routed to the new address.
//!
//! This is a test interposer, not a server stack: it accepts on a
//! blocking thread of its own ([`accept_loop`], which the in-crate test
//! fakes share; every server accepts on its event loop) and gives each
//! proxied connection two blocking pump threads, one per direction.
//! Link degradation is a modelled `sleep` per forwarded frame, and a
//! readiness loop would need a timer queue nothing else in `net/` needs.

use super::wire::{
    FrameAssembler, ASSIGN_UNIT_TYPE, CHUNK_DATA_TYPE, HEADER_LEN, RESULT_ACK_TYPE,
    SUBMIT_RESULT_TYPE, TURN_REPLY_TYPE, TURN_TYPE,
};
use super::{Clock, Directory};
use crate::fault::{ClientFaults, DeliveryAction, FaultPlan};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Modelled per-frame transfer time used to turn a link-degradation
/// factor into real latency, in scaled seconds.
const BASE_TRANSFER_SECS: f64 = 0.005;

/// The running proxy. Point clients at [`FaultProxy::addr`]; it dials
/// the upstream server through the directory given to `start`.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
}

impl FaultProxy {
    /// Binds an ephemeral loopback port and starts proxying for donors
    /// `0..n_clients`. Every injected wire fault (drop / duplicate /
    /// corrupt) is recorded on `telemetry` as a `wire_fault` trace
    /// event stamped with the proxy clock.
    pub fn start_traced(
        upstream: Directory,
        plan: &FaultPlan,
        n_clients: usize,
        clock: Clock,
        telemetry: crate::telemetry::Telemetry,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // Every connection a donor opens consumes from its one record;
        // the link windows are read off the plan itself, with no lock.
        let faults: Vec<ClientFaults> = (0..n_clients).map(|c| plan.client(c)).collect();
        let faults = Arc::new(Mutex::new(faults));
        let plan = Arc::new(plan.clone());
        let accept_thread = {
            let stop = stop.clone();
            thread::spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                accept_loop(&listener, &stop, |client_side| {
                    let (upstream, faults, plan) = (upstream.clone(), faults.clone(), plan.clone());
                    let (stop, telemetry) = (stop.clone(), telemetry.clone());
                    conns.push(thread::spawn(move || {
                        proxy_connection(
                            client_side,
                            &upstream,
                            &faults,
                            &plan,
                            clock,
                            &stop,
                            &telemetry,
                        )
                    }));
                });
                for h in conns {
                    let _ = h.join();
                }
            })
        };
        Ok(Self {
            addr,
            stop,
            accept_thread,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Tears the proxy down (open connections are severed).
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        unblock_accept(self.addr);
        let _ = self.accept_thread.join();
    }
}

/// A blocking acceptor for a thread of its own: no polling sleep, each
/// accepted stream goes to `deal`. Shutdown raises `kill` and then
/// calls [`unblock_accept`].
pub fn accept_loop(listener: &TcpListener, kill: &AtomicBool, mut deal: impl FnMut(TcpStream)) {
    loop {
        let accepted = listener.accept();
        if kill.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => deal(stream),
            // Transient accept failure (EMFILE, aborted handshake):
            // back off briefly instead of spinning on the error.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Ends an [`accept_loop`] blocked in `accept` on `addr` (its kill flag
/// already raised) with a throwaway self-connection.
pub fn unblock_accept(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn proxy_connection(
    client_side: TcpStream,
    upstream: &Directory,
    faults: &Mutex<Vec<ClientFaults>>,
    plan: &FaultPlan,
    clock: Clock,
    stop: &Arc<AtomicBool>,
    telemetry: &crate::telemetry::Telemetry,
) {
    // Dial upstream through the directory *now* — after a server
    // restart the directory holds the new address.
    let addr = upstream.origin();
    let Some(server_side) = addr.and_then(|a| TcpStream::connect(a).ok()) else {
        return; // upstream down: sever; the client backs off and retries
    };
    let _ = client_side.set_nodelay(true);
    let _ = server_side.set_nodelay(true);
    let (Ok(c2s_read), Ok(s2c_write)) = (client_side.try_clone(), client_side.try_clone()) else {
        return;
    };
    let (Ok(s2c_read), Ok(c2s_write)) = (server_side.try_clone(), server_side.try_clone()) else {
        return;
    };
    let record = |client: usize, action: DeliveryAction| {
        let name = match action {
            DeliveryAction::Deliver => return,
            DeliveryAction::Drop => "drop",
            DeliveryAction::Duplicate => "duplicate",
            DeliveryAction::Corrupt => "corrupt",
        };
        telemetry.emit_at(
            clock.now(),
            crate::telemetry::EventKind::WireFault {
                client,
                action: name.to_string(),
            },
        );
        telemetry.counter_add("net.wire_faults", 1);
    };
    // The donor this connection's replies are bound for, learned from
    // its own frames (which always precede the replies).
    let peer = AtomicUsize::new(usize::MAX);
    // Consumes donor `client`'s due one-shot of the kind `pick` reads; a
    // donor outside the pool (or not yet known) meets no faults.
    let consume = |client: usize, pick: fn(&mut ClientFaults, f64) -> DeliveryAction| {
        let mut faults = faults
            .lock()
            .expect("a pump panicked holding the fault records");
        let action = faults
            .get_mut(client)
            .map_or(DeliveryAction::Deliver, |f| pick(f, clock.now()));
        drop(faults);
        record(client, action);
        action
    };
    thread::scope(|scope| {
        // Server→client on a helper thread: `ChunkData` replies meet
        // the plan's chunk faults, `TurnReply`s (and the raw clients'
        // `ResultAck`s and `AssignUnit`s) its control-reply faults,
        // everything else passes untouched.
        scope.spawn(|| {
            framed_pump(s2c_read, s2c_write, stop, |frame_type, _| {
                let client = peer.load(Ordering::SeqCst);
                match frame_type {
                    CHUNK_DATA_TYPE => consume(client, ClientFaults::chunk_reply_action),
                    TURN_REPLY_TYPE | RESULT_ACK_TYPE | ASSIGN_UNIT_TYPE => {
                        consume(client, ClientFaults::control_reply_action)
                    }
                    _ => DeliveryAction::Deliver,
                }
            });
            // The server went away: unblock the other direction too.
            let _ = client_side.shutdown(std::net::Shutdown::Both);
        });
        // Client→server: frames that carry a result — a `Turn` with a
        // non-empty id table, a `SubmitResult` — meet the delivery
        // faults, and every frame pays the degraded link's latency.
        framed_pump(c2s_read, c2s_write, stop, |frame_type, body| {
            // The client id is the first body field of every frame a
            // donor sends (header-validated span, so the offset holds).
            let client = body
                .get(..8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")) as usize);
            if let Some(client) = client {
                peer.store(client, Ordering::SeqCst);
            }
            // (A turn's result count follows its client, seq and want.)
            let carries_result = match frame_type {
                TURN_TYPE => body.get(20..24).is_some_and(|n| n != [0; 4]),
                other => other == SUBMIT_RESULT_TYPE,
            };
            let action = match client {
                Some(client) if carries_result => consume(client, ClientFaults::delivery_action),
                _ => DeliveryAction::Deliver,
            };
            // Link degradation: real latency per forwarded frame.
            let link = plan.link_scale(clock.now());
            if link > 1.0 {
                thread::sleep(clock.wall((link - 1.0) * BASE_TRANSFER_SECS));
            }
            action
        });
        // Sever both directions so the helper unblocks; the scope reaps it.
        let _ = client_side.shutdown(std::net::Shutdown::Both);
        let _ = server_side.shutdown(std::net::Shutdown::Both);
    });
}

/// Copies one direction until EOF, error, or stop, reassembling frame
/// spans and asking `decide` (with the frame type and body) what
/// becomes of each: delivered, dropped, sent twice, or sent with a
/// flipped checksum byte. Anything unparseable is forwarded raw — the
/// receiver's own CRC layer is the authority on corruption.
fn framed_pump(
    mut from: TcpStream,
    mut to: TcpStream,
    stop: &AtomicBool,
    mut decide: impl FnMut(u8, &[u8]) -> DeliveryAction,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(5)));
    let mut asm = FrameAssembler::new();
    while !stop.load(Ordering::SeqCst) {
        match asm.read_from(&mut from) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => return,
        }
        loop {
            let (frame_type, frame) = match asm.next_span() {
                Ok(Some(span)) => span,
                Ok(None) => break,
                Err(_) => {
                    // Desynced or already-corrupt input: forward what is
                    // buffered raw and parse again from the next read.
                    if to.write_all(asm.take_buffered()).is_err() {
                        return;
                    }
                    break;
                }
            };
            let total = frame.len();
            let ok = match decide(frame_type, &frame[HEADER_LEN..total - 4]) {
                DeliveryAction::Deliver => to.write_all(frame).is_ok(),
                DeliveryAction::Drop => true, // lost in transit
                DeliveryAction::Duplicate => {
                    to.write_all(frame).is_ok() && to.write_all(frame).is_ok()
                }
                DeliveryAction::Corrupt => {
                    // Flip the final body-CRC byte: ids stay readable,
                    // the receiver's CRC check rejects the frame
                    // deterministically.
                    frame[total - 1] ^= 0xFF;
                    to.write_all(frame).is_ok()
                }
            };
            if !ok {
                return;
            }
        }
    }
}
