//! The one server-side network runtime: readiness primitives (a small
//! poller abstraction, a cross-thread waker, per-thread CPU accounting)
//! and, on top of them, the blocking acceptor ([`accept_loop`]) and the
//! connection loop ([`serve`]) that every listener in `net/` runs — the
//! origin's shards and each replica endpoint are its two users, told
//! apart only by their [`FrameHandler`].
//!
//! The workspace carries no external dependencies, so the Linux backend
//! speaks `epoll` directly through raw syscalls (`core::arch::asm`) on
//! x86_64 and aarch64. Everywhere else a portable fallback emulates
//! level-triggered readiness: `wait` sleeps briefly and reports every
//! registered connection as maybe-ready — correct (handlers treat
//! `WouldBlock` as a no-op) but less efficient, exactly the
//! `TcpStream::set_nonblocking` + readiness-fallback design the event
//! loop is specified against.
//!
//! A loop's waker is a self-connected loopback TCP pair: the read end
//! lives in the poller like any other connection, the write end
//! ([`LoopHandle`]) is poked from other threads (new-connection
//! handoff, shutdown). No pipes, no signals — `std` only.

use super::recycle;
use super::wire::{encode_frame_into, DecodeError, Frame, FrameAssembler, FrameRef};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// Bytes may be readable (or the peer hung up — a read will say).
    pub readable: bool,
    /// The socket's send buffer has room again.
    pub writable: bool,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::Event;
    use std::io;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const CLOSE: u64 = 3;
        pub const EPOLL_CTL: u64 = 233;
        pub const EPOLL_PWAIT: u64 = 281;
        pub const EPOLL_CREATE1: u64 = 291;
        pub const PRLIMIT64: u64 = 302;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: u64 = 20;
        pub const EPOLL_CTL: u64 = 21;
        pub const EPOLL_PWAIT: u64 = 22; // aarch64 has no plain epoll_wait
        pub const CLOSE: u64 = 57;
        pub const PRLIMIT64: u64 = 261;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64, f: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as i64 => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64, f: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "svc #0",
            in("x8") n,
            inlateout("x0") a as i64 => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    const EPOLL_CLOEXEC: u64 = 0x80000;
    const EPOLL_CTL_ADD: u64 = 1;
    const EPOLL_CTL_DEL: u64 = 2;
    const EPOLL_CTL_MOD: u64 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    // The kernel packs epoll_event on x86_64 only; every other
    // architecture uses natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    fn interest(writable: bool) -> u32 {
        EPOLLIN | if writable { EPOLLOUT } else { 0 }
    }

    /// Readiness via `epoll`. File descriptors are registered
    /// level-triggered under a caller-chosen token, readable interest
    /// always; `writable` interest should be kept only while a
    /// connection has buffered output, or every wait returns instantly.
    pub struct Poller {
        epfd: i64,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            let epfd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            Ok(Self { epfd })
        }

        fn ctl(&self, op: u64, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let ev = EpollEvent {
                events,
                data: token,
            };
            let ptr = if op == EPOLL_CTL_DEL {
                0u64
            } else {
                &ev as *const EpollEvent as u64
            };
            check(unsafe { syscall6(nr::EPOLL_CTL, self.epfd as u64, op, fd as u64, ptr, 0, 0) })?;
            Ok(())
        }

        pub fn add(&mut self, fd: i32, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest(writable), token)
        }

        /// Updates the interest set of an already-registered descriptor.
        pub fn modify(&mut self, fd: i32, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest(writable), token)
        }

        pub fn remove(&mut self, fd: i32, _token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks up to `timeout_ms` for readiness; appends reports to
        /// `out` (which the caller should clear between waits).
        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
            const MAX: usize = 64;
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX];
            // SAFETY: `buf` outlives the call and holds the `MAX`
            // events the kernel is told it may write; the mask is null.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.epfd as u64,
                    buf.as_mut_ptr() as u64,
                    MAX as u64,
                    timeout_ms as u64,
                    0, // no sigmask
                    8, // sigsetsize (ignored with a null mask)
                )
            };
            let n = match check(ret) {
                Ok(n) => n as usize,
                // A signal mid-wait is an empty wake, not a failure.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in buf.iter().take(n) {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    // Errors and hangups surface as "readable": the next
                    // read reports the actual condition.
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                syscall6(nr::CLOSE, self.epfd as u64, 0, 0, 0, 0, 0);
            }
        }
    }

    /// Raises the process's soft `RLIMIT_NOFILE` toward `want` (capped
    /// at the hard limit) so a 1k-donor loopback soak does not trip a
    /// conservative default (1024 on stock CI runners). Best effort:
    /// returns the resulting soft limit on Linux, `None` elsewhere.
    pub fn raise_nofile_limit(want: u64) -> Option<u64> {
        const RLIMIT_NOFILE: u64 = 7;
        #[repr(C)]
        struct Rlimit {
            cur: u64,
            max: u64,
        }
        let mut old = Rlimit { cur: 0, max: 0 };
        check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                0,
                &mut old as *mut Rlimit as u64,
                0,
                0,
            )
        })
        .ok()?;
        let new = Rlimit {
            cur: old.cur.max(want.min(old.max)),
            max: old.max,
        };
        check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                &new as *const Rlimit as u64,
                0,
                0,
                0,
            )
        })
        .ok()?;
        Some(new.cur)
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use super::Event;
    use std::collections::HashMap;
    use std::io;
    use std::time::Duration;

    /// Portable readiness emulation: every registered descriptor is
    /// reported maybe-ready after a short sleep. Handlers are written
    /// against nonblocking sockets, so a spurious report costs one
    /// `WouldBlock` — correctness is identical, only efficiency drops.
    pub struct Poller {
        registered: HashMap<u64, bool>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                registered: HashMap::new(),
            })
        }

        pub fn add(&mut self, _fd: i32, token: u64, writable: bool) -> io::Result<()> {
            self.registered.insert(token, writable);
            Ok(())
        }

        pub fn modify(&mut self, _fd: i32, token: u64, writable: bool) -> io::Result<()> {
            self.registered.insert(token, writable);
            Ok(())
        }

        pub fn remove(&mut self, _fd: i32, token: u64) -> io::Result<()> {
            self.registered.remove(&token);
            Ok(())
        }

        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<()> {
            let ms = (timeout_ms.max(0) as u64).min(5);
            std::thread::sleep(Duration::from_millis(ms.max(1)));
            for (&token, &writable) in &self.registered {
                out.push(Event {
                    token,
                    readable: true,
                    writable,
                });
            }
            Ok(())
        }
    }

    pub fn raise_nofile_limit(_want: u64) -> Option<u64> {
        None
    }
}

pub use sys::{raise_nofile_limit, Poller};

/// Discards every buffered wake byte.
pub fn drain_wakes(rx: &mut TcpStream) {
    let mut buf = [0u8; 64];
    while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
}

/// The raw file descriptor of a stream for poller registration; `-1`
/// on platforms without Unix descriptors (the fallback poller ignores
/// the fd entirely).
#[cfg(unix)]
pub fn raw_fd(stream: &TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}
#[cfg(not(unix))]
pub fn raw_fd(_stream: &TcpStream) -> i32 {
    -1
}

/// CPU time this thread has consumed (user + system) in kernel clock
/// ticks, read from `/proc/thread-self/stat`. `None` off Linux. Server
/// threads sample it at start and exit so `evloop.cpu_ticks` counts
/// *server-side* cost only, even when donor threads share the process.
pub fn thread_cpu_ticks() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // comm may contain spaces; fields are stable after the last ')'.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut fields = rest.split(' ');
    // rest begins at field 3 (state); utime/stime are fields 14/15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The blocking acceptor every listener in `net/` runs on a thread of
/// its own: no polling sleep, each accepted stream goes to `deal`.
/// Shutdown raises `kill` and then calls [`unblock_accept`].
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

/// The other threads' side of one [`serve`] loop: the inbox accepted
/// connections are handed over through, and the loop's waker — the
/// write end of a self-connected loopback pair whose read end sits in
/// the loop's poller.
pub struct LoopHandle {
    inbox: Mutex<Vec<TcpStream>>,
    wake_tx: TcpStream,
}

impl LoopHandle {
    /// A handle and the nonblocking wake read-end its [`serve`] call
    /// takes.
    pub fn new() -> io::Result<(Self, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let wake_tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        wake_tx.set_nonblocking(true)?;
        wake_tx.set_nodelay(true)?;
        rx.set_nonblocking(true)?;
        let inbox = Mutex::default();
        Ok((Self { inbox, wake_tx }, rx))
    }

    /// Gives `stream` to the loop, which serves it for its whole life.
    pub fn hand_over(&self, stream: TcpStream) {
        self.inbox.lock().unwrap().push(stream);
        self.wake();
    }

    /// Makes the loop's [`Poller::wait`] return (it then looks at its
    /// handler's kill flag). Never blocks: a send buffer already full
    /// of unread wake bytes guarantees a pending wake.
    pub fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }
}

/// Poller token of the loop's waker read-end; connections start at 1.
const WAKE_TOKEN: u64 = 0;

/// One served connection: the nonblocking stream, its frame reassembly
/// and its [`ReplyHalf`].
pub struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    reply: ReplyHalf,
    /// Whether the poller currently watches for writability.
    want_write: bool,
}

/// The half of a [`Conn`] a [`FrameHandler`] writes to while the frame
/// it is handling still borrows the other half (the assembler's
/// buffer): the replies not yet written, and the handler's own word.
#[derive(Default)]
pub struct ReplyHalf {
    out: Vec<u8>,
    out_pos: usize,
    /// One word the [`FrameHandler`] may keep about this connection,
    /// zero at first (the origin: the last turn it served here).
    pub mark: u64,
}

impl ReplyHalf {
    /// Lets `write` append encoded frames behind the replies already
    /// waiting (the pump flushes them once, when it ends); returns how
    /// many bytes it appended.
    pub fn append(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> usize {
        let before = self.out.len();
        write(&mut self.out);
        self.out.len() - before
    }

    /// Queues `frame` (see [`Self::append`]); returns its encoded length.
    pub fn queue_reply(&mut self, frame: &Frame) -> usize {
        self.append(|out| encode_frame_into(frame, out))
    }

    /// Writes buffered output until done or the socket would block.
    fn flush(&mut self, mut stream: &TcpStream) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            recycle(&mut self.out);
            self.out_pos = 0;
        }
        Ok(())
    }

    fn pending(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

impl Conn {
    fn fresh(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            asm: FrameAssembler::new(),
            reply: ReplyHalf::default(),
            want_write: false,
        })
    }

    /// Reads every available byte into the assembler. `Ok(true)` = EOF.
    fn read_available(&mut self) -> io::Result<bool> {
        loop {
            match self.asm.read_from(&mut &self.stream) {
                Ok(0) => return Ok(true),
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Handles a readiness event; `false` drops the connection.
    fn service<H: FrameHandler>(
        &mut self,
        ev: &Event,
        poller: &mut Poller,
        handler: &mut H,
    ) -> bool {
        if ev.writable && self.reply.flush(&self.stream).is_err() {
            return false;
        }
        if ev.readable {
            let keep = self.pump(handler);
            handler.pump_done();
            if !keep {
                return false;
            }
        }
        let want = self.reply.pending();
        if want != self.want_write {
            self.want_write = want;
            return poller.modify(raw_fd(&self.stream), ev.token, want).is_ok();
        }
        true
    }

    /// One pump: read fresh bytes, hand every whole frame to `handler`
    /// — borrowed from the assembler, next to the reply half it answers
    /// into — and flush its replies. `false` drops the connection, with
    /// whatever the pump had queued for it.
    fn pump<H: FrameHandler>(&mut self, handler: &mut H) -> bool {
        // EOF or socket failure: the connection goes; whatever its peer
        // held is the handler's to reclaim by other means.
        if !matches!(self.read_available(), Ok(false)) {
            return false;
        }
        let Self {
            stream, asm, reply, ..
        } = self;
        // A crashed server handles no further frame.
        while !handler.crashed() {
            match asm.next_ref() {
                Ok(Some(frame)) => match handler.frame(reply, frame) {
                    Action::Keep => {}
                    Action::Close => return false,
                },
                Ok(None) => return handler.end_pump(reply) && reply.flush(stream).is_ok(),
                // A corrupt body is detected, not fatal: the assembler
                // already resynced past the frame.
                Err(DecodeError::BodyCrc {
                    frame_type,
                    body_prefix,
                }) => handler.corrupt_body(reply, frame_type, &body_prefix),
                // Unrecoverable decode (bad magic/version/header CRC):
                // the stream cannot be trusted.
                Err(_) => return false,
            }
        }
        false
    }
}

/// What handling one frame decided about the connection.
pub enum Action {
    /// Keep serving it (a reply may be queued).
    Keep,
    /// Drop it, with whatever this pump queued for it.
    Close,
}

/// What a [`serve`] loop does with the frames it reassembles. A *pump*
/// is one readable connection driven once: read what arrived, hand over
/// every whole frame, flush the replies. The loop is generic over the
/// handler (no `dyn`), so each user's calls are static.
pub trait FrameHandler {
    /// Raised: the loop exits.
    fn killed(&self) -> bool;
    /// Raised: a pump stops between two frames, its replies unsent.
    /// (Every stop, unless the handler tells a crash from a teardown.)
    fn crashed(&self) -> bool {
        self.killed()
    }
    /// A connection was adopted under `token` (1, 2, … in order).
    fn adopted(&mut self, _token: u64) {}
    /// `Some(d)`: a modelled stall — the loop serves nothing for up to
    /// `d`, waiting on its waker, then asks again.
    fn stalled_for(&mut self) -> Option<Duration> {
        None
    }
    /// One decoded frame, borrowed from the connection's read buffer;
    /// replies go into `reply`.
    fn frame(&mut self, reply: &mut ReplyHalf, frame: FrameRef<'_>) -> Action;
    /// A frame whose body failed its CRC was skipped whole (its header
    /// was sound, so the stream is still in step).
    fn corrupt_body(&mut self, _reply: &mut ReplyHalf, _frame_type: u8, _body_prefix: &[u8]) {}
    /// The pump's last frame was handled and nothing has been written
    /// yet. `false` drops the connection with its unsent replies.
    fn end_pump(&mut self, _reply: &mut ReplyHalf) -> bool {
        true
    }
    /// The pump is over, whichever way it ended: the place for
    /// per-pump state to be settled and reset.
    fn pump_done(&mut self) {}
}

/// Serves every connection handed over through `handle` until the
/// handler reports itself killed. Every wakeup is readiness: bytes,
/// buffer space, or a waker poke (handoff, shutdown).
pub fn serve<H: FrameHandler>(handle: &LoopHandle, mut wake_rx: TcpStream, handler: &mut H) {
    let Ok(mut poller) = Poller::new() else {
        return;
    };
    if poller.add(raw_fd(&wake_rx), WAKE_TOKEN, false).is_err() {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = WAKE_TOKEN + 1;
    let mut events: Vec<Event> = Vec::new();
    while !handler.killed() {
        // Adopt connections handed over by the acceptor.
        let inbox = std::mem::take(&mut *handle.inbox.lock().unwrap());
        for conn in inbox.into_iter().filter_map(|s| Conn::fresh(s).ok()) {
            // On failure (fd table full) the connection is dropped.
            if poller.add(raw_fd(&conn.stream), next_token, false).is_ok() {
                conns.insert(next_token, conn);
                handler.adopted(next_token);
                next_token += 1;
            }
        }
        events.clear();
        if poller.wait(10, &mut events).is_err() {
            return;
        }
        if let Some(stall) = handler.stalled_for() {
            // Block on the waker alone for the stall, or until the next
            // poke. Level-triggered: what is ready now is reported again.
            let _ = wake_rx.set_nonblocking(false);
            let _ = wake_rx.set_read_timeout(Some(stall.max(Duration::from_micros(1))));
            let _ = wake_rx.read(&mut [0u8; 64]);
            let _ = wake_rx.set_nonblocking(true);
            continue;
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                drain_wakes(&mut wake_rx);
            } else if let Some(conn) = conns.get_mut(&ev.token) {
                if !conn.service(ev, &mut poller, handler) {
                    let _ = poller.remove(raw_fd(&conn.stream), ev.token);
                    conns.remove(&ev.token);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn waker_wakes_a_waiting_poller() {
        let (waker, mut rx) = LoopHandle::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&rx), 7, false).unwrap();
        waker.wake();
        let mut events = Vec::new();
        // Generous timeout: the wake must cut it short.
        let start = std::time::Instant::now();
        while events.is_empty() && start.elapsed().as_secs() < 5 {
            poller.wait(2000, &mut events).unwrap();
        }
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        drain_wakes(&mut rx);
        // Drained: a fresh wake is needed for the next report (on the
        // epoll path; the fallback reports unconditionally).
    }

    #[test]
    fn poller_reports_readable_bytes_and_writable_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&rx), 1, true).unwrap();
        tx.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        while !events
            .iter()
            .any(|e: &Event| e.token == 1 && e.readable && e.writable)
            && start.elapsed().as_secs() < 5
        {
            events.clear();
            poller.wait(1000, &mut events).unwrap();
        }
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        poller.modify(raw_fd(&rx), 1, false).unwrap();
        poller.remove(raw_fd(&rx), 1).unwrap();
    }

    /// One outsized reply must not pin its capacity for the life of the
    /// connection: once the flush has emptied the buffer it is back
    /// under the cap, and a connection that never outgrew the cap keeps
    /// its storage for reuse.
    #[test]
    fn an_8_mib_reply_does_not_pin_its_capacity_past_the_flush() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            rx.read_to_end(&mut sink).unwrap();
            sink.len()
        });
        let mut reply = ReplyHalf::default();
        let small = reply.queue_reply(&Frame::HeartbeatAck);
        reply.flush(&tx).unwrap(); // (blocking: all of it leaves)
        let kept = reply.out.capacity();
        assert!(kept >= small && !reply.pending(), "small storage is reused");
        let big = reply.queue_reply(&Frame::StatusReport {
            snapshot: vec![7; 8 << 20],
        });
        assert!(reply.out.capacity() >= 8 << 20);
        reply.flush(&tx).unwrap();
        assert!(!reply.pending());
        assert!(
            reply.out.capacity() <= super::super::KEEP_BYTES,
            "{} bytes still held after the flush",
            reply.out.capacity()
        );
        drop(tx);
        assert_eq!(drain.join().unwrap(), small + big);
    }

    #[test]
    fn cpu_ticks_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(thread_cpu_ticks().is_some());
        }
    }

    #[test]
    fn nofile_limit_is_reported_on_linux() {
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            let got = raise_nofile_limit(1024).expect("prlimit64 works");
            assert!(got >= 1024 || got > 0);
        }
    }
}
