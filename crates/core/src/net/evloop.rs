//! The one server-side network runtime: readiness primitives (a small
//! poller abstraction, a cross-thread waker, per-thread CPU accounting)
//! and, on top of them, the connection loop ([`serve`]) that every
//! listener in `net/` runs — the origin's shards and each replica
//! endpoint are its two users, told apart only by their
//! [`FrameHandler`]. It is the only server-side acceptor (a listener
//! in its poller) and runs its handler's [`FrameHandler::tick`]: a
//! server is exactly its loops' threads.
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
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

/// The raw file descriptor of a socket for poller registration; `-1`
/// on platforms without Unix descriptors (the fallback poller ignores
/// the fd entirely).
#[cfg(unix)]
pub fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> i32 {
    socket.as_raw_fd()
}
#[cfg(not(unix))]
pub fn raw_fd<T>(_socket: &T) -> i32 {
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

    /// Makes the loop's [`Poller::wait`] return (it then looks at its
    /// handler's kill flag). Never blocks: a send buffer already full
    /// of unread wake bytes guarantees a pending wake.
    pub fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }
}

/// Poller token of the loop's waker read-end; connections start at 1.
const WAKE_TOKEN: u64 = 0;
/// Poller token of the loop's listener, if it has one.
const LISTEN_TOKEN: u64 = u64::MAX;
/// How long a listener whose `accept` failed sits out of its poller.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

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
    /// Whether a connection the loop's listener accepted is served.
    fn admits(&mut self) -> bool {
        true
    }
    /// `accept` failed, not by would-block, interrupt or aborted
    /// handshake (`EMFILE`, `ENFILE`): the listener sits out 1 ms.
    fn accept_failed(&mut self) {}
    /// `Some(p)`: [`Self::tick`] runs on the loop every `p`, whether it
    /// sleeps or is busy.
    fn tick_period(&self) -> Option<Duration> {
        None
    }
    fn tick(&mut self) {}
}

/// Runs loop `idx` of `loops`: serves every connection dealt to it, and
/// deals every one `listener` accepts across `loops`, until the handler
/// reports itself killed (the listener closes as it returns). Every
/// wakeup is readiness — bytes, buffer space, a pending connection, a
/// waker poke (handoff, shutdown) — or a tick falling due.
pub fn serve<H: FrameHandler>(
    loops: &[LoopHandle],
    idx: usize,
    mut wake_rx: TcpStream,
    handler: &mut H,
    listener: Option<TcpListener>,
) {
    let Ok(mut poller) = Poller::new() else {
        return;
    };
    if poller.add(raw_fd(&wake_rx), WAKE_TOKEN, false).is_err()
        || (listener.as_ref()).is_some_and(|l| l.set_nonblocking(true).is_err())
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = WAKE_TOKEN + 1;
    let mut events: Vec<Event> = Vec::new();
    let period = handler.tick_period();
    let mut next_tick = period.map(|p| Instant::now() + p);
    // The listener is out of the poller until then: not yet added, or
    // backing off (level-triggered, a failing `accept` would spin).
    let (mut listen_at, mut dealt) = (listener.as_ref().map(|_| Instant::now()), 0);
    while !handler.killed() {
        // Adopt connections dealt to this loop.
        let inbox = std::mem::take(&mut *loops[idx].inbox.lock().unwrap());
        for conn in inbox.into_iter().filter_map(|s| Conn::fresh(s).ok()) {
            // On failure (fd table full) the connection is dropped.
            if poller.add(raw_fd(&conn.stream), next_token, false).is_ok() {
                conns.insert(next_token, conn);
                handler.adopted(next_token);
                next_token += 1;
            }
        }
        let now = Instant::now();
        if next_tick.is_some_and(|due| now >= due) {
            handler.tick();
            next_tick = period.map(|p| now + p);
        }
        if listen_at.is_some_and(|at| now >= at) {
            let added = poller.add(listener.as_ref().map_or(-1, raw_fd), LISTEN_TOKEN, false);
            listen_at = added.err().map(|_| now + ACCEPT_BACKOFF);
        }
        // Up to 10 ms, or to the next deadline — rounded up: a wake
        // before it would find nothing due.
        let due = next_tick.into_iter().chain(listen_at).min();
        let wait = due.map_or(10_000, |d| d.saturating_duration_since(now).as_micros());
        let wait_ms = wait.min(10_000).div_ceil(1000) as i32;
        events.clear();
        if poller.wait(wait_ms, &mut events).is_err() {
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
            } else if let Some(l) = listener.as_ref().filter(|_| ev.token == LISTEN_TOKEN) {
                // Accept until the backlog is empty, dealing round-robin
                // (what falls to this loop is adopted before it waits).
                let failed = loop {
                    match l.accept() {
                        Ok((stream, _)) if handler.admits() => {
                            let to = dealt % loops.len();
                            dealt += 1;
                            loops[to].inbox.lock().unwrap().push(stream);
                            if to != idx {
                                loops[to].wake();
                            }
                        }
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                        Err(_) => break true,
                    }
                };
                if failed {
                    handler.accept_failed();
                    let _ = poller.remove(raw_fd(l), LISTEN_TOKEN);
                    listen_at = Some(Instant::now() + ACCEPT_BACKOFF);
                }
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

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

    /// What a [`Counting`] handler has seen, readable while it runs.
    #[derive(Default)]
    struct Counts {
        kill: AtomicBool,
        adopted: AtomicUsize,
        ticks: AtomicUsize,
        accept_errors: AtomicUsize,
    }

    /// A handler that serves nothing and counts what its loop does.
    struct Counting {
        counts: Arc<Counts>,
        period: Option<Duration>,
    }

    impl FrameHandler for Counting {
        fn killed(&self) -> bool {
            self.counts.kill.load(Ordering::SeqCst)
        }
        fn adopted(&mut self, _token: u64) {
            self.counts.adopted.fetch_add(1, Ordering::SeqCst);
        }
        fn frame(&mut self, _reply: &mut ReplyHalf, _frame: FrameRef<'_>) -> Action {
            Action::Keep
        }
        fn accept_failed(&mut self) {
            self.counts.accept_errors.fetch_add(1, Ordering::SeqCst);
        }
        fn tick_period(&self) -> Option<Duration> {
            self.period
        }
        fn tick(&mut self) {
            self.counts.ticks.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Runs loop `idx` of `loops` on a thread of its own, accepting on
    /// `socket` (and dealing to every loop) if it is given one.
    fn spawn_loop(
        loops: &Arc<Vec<LoopHandle>>,
        idx: usize,
        wake_rx: TcpStream,
        period: Option<Duration>,
        socket: Option<TcpListener>,
    ) -> (Arc<Counts>, JoinHandle<()>) {
        let counts = Arc::new(Counts::default());
        let mut handler = Counting {
            counts: counts.clone(),
            period,
        };
        let loops = loops.clone();
        let thread = std::thread::spawn(move || serve(&loops, idx, wake_rx, &mut handler, socket));
        (counts, thread)
    }

    fn stop_loop(loops: &[LoopHandle], counts: &Counts, thread: JoinHandle<()>) {
        counts.kill.store(true, Ordering::SeqCst);
        loops.iter().for_each(LoopHandle::wake);
        thread.join().unwrap();
    }

    fn loops(n: usize) -> (Arc<Vec<LoopHandle>>, Vec<TcpStream>) {
        let (handles, rxs) = (0..n).map(|_| LoopHandle::new().unwrap()).unzip();
        (Arc::new(handles), rxs)
    }

    /// The loop is its own acceptor: what the listener takes is dealt
    /// round-robin — the accepting loop's turns adopted in place, the
    /// others handed over — and the listener closes with the loop.
    #[test]
    fn a_listening_loop_deals_connections_round_robin_and_closes_with_its_listener() {
        let (loops, mut rxs) = loops(2);
        let socket = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = socket.local_addr().unwrap();
        let rx_b = rxs.pop().unwrap();
        let (b, b_thread) = spawn_loop(&loops, 1, rx_b, None, None);
        let (a, a_thread) = spawn_loop(&loops, 0, rxs.pop().unwrap(), None, Some(socket));
        let held: Vec<TcpStream> = (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let adopted = || a.adopted.load(Ordering::SeqCst) + b.adopted.load(Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(5);
        while adopted() < held.len() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(a.adopted.load(Ordering::SeqCst), 3, "its own turns");
        assert_eq!(b.adopted.load(Ordering::SeqCst), 3, "handed over");
        stop_loop(&loops, &b, b_thread);
        stop_loop(&loops, &a, a_thread);
        assert!(TcpStream::connect(addr).is_err(), "the listener closed");
    }

    /// A ticking loop ticks on its period whether it sleeps or is woken
    /// by a frame twenty times a period, so that its wait never times
    /// out — and never runs two ticks to make up for a late one.
    #[test]
    fn a_loop_ticks_on_its_period_idle_or_busy() {
        const PERIOD: Duration = Duration::from_millis(2);
        const WINDOW: Duration = Duration::from_millis(60);
        let (loops, mut rxs) = loops(1);
        let (counts, thread) = spawn_loop(&loops, 0, rxs.pop().unwrap(), Some(PERIOD), None);
        let ticks_over = |window: Duration| {
            let (start, before) = (Instant::now(), counts.ticks.load(Ordering::SeqCst));
            std::thread::sleep(window);
            let ticked = counts.ticks.load(Ordering::SeqCst) - before;
            (ticked, start.elapsed())
        };
        let idle = ticks_over(WINDOW);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut chatter = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        loops[0]
            .inbox
            .lock()
            .unwrap()
            .push(listener.accept().unwrap().0);
        loops[0].wake();
        let busy = Arc::new(AtomicBool::new(true));
        let talker = {
            let busy = busy.clone();
            std::thread::spawn(move || {
                let beat = crate::net::wire::encode_frame(&Frame::Heartbeat { client: 0 });
                while busy.load(Ordering::SeqCst) && chatter.write_all(&beat).is_ok() {
                    std::thread::sleep(PERIOD / 20);
                }
            })
        };
        let busy_ticks = ticks_over(WINDOW);
        busy.store(false, Ordering::SeqCst);
        talker.join().unwrap();
        stop_loop(&loops, &counts, thread);
        for (what, (ticked, took)) in [("idle", idle), ("busy", busy_ticks)] {
            let most = took.as_micros() / PERIOD.as_micros() + 2;
            assert!(ticked >= 3, "{what}: {ticked} ticks in {took:?}");
            assert!(ticked as u128 <= most, "{what}: {ticked} ticks in {took:?}");
        }
    }

    /// An `accept` that fails for good (here: the "listener" is a
    /// connected socket, so `accept` says `EINVAL` while it stays
    /// readable) is retried once per back-off, not spun on.
    #[cfg(unix)]
    #[test]
    fn a_failing_accept_backs_off_instead_of_spinning() {
        use std::os::fd::OwnedFd;
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut writer = TcpStream::connect(peer.local_addr().unwrap()).unwrap();
        let (connected, _) = peer.accept().unwrap();
        writer.write_all(b"x").unwrap();
        let broken = TcpListener::from(OwnedFd::from(connected));
        let (loops, mut rxs) = loops(1);
        let started = Instant::now();
        let (counts, thread) = spawn_loop(&loops, 0, rxs.pop().unwrap(), None, Some(broken));
        std::thread::sleep(Duration::from_millis(50));
        let failed = counts.accept_errors.load(Ordering::SeqCst);
        let took = started.elapsed();
        stop_loop(&loops, &counts, thread);
        let most = took.as_millis() / ACCEPT_BACKOFF.as_millis() + 2;
        assert!(failed >= 1, "the failure was reported");
        assert!(
            failed as u128 <= most,
            "{failed} failed accepts in {took:?}"
        );
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
