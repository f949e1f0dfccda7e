//! Minimal `poll(2)`-based socket readiness for the server's event
//! loops.
//!
//! The workspace's no-async stance rules out a runtime. Every shard parks
//! in `poll(2)` with no timeout at all (the exceptions are a partial
//! frame's stall deadline and the pause after a hard accept error): it
//! polls its sockets, the shared listener while the server admits, and
//! its `Waker`, a socket pair private to the process, which whoever asks
//! the loop to stop writes one byte to. No wake-up ever travels through
//! the listener, where it would be indistinguishable from a real client
//! and could land in the shedding/refusal accounting.
//!
//! `poll(2)` is declared with a three-line `extern "C"` prototype; the
//! symbol already lives in every binary std links, so this adds no
//! dependency. On non-unix targets the module degrades to a timed sleep
//! that reports everything ready — callers use nonblocking operations
//! that simply return `WouldBlock`, so correctness is preserved at the
//! cost of a bounded busy-poll, and a `Waker` does nothing.

use std::io;
#[cfg(unix)]
use std::io::{Read, Write};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::io::RawFd;

    /// Mirror of `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// Anything with a pollable file descriptor. On unix this is every
/// socket type; elsewhere the bound is vacuous and the fallback ignores
/// the handle.
#[cfg(unix)]
pub trait Pollable: std::os::unix::io::AsRawFd {}
#[cfg(unix)]
impl<T: std::os::unix::io::AsRawFd> Pollable for T {}

/// Anything with a pollable file descriptor (non-unix fallback).
#[cfg(not(unix))]
pub trait Pollable {}
#[cfg(not(unix))]
impl<T> Pollable for T {}

/// A reusable set of descriptors to wait on, the event loop's one
/// allocation. `clear` + `push` each iteration, then `wait`.
#[derive(Default)]
pub struct PollSet {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    #[cfg(not(unix))]
    len: usize,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Drops every registered descriptor, keeping the allocation.
    pub fn clear(&mut self) {
        #[cfg(unix)]
        self.fds.clear();
        #[cfg(not(unix))]
        {
            self.len = 0;
        }
    }

    /// Registers a socket with the given interest. Returns the slot
    /// index to pass to [`PollSet::readable`] / [`PollSet::writable`]
    /// after `wait`.
    pub fn push<S: Pollable>(&mut self, sock: &S, readable: bool, writable: bool) -> usize {
        #[cfg(unix)]
        {
            let mut events = 0i16;
            if readable {
                events |= sys::POLLIN;
            }
            if writable {
                events |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd { fd: sock.as_raw_fd(), events, revents: 0 });
            self.fds.len() - 1
        }
        #[cfg(not(unix))]
        {
            let _ = (sock, readable, writable);
            self.len += 1;
            self.len - 1
        }
    }

    /// Blocks until at least one registered socket is ready or, when
    /// given, `timeout` has elapsed; `None` waits for readiness alone.
    /// The timeout is rounded up to whole milliseconds, so a wait never
    /// ends before it and a sub-millisecond remainder cannot become a
    /// zero-timeout spin. Returns how many are ready (0 on timeout).
    /// `EINTR` reports as 0 ready — callers loop anyway.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        #[cfg(unix)]
        {
            let ms = timeout
                .map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32);
            // SAFETY: `fds` is a live, exclusively borrowed buffer of
            // `fds.len()` `pollfd` records, which poll(2) only reads and
            // writes within that length.
            let rc = unsafe {
                sys::poll(self.fds.as_mut_ptr(), self.fds.len() as std::os::raw::c_ulong, ms)
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(rc as usize)
        }
        #[cfg(not(unix))]
        {
            // Bounded busy-poll: report everything ready after a short
            // sleep; nonblocking callers see WouldBlock when idle.
            let nap = Duration::from_millis(5);
            std::thread::sleep(timeout.map_or(nap, |t| t.min(nap)));
            Ok(self.len)
        }
    }

    /// Whether slot `i` is readable (or has an error/hangup to reap —
    /// both surface through a read attempt).
    pub fn readable(&self, i: usize) -> bool {
        #[cfg(unix)]
        {
            self.fds[i].revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0
        }
        #[cfg(not(unix))]
        {
            i < self.len
        }
    }

    /// Whether slot `i` is writable (or errored — a write attempt reaps
    /// the error).
    pub fn writable(&self, i: usize) -> bool {
        #[cfg(unix)]
        {
            self.fds[i].revents & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP) != 0
        }
        #[cfg(not(unix))]
        {
            i < self.len
        }
    }
}

/// Wakes a thread parked in [`PollSet::wait`]: a connected pair of Unix
/// sockets, whose read end the parked thread registers (a `Waker` is
/// [`Pollable`] through that end) and anyone else writes a byte to. It
/// never touches a listener, so a wake-up can never be counted as a
/// client.
pub(crate) struct Waker {
    #[cfg(unix)]
    rx: UnixStream,
    #[cfg(unix)]
    tx: UnixStream,
}

impl Waker {
    /// A waker with nothing pending.
    pub(crate) fn new() -> io::Result<Waker> {
        #[cfg(unix)]
        {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Waker { rx, tx })
        }
        #[cfg(not(unix))]
        Ok(Waker {})
    }

    /// Makes the read end readable. A write that would block finds the
    /// socket buffer full of earlier wake-ups, which the parked thread
    /// has not drained yet, so it is already readable.
    pub(crate) fn wake(&self) {
        #[cfg(unix)]
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every pending wake-up, so the next wait blocks until the
    /// next [`Waker::wake`]. Call it before looking at the state the
    /// wakers signal: a wake-up that lands after the drain stays pending.
    pub(crate) fn drain(&self) {
        #[cfg(unix)]
        {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

#[cfg(unix)]
impl std::os::unix::io::AsRawFd for Waker {
    fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn listener_readiness_follows_pending_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut set = PollSet::new();
        let slot = set.push(&listener, true, false);
        assert_eq!(
            set.wait(Some(Duration::from_millis(10))).unwrap(),
            0,
            "no pending connection yet"
        );
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(set.wait(Some(Duration::from_millis(1000))).unwrap() > 0);
        assert!(set.readable(slot), "pending connection must mark the listener readable");
    }

    #[test]
    fn poll_set_reports_readable_stream_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut set = PollSet::new();
        let slot = set.push(&server_side, true, true);
        assert!(set.wait(Some(Duration::from_millis(50))).unwrap() > 0);
        assert!(set.writable(slot), "idle socket is writable");

        client.write_all(b"x").unwrap();
        client.flush().unwrap();
        set.clear();
        let slot = set.push(&server_side, true, false);
        assert!(set.wait(Some(Duration::from_millis(1000))).unwrap() > 0);
        assert!(set.readable(slot), "buffered byte must mark the socket readable");
    }

    #[test]
    fn waker_ends_an_indefinite_wait_and_drain_rearms_it() {
        let waker = Arc::new(Waker::new().unwrap());
        let mut set = PollSet::new();
        let slot = set.push(&*waker, true, false);
        // Nothing pending: even a sub-millisecond timeout is waited out
        // in full, rounded up rather than down to a zero-timeout spin.
        let start = Instant::now();
        assert_eq!(set.wait(Some(Duration::from_micros(300))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_micros(300), "the wait ended early");

        let remote = Arc::clone(&waker);
        let wakes = std::thread::spawn(move || {
            remote.wake();
            remote.wake();
        });
        assert_eq!(set.wait(None).unwrap(), 1, "a wake must end an indefinite wait");
        assert!(set.readable(slot));
        wakes.join().unwrap();
        waker.drain();
        assert_eq!(set.wait(Some(Duration::ZERO)).unwrap(), 0, "drain consumes every wake-up");
    }
}
