//! A std-only shim over `poll(2)` plus a self-wake pipe, for the
//! readiness-driven server core.
//!
//! The event loop in `server.rs` needs exactly two primitives that std
//! does not expose: "which of these fds are ready?" and "interrupt the
//! wait from another thread". This module supplies both — [`poll`] is a
//! direct wrapper over libc's `poll(2)` (already linked by std on every
//! Unix target), and [`Waker`] is a nonblocking socketpair whose read
//! end sits in the poll set so worker threads can nudge the loop by
//! writing one byte.
//!
//! This is the third and final unsafe carve-out in the crate (after
//! `signal.rs`'s `signal(2)` and `spill.rs`'s `flock(2)`; see the crate
//! manifest): one `extern "C"` declaration, and one `unsafe` call site
//! in [`poll`], the only function here that may hold one. The `Waker`
//! itself is pure safe std — `UnixStream::pair`. The module is
//! Unix-only, like the event loop that uses it; elsewhere the server
//! reports `Unsupported` at startup.

use std::io;
use std::time::Duration;

/// Readiness events, mirroring `struct pollfd` from `<poll.h>`. The
/// event bit constants below are identical across Linux and the BSDs
/// (including macOS), so no per-OS tables are needed.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch (negative fds are ignored by the
    /// kernel — a convenient way to keep slab slots aligned).
    pub fd: i32,
    /// Requested events ([`POLLIN`] and/or [`POLLOUT`]).
    pub events: i16,
    /// Returned events; filled in by [`poll`].
    pub revents: i16,
}

/// Data may be read without blocking.
pub const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub const POLLOUT: i16 = 0x004;

impl PollFd {
    /// A `PollFd` watching `fd` for the given `events`.
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// `nfds_t` from `<poll.h>`: `unsigned long` on Linux, `unsigned int` on
/// the BSDs.
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    /// `int poll(struct pollfd *fds, nfds_t nfds, int timeout)` from libc.
    #[link_name = "poll"]
    fn poll_ffi(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
}

/// Waits until at least one fd in `fds` is ready, the timeout elapses
/// (`Ok(0)`), or a signal interrupts the wait (also `Ok(0)` — callers
/// re-check their stop flags on every wakeup anyway). `None` waits
/// forever. Returns the number of entries with nonzero `revents`.
#[allow(unsafe_code)]
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: i32 = match timeout {
        // A negative timeout means "wait forever".
        None => -1,
        Some(t) => {
            // Round sub-millisecond waits up to 1ms: rounding down would
            // turn a short deadline into a busy spin.
            let ms = t.as_millis();
            if ms == 0 && !t.is_zero() {
                1
            } else {
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        }
    };
    // SAFETY: `fds` is a valid, exclusively borrowed slice of
    // `#[repr(C)]` structs layout-identical to `struct pollfd`, and the
    // kernel writes only within its bounds (`nfds` is the exact length).
    // The call does not retain the pointer past return.
    let rc = unsafe { poll_ffi(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        // EINTR (a signal landed mid-wait) is not a failure: report
        // "nothing ready" and let the caller's loop re-check its stop
        // flag and deadlines, exactly as on a timeout.
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// A wakeup channel for a [`poll`] loop: the read end sits in the poll
/// set, and any thread holding a clone of the `Waker` can make the loop
/// return immediately by writing one byte to the other end.
///
/// Built on `UnixStream::pair` — the classic self-pipe trick without
/// extra unsafe. Both ends are nonblocking: a `wake` when the pipe is
/// already full is a no-op (the loop is waking anyway), and `drain`
/// reads until empty without stalling.
pub struct Waker {
    read: std::os::unix::net::UnixStream,
    write: std::os::unix::net::UnixStream,
}

impl Waker {
    /// Creates a connected, nonblocking wake pair.
    pub fn new() -> io::Result<Waker> {
        let (read, write) = std::os::unix::net::UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Waker { read, write })
    }

    /// The fd to include (with [`POLLIN`]) in the poll set.
    pub fn fd(&self) -> i32 {
        std::os::fd::AsRawFd::as_raw_fd(&self.read)
    }

    /// Makes the next (or current) [`poll`] call return. Never blocks:
    /// if the pipe buffer is full the loop already has a pending wakeup
    /// and the write is dropped.
    pub fn wake(&self) {
        use std::io::Write as _;
        let _ = (&self.write).write(&[1]);
    }

    /// Empties the pipe after a wakeup so the fd stops reading as ready.
    /// Many queued wakeups coalesce into one drain.
    pub fn drain(&self) {
        use std::io::Read as _;
        let mut sink = [0u8; 64];
        while matches!((&self.read).read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::time::Instant;

    #[test]
    fn poll_times_out_on_a_quiet_fd() {
        let (a, _b) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(std::os::fd::AsRawFd::as_raw_fd(&a), POLLIN)];
        let start = Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "nothing was ready");
        assert_eq!(fds[0].revents, 0);
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "waited it out"
        );
    }

    #[test]
    fn poll_reports_readable_when_bytes_arrive() {
        let (a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
        b.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(std::os::fd::AsRawFd::as_raw_fd(&a), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(fds[0].revents, POLLIN, "readable, and only what was asked");
    }

    #[test]
    fn poll_reports_hangup_as_readable() {
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::new(std::os::fd::AsRawFd::as_raw_fd(&a), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents, 0, "hangup means a read will not block");
    }

    #[test]
    fn waker_interrupts_a_poll_wait_and_drains_clean() {
        let waker = Waker::new().unwrap();
        waker.wake();
        waker.wake(); // coalesces with the first
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
        waker.drain();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "drained waker is quiet again");
    }

    #[test]
    fn waker_wake_never_blocks_even_when_the_pipe_is_full() {
        let waker = Waker::new().unwrap();
        // A socketpair buffer is finite; thousands of wakes must all
        // return immediately rather than blocking the waking thread.
        for _ in 0..300_000 {
            waker.wake();
        }
        waker.drain();
        let mut probe = [0u8; 1];
        assert!(
            (&waker.read).read(&mut probe).is_err(),
            "drain emptied the pipe"
        );
    }

    #[test]
    fn negative_fds_are_ignored() {
        // The slab keeps closed slots as fd -1; the kernel must skip
        // them rather than erroring the whole poll set.
        let mut fds = [PollFd::new(-1, POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
        assert_eq!(fds[0].revents, 0);
    }
}
