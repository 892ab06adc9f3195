//! SIGTERM/SIGINT → shutdown flag, for graceful daemon exit.
//!
//! This is one of the workspace's three `unsafe` carve-outs (with
//! `poll::poll` and `spill.rs`'s `flock`; see the crate manifest): std
//! offers no way to register a signal handler, so [`install`] calls
//! libc's `signal(2)` — already linked by std on every Unix target —
//! twice, from the one function allowed to hold the `unsafe` block. The
//! handler body does the only thing that is async-signal-safe here: a
//! relaxed store to a static atomic, which the event loop polls every
//! iteration.
//!
//! On non-Unix targets [`install`] is a no-op and the daemon stops only
//! when the process is killed.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// `true` once SIGTERM or SIGINT (ctrl-c) has been delivered (or
/// [`request_shutdown`] was called).
pub fn shutdown_requested() -> bool {
    // ORDERING: Relaxed — a lone flag with no dependent data; the poll
    // loop only needs eventual visibility of the store.
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Raises the shutdown flag from ordinary (non-signal) code — used by
/// tests and available to any future admin endpoint.
pub fn request_shutdown() {
    // ORDERING: Relaxed — flag store publishes no other memory.
    SHUTDOWN.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// `sighandler_t signal(int signum, sighandler_t handler)` from
        /// libc, with the handler type spelled as a concrete fn pointer.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: allocation, locking, and I/O are all
        // forbidden in a signal handler.
        // ORDERING: Relaxed — async-signal-safe flag store; no other
        // memory is published from the handler.
        super::SHUTDOWN.store(true, Ordering::Relaxed);
    }

    #[allow(unsafe_code)]
    pub fn install() {
        // SAFETY: `signal` is the documented libc entry point; the
        // handler is an `extern "C" fn(i32)` performing a single
        // async-signal-safe atomic store. Errors (SIG_ERR) are ignored —
        // the fallback is the default disposition, i.e. a non-graceful
        // but still correct exit.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Registers SIGTERM and SIGINT handlers that raise the shutdown flag.
/// Idempotent; call once at daemon startup.
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_shutdown_raises_the_flag() {
        // Note: the flag is process-global, so this test would interfere
        // with a daemon running in the same test process; the daemon
        // integration tests spawn a separate process instead.
        install();
        request_shutdown();
        assert!(shutdown_requested());
    }
}
