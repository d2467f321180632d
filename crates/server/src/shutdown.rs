//! SIGINT/SIGTERM → graceful-drain plumbing.
//!
//! The server's drain contract (DESIGN.md §10) starts from a single
//! atomic flag: the signal handler sets it, the accept loop polls it.
//! Installing a handler requires one `unsafe` FFI call to libc's
//! `signal(2)`, confined to this module. It is one of the crate's two
//! unsafe exceptions; the other is the epoll shim (`epoll.rs`), and
//! `lib.rs` names both.
//! The handler body is async-signal-safe: it performs exactly one
//! relaxed atomic store.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Process-wide flag the C signal handler writes into. Handlers cannot
/// capture state, so this must be a static rather than a field.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// A cloneable handle that requests (and observes) shutdown.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    requested: Arc<AtomicBool>,
}

impl ShutdownFlag {
    /// A fresh, un-triggered flag.
    pub fn new() -> Self {
        ShutdownFlag::default()
    }

    /// Requests shutdown programmatically (tests, embedders).
    pub fn trigger(&self) {
        self.requested.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested, by signal or by
    /// [`ShutdownFlag::trigger`].
    pub fn is_triggered(&self) -> bool {
        self.requested.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::Relaxed)
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::Relaxed);
}

/// Installs the SIGINT/SIGTERM handler feeding [`ShutdownFlag`]s.
/// Idempotent; later installs just re-point the same handler.
#[cfg(unix)]
#[allow(unsafe_code)]
pub fn install_signal_handler() {
    extern "C" {
        /// `signal(2)`; libc is always linked on unix targets.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is a plain libc call; the handler only performs a
    // relaxed store into a static AtomicBool, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No-op on non-unix targets: drain is still reachable via
/// [`ShutdownFlag::trigger`].
#[cfg(not(unix))]
pub fn install_signal_handler() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_is_observable_across_clones() {
        let flag = ShutdownFlag::new();
        let clone = flag.clone();
        assert!(!clone.is_triggered());
        flag.trigger();
        assert!(clone.is_triggered());
        // Independent flags are isolated (as long as no signal fired).
        let other = ShutdownFlag::new();
        assert!(other.is_triggered() == SIGNALLED.load(Ordering::Relaxed));
    }

    #[test]
    fn handler_install_is_idempotent() {
        install_signal_handler();
        install_signal_handler();
    }
}
