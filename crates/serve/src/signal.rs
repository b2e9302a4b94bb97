//! Minimal Ctrl-C (SIGINT) interception without a libc crate.
//!
//! `std` always links the C runtime, so `signal(2)` is declared here
//! directly. The handler only flips an `AtomicBool` (the one
//! async-signal-safe thing worth doing); callers poll [`interrupted`] at
//! convenient boundaries — between sweep jobs, around the serve accept
//! loop — and run their own orderly teardown. A **second** Ctrl-C while
//! the flag is already set calls `_exit(130)`: the escape hatch when
//! teardown itself wedges.
//!
//! On non-Unix targets installation is a no-op and [`interrupted`] never
//! fires spontaneously (tests can still [`raise`] it).

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::INTERRUPTED;
    use std::sync::atomic::Ordering;
    use std::sync::Once;

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(status: i32) -> !;
    }

    extern "C" fn on_sigint(_signum: i32) {
        if INTERRUPTED.swap(true, Ordering::SeqCst) {
            // Second Ctrl-C: the polite path is stuck; leave now with
            // the conventional 128+SIGINT status.
            unsafe { _exit(130) }
        }
    }

    pub(crate) fn install() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        });
    }
}

#[cfg(not(unix))]
mod imp {
    pub(crate) fn install() {}
}

/// Installs the SIGINT handler (idempotent, cheap to call repeatedly).
pub fn install_handler() {
    imp::install();
}

/// Whether a Ctrl-C has arrived since the last [`clear`].
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Resets the flag (start of a new interruptible phase).
pub fn clear() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}

/// Sets the flag as if a signal had arrived — for tests.
pub fn raise() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_lifecycle_without_a_real_signal() {
        install_handler();
        clear();
        assert!(!interrupted());
        raise();
        assert!(interrupted());
        clear();
        assert!(!interrupted());
    }
}
