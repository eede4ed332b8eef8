//! Cooperative cancellation for long-running sweeps.
//!
//! A [`CancelToken`] is a shared flag an executor checks at safe points —
//! the shot scheduler ([`crate::ShotPlan::execute`]) checks it at
//! **chunk boundaries**, so a cancelled sweep stops before starting its
//! next chunk job and returns the counts of the chunks that already
//! finished. Because every chunk samples from its own derived RNG stream
//! ([`crate::executor::derive_stream_seed`]), the merged counts of the
//! completed prefix are bit-identical to what an uncancelled run would
//! have produced for those chunks — cancellation never corrupts results,
//! it only truncates them.
//!
//! The token travels through a thread-local: an execution layer (e.g. the
//! `qcor-core` execution service) installs the task's token with
//! [`set_thread_cancel_token`] around the task body, and the executor picks
//! it up with [`thread_cancel_token`] on the submitting thread before
//! fanning chunk jobs out to pool workers. Code inside a task can poll
//! [`cancel_requested`] directly at its own safe points.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Cloning shares the flag; setting it is
/// sticky (there is no un-cancel).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation: every holder of this token (or a clone)
    /// observes `is_cancelled() == true` from now on.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

thread_local! {
    /// The token of the task the current thread is executing, if any.
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Install `token` as the current thread's cancellation token, returning
/// the previous one so nested scopes can restore it.
pub fn set_thread_cancel_token(token: Option<CancelToken>) -> Option<CancelToken> {
    CURRENT.with(|current| current.replace(token))
}

/// The current thread's cancellation token, if one is installed.
pub fn thread_cancel_token() -> Option<CancelToken> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Whether the current thread's task has been asked to stop. `false` when
/// no token is installed. A cancellation checkpoint for task code.
pub fn cancel_requested() -> bool {
    CURRENT.with(|current| current.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_sticky_and_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn thread_install_and_restore() {
        assert!(thread_cancel_token().is_none());
        assert!(!cancel_requested());
        let token = CancelToken::new();
        let previous = set_thread_cancel_token(Some(token.clone()));
        assert!(previous.is_none());
        assert!(!cancel_requested());
        token.cancel();
        assert!(cancel_requested());
        let restored = set_thread_cancel_token(previous);
        assert!(restored.is_some_and(|t| t.is_cancelled()));
        assert!(thread_cancel_token().is_none());
    }
}
