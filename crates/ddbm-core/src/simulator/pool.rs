//! Freelists: transaction plans, cohort-progress vectors and Snoop edge
//! buffers all cycle through one [`Pool`] type, so the steady-state
//! transaction lifecycle performs no heap allocation (pinned by
//! `tests/alloc_steady_state.rs`). A commit's write-back chain needs no
//! buffer of its own: it walks the committed plan. Nor does a message that
//! a fault parks: it waits in the calendar, inline in its
//! `Event::MsgArrive`, in room `Simulator::new` reserves (the message-fault
//! pass of `tests/alloc_steady_state.rs` exercises it).

use crate::workload::TxnTemplate;
use std::rc::Rc;

/// Upper bound on every pool. Pool high-water marks track live-transaction
/// counts, which the terminal population bounds, or handler recursion
/// depth; anything beyond the cap is genuinely excess.
const CAP: usize = 256;

/// A capped LIFO freelist.
#[derive(Default)]
pub(super) struct Pool<T> {
    free: Vec<T>,
}

impl<T: Recycle + Default> Pool<T> {
    /// A recycled value, or a fresh default one when the pool is empty.
    #[inline]
    pub(super) fn take(&mut self) -> T {
        self.free.pop().unwrap_or_default()
    }

    /// Return `value` for reuse, recycled, unless the pool is full.
    #[inline]
    pub(super) fn put(&mut self, mut value: T) {
        if self.free.len() < CAP {
            value.recycle();
            self.free.push(value);
        }
    }
}

/// What a value sheds when it returns to a [`Pool`].
pub(super) trait Recycle {
    /// Drop contents, keep capacity. Plans are overwritten whole by their
    /// next user, so by default nothing is shed.
    fn recycle(&mut self) {}
}

impl<T> Recycle for Vec<T> {
    #[inline]
    fn recycle(&mut self) {
        self.clear();
    }
}

impl Recycle for Rc<TxnTemplate> {}
