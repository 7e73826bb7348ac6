//! Poison-tolerant locking for state that stays valid across an unwind.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock, recovering from poisoning: a panic on a thread that held the lock
/// must not turn every later call into a cascading panic.  Only for state
/// that each update leaves valid at every step (plain queues, counters,
/// flags and handles), so that a guard recovered after an unwind still
/// holds a consistent value.
pub(crate) fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
