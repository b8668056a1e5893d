//! `Mutex`/`RwLock` wrappers replacing `parking_lot`, plus the bounded
//! channel and isolation helpers the fleet fan-out rides on.
//!
//! `strider-kernel` declared `parking_lot` for its non-poisoning lock API.
//! These wrappers provide the same call shape over `std::sync`: `lock()`,
//! `read()` and `write()` return guards directly instead of `Result`s, and
//! a poisoned lock (a panic while held) is transparently recovered rather
//! than propagated — a simulated kernel that has already panicked is being
//! torn down, and the detector's shared state is all plain data.
//!
//! [`bounded`] is the crossbeam-channel-shaped seam the fleet scheduler
//! uses for batched result ingest: many worker threads send, one ingest
//! thread drains, and the bound applies backpressure so a slow ingester
//! throttles the workers instead of buffering the whole fleet's results.

/// A mutual-exclusion lock with `parking_lot`-style non-poisoning `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock with `parking_lot`-style `read()`/`write()`.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Acquires shared read access, recovering from poisoning.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access, recovering from poisoning.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// The sending half of a [`bounded`] channel. Clone one per producer
/// thread; the channel closes when every sender has been dropped.
#[derive(Debug, Clone)]
pub struct Sender<T>(std::sync::mpsc::SyncSender<T>);

impl<T> Sender<T> {
    /// Sends `value`, blocking while the channel is at capacity.
    ///
    /// # Errors
    ///
    /// Returns the value back when the receiver has been dropped — the
    /// producer's cue to stop working, not a panic.
    pub fn send(&self, value: T) -> Result<(), T> {
        self.0.send(value).map_err(|e| e.0)
    }
}

/// The receiving half of a [`bounded`] channel.
#[derive(Debug)]
pub struct Receiver<T>(std::sync::mpsc::Receiver<T>);

impl<T> Receiver<T> {
    /// Blocks for the next value; `None` once every sender has dropped
    /// and the buffer is drained — the loop-is-over signal.
    pub fn recv(&self) -> Option<T> {
        self.0.recv().ok()
    }

    /// Returns a value only if one is already buffered.
    pub fn try_recv(&self) -> Option<T> {
        self.0.try_recv().ok()
    }

    /// Drains the channel until it closes, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(|| self.recv())
    }
}

/// A bounded multi-producer single-consumer channel (the
/// `crossbeam_channel::bounded` call shape over `std::sync::mpsc`).
///
/// A `capacity` of 0 is a rendezvous channel: every send blocks until the
/// receiver takes the value, which makes producer/consumer interleaving
/// fully synchronous — useful in deterministic tests.
///
/// # Examples
///
/// ```
/// use strider_support::sync::bounded;
///
/// let (tx, rx) = bounded(4);
/// std::thread::scope(|scope| {
///     for worker in 0..3 {
///         let tx = tx.clone();
///         scope.spawn(move || tx.send(worker).unwrap());
///     }
///     drop(tx); // close our handle so the drain below terminates
///     assert_eq!(rx.iter().count(), 3);
/// });
/// ```
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
    (Sender(tx), Receiver(rx))
}

/// Runs `f` inline under [`std::panic::catch_unwind`], converting a panic
/// into an `Err` with the panic message.
///
/// This is the isolation boundary the supervised sweep engine runs each
/// pipeline behind: a panicking parser unwinds out of one task, not the
/// sweep. The closure runs on the caller's thread, so its allocations and
/// spans land in the caller's counters. The closure's return value travels
/// back on success; on panic the payload is rendered (`&str`/`String`
/// payloads verbatim, anything else as a placeholder) so the caller can
/// file it as a degradation cause.
///
/// # Examples
///
/// ```
/// use strider_support::sync::run_isolated;
///
/// assert_eq!(run_isolated(|| 7), Ok(7));
/// let err = run_isolated(|| -> u32 { panic!("bad sector") });
/// assert_eq!(err.unwrap_err(), "bad sector");
/// ```
pub fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    // Unwind-safe in practice: a panicked task's partial results are
    // discarded, and the shared state it touches sits behind the
    // non-poisoning locks above.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(msg) = payload.downcast_ref::<&str>() {
            (*msg).to_string()
        } else if let Some(msg) = payload.downcast_ref::<String>() {
            msg.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_serializes_concurrent_increments() {
        let counter = Arc::new(Mutex::new(0u32));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *counter.lock() += 1;
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(*counter.lock(), 8000);
    }

    #[test]
    fn rwlock_allows_concurrent_readers() {
        let lock = Arc::new(RwLock::new(vec![1, 2, 3]));
        let reader = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || lock.read().len())
        };
        assert_eq!(lock.read().len(), 3);
        assert_eq!(reader.join().unwrap(), 3);
        lock.write().push(4);
        assert_eq!(lock.read().len(), 4);
    }

    #[test]
    fn run_isolated_returns_the_value_or_the_panic_message() {
        assert_eq!(run_isolated(|| 1 + 1), Ok(2));
        let owned = run_isolated(|| -> () { panic!("code {}", 42) });
        assert_eq!(owned.unwrap_err(), "code 42");
    }

    #[test]
    fn run_isolated_closures_may_borrow_from_the_caller() {
        let data = [1u32, 2, 3];
        let sum = run_isolated(|| data.iter().sum::<u32>());
        assert_eq!(sum, Ok(6));
        assert_eq!(data.len(), 3);
    }

    #[test]
    fn bounded_channel_applies_backpressure_and_closes_on_drop() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        // Capacity 1: the second send must wait for the drain below.
        let producer = std::thread::spawn(move || {
            tx.send(2).unwrap();
            tx.send(3).unwrap();
        });
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
        producer.join().unwrap();
        assert_eq!(rx.recv(), None, "all senders dropped");
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn bounded_channel_send_fails_once_the_receiver_is_gone() {
        let (tx, rx) = bounded(2);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let lock = Arc::new(Mutex::new(7u32));
        let poisoner = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _guard = lock.lock();
                panic!("poison the lock");
            })
        };
        assert!(poisoner.join().is_err());
        // A parking_lot-style lock keeps working after a holder panicked.
        assert_eq!(*lock.lock(), 7);
    }
}
