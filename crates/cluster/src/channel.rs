//! In-tree unbounded MPSC channel.
//!
//! The workspace is hermetic (no registry access), so the rank mailboxes
//! use this small Mutex+Condvar channel instead of `crossbeam::channel`.
//! Semantics match what [`crate::comm::Comm`] needs from crossbeam's
//! unbounded channel: FIFO per sender, cloneable senders, blocking
//! `recv` that errors once every sender is gone, and non-blocking
//! `try_recv`.
//!
//! A send or the last sender's drop signals the condvar only while a
//! receiver sleeps in `recv`. The receiver records that it sleeps under
//! the mutex before it waits and clears it under the same mutex after,
//! and the sender reads the record under that mutex, so no wake-up is
//! lost. A receiver that never blocks here — an event-hosted rank parks
//! in the scheduler instead — costs its senders no system call: std's
//! condvar makes one on every notify, waiter or not.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SendError;

/// Error returned by [`Receiver::recv`] / [`Receiver::try_recv`] when no
/// message is (or will ever be) available.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RecvError;

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// How many threads wait in `recv` right now (0 or 1: there is one
    /// receiver, but `&Receiver` is `Sync`, so it is counted, not flagged).
    sleepers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
}

/// The sending half; cloneable, one per peer rank.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half; exactly one per channel.
pub struct Receiver<T>(Arc<Shared<T>>);

/// Creates an unbounded FIFO channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
            sleepers: 0,
        }),
        cv: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A poisoned mailbox means a rank thread already panicked; that
        // panic is what surfaces to the user, so recover the guard here.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
thread_local! {
    /// Condvar notifies this thread has made (test builds only).
    static WAKES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many condvar notifies the calling thread has made so far; event
/// ranks are fibers on the thread that runs the cluster, so this counts
/// theirs too.
#[cfg(test)]
pub(crate) fn wakes() -> u64 {
    WAKES.with(std::cell::Cell::get)
}

/// Counts one condvar notify against the calling thread.
fn count_wake() {
    #[cfg(test)]
    WAKES.with(|w| w.set(w.get() + 1));
}

impl<T> Sender<T> {
    /// Enqueues `value`; fails if the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        let mut inner = self.0.lock();
        if !inner.receiver_alive {
            return Err(SendError);
        }
        inner.queue.push_back(value);
        let sleeps = inner.sleepers > 0;
        drop(inner);
        if sleeps {
            count_wake();
            self.0.cv.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.0.lock();
        inner.senders -= 1;
        let wake = inner.senders == 0 && inner.sleepers > 0;
        drop(inner);
        if wake {
            // Wake a receiver blocked in recv() so it can observe
            // disconnection.
            count_wake();
            self.0.cv.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives; errors once the queue is empty and
    /// every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.0.lock();
        loop {
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner.sleepers += 1;
            inner = self.0.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
            inner.sleepers -= 1;
        }
    }

    /// Non-blocking receive: `Err` if nothing is queued right now.
    pub fn try_recv(&self) -> Result<T, RecvError> {
        self.0.lock().queue.pop_front().ok_or(RecvError)
    }

    /// Hangs up: every later send fails, and what is still queued is
    /// returned — atomically, so no message slips in between.
    pub fn hang_up(&self) -> VecDeque<T> {
        let mut inner = self.0.lock();
        inner.receiver_alive = false;
        std::mem::take(&mut inner.queue)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.lock().receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_sender() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn try_recv_empty_is_err() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.try_recv(), Err(RecvError));
        tx.send(1).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx2.send(7).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7)); // drained before disconnect error
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_receiver_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(3), Err(SendError));
    }

    #[test]
    fn hang_up_returns_the_queue_and_refuses_later_sends() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.hang_up(), [1, 2]);
        assert_eq!(tx.send(3), Err(SendError));
        assert_eq!(rx.try_recv(), Err(RecvError));
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::yield_now();
                tx.send(42u64).unwrap();
            });
            assert_eq!(rx.recv(), Ok(42));
        });
    }

    /// Whether a thread waits in `rx.recv()` with nothing queued: the
    /// next send must wake it.
    fn asleep(rx: &Receiver<u64>) -> bool {
        let inner = rx.0.lock();
        inner.sleepers > 0 && inner.queue.is_empty()
    }

    #[test]
    fn a_send_wakes_a_sleeping_receiver_and_only_a_sleeping_one() {
        const N: u64 = 2_000;
        let (tx, rx) = unbounded();
        let rx = &rx;
        // The receiver is blocked in recv() before every send: each send
        // wakes it, and none is lost.
        let wakes_sent = std::thread::scope(|s| {
            let tx = tx.clone();
            let sender = s.spawn(move || {
                for i in 0..N {
                    while !asleep(rx) {
                        std::thread::yield_now();
                    }
                    tx.send(i).unwrap();
                }
                wakes()
            });
            for i in 0..N {
                assert_eq!(rx.recv(), Ok(i));
            }
            sender.join().unwrap()
        });
        assert_eq!(wakes_sent, N);
        // Every send arrives before the receiver asks: no send wakes it.
        let wakes_sent = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                for i in 0..N {
                    tx.send(i).unwrap();
                    while !rx.0.lock().queue.is_empty() {
                        std::thread::yield_now();
                    }
                }
                wakes()
            });
            for i in 0..N {
                while rx.0.lock().queue.is_empty() {
                    std::thread::yield_now();
                }
                assert_eq!(rx.recv(), Ok(i));
            }
            sender.join().unwrap()
        });
        assert_eq!(wakes_sent, 0);
    }

    #[test]
    fn the_last_senders_drop_wakes_a_blocked_recv() {
        let (tx, rx) = unbounded::<u64>();
        let tx2 = tx.clone();
        let before = wakes();
        std::thread::scope(|s| {
            let rx = &rx;
            let receiver = s.spawn(move || rx.recv());
            while !asleep(rx) {
                std::thread::yield_now();
            }
            drop(tx);
            assert_eq!(wakes() - before, 0, "a sender is left: no wake");
            drop(tx2);
            assert_eq!(wakes() - before, 1);
            assert_eq!(receiver.join().unwrap(), Err(RecvError));
        });
    }

    #[test]
    fn cross_thread_volume() {
        let (tx, rx) = unbounded();
        let n = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..4 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..n {
                        tx.send(t * n + i).unwrap();
                    }
                });
            }
            drop(tx);
            let mut got = 0u64;
            let mut sum = 0u64;
            while let Ok(v) = rx.recv() {
                got += 1;
                sum += v;
            }
            assert_eq!(got, 4 * n);
            assert_eq!(sum, (0..4 * n).sum());
        });
    }
}
