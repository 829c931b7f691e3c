//! In-tree unbounded MPSC channel.
//!
//! The workspace is hermetic (no registry access), so the rank mailboxes
//! use this small Mutex+Condvar channel instead of `crossbeam::channel`.
//! Semantics match what [`crate::comm::Comm`] needs from crossbeam's
//! unbounded channel: FIFO per sender, cloneable senders, blocking
//! `recv` that errors once every sender is gone, and non-blocking
//! `try_recv`.

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

impl<T> Sender<T> {
    /// Enqueues `value`; fails if the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        let mut inner = self.0.lock();
        if !inner.receiver_alive {
            return Err(SendError);
        }
        inner.queue.push_back(value);
        drop(inner);
        self.0.cv.notify_one();
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
        let last = inner.senders == 0;
        drop(inner);
        if last {
            // Wake a receiver blocked in recv() so it can observe
            // disconnection.
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
            inner = self.0.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
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
