//! Unbounded MPMC channels, mirroring the `crossbeam_channel` subset
//! SafeWeb uses: blocking, timed and non-blocking receives.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when all receivers are gone; the
/// unsent value is returned inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and all senders have disconnected.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "receiving on an empty channel"),
            TryRecvError::Disconnected => {
                write!(f, "receiving on an empty and disconnected channel")
            }
        }
    }
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived before the deadline.
    Timeout,
    /// The channel is empty and all senders have disconnected.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                write!(f, "receiving on an empty and disconnected channel")
            }
        }
    }
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    recv_ready: Condvar,
}

/// The sending half of a channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates an unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        recv_ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Sends `value`; never blocks.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] when every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.receivers == 0 {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        self.shared.recv_ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.senders += 1;
        drop(inner);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.senders -= 1;
        if inner.senders == 0 {
            // Receivers blocked in recv must observe the disconnect.
            self.shared.recv_ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one is available.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] when the channel is empty and every sender
    /// has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self
                .shared
                .recv_ready
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Receives a message, giving up after `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] on deadline,
    /// [`RecvTimeoutError::Disconnected`] when empty with no senders.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .shared
                .recv_ready
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Receives without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when no message is queued,
    /// [`TryRecvError::Disconnected`] when additionally no sender remains.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.queue.pop_front() {
            Some(v) => Ok(v),
            None if inner.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.receivers += 1;
        drop(inner);
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.receivers -= 1;
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<i32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = unbounded::<i32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<i32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }
}
