//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate — just the [`channel`] module, which is all the workspace uses.

/// Multi-producer multi-consumer FIFO channels.
///
/// Backed by a `Mutex<VecDeque>` + two `Condvar`s rather than crossbeam's
/// lock-free queue: the message-passing TNS engine moves thousands of
/// messages per run, not millions per second, so the simpler
/// implementation is far below measurement noise there.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<Queue<T>>,
        /// Signalled when a message arrives or the last sender leaves.
        ready: Condvar,
        /// Signalled when space frees up or the last receiver leaves
        /// (bounded channels only).
        space: Condvar,
        /// `None` = unbounded.
        capacity: Option<usize>,
    }

    struct Queue<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (mpmc, like crossbeam and unlike
    /// `std::sync::mpsc`).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like the real crate: Debug without a `T: Debug` bound, so
    // `.expect()` works on channels of non-Debug messages.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Sender::try_send`].
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is bounded and currently at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// Recovers the message that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }

        /// True when the failure was a full queue (backpressure), not a
        /// disconnect.
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("TrySendError::Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("TrySendError::Disconnected(..)"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message available right now.
        Empty,
        /// No message available and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with no message.
        Timeout,
        /// No message available and every sender is gone.
        Disconnected,
    }

    fn channel_with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded mpmc channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel_with_capacity(None)
    }

    /// Creates a bounded mpmc channel holding at most `cap` messages.
    /// [`Sender::send`] blocks while full; [`Sender::try_send`] returns
    /// [`TrySendError::Full`] instead. Zero-capacity rendezvous channels
    /// are not supported by this stub.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "rendezvous (capacity 0) channels not supported");
        channel_with_capacity(Some(cap))
    }

    impl<T> Sender<T> {
        /// Enqueues a message, blocking while a bounded channel is full;
        /// fails only when every receiver is dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            loop {
                if queue.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.shared.capacity {
                    Some(cap) if queue.items.len() >= cap => {
                        queue = self.shared.space.wait(queue).expect("channel poisoned");
                    }
                    _ => break,
                }
            }
            queue.items.push_back(value);
            drop(queue);
            self.shared.ready.notify_one();
            Ok(())
        }

        /// Enqueues a message without blocking: a full bounded channel
        /// returns [`TrySendError::Full`] with the message handed back.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            if queue.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.shared.capacity {
                if queue.items.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            queue.items.push_back(value);
            drop(queue);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().expect("channel poisoned").senders += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            queue.senders -= 1;
            if queue.senders == 0 {
                drop(queue);
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        fn notify_space(&self) {
            if self.shared.capacity.is_some() {
                self.shared.space.notify_one();
            }
        }

        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            loop {
                if let Some(item) = queue.items.pop_front() {
                    drop(queue);
                    self.notify_space();
                    return Ok(item);
                }
                if queue.senders == 0 {
                    return Err(RecvError);
                }
                queue = self.shared.ready.wait(queue).expect("channel poisoned");
            }
        }

        /// Blocks until a message arrives, every sender is dropped, or
        /// `timeout` elapses.
        // Mirrors upstream crossbeam: the deadline is wall-clock by contract.
        #[allow(clippy::disallowed_methods)]
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            loop {
                if let Some(item) = queue.items.pop_front() {
                    drop(queue);
                    self.notify_space();
                    return Ok(item);
                }
                if queue.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (q, _) = self
                    .shared
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .expect("channel poisoned");
                queue = q;
            }
        }

        /// Dequeues a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            match queue.items.pop_front() {
                Some(item) => {
                    drop(queue);
                    self.notify_space();
                    Ok(item)
                }
                None if queue.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .queue
                .lock()
                .expect("channel poisoned")
                .receivers += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut queue = self.shared.queue.lock().expect("channel poisoned");
            queue.receivers -= 1;
            if queue.receivers == 0 {
                drop(queue);
                self.shared.space.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_in_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_is_observable() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            let (tx2, rx2) = unbounded::<u32>();
            drop(rx2);
            assert_eq!(tx2.send(9), Err(SendError(9)));
        }

        #[test]
        fn crosses_threads() {
            let (tx, rx) = unbounded();
            let handle = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut sum = 0u64;
            for _ in 0..100 {
                sum += rx.recv().unwrap();
            }
            handle.join().unwrap();
            assert_eq!(sum, 4950);
        }

        #[test]
        fn bounded_try_send_reports_full() {
            let (tx, rx) = bounded(2);
            assert!(tx.try_send(1).is_ok());
            assert!(tx.try_send(2).is_ok());
            match tx.try_send(3) {
                Err(TrySendError::Full(v)) => assert_eq!(v, 3),
                other => panic!("expected Full, got {other:?}"),
            }
            assert_eq!(rx.recv(), Ok(1));
            assert!(tx.try_send(3).is_ok(), "recv frees a slot");
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }

        #[test]
        fn bounded_send_blocks_until_space() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let handle = std::thread::spawn(move || {
                // Blocks until the receiver drains the first message.
                tx.send(2).unwrap();
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            handle.join().unwrap();
        }

        #[test]
        fn try_send_disconnected_returns_message() {
            let (tx, rx) = bounded::<u32>(1);
            drop(rx);
            match tx.try_send(7) {
                Err(e @ TrySendError::Disconnected(_)) => {
                    assert!(!e.is_full());
                    assert_eq!(e.into_inner(), 7);
                }
                other => panic!("expected Disconnected, got {other:?}"),
            }
        }

        #[test]
        fn recv_timeout_times_out_and_delivers() {
            let (tx, rx) = bounded::<u32>(4);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(11).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(11));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
