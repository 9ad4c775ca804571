//! A bounded MPMC queue on the workspace's poison-recovering
//! [`Mutex`]/[`Condvar`] — the channel underneath [`WorkPool`] and
//! [`PipelineIter`](crate::PipelineIter).
//!
//! The capacity bound is what turns "spawn everything" into
//! backpressure: a producer that outruns the consumers blocks in
//! [`push`](Bounded::push) instead of growing an unbounded buffer, and
//! a closed queue wakes every waiter so shutdown never hangs.
//!
//! [`WorkPool`]: crate::WorkPool

use diesel_util::{Condvar, Mutex};
use std::collections::VecDeque;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct Bounded<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Bounded {
            capacity,
            state: Mutex::named(
                "exec.queue",
                State { items: VecDeque::with_capacity(capacity), closed: false },
            ),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.state.lock().items.is_empty()
    }

    /// Enqueue, blocking while the queue is full. Returns the item back
    /// when the queue has been closed.
    pub fn push(&self, item: T) -> std::result::Result<(), T> {
        let mut g = self.state.lock();
        loop {
            if g.closed {
                return Err(item);
            }
            if g.items.len() < self.capacity {
                g.items.push_back(item);
                drop(g);
                self.not_empty.notify_one();
                return Ok(());
            }
            g = self.not_full.wait(g);
        }
    }

    /// Enqueue without blocking. Returns the item back when the queue
    /// is full or closed.
    pub fn try_push(&self, item: T) -> std::result::Result<(), T> {
        let mut g = self.state.lock();
        if g.closed || g.items.len() >= self.capacity {
            return Err(item);
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue, blocking while the queue is empty. Returns `None` once
    /// the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.state.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g);
        }
    }

    /// Dequeue without blocking; `None` when nothing is queued.
    pub fn try_pop(&self) -> Option<T> {
        let mut g = self.state.lock();
        let item = g.items.pop_front()?;
        drop(g);
        self.not_full.notify_one();
        Some(item)
    }

    /// Close the queue: producers get their items back, consumers drain
    /// what is left and then see `None`. Idempotent.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`close`](Bounded::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

impl<T> std::fmt::Debug for Bounded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bounded")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_len() {
        let q = Bounded::new(4);
        assert!(q.is_empty());
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn try_push_refuses_when_full() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        q.pop();
        q.try_push(3).unwrap();
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = Bounded::new(0);
        assert_eq!(q.capacity(), 1);
        q.push(9).unwrap();
        assert_eq!(q.try_push(10), Err(10));
    }

    #[test]
    fn close_unblocks_and_drains() {
        let q = Arc::new(Bounded::new(1));
        q.push(7).unwrap();
        // A producer blocked on a full queue gets its item back at close.
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(8));
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(t.join().unwrap(), Err(8));
        // The queued item still drains; then consumers see the end.
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
        assert_eq!(q.push(9), Err(9));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(2));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop());
        q.close();
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn backpressure_blocks_until_space() {
        let q = Arc::new(Bounded::new(1));
        q.push(1).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(2).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(q.pop(), Some(1));
        assert!(t.join().unwrap());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn debug_format() {
        let q = Bounded::new(3);
        q.push('x').unwrap();
        let s = format!("{q:?}");
        assert!(s.contains("capacity: 3") && s.contains("len: 1"), "{s}");
    }
}
