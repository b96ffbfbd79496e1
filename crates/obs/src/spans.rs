//! Span/event timeline: a bounded, thread-safe ring buffer of trace events.
//!
//! Events carry a `&'static str` name (no allocation on the record path), a
//! per-thread id handed out lazily, and microsecond timestamps relative to
//! the recorder's epoch. When the ring is full the oldest event is dropped
//! and a counter incremented, so long runs degrade gracefully instead of
//! growing without bound.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Default ring capacity; ~65k events is a few MB and plenty for a full
/// anytime run at pass-level granularity.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: the event's `ts_us` is the start, `dur_us` the length.
    Span { dur_us: u64 },
    /// A point-in-time marker.
    Instant,
}

/// One entry in the timeline.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub name: &'static str,
    /// Lazily assigned per-thread id (stable within a process run).
    pub tid: u32,
    /// Microseconds since the recorder's epoch.
    pub ts_us: u64,
    pub kind: EventKind,
    /// Optional payload (e.g. the incumbent latency at an exchange event).
    pub value: Option<i64>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// The calling thread's trace id, assigned on first use.
#[inline]
pub fn current_tid() -> u32 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

pub(crate) struct EventRing {
    buf: Mutex<VecDeque<TraceEvent>>,
    cap: usize,
    dropped: AtomicU64,
}

impl EventRing {
    pub(crate) fn new(cap: usize) -> Self {
        EventRing {
            buf: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, ev: TraceEvent) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() >= self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(ev);
    }

    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.lock().unwrap().iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn clear(&self) {
        self.buf.lock().unwrap().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_past_capacity() {
        let ring = EventRing::new(4);
        for i in 0..6 {
            ring.push(TraceEvent {
                name: "e",
                tid: 1,
                ts_us: i,
                kind: EventKind::Instant,
                value: None,
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].ts_us, 2);
        assert_eq!(snap[3].ts_us, 5);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn tids_are_stable_within_a_thread() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, other);
    }
}
