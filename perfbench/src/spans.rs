//! The benchmark's own span recorder.
//!
//! The program's `Tracer` stays off in every run (turning it on sends
//! `TaskCache::get_file` down its routed path, so it would measure a
//! different program). Instead the benchmark times the calls it makes
//! into each layer: the decorators in [`crate::probes`] and the timers in
//! the training loop open spans here while the recorder is enabled.
//!
//! A span's parent is the span open on the same thread when it started.
//! Work the server hands to pool workers has no such parent, so a span
//! opened with [`Recorder::open_for_key`] also looks for an in-flight
//! call that announced the key it touches (see [`Recorder::announce`]).
//! Children may run on other threads and overlap each other; a layer's
//! self time is its span minus the union of its children.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique within its recorder.
    pub id: u64,
    /// The span this one ran under, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `store.server.read`.
    pub name: &'static str,
    /// Start, [`now_ns`] time base.
    pub start_ns: u64,
    /// End, [`now_ns`] time base.
    pub end_ns: u64,
    /// Small per-thread id, to tell threads apart.
    pub thread: u64,
}

impl SpanRec {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Collects spans while enabled; a disabled recorder costs one atomic
/// load per call site.
#[derive(Debug, Default)]
pub struct Recorder {
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    /// Calls in flight that announced the store keys their work touches.
    inflight: Mutex<Vec<(u64, Vec<String>)>>,
}

impl Recorder {
    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Open a span under this thread's current span; `None` when off.
    pub fn open(&self, name: &'static str) -> Option<Open<'_>> {
        if !self.enabled() {
            return None;
        }
        let parent = CURRENT.with(Cell::get);
        Some(self.open_under(name, parent))
    }

    /// Like [`open`](Self::open), but a span with no parent on this
    /// thread adopts the earliest in-flight call that announced `key`.
    pub fn open_for_key(&self, name: &'static str, key: &str) -> Option<Open<'_>> {
        if !self.enabled() {
            return None;
        }
        let parent = CURRENT.with(Cell::get).or_else(|| {
            let inflight = self.inflight.lock().expect("span table poisoned");
            inflight.iter().find(|(_, keys)| keys.iter().any(|k| k == key)).map(|(id, _)| *id)
        });
        Some(self.open_under(name, parent))
    }

    fn open_under(&self, name: &'static str, parent: Option<u64>) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let prev = CURRENT.with(|c| c.replace(Some(id)));
        Open { rec: self, id, parent, name, start_ns: now_ns(), prev, announced: false }
    }

    /// Finish and keep a span measured outside a guard.
    pub fn push(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled() {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = CURRENT.with(Cell::get);
        let rec = SpanRec { id, parent, name, start_ns, end_ns, thread: thread_id() };
        self.spans.lock().expect("span table poisoned").push(rec);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span table poisoned"))
    }
}

/// An open span; records itself and restores the thread's previous
/// current span on drop.
#[derive(Debug)]
pub struct Open<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    prev: Option<u64>,
    announced: bool,
}

impl Open<'_> {
    /// Announce the store keys this call's work will touch, so spans on
    /// pool workers can find their parent.
    pub fn announce(&mut self, keys: Vec<String>) {
        self.rec.inflight.lock().expect("span table poisoned").push((self.id, keys));
        self.announced = true;
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = now_ns();
        CURRENT.with(|c| c.set(self.prev));
        if self.announced {
            self.rec.inflight.lock().expect("span table poisoned").retain(|(id, _)| *id != self.id);
        }
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            thread: thread_id(),
        };
        self.rec.spans.lock().expect("span table poisoned").push(rec);
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.into_iter().map(|(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children covers. Children on other threads may overlap
/// each other and may outlive the parent; only the overlap counts.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64, thread: u64) -> SpanRec {
        SpanRec { id, parent, name: "t", start_ns, end_ns, thread }
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_window() {
        assert_eq!(covered_ns(0, 100, [(10, 30), (20, 50), (60, 70)]), 50);
        assert_eq!(covered_ns(0, 100, [(90, 150), (0, 5)]), 15);
        assert_eq!(covered_ns(0, 100, [(200, 300)]), 0);
        assert_eq!(covered_ns(0, 100, Vec::new()), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_on_other_threads() {
        // A net call on thread 1 whose KV child runs on the same thread
        // and whose two store reads run concurrently on threads 2 and 3.
        let spans = vec![
            span(1, None, 0, 100, 1),
            span(2, Some(1), 5, 15, 1),
            span(3, Some(1), 20, 60, 2),
            span(4, Some(1), 40, 80, 3),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 10 - 60, "overlapping store reads count once");
        assert_eq!(st[&3], 40);
    }

    #[test]
    fn a_child_that_outlives_its_parent_only_counts_its_overlap() {
        let spans = vec![span(1, None, 0, 50, 1), span(2, Some(1), 40, 90, 2)];
        assert_eq!(self_times(&spans)[&1], 40);
    }

    #[test]
    fn nested_grandchildren_reduce_only_their_own_parent() {
        let spans = vec![
            span(1, None, 0, 100, 1),
            span(2, Some(1), 10, 60, 1),
            span(3, Some(2), 20, 40, 2),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 20);
    }

    #[test]
    fn recorder_links_same_thread_and_announced_children() {
        let rec = Recorder::default();
        assert!(rec.open("off").is_none(), "a disabled recorder records nothing");
        rec.set_enabled(true);
        {
            let mut call = rec.open("net").expect("enabled");
            call.announce(vec!["ds/c1".into()]);
            drop(rec.open("kv"));
            std::thread::scope(|s| {
                s.spawn(|| drop(rec.open_for_key("store", "ds/c1")));
                s.spawn(|| drop(rec.open_for_key("store", "other")));
            });
        }
        let spans = rec.drain();
        let net = spans.iter().find(|s| s.name == "net").expect("net span").id;
        let kv = spans.iter().find(|s| s.name == "kv").expect("kv span");
        assert_eq!(kv.parent, Some(net));
        let mut store: Vec<_> = spans.iter().filter(|s| s.name == "store").collect();
        store.sort_by_key(|s| s.parent.is_none());
        assert_eq!(store[0].parent, Some(net), "announced key adopts the call");
        assert_eq!(store[1].parent, None, "unannounced key on another thread stays a root");
        assert_ne!(store[0].thread, kv.thread);
    }
}
