//! Span-based tracer with a lock-free bounded ring buffer.
//!
//! The hot classify path must be able to record enter/exit without
//! taking a mutex or touching the heap, so the design splits cold and
//! hot work:
//!
//! * **Cold** (`Tracer::register`): span names are `&'static str`s
//!   interned once into a mutex-guarded table, yielding a copyable
//!   [`SpanName`] index. Callers cache the index, so the lock is never
//!   touched while classifying.
//! * **Hot** (`Tracer::span` → [`SpanGuard`] drop): claim a ticket with
//!   one `fetch_add`, read the monotonic clock, and on drop publish the
//!   seven-word record into the ring slot with a seqlock protocol —
//!   atomics only, no allocation.
//!
//! Seqlock protocol per slot: the writer for ticket `t` enters by one
//! compare-and-swap of `seq` from an even value below `2t+1` to `2t+1`
//! (odd: write in progress), stores the record words, then stores
//! `seq = 2t+2` (even: ticket `t` committed). Tickets `t` and `t + cap`
//! share a slot, so a writer that finds the slot holding a newer record,
//! or another writer inside it, leaves it alone: a descheduled writer
//! never overwrites a newer record, and two writers never interleave
//! their stores. A reader accepts the record a slot holds only if `seq`
//! reads the same even value before *and* after copying the words and
//! the record's first word echoes that value's ticket. A writer that
//! entered the slot mid-copy changes `seq`, so readers drop the torn
//! copy instead of returning garbage. Readers never block writers, and
//! writers never wait.
//!
//! Timing uses one [`Instant`] pair per span. Callers that already read
//! the clock for their own bookkeeping (e.g. a stage runner keeping
//! wall-clock metrics) can hand those instants in via
//! [`Tracer::span_starting`] / [`SpanGuard::finish_at`] so tracing adds
//! no clock reads at all on their hot path.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Words per ring record: ticket, id, parent, name, start, end, thread,
/// trace.
const WORDS: usize = 8;

/// Sentinel id meaning "no parent span".
const NO_PARENT: u64 = 0;

/// Sentinel meaning "no distributed trace" in the per-thread trace cell.
const NO_TRACE: u64 = 0;

/// Interned span-name handle returned by [`Tracer::register`].
///
/// Copy + index-sized, so hot paths pass it by value and never touch
/// the interning table again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanName(u16);

/// One completed span read back out of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Process-unique id, strictly increasing in claim order.
    pub id: u64,
    /// Id of the span that was current on this thread when this one
    /// started, if any.
    pub parent: Option<u64>,
    /// Registered name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Small process-unique id of the recording thread.
    pub thread: u64,
    /// Distributed trace id this span belongs to, if the recording
    /// thread had one adopted via [`set_current_trace`] when the span
    /// was committed. `None` for purely local spans.
    pub trace: Option<u64>,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One ring slot: the seqlock word plus the eight record words (72
/// bytes, padded to two cache lines by the alignment). Cache-line
/// aligned so adjacent tickets never share a line (writers stream
/// through the ring without false sharing).
#[repr(align(64))]
struct Slot {
    seq: AtomicU64,
    data: [AtomicU64; WORDS],
}

impl Slot {
    fn empty() -> Self {
        Slot { seq: AtomicU64::new(0), data: [0; WORDS].map(AtomicU64::new) }
    }
}

struct TracerInner {
    epoch: Instant,
    epoch_unix_ns: u64,
    next_id: AtomicU64,
    cursor: AtomicU64,
    slots: Box<[Slot]>,
    mask: u64,
    names: Mutex<Vec<&'static str>>,
}

impl fmt::Debug for TracerInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracerInner")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

thread_local! {
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(NO_PARENT) };
    static THREAD_TAG: Cell<u64> = const { Cell::new(0) };
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(NO_TRACE) };
}

static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);

fn thread_tag() -> u64 {
    THREAD_TAG.with(|tag| {
        let mut t = tag.get();
        if t == 0 {
            t = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
            tag.set(t);
        }
        t
    })
}

/// Adopts a distributed trace id on the calling thread (or clears it
/// with `None`). Every span committed by this thread afterwards carries
/// the id in [`Span::trace`] until it is cleared or replaced, so a
/// server worker that adopts the trace id from an incoming frame tags
/// all the classify/stage spans it records while handling it. Returns
/// the previously current trace id so callers can restore it (see
/// [`TraceScope`] for the RAII form). A trace id of 0 is reserved and
/// treated as `None`.
pub fn set_current_trace(trace: Option<u64>) -> Option<u64> {
    let prev = CURRENT_TRACE.with(|cur| cur.replace(trace.unwrap_or(NO_TRACE)));
    (prev != NO_TRACE).then_some(prev)
}

/// The trace id currently adopted on the calling thread, if any.
pub fn current_trace() -> Option<u64> {
    let t = CURRENT_TRACE.with(|cur| cur.get());
    (t != NO_TRACE).then_some(t)
}

/// RAII guard that adopts a trace id on the current thread for its
/// lifetime and restores the previous one on drop. Worker threads that
/// are reused across sessions lean on this so a trace id never leaks
/// from one session's frames into the next session's spans.
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<u64>,
}

impl TraceScope {
    /// Adopts `trace` (or clears the cell for `None`) until dropped.
    pub fn enter(trace: Option<u64>) -> Self {
        TraceScope { prev: set_current_trace(trace) }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        set_current_trace(self.prev);
    }
}

/// Lock-free bounded span recorder. Cheap to clone; clones share the
/// ring, the id counter, and the name table.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer whose ring holds `capacity` spans (rounded up to a power
    /// of two, minimum 8). Old spans are overwritten once it wraps.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::empty()).collect();
        let epoch_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| {
                d.as_secs()
                    .saturating_mul(1_000_000_000)
                    .saturating_add(u64::from(d.subsec_nanos()))
            })
            .unwrap_or(0);
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                epoch_unix_ns,
                next_id: AtomicU64::new(1),
                cursor: AtomicU64::new(0),
                slots: slots.into_boxed_slice(),
                mask: (cap as u64) - 1,
                names: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Interns a span name, returning its copyable handle. Idempotent:
    /// re-registering the same name returns the same handle. Cold path —
    /// takes a mutex; call once at setup and cache the result.
    ///
    /// # Panics
    /// If more than `u16::MAX` distinct names are registered.
    pub fn register(&self, name: &'static str) -> SpanName {
        let mut names = self.inner.names.lock().expect("span name table poisoned");
        if let Some(idx) = names.iter().position(|&n| std::ptr::eq(n, name) || n == name) {
            return SpanName(idx as u16);
        }
        assert!(names.len() <= usize::from(u16::MAX), "too many distinct span names");
        names.push(name);
        SpanName((names.len() - 1) as u16)
    }

    /// Resolves a handle back to its registered name.
    pub fn name_of(&self, name: SpanName) -> Option<&'static str> {
        self.inner.names.lock().expect("span name table poisoned").get(usize::from(name.0)).copied()
    }

    /// Starts a span: claims a process-unique id, notes the start time,
    /// and links the thread's current span as parent. Recording happens
    /// when the returned guard drops. Lock-free and allocation-free.
    pub fn span(&self, name: SpanName) -> SpanGuard {
        self.span_starting(name, Instant::now())
    }

    /// Like [`Tracer::span`], but with a caller-supplied start instant.
    /// A runner that already reads the clock for its own metrics passes
    /// that same reading here (and the matching end to
    /// [`SpanGuard::finish_at`]), so the span costs zero extra clock
    /// reads.
    pub fn span_starting(&self, name: SpanName, start: Instant) -> SpanGuard {
        SpanGuard {
            tracer: Tracer { inner: Arc::clone(&self.inner) },
            open: self.begin_at(name, start),
            end: None,
        }
    }

    /// Starts an *unguarded* span — the hottest-path variant. The
    /// returned [`OpenSpan`] is plain copyable data (no reference-count
    /// traffic, nothing to drop); the caller must hand it back to
    /// [`Tracer::finish`] / [`Tracer::finish_span_at`] on **every**
    /// path, or the thread's current-span marker stays parked on it and
    /// later spans mis-parent. Prefer [`Tracer::span`] unless the
    /// begin/finish pairing is structurally obvious.
    pub fn begin(&self, name: SpanName) -> OpenSpan {
        self.begin_at(name, Instant::now())
    }

    /// [`Tracer::begin`] with a caller-supplied start instant.
    pub fn begin_at(&self, name: SpanName, start: Instant) -> OpenSpan {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SPAN.with(|cur| cur.replace(id));
        OpenSpan { name, id, parent, start }
    }

    /// Finishes an unguarded span now, recording it into the ring.
    pub fn finish(&self, span: OpenSpan) {
        self.finish_span_at(span, Instant::now());
    }

    /// [`Tracer::finish`] with a caller-supplied end instant.
    pub fn finish_span_at(&self, span: OpenSpan, end: Instant) {
        CURRENT_SPAN.with(|cur| cur.set(span.parent));
        self.commit(span.id, span.parent, span.name, self.ns_of(span.start), self.ns_of(end));
    }

    /// Records an already-completed *leaf* span in one call: it parents
    /// to the thread's current span but never becomes current itself,
    /// so it must not have traced children. This is the cheapest way to
    /// record — two atomic counter bumps, the slot stores, and no clock
    /// reads (the caller supplies both instants, typically the same pair
    /// it read for its own bookkeeping).
    pub fn leaf(&self, name: SpanName, start: Instant, end: Instant) {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SPAN.with(|cur| cur.get());
        self.commit(id, parent, name, self.ns_of(start), self.ns_of(end));
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// The tracer's epoch as nanoseconds since `UNIX_EPOCH`, captured at
    /// construction. Adding it to a span's `start_ns`/`end_ns` yields an
    /// approximate wall-clock time, which is what lets span dumps from
    /// different processes be merged onto one timeline.
    pub fn epoch_unix_ns(&self) -> u64 {
        self.inner.epoch_unix_ns
    }

    /// Converts an instant to nanoseconds since this tracer's epoch
    /// (pure arithmetic; instants before the epoch clamp to 0, and the
    /// count saturates after ~584 years).
    fn ns_of(&self, t: Instant) -> u64 {
        let d = t.saturating_duration_since(self.inner.epoch);
        d.as_secs().saturating_mul(1_000_000_000).saturating_add(u64::from(d.subsec_nanos()))
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Total spans recorded since construction (including overwritten).
    pub fn recorded(&self) -> u64 {
        self.inner.cursor.load(Ordering::Relaxed)
    }

    fn commit(&self, id: u64, parent: u64, name: SpanName, start_ns: u64, end_ns: u64) {
        self.publish(self.claim(), id, parent, name, start_ns, end_ns);
    }

    /// Claims the next ring ticket.
    fn claim(&self) -> u64 {
        self.inner.cursor.fetch_add(1, Ordering::Relaxed)
    }

    /// Publishes a record under `ticket` into its slot, unless the slot
    /// already holds a newer record or another writer is inside it; then
    /// the record is dropped (it still counts in [`Tracer::recorded`]).
    fn publish(
        &self,
        ticket: u64,
        id: u64,
        parent: u64,
        name: SpanName,
        start_ns: u64,
        end_ns: u64,
    ) {
        let inner = &*self.inner;
        let slot = &inner.slots[(ticket & inner.mask) as usize];
        let writing = 2 * ticket + 1;
        let seq = slot.seq.load(Ordering::Relaxed);
        // Enter only from an even (committed or empty) sequence of an
        // older ticket. One attempt: a writer never waits for another.
        // The swap's Acquire pairs with the previous writer's Release
        // store of its even sequence, so these stores land after its.
        if seq % 2 == 1
            || seq > writing
            || slot
                .seq
                .compare_exchange(seq, writing, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        let trace = CURRENT_TRACE.with(|cur| cur.get());
        let words = [id, parent, u64::from(name.0), start_ns, end_ns, thread_tag(), trace];
        // Standard seqlock writer fences: the Release fence after the swap
        // to the odd value pairs with the reader's Acquire fence, so any
        // reader whose word copy observed one of the stores below is
        // guaranteed to see at least the odd sequence value on its
        // re-check and discard the slot instead of accepting a torn record.
        std::sync::atomic::fence(Ordering::Release);
        slot.data[0].store(ticket, Ordering::Relaxed);
        for (cell, word) in slot.data[1..].iter().zip(words) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.store(writing + 1, Ordering::Release);
    }

    /// Copies out the spans held by the ring slots of the `n` most
    /// recent tickets (at most the capacity), oldest first. A slot whose
    /// newest writer left it alone still holds an older span, which is
    /// returned in its ticket order. Spans a writer is concurrently
    /// overwriting are skipped rather than returned torn.
    pub fn recent(&self, n: usize) -> Vec<Span> {
        let inner = &*self.inner;
        let names: Vec<&'static str> =
            inner.names.lock().expect("span name table poisoned").clone();
        let cursor = inner.cursor.load(Ordering::Acquire);
        let take = (n as u64).min(cursor).min(inner.slots.len() as u64);
        let mut held = Vec::with_capacity(take as usize);
        for ticket in (cursor - take)..cursor {
            let slot = &inner.slots[(ticket & inner.mask) as usize];
            // The slot holds whichever ticket last committed into it: an
            // even `seq = 2t + 2` names it (0 is a never-written slot, odd
            // a write in progress).
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let mut words = [0u64; WORDS];
            for (word, cell) in words.iter_mut().zip(slot.data.iter()) {
                *word = cell.load(Ordering::Relaxed);
            }
            std::sync::atomic::fence(Ordering::Acquire);
            let after = slot.seq.load(Ordering::SeqCst);
            if after != before || words[0] != before / 2 - 1 {
                continue;
            }
            let [held_ticket, id, parent, name_idx, start_ns, end_ns, thread, trace] = words;
            let Some(&name) = names.get(name_idx as usize) else { continue };
            let span = Span {
                id,
                parent: (parent != NO_PARENT).then_some(parent),
                name,
                start_ns,
                end_ns,
                thread,
                trace: (trace != NO_TRACE).then_some(trace),
            };
            held.push((held_ticket, span));
        }
        held.sort_unstable_by_key(|&(ticket, _)| ticket);
        held.into_iter().map(|(_, span)| span).collect()
    }
}

/// An in-progress span started with [`Tracer::begin`]: plain copyable
/// data, so carrying one costs nothing. It is **not** self-recording —
/// pass it back to [`Tracer::finish`] on every path (see
/// [`Tracer::begin`] for the mis-parenting hazard if you don't).
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    name: SpanName,
    id: u64,
    parent: u64,
    start: Instant,
}

impl OpenSpan {
    /// The span's process-unique id (e.g. to correlate with log lines).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// RAII guard for an in-progress span; records it into the ring when
/// dropped and restores the thread's previous current span.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    open: OpenSpan,
    end: Option<Instant>,
}

impl SpanGuard {
    /// The span's process-unique id (e.g. to correlate with log lines).
    pub fn id(&self) -> u64 {
        self.open.id
    }

    /// Ends the span at a caller-supplied instant instead of reading the
    /// clock on drop — the counterpart of [`Tracer::span_starting`].
    pub fn finish_at(mut self, end: Instant) {
        self.end = Some(end);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self.end {
            Some(end) => self.tracer.finish_span_at(self.open, end),
            None => self.tracer.finish(self.open),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_a_span_with_timing() {
        let tracer = Tracer::new(16);
        let name = tracer.register("classify");
        {
            let _guard = tracer.span(name);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        assert_eq!(span.name, "classify");
        assert!(span.parent.is_none());
        assert!(span.duration_ns() >= 1_000_000, "slept 1ms, got {}ns", span.duration_ns());
    }

    #[test]
    fn caller_supplied_instants_set_the_recorded_times_exactly() {
        let tracer = Tracer::new(8);
        let name = tracer.register("shared-clock");
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(250);
        tracer.span_starting(name, start).finish_at(end);
        let spans = tracer.recent(1);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration_ns(), 250_000, "caller instants must be recorded verbatim");
    }

    #[test]
    fn leaf_spans_parent_to_the_current_span_without_becoming_it() {
        let tracer = Tracer::new(16);
        let outer = tracer.register("outer");
        let stage = tracer.register("stage");
        let guard = tracer.span(outer);
        let outer_id = guard.id();
        let t0 = Instant::now();
        tracer.leaf(stage, t0, t0 + std::time::Duration::from_nanos(500));
        // A second leaf still parents to `outer`, not to the first leaf.
        tracer.leaf(stage, t0, t0 + std::time::Duration::from_nanos(700));
        drop(guard);
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 3);
        assert!(spans[..2].iter().all(|s| s.parent == Some(outer_id)));
        assert_eq!(spans[0].duration_ns(), 500);
        assert_eq!(spans[1].duration_ns(), 700);
    }

    #[test]
    fn begin_finish_pairs_behave_like_guards() {
        let tracer = Tracer::new(16);
        let outer = tracer.register("outer");
        let inner = tracer.register("inner");
        let open = tracer.begin(outer);
        let open_id = open.id();
        drop(tracer.span(inner));
        tracer.finish(open);
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(open_id), "children link to the open span");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].parent, None);
        // The current-span marker is restored: a fresh span has no parent.
        let reg = tracer.register("after");
        drop(tracer.span(reg));
        assert_eq!(tracer.recent(1)[0].parent, None);
    }

    #[test]
    fn register_is_idempotent() {
        let tracer = Tracer::new(8);
        assert_eq!(tracer.register("a"), tracer.register("a"));
        assert_ne!(tracer.register("a"), tracer.register("b"));
        assert_eq!(tracer.name_of(tracer.register("b")), Some("b"));
    }

    #[test]
    fn nested_spans_link_parents() {
        let tracer = Tracer::new(16);
        let outer = tracer.register("outer");
        let inner = tracer.register("inner");
        let outer_guard = tracer.span(outer);
        let outer_id = outer_guard.id();
        drop(tracer.span(inner));
        drop(outer_guard);
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 2);
        // Inner drops first, so it is recorded first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(outer_id));
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tracer = Tracer::new(16);
        let outer = tracer.register("outer");
        let child = tracer.register("child");
        let outer_guard = tracer.span(outer);
        let outer_id = outer_guard.id();
        drop(tracer.span(child));
        drop(tracer.span(child));
        drop(outer_guard);
        let spans = tracer.recent(10);
        assert_eq!(spans.iter().filter(|s| s.parent == Some(outer_id)).count(), 2);
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let tracer = Tracer::new(8);
        let name = tracer.register("w");
        for _ in 0..20 {
            drop(tracer.span(name));
        }
        assert_eq!(tracer.recorded(), 20);
        let spans = tracer.recent(100);
        assert_eq!(spans.len(), 8);
        // Oldest-first and ids strictly increase.
        assert!(spans.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(spans.last().unwrap().id, 20);
    }

    /// Regression: a writer descheduled between claiming its ticket and
    /// publishing it used to overwrite the newer record a full lap later
    /// had committed into the shared slot, and `recent` then skipped that
    /// slot, returning one span short.
    #[test]
    fn a_late_writer_leaves_a_newer_record_in_place() {
        let tracer = Tracer::new(8);
        let name = tracer.register("lap");
        let cap = tracer.capacity() as u64;
        let late = tracer.claim();
        for _ in 0..cap {
            let ticket = tracer.claim();
            tracer.publish(ticket, ticket + 1, NO_PARENT, name, 0, 1);
        }
        tracer.publish(late, late + 1, NO_PARENT, name, 0, 1);
        assert_eq!(tracer.recorded(), cap + 1);
        let spans = tracer.recent(cap as usize);
        assert_eq!(spans.len(), cap as usize, "a slot was lost");
        assert!(spans.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(spans.last().unwrap().id, cap + 1, "the newest record survives");
    }

    #[test]
    fn recent_caps_at_requested_n() {
        let tracer = Tracer::new(16);
        let name = tracer.register("n");
        for _ in 0..10 {
            drop(tracer.span(name));
        }
        assert_eq!(tracer.recent(3).len(), 3);
        assert_eq!(tracer.recent(3).last().unwrap().id, tracer.recent(100).last().unwrap().id);
    }

    #[test]
    fn adopted_trace_tags_spans_until_cleared() {
        let tracer = Tracer::new(16);
        let name = tracer.register("traced");
        drop(tracer.span(name));
        {
            let _scope = TraceScope::enter(Some(0xABCD));
            assert_eq!(current_trace(), Some(0xABCD));
            drop(tracer.span(name));
        }
        assert_eq!(current_trace(), None);
        drop(tracer.span(name));
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].trace, None, "span before adoption is untraced");
        assert_eq!(spans[1].trace, Some(0xABCD), "span inside the scope carries the trace id");
        assert_eq!(spans[2].trace, None, "the scope restores the previous (empty) trace");
    }

    #[test]
    fn trace_scopes_nest_and_restore() {
        let _outer = TraceScope::enter(Some(7));
        {
            let _inner = TraceScope::enter(Some(9));
            assert_eq!(current_trace(), Some(9));
        }
        assert_eq!(current_trace(), Some(7));
    }

    #[test]
    fn epoch_unix_ns_is_plausible_wall_clock() {
        let tracer = Tracer::new(8);
        // 2020-01-01 in unix ns — any sane clock is past this.
        assert!(tracer.epoch_unix_ns() > 1_577_836_800_000_000_000);
    }

    #[test]
    fn clones_share_the_ring() {
        let tracer = Tracer::new(16);
        let name = tracer.register("shared");
        let clone = tracer.clone();
        drop(clone.span(name));
        assert_eq!(tracer.recent(10).len(), 1);
    }
}
