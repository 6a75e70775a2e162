//! Completion-event calendars for the event loop.
//!
//! The production calendar is a bucketed **calendar queue** (R. Brown,
//! CACM 1988): events hash into a power-of-two ring of unsorted buckets
//! by `end / width`, so insert is O(1) and extract-min scans forward
//! from a cursor — O(1) amortized when the bucket width tracks the mean
//! event spacing, which the queue re-derives from the live ends at every
//! resize. The binary heap it replaced is kept behind the same
//! [`Calendar`] facade as an in-tree equivalence oracle
//! ([`CalendarKind::Heap`]): the engine's results must be bit-identical
//! under either calendar, which the calendar pair of the oracle harness
//! ([`crate::oracle`]) enforces over its whole corpus.
//!
//! Why the choice of calendar cannot affect results: the engine never
//! relies on pop *order* beyond the minimum end value — `collect_due`
//! drains every event within the tolerance window into a
//! position-ordered pending set before any completion is processed, and
//! events with bit-equal ends land in the same bucket, where the token
//! tiebreak reproduces the heap's total order locally.

use std::collections::BinaryHeap;

/// A calendar entry: an activity's known completion time. Ordered as a
/// min-heap on `end` (ties broken by token for a total order). Flow
/// entries are not removed on rate change; they are lazily discarded
/// when popped with an `end` that no longer matches the flow's cached
/// one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CalEv {
    pub(crate) end: f64,
    pub(crate) token: u32,
}

impl PartialEq for CalEv {
    fn eq(&self, other: &Self) -> bool {
        self.token == other.token && self.end.total_cmp(&other.end).is_eq()
    }
}
impl Eq for CalEv {}
impl PartialOrd for CalEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CalEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest end.
        other
            .end
            .total_cmp(&self.end)
            .then_with(|| other.token.cmp(&self.token))
    }
}

/// `(end, token)` strictly-less, in min-first orientation.
fn ev_lt(a: CalEv, b: CalEv) -> bool {
    a.end
        .total_cmp(&b.end)
        .then_with(|| a.token.cmp(&b.token))
        .is_lt()
}

/// Which calendar implementation an engine run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum CalendarKind {
    /// Bucketed calendar queue: O(1) amortized insert and extract-min
    /// (the production default).
    #[default]
    Buckets,
    /// Binary heap: the pre-calendar-queue implementation, kept as an
    /// equivalence oracle (only `simulate_with_calendar`, which the
    /// calendar pair of [`crate::oracle`] calls, selects it).
    #[cfg_attr(not(any(test, feature = "reference-engine")), allow(dead_code))]
    Heap,
}

/// Smallest bucket ring; also the shrink floor.
const MIN_BUCKETS: usize = 16;

/// A bucketed calendar queue. Buckets are unsorted; the dequeue cursor
/// remembers which bucket the current "year" scan reached and events map
/// to buckets by `(end / width) mod nbuckets`. The ring resizes (and
/// re-derives `width` from the observed event spacing) whenever the load
/// factor leaves `[1/4, 2]`.
#[derive(Debug, Clone)]
pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<CalEv>>,
    /// `buckets.len() - 1`; the ring size is a power of two.
    mask: usize,
    /// Seconds of simulated time each bucket covers.
    width: f64,
    len: usize,
    /// The bucket the next extract-min scan starts from.
    cur: usize,
    /// Upper time edge of `cur`'s window in the current year. Invariant:
    /// every live event's end is `>= bucket_top - width` (pushes below
    /// the window move the cursor back), so the forward year scan cannot
    /// miss the minimum.
    bucket_top: f64,
    /// Cached location of the current minimum `(bucket, slot)`;
    /// invalidated by pop and resize, maintained by push.
    min_cache: Option<(usize, usize)>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            width: 1.0,
            len: 0,
            cur: 0,
            bucket_top: 1.0,
            min_cache: None,
        }
    }
}

impl CalendarQueue {
    fn bucket_of(&self, end: f64) -> usize {
        // The `f64 -> usize` cast saturates (and maps NaN to 0), so
        // non-finite or absurd ends still land in *some* bucket; the
        // direct-search fallback finds them regardless of window math.
        (end / self.width) as usize & self.mask
    }

    /// Moves the cursor to the window containing `end` (or the ring
    /// start for non-finite `end`), preserving the scan invariant.
    fn reposition(&mut self, end: f64) {
        if end.is_finite() {
            let t = (end / self.width).floor();
            self.cur = t as usize & self.mask;
            self.bucket_top = (t + 1.0) * self.width;
        } else {
            self.cur = 0;
            self.bucket_top = self.width;
        }
    }

    pub(crate) fn push(&mut self, ev: CalEv) {
        if self.len >= self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
        // An event below the cursor's window (possible when tolerance
        // popping ran slightly ahead of a subsequent spawn) moves the
        // cursor back; scanning from too early is slower, never wrong.
        if ev.end < self.bucket_top - self.width {
            self.reposition(ev.end);
        }
        let b = self.bucket_of(ev.end);
        self.buckets[b].push(ev);
        self.len += 1;
        if let Some((mb, ms)) = self.min_cache {
            if ev_lt(ev, self.buckets[mb][ms]) {
                self.min_cache = Some((b, self.buckets[b].len() - 1));
            }
        }
    }

    pub(crate) fn peek(&mut self) -> Option<CalEv> {
        self.find_min().map(|(b, s)| self.buckets[b][s])
    }

    pub(crate) fn pop(&mut self) -> Option<CalEv> {
        let (b, s) = self.find_min()?;
        let ev = self.buckets[b].swap_remove(s);
        self.len -= 1;
        self.min_cache = None;
        if self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        Some(ev)
    }

    /// Empties the queue in place, keeping the ring and per-bucket
    /// allocations (and the learned width) for the next run.
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.cur = 0;
        self.bucket_top = self.width;
        self.min_cache = None;
    }

    /// Locates the minimum event: one "year" scan from the cursor, then
    /// a direct search over everything (the fallback that makes sparse
    /// or pathological float distributions merely slow, never wrong).
    fn find_min(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        if self.min_cache.is_some() {
            return self.min_cache;
        }
        let n = self.buckets.len();
        let mut i = self.cur;
        let mut top = self.bucket_top;
        for _ in 0..n {
            let mut best: Option<(usize, CalEv)> = None;
            for (s, &ev) in self.buckets[i].iter().enumerate() {
                if ev.end < top && best.is_none_or(|(_, b)| ev_lt(ev, b)) {
                    best = Some((s, ev));
                }
            }
            if let Some((s, _)) = best {
                self.cur = i;
                self.bucket_top = top;
                self.min_cache = Some((i, s));
                return self.min_cache;
            }
            i = (i + 1) & self.mask;
            top += self.width;
        }
        let mut best: Option<(usize, usize, CalEv)> = None;
        for (bi, bucket) in self.buckets.iter().enumerate() {
            for (s, &ev) in bucket.iter().enumerate() {
                if best.is_none_or(|(_, _, b)| ev_lt(ev, b)) {
                    best = Some((bi, s, ev));
                }
            }
        }
        let (bi, s, ev) = best.expect("len > 0 implies a minimum exists");
        self.reposition(ev.end);
        self.min_cache = Some((bi, s));
        self.min_cache
    }

    /// Rebuilds the ring at `new_n` buckets with a width re-derived from
    /// the observed spacing of the live events (range / count), clamped
    /// away from zero so bucket indexing stays meaningful when events
    /// cluster at one instant.
    fn resize(&mut self, new_n: usize) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for bucket in &self.buckets {
            for ev in bucket {
                if ev.end.is_finite() {
                    lo = lo.min(ev.end);
                    hi = hi.max(ev.end);
                }
            }
        }
        let spacing = if hi > lo && self.len > 1 {
            (hi - lo) / self.len as f64
        } else {
            self.width
        };
        self.width = spacing.max(f64::EPSILON * hi.abs().max(1.0));
        let old = std::mem::replace(&mut self.buckets, vec![Vec::new(); new_n]);
        self.mask = new_n - 1;
        for bucket in old {
            for ev in bucket {
                let b = self.bucket_of(ev.end);
                self.buckets[b].push(ev);
            }
        }
        self.min_cache = None;
        self.reposition(if lo.is_finite() { lo } else { f64::INFINITY });
    }
}

/// The engine-facing calendar facade: one API over both implementations
/// so the equivalence oracle can swap them per run.
#[derive(Debug, Clone)]
pub(crate) enum Calendar {
    /// Binary-heap calendar (oracle).
    Heap(BinaryHeap<CalEv>),
    /// Bucketed calendar queue (production).
    Buckets(CalendarQueue),
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar::Buckets(CalendarQueue::default())
    }
}

impl Calendar {
    /// Empties the calendar for a new run of the given kind, keeping
    /// allocations when the kind matches the current variant.
    pub(crate) fn reset(&mut self, kind: CalendarKind) {
        match (kind, &mut *self) {
            (CalendarKind::Heap, Calendar::Heap(h)) => h.clear(),
            (CalendarKind::Buckets, Calendar::Buckets(q)) => q.clear(),
            (CalendarKind::Heap, slot) => *slot = Calendar::Heap(BinaryHeap::new()),
            (CalendarKind::Buckets, slot) => *slot = Calendar::Buckets(CalendarQueue::default()),
        }
    }

    pub(crate) fn push(&mut self, ev: CalEv) {
        match self {
            Calendar::Heap(h) => h.push(ev),
            Calendar::Buckets(q) => q.push(ev),
        }
    }

    pub(crate) fn peek(&mut self) -> Option<CalEv> {
        match self {
            Calendar::Heap(h) => h.peek().copied(),
            Calendar::Buckets(q) => q.peek(),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<CalEv> {
        match self {
            Calendar::Heap(h) => h.pop(),
            Calendar::Buckets(q) => q.pop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(end: f64, token: u32) -> CalEv {
        CalEv { end, token }
    }

    /// Drains a calendar, returning `(end, token)` pairs in pop order.
    fn drain(c: &mut Calendar) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = c.pop() {
            out.push((e.end, e.token));
        }
        out
    }

    /// splitmix64, for dependency-free deterministic fuzz.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn pops_in_end_then_token_order() {
        let mut q = Calendar::Buckets(CalendarQueue::default());
        for (end, token) in [(5.0, 1), (1.0, 2), (5.0, 0), (0.5, 3), (2.5, 4)] {
            q.push(ev(end, token));
        }
        assert_eq!(
            drain(&mut q),
            vec![(0.5, 3), (1.0, 2), (2.5, 4), (5.0, 0), (5.0, 1)]
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn matches_heap_on_fuzzed_interleavings() {
        let mut state = 0xC0FF_EE00_u64;
        for round in 0..50 {
            let mut heap = Calendar::Heap(BinaryHeap::new());
            let mut buckets = Calendar::Buckets(CalendarQueue::default());
            let mut now = 0.0f64;
            let n_ops = 20 + (mix(&mut state) % 400) as usize;
            for tok in 0..n_ops as u32 {
                let r = mix(&mut state);
                if r.is_multiple_of(5) {
                    // Interleave pops; both must agree at every step.
                    let (a, b) = (heap.pop(), buckets.pop());
                    assert_eq!(a.map(|e| (e.end, e.token)), b.map(|e| (e.end, e.token)));
                    if let Some(e) = a {
                        if e.end.is_finite() {
                            now = now.max(e.end);
                        }
                    }
                } else {
                    // Mixed scales: sub-second to ~1e6 s, plus bit-equal
                    // duplicate ends and occasional infinities.
                    let end = match r % 7 {
                        0 => now, // born-done events at the current time
                        1 => f64::INFINITY,
                        2 => now + (mix(&mut state) % 1000) as f64 * 1e-9,
                        3 => now + (mix(&mut state) % 1000) as f64 * 1e6,
                        _ => now + (mix(&mut state) % 1_000_000) as f64 * 1e-3,
                    };
                    heap.push(ev(end, tok));
                    buckets.push(ev(end, tok));
                }
                let (a, b) = (heap.peek(), buckets.peek());
                assert_eq!(
                    a.map(|e| (e.end, e.token)),
                    b.map(|e| (e.end, e.token)),
                    "round {round}"
                );
            }
            assert_eq!(drain(&mut heap), drain(&mut buckets), "round {round}");
        }
    }

    #[test]
    fn push_below_cursor_window_is_found() {
        let mut q = CalendarQueue::default();
        // Advance the cursor deep into the ring...
        for t in 0..40u32 {
            q.push(ev(t as f64 * 3.7, t));
        }
        for _ in 0..39 {
            q.pop();
        }
        let high = q.peek().unwrap();
        // ...then insert an event earlier than the cursor's window.
        q.push(ev(high.end - 2.0, 1000));
        assert_eq!(q.pop().unwrap().token, 1000);
        assert_eq!(q.pop().unwrap().token, high.token);
    }

    #[test]
    fn infinities_and_clustered_ends_survive_resizes() {
        let mut q = CalendarQueue::default();
        // All at one instant (degenerate spacing) plus infinities: grow
        // and shrink through several resizes.
        for t in 0..200u32 {
            let end = if t % 10 == 0 { f64::INFINITY } else { 42.0 };
            q.push(ev(end, t));
        }
        let mut last = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some(e) = q.pop() {
            assert!(e.end >= last);
            last = e.end;
            count += 1;
        }
        assert_eq!(count, 200);
        assert!(last.is_infinite());
    }

    #[test]
    fn reset_keeps_kind_and_empties() {
        let mut c = Calendar::default();
        c.push(ev(1.0, 0));
        c.reset(CalendarKind::Buckets);
        assert!(c.pop().is_none());
        c.reset(CalendarKind::Heap);
        assert!(matches!(c, Calendar::Heap(_)));
        c.push(ev(2.0, 1));
        c.reset(CalendarKind::Heap);
        assert!(c.pop().is_none());
    }
}
