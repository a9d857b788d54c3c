//! The hash-free, allocation-lean event core: an index heap over a
//! free-list slab, split into a timer heap and a message heap, and a
//! generation-stamped timer slab.
//!
//! Both structures exist to keep [`Simulation::step`](crate::engine::Simulation::step)
//! free of hashing and per-event allocation in the steady state:
//!
//! * [`EventQueue`] — the priority queue keeps only packed
//!   `(time, seq·slot)` keys (16 bytes) in std's binary heaps while the
//!   event bodies park in one slab recycled through an intrusive free
//!   list. Heap sifts therefore move small fixed-size keys instead of full
//!   message payloads. Once the slab has grown to the simulation's
//!   high-water mark of in-flight events, pushing an event allocates
//!   nothing. std's pop sifts the hole to the bottom picking the smaller
//!   child with one compare per level, then sifts the moved key up from
//!   the leaf. The hand-rolled 4-ary heap it replaced made three
//!   data-dependent child compares per level plus one against the moved
//!   key, and was slower at both depths the campaign benchmark's ledger
//!   holds (`sim.queue_d64_ns_per_op` / `sim.queue_d4096_ns_per_op`,
//!   medians of four runs on a 2-core Xeon: 4-ary 15.7 / 31.7 ns per op,
//!   binary 11.6 / 19.7 ns).
//! * **Two heaps, one `seq`.** Timers ([`EventQueue::push_timer`]) wait in
//!   a heap of their own; deliveries, starts and peer-downs
//!   ([`EventQueue::push`]) in the other. A retry storm keeps dozens of
//!   timers pending (watchdogs, backoffs) while most pops are messages
//!   that were pushed a link delay ago: in one heap every such push and
//!   pop sifts past every pending timer, in two it sifts only past the
//!   other messages. Pop takes the smaller `(time, seq)` of the two heads
//!   — one extra key compare — and because both heaps draw `seq` from the
//!   one counter, that is exactly the order one heap of all keys pops in.
//!   An event's kind picks its heap; there is no knob.
//! * [`TimerSlab`] — live timers occupy generation-stamped slots.
//!   Cancelling is one array write (bump the generation); the pop-side
//!   liveness check is one generation compare. Unlike a tombstone set,
//!   cancel-heavy workloads (watchdogs that re-arm on every message) reuse
//!   a bounded set of slots instead of growing without bound.
//!
//! Pop order is total on `(time, seq)` with `seq` assigned in push order,
//! which is exactly the ordering contract of the previous
//! full-payload heap — the engine's determinism guarantee is preserved by
//! construction and pinned by the equivalence proptest in
//! `tests/prop_sim.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no next free slot" in the intrusive free lists.
const NIL: u32 = u32::MAX;

/// The packed heap key: event bodies stay in the slab, the heap orders
/// only these. One `u128` laid out as `time (high 64) | seq (next 32) |
/// slot (low 32)`, so a key is 16 bytes and the heap's ordering identity —
/// `(time, seq)` ascending, total because `seq` is unique — is a single
/// integer comparison (the slot bits sit below `seq` and can never decide
/// it). Because the order is total, every conforming heap pops the same
/// sequence: the heap's shape is unobservable.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey(u128);

impl HeapKey {
    #[inline]
    fn new(time: u64, seq: u32, slot: u32) -> Self {
        HeapKey((u128::from(time) << 64) | (u128::from(seq) << 32) | u128::from(slot))
    }

    #[inline]
    fn time(self) -> u64 {
        (self.0 >> 64) as u64
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }
}

enum Slot<T> {
    /// Free slot, linking to the next free one (`NIL` ends the list).
    Vacant { next: u32 },
    /// An event body waiting for its key to surface in the heap.
    Occupied(T),
}

/// A time-ordered event queue: two std `BinaryHeap`s of packed 16-byte
/// keys — timers in one, everything else in the other — over one
/// free-list slab of bodies.
///
/// Entries pop in `(time, insertion order)` across both heaps — ties on
/// `time` resolve to the earlier push, whichever method pushed it,
/// matching a `BinaryHeap<(Reverse(time, seq), body)>` byte for byte while
/// never moving the bodies during sifts.
///
/// # Examples
///
/// ```
/// use loki_sim::queue::EventQueue;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.push(20, "late");
/// q.push_timer(10, "first");
/// q.push(10, "second"); // same time: pops after "first", a timer pushed earlier
/// assert_eq!(q.peek_time(), Some(10));
/// assert_eq!(q.pop(), Some((10, "first")));
/// assert_eq!(q.pop(), Some((10, "second")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    /// Keys of deliveries, starts and peer-downs.
    events: BinaryHeap<Reverse<HeapKey>>,
    /// Keys of timers.
    timers: BinaryHeap<Reverse<HeapKey>>,
    slab: Vec<Slot<T>>,
    free_head: u32,
    /// Shared by both heaps, so their keys order as one heap's would.
    seq: u32,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: BinaryHeap::new(),
            timers: BinaryHeap::new(),
            slab: Vec::new(),
            free_head: NIL,
            seq: 0,
        }
    }

    /// Schedules `body` at `time`. Amortized allocation-free once the slab
    /// reaches the queue's high-water mark.
    #[inline]
    pub fn push(&mut self, time: u64, body: T) {
        let key = self.key_for(time, body);
        self.events.push(Reverse(key));
    }

    /// Schedules the timer `body` at `time`, in the timer heap. Pops in
    /// the same `(time, seq)` order as [`EventQueue::push`]; only the
    /// heap it waits in differs.
    #[inline]
    pub fn push_timer(&mut self, time: u64, body: T) {
        let key = self.key_for(time, body);
        self.timers.push(Reverse(key));
    }

    /// Parks `body` in a slab slot and returns its key, drawing the next
    /// `seq`.
    #[inline]
    fn key_for(&mut self, time: u64, body: T) -> HeapKey {
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            match std::mem::replace(&mut self.slab[slot as usize], Slot::Occupied(body)) {
                Slot::Vacant { next } => self.free_head = next,
                Slot::Occupied(_) => unreachable!("free list pointed at an occupied slot"),
            }
            slot
        } else {
            let slot = u32::try_from(self.slab.len()).expect("event slab overflow");
            self.slab.push(Slot::Occupied(body));
            slot
        };
        let seq = self.seq;
        // `seq` rewinds on every `reset` (one experiment), so 2^32 pushes
        // between resets is out of any real campaign's reach — reject it
        // loudly rather than let a wrapped sequence reorder ties.
        self.seq = self.seq.checked_add(1).expect("event sequence overflow");
        HeapKey::new(time, seq, slot)
    }

    /// Whether the earliest entry is the timer heap's head.
    #[inline]
    fn timer_first(&self) -> bool {
        match (self.events.peek(), self.timers.peek()) {
            (Some(event), Some(timer)) => timer.0 < event.0,
            (event, _) => event.is_none(),
        }
    }

    /// The earliest key of either heap.
    #[inline]
    fn head(&self) -> Option<HeapKey> {
        let heap = if self.timer_first() {
            &self.timers
        } else {
            &self.events
        };
        heap.peek().map(|k| k.0)
    }

    /// Pops the earliest entry as `(time, body)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let heap = if self.timer_first() {
            &mut self.timers
        } else {
            &mut self.events
        };
        let Reverse(key) = heap.pop()?;
        let slot = key.slot();
        let next = self.free_head;
        self.free_head = slot;
        match std::mem::replace(&mut self.slab[slot as usize], Slot::Vacant { next }) {
            Slot::Occupied(body) => Some((key.time(), body)),
            Slot::Vacant { .. } => unreachable!("heap key pointed at a vacant slot"),
        }
    }

    /// The scheduled time of the earliest entry.
    #[inline]
    pub fn peek_time(&self) -> Option<u64> {
        self.head().map(HeapKey::time)
    }

    /// The earliest entry as `(time, &body)`, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u64, &T)> {
        let key = self.head()?;
        match &self.slab[key.slot() as usize] {
            Slot::Occupied(body) => Some((key.time(), body)),
            Slot::Vacant { .. } => unreachable!("heap key pointed at a vacant slot"),
        }
    }

    /// Number of pending entries, in both heaps.
    pub fn len(&self) -> usize {
        self.events.len() + self.timers.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.timers.is_empty()
    }

    /// Number of slab slots ever allocated — the high-water mark of
    /// concurrently pending events (slots are recycled, not dropped).
    pub fn slab_slots(&self) -> usize {
        self.slab.len()
    }

    /// Clears the queue while keeping every allocation: both heaps'
    /// buffers and the slab's slots survive for the next run, so a
    /// simulation reused across experiments stops growing once the first
    /// experiment has established the high-water mark.
    ///
    /// Any still-queued bodies are dropped, the sequence counter rewinds
    /// to zero, and the free list is rebuilt in ascending slot order —
    /// pushes after a reset fill slots `0, 1, 2, …` exactly like pushes
    /// into a fresh queue, so a reset queue is observationally identical
    /// to a new one (pop order depends only on `(time, seq)`).
    pub fn reset(&mut self) {
        self.events.clear();
        self.timers.clear();
        self.seq = 0;
        let len = self.slab.len() as u32;
        for (i, slot) in self.slab.iter_mut().enumerate() {
            let next = if i as u32 + 1 == len {
                NIL
            } else {
                i as u32 + 1
            };
            *slot = Slot::Vacant { next };
        }
        self.free_head = if len == 0 { NIL } else { 0 };
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A live timer registration handle: slot plus the generation it was
/// allocated under. Packs into the `u64` inside the engine's opaque
/// `TimerId`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TimerKey {
    slot: u32,
    gen: u32,
}

impl TimerKey {
    /// Packs the key into a `u64` (`generation << 32 | slot`).
    #[inline]
    pub fn pack(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.slot)
    }

    /// Unpacks a key produced by [`TimerKey::pack`].
    #[inline]
    pub fn unpack(raw: u64) -> TimerKey {
        TimerKey {
            slot: raw as u32,
            gen: (raw >> 32) as u32,
        }
    }
}

/// Generation-stamped timer registrations.
///
/// Each armed timer holds a slot; the slot's generation is bumped when the
/// timer is cancelled or fires, so stale handles (and the timer's
/// still-queued pop event) fail a single integer compare. Slots recycle
/// through a free list: a watchdog that arms and cancels a timer per
/// message occupies O(concurrently-armed) slots forever, where the
/// tombstone-set design this replaces grew O(total-cancellations).
///
/// # Examples
///
/// ```
/// use loki_sim::queue::TimerSlab;
///
/// let mut timers = TimerSlab::new();
/// let a = timers.alloc();
/// assert!(timers.cancel(a));
/// assert!(!timers.fire(a)); // cancelled: the queued pop is skipped
/// let b = timers.alloc(); // reuses the slot under a new generation
/// assert!(timers.fire(b));
/// assert_eq!(timers.slots(), 1);
/// ```
pub struct TimerSlab {
    /// Current generation per slot. A handle is live iff its generation
    /// matches.
    gens: Vec<u32>,
    /// Free slots (retired by cancel or fire).
    free: Vec<u32>,
}

impl TimerSlab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        TimerSlab {
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Registers a new timer, reusing a retired slot when one exists.
    #[inline]
    pub fn alloc(&mut self) -> TimerKey {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.gens.len()).expect("timer slab overflow");
                self.gens.push(0);
                slot
            }
        };
        TimerKey {
            slot,
            gen: self.gens[slot as usize],
        }
    }

    /// Cancels `key`. Returns whether it was still live; a handle that
    /// already fired or was already cancelled is a no-op (`false`).
    #[inline]
    pub fn cancel(&mut self, key: TimerKey) -> bool {
        self.retire(key)
    }

    /// Pop-side liveness check: returns `true` (and retires the slot) when
    /// `key` is still live, `false` when it was cancelled in the meantime.
    #[inline]
    pub fn fire(&mut self, key: TimerKey) -> bool {
        self.retire(key)
    }

    /// Whether `key` is still live (armed, neither fired nor cancelled),
    /// without retiring it.
    #[inline]
    pub fn pending(&self, key: TimerKey) -> bool {
        self.gens.get(key.slot as usize) == Some(&key.gen)
    }

    #[inline]
    fn retire(&mut self, key: TimerKey) -> bool {
        let gen = &mut self.gens[key.slot as usize];
        if *gen != key.gen {
            return false;
        }
        // Wrapping: a slot reused 2^32 times aliases an ancient handle,
        // which no real campaign holds across that many arms.
        *gen = gen.wrapping_add(1);
        self.free.push(key.slot);
        true
    }

    /// Total slots ever allocated — the high-water mark of concurrently
    /// armed timers, not of total arm/cancel traffic.
    pub fn slots(&self) -> usize {
        self.gens.len()
    }

    /// Number of currently live registrations.
    pub fn live(&self) -> usize {
        self.gens.len() - self.free.len()
    }

    /// Retires every registration while keeping the slot allocations.
    ///
    /// Each slot's generation is bumped, so every handle issued before the
    /// reset — live or not — fails its liveness check afterwards; the free
    /// list is rebuilt so allocations after a reset hand out slots
    /// `0, 1, 2, …` in the same order a fresh slab would.
    pub fn reset(&mut self) {
        self.free.clear();
        for slot in (0..self.gens.len() as u32).rev() {
            self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
            self.free.push(slot);
        }
    }
}

impl Default for TimerSlab {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_push_order() {
        let mut q = EventQueue::new();
        q.push(5, 'a');
        q.push(3, 'b');
        q.push(5, 'c');
        q.push(1, 'd');
        let order: Vec<(u64, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, 'd'), (3, 'b'), (5, 'a'), (5, 'c')]);
    }

    #[test]
    fn ties_across_the_two_heaps_pop_in_push_order() {
        let mut q = EventQueue::new();
        q.push_timer(5, 'a');
        q.push(5, 'b');
        q.push_timer(5, 'c');
        q.push(3, 'd');
        q.push_timer(3, 'e');
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek(), Some((3, &'d')));
        let order: Vec<(u64, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(3, 'd'), (3, 'e'), (5, 'a'), (5, 'b'), (5, 'c')]
        );
        assert!(q.is_empty());
        // Both heaps share one slab.
        assert_eq!(q.slab_slots(), 5);
    }

    #[test]
    fn slab_recycles_slots() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.push(round, round);
            assert_eq!(q.pop(), Some((round, round)));
        }
        assert_eq!(q.slab_slots(), 1, "drain-refill must reuse one slot");
        for i in 0..8u64 {
            q.push(i, i);
        }
        assert_eq!(q.slab_slots(), 8);
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn timer_generations_protect_reused_slots() {
        let mut timers = TimerSlab::new();
        let a = timers.alloc();
        let b = timers.alloc();
        assert_eq!(timers.live(), 2);
        assert!(timers.cancel(a));
        assert!(!timers.cancel(a), "double cancel is a no-op");
        let c = timers.alloc(); // reuses a's slot
        assert_eq!(timers.slots(), 2);
        assert!(!timers.fire(a), "stale handle must not fire the new timer");
        assert!(timers.fire(c));
        assert!(timers.fire(b));
        assert_eq!(timers.live(), 0);
    }

    #[test]
    fn queue_reset_keeps_slots_and_replays_like_fresh() {
        let mut q = EventQueue::new();
        for i in 0..16u64 {
            q.push(100 - i, i);
        }
        for _ in 0..4 {
            q.pop();
        }
        assert_eq!(q.slab_slots(), 16);

        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.slab_slots(), 16, "reset must keep the slab allocation");

        // A reset queue behaves exactly like a fresh one: same pop order
        // (seq rewound) and no slab growth while refilling up to the old
        // high-water mark.
        let mut fresh = EventQueue::new();
        for i in 0..16u64 {
            q.push(i % 5, i);
            fresh.push(i % 5, i);
        }
        assert_eq!(q.slab_slots(), 16, "refill within the mark must not grow");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let fresh_drained: Vec<_> = std::iter::from_fn(|| fresh.pop()).collect();
        assert_eq!(drained, fresh_drained);
    }

    #[test]
    fn timer_reset_invalidates_old_handles_and_keeps_slots() {
        let mut timers = TimerSlab::new();
        let live = timers.alloc();
        let retired = timers.alloc();
        assert!(timers.cancel(retired));
        assert_eq!(timers.slots(), 2);

        timers.reset();
        assert_eq!(timers.live(), 0);
        assert_eq!(timers.slots(), 2, "reset must keep the slot allocations");
        assert!(!timers.fire(live), "pre-reset handles must be dead");
        assert!(!timers.cancel(retired));

        // Allocation order after a reset matches a fresh slab: slot 0
        // first, and no growth until the old high-water mark is passed.
        let a = timers.alloc();
        let b = timers.alloc();
        assert_eq!(timers.slots(), 2);
        assert!(timers.fire(a));
        assert!(timers.fire(b));
        let _ = timers.alloc();
        let _ = timers.alloc();
        let _ = timers.alloc();
        assert_eq!(timers.slots(), 3, "growth resumes past the mark");
    }

    #[test]
    fn timer_key_packs_roundtrip() {
        let key = TimerKey { slot: 7, gen: 42 };
        assert_eq!(TimerKey::unpack(key.pack()), key);
        let max = TimerKey {
            slot: u32::MAX - 1,
            gen: u32::MAX,
        };
        assert_eq!(TimerKey::unpack(max.pack()), max);
    }
}
