//! Budget admission: the per-experiment containment budgets
//! ([`Simulation::set_budget`]), the check that admits or refuses each
//! event against them, and the accounting every admitted event pays,
//! runaway guard included.

use super::{Dispatch, Event, Simulation};
use crate::queue::TimerKey;

/// The runaway guard: a world that processes more events than this in one
/// run panics. The only bound on an experiment with no budget armed
/// ([`Simulation::set_budget`]).
const MAX_EVENTS: u64 = 50_000_000;

/// Which per-experiment containment budget a world exhausted (see
/// [`Simulation::set_budget`]). A tripped world refuses further events
/// and reads as drained to its driver; the harness maps this into a
/// typed experiment failure.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The virtual-time ceiling was passed: the next pending event was
    /// scheduled after the allowed horizon.
    VirtualTime,
    /// The event-count ceiling was reached.
    Events,
}

impl<M: 'static, A: Dispatch<M>> Simulation<M, A> {
    /// Arms per-experiment containment budgets: a virtual-time ceiling
    /// (events scheduled after `max_virtual_ns` never run) and an
    /// event-count ceiling. `None` leaves a ceiling unbounded; both
    /// `None` disarms the check entirely, restoring the zero-cost hot
    /// path (unlike the 50 M-event runaway guard, which always applies
    /// and panics).
    ///
    /// Armed, [`Simulation::step`] refuses the first event past either
    /// ceiling and [`Simulation::budget_exceeded`] reports which ceiling
    /// tripped. The trip point depends only on the world's own event
    /// sequence — never on how the world is driven — so it is identical
    /// across `step`/`run`/`run_until`.
    pub fn set_budget(&mut self, max_virtual_ns: Option<u64>, max_events: Option<u64>) {
        self.budget_virtual_ns = max_virtual_ns.unwrap_or(u64::MAX);
        self.budget_events = max_events.unwrap_or(u64::MAX);
        self.budget_armed = max_virtual_ns.is_some() || max_events.is_some();
        if !self.budget_armed {
            self.budget_tripped = None;
        }
    }

    /// Which containment budget tripped, if any (see
    /// [`Simulation::set_budget`]). Cleared by [`Simulation::reset`].
    pub fn budget_exceeded(&self) -> Option<BudgetExceeded> {
        self.budget_tripped
    }

    /// Armed-path admission check: trips a budget when the next event
    /// would pass a ceiling, and refuses it. Deterministic for any
    /// driver because it reads only `events_processed`, the next event's
    /// scheduled time, and that event's target-liveness — all invariant
    /// under burst shape. Under both ceilings it reads only the head's
    /// time; the body (and so its slab slot) is read once a ceiling is
    /// passed.
    ///
    /// Garbage head events — a cancelled timer, or any event addressed
    /// to a dead actor — are discarded rather than tripped on: processing
    /// one is a no-op in every drive pattern, and an experiment that has
    /// in fact finished routinely leaves such events behind (an exited
    /// daemon's far-future watchdog timer, exit-race deliveries). Tripping
    /// on those would fail healthy experiments. The discard happens only
    /// when a ceiling is already passed, so the disarmed and under-budget
    /// hot paths are untouched.
    #[inline]
    pub(super) fn budget_admit(&mut self) -> bool {
        if self.budget_tripped.is_some() {
            return false;
        }
        loop {
            let Some(time) = self.queue.peek_time() else {
                // Empty queue: admit; `step` observes the drain itself.
                return true;
            };
            let Some(exceeded) = self.over_budget(time) else {
                return true;
            };
            let Some((_, event)) = self.queue.peek() else {
                return true;
            };
            let target = match event {
                Event::Start { actor } => *actor,
                Event::Deliver { to, .. } => *to,
                Event::Timer { actor, .. } => *actor,
                Event::PeerDown { observer, .. } => *observer,
            };
            let cancelled = match event {
                Event::Timer { id, .. } => !self.timers.pending(TimerKey::unpack(id.0)),
                _ => false,
            };
            if self.is_alive(target) && !cancelled {
                self.budget_tripped = Some(exceeded);
                return false;
            }
            if let Some((_, Event::Timer { id, .. })) = self.queue.pop() {
                // Release the slot of a live timer on a dead actor (a
                // cancelled one was already retired by `cancel`).
                self.timers.fire(TimerKey::unpack(id.0));
            }
        }
    }

    /// The ceiling an event scheduled at `time` would pass, if any: the
    /// event count is checked before the virtual-time horizon.
    #[inline]
    fn over_budget(&self, time: u64) -> Option<BudgetExceeded> {
        if self.events_processed >= self.budget_events {
            Some(BudgetExceeded::Events)
        } else if time > self.budget_virtual_ns {
            Some(BudgetExceeded::VirtualTime)
        } else {
            None
        }
    }

    /// [`Simulation::step`]'s admission for an event that never sat in
    /// the queue (see [`Simulation::run_exchanges`]) and whose target is
    /// alive: passing a ceiling trips the budget, there is no garbage to
    /// discard.
    #[inline]
    pub(crate) fn admit_live(&mut self, time: u64) -> bool {
        if !self.budget_armed {
            return true;
        }
        if self.budget_tripped.is_none() {
            self.budget_tripped = self.over_budget(time);
        }
        self.budget_tripped.is_none()
    }

    /// The accounting every admitted event pays, queued or not: the event
    /// count, the runaway guard, and the clock.
    #[inline]
    pub(crate) fn begin_event(&mut self, time: u64) {
        self.events_processed += 1;
        assert!(
            self.events_processed <= MAX_EVENTS,
            "simulation exceeded {MAX_EVENTS} events — runaway?"
        );
        debug_assert!(time >= self.time, "time went backwards");
        self.time = time;
    }
}
