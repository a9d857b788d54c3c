//! Shared experiment stores.
//!
//! The thesis's runtime persists local timelines to NFS-mounted files so
//! that (a) a restarted node can discover its earlier life and (b) the
//! local daemon can append a crash record to a dead node's timeline
//! (§3.6.2–3.6.3). In the simulator these stores play the role of
//! that shared filesystem: they are *storage*, not a communication channel —
//! runtime coordination flows exclusively through messages.
//!
//! Each store is a plain interior-mutability cell (no `Rc` of its own):
//! they live side by side inside the single per-experiment
//! `Rc<ExpCtx>`, so an actor clone is one refcount bump and a field
//! access is one pointer chase. State machine and host ids are dense per
//! study, so the stores index by raw id instead of hashing, and every
//! drain emits ascending-id order without a sort. Recycled timeline
//! shells keep their capacity across experiments — the campaign driver's
//! steady state allocates nothing here.

use loki_core::campaign::ExperimentEnd;
use loki_core::ids::{HostId, SmId};
use loki_core::recorder::LocalTimeline;
use loki_core::time::LocalNanos;
use loki_sim::engine::ActorId;
use std::cell::{Cell, RefCell};

/// The "NFS-mounted" timeline storage: one timeline per state machine,
/// dense by machine id.
///
/// Drained timelines come back through [`TimelineStore::reclaim`] as empty
/// *shells* whose `records`/`stints` capacity survives;
/// [`TimelineStore::begin_life`] hands a fresh life a recycled shell
/// before allocating a new one. A recycled shell is observationally
/// identical to a fresh timeline — contents are fully reset, only
/// capacity is retained.
#[derive(Debug, Default)]
pub struct TimelineStore {
    /// Live timelines, indexed by `SmId::raw()`.
    lives: RefCell<Vec<Option<LocalTimeline>>>,
    /// Empty shells with retained capacity, awaiting the next first life.
    spare: RefCell<Vec<LocalTimeline>>,
    /// Recycled outer vectors for [`TimelineStore::drain`].
    spare_drain: RefCell<Vec<Vec<LocalTimeline>>>,
    /// Lives that started on a recycled shell instead of a fresh
    /// allocation (a diagnostics counter, like the engine's
    /// `timer_slots`).
    shell_reuses: Cell<u64>,
}

impl TimelineStore {
    fn slot_mut<R>(&self, sm: SmId, f: impl FnOnce(&mut Option<LocalTimeline>) -> R) -> R {
        let mut lives = self.lives.borrow_mut();
        let idx = sm.raw() as usize;
        if idx >= lives.len() {
            lives.resize_with(idx + 1, || None);
        }
        f(&mut lives[idx])
    }

    /// Applies `f` to the stored timeline for `sm` (e.g. the daemon
    /// appending a crash record).
    pub fn with_mut<R>(&self, sm: SmId, f: impl FnOnce(&mut LocalTimeline) -> R) -> Option<R> {
        self.slot_mut(sm, |slot| slot.as_mut().map(f))
    }

    /// Opens a life of `sm` on `host` at local time `now` and returns
    /// whether it is a restart: an existing timeline gets the §3.6.3
    /// restart bookkeeping appended in place, a first life begins on a
    /// recycled (or fresh) shell. The stored timeline is exactly what the
    /// equivalent `Recorder::resume`/`Recorder::new` round-trip produces.
    pub fn begin_life(&self, sm: SmId, now: LocalNanos, host: HostId) -> bool {
        self.slot_mut(sm, |slot| match slot {
            Some(timeline) => {
                timeline.resume_on(now, host);
                true
            }
            None => {
                let mut shell = match self.spare.borrow_mut().pop() {
                    Some(shell) => {
                        self.shell_reuses.set(self.shell_reuses.get() + 1);
                        shell
                    }
                    None => LocalTimeline::empty_shell(),
                };
                shell.reset_for(sm, host);
                *slot = Some(shell);
                false
            }
        })
    }

    /// Drains every stored timeline (end of experiment) in machine-id
    /// order. The returned vector is itself recycled via
    /// [`TimelineStore::reclaim`].
    pub fn drain(&self) -> Vec<LocalTimeline> {
        let mut out = self.spare_drain.borrow_mut().pop().unwrap_or_default();
        for slot in self.lives.borrow_mut().iter_mut() {
            if let Some(timeline) = slot.take() {
                out.push(timeline);
            }
        }
        out
    }

    /// Returns drained timelines to the shell pool: contents are cleared
    /// (capacity retained) and both the shells and the outer vector feed
    /// future [`TimelineStore::begin_life`]/[`TimelineStore::drain`] calls.
    pub fn reclaim(&self, mut drained: Vec<LocalTimeline>) {
        let mut spare = self.spare.borrow_mut();
        for mut timeline in drained.drain(..) {
            timeline.records.clear();
            timeline.stints.clear();
            spare.push(timeline);
        }
        self.spare_drain.borrow_mut().push(drained);
    }

    /// Number of lives begun on a recycled shell (diagnostics).
    pub fn shell_reuses(&self) -> u64 {
        self.shell_reuses.get()
    }
}

/// How the experiment ended, as far as anything has decided it: the one
/// cell the central daemon, the node actors and the harness share.
#[derive(Debug, Default)]
pub struct ExperimentControl {
    end: Cell<Option<ExperimentEnd>>,
}

impl ExperimentControl {
    /// Records `end`. The central daemon decides at most one end —
    /// completion, timeout or abort (§3.5.1). A containment failure (an
    /// application panic, a budget trip) beats it, whenever it comes, and
    /// the first failure wins: a budget trip followed by a teardown panic
    /// still reports the budget, which is what actually ended the run.
    pub fn mark(&self, end: ExperimentEnd) {
        let replaces = match self.end.get() {
            None => true,
            Some(marked) => marked.failure().is_none() && end.failure().is_some(),
        };
        if replaces {
            self.end.set(Some(end));
        }
    }

    /// Takes the recorded end, leaving the block unmarked for the next
    /// experiment. An experiment nothing marked ended `Aborted`.
    pub fn take(&self) -> ExperimentEnd {
        self.end.take().unwrap_or(ExperimentEnd::Aborted)
    }
}

/// The application's own name service: maps state machines to the actors
/// currently embodying them (for direct application messaging, which in the
/// thesis travels on the system-under-study's own LAN). Dense by machine
/// id, so a lookup is one index.
#[derive(Debug, Default)]
pub struct NodeDirectory {
    inner: RefCell<Vec<Option<ActorId>>>,
}

impl NodeDirectory {
    /// Registers (or replaces) the actor embodying `sm`.
    pub fn insert(&self, sm: SmId, actor: ActorId) {
        let mut slots = self.inner.borrow_mut();
        let idx = sm.raw() as usize;
        if idx >= slots.len() {
            slots.resize(idx + 1, None);
        }
        slots[idx] = Some(actor);
    }

    /// Removes `sm` if it is still mapped to `actor` (a stale removal after
    /// a restart must not clobber the new incarnation).
    pub fn remove_if(&self, sm: SmId, actor: ActorId) {
        let mut slots = self.inner.borrow_mut();
        if let Some(slot) = slots.get_mut(sm.raw() as usize) {
            if *slot == Some(actor) {
                *slot = None;
            }
        }
    }

    /// Looks up the actor embodying `sm`.
    pub fn lookup(&self, sm: SmId) -> Option<ActorId> {
        self.inner
            .borrow()
            .get(sm.raw() as usize)
            .copied()
            .flatten()
    }

    /// Empties the directory, keeping its capacity. An aborted or timed-out
    /// experiment can leave machines registered; the campaign driver
    /// clears the recycled directory before the next experiment. Lookup
    /// results are id-addressed, so retained capacity is unobservable.
    pub fn clear(&self) {
        self.inner.borrow_mut().fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::campaign::ExperimentFailure;
    use loki_core::ids::Id;
    use loki_core::recorder::{RecordKind, Recorder, TimelineRecord};

    #[test]
    fn timeline_store_roundtrip() {
        let store = TimelineStore::default();
        let sm = Id::from_raw(3);
        assert_eq!(store.with_mut(sm, |_| ()), None);
        store.begin_life(sm, LocalNanos(0), Id::from_raw(0));
        store.with_mut(sm, |t| {
            t.records.push(TimelineRecord {
                time: LocalNanos(1),
                kind: RecordKind::UserMessage("m".into()),
            });
        });
        let drained = store.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].records.len(), 1);
        assert!(store.drain().is_empty());
    }

    #[test]
    fn drain_is_in_machine_order() {
        let store = TimelineStore::default();
        for i in [2u32, 0, 1] {
            store.begin_life(Id::from_raw(i), LocalNanos(0), Id::from_raw(0));
        }
        let drained = store.drain();
        let ids: Vec<u32> = drained.iter().map(|t| t.sm.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn begin_life_matches_recorder_roundtrip() {
        let store = TimelineStore::default();
        let sm = Id::from_raw(1);
        let h0 = Id::from_raw(0);
        let h1 = Id::from_raw(1);

        // First life == Recorder::new(sm, h0).finish().
        assert!(!store.begin_life(sm, LocalNanos(5), h0));
        let expect = Recorder::new(sm, h0).finish();
        assert_eq!(store.with_mut(sm, |t| t.clone()).unwrap(), expect);

        // Restart == Recorder::resume(prior, now, h1).finish().
        assert!(store.begin_life(sm, LocalNanos(9), h1));
        let expect = Recorder::resume(expect, LocalNanos(9), h1).finish();
        assert_eq!(store.drain(), [expect]);
    }

    #[test]
    fn reclaimed_shells_are_reused_with_capacity() {
        let store = TimelineStore::default();
        let sm = Id::from_raw(0);
        let host = Id::from_raw(0);
        store.begin_life(sm, LocalNanos(0), host);
        store.with_mut(sm, |t| {
            for i in 0..100 {
                t.records.push(TimelineRecord {
                    time: LocalNanos(i),
                    kind: RecordKind::UserMessage("x".into()),
                });
            }
        });
        assert_eq!(store.shell_reuses(), 0);
        store.reclaim(store.drain());

        // The next first life starts on the recycled shell: contents are
        // fresh, record capacity survives.
        store.begin_life(sm, LocalNanos(1), host);
        assert_eq!(store.shell_reuses(), 1);
        let t = store.drain().pop().unwrap();
        assert!(t.records.is_empty());
        assert_eq!(t.stints.len(), 1);
        assert!(t.records.capacity() >= 100, "capacity not retained");
    }

    #[test]
    fn directory_stale_removal_is_ignored() {
        let d = NodeDirectory::default();
        let sm = Id::from_raw(0);
        d.insert(sm, ActorId(1));
        d.insert(sm, ActorId(2)); // restart incarnation
        d.remove_if(sm, ActorId(1)); // stale removal
        assert_eq!(d.lookup(sm), Some(ActorId(2)));
        d.remove_if(sm, ActorId(2));
        assert_eq!(d.lookup(sm), None);
    }

    #[test]
    fn an_unmarked_experiment_reads_as_aborted() {
        let c = ExperimentControl::default();
        assert_eq!(c.take(), ExperimentEnd::Aborted);
        // The central daemon's first end stands, and `take` unmarks.
        c.mark(ExperimentEnd::TimedOut);
        c.mark(ExperimentEnd::Completed);
        assert_eq!(c.take(), ExperimentEnd::TimedOut);
        assert_eq!(c.take(), ExperimentEnd::Aborted);
    }

    #[test]
    fn first_failure_wins() {
        let c = ExperimentControl::default();
        c.mark(ExperimentEnd::Failed(ExperimentFailure::BudgetEvents));
        c.mark(ExperimentEnd::Failed(ExperimentFailure::AppPanic));
        assert_eq!(
            c.take(),
            ExperimentEnd::Failed(ExperimentFailure::BudgetEvents)
        );
    }

    #[test]
    fn a_failure_beats_the_central_daemons_end() {
        let c = ExperimentControl::default();
        c.mark(ExperimentEnd::Failed(ExperimentFailure::AppPanic));
        c.mark(ExperimentEnd::Completed);
        assert_eq!(c.take(), ExperimentEnd::Failed(ExperimentFailure::AppPanic));
        // Also when the failure comes after the central daemon's end.
        c.mark(ExperimentEnd::Completed);
        c.mark(ExperimentEnd::Failed(ExperimentFailure::AppPanic));
        assert_eq!(c.take(), ExperimentEnd::Failed(ExperimentFailure::AppPanic));
    }
}
