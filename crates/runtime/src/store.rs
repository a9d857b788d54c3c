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
//! drain emits ascending-id order without a sort. Recycled containers
//! (timeline shells, sync-sample runs) keep their capacity across
//! experiments — the campaign driver's steady state allocates nothing
//! here.

use loki_core::campaign::{ExperimentFailure, HostSync, SyncSample};
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
///
/// # Examples
///
/// ```
/// use loki_core::ids::Id;
/// use loki_core::recorder::Recorder;
/// use loki_runtime::store::TimelineStore;
///
/// let store = TimelineStore::new();
/// let sm = Id::from_raw(0);
/// store.put(sm, Recorder::new(sm, Id::from_raw(0)).finish());
/// assert!(store.take(sm).is_some());
/// assert!(store.take(sm).is_none());
/// ```
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
    /// Creates an empty store.
    pub fn new() -> Self {
        TimelineStore::default()
    }

    fn slot_mut<R>(&self, sm: SmId, f: impl FnOnce(&mut Option<LocalTimeline>) -> R) -> R {
        let mut lives = self.lives.borrow_mut();
        let idx = sm.raw() as usize;
        if idx >= lives.len() {
            lives.resize_with(idx + 1, || None);
        }
        f(&mut lives[idx])
    }

    /// Stores (replaces) the timeline for `sm`.
    pub fn put(&self, sm: SmId, timeline: LocalTimeline) {
        self.slot_mut(sm, |slot| *slot = Some(timeline));
    }

    /// Removes and returns the timeline for `sm` (used by a restarting node
    /// to resume its timeline, and by the harness to collect results).
    pub fn take(&self, sm: SmId) -> Option<LocalTimeline> {
        self.slot_mut(sm, |slot| slot.take())
    }

    /// Whether a timeline exists for `sm` (restart detection, §3.6.3).
    pub fn contains(&self, sm: SmId) -> bool {
        self.lives
            .borrow()
            .get(sm.raw() as usize)
            .is_some_and(|slot| slot.is_some())
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

/// Collector for synchronization samples, dense by calibrated host.
///
/// Sample runs drained into [`HostSync`] records come back through
/// [`SyncCollector::reclaim`], so in steady state a push reuses a
/// previously-sized run instead of growing a fresh one.
#[derive(Debug, Default)]
pub struct SyncCollector {
    /// Pending samples, indexed by `HostId::raw()`.
    samples: RefCell<Vec<Vec<SyncSample>>>,
    /// Recycled sample runs with retained capacity.
    spare_runs: RefCell<Vec<Vec<SyncSample>>>,
    /// Recycled outer vectors for [`SyncCollector::drain`].
    spare_drain: RefCell<Vec<Vec<HostSync>>>,
}

impl SyncCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        SyncCollector::default()
    }

    /// Appends the two samples of one ping/echo round for `host`, under
    /// one borrow: the machine → reference leg (`ping_sent` on the host's
    /// clock, `echoed` on the reference's), then the reference → machine
    /// leg (`echoed`, `echo_received`) — the reference echoes in the
    /// instant it receives.
    pub fn push_round(
        &self,
        host: HostId,
        ping_sent: LocalNanos,
        echoed: LocalNanos,
        echo_received: LocalNanos,
    ) {
        let mut samples = self.samples.borrow_mut();
        let idx = host.raw() as usize;
        if idx >= samples.len() {
            samples.resize_with(idx + 1, Vec::new);
        }
        let run = &mut samples[idx];
        if run.capacity() == 0 {
            // First round of this host's mini-phase: start on a recycled
            // run so its capacity survives across experiments.
            if let Some(recycled) = self.spare_runs.borrow_mut().pop() {
                *run = recycled;
            }
        }
        run.push(SyncSample {
            from_reference: false,
            send: ping_sent,
            recv: echoed,
        });
        run.push(SyncSample {
            from_reference: true,
            send: echoed,
            recv: echo_received,
        });
    }

    /// Drains all samples into per-host records, in host-id order (the
    /// deterministic configuration order of the hosts). Hosts without
    /// samples are skipped, exactly like the keyed collector this
    /// replaced.
    pub fn drain(&self) -> Vec<HostSync> {
        let mut out = self.spare_drain.borrow_mut().pop().unwrap_or_default();
        for (idx, run) in self.samples.borrow_mut().iter_mut().enumerate() {
            if !run.is_empty() {
                out.push(HostSync {
                    host: HostId::from_raw(idx as u32),
                    samples: std::mem::take(run),
                });
            }
        }
        out
    }

    /// Returns drained [`HostSync`] records to the run pool: sample runs
    /// are cleared (capacity retained) and the outer vector feeds future
    /// [`SyncCollector::drain`] calls.
    pub fn reclaim(&self, mut drained: Vec<HostSync>) {
        let mut spare = self.spare_runs.borrow_mut();
        for mut sync in drained.drain(..) {
            sync.samples.clear();
            spare.push(std::mem::take(&mut sync.samples));
        }
        self.spare_drain.borrow_mut().push(drained);
    }
}

/// Shared control block between the central daemon and the harness.
#[derive(Debug, Default)]
pub struct ExperimentControl {
    timed_out: Cell<bool>,
    aborted: Cell<bool>,
    completed: Cell<bool>,
    /// Containment outcome: set when the experiment failed abnormally
    /// (application panic, harness error, budget trip). First failure
    /// wins — later marks never overwrite the original cause.
    failed: Cell<Option<ExperimentFailure>>,
}

impl ExperimentControl {
    /// Creates a fresh control block.
    pub fn new() -> Self {
        ExperimentControl::default()
    }

    /// Marks the experiment as timed out.
    pub fn mark_timed_out(&self) {
        self.timed_out.set(true);
    }

    /// Marks the experiment as aborted (runtime abnormality).
    pub fn mark_aborted(&self) {
        self.aborted.set(true);
    }

    /// Marks normal completion.
    pub fn mark_completed(&self) {
        self.completed.set(true);
    }

    /// Whether the experiment timed out.
    pub fn timed_out(&self) -> bool {
        self.timed_out.get()
    }

    /// Whether the experiment aborted abnormally.
    pub fn aborted(&self) -> bool {
        self.aborted.get()
    }

    /// Whether the experiment completed normally.
    pub fn completed(&self) -> bool {
        self.completed.get()
    }

    /// Marks the experiment as failed with a containment cause. The first
    /// recorded failure wins: a budget trip followed by a teardown panic
    /// still reports the budget, which is what actually ended the run.
    pub fn mark_failed(&self, failure: ExperimentFailure) {
        if self.failed.get().is_none() {
            self.failed.set(Some(failure));
        }
    }

    /// The containment failure recorded for this experiment, if any.
    pub fn failure(&self) -> Option<ExperimentFailure> {
        self.failed.get()
    }

    /// Clears all flags so the block can serve the next experiment (the
    /// campaign driver recycles experiment scaffolding instead of
    /// reallocating it).
    pub fn reset(&self) {
        self.timed_out.set(false);
        self.aborted.set(false);
        self.completed.set(false);
        self.failed.set(None);
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
    /// Creates an empty directory.
    pub fn new() -> Self {
        NodeDirectory::default()
    }

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
    use loki_core::ids::Id;
    use loki_core::recorder::{RecordKind, Recorder};
    use loki_core::time::LocalNanos;

    #[test]
    fn timeline_store_roundtrip() {
        let store = TimelineStore::new();
        let sm = Id::from_raw(3);
        assert!(!store.contains(sm));
        store.put(sm, Recorder::new(sm, Id::from_raw(0)).finish());
        assert!(store.contains(sm));
        store.with_mut(sm, |t| {
            t.records.push(loki_core::recorder::TimelineRecord {
                time: LocalNanos(1),
                kind: RecordKind::UserMessage("m".into()),
            });
        });
        let t = store.take(sm).unwrap();
        assert_eq!(t.records.len(), 1);
        assert!(store.drain().is_empty());
    }

    #[test]
    fn drain_is_in_machine_order() {
        let store = TimelineStore::new();
        for i in [2u32, 0, 1] {
            let sm = Id::from_raw(i);
            store.put(sm, Recorder::new(sm, Id::from_raw(0)).finish());
        }
        let drained = store.drain();
        let ids: Vec<u32> = drained.iter().map(|t| t.sm.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn begin_life_matches_recorder_roundtrip() {
        let store = TimelineStore::new();
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
        assert_eq!(store.take(sm).unwrap(), expect);
    }

    #[test]
    fn reclaimed_shells_are_reused_with_capacity() {
        let store = TimelineStore::new();
        let sm = Id::from_raw(0);
        let host = Id::from_raw(0);
        store.begin_life(sm, LocalNanos(0), host);
        store.with_mut(sm, |t| {
            for i in 0..100 {
                t.records.push(loki_core::recorder::TimelineRecord {
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
        let t = store.take(sm).unwrap();
        assert!(t.records.is_empty());
        assert_eq!(t.stints.len(), 1);
        assert!(t.records.capacity() >= 100, "capacity not retained");
    }

    #[test]
    fn sync_collector_groups_by_host() {
        let c = SyncCollector::new();
        let h2: HostId = Id::from_raw(2);
        let h3: HostId = Id::from_raw(3);
        c.push_round(h2, LocalNanos(1), LocalNanos(2), LocalNanos(3));
        c.push_round(h3, LocalNanos(4), LocalNanos(5), LocalNanos(6));
        c.push_round(h2, LocalNanos(7), LocalNanos(8), LocalNanos(9));
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].host, h2);
        // Two samples a round, one per direction, in arrival order.
        let legs: Vec<_> = drained[0]
            .samples
            .iter()
            .map(|s| (s.from_reference, s.send.0, s.recv.0))
            .collect();
        assert_eq!(
            legs,
            [(false, 1, 2), (true, 2, 3), (false, 7, 8), (true, 8, 9)]
        );
        assert_eq!(drained[1].host, h3);
    }

    #[test]
    fn sync_collector_reuses_reclaimed_runs() {
        let c = SyncCollector::new();
        let host: HostId = Id::from_raw(1);
        for _ in 0..25 {
            c.push_round(host, LocalNanos(1), LocalNanos(2), LocalNanos(3));
        }
        let drained = c.drain();
        let capacity = drained[0].samples.capacity();
        c.reclaim(drained);

        c.push_round(host, LocalNanos(1), LocalNanos(2), LocalNanos(3));
        let drained = c.drain();
        assert_eq!(drained[0].samples.len(), 2);
        assert_eq!(
            drained[0].samples.capacity(),
            capacity,
            "run capacity not retained"
        );
    }

    /// A whole mini-phase through the engine's exchange merge and into
    /// the collector yields samples whose bounds contain the true clock
    /// relation.
    #[test]
    fn exchange_rounds_yield_sound_bounds() {
        use loki_clock::params::ClockParams;
        use loki_clock::sync::{estimate_alpha_beta, SyncOptions};
        use loki_sim::config::HostConfig;
        use loki_sim::engine::Simulation;

        let mut sim: Simulation<()> = Simulation::new(11);
        let ref_clock = ClockParams::ideal();
        let m_clock = ClockParams::with_drift_ppm(3e6, 140.0);
        let h_ref = sim.add_host(HostConfig::new("ref").clock(ref_clock));
        let h2 = sim.add_host(HostConfig::new("h2").clock(m_clock));
        sim.set_sched_enabled(false);

        let c = SyncCollector::new();
        let host: HostId = Id::from_raw(1);
        sim.run_exchanges(h_ref, &[h2], 15, 2_000_000, |r| {
            c.push_round(host, r.ping_sent, r.echoed, r.echo_received)
        });

        let syncs = c.drain();
        assert_eq!(syncs.len(), 1);
        assert_eq!(syncs[0].samples.len(), 30); // two per round

        let bounds = estimate_alpha_beta(&syncs[0].samples, &SyncOptions::default()).unwrap();
        let (alpha, beta) = m_clock.relative_to(&ref_clock);
        assert!(
            bounds.contains(alpha, beta),
            "{bounds:?} vs ({alpha},{beta})"
        );
    }

    #[test]
    fn directory_stale_removal_is_ignored() {
        let d = NodeDirectory::new();
        let sm = Id::from_raw(0);
        d.insert(sm, ActorId(1));
        d.insert(sm, ActorId(2)); // restart incarnation
        d.remove_if(sm, ActorId(1)); // stale removal
        assert_eq!(d.lookup(sm), Some(ActorId(2)));
        d.remove_if(sm, ActorId(2));
        assert_eq!(d.lookup(sm), None);
    }

    #[test]
    fn control_flags() {
        let c = ExperimentControl::new();
        assert!(!c.completed() && !c.timed_out() && !c.aborted());
        assert_eq!(c.failure(), None);
        c.mark_completed();
        c.mark_timed_out();
        c.mark_aborted();
        c.mark_failed(ExperimentFailure::AppPanic);
        assert!(c.completed() && c.timed_out() && c.aborted());
        assert_eq!(c.failure(), Some(ExperimentFailure::AppPanic));
        c.reset();
        assert!(!c.completed() && !c.timed_out() && !c.aborted());
        assert_eq!(c.failure(), None);
    }

    #[test]
    fn first_failure_wins() {
        let c = ExperimentControl::new();
        c.mark_failed(ExperimentFailure::BudgetEvents);
        c.mark_failed(ExperimentFailure::AppPanic);
        assert_eq!(c.failure(), Some(ExperimentFailure::BudgetEvents));
    }
}
