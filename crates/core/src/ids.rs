//! Interned identifiers for state machines, states, events, faults, and
//! hosts.
//!
//! The thesis's on-disk timeline format replaces names with small integer
//! indices "to make the local timeline compact and decrease intrusion during
//! recording" (§3.5.6). We use the same scheme in memory: every name is
//! interned once per study into a [`NameTable`], and the runtime manipulates
//! only the typed index newtypes below. One table type serves all five
//! name spaces: the study compiles four of them (machines, states, events,
//! faults), and the simulated world interns the fifth, hosts, into the
//! [`SymbolTable`] (a `NameTable<HostTag>`) that is `Arc`-shared into every
//! worker. Ids resolve back to strings only at display/report boundaries.
//!
//! The reserved states and events (§3.5.7) are interned first by every
//! study, so their ids are fixed: associated constants of [`StateId`] and
//! [`EventId`] (`StateId::BEGIN`, `EventId::CRASH`, …), not per-study
//! lookups.

use crate::hashing::FxHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::marker::PhantomData;

/// Marker for state-machine names.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SmTag {}
/// Marker for state names (the study-wide `global_state_list`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum StateTag {}
/// Marker for event names.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EventTag {}
/// Marker for fault names.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultTag {}
/// Marker for host names (see [`HostId`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum HostTag {}

/// A typed index into a [`NameTable`].
///
/// The `Tag` parameter statically distinguishes state-machine, state, event,
/// and fault indices so they cannot be confused (C-NEWTYPE).
#[derive(Serialize, Deserialize)]
#[serde(transparent)]
pub struct Id<Tag> {
    raw: u32,
    #[serde(skip)]
    _tag: PhantomData<fn() -> Tag>,
}

impl<Tag> Id<Tag> {
    /// Creates an id from a raw index. Intended for table internals and
    /// deserialization of the on-disk formats.
    pub const fn from_raw(raw: u32) -> Self {
        Id {
            raw,
            _tag: PhantomData,
        }
    }

    /// Returns the raw index.
    pub fn raw(self) -> u32 {
        self.raw
    }

    /// Returns the raw index as a `usize`, for table addressing.
    pub fn index(self) -> usize {
        self.raw as usize
    }
}

impl<Tag> Copy for Id<Tag> {}
impl<Tag> Clone for Id<Tag> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<Tag> PartialEq for Id<Tag> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<Tag> Eq for Id<Tag> {}
impl<Tag> PartialOrd for Id<Tag> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<Tag> Ord for Id<Tag> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.raw.cmp(&other.raw)
    }
}
impl<Tag> std::hash::Hash for Id<Tag> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}
impl<Tag> fmt::Debug for Id<Tag> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.raw)
    }
}

/// Index of a state machine (node) within a study.
pub type SmId = Id<SmTag>;
/// Index of a state within the study-wide state list.
pub type StateId = Id<StateTag>;
/// Index of an event within the study-wide event list.
pub type EventId = Id<EventTag>;

/// The reserved states: [`Study::compile`](crate::study::Study::compile)
/// interns [`RESERVED_STATES`](crate::spec::RESERVED_STATES) first and in order, so
/// every study gives them these ids.
impl StateId {
    /// The `BEGIN` state every machine starts in.
    pub const BEGIN: StateId = Id::from_raw(0);
    /// The `EXIT` state for clean termination.
    pub const EXIT: StateId = Id::from_raw(1);
    /// The `CRASH` state.
    pub const CRASH: StateId = Id::from_raw(2);
    /// The `RESTART` state.
    pub const RESTART: StateId = Id::from_raw(3);
}

/// The reserved events: [`Study::compile`](crate::study::Study::compile)
/// interns [`RESERVED_EVENTS`](crate::spec::RESERVED_EVENTS) first and in order, so
/// every study gives them these ids.
impl EventId {
    /// The synthesized `CRASH` event.
    pub const CRASH: EventId = Id::from_raw(0);
    /// The synthesized `RESTART` event.
    pub const RESTART: EventId = Id::from_raw(1);
    /// The wildcard `default` event.
    pub const DEFAULT: EventId = Id::from_raw(2);
}

/// Index of a fault within the study-wide fault list.
pub type FaultId = Id<FaultTag>;
/// Index of a host within the study run's [`SymbolTable`]; the simulator
/// names its hosts by the same ids.
///
/// Host ids are dense (`0..num_hosts`) and assigned in the deterministic
/// order the harness configuration lists its hosts, so the same study
/// configuration always produces the same ids — a prerequisite for the
/// byte-identical-results guarantee across worker counts.
pub type HostId = Id<HostTag>;

/// An order-preserving name interner.
///
/// Two tables are equal when they intern the same names in the same order
/// (the reverse index is derived state).
///
/// # Examples
///
/// ```
/// use loki_core::ids::{NameTable, StateTag};
///
/// let mut t: NameTable<StateTag> = NameTable::new();
/// let a = t.intern("ELECT");
/// let b = t.intern("FOLLOW");
/// assert_eq!(t.intern("ELECT"), a); // idempotent
/// assert_eq!(t.name(a), "ELECT");
/// assert_eq!(t.lookup("FOLLOW"), Some(b));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NameTable<Tag> {
    names: Vec<String>,
    #[serde(skip)]
    index: FxHashMap<String, u32>,
    #[serde(skip)]
    _tag: PhantomData<fn() -> Tag>,
}

// Hand-written: a derive would demand `Tag: Default` of the marker enums.
impl<Tag> Default for NameTable<Tag> {
    fn default() -> Self {
        NameTable {
            names: Vec::new(),
            index: FxHashMap::default(),
            _tag: PhantomData,
        }
    }
}

impl<Tag> PartialEq for NameTable<Tag> {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}
impl<Tag> Eq for NameTable<Tag> {}

/// Interns the names in iteration order.
impl<Tag, S: AsRef<str>> FromIterator<S> for NameTable<Tag> {
    fn from_iter<I: IntoIterator<Item = S>>(names: I) -> Self {
        let mut table = NameTable::new();
        for name in names {
            table.intern(name.as_ref());
        }
        table
    }
}

impl<Tag> NameTable<Tag> {
    /// Creates an empty table.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Interns `name`, returning its id; returns the existing id if the name
    /// is already present.
    pub fn intern(&mut self, name: &str) -> Id<Tag> {
        if let Some(&raw) = self.index.get(name) {
            return Id::from_raw(raw);
        }
        let raw = u32::try_from(self.names.len()).expect("name table overflow");
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), raw);
        Id::from_raw(raw)
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<Id<Tag>> {
        self.index.get(name).map(|&raw| Id::from_raw(raw))
    }

    /// Returns the name for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: Id<Tag>) -> &str {
        &self.names[id.index()]
    }

    /// The name for `id`, or `None` when `id` is not from this table
    /// (e.g. data interned against a different table). Error and report
    /// paths use this so malformed data renders instead of panicking.
    pub fn try_name(&self, id: Id<Tag>) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Id<Tag>, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Id::from_raw(i as u32), n.as_str()))
    }

    /// Iterates over all ids in interning order.
    pub fn ids(&self) -> impl Iterator<Item = Id<Tag>> {
        (0..self.names.len() as u32).map(Id::from_raw)
    }
}

/// The study run's host table: host names come from the harness
/// configuration, not the study specification.
///
/// The simulated world interns its hosts as it registers them, in
/// configuration order, so ids are dense and deterministic; the harness
/// shares the table immutably (`Arc`) with every worker. Timelines, sync
/// records, and the global timeline carry [`HostId`]s; the table is
/// consulted only at display/report boundaries.
///
/// # Examples
///
/// ```
/// use loki_core::ids::SymbolTable;
///
/// let table = SymbolTable::from_iter(["host1", "host2"]);
/// let h2 = table.lookup("host2").unwrap();
/// assert_eq!(h2.raw(), 1);
/// assert_eq!(table.name(h2), "host2");
/// assert_eq!(table.len(), 2);
/// ```
pub type SymbolTable = NameTable<HostTag>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup() {
        let mut t: NameTable<EventTag> = NameTable::new();
        let a = t.intern("START");
        let b = t.intern("CRASH");
        assert_ne!(a, b);
        assert_eq!(t.intern("START"), a);
        assert_eq!(t.lookup("CRASH"), Some(b));
        assert_eq!(t.lookup("missing"), None);
        assert_eq!(t.name(a), "START");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn iteration_order_is_interning_order() {
        let mut t: NameTable<StateTag> = NameTable::new();
        for n in ["A", "B", "C"] {
            t.intern(n);
        }
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
        assert_eq!(t.ids().count(), 3);
    }

    #[test]
    fn ids_are_typed() {
        // Compile-time check: SmId and StateId are distinct types.
        fn takes_sm(_: SmId) {}
        let mut t: NameTable<SmTag> = NameTable::new();
        takes_sm(t.intern("x"));
    }

    #[test]
    fn symbol_table_interns_hosts_in_configuration_order() {
        let t = SymbolTable::from_iter(["h1", "h2"]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("h1").map(|h| h.raw()), Some(0));
        assert_eq!(t.lookup("nope"), None);
        assert_eq!(t.try_name(HostId::from_raw(1)), Some("h2"));
        assert_eq!(t.try_name(HostId::from_raw(2)), None);
        assert_eq!(t.ids().count(), 2);
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["h1", "h2"]);
    }

    #[test]
    fn symbol_table_equality_ignores_derived_indices() {
        let a = SymbolTable::from_iter(["x", "y"]);
        let b = SymbolTable::from_iter(["x", "y"]);
        let c = SymbolTable::from_iter(["y", "x"]);
        assert_eq!(a, b);
        assert_ne!(a, c); // interning order is part of the identity
    }

    #[test]
    fn id_traits() {
        let a: StateId = Id::from_raw(1);
        let b: StateId = Id::from_raw(2);
        assert!(a < b);
        assert_eq!(format!("{a:?}"), "#1");
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&a));
    }
}
