//! Interned identifiers for state machines, states, events, faults, and
//! hosts.
//!
//! The thesis's on-disk timeline format replaces names with small integer
//! indices "to make the local timeline compact and decrease intrusion during
//! recording" (§3.5.6). We use the same scheme in memory: every name is
//! interned once per study into a [`NameTable`], and the runtime manipulates
//! only the typed index newtypes below. Names the *runtime* discovers —
//! hosts from the harness configuration, free-form symbols — intern into a
//! per-study-run [`SymbolTable`] that is `Arc`-shared into every worker;
//! ids resolve back to strings only at display/report boundaries.

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
/// Marker for host names (see [`SymbolTable`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum HostTag {}
/// Marker for free-form interned symbols (see [`SymbolTable`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SymTag {}

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
    pub fn from_raw(raw: u32) -> Self {
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
/// Index of a fault within the study-wide fault list.
pub type FaultId = Id<FaultTag>;
/// Index of a host within a study's [`SymbolTable`].
///
/// Host ids are dense (`0..num_hosts`) and assigned in the deterministic
/// order the harness configuration lists its hosts, so the same study
/// configuration always produces the same ids — a prerequisite for the
/// byte-identical-results guarantee across worker counts.
pub type HostId = Id<HostTag>;
/// Index of a free-form interned symbol within a study's [`SymbolTable`].
pub type SymId = Id<SymTag>;

/// An order-preserving name interner.
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
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NameTable<Tag> {
    names: Vec<String>,
    #[serde(skip)]
    index: FxHashMap<String, u32>,
    #[serde(skip)]
    _tag: PhantomData<fn() -> Tag>,
}

impl<Tag> NameTable<Tag> {
    /// Creates an empty table.
    pub fn new() -> Self {
        NameTable {
            names: Vec::new(),
            index: FxHashMap::default(),
            _tag: PhantomData,
        }
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

    /// Rebuilds the reverse index after deserialization.
    pub(crate) fn rebuild_index(&mut self) {
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
    }
}

impl<Tag> NameTable<Tag> {
    /// Builds a table from an explicit name sequence (e.g. when reading an
    /// on-disk index list) and restores its reverse index.
    pub fn from_names<I: IntoIterator<Item = String>>(names: I) -> Self {
        let mut t = NameTable {
            names: names.into_iter().collect(),
            index: FxHashMap::default(),
            _tag: PhantomData,
        };
        t.rebuild_index();
        t
    }
}

/// Per-study interner for names discovered by the *runtime* rather than the
/// study specification: host names and free-form symbols.
///
/// State-machine, state, event, and fault names are interned at study
/// compile time (the [`NameTable`]s inside `Study`); host names come from
/// the harness configuration instead. The harness builds one `SymbolTable`
/// per study run — interning every host in configuration order, so ids are
/// dense and deterministic — and shares it immutably (`Arc`) with every
/// worker. Timelines, sync records, and the global timeline then carry
/// [`HostId`]s; the table is consulted only at display/report boundaries.
///
/// # Examples
///
/// ```
/// use loki_core::ids::SymbolTable;
///
/// let table = SymbolTable::for_hosts(["host1", "host2"]);
/// let h2 = table.lookup_host("host2").unwrap();
/// assert_eq!(h2.raw(), 1);
/// assert_eq!(table.host_name(h2), "host2");
/// assert_eq!(table.num_hosts(), 2);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SymbolTable {
    hosts: NameTable<HostTag>,
    syms: NameTable<SymTag>,
}

impl Default for SymbolTable {
    fn default() -> Self {
        SymbolTable {
            hosts: NameTable::new(),
            syms: NameTable::new(),
        }
    }
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Builds a table with `hosts` interned in iteration order (the
    /// deterministic id assignment the harness relies on).
    pub fn for_hosts<I, S>(hosts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut t = SymbolTable::new();
        for h in hosts {
            t.intern_host(h.as_ref());
        }
        t
    }

    /// Interns a host name, returning its id (idempotent).
    pub fn intern_host(&mut self, name: &str) -> HostId {
        self.hosts.intern(name)
    }

    /// Looks up an already-interned host.
    pub fn lookup_host(&self, name: &str) -> Option<HostId> {
        self.hosts.lookup(name)
    }

    /// The name of host `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn host_name(&self, id: HostId) -> &str {
        self.hosts.name(id)
    }

    /// The name of host `id`, or `None` when `id` is not from this table
    /// (e.g. a timeline interned against a different table). Error paths
    /// use this so malformed data reports cleanly instead of panicking.
    pub fn try_host_name(&self, id: HostId) -> Option<&str> {
        self.hosts.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Iterates over `(id, name)` pairs of all hosts in interning order.
    pub fn hosts(&self) -> impl Iterator<Item = (HostId, &str)> {
        self.hosts.iter()
    }

    /// All host ids in interning order.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> {
        self.hosts.ids()
    }

    /// Interns a free-form symbol, returning its id (idempotent).
    pub fn intern_sym(&mut self, name: &str) -> SymId {
        self.syms.intern(name)
    }

    /// Looks up an already-interned symbol.
    pub fn lookup_sym(&self, name: &str) -> Option<SymId> {
        self.syms.lookup(name)
    }

    /// The text of symbol `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn sym_name(&self, id: SymId) -> &str {
        self.syms.name(id)
    }

    /// Number of interned symbols.
    pub fn num_syms(&self) -> usize {
        self.syms.len()
    }
}

/// Tables are equal when they intern the same names in the same order
/// (the reverse indices are derived state).
impl PartialEq for SymbolTable {
    fn eq(&self, other: &Self) -> bool {
        self.hosts.names == other.hosts.names && self.syms.names == other.syms.names
    }
}
impl Eq for SymbolTable {}

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
    fn from_names_rebuilds_index() {
        let t: NameTable<SmTag> =
            NameTable::from_names(vec!["black".to_owned(), "green".to_owned()]);
        assert_eq!(t.lookup("green").map(|id| id.raw()), Some(1));
    }

    #[test]
    fn ids_are_typed() {
        // Compile-time check: SmId and StateId are distinct types.
        fn takes_sm(_: SmId) {}
        let mut t: NameTable<SmTag> = NameTable::new();
        takes_sm(t.intern("x"));
    }

    #[test]
    fn symbol_table_hosts_and_syms_are_separate_spaces() {
        let mut t = SymbolTable::for_hosts(["h1", "h2"]);
        assert_eq!(t.num_hosts(), 2);
        assert_eq!(t.lookup_host("h1").map(|h| h.raw()), Some(0));
        assert_eq!(t.lookup_host("nope"), None);
        let s = t.intern_sym("h1"); // same text, different namespace
        assert_eq!(s.raw(), 0);
        assert_eq!(t.num_syms(), 1);
        assert_eq!(t.sym_name(s), "h1");
        assert_eq!(t.host_ids().count(), 2);
        let names: Vec<&str> = t.hosts().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["h1", "h2"]);
    }

    #[test]
    fn symbol_table_equality_ignores_derived_indices() {
        let a = SymbolTable::for_hosts(["x", "y"]);
        let b = SymbolTable::for_hosts(["x", "y"]);
        let c = SymbolTable::for_hosts(["y", "x"]);
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
