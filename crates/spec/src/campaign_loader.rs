//! Assembling a study from its specification files — the thesis's
//! file-driven workflow (§5.6).
//!
//! The user of the original Loki prepares, per state machine, a *study
//! file* naming the node file, state machine specification file, and fault
//! specification file. [`load_study`] performs the same assembly from
//! in-memory file contents (I/O-free, so it works identically for on-disk
//! files, embedded fixtures, and tests); [`load_study_dir`] reads the
//! conventional directory layout:
//!
//! ```text
//! <dir>/nodes            — the node file (<SM> [<host>] per line)
//! <dir>/<sm>.sm          — one state machine specification per machine
//! <dir>/<sm>.flt         — one fault specification per machine (optional)
//! <dir>/actions          — fault-name → probe-action table (optional; see
//!                          [`crate::files::parse_action_file`])
//! <dir>/budget           — per-experiment budgets (optional; see
//!                          [`crate::files::parse_budget_file`])
//! ```

use crate::error::ParseError;
use crate::files::{
    parse_action_file, parse_budget_file, parse_fault_spec, parse_node_file, write_action_file,
    write_budget_file, BudgetSpec,
};
use crate::sm_spec;
use loki_core::probe::ActionProbe;
use loki_core::spec::StudyDef;
use std::collections::BTreeMap;
use std::path::Path;

/// One machine's specification sources.
#[derive(Clone, Debug, Default)]
pub struct MachineSources {
    /// The state machine specification file contents.
    pub sm_spec: String,
    /// The fault specification file contents (may be empty).
    pub fault_spec: String,
}

/// Assembles a [`StudyDef`] from file contents: the node file plus one
/// [`MachineSources`] per machine.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered. (Cross-reference
/// validation — unknown states, events, machines — happens later in
/// [`loki_core::study::Study::compile`].)
///
/// # Examples
///
/// ```
/// use loki_spec::campaign_loader::{load_study, MachineSources};
/// use std::collections::BTreeMap;
///
/// let node_file = "a host1\nb host2\n";
/// let spec = "\
/// global_state_list
/// IDLE
/// BUSY
/// end_global_state_list
/// event_list
/// GO
/// end_event_list
/// state IDLE notify b
/// GO BUSY
/// ";
/// let mut machines = BTreeMap::new();
/// machines.insert("a".to_owned(), MachineSources {
///     sm_spec: spec.to_owned(),
///     fault_spec: "f1 (a:BUSY) once\n".to_owned(),
/// });
/// machines.insert("b".to_owned(), MachineSources {
///     sm_spec: spec.replace("notify b", "notify a"),
///     fault_spec: String::new(),
/// });
/// let def = load_study("demo", node_file, &machines)?;
/// assert_eq!(def.machines.len(), 2);
/// assert_eq!(def.faults.len(), 1);
/// assert_eq!(def.placements.len(), 2);
/// # Ok::<(), loki_spec::error::ParseError>(())
/// ```
pub fn load_study(
    name: &str,
    node_file: &str,
    machines: &BTreeMap<String, MachineSources>,
) -> Result<StudyDef, ParseError> {
    let mut def = StudyDef::new(name);
    for (machine, sources) in machines {
        def.machines
            .push(sm_spec::parse(machine, &sources.sm_spec)?);
        if !sources.fault_spec.trim().is_empty() {
            def.faults
                .extend(parse_fault_spec(machine, &sources.fault_spec)?);
        }
    }
    def.placements = parse_node_file(node_file)?;
    Ok(def)
}

/// Loads a study from the conventional directory layout (see module docs).
///
/// # Errors
///
/// Returns a [`ParseError`] for unreadable files (wrapped with the path)
/// or malformed contents.
pub fn load_study_dir(name: &str, dir: &Path) -> Result<StudyDef, ParseError> {
    let node_file = read(&dir.join("nodes"))?;
    let placements = parse_node_file(&node_file)?;
    let mut machines = BTreeMap::new();
    for p in &placements {
        if machines.contains_key(&p.sm) {
            continue;
        }
        let sm_spec = read(&dir.join(format!("{}.sm", p.sm)))?;
        let fault_spec = read_optional(&dir.join(format!("{}.flt", p.sm)))?.unwrap_or_default();
        machines.insert(
            p.sm.clone(),
            MachineSources {
                sm_spec,
                fault_spec,
            },
        );
    }
    load_study(name, &node_file, &machines)
}

/// Reads a campaign file, naming it in the error.
fn read(path: &Path) -> Result<String, ParseError> {
    std::fs::read_to_string(path).map_err(|e| cannot_read(path, &e))
}

/// Reads an optional campaign file in one lookup: `None` when it does not
/// exist, any other failure an error naming it. (Asking `exists()` first
/// would be a second lookup, and a file removed in between would turn
/// "optional" into an error.)
fn read_optional(path: &Path) -> Result<Option<String>, ParseError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(cannot_read(path, &e)),
    }
}

fn cannot_read(path: &Path, e: &std::io::Error) -> ParseError {
    ParseError::eof(format!("cannot read {}: {e}", path.display()))
}

/// [`load_study_dir`] plus the optional `<dir>/actions` probe table: what
/// each named fault *does* when injected. A missing actions file yields an
/// empty [`ActionProbe`] (applications fall back to their default action,
/// typically crash).
///
/// # Errors
///
/// Returns a [`ParseError`] exactly as [`load_study_dir`], plus any
/// action-file syntax error.
pub fn load_study_dir_with_actions(
    name: &str,
    dir: &Path,
) -> Result<(StudyDef, ActionProbe), ParseError> {
    let def = load_study_dir(name, dir)?;
    let probe = match read_optional(&dir.join("actions"))? {
        Some(text) => parse_action_file(&text)?,
        None => ActionProbe::new(),
    };
    Ok((def, probe))
}

/// Loads the optional `<dir>/budget` file: per-experiment resource
/// budgets. A missing file yields the default (unbounded) [`BudgetSpec`],
/// mirroring how a missing actions file yields an empty probe.
///
/// # Errors
///
/// Returns a [`ParseError`] for an unreadable or malformed budget file.
pub fn load_budget_dir(dir: &Path) -> Result<BudgetSpec, ParseError> {
    match read_optional(&dir.join("budget"))? {
        Some(text) => parse_budget_file(&text),
        None => Ok(BudgetSpec::default()),
    }
}

/// Writes the `<dir>/budget` file (omitted when `spec` is all-default,
/// mirroring [`load_budget_dir`]).
///
/// # Errors
///
/// Returns a [`ParseError`] wrapping any I/O failure.
pub fn write_budget_dir(spec: &BudgetSpec, dir: &Path) -> Result<(), ParseError> {
    if *spec == BudgetSpec::default() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| ParseError::eof(format!("cannot create {}: {e}", dir.display())))?;
    let path = dir.join("budget");
    std::fs::write(&path, write_budget_file(spec))
        .map_err(|e| ParseError::eof(format!("cannot write {}: {e}", path.display())))
}

/// [`write_study_dir`] plus the `<dir>/actions` probe table (omitted when
/// `probe` is empty, mirroring [`load_study_dir_with_actions`]).
///
/// # Errors
///
/// Returns a [`ParseError`] wrapping any I/O failure.
pub fn write_study_dir_with_actions(
    def: &StudyDef,
    probe: &ActionProbe,
    dir: &Path,
) -> Result<(), ParseError> {
    write_study_dir(def, dir)?;
    if !probe.is_empty() {
        let path = dir.join("actions");
        std::fs::write(&path, write_action_file(probe))
            .map_err(|e| ParseError::eof(format!("cannot write {}: {e}", path.display())))?;
    }
    Ok(())
}

/// Writes a study back to the conventional directory layout.
///
/// # Errors
///
/// Returns a [`ParseError`] wrapping any I/O failure.
pub fn write_study_dir(def: &StudyDef, dir: &Path) -> Result<(), ParseError> {
    let write = |path: &Path, contents: &str| -> Result<(), ParseError> {
        std::fs::write(path, contents)
            .map_err(|e| ParseError::eof(format!("cannot write {}: {e}", path.display())))
    };
    std::fs::create_dir_all(dir)
        .map_err(|e| ParseError::eof(format!("cannot create {}: {e}", dir.display())))?;
    write(
        &dir.join("nodes"),
        &crate::files::write_node_file(&def.placements),
    )?;
    for m in &def.machines {
        write(&dir.join(format!("{}.sm", m.name)), &sm_spec::write(m))?;
        let faults: Vec<_> = def
            .faults
            .iter()
            .filter(|f| f.owner == m.name)
            .cloned()
            .collect();
        if !faults.is_empty() {
            write(
                &dir.join(format!("{}.flt", m.name)),
                &crate::files::write_fault_spec(&faults),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::study::Study;

    fn sample_sources() -> (String, BTreeMap<String, MachineSources>) {
        let node_file = "a host1\nb host2\n".to_owned();
        let spec_a = "\
global_state_list
IDLE
BUSY
end_global_state_list
event_list
GO
DONE
end_event_list
state IDLE notify b
GO BUSY
state BUSY notify b
DONE EXIT
";
        let spec_b = spec_a.replace("notify b", "notify a");
        let mut machines = BTreeMap::new();
        machines.insert(
            "a".to_owned(),
            MachineSources {
                sm_spec: spec_a.to_owned(),
                fault_spec: String::new(),
            },
        );
        machines.insert(
            "b".to_owned(),
            MachineSources {
                sm_spec: spec_b,
                fault_spec: "f1 (a:BUSY) always\n".to_owned(),
            },
        );
        (node_file, machines)
    }

    #[test]
    fn loads_and_compiles() {
        let (node_file, machines) = sample_sources();
        let def = load_study("s", &node_file, &machines).unwrap();
        let study = Study::compile(&def).unwrap();
        assert_eq!(study.num_machines(), 2);
        assert_eq!(study.faults.len(), 1);
        let b = study.sm_id("b").unwrap();
        assert_eq!(study.faults_owned_by(b).len(), 1);
    }

    #[test]
    fn propagates_parse_errors() {
        let (node_file, mut machines) = sample_sources();
        machines.get_mut("a").unwrap().sm_spec = "garbage".to_owned();
        assert!(load_study("s", &node_file, &machines).is_err());
        let (_, machines) = sample_sources();
        assert!(load_study("s", "a b c\n", &machines).is_err());
    }

    #[test]
    fn directory_roundtrip() {
        let (node_file, machines) = sample_sources();
        let def = load_study("s", &node_file, &machines).unwrap();

        let dir = std::env::temp_dir().join(format!("loki-spec-test-{}", std::process::id()));
        write_study_dir(&def, &dir).unwrap();
        let reloaded = load_study_dir("s", &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(reloaded.machines, def.machines);
        assert_eq!(reloaded.faults, def.faults);
        assert_eq!(reloaded.placements, def.placements);
    }

    #[test]
    fn missing_files_reported_with_path() {
        let err = load_study_dir("s", Path::new("/nonexistent/loki-dir")).unwrap_err();
        assert!(err.message.contains("nodes"));
    }

    #[test]
    fn directory_roundtrip_with_actions() {
        use loki_core::probe::FaultAction;

        let (node_file, machines) = sample_sources();
        let def = load_study("s", &node_file, &machines).unwrap();
        let probe = ActionProbe::new()
            .on(
                "f1",
                FaultAction::Partition {
                    groups: vec![vec!["host1".to_owned()], vec!["host2".to_owned()]],
                },
            )
            .on("f2", FaultAction::Heal);

        let dir = std::env::temp_dir().join(format!("loki-spec-actions-{}", std::process::id()));
        write_study_dir_with_actions(&def, &probe, &dir).unwrap();
        let (reloaded, reprobe) = load_study_dir_with_actions("s", &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(reloaded.faults, def.faults);
        assert_eq!(reprobe.action_for("f2"), Some(&FaultAction::Heal));
        assert_eq!(reprobe.action_for("f1"), probe.action_for("f1"));
    }

    #[test]
    fn budget_dir_roundtrip_and_default() {
        let dir = std::env::temp_dir().join(format!("loki-spec-budget-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // Missing file → default (unbounded) budgets; default spec writes
        // nothing.
        write_budget_dir(&BudgetSpec::default(), &dir).unwrap();
        assert!(!dir.join("budget").exists());
        assert_eq!(load_budget_dir(&dir).unwrap(), BudgetSpec::default());

        let spec = BudgetSpec {
            max_virtual_time_ns: Some(5_000_000_000),
            max_events: Some(200_000),
        };
        write_budget_dir(&spec, &dir).unwrap();
        let reloaded = load_budget_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(reloaded, spec);
    }

    #[test]
    fn missing_actions_file_yields_empty_probe() {
        let (node_file, machines) = sample_sources();
        let def = load_study("s", &node_file, &machines).unwrap();
        let dir = std::env::temp_dir().join(format!("loki-spec-noact-{}", std::process::id()));
        write_study_dir(&def, &dir).unwrap();
        let (_, probe) = load_study_dir_with_actions("s", &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(probe.is_empty());
    }

    #[test]
    fn optional_files_absent_load_as_defaults_and_unreadable_ones_are_errors() {
        let (node_file, machines) = sample_sources();
        let def = load_study("s", &node_file, &machines).unwrap();
        let dir = std::env::temp_dir().join(format!("loki-spec-optional-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // `a` has no faults, so no `a.flt`; no `actions`, no `budget`.
        write_study_dir(&def, &dir).unwrap();
        assert!(!dir.join("a.flt").exists());
        let (reloaded, probe) = load_study_dir_with_actions("s", &dir).unwrap();
        assert_eq!(reloaded.faults, def.faults);
        assert!(probe.is_empty());
        assert_eq!(load_budget_dir(&dir).unwrap(), BudgetSpec::default());
        // A `budget` that exists but cannot be read as a file is an error
        // naming it, not an absent file.
        std::fs::create_dir(dir.join("budget")).unwrap();
        let err = load_budget_dir(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            err.message
                .contains(&dir.join("budget").display().to_string()),
            "{}",
            err.message
        );
    }
}
