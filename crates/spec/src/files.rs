//! The small line-oriented configuration files of the Loki runtime.
//!
//! * **fault specification** (§3.5.5): `<FaultName> <BooleanExpr> <once|always>`
//! * **node file** (§3.5.1): `<SM NickName> [<HostName>]`
//! * **machines file** (§5.6): one host name per line
//! * **daemon startup file** (§3.5.2): `<HostName> <PortNumber>`
//! * **daemon contact file** (§3.5.2): `<HostName> <SharedMemoryID> <SemaphoreID>`
//! * **study file** (§5.6): six fixed lines naming the machine and its
//!   input files
//! * **action file**: `<FaultName> <action> [args…]` mapping fault names
//!   to probe [`FaultAction`]s (see [`parse_action_file`])
//!
//! All parsers ignore blank lines and `#` comments.

use crate::error::ParseError;
use crate::expr::parse_expr;
use loki_core::fault::Trigger;
use loki_core::probe::{ActionProbe, FaultAction};
use loki_core::spec::{FaultSpec, NodePlacement};
use serde::{Deserialize, Serialize};

fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = match raw.find('#') {
            Some(idx) => &raw[..idx],
            None => raw,
        }
        .trim();
        (!line.is_empty()).then_some((i + 1, line))
    })
}

/// Parses a fault specification file; `owner` is the state machine whose
/// probe injects these faults (fault files are per-machine, §3.5.5).
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed lines or expressions.
///
/// # Examples
///
/// ```
/// use loki_spec::files::parse_fault_spec;
///
/// let faults = parse_fault_spec(
///     "green",
///     "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n",
/// )?;
/// assert_eq!(faults[0].name, "gfault2");
/// # Ok::<(), loki_spec::error::ParseError>(())
/// ```
pub fn parse_fault_spec(owner: &str, text: &str) -> Result<Vec<FaultSpec>, ParseError> {
    let mut out = Vec::new();
    for (lineno, line) in content_lines(text) {
        let name = line.split_whitespace().next().expect("non-empty");
        let rest = line[name.len()..].trim();
        let trigger_word = rest.split_whitespace().last().ok_or_else(|| {
            ParseError::at(lineno, "fault line needs an expression and a trigger")
        })?;
        let trigger = match trigger_word {
            "once" => Trigger::Once,
            "always" => Trigger::Always,
            other => {
                return Err(ParseError::at(
                    lineno,
                    format!("expected `once` or `always`, found `{other}`"),
                ))
            }
        };
        let expr_text = rest[..rest.len() - trigger_word.len()].trim();
        let expr = parse_expr(expr_text)
            .map_err(|e| ParseError::at(lineno, format!("in fault `{name}`: {}", e.message)))?;
        out.push(FaultSpec {
            owner: owner.to_owned(),
            name: name.to_owned(),
            expr,
            trigger,
        });
    }
    Ok(out)
}

/// Writes a fault specification file.
pub fn write_fault_spec(faults: &[FaultSpec]) -> String {
    let mut out = String::new();
    for f in faults {
        out.push_str(&format!("{} {} {}\n", f.name, f.expr, f.trigger));
    }
    out
}

/// Parses a node file: `<SM NickName> [<HostName>]` per line (§3.5.1).
///
/// # Errors
///
/// Returns a [`ParseError`] for lines with more than two tokens.
pub fn parse_node_file(text: &str) -> Result<Vec<NodePlacement>, ParseError> {
    let mut out = Vec::new();
    for (lineno, line) in content_lines(text) {
        let mut tokens = line.split_whitespace();
        let sm = tokens.next().expect("non-empty").to_owned();
        let host = tokens.next().map(str::to_owned);
        if tokens.next().is_some() {
            return Err(ParseError::at(
                lineno,
                "node file lines have at most two fields",
            ));
        }
        out.push(NodePlacement { sm, host });
    }
    Ok(out)
}

/// Writes a node file.
pub fn write_node_file(placements: &[NodePlacement]) -> String {
    let mut out = String::new();
    for p in placements {
        match &p.host {
            Some(h) => out.push_str(&format!("{} {}\n", p.sm, h)),
            None => out.push_str(&format!("{}\n", p.sm)),
        }
    }
    out
}

/// Parses a machines file: one host name per line (§5.6).
pub fn parse_machines_file(text: &str) -> Vec<String> {
    content_lines(text).map(|(_, l)| l.to_owned()).collect()
}

/// Writes a machines file.
pub fn write_machines_file(hosts: &[String]) -> String {
    let mut out = String::new();
    for h in hosts {
        out.push_str(h);
        out.push('\n');
    }
    out
}

/// One entry of the daemon startup file: where each local daemon listens.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaemonEndpoint {
    /// Host name.
    pub host: String,
    /// TCP port of the local daemon.
    pub port: u16,
}

/// Parses a daemon startup file: `<HostName> <PortNumber>` (§3.5.2).
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed ports or extra fields.
pub fn parse_daemon_startup(text: &str) -> Result<Vec<DaemonEndpoint>, ParseError> {
    let mut out = Vec::new();
    for (lineno, line) in content_lines(text) {
        let mut tokens = line.split_whitespace();
        let host = tokens.next().expect("non-empty").to_owned();
        let port_str = tokens
            .next()
            .ok_or_else(|| ParseError::at(lineno, "daemon startup line needs a port"))?;
        let port: u16 = port_str
            .parse()
            .map_err(|_| ParseError::at(lineno, format!("invalid port `{port_str}`")))?;
        if tokens.next().is_some() {
            return Err(ParseError::at(lineno, "unexpected extra field"));
        }
        out.push(DaemonEndpoint { host, port });
    }
    Ok(out)
}

/// Writes a daemon startup file.
pub fn write_daemon_startup(endpoints: &[DaemonEndpoint]) -> String {
    let mut out = String::new();
    for e in endpoints {
        out.push_str(&format!("{} {}\n", e.host, e.port));
    }
    out
}

/// One entry of the daemon contact file: the IPC identifiers a state
/// machine uses to reach its local daemon.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaemonContact {
    /// Host name.
    pub host: String,
    /// Shared memory identifier.
    pub shm_id: u64,
    /// Semaphore identifier.
    pub sem_id: u64,
}

/// Parses a daemon contact file: `<HostName> <SharedMemoryID> <SemaphoreID>`
/// (§3.5.2).
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed identifiers or missing fields.
pub fn parse_daemon_contact(text: &str) -> Result<Vec<DaemonContact>, ParseError> {
    let mut out = Vec::new();
    for (lineno, line) in content_lines(text) {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() != 3 {
            return Err(ParseError::at(lineno, "expected `<host> <shmid> <semid>`"));
        }
        let shm_id = tokens[1]
            .parse()
            .map_err(|_| ParseError::at(lineno, format!("invalid shm id `{}`", tokens[1])))?;
        let sem_id = tokens[2]
            .parse()
            .map_err(|_| ParseError::at(lineno, format!("invalid sem id `{}`", tokens[2])))?;
        out.push(DaemonContact {
            host: tokens[0].to_owned(),
            shm_id,
            sem_id,
        });
    }
    Ok(out)
}

/// Writes a daemon contact file.
pub fn write_daemon_contact(contacts: &[DaemonContact]) -> String {
    let mut out = String::new();
    for c in contacts {
        out.push_str(&format!("{} {} {}\n", c.host, c.shm_id, c.sem_id));
    }
    out
}

fn parse_f64(lineno: usize, field: &str, s: &str) -> Result<f64, ParseError> {
    s.parse()
        .map_err(|_| ParseError::at(lineno, format!("invalid {field} `{s}`")))
}

fn parse_u64(lineno: usize, field: &str, s: &str) -> Result<u64, ParseError> {
    s.parse()
        .map_err(|_| ParseError::at(lineno, format!("invalid {field} `{s}`")))
}

/// Parses an action file mapping fault names to probe
/// [`FaultAction`]s — the campaign-file syntax for what each named fault
/// *does* when injected (the fault specification files only say *when*).
/// One line per fault:
///
/// ```text
/// <fault> crash
/// <fault> crash_p <activation> <dormancy_ns>
/// <fault> hang <duration_ns>
/// <fault> drop <count>
/// <fault> corrupt_state <target>
/// <fault> custom <name>
/// <fault> partition <host…> | <host…> [| …]
/// <fault> link <from> <to> [drop=P] [dup=P] [corrupt=P] [reorder_ns=N] [latency_ns=N]
/// <fault> gray <host> slowdown=X
/// <fault> heal
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] for unknown action kinds, malformed numbers,
/// empty partition groups, or duplicate fault names.
///
/// # Examples
///
/// ```
/// use loki_spec::files::parse_action_file;
/// use loki_core::probe::FaultAction;
///
/// let probe = parse_action_file(
///     "netsplit partition host1 | host2 host3\nheal_net heal\n",
/// )?;
/// assert_eq!(probe.action_for("heal_net"), Some(&FaultAction::Heal));
/// # Ok::<(), loki_spec::error::ParseError>(())
/// ```
pub fn parse_action_file(text: &str) -> Result<ActionProbe, ParseError> {
    let mut probe = ActionProbe::new();
    for (lineno, line) in content_lines(text) {
        let mut tokens = line.split_whitespace();
        let name = tokens.next().expect("non-empty");
        let kind = tokens
            .next()
            .ok_or_else(|| ParseError::at(lineno, "action line needs an action kind"))?;
        let rest: Vec<&str> = tokens.collect();
        let arity = |n: usize, usage: &str| -> Result<(), ParseError> {
            if rest.len() == n {
                Ok(())
            } else {
                Err(ParseError::at(lineno, format!("expected `{usage}`")))
            }
        };
        let action = match kind {
            "crash" => {
                arity(0, "<fault> crash")?;
                FaultAction::CrashNode
            }
            "crash_p" => {
                arity(2, "<fault> crash_p <activation> <dormancy_ns>")?;
                FaultAction::CrashWithProbability {
                    activation: parse_f64(lineno, "activation", rest[0])?,
                    dormancy_ns: parse_u64(lineno, "dormancy_ns", rest[1])?,
                }
            }
            "hang" => {
                arity(1, "<fault> hang <duration_ns>")?;
                FaultAction::HangNode {
                    duration_ns: parse_u64(lineno, "duration_ns", rest[0])?,
                }
            }
            "drop" => {
                arity(1, "<fault> drop <count>")?;
                FaultAction::DropMessages {
                    count: parse_u64(lineno, "count", rest[0])? as u32,
                }
            }
            "corrupt_state" => {
                arity(1, "<fault> corrupt_state <target>")?;
                FaultAction::CorruptState {
                    target: rest[0].to_owned(),
                }
            }
            "custom" => {
                arity(1, "<fault> custom <name>")?;
                FaultAction::Custom(rest[0].to_owned())
            }
            "heal" => {
                arity(0, "<fault> heal")?;
                FaultAction::Heal
            }
            "partition" => {
                let mut groups: Vec<Vec<String>> = vec![Vec::new()];
                for t in &rest {
                    if *t == "|" {
                        groups.push(Vec::new());
                    } else {
                        groups.last_mut().expect("non-empty").push((*t).to_owned());
                    }
                }
                if groups.iter().any(Vec::is_empty) {
                    return Err(ParseError::at(
                        lineno,
                        "partition groups must be non-empty (`partition h1 | h2 h3`)",
                    ));
                }
                FaultAction::Partition { groups }
            }
            "link" => {
                if rest.len() < 2 {
                    return Err(ParseError::at(
                        lineno,
                        "expected `<fault> link <from> <to> [key=value…]`",
                    ));
                }
                let (mut drop_prob, mut dup_prob, mut corrupt_prob) = (0.0, 0.0, 0.0);
                let (mut reorder_ns, mut extra_latency_ns) = (0, 0);
                for t in &rest[2..] {
                    let (k, v) = t.split_once('=').ok_or_else(|| {
                        ParseError::at(lineno, format!("expected `key=value`, found `{t}`"))
                    })?;
                    match k {
                        "drop" => drop_prob = parse_f64(lineno, "drop", v)?,
                        "dup" => dup_prob = parse_f64(lineno, "dup", v)?,
                        "corrupt" => corrupt_prob = parse_f64(lineno, "corrupt", v)?,
                        "reorder_ns" => reorder_ns = parse_u64(lineno, "reorder_ns", v)?,
                        "latency_ns" => extra_latency_ns = parse_u64(lineno, "latency_ns", v)?,
                        other => {
                            return Err(ParseError::at(
                                lineno,
                                format!("unknown link parameter `{other}`"),
                            ))
                        }
                    }
                }
                FaultAction::LinkFault {
                    from: rest[0].to_owned(),
                    to: rest[1].to_owned(),
                    drop_prob,
                    dup_prob,
                    reorder_ns,
                    corrupt_prob,
                    extra_latency_ns,
                }
            }
            "gray" => {
                arity(2, "<fault> gray <host> slowdown=X")?;
                let slowdown = rest[1].strip_prefix("slowdown=").ok_or_else(|| {
                    ParseError::at(lineno, "expected `<fault> gray <host> slowdown=X`")
                })?;
                FaultAction::GrayNode {
                    host: rest[0].to_owned(),
                    slowdown: parse_f64(lineno, "slowdown", slowdown)?,
                }
            }
            other => {
                return Err(ParseError::at(
                    lineno,
                    format!("unknown action kind `{other}`"),
                ))
            }
        };
        if probe.action_for(name).is_some() {
            return Err(ParseError::at(
                lineno,
                format!("duplicate action for fault `{name}`"),
            ));
        }
        probe = probe.on(name, action);
    }
    Ok(probe)
}

/// Writes an action file (fault names in sorted order, so output is
/// deterministic and round-trips through [`parse_action_file`]).
pub fn write_action_file(probe: &ActionProbe) -> String {
    let mut entries: Vec<(&str, &FaultAction)> = probe.iter().collect();
    entries.sort_by_key(|(name, _)| *name);
    let mut out = String::new();
    for (name, action) in entries {
        let line = match action {
            FaultAction::CrashNode => format!("{name} crash"),
            FaultAction::CrashWithProbability {
                activation,
                dormancy_ns,
            } => format!("{name} crash_p {activation} {dormancy_ns}"),
            FaultAction::HangNode { duration_ns } => format!("{name} hang {duration_ns}"),
            FaultAction::DropMessages { count } => format!("{name} drop {count}"),
            FaultAction::CorruptState { target } => format!("{name} corrupt_state {target}"),
            FaultAction::Custom(target) => format!("{name} custom {target}"),
            FaultAction::Heal => format!("{name} heal"),
            FaultAction::Partition { groups } => {
                let joined: Vec<String> = groups.iter().map(|g| g.join(" ")).collect();
                format!("{name} partition {}", joined.join(" | "))
            }
            FaultAction::LinkFault {
                from,
                to,
                drop_prob,
                dup_prob,
                reorder_ns,
                corrupt_prob,
                extra_latency_ns,
            } => format!(
                "{name} link {from} {to} drop={drop_prob} dup={dup_prob} \
                 corrupt={corrupt_prob} reorder_ns={reorder_ns} latency_ns={extra_latency_ns}"
            ),
            FaultAction::GrayNode { host, slowdown } => {
                format!("{name} gray {host} slowdown={slowdown}")
            }
            // Future probe actions without a file syntax yet.
            _ => continue,
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Per-experiment resource budgets — the campaign-file syntax for the
/// harness's survivability knobs.
///
/// Mirrors `SimHarnessConfig::{max_virtual_time, max_events}`. A field
/// absent from the file stays `None`, meaning "unbounded".
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetSpec {
    /// Virtual-time ceiling per experiment, in nanoseconds.
    pub max_virtual_time_ns: Option<u64>,
    /// Event-count ceiling per experiment.
    pub max_events: Option<u64>,
}

/// Parses a budget file: `<key> <value>` per line, keys
/// `max_virtual_time_ns` and `max_events`.
///
/// # Errors
///
/// Returns a [`ParseError`] for unknown keys, malformed numbers, missing
/// values, or duplicate keys.
///
/// # Examples
///
/// ```
/// use loki_spec::files::parse_budget_file;
///
/// let budget = parse_budget_file("max_virtual_time_ns 2000000000\nmax_events 500000\n")?;
/// assert_eq!(budget.max_virtual_time_ns, Some(2_000_000_000));
/// assert_eq!(budget.max_events, Some(500_000));
/// # Ok::<(), loki_spec::error::ParseError>(())
/// ```
pub fn parse_budget_file(text: &str) -> Result<BudgetSpec, ParseError> {
    let mut spec = BudgetSpec::default();
    for (lineno, line) in content_lines(text) {
        let mut tokens = line.split_whitespace();
        let key = tokens.next().expect("non-empty");
        let value = tokens
            .next()
            .ok_or_else(|| ParseError::at(lineno, format!("budget key `{key}` needs a value")))?;
        if tokens.next().is_some() {
            return Err(ParseError::at(lineno, "unexpected extra field"));
        }
        let duplicate = |lineno: usize, key: &str| -> ParseError {
            ParseError::at(lineno, format!("duplicate budget key `{key}`"))
        };
        match key {
            "max_virtual_time_ns" => {
                if spec.max_virtual_time_ns.is_some() {
                    return Err(duplicate(lineno, key));
                }
                spec.max_virtual_time_ns = Some(parse_u64(lineno, key, value)?);
            }
            "max_events" => {
                if spec.max_events.is_some() {
                    return Err(duplicate(lineno, key));
                }
                spec.max_events = Some(parse_u64(lineno, key, value)?);
            }
            other => {
                return Err(ParseError::at(
                    lineno,
                    format!("unknown budget key `{other}`"),
                ))
            }
        }
    }
    Ok(spec)
}

/// Writes a budget file (keys in fixed order; absent fields are omitted,
/// so output round-trips through [`parse_budget_file`]).
pub fn write_budget_file(spec: &BudgetSpec) -> String {
    let mut out = String::new();
    if let Some(v) = spec.max_virtual_time_ns {
        out.push_str(&format!("max_virtual_time_ns {v}\n"));
    }
    if let Some(v) = spec.max_events {
        out.push_str(&format!("max_events {v}\n"));
    }
    out
}

/// The study file: per-machine pointers to its specification inputs (§5.6).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StudyFile {
    /// The machine's nickname (`<SMNickName>`).
    pub sm_nickname: String,
    /// Path of the node file.
    pub node_file: String,
    /// Path of the state machine specification file.
    pub sm_spec_file: String,
    /// Path of the fault specification file.
    pub fault_spec_file: String,
    /// Path of the instrumented application executable.
    pub executable: String,
    /// Application arguments (a single line; may be empty).
    pub arguments: String,
}

/// Parses a study file: six fixed lines (§5.6). The arguments line may be
/// absent, in which case `arguments` is empty.
///
/// # Errors
///
/// Returns a [`ParseError`] when fewer than five content lines are present.
pub fn parse_study_file(text: &str) -> Result<StudyFile, ParseError> {
    let lines: Vec<&str> = content_lines(text).map(|(_, l)| l).collect();
    if lines.len() < 5 {
        return Err(ParseError::eof(format!(
            "study file needs at least 5 lines, found {}",
            lines.len()
        )));
    }
    Ok(StudyFile {
        sm_nickname: lines[0].to_owned(),
        node_file: lines[1].to_owned(),
        sm_spec_file: lines[2].to_owned(),
        fault_spec_file: lines[3].to_owned(),
        executable: lines[4].to_owned(),
        arguments: lines.get(5).copied().unwrap_or("").to_owned(),
    })
}

/// Writes a study file.
pub fn write_study_file(study: &StudyFile) -> String {
    format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n",
        study.sm_nickname,
        study.node_file,
        study.sm_spec_file,
        study.fault_spec_file,
        study.executable,
        study.arguments
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::fault::FaultExpr;

    #[test]
    fn fault_spec_roundtrip_thesis_examples() {
        let text = "\
bfault1 (black:LEAD) always
gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once
gfault3 ((green:FOLLOW) | (green:ELECT)) once
";
        let faults = parse_fault_spec("green", text).unwrap();
        assert_eq!(faults.len(), 3);
        assert_eq!(faults[0].name, "bfault1");
        assert_eq!(faults[0].trigger, Trigger::Always);
        assert_eq!(faults[0].expr, FaultExpr::atom("black", "LEAD"));
        assert_eq!(faults[1].trigger, Trigger::Once);
        let rewritten = write_fault_spec(&faults);
        let reparsed = parse_fault_spec("green", &rewritten).unwrap();
        assert_eq!(faults, reparsed);
    }

    #[test]
    fn fault_spec_errors() {
        assert!(parse_fault_spec("m", "f1 (a:X) sometimes\n").is_err());
        assert!(parse_fault_spec("m", "f1\n").is_err());
        assert!(parse_fault_spec("m", "f1 ((a:X) once\n").is_err());
    }

    #[test]
    fn node_file_roundtrip() {
        let text = "black host1\nyellow host2\ngreen\n";
        let placements = parse_node_file(text).unwrap();
        assert_eq!(placements.len(), 3);
        assert_eq!(placements[0].host.as_deref(), Some("host1"));
        assert_eq!(placements[2].host, None);
        assert_eq!(write_node_file(&placements), text);
        assert!(parse_node_file("a b c\n").is_err());
    }

    #[test]
    fn machines_file_roundtrip() {
        let hosts = vec!["h1".to_owned(), "h2".to_owned()];
        let text = write_machines_file(&hosts);
        assert_eq!(parse_machines_file(&text), hosts);
    }

    #[test]
    fn daemon_startup_roundtrip() {
        let text = "host1 9000\nhost2 9001\n";
        let eps = parse_daemon_startup(text).unwrap();
        assert_eq!(
            eps[1],
            DaemonEndpoint {
                host: "host2".into(),
                port: 9001
            }
        );
        assert_eq!(write_daemon_startup(&eps), text);
        assert!(parse_daemon_startup("host1\n").is_err());
        assert!(parse_daemon_startup("host1 notaport\n").is_err());
    }

    #[test]
    fn daemon_contact_roundtrip() {
        let text = "host1 12 34\n";
        let cs = parse_daemon_contact(text).unwrap();
        assert_eq!(cs[0].shm_id, 12);
        assert_eq!(cs[0].sem_id, 34);
        assert_eq!(write_daemon_contact(&cs), text);
        assert!(parse_daemon_contact("host1 12\n").is_err());
        assert!(parse_daemon_contact("host1 x y\n").is_err());
    }

    #[test]
    fn action_file_roundtrip_all_kinds() {
        let text = "\
# probe table
kill crash
maybe crash_p 0.5 1000000
stall hang 2000000
mute drop 3
flip corrupt_state counter
odd custom special
netsplit partition host1 | host2 host3
lossy link host1 host2 drop=0.3 dup=0.05 corrupt=0.01 reorder_ns=250000 latency_ns=50000
slowpoke gray host3 slowdown=8
heal_net heal
";
        let probe = parse_action_file(text).unwrap();
        assert_eq!(probe.action_for("kill"), Some(&FaultAction::CrashNode));
        assert_eq!(
            probe.action_for("netsplit"),
            Some(&FaultAction::Partition {
                groups: vec![
                    vec!["host1".to_owned()],
                    vec!["host2".to_owned(), "host3".to_owned()],
                ],
            })
        );
        assert_eq!(
            probe.action_for("lossy"),
            Some(&FaultAction::LinkFault {
                from: "host1".into(),
                to: "host2".into(),
                drop_prob: 0.3,
                dup_prob: 0.05,
                reorder_ns: 250_000,
                corrupt_prob: 0.01,
                extra_latency_ns: 50_000,
            })
        );
        assert_eq!(
            probe.action_for("slowpoke"),
            Some(&FaultAction::GrayNode {
                host: "host3".into(),
                slowdown: 8.0,
            })
        );
        assert_eq!(probe.action_for("heal_net"), Some(&FaultAction::Heal));
        // Writer emits sorted, parseable lines.
        let rewritten = write_action_file(&probe);
        let reparsed = parse_action_file(&rewritten).unwrap();
        for (name, action) in probe.iter() {
            assert_eq!(reparsed.action_for(name), Some(action), "{name}");
        }
    }

    #[test]
    fn action_file_errors() {
        assert!(parse_action_file("f\n").is_err()); // no kind
        assert!(parse_action_file("f explode\n").is_err()); // unknown kind
        assert!(parse_action_file("f crash extra\n").is_err());
        assert!(parse_action_file("f crash_p x 0\n").is_err());
        assert!(parse_action_file("f partition h1 |\n").is_err()); // empty group
        assert!(parse_action_file("f link h1\n").is_err()); // missing `to`
        assert!(parse_action_file("f link h1 h2 warp=1\n").is_err());
        assert!(parse_action_file("f link h1 h2 drop\n").is_err()); // no `=`
        assert!(parse_action_file("f gray h1 8\n").is_err()); // no slowdown=
        assert!(parse_action_file("f crash\nf heal\n").is_err()); // duplicate
    }

    #[test]
    fn budget_file_roundtrip() {
        let text = "\
# per-experiment budgets
max_virtual_time_ns 2000000000
max_events 500000
";
        let budget = parse_budget_file(text).unwrap();
        assert_eq!(budget.max_virtual_time_ns, Some(2_000_000_000));
        assert_eq!(budget.max_events, Some(500_000));
        let rewritten = write_budget_file(&budget);
        assert_eq!(parse_budget_file(&rewritten).unwrap(), budget);

        // Partial files leave the other knobs unbounded.
        let partial = parse_budget_file("max_events 1000\n").unwrap();
        assert_eq!(partial.max_events, Some(1000));
        assert_eq!(partial.max_virtual_time_ns, None);
        assert_eq!(write_budget_file(&BudgetSpec::default()), "");
    }

    #[test]
    fn budget_file_errors() {
        assert!(parse_budget_file("max_events\n").is_err()); // no value
        assert!(parse_budget_file("max_events 1 2\n").is_err()); // extra field
        assert!(parse_budget_file("max_events many\n").is_err()); // not a number
        assert!(parse_budget_file("wall_clock_ns 5\n").is_err()); // unknown key
        assert!(parse_budget_file("max_events 1\nmax_events 2\n").is_err()); // duplicate
    }

    #[test]
    fn study_file_roundtrip() {
        let sf = StudyFile {
            sm_nickname: "black".into(),
            node_file: "nodes.txt".into(),
            sm_spec_file: "black.sm".into(),
            fault_spec_file: "black.flt".into(),
            executable: "/bin/election".into(),
            arguments: "--replicas 3".into(),
        };
        let text = write_study_file(&sf);
        assert_eq!(parse_study_file(&text).unwrap(), sf);
        assert!(parse_study_file("only\nthree\nlines\n").is_err());
    }
}
