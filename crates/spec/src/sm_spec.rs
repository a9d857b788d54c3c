//! Parser and writer for the state machine specification format (§3.5.3).
//!
//! ```text
//! global_state_list
//! <list_of_states>
//! end_global_state_list
//! event_list
//! <list_of_events>
//! end_event_list
//!
//! state <state_1> [notify <nickname_1>, ... <nickname_j>]
//! <event_1> <next_state_1>
//! ...
//! ```
//!
//! Comments start with `#` and blank lines are ignored (an extension over
//! the thesis, which has no comment syntax).

use crate::error::ParseError;
use crate::files::split_head;
use loki_core::spec::{StateDef, StateMachineSpec, Transition};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Section {
    ExpectGlobalList,
    InStates,
    ExpectEventList,
    InEvents,
    Body,
}

/// Parses a state machine specification. The machine's nickname is not part
/// of the file (it comes from the file's name in the campaign directory),
/// so it is passed in.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number for malformed input.
///
/// # Examples
///
/// ```
/// use loki_spec::sm_spec::parse;
///
/// let text = "\
/// global_state_list
/// BEGIN
/// INIT
/// ELECT
/// end_global_state_list
/// event_list
/// START
/// INIT_DONE
/// end_event_list
///
/// state INIT notify green yellow
/// INIT_DONE ELECT
/// ";
/// let spec = parse("black", text)?;
/// assert_eq!(spec.global_states, vec!["BEGIN", "INIT", "ELECT"]);
/// assert_eq!(spec.states[0].notify, vec!["green", "yellow"]);
/// # Ok::<(), loki_spec::error::ParseError>(())
/// ```
pub fn parse(name: &str, text: &str) -> Result<StateMachineSpec, ParseError> {
    let mut section = Section::ExpectGlobalList;
    let mut spec = StateMachineSpec {
        name: name.to_owned(),
        ..Default::default()
    };
    let mut current: Option<StateDef> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        match section {
            Section::ExpectGlobalList => {
                if line == "global_state_list" {
                    section = Section::InStates;
                } else {
                    return Err(ParseError::at(
                        lineno,
                        format!("expected `global_state_list`, found `{line}`"),
                    ));
                }
            }
            Section::InStates => {
                if line == "end_global_state_list" {
                    section = Section::ExpectEventList;
                } else {
                    expect_single_token(line, lineno, "state name")?;
                    spec.global_states.push(line.to_owned());
                }
            }
            Section::ExpectEventList => {
                if line == "event_list" {
                    section = Section::InEvents;
                } else {
                    return Err(ParseError::at(
                        lineno,
                        format!("expected `event_list`, found `{line}`"),
                    ));
                }
            }
            Section::InEvents => {
                if line == "end_event_list" {
                    section = Section::Body;
                } else {
                    expect_single_token(line, lineno, "event name")?;
                    spec.events.push(line.to_owned());
                }
            }
            Section::Body => {
                let (first, rest) = split_head(line);
                let mut tokens = rest.split_whitespace();
                if first == "state" {
                    if let Some(done) = current.take() {
                        spec.states.push(done);
                    }
                    let state = tokens
                        .next()
                        .ok_or_else(|| ParseError::at(lineno, "`state` requires a state name"))?;
                    let mut def = StateDef {
                        state: state.to_owned(),
                        ..Default::default()
                    };
                    match tokens.next() {
                        None => {}
                        Some("notify") => {
                            for t in tokens {
                                for nick in t.split(',').filter(|s| !s.is_empty()) {
                                    def.notify.push(nick.to_owned());
                                }
                            }
                        }
                        Some(other) => {
                            return Err(ParseError::at(
                                lineno,
                                format!("expected `notify` after state name, found `{other}`"),
                            ))
                        }
                    }
                    current = Some(def);
                } else {
                    let def = current.as_mut().ok_or_else(|| {
                        ParseError::at(lineno, "transition line outside of a `state` block")
                    })?;
                    let next_state = tokens.next().ok_or_else(|| {
                        ParseError::at(
                            lineno,
                            format!("transition for event `{first}` is missing its next state"),
                        )
                    })?;
                    if let Some(extra) = tokens.next() {
                        return Err(ParseError::at(
                            lineno,
                            format!("unexpected token `{extra}` after transition"),
                        ));
                    }
                    def.transitions.push(Transition {
                        event: first.to_owned(),
                        next_state: next_state.to_owned(),
                    });
                }
            }
        }
    }
    if let Some(done) = current.take() {
        spec.states.push(done);
    }
    match section {
        Section::Body => Ok(spec),
        Section::ExpectGlobalList => Err(ParseError::eof("missing `global_state_list` section")),
        Section::InStates => Err(ParseError::eof("missing `end_global_state_list`")),
        Section::ExpectEventList => Err(ParseError::eof("missing `event_list` section")),
        Section::InEvents => Err(ParseError::eof("missing `end_event_list`")),
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(idx) => &line[..idx],
        None => line,
    }
}

fn expect_single_token(s: &str, lineno: usize, what: &str) -> Result<(), ParseError> {
    if s.split_whitespace().count() != 1 {
        return Err(ParseError::at(
            lineno,
            format!("expected a single {what}: `{s}`"),
        ));
    }
    Ok(())
}

/// Writes a specification back into the thesis's textual format.
///
/// # Examples
///
/// ```
/// use loki_core::spec::StateMachineSpec;
/// use loki_spec::sm_spec::{parse, write};
///
/// let spec = StateMachineSpec::builder("black")
///     .states(&["BEGIN", "RUN"])
///     .events(&["GO"])
///     .state("BEGIN", &[], &[("GO", "RUN")])
///     .state("RUN", &["green"], &[])
///     .build();
/// let text = write(&spec);
/// assert_eq!(parse("black", &text)?, spec);
/// # Ok::<(), loki_spec::error::ParseError>(())
/// ```
pub fn write(spec: &StateMachineSpec) -> String {
    let mut out = String::new();
    out.push_str("global_state_list\n");
    for s in &spec.global_states {
        out.push_str(s);
        out.push('\n');
    }
    out.push_str("end_global_state_list\n");
    out.push_str("event_list\n");
    for e in &spec.events {
        out.push_str(e);
        out.push('\n');
    }
    out.push_str("end_event_list\n");
    for def in &spec.states {
        out.push('\n');
        out.push_str("state ");
        out.push_str(&def.state);
        if !def.notify.is_empty() {
            out.push_str(" notify ");
            out.push_str(&def.notify.join(" "));
        }
        out.push('\n');
        for t in &def.transitions {
            out.push_str(&t.event);
            out.push(' ');
            out.push_str(&t.next_state);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thesis's `black` state machine specification, §5.3, verbatim.
    const BLACK: &str = "\
global_state_list
BEGIN
INIT
RESTART_SM
ELECT
FOLLOW
LEAD
CRASH
EXIT
end_global_state_list
event_list
START
INIT_DONE
RESTART
RESTART_DONE
LEADER
FOLLOWER
LEADER_CRASH
CRASH
ERROR
end_event_list

state INIT notify green yellow
INIT_DONE ELECT
ERROR EXIT

state RESTART_SM notify green yellow
RESTART_DONE FOLLOW
ERROR EXIT

state ELECT notify
FOLLOWER FOLLOW
LEADER LEAD
CRASH CRASH
ERROR EXIT

state LEAD notify
CRASH CRASH
ERROR EXIT

state FOLLOW notify
LEADER_CRASH ELECT
CRASH CRASH
ERROR EXIT

state CRASH notify green yellow
state EXIT notify
";

    #[test]
    fn parses_thesis_black_spec() {
        let spec = parse("black", BLACK).unwrap();
        assert_eq!(spec.name, "black");
        assert_eq!(spec.global_states.len(), 8);
        assert_eq!(spec.events.len(), 9);
        assert_eq!(spec.states.len(), 7);
        let elect = spec.state_def("ELECT").unwrap();
        assert!(elect.notify.is_empty());
        assert_eq!(elect.transitions.len(), 4);
        let crash = spec.state_def("CRASH").unwrap();
        assert_eq!(crash.notify, vec!["green", "yellow"]);
        assert!(crash.transitions.is_empty());
    }

    #[test]
    fn write_parse_roundtrip_thesis_spec() {
        let spec = parse("black", BLACK).unwrap();
        let text = write(&spec);
        let reparsed = parse("black", &text).unwrap();
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn comma_separated_notify_accepted() {
        let text = "\
global_state_list
A
end_global_state_list
event_list
end_event_list
state A notify x, y, z
";
        let spec = parse("m", text).unwrap();
        assert_eq!(spec.states[0].notify, vec!["x", "y", "z"]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
# a comment
global_state_list
A  # trailing comment
end_global_state_list

event_list
end_event_list
state A
";
        let spec = parse("m", text).unwrap();
        assert_eq!(spec.global_states, vec!["A"]);
    }

    #[test]
    fn error_cases() {
        assert!(parse("m", "").is_err());
        assert!(parse("m", "global_state_list\nA\n").is_err()); // no end
        assert!(parse("m", "bogus\n").is_err());
        let no_events = "global_state_list\nA\nend_global_state_list\n";
        assert!(parse("m", no_events).is_err());
        let orphan_transition = "\
global_state_list
A
end_global_state_list
event_list
E
end_event_list
E A
";
        assert!(parse("m", orphan_transition).is_err());
        let bad_transition = "\
global_state_list
A
end_global_state_list
event_list
E
end_event_list
state A
E
";
        assert!(parse("m", bad_transition).is_err());
    }
}
