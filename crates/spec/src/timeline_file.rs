//! The on-disk local timeline format (§3.5.6).
//!
//! The file carries index tables for state machines, states, events, and
//! faults, followed by the records themselves with names replaced by
//! indices ("this makes the local timeline compact and decreases intrusion
//! during recording"). Times are stored as the upper and lower 32-bit halves
//! of the 64-bit nanosecond reading, exactly as in the thesis:
//!
//! ```text
//! <mySMnickName>
//! host <initial host>                       (extension: first stint's host)
//! state_machine_list
//! <index> <SMNickName>
//! end_state_machine_list
//! global_state_list
//! <index> <stateName>
//! end_global_state_list
//! event_list
//! <index> <eventName>
//! end_event_list
//! fault_list
//! <index> <faultName> <faultExpr> <once|always>
//! end_fault_list
//! local_timeline
//! 0 <EventIndex> <NewStateIndex> <Time.Hi> <Time.Lo>     STATE_CHANGE
//! 1 <FaultIndex> <Time.Hi> <Time.Lo>                     FAULT_INJECTION
//! 2 <host> <Time.Hi> <Time.Lo>                           RESTART (extension)
//! 3 <Time.Hi> <Time.Lo> <message...>                     USER_MESSAGE (extension)
//! end_local_timeline
//! ```
//!
//! `STATE_CHANGE` and `FAULT_INJECTION` are the thesis's numerical constants
//! 0 and 1. Record kinds 2 and 3 are extensions: the thesis stores restart
//! host information "in the local timeline" without specifying an encoding,
//! and permits arbitrary user messages.
//!
//! A user message runs from the one space after `<Time.Lo>` to the end of
//! the line, verbatim — spaces, quotes and all — except that a backslash,
//! a line feed and a carriage return are written `\\`, `\n` and `\r`, so
//! every message reads back exactly, the empty one included (written as
//! `3 <Time.Hi> <Time.Lo>`).

use crate::error::ParseError;
use crate::files::split_head;
use loki_core::fault::CompiledExpr;
use loki_core::ids::SymbolTable;
use loki_core::recorder::{HostStint, LocalTimeline, RecordKind, TimelineRecord};
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use std::collections::HashMap;
use std::fmt;

/// Writes `timeline` in the on-disk format, using `study` for names and
/// `symbols` (the study run's host table) to resolve host ids — the file
/// stays name-based and therefore portable across table orderings.
///
/// The fault table lists the faults owned by the timeline's machine, as in
/// the thesis, each expression rendered from its compiled form through the
/// study's machine and state names; the state machine, state, and event
/// tables are study-wide.
pub fn write(study: &Study, symbols: &SymbolTable, timeline: &LocalTimeline) -> String {
    let mut out = String::new();
    out.push_str(study.sms.name(timeline.sm));
    out.push('\n');
    out.push_str(&format!("host {}\n", symbols.name(timeline.stints[0].host)));

    out.push_str("state_machine_list\n");
    for (id, name) in study.sms.iter() {
        out.push_str(&format!("{} {}\n", id.raw(), name));
    }
    out.push_str("end_state_machine_list\n");

    out.push_str("global_state_list\n");
    for (id, name) in study.states.iter() {
        out.push_str(&format!("{} {}\n", id.raw(), name));
    }
    out.push_str("end_global_state_list\n");

    out.push_str("event_list\n");
    for (id, name) in study.events.iter() {
        out.push_str(&format!("{} {}\n", id.raw(), name));
    }
    out.push_str("end_event_list\n");

    out.push_str("fault_list\n");
    for fault in study.faults.iter().filter(|f| f.owner == timeline.sm) {
        out.push_str(&format!(
            "{} {} {} {}\n",
            fault.id.raw(),
            study.fault_names.name(fault.id),
            expr_text(study, &fault.expr),
            fault.trigger
        ));
    }
    out.push_str("end_fault_list\n");

    out.push_str("local_timeline\n");
    for record in &timeline.records {
        let (hi, lo) = record.time.split_hi_lo();
        match &record.kind {
            RecordKind::StateChange { event, new_state } => {
                out.push_str(&format!(
                    "0 {} {} {} {}\n",
                    event.raw(),
                    new_state.raw(),
                    hi,
                    lo
                ));
            }
            RecordKind::FaultInjection { fault } => {
                out.push_str(&format!("1 {} {} {}\n", fault.raw(), hi, lo));
            }
            RecordKind::Restart { host } => {
                out.push_str(&format!("2 {} {} {}\n", symbols.name(*host), hi, lo));
            }
            RecordKind::UserMessage { .. } => {
                out.push_str(&format!("3 {hi} {lo}"));
                let message = timeline.user_message(record.kind).unwrap_or_default();
                if !message.is_empty() {
                    out.push(' ');
                    escape_into(&mut out, message);
                }
                out.push('\n');
            }
        }
    }
    out.push_str("end_local_timeline\n");
    out
}

/// Appends `message` with its backslashes and line breaks escaped.
fn escape_into(out: &mut String, message: &str) {
    for c in message.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

/// Appends the message `escaped` as [`escape_into`] wrote it. Total: an
/// escape it does not know, or a lone trailing backslash, stays as
/// written.
fn unescape_into(out: &mut String, escaped: &str) {
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.clone().next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => {
                out.push('\\');
                continue;
            }
        }
        chars.next();
    }
}

/// Splits the first whitespace-separated word off `text`: the word (if
/// any) and everything after it, its separating whitespace included.
fn split_word(text: &str) -> (Option<&str>, &str) {
    let text = text.trim_start();
    let end = text.find(char::is_whitespace).unwrap_or(text.len());
    let (word, rest) = text.split_at(end);
    ((!word.is_empty()).then_some(word), rest)
}

/// `expr` with `study`'s names, in [`FaultExpr`]'s `Display` syntax: the
/// syntax the fault parser reads back.
///
/// [`FaultExpr`]: loki_core::fault::FaultExpr
fn expr_text<'a>(study: &'a Study, expr: &'a CompiledExpr) -> impl fmt::Display + 'a {
    fmt::from_fn(move |f| match expr {
        CompiledExpr::Atom(sm, state) => {
            write!(f, "({}:{})", study.sms.name(*sm), study.states.name(*state))
        }
        CompiledExpr::And(a, b) => write!(f, "({} & {})", expr_text(study, a), expr_text(study, b)),
        CompiledExpr::Or(a, b) => write!(f, "({} | {})", expr_text(study, a), expr_text(study, b)),
        CompiledExpr::Not(a) => write!(f, "~{}", expr_text(study, a)),
    })
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Mode {
    Header,
    SmList,
    ExpectStates,
    StateList,
    ExpectEvents,
    EventList,
    ExpectFaults,
    FaultList,
    ExpectTimeline,
    Timeline,
    Done,
}

/// Parses an on-disk timeline, resolving names through `study` and
/// interning host names into `symbols` (unknown hosts are added — a loaded
/// timeline may mention hosts the current configuration does not).
///
/// Indices in the file are mapped through the file's own tables to names
/// and then to `study` ids, so files written against a differently-ordered
/// table still load correctly.
///
/// # Errors
///
/// Returns a [`ParseError`] for structural problems or names unknown to
/// `study`.
pub fn parse(
    study: &Study,
    symbols: &mut SymbolTable,
    text: &str,
) -> Result<LocalTimeline, ParseError> {
    let mut sm_name: Option<String> = None;
    let mut initial_host: Option<String> = None;
    let mut state_table: HashMap<u32, String> = HashMap::new();
    let mut event_table: HashMap<u32, String> = HashMap::new();
    let mut fault_table: HashMap<u32, String> = HashMap::new();
    let mut records: Vec<TimelineRecord> = Vec::new();
    let mut messages = String::new();
    let mut restart_stints: Vec<(loki_core::ids::HostId, usize)> = Vec::new();
    let mut mode = Mode::Header;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        match mode {
            Mode::Header => {
                if sm_name.is_none() {
                    sm_name = Some(line.to_owned());
                } else if let Some(host) = line.strip_prefix("host ") {
                    initial_host = Some(host.trim().to_owned());
                } else if line == "state_machine_list" {
                    mode = Mode::SmList;
                } else {
                    return Err(ParseError::at(
                        lineno,
                        format!("expected `host` or `state_machine_list`, found `{line}`"),
                    ));
                }
            }
            Mode::SmList => {
                if line == "end_state_machine_list" {
                    mode = Mode::ExpectStates;
                } else {
                    // The machine list is informational; names are validated
                    // against the study when referenced.
                    index_name(line, lineno)?;
                }
            }
            Mode::ExpectStates => {
                expect_keyword(line, "global_state_list", lineno)?;
                mode = Mode::StateList;
            }
            Mode::StateList => {
                if line == "end_global_state_list" {
                    mode = Mode::ExpectEvents;
                } else {
                    let (i, name) = index_name(line, lineno)?;
                    state_table.insert(i, name);
                }
            }
            Mode::ExpectEvents => {
                expect_keyword(line, "event_list", lineno)?;
                mode = Mode::EventList;
            }
            Mode::EventList => {
                if line == "end_event_list" {
                    mode = Mode::ExpectFaults;
                } else {
                    let (i, name) = index_name(line, lineno)?;
                    event_table.insert(i, name);
                }
            }
            Mode::ExpectFaults => {
                expect_keyword(line, "fault_list", lineno)?;
                mode = Mode::FaultList;
            }
            Mode::FaultList => {
                if line == "end_fault_list" {
                    mode = Mode::ExpectTimeline;
                } else {
                    // `<index> <name> <expr...> <trigger>` — only index and
                    // name are needed to decode records.
                    let (idx_str, rest) = split_head(line);
                    let mut tokens = rest.split_whitespace();
                    let i: u32 = idx_str.parse().map_err(|_| {
                        ParseError::at(lineno, format!("invalid fault index `{idx_str}`"))
                    })?;
                    let name = tokens
                        .next()
                        .ok_or_else(|| ParseError::at(lineno, "fault entry needs a name"))?;
                    fault_table.insert(i, name.to_owned());
                }
            }
            Mode::ExpectTimeline => {
                expect_keyword(line, "local_timeline", lineno)?;
                mode = Mode::Timeline;
            }
            Mode::Timeline => {
                if line == "end_local_timeline" {
                    mode = Mode::Done;
                    continue;
                }
                let (tag, rest) = split_head(line);
                let mut tokens = rest.split_whitespace();
                match tag {
                    "0" => {
                        let ev = parse_u32(tokens.next(), lineno, "event index")?;
                        let st = parse_u32(tokens.next(), lineno, "state index")?;
                        let time = parse_time(tokens.next(), tokens.next(), lineno)?;
                        let event_name = event_table.get(&ev).ok_or_else(|| {
                            ParseError::at(lineno, format!("event index {ev} not in event_list"))
                        })?;
                        let state_name = state_table.get(&st).ok_or_else(|| {
                            ParseError::at(
                                lineno,
                                format!("state index {st} not in global_state_list"),
                            )
                        })?;
                        let event = study.events.lookup(event_name).ok_or_else(|| {
                            ParseError::at(lineno, format!("unknown event `{event_name}`"))
                        })?;
                        let new_state = study.states.lookup(state_name).ok_or_else(|| {
                            ParseError::at(lineno, format!("unknown state `{state_name}`"))
                        })?;
                        records.push(TimelineRecord {
                            time,
                            kind: RecordKind::StateChange { event, new_state },
                        });
                    }
                    "1" => {
                        let fi = parse_u32(tokens.next(), lineno, "fault index")?;
                        let time = parse_time(tokens.next(), tokens.next(), lineno)?;
                        let fault_name = fault_table.get(&fi).ok_or_else(|| {
                            ParseError::at(lineno, format!("fault index {fi} not in fault_list"))
                        })?;
                        let fault = study.fault_names.lookup(fault_name).ok_or_else(|| {
                            ParseError::at(lineno, format!("unknown fault `{fault_name}`"))
                        })?;
                        records.push(TimelineRecord {
                            time,
                            kind: RecordKind::FaultInjection { fault },
                        });
                    }
                    "2" => {
                        let host_name = tokens
                            .next()
                            .ok_or_else(|| ParseError::at(lineno, "restart record needs a host"))?;
                        let host = symbols.intern(host_name);
                        let time = parse_time(tokens.next(), tokens.next(), lineno)?;
                        restart_stints.push((host, records.len()));
                        records.push(TimelineRecord {
                            time,
                            kind: RecordKind::Restart { host },
                        });
                    }
                    "3" => {
                        // The message is the raw line's rest, not the
                        // trimmed line's tokens: its spaces are its own.
                        let (_, after_tag) = split_word(raw);
                        let (hi, after_hi) = split_word(after_tag);
                        let (lo, after_lo) = split_word(after_hi);
                        let time = parse_time(hi, lo, lineno)?;
                        let start = messages.len();
                        let escaped = after_lo.strip_prefix(' ').unwrap_or(after_lo);
                        unescape_into(&mut messages, escaped);
                        let span = |n: usize| {
                            u32::try_from(n).map_err(|_| {
                                ParseError::at(lineno, "user messages past u32::MAX bytes")
                            })
                        };
                        records.push(TimelineRecord {
                            time,
                            kind: RecordKind::UserMessage {
                                start: span(start)?,
                                len: span(messages.len() - start)?,
                            },
                        });
                    }
                    other => {
                        return Err(ParseError::at(
                            lineno,
                            format!("unknown timeline record tag `{other}`"),
                        ))
                    }
                }
            }
            Mode::Done => {
                return Err(ParseError::at(
                    lineno,
                    format!("unexpected content after `end_local_timeline`: `{line}`"),
                ))
            }
        }
    }

    if mode != Mode::Done {
        return Err(ParseError::eof("truncated timeline file"));
    }
    let sm_name = sm_name.ok_or_else(|| ParseError::eof("missing state machine nickname"))?;
    let sm = study
        .sms
        .lookup(&sm_name)
        .ok_or_else(|| ParseError::eof(format!("unknown state machine `{sm_name}`")))?;

    let initial_host = symbols.intern(initial_host.as_deref().unwrap_or("unknown"));
    let mut stints = vec![HostStint {
        host: initial_host,
        first_record: 0,
    }];
    for (host, first_record) in restart_stints {
        stints.push(HostStint { host, first_record });
    }

    Ok(LocalTimeline {
        sm,
        records,
        stints,
        text: messages,
    })
}

fn expect_keyword(line: &str, keyword: &str, lineno: usize) -> Result<(), ParseError> {
    if line == keyword {
        Ok(())
    } else {
        Err(ParseError::at(
            lineno,
            format!("expected `{keyword}`, found `{line}`"),
        ))
    }
}

fn index_name(line: &str, lineno: usize) -> Result<(u32, String), ParseError> {
    let (idx_str, rest) = split_head(line);
    let mut tokens = rest.split_whitespace();
    let idx: u32 = idx_str
        .parse()
        .map_err(|_| ParseError::at(lineno, format!("invalid index `{idx_str}`")))?;
    let name = tokens
        .next()
        .ok_or_else(|| ParseError::at(lineno, "expected `<index> <name>`"))?
        .to_owned();
    if tokens.next().is_some() {
        return Err(ParseError::at(lineno, "unexpected extra field"));
    }
    Ok((idx, name))
}

fn parse_u32(token: Option<&str>, lineno: usize, what: &str) -> Result<u32, ParseError> {
    let t = token.ok_or_else(|| ParseError::at(lineno, format!("missing {what}")))?;
    t.parse()
        .map_err(|_| ParseError::at(lineno, format!("invalid {what} `{t}`")))
}

fn parse_time(hi: Option<&str>, lo: Option<&str>, lineno: usize) -> Result<LocalNanos, ParseError> {
    let hi = parse_u32(hi, lineno, "time high word")?;
    let lo = parse_u32(lo, lineno, "time low word")?;
    Ok(LocalNanos::from_hi_lo(hi, lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::fault::{FaultExpr, Trigger};
    use loki_core::recorder::Recorder;
    use loki_core::spec::{StateMachineSpec, StudyDef};

    fn study() -> Study {
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("black")
                    .states(&["INIT", "ELECT", "LEAD"])
                    .events(&["INIT_DONE", "LEADER"])
                    .state("INIT", &["green"], &[("INIT_DONE", "ELECT")])
                    .state("ELECT", &[], &[("LEADER", "LEAD")])
                    .build(),
            )
            .machine(
                StateMachineSpec::builder("green")
                    .states(&["INIT", "ELECT", "LEAD"])
                    .events(&["INIT_DONE"])
                    .state("INIT", &[], &[("INIT_DONE", "ELECT")])
                    .build(),
            )
            .fault(
                "black",
                "bfault1",
                FaultExpr::atom("black", "LEAD"),
                Trigger::Always,
            );
        Study::compile(&def).unwrap()
    }

    fn symbols() -> SymbolTable {
        SymbolTable::from_iter(["host1", "host2"])
    }

    fn sample_timeline(study: &Study, symbols: &SymbolTable) -> LocalTimeline {
        let black = study.sm_id("black").unwrap();
        let init_done = study.events.lookup("INIT_DONE").unwrap();
        let leader = study.events.lookup("LEADER").unwrap();
        let elect = study.states.lookup("ELECT").unwrap();
        let lead = study.states.lookup("LEAD").unwrap();
        let bfault1 = study.fault_names.lookup("bfault1").unwrap();
        let host1 = symbols.lookup("host1").unwrap();
        let host2 = symbols.lookup("host2").unwrap();

        let mut rec = Recorder::new(black, host1);
        rec.record_state_change(LocalNanos::from_millis(5), init_done, elect);
        rec.record_state_change(LocalNanos::from_millis(9), leader, lead);
        rec.record_injection(LocalNanos::from_millis(10), bfault1);
        rec.record_user_message(LocalNanos::from_millis(11), "hello world");
        let mut rec = Recorder::resume(rec.finish(), LocalNanos::from_millis(1), host2);
        rec.record_state_change(LocalNanos::from_millis(2), init_done, elect);
        rec.finish()
    }

    #[test]
    fn write_parse_roundtrip() {
        let study = study();
        let mut symbols = symbols();
        let timeline = sample_timeline(&study, &symbols);
        let text = write(&study, &symbols, &timeline);
        let parsed = parse(&study, &mut symbols, &text).unwrap();
        assert_eq!(parsed, timeline);
    }

    #[test]
    fn user_messages_roundtrip_verbatim_across_a_restart() {
        let study = study();
        let mut symbols = symbols();
        let black = study.sm_id("black").unwrap();
        let messages = [
            "two  spaces and a trailing one ",
            " leading",
            "",
            "say \"hi\" to 'them'",
            "back\\slash \\n not a newline \\",
            "line\nbreak\r\nand\ttab",
        ];
        let mut rec = Recorder::new(black, symbols.lookup("host1").unwrap());
        for (ms, m) in (1..).zip(&messages[..3]) {
            rec.record_user_message(LocalNanos::from_millis(ms), m);
        }
        let host2 = symbols.lookup("host2").unwrap();
        let mut rec = Recorder::resume(rec.finish(), LocalNanos::from_millis(9), host2);
        for (ms, m) in (10..).zip(&messages[3..]) {
            rec.record_user_message(LocalNanos::from_millis(ms), m);
        }
        let timeline = rec.finish();
        let text = write(&study, &symbols, &timeline);
        assert!(
            text.contains("\n3 0 3000000\n"),
            "the empty message: {text}"
        );
        assert!(text.contains(" back\\\\slash \\\\n not a newline \\\\\n"));
        let parsed = parse(&study, &mut symbols, &text).unwrap();
        assert_eq!(parsed, timeline);
        let read: Vec<&str> = parsed
            .records
            .iter()
            .filter_map(|r| parsed.user_message(r.kind))
            .collect();
        assert_eq!(read, messages);
    }

    #[test]
    fn unknown_escapes_and_a_lone_backslash_read_as_written() {
        let mut out = String::new();
        unescape_into(&mut out, "a\\q b\\");
        assert_eq!(out, "a\\q b\\");
    }

    #[test]
    fn parse_interns_hosts_unknown_to_the_table() {
        // A file written against one table loads into an empty table: the
        // parser interns the hosts it encounters and the stints stay
        // consistent with the restart records.
        let study = study();
        let symbols = symbols();
        let timeline = sample_timeline(&study, &symbols);
        let text = write(&study, &symbols, &timeline);
        let mut fresh = SymbolTable::new();
        let parsed = parse(&study, &mut fresh, &text).unwrap();
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh.name(parsed.stints[0].host), "host1");
        assert_eq!(fresh.name(parsed.stints[1].host), "host2");
    }

    #[test]
    fn written_file_has_thesis_structure() {
        let study = study();
        let symbols = symbols();
        let timeline = sample_timeline(&study, &symbols);
        let text = write(&study, &symbols, &timeline);
        for section in [
            "state_machine_list",
            "end_state_machine_list",
            "global_state_list",
            "end_global_state_list",
            "event_list",
            "end_event_list",
            "fault_list",
            "end_fault_list",
            "local_timeline",
            "end_local_timeline",
        ] {
            assert!(text.contains(section), "missing `{section}`:\n{text}");
        }
        // Fault table names only the machine's own faults, with expression
        // and trigger.
        assert!(text.contains("bfault1 (black:LEAD) always"));
        // Times appear as 32-bit halves: 10ms = 10_000_000 ns -> hi 0.
        assert!(text
            .lines()
            .any(|l| l.starts_with("1 ") && l.contains(" 0 ")));
    }

    #[test]
    fn fault_list_renders_each_expression_in_fault_file_syntax() {
        let exprs = [
            FaultExpr::atom("black", "CRASH")
                .and(FaultExpr::atom("green", "FOLLOW").or(FaultExpr::atom("green", "ELECT"))),
            FaultExpr::atom("a", "X").not(),
        ];
        let mut def = StudyDef::new("s")
            .machine(StateMachineSpec::builder("black").states(&["INIT"]).build())
            .machine(
                StateMachineSpec::builder("green")
                    .states(&["FOLLOW", "ELECT"])
                    .build(),
            )
            .machine(StateMachineSpec::builder("a").states(&["X"]).build());
        for (i, expr) in exprs.iter().enumerate() {
            def = def.fault("black", &format!("f{i}"), expr.clone(), Trigger::Once);
        }
        let study = Study::compile(&def).unwrap();
        let mut symbols = symbols();
        let black = study.sm_id("black").unwrap();
        let timeline = Recorder::new(black, symbols.lookup("host1").unwrap()).finish();
        let text = write(&study, &symbols, &timeline);
        let lines: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "fault_list")
            .skip(1)
            .take_while(|l| *l != "end_fault_list")
            .collect();
        assert_eq!(lines.len(), exprs.len(), "{text}");
        for (i, (line, expr)) in lines.iter().zip(&exprs).enumerate() {
            assert_eq!(*line, format!("{i} f{i} {expr} once"));
        }
        assert_eq!(parse(&study, &mut symbols, &text).unwrap(), timeline);
    }

    #[test]
    fn hi_lo_split_survives_large_times() {
        let study = study();
        let mut symbols = symbols();
        let black = study.sm_id("black").unwrap();
        let init_done = study.events.lookup("INIT_DONE").unwrap();
        let elect = study.states.lookup("ELECT").unwrap();
        let big = LocalNanos(u32::MAX as u64 * 7 + 123); // > 2^32 ns
        let mut rec = Recorder::new(black, symbols.lookup("host1").unwrap());
        rec.record_state_change(big, init_done, elect);
        let timeline = rec.finish();
        let text = write(&study, &symbols, &timeline);
        let parsed = parse(&study, &mut symbols, &text).unwrap();
        assert_eq!(parsed.records[0].time, big);
    }

    #[test]
    fn parse_rejects_garbage() {
        let study = study();
        let mut symbols = symbols();
        assert!(parse(&study, &mut symbols, "").is_err());
        assert!(parse(&study, &mut symbols, "black\nstate_machine_list\n").is_err());
        let timeline = sample_timeline(&study, &symbols);
        let good = write(&study, &symbols, &timeline);
        let tampered = good.replace("1 0 ", "9 0 ");
        assert!(parse(&study, &mut symbols, &tampered).is_err());
    }

    #[test]
    fn parse_rejects_unknown_machine() {
        let study = study();
        let mut symbols = symbols();
        let timeline = sample_timeline(&study, &symbols);
        let text = write(&study, &symbols, &timeline).replace("black\nhost", "white\nhost");
        assert!(parse(&study, &mut symbols, &text).is_err());
    }

    #[test]
    fn restart_records_rebuild_stints() {
        let study = study();
        let mut symbols = symbols();
        let timeline = sample_timeline(&study, &symbols);
        let text = write(&study, &symbols, &timeline);
        let parsed = parse(&study, &mut symbols, &text).unwrap();
        assert_eq!(parsed.stints.len(), 2);
        assert_eq!(symbols.name(parsed.stints[0].host), "host1");
        assert_eq!(symbols.name(parsed.stints[1].host), "host2");
        assert_eq!(parsed.stints[1].first_record, 4);
    }
}
