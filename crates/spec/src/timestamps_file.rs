//! The timestamps file produced by the sync mini-phases.
//!
//! The thesis's `getstamps` tool stores "all the timestamps together in a
//! single timestamps file" (§5.6) without specifying its layout; we define
//! one line per synchronization message:
//!
//! ```text
//! reference <HostName>
//! <HostName> <0|1> <send_ns> <recv_ns>
//! ```
//!
//! where the second field is `1` when the reference host sent the message
//! and `0` when the named host sent it, and both timestamps are local-clock
//! nanosecond readings of the respective sender/receiver.

use crate::error::ParseError;
use loki_core::campaign::{HostSync, SyncSample};
use loki_core::ids::{HostId, SymbolTable};
use loki_core::time::LocalNanos;

/// Writes a timestamps file, resolving host ids through `symbols` (the
/// file stays name-based and therefore portable).
pub fn write(symbols: &SymbolTable, reference: HostId, host_syncs: &[HostSync]) -> String {
    let mut out = format!("reference {}\n", symbols.name(reference));
    for hs in host_syncs {
        for s in &hs.samples {
            out.push_str(&format!(
                "{} {} {} {}\n",
                symbols.name(hs.host),
                if s.from_reference { 1 } else { 0 },
                s.send.as_nanos(),
                s.recv.as_nanos()
            ));
        }
    }
    out
}

/// Parses a timestamps file, returning `(reference host, per-host samples)`
/// with every host name interned into `symbols`.
///
/// # Errors
///
/// Returns a [`ParseError`] for a missing `reference` header or malformed
/// sample lines.
pub fn parse(symbols: &mut SymbolTable, text: &str) -> Result<(HostId, Vec<HostSync>), ParseError> {
    let mut reference: Option<HostId> = None;
    let mut syncs: Vec<HostSync> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(host) = line.strip_prefix("reference ") {
            if reference.is_some() {
                return Err(ParseError::at(lineno, "duplicate `reference` line"));
            }
            reference = Some(symbols.intern(host.trim()));
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() != 4 {
            return Err(ParseError::at(
                lineno,
                "expected `<host> <0|1> <send_ns> <recv_ns>`",
            ));
        }
        let from_reference = match tokens[1] {
            "1" => true,
            "0" => false,
            other => {
                return Err(ParseError::at(
                    lineno,
                    format!("direction must be 0 or 1, found `{other}`"),
                ))
            }
        };
        let send: u64 = tokens[2]
            .parse()
            .map_err(|_| ParseError::at(lineno, format!("invalid send time `{}`", tokens[2])))?;
        let recv: u64 = tokens[3]
            .parse()
            .map_err(|_| ParseError::at(lineno, format!("invalid recv time `{}`", tokens[3])))?;
        let sample = SyncSample {
            from_reference,
            send: LocalNanos(send),
            recv: LocalNanos(recv),
        };
        let host = symbols.intern(tokens[0]);
        match syncs.iter_mut().find(|hs| hs.host == host) {
            Some(hs) => hs.samples.push(sample),
            None => syncs.push(HostSync {
                host,
                samples: vec![sample],
            }),
        }
    }
    let reference = reference.ok_or_else(|| ParseError::eof("missing `reference` line"))?;
    Ok((reference, syncs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_syncs(symbols: &SymbolTable) -> Vec<HostSync> {
        vec![
            HostSync {
                host: symbols.lookup("h2").unwrap(),
                samples: vec![
                    SyncSample {
                        from_reference: true,
                        send: LocalNanos(100),
                        recv: LocalNanos(250),
                    },
                    SyncSample {
                        from_reference: false,
                        send: LocalNanos(500),
                        recv: LocalNanos(620),
                    },
                ],
            },
            HostSync {
                host: symbols.lookup("h3").unwrap(),
                samples: vec![SyncSample {
                    from_reference: true,
                    send: LocalNanos(105),
                    recv: LocalNanos(260),
                }],
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let mut symbols = SymbolTable::from_iter(["h1", "h2", "h3"]);
        let syncs = sample_syncs(&symbols);
        let h1 = symbols.lookup("h1").unwrap();
        let text = write(&symbols, h1, &syncs);
        let (reference, parsed) = parse(&mut symbols, &text).unwrap();
        assert_eq!(reference, h1);
        assert_eq!(parsed, syncs);
    }

    #[test]
    fn parse_interns_into_a_fresh_table() {
        let symbols = SymbolTable::from_iter(["h1", "h2", "h3"]);
        let syncs = sample_syncs(&symbols);
        let text = write(&symbols, symbols.lookup("h1").unwrap(), &syncs);
        let mut fresh = SymbolTable::new();
        let (reference, parsed) = parse(&mut fresh, &text).unwrap();
        assert_eq!(fresh.name(reference), "h1");
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.name(parsed[0].host), "h2");
    }

    #[test]
    fn errors() {
        let mut t = SymbolTable::new();
        assert!(parse(&mut t, "h2 1 5 6\n").is_err()); // no reference line
        assert!(parse(&mut t, "reference h1\nreference h1\n").is_err());
        assert!(parse(&mut t, "reference h1\nh2 2 5 6\n").is_err());
        assert!(parse(&mut t, "reference h1\nh2 1 5\n").is_err());
        assert!(parse(&mut t, "reference h1\nh2 1 x 6\n").is_err());
    }

    #[test]
    fn comments_ignored() {
        let text = "# stamp dump\nreference h1\n# body\nh2 0 1 2\n";
        let (_, parsed) = parse(&mut SymbolTable::new(), text).unwrap();
        assert_eq!(parsed[0].samples.len(), 1);
    }
}
