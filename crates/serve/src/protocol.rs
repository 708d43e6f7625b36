//! The newline-delimited session protocol.
//!
//! One command per line in, one reply per line out:
//!
//! ```text
//! open <name> graph=g.metis [coords=g.xy] parts=4 [method=..] [seed=..]
//!                                         [threshold=..] [hops=..]
//! open <name>                      # existing tape: recover
//! mutate <name> <mutation>         # wire grammar: node/edge/weight ...
//! commit <name>                    # apply buffered mutations as one batch
//! query <name>
//! snapshot <name>
//! replay <name> trace=t.trace [from=N]
//! close <name>
//! sessions
//! shutdown
//! ```
//!
//! Replies are `ok key=value ...` or `err <kind> <message>`. Blank lines
//! and `#` comments are ignored (no reply), so command scripts can be
//! annotated. Session parameters on `open` use the exact
//! [`gapart_core::SessionSpec`] keys — the CLI `stream` flags and the
//! tape's `open` record speak the same grammar.

use crate::ServeError;

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `open <name> [key=value ...]` — create (with `graph=`) or
    /// recover (bare) a session.
    Open {
        /// Session name (also the tape file stem).
        name: String,
        /// Raw `key=value` parameters, order preserved.
        params: Vec<(String, String)>,
    },
    /// `mutate <name> <wire mutation>` — buffer one mutation.
    Mutate {
        /// Target session.
        name: String,
        /// The mutation in wire grammar (everything after the name).
        mutation: String,
    },
    /// `commit <name>` — apply the buffered mutations as one batch.
    Commit {
        /// Target session.
        name: String,
    },
    /// `query <name>` — report size, cut, counters, and the label hash.
    Query {
        /// Target session.
        name: String,
    },
    /// `snapshot <name>` — force a checkpoint record.
    Snapshot {
        /// Target session.
        name: String,
    },
    /// `replay <name> trace=<path> [from=<batch>]` — commit a trace
    /// file's batches (skipping the first `from`; defaults to the
    /// session's batch counter, i.e. "continue where the tape ends").
    Replay {
        /// Target session.
        name: String,
        /// Path of the trace file (the `trace` text format).
        trace: String,
        /// Explicit skip count; `None` = the session's batch counter.
        from: Option<usize>,
    },
    /// `close <name>` — final snapshot, close record, drop the session.
    Close {
        /// Target session.
        name: String,
    },
    /// `sessions` — list open sessions.
    Sessions,
    /// `shutdown` — close every session and stop serving.
    Shutdown,
}

/// Validates a session name: it doubles as the tape file stem, so only
/// filename-safe characters are allowed.
pub fn check_name(name: &str) -> Result<&str, ServeError> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && !name.starts_with('.');
    if ok {
        Ok(name)
    } else {
        Err(ServeError::Protocol(format!(
            "bad session name '{name}': use [A-Za-z0-9_.-]+, not starting with '.'"
        )))
    }
}

fn kv_pairs(tokens: &[&str]) -> Result<Vec<(String, String)>, ServeError> {
    tokens
        .iter()
        .map(|tok| {
            tok.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| ServeError::Protocol(format!("expected key=value, got '{tok}'")))
        })
        .collect()
}

/// Parses one protocol line. The caller has already dropped blank and
/// `#`-comment lines.
pub fn parse_command(line: &str) -> Result<Command, ServeError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    match tokens.as_slice() {
        ["open", name, params @ ..] => Ok(Command::Open {
            name: check_name(name)?.to_string(),
            params: kv_pairs(params)?,
        }),
        ["mutate", name, rest @ ..] if !rest.is_empty() => Ok(Command::Mutate {
            name: check_name(name)?.to_string(),
            mutation: rest.join(" "),
        }),
        ["commit", name] => Ok(Command::Commit {
            name: check_name(name)?.to_string(),
        }),
        ["query", name] => Ok(Command::Query {
            name: check_name(name)?.to_string(),
        }),
        ["snapshot", name] => Ok(Command::Snapshot {
            name: check_name(name)?.to_string(),
        }),
        ["replay", name, params @ ..] => {
            let name = check_name(name)?.to_string();
            let mut trace = None;
            let mut from = None;
            for (k, v) in kv_pairs(params)? {
                match k.as_str() {
                    "trace" => trace = Some(v),
                    "from" => {
                        from = Some(v.parse().map_err(|_| {
                            ServeError::Protocol(format!("bad from '{v}': expected a batch index"))
                        })?)
                    }
                    other => {
                        return Err(ServeError::Protocol(format!(
                            "unknown replay parameter '{other}'"
                        )))
                    }
                }
            }
            let trace =
                trace.ok_or_else(|| ServeError::Protocol("replay needs trace=<path>".into()))?;
            Ok(Command::Replay { name, trace, from })
        }
        ["close", name] => Ok(Command::Close {
            name: check_name(name)?.to_string(),
        }),
        ["sessions"] => Ok(Command::Sessions),
        ["shutdown"] => Ok(Command::Shutdown),
        [] => Err(ServeError::Protocol("empty command".into())),
        [cmd, ..] => Err(ServeError::Protocol(format!(
            "unknown or malformed command '{cmd}'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse() {
        assert_eq!(
            parse_command("open mesh graph=g.metis parts=4 seed=7").unwrap(),
            Command::Open {
                name: "mesh".into(),
                params: vec![
                    ("graph".into(), "g.metis".into()),
                    ("parts".into(), "4".into()),
                    ("seed".into(), "7".into()),
                ],
            }
        );
        assert_eq!(
            parse_command("mutate mesh node 1 0.5 0.5").unwrap(),
            Command::Mutate {
                name: "mesh".into(),
                mutation: "node 1 0.5 0.5".into(),
            }
        );
        assert_eq!(
            parse_command("commit mesh").unwrap(),
            Command::Commit {
                name: "mesh".into()
            }
        );
        assert_eq!(
            parse_command("replay mesh trace=t.trace from=3").unwrap(),
            Command::Replay {
                name: "mesh".into(),
                trace: "t.trace".into(),
                from: Some(3),
            }
        );
        assert_eq!(
            parse_command("replay mesh trace=t.trace").unwrap(),
            Command::Replay {
                name: "mesh".into(),
                trace: "t.trace".into(),
                from: None,
            }
        );
        assert_eq!(parse_command("sessions").unwrap(), Command::Sessions);
        assert_eq!(parse_command("shutdown").unwrap(), Command::Shutdown);
    }

    #[test]
    fn malformed_commands_are_protocol_errors() {
        for bad in [
            "frob mesh",
            "commit",
            "mutate mesh",
            "open we/rd graph=g parts=2",
            "open .hidden graph=g parts=2",
            "open mesh graph",
            "replay mesh",
            "replay mesh trace=t from=x",
            "replay mesh frob=1 trace=t",
            "",
        ] {
            assert!(
                matches!(parse_command(bad), Err(ServeError::Protocol(_))),
                "{bad:?} should be a protocol error"
            );
        }
    }
}
