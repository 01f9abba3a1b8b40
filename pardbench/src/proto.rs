//! The benchmark's own wire-v2 codec (newline-delimited JSON) and
//! `/metrics` text parser.
//!
//! Deliberately independent of `pard_gateway::wire`: a change to the
//! program's codec must show up on the program's side of a measurement
//! and cannot silently change what the load generator sends or how it
//! reads the answers.

use std::fmt::Write as _;

/// Declared payload bytes per request (the gateway validates, never
/// interprets, the payload).
pub const PAYLOAD_LEN: usize = 32;

/// `seq` of the set-up probe, outside every schedule's range.
pub const PROBE_SEQ: u64 = 1 << 40;

/// Appends one request line, newline included.
pub fn push_request(
    out: &mut String,
    app: &str,
    seq: u64,
    slo_ms: Option<u64>,
    at_us: Option<u64>,
) {
    let _ = write!(out, "{{\"v\":2,\"app\":\"{app}\",\"seq\":{seq}");
    if let Some(slo) = slo_ms {
        let _ = write!(out, ",\"slo_ms\":{slo}");
    }
    if let Some(at) = at_us {
        let _ = write!(out, ",\"at_us\":{at}");
    }
    let _ = write!(out, ",\"payload_len\":{PAYLOAD_LEN},\"payload\":\"");
    out.extend(std::iter::repeat_n('p', PAYLOAD_LEN));
    out.push_str("\"}\n");
}

/// Appends the replay-control line that moves the stepped clock to
/// `to_us` so the tail of a schedule resolves (it gets no answer).
pub fn push_advance(out: &mut String, to_us: u64) {
    let _ = writeln!(out, "{{\"v\":2,\"advance_us\":{to_us}}}");
}

/// How one request ended, as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Unanswered = 0,
    Ok = 1,
    Violated = 2,
    EdgeDrop = 3,
    PipelineDrop = 4,
    Error = 5,
}

/// One parsed answer line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    pub seq: Option<u64>,
    pub kind: Kind,
    /// The latency the gateway reports for a completed request, on the
    /// engine's clock (virtual on the simulator).
    pub latency_ms: Option<f64>,
}

/// Position just past `"key":` when the key starts an object member
/// (preceded by `{` or `,`), so a key-like text inside a string value,
/// where quotes are escaped, never matches.
fn member(line: &str, key: &str) -> Option<usize> {
    let pattern = format!("\"{key}\":");
    let mut from = 0;
    while let Some(pos) = line[from..].find(&pattern) {
        let at = from + pos;
        if at > 0 && matches!(line.as_bytes()[at - 1], b'{' | b',') {
            return Some(at + pattern.len());
        }
        from = at + 1;
    }
    None
}

fn number_field(line: &str, key: &str) -> Option<u64> {
    let start = member(line, key)?;
    let digits: &str = &line[start..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

fn float_field(line: &str, key: &str) -> Option<f64> {
    let start = member(line, key)?;
    let text: &str = &line[start..];
    let end = text
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line[member(line, key)?..].strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Parses one gateway answer line; `None` when it is neither an outcome
/// nor an error envelope.
pub fn parse_answer(line: &str) -> Option<Answer> {
    let seq = number_field(line, "seq");
    if member(line, "error_code").is_some() {
        return Some(Answer {
            seq,
            kind: Kind::Error,
            latency_ms: None,
        });
    }
    let kind = match string_field(line, "outcome")? {
        "ok" => Kind::Ok,
        "violated" => Kind::Violated,
        "dropped" if line[member(line, "edge").unwrap_or(0)..].starts_with("true") => {
            Kind::EdgeDrop
        }
        "dropped" => Kind::PipelineDrop,
        _ => return None,
    };
    let latency_ms = matches!(kind, Kind::Ok | Kind::Violated)
        .then(|| float_field(line, "latency_ms"))
        .flatten();
    Some(Answer {
        seq,
        kind,
        latency_ms,
    })
}

/// The gateway's unlabeled Prometheus samples (`name value`).
pub fn parse_metrics(body: &str) -> std::collections::BTreeMap<String, f64> {
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_carry_every_field() {
        let mut out = String::new();
        push_request(&mut out, "tm", 7, Some(1), Some(250));
        assert!(out.ends_with("}\n"));
        assert!(out.contains("\"seq\":7") && out.contains("\"slo_ms\":1"));
        assert!(out.contains("\"at_us\":250") && out.contains("\"payload_len\":32"));
        let mut adv = String::new();
        push_advance(&mut adv, 99);
        assert_eq!(adv, "{\"v\":2,\"advance_us\":99}\n");
    }

    #[test]
    fn answers_parse_by_kind() {
        let cases = [
            (
                r#"{"id":7,"latency_ms":12.5,"outcome":"ok","seq":5,"v":2}"#,
                Kind::Ok,
            ),
            (
                r#"{"id":9,"latency_ms":512,"outcome":"violated","seq":5,"v":2}"#,
                Kind::Violated,
            ),
            (
                r#"{"edge":true,"id":4503599627370496,"outcome":"dropped","reason":"predicted","seq":5,"v":2}"#,
                Kind::EdgeDrop,
            ),
            (
                r#"{"id":3,"outcome":"dropped","reason":"expired","seq":5,"v":2}"#,
                Kind::PipelineDrop,
            ),
            (
                r#"{"error":"pending \"seq\":1 full","error_code":"overloaded","seq":5,"v":2}"#,
                Kind::Error,
            ),
        ];
        for (line, kind) in cases {
            let latency_ms = match kind {
                Kind::Ok => Some(12.5),
                Kind::Violated => Some(512.0),
                _ => None,
            };
            assert_eq!(
                parse_answer(line),
                Some(Answer {
                    seq: Some(5),
                    kind,
                    latency_ms
                }),
                "{line}"
            );
        }
        assert_eq!(parse_answer("garbage"), None);
    }

    #[test]
    fn metrics_keep_unlabeled_samples() {
        let body = "# TYPE a counter\na_total 3\nb{app=\"tm\"} 4\nc 0.5\n";
        let m = parse_metrics(body);
        assert_eq!(m.get("a_total"), Some(&3.0));
        assert_eq!(m.get("c"), Some(&0.5));
        assert_eq!(m.len(), 2);
    }
}
