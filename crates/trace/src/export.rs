//! Exporter: Chrome trace-event JSON, and the workspace's one JSON
//! string escaper.
//!
//! The Chrome format is the interchange format — `chrome://tracing`
//! and Perfetto load it directly, and [`crate::read`] parses it back
//! for `plx report --from`/`--diff`. Every span becomes a complete
//! (`"ph":"X"`) event carrying its id and parent link in `args`;
//! instants become `"ph":"i"`; counters and histograms are emitted as
//! `"ph":"C"` counter samples at the snapshot timestamp, with the
//! `counter.`/`hist.` name prefixes the reader keys on.

use crate::tracer::{ArgValue, Event, TraceSnapshot};

/// Appends `s` to `out` as the body of a JSON string literal. Every
/// hand-rolled JSON writer in the workspace escapes through this.
pub fn esc_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, val: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    esc_json(val, out);
    out.push('"');
}

fn push_args(out: &mut String, args: &[(String, ArgValue)]) {
    out.push_str("\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        esc_json(k, out);
        out.push_str("\":");
        match v {
            ArgValue::U64(n) => out.push_str(&n.to_string()),
            ArgValue::Str(s) => {
                out.push('"');
                esc_json(s, out);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Renders a snapshot as Chrome trace-event JSON
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing`.
pub fn chrome_json(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n{");
    };

    for (tid, name) in snap.thread_names.iter().enumerate() {
        sep(&mut out);
        out.push_str("\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,");
        out.push_str(&format!("\"tid\":{tid},"));
        out.push_str("\"args\":{\"name\":\"");
        esc_json(name, &mut out);
        out.push_str("\"}}");
    }

    for ev in &snap.events {
        sep(&mut out);
        match ev {
            Event::Span {
                id,
                parent,
                name,
                cat,
                tid,
                start_us,
                dur_us,
            } => {
                out.push_str("\"ph\":\"X\",");
                push_str_field(&mut out, "name", name);
                out.push(',');
                push_str_field(&mut out, "cat", cat);
                out.push_str(&format!(
                    ",\"ts\":{start_us},\"dur\":{dur_us},\"pid\":1,\"tid\":{tid},"
                ));
                let mut args = vec![("id".to_string(), ArgValue::U64(*id))];
                if let Some(p) = parent {
                    args.push(("parent".to_string(), ArgValue::U64(*p)));
                }
                push_args(&mut out, &args);
                out.push('}');
            }
            Event::Instant {
                name,
                cat,
                tid,
                ts_us,
                args,
            } => {
                out.push_str("\"ph\":\"i\",\"s\":\"t\",");
                push_str_field(&mut out, "name", name);
                out.push(',');
                push_str_field(&mut out, "cat", cat);
                out.push_str(&format!(",\"ts\":{ts_us},\"pid\":1,\"tid\":{tid},"));
                push_args(&mut out, args);
                out.push('}');
            }
        }
    }

    for (name, value) in &snap.counters {
        sep(&mut out);
        out.push_str("\"ph\":\"C\",");
        push_str_field(&mut out, "name", &format!("counter.{name}"));
        out.push_str(&format!(",\"ts\":{},\"pid\":1,\"tid\":0,", snap.end_us));
        push_args(&mut out, &[("value".to_string(), ArgValue::U64(*value))]);
        out.push('}');
    }

    for (name, h) in &snap.hists {
        sep(&mut out);
        out.push_str("\"ph\":\"C\",");
        push_str_field(&mut out, "name", &format!("hist.{name}"));
        out.push_str(&format!(",\"ts\":{},\"pid\":1,\"tid\":0,", snap.end_us));
        let mut args = vec![
            ("count".to_string(), ArgValue::U64(h.count)),
            ("sum".to_string(), ArgValue::U64(h.sum)),
            ("min".to_string(), ArgValue::U64(h.min)),
            ("max".to_string(), ArgValue::U64(h.max)),
        ];
        for (i, n) in h.buckets.iter().enumerate() {
            if *n > 0 {
                args.push((format!("p2_{i}"), ArgValue::U64(*n)));
            }
        }
        push_args(&mut out, &args);
        out.push('}');
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"parallax-trace\"}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    #[test]
    fn esc_json_escapes_specials() {
        let mut s = String::new();
        esc_json("a\"b\\c\nd\te\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn chrome_json_has_span_and_counter() {
        let t = Tracer::new();
        {
            let _g = t.span("select", "stage");
        }
        t.count("jobs", 3);
        t.record("chain.words", 17);
        let json = chrome_json(&t.snapshot());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"select\""));
        assert!(json.contains("\"counter.jobs\""));
        assert!(json.contains("\"hist.chain.words\""));
        assert!(json.contains("\"p2_5\":1")); // 17 is 5 bits
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    }
}
