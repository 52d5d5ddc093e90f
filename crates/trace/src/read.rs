//! Reads Chrome trace-event JSON written by [`crate::export`] back
//! into structured records for reporting and CI validation.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::tracer::{ArgValue, Histogram};

/// One complete (`"ph":"X"`) span from a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Thread lane.
    pub tid: u64,
    /// Start timestamp, µs.
    pub ts_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Span id (0 if the file carried none).
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
}

/// One instant (`"ph":"i"`) event from a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRec {
    /// Event name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Thread lane.
    pub tid: u64,
    /// Timestamp, µs.
    pub ts_us: u64,
    /// Arguments (numbers become `ArgValue::U64`).
    pub args: Vec<(String, ArgValue)>,
}

/// A histogram reconstructed from a `hist.*` counter event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistRec {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Minimum observation.
    pub min: u64,
    /// Maximum observation.
    pub max: u64,
    /// Non-empty power-of-two buckets as `(bit_length, count)`.
    pub buckets: Vec<(usize, u64)>,
}

impl HistRec {
    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, mirroring
    /// `Histogram::percentile` on the writer side: the upper bound of
    /// the power-of-two bucket holding the rank-`ceil(q·count)`
    /// observation, clamped to `[min, max]`. 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            // Mirrors the writer: p0 is the observed minimum exactly.
            return self.min;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bits, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let hi = match bits {
                    0 => 0,
                    64 => u64::MAX,
                    b => (1u64 << b) - 1,
                };
                return hi.min(self.max).max(self.min);
            }
        }
        self.max
    }
}

impl From<&Histogram> for HistRec {
    /// The record [`crate::export`] writes for `h` and [`TraceFile`]
    /// reads back, built without the round trip.
    fn from(h: &Histogram) -> HistRec {
        HistRec {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: (h.buckets.iter().enumerate())
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (i, n))
                .collect(),
        }
    }
}

/// Everything extracted from one Chrome trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceFile {
    /// All complete spans, in file order.
    pub spans: Vec<SpanRec>,
    /// All instant events, in file order.
    pub instants: Vec<InstantRec>,
    /// Counters (the `counter.` prefix is stripped).
    pub counters: BTreeMap<String, u64>,
    /// Histograms (the `hist.` prefix is stripped).
    pub hists: BTreeMap<String, HistRec>,
    /// Thread lane names from `thread_name` metadata, by tid.
    pub thread_names: BTreeMap<u64, String>,
}

fn str_of(ev: &Value, key: &str) -> String {
    ev.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

fn u64_of(ev: &Value, key: &str) -> u64 {
    ev.get(key).and_then(Value::as_u64).unwrap_or(0)
}

impl TraceFile {
    /// Parses Chrome trace-event JSON text. Fails on malformed JSON,
    /// a missing/empty `traceEvents` array, or non-object events.
    pub fn parse(text: &str) -> Result<TraceFile, String> {
        let root = parse(text)?;
        let events = root
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("missing traceEvents array")?;
        if events.is_empty() {
            return Err("traceEvents is empty".to_string());
        }
        let mut tf = TraceFile::default();
        for ev in events {
            if ev.as_obj().is_none() {
                return Err("traceEvents entry is not an object".to_string());
            }
            let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
            let name = str_of(ev, "name");
            match ph {
                "X" => tf.spans.push(SpanRec {
                    cat: str_of(ev, "cat"),
                    tid: u64_of(ev, "tid"),
                    ts_us: u64_of(ev, "ts"),
                    dur_us: u64_of(ev, "dur"),
                    id: ev.get("args").map(|a| u64_of(a, "id")).unwrap_or(0),
                    parent: ev
                        .get("args")
                        .and_then(|a| a.get("parent"))
                        .and_then(Value::as_u64),
                    name,
                }),
                "i" => {
                    let mut args = Vec::new();
                    if let Some(m) = ev.get("args").and_then(Value::as_obj) {
                        for (k, v) in m {
                            match v {
                                Value::Num(_) => {
                                    args.push((k.clone(), ArgValue::U64(v.as_u64().unwrap_or(0))));
                                }
                                Value::Str(s) => args.push((k.clone(), ArgValue::Str(s.clone()))),
                                _ => {}
                            }
                        }
                    }
                    tf.instants.push(InstantRec {
                        cat: str_of(ev, "cat"),
                        tid: u64_of(ev, "tid"),
                        ts_us: u64_of(ev, "ts"),
                        args,
                        name,
                    });
                }
                "C" => {
                    let args = ev.get("args");
                    if let Some(rest) = name.strip_prefix("counter.") {
                        let v = args.map(|a| u64_of(a, "value")).unwrap_or(0);
                        tf.counters.insert(rest.to_string(), v);
                    } else if let Some(rest) = name.strip_prefix("hist.") {
                        let mut h = HistRec::default();
                        if let Some(a) = args {
                            h.count = u64_of(a, "count");
                            h.sum = u64_of(a, "sum");
                            h.min = u64_of(a, "min");
                            h.max = u64_of(a, "max");
                            if let Some(m) = a.as_obj() {
                                for (k, v) in m {
                                    if let Some(bits) = k.strip_prefix("p2_") {
                                        if let (Ok(b), Some(n)) =
                                            (bits.parse::<usize>(), v.as_u64())
                                        {
                                            h.buckets.push((b, n));
                                        }
                                    }
                                }
                            }
                        }
                        h.buckets.sort_unstable();
                        tf.hists.insert(rest.to_string(), h);
                    }
                }
                "M" if name == "thread_name" => {
                    let tid = u64_of(ev, "tid");
                    if let Some(n) = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                    {
                        tf.thread_names.insert(tid, n.to_string());
                    }
                }
                _ => {}
            }
        }
        Ok(tf)
    }

    /// Spans with the given name, in file order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration (µs) of all spans with the given name.
    pub fn total_dur_us(&self, name: &str) -> u64 {
        self.spans_named(name).map(|s| s.dur_us).sum()
    }

    /// Direct children of the span with id `id`.
    pub fn children_of(&self, id: u64) -> Vec<&SpanRec> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    #[test]
    fn roundtrip_spans_counters_hists() {
        let t = Tracer::new();
        let outer = t.enter("protect", "pipeline");
        {
            let _g = t.span("select", "stage");
        }
        t.exit(outer);
        t.instant(
            "gadget",
            "vm",
            vec![
                ("vaddr".to_string(), ArgValue::U64(0x8049000)),
                ("kind".to_string(), ArgValue::Str("pop".to_string())),
            ],
        );
        t.count("chain.pick.overlapping", 12);
        t.record("vm.verify.cycles", 4096);
        let json = crate::chrome_json(&t.snapshot());
        let tf = TraceFile::parse(&json).expect("parse own output");

        assert_eq!(tf.spans.len(), 2);
        let select = tf.spans_named("select").next().expect("select span");
        assert_eq!(select.parent, Some(1));
        assert_eq!(tf.instants.len(), 1);
        assert_eq!(
            tf.instants[0].args,
            vec![
                ("kind".to_string(), ArgValue::Str("pop".to_string())),
                ("vaddr".to_string(), ArgValue::U64(0x8049000)),
            ]
        );
        assert_eq!(tf.counters["chain.pick.overlapping"], 12);
        let h = &tf.hists["vm.verify.cycles"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 4096);
        assert_eq!(h.buckets, vec![(13, 1)]);
        assert_eq!(tf.children_of(1).len(), 1);
        assert!(tf.total_dur_us("protect") >= tf.total_dur_us("select"));
    }

    /// A histogram converted in memory equals the one read back from
    /// the exported file.
    #[test]
    fn histrec_from_histogram_matches_the_file() {
        let t = Tracer::new();
        for v in [0, 3, 3, 900, 1 << 40] {
            t.record("h", v);
        }
        let snap = t.snapshot();
        let tf = TraceFile::parse(&crate::chrome_json(&snap)).expect("parses");
        assert_eq!(HistRec::from(&snap.hists["h"]), tf.hists["h"]);
    }

    #[test]
    fn histrec_percentile_matches_writer_side() {
        // The same observations recorded into a live Histogram and
        // round-tripped through chrome_json must agree on quantiles.
        let t = crate::Tracer::new();
        for _ in 0..99 {
            t.record("serve.latency.protect_us", 100);
        }
        t.record("serve.latency.protect_us", 9_000);
        let live = t.snapshot().hists["serve.latency.protect_us"].clone();
        let json = crate::chrome_json(&t.snapshot());
        let tf = TraceFile::parse(&json).expect("parse own output");
        let rec = &tf.hists["serve.latency.protect_us"];
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(rec.percentile(q), live.percentile(q), "q={q}");
        }
        assert_eq!(rec.percentile(1.0), 9_000);
        assert_eq!(HistRec::default().percentile(0.99), 0);
    }

    /// Satellite edge cases: empty histogram, single sample, the
    /// saturating top bucket (bit length 64), and p0/p100 — asserted
    /// on both the writer (`Histogram`) and reader (`HistRec`) sides,
    /// plus exact round-trip parity through the Chrome exporter.
    #[test]
    fn percentile_edge_cases_agree_across_writer_and_reader() {
        use crate::tracer::Histogram;

        // Empty: 0 everywhere, on both sides.
        let empty = Histogram::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.percentile(q), 0);
            assert_eq!(HistRec::default().percentile(q), 0);
        }

        // Single sample: every quantile is that sample, exactly (the
        // bucket upper bound clamps to [min, max] = [v, v]).
        let t = Tracer::new();
        t.record("one", 100);
        // Saturating top bucket: u64::MAX lands in bucket 64, whose
        // upper bound must not overflow on either side.
        t.record("top", u64::MAX);
        t.record("top", 1);
        // p0 vs a shared bucket: 5 and 7 share bucket 3; p0 must be
        // the true minimum, not the bucket's upper bound.
        t.record("shared", 5);
        t.record("shared", 7);
        let live = t.snapshot().hists.clone();
        let tf = TraceFile::parse(&crate::chrome_json(&t.snapshot())).expect("parse own output");

        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(live["one"].percentile(q), 100, "single sample q={q}");
            assert_eq!(tf.hists["one"].percentile(q), 100, "single sample q={q}");
        }
        assert_eq!(live["top"].percentile(1.0), u64::MAX);
        assert_eq!(tf.hists["top"].percentile(1.0), u64::MAX);
        assert_eq!(live["top"].percentile(0.0), 1);
        assert_eq!(tf.hists["top"].percentile(0.0), 1);
        assert_eq!(live["shared"].percentile(0.0), 5, "p0 is the exact minimum");
        assert_eq!(tf.hists["shared"].percentile(0.0), 5);
        assert_eq!(live["shared"].percentile(1.0), 7);
        assert_eq!(tf.hists["shared"].percentile(1.0), 7);

        // Full writer/reader parity across every histogram and a
        // quantile grid (including the saturating bucket).
        for (name, h) in &live {
            let rec = &tf.hists[name];
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(rec.percentile(q), h.percentile(q), "{name} q={q}");
            }
        }
    }

    #[test]
    fn rejects_empty_trace() {
        assert!(TraceFile::parse("{\"traceEvents\":[]}").is_err());
        assert!(TraceFile::parse("not json").is_err());
        assert!(TraceFile::parse("{}").is_err());
    }
}
