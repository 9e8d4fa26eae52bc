//! Exporters: Prometheus text exposition, a hand-rolled JSON snapshot,
//! and a human-readable exit summary for batch binaries.

use std::fmt::Write as _;

use crate::registry::{registry, MetricValue, Snapshot};

fn fmt_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.0}");
    } else {
        let _ = write!(out, "{v}");
    }
}

fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", prom_escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
/// Histograms export as `summary` families with `quantile` labels plus
/// `_sum`/`_count`/`_max` series.
#[must_use]
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = "";
    for e in &snap.entries {
        if e.name != last_family {
            if !e.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", e.name, e.help.replace('\n', " "));
            }
            let kind = match e.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
            };
            let _ = writeln!(out, "# TYPE {} {}", e.name, kind);
            last_family = &e.name;
        }
        match &e.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", e.name, prom_labels(&e.labels, None), v);
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "{}{} ", e.name, prom_labels(&e.labels, None));
                fmt_f64(&mut out, *v);
                out.push('\n');
            }
            MetricValue::Histogram(s) => {
                for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        e.name,
                        prom_labels(&e.labels, Some(("quantile", q))),
                        v
                    );
                }
                let l = prom_labels(&e.labels, None);
                let _ = writeln!(out, "{}_sum{} {}", e.name, l, s.sum);
                let _ = writeln!(out, "{}_count{} {}", e.name, l, s.count);
                let _ = writeln!(out, "{}_max{} {}", e.name, l, s.max);
            }
        }
    }
    let _ = writeln!(out, "# TYPE obs_uptime_seconds gauge");
    let _ = write!(out, "obs_uptime_seconds ");
    fmt_f64(&mut out, snap.uptime_s);
    out.push('\n');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    // JSON has no NaN/Inf; snapshot values should never be either, but
    // degrade to null rather than emit invalid JSON.
    if v.is_finite() {
        let mut s = String::new();
        fmt_f64(&mut s, v);
        s
    } else {
        "null".to_owned()
    }
}

/// Renders a snapshot as a JSON document:
///
/// ```json
/// {"uptime_s": 1.5, "metrics": [
///   {"name":"x_total","labels":{},"type":"counter","value":3},
///   {"name":"lat_us","labels":{"span":"a"},"type":"histogram",
///    "count":2,"sum":30,"mean":15,"p50":15,"p95":16,"p99":16,"max":16}
/// ]}
/// ```
#[must_use]
pub fn json_snapshot(snap: &Snapshot) -> String {
    let mut out = String::from("{\"uptime_s\":");
    out.push_str(&json_f64(snap.uptime_s));
    out.push_str(",\"metrics\":[");
    for (i, e) in snap.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",\"labels\":{{", json_escape(&e.name));
        for (j, (k, v)) in e.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("},");
        match &e.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "\"type\":\"counter\",\"value\":{v}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "\"type\":\"gauge\",\"value\":{}", json_f64(*v));
            }
            MetricValue::Histogram(s) => {
                let _ = write!(
                    out,
                    "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"mean\":{},\
                     \"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}",
                    s.count,
                    s.sum,
                    json_f64(s.mean),
                    s.p50,
                    s.p95,
                    s.p99,
                    s.max
                );
                if let Some(x) = e.exemplar {
                    let _ = write!(
                        out,
                        ",\"exemplar\":{{\"value\":{},\"trace_id\":{}}}",
                        x.value, x.trace_id
                    );
                }
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders a compact human-readable table of all non-empty metrics, for
/// batch-bin exit summaries.
#[must_use]
pub fn text_summary(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--- obs summary ({:.1}s uptime) ---", snap.uptime_s);
    for e in &snap.entries {
        let labels = if e.labels.is_empty() {
            String::new()
        } else {
            prom_labels(&e.labels, None)
        };
        match &e.value {
            MetricValue::Counter(0) => {}
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{:<44} {}", format!("{}{}", e.name, labels), v);
            }
            MetricValue::Gauge(v) => {
                let mut s = String::new();
                fmt_f64(&mut s, *v);
                let _ = writeln!(out, "{:<44} {}", format!("{}{}", e.name, labels), s);
            }
            MetricValue::Histogram(s) if s.count == 0 => {}
            MetricValue::Histogram(s) => {
                let _ = writeln!(
                    out,
                    "{:<44} n={} mean={:.1} p50={} p95={} p99={} max={}",
                    format!("{}{}", e.name, labels),
                    s.count,
                    s.mean,
                    s.p50,
                    s.p95,
                    s.p99,
                    s.max
                );
            }
        }
    }
    out
}

/// Compact per-trace exit listing of the flight recorder: one line per
/// trace in the ring (id, span count, widest span, energy stamp, worst
/// status), newest last.
#[must_use]
pub fn trace_summary(recs: &[crate::trace::TraceRec]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "--- flight recorder ({} in ring) ---", recs.len());
    for t in recs {
        let status = t
            .spans
            .iter()
            .map(|s| s.status)
            .find(|s| *s != crate::trace::SpanStatus::Ok)
            .unwrap_or(crate::trace::SpanStatus::Ok);
        let _ = writeln!(
            out,
            "trace {:#018x} spans={:<2} dur={}us energy={}pJ status={}",
            t.trace_id,
            t.spans.len(),
            t.dur_us(),
            t.energy_pj(),
            status.as_str()
        );
    }
    out
}

/// Prints [`text_summary`] of the global registry — and, when the
/// flight recorder holds any traces, a [`trace_summary`] dump — to
/// stderr when the `FEFET_IMC_OBS_SUMMARY` environment variable is set
/// (to anything but `0`). Call at the end of batch binaries.
pub fn print_summary_if_env() {
    match std::env::var("FEFET_IMC_OBS_SUMMARY") {
        Ok(v) if v != "0" && !v.is_empty() => {
            eprint!("{}", text_summary(&registry().snapshot()));
            let traces = crate::trace::recorder().snapshot();
            if !traces.is_empty() {
                eprint!("{}", trace_summary(&traces));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("jobs_total", "jobs run").add(7);
        r.gauge("depth", "queue depth").set(2.5);
        let h = r.histogram_with("lat_us", &[("span", "a\"b")], "latency");
        h.record(10);
        h.record(1000);
        r
    }

    #[test]
    fn prometheus_text_has_families_and_escapes() {
        let text = prometheus_text(&sample_registry().snapshot());
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 7"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 2.5"));
        assert!(text.contains("# TYPE lat_us summary"));
        assert!(text.contains("lat_us{span=\"a\\\"b\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_us_count{span=\"a\\\"b\"} 2"));
        assert!(text.contains("obs_uptime_seconds"));
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let json = json_snapshot(&sample_registry().snapshot());
        assert!(json.starts_with("{\"uptime_s\":"));
        assert!(json.contains("\"name\":\"jobs_total\""));
        assert!(json.contains("\"type\":\"counter\",\"value\":7"));
        assert!(json.contains("\"span\":\"a\\\"b\""));
        assert!(json.contains("\"count\":2"));
        assert!(json.ends_with("]}"));
        // Balanced braces/brackets outside strings — cheap sanity check.
        let (mut depth, mut in_str, mut esc) = (0i32, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn text_summary_skips_empty_metrics() {
        let r = sample_registry();
        r.counter("never_total", "never incremented");
        let text = text_summary(&r.snapshot());
        assert!(text.contains("jobs_total"));
        assert!(!text.contains("never_total"));
    }
}
