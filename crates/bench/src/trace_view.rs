//! Parsing, cross-process stitching, and waterfall rendering of
//! `/traces` documents (the JSON the `imc-obs` flight recorder exports).
//!
//! Each process on a request's path keeps its own [`TraceRec`]s
//! (`imc_obs`): the router records `fleet.request`/`fleet.partial`
//! spans, every replica records `serve.request`/`serve.partial` spans,
//! and the client can record a `loadgen.request` root. They share a
//! `trace_id`, and each span's `parent_span` points at the span id of
//! the hop that caused it — so scraping `/traces` from every process
//! and merging records by `trace_id` reconstructs the distributed
//! request end to end. That merge ([`stitch`]) plus the indented
//! per-hop rendering ([`render_waterfall`]) live here, shared by the
//! `imc-trace` pretty-printer and `loadgen --trace-slowest`.
//!
//! [`TraceRec`]: imc_obs::TraceRec

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::Value;

/// One span as scraped back out of a `/traces` document (owned strings —
/// the `&'static str` names of [`imc_obs::SpanRec`] don't survive a trip
/// over HTTP).
#[derive(Debug, Clone)]
pub struct Span {
    /// Process-unique span id.
    pub span_id: u64,
    /// Span this nests under (possibly recorded by another process).
    pub parent_span: u64,
    /// Region name (`serve.request`, `fleet.partial`, ...).
    pub name: String,
    /// Role of the process that recorded it (`serve`, `fleet`, ...).
    pub service: String,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_unix_us: u64,
    /// Wall time in microseconds.
    pub dur_us: u64,
    /// `ok` / `failed` / `shed`.
    pub status: String,
    /// Analytical energy stamped on this span, picojoules.
    pub energy_pj: u64,
    /// Freeform detail.
    pub detail: String,
}

/// One distributed trace after stitching: every scraped span that
/// shares a `trace_id`, across however many processes reported it.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Identity of the distributed request.
    pub trace_id: u64,
    /// All spans, sorted by start time.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Total wall time: the widest single span (hops overlap, so
    /// summing would double-count).
    #[must_use]
    pub fn dur_us(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_us).max().unwrap_or(0)
    }

    /// Total analytical energy: the sum of span stamps (the pricing
    /// convention stamps exactly one span per logical inference, so the
    /// sum never double-counts).
    #[must_use]
    pub fn energy_pj(&self) -> u64 {
        self.spans.iter().map(|s| s.energy_pj).sum()
    }

    /// Earliest span start (0 if empty).
    #[must_use]
    pub fn start_us(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| s.start_unix_us)
            .min()
            .unwrap_or(0)
    }

    /// Whether any hop ended `failed` or `shed`.
    #[must_use]
    pub fn has_trouble(&self) -> bool {
        self.spans.iter().any(|s| s.status != "ok")
    }

    /// Whether the trace was stitched across more than one service —
    /// i.e. it carries spans from at least two distinct recorders.
    /// Single-service traces are usually ones whose far-side records
    /// were already evicted from the other process's ring.
    #[must_use]
    pub fn is_cross_service(&self) -> bool {
        let first = match self.spans.first() {
            Some(s) => &s.service,
            None => return false,
        };
        self.spans.iter().any(|s| &s.service != first)
    }
}

fn parse_span(v: &Value) -> Result<Span, String> {
    let get = |name: &str| v.field(name).map_err(|e| e.to_string());
    Ok(Span {
        span_id: get("span_id")?.as_u64().map_err(|e| e.to_string())?,
        parent_span: get("parent_span")?.as_u64().map_err(|e| e.to_string())?,
        name: get("name")?.as_str().map_err(|e| e.to_string())?.to_owned(),
        service: get("service")?
            .as_str()
            .map_err(|e| e.to_string())?
            .to_owned(),
        start_unix_us: get("start_unix_us")?.as_u64().map_err(|e| e.to_string())?,
        dur_us: get("dur_us")?.as_u64().map_err(|e| e.to_string())?,
        status: get("status")?
            .as_str()
            .map_err(|e| e.to_string())?
            .to_owned(),
        energy_pj: get("energy_pj")?.as_u64().map_err(|e| e.to_string())?,
        detail: get("detail")?
            .as_str()
            .map_err(|e| e.to_string())?
            .to_owned(),
    })
}

/// Parses one `/traces` document into per-record traces (not yet
/// stitched — the same `trace_id` may repeat across documents, and even
/// within one when several hops of one process reported separately).
///
/// # Errors
///
/// Fails with a description when the document is not the `/traces`
/// schema.
pub fn parse_doc(json: &str) -> Result<Vec<Trace>, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("bad JSON: {e}"))?;
    let traces = doc.field("traces").map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for t in traces.items().map_err(|e| e.to_string())? {
        let trace_id = t
            .field("trace_id")
            .and_then(Value::as_u64)
            .map_err(|e| e.to_string())?;
        let mut spans = Vec::new();
        for s in t
            .field("spans")
            .and_then(Value::items)
            .map_err(|e| e.to_string())?
        {
            spans.push(parse_span(s)?);
        }
        out.push(Trace { trace_id, spans });
    }
    Ok(out)
}

/// Merges per-process trace records into distributed traces: records
/// sharing a `trace_id` become one [`Trace`], duplicate span ids (the
/// same scrape taken twice) collapse, and spans sort by start time.
#[must_use]
pub fn stitch(docs: Vec<Vec<Trace>>) -> Vec<Trace> {
    let mut by_id: Vec<Trace> = Vec::new();
    for doc in docs {
        for rec in doc {
            match by_id.iter_mut().find(|t| t.trace_id == rec.trace_id) {
                Some(t) => t.spans.extend(rec.spans),
                None => by_id.push(rec),
            }
        }
    }
    for t in &mut by_id {
        t.spans.sort_by_key(|s| (s.start_unix_us, s.span_id));
        t.spans.dedup_by_key(|s| s.span_id);
    }
    by_id.sort_by_key(Trace::start_us);
    by_id
}

/// Renders one stitched trace as an indented per-hop waterfall:
///
/// ```text
/// trace 0x4f1a…  dur 812us  energy 1523.4pJ  spans 5
///   ├─ fleet/fleet.request        ok      812us  +0us    1523.4pJ  mode=sharded shards=2
///   │    ├─ fleet/fleet.partial   ok      390us  +8us              shard=0 layer=0 chunks=0..13
/// ```
///
/// Children indent under the span their `parent_span` names; spans
/// whose parent no process reported (or 0) render as roots. Offsets are
/// relative to the earliest span start, so cross-process clock skew
/// shows up honestly rather than being hidden.
#[must_use]
pub fn render_waterfall(t: &Trace) -> String {
    let t0 = t.start_us();
    let mut out = format!(
        "trace {:#018x}  dur {}us  energy {}  spans {}\n",
        t.trace_id,
        t.dur_us(),
        fmt_pj(t.energy_pj()),
        t.spans.len()
    );
    // Roots: parent 0 or parented on a span no scrape reported (that
    // hop's process wasn't scraped — render what we have).
    let known: Vec<u64> = t.spans.iter().map(|s| s.span_id).collect();
    let mut emitted = vec![false; t.spans.len()];
    for i in 0..t.spans.len() {
        let p = t.spans[i].parent_span;
        if p == 0 || !known.contains(&p) {
            render_subtree(t, i, 1, t0, &mut emitted, &mut out);
        }
    }
    // Cycles can't happen with honest ids, but a corrupt document must
    // not make spans vanish silently.
    for i in 0..t.spans.len() {
        if !emitted[i] {
            render_subtree(t, i, 1, t0, &mut emitted, &mut out);
        }
    }
    out
}

fn render_subtree(
    t: &Trace,
    idx: usize,
    depth: usize,
    t0: u64,
    emitted: &mut [bool],
    out: &mut String,
) {
    if emitted[idx] {
        return;
    }
    emitted[idx] = true;
    let s = &t.spans[idx];
    let label = format!("{}/{}", s.service, s.name);
    let energy = if s.energy_pj > 0 {
        format!("  {}", fmt_pj(s.energy_pj))
    } else {
        String::new()
    };
    let detail = if s.detail.is_empty() {
        String::new()
    } else {
        format!("  {}", s.detail)
    };
    out.push_str(&format!(
        "{}├─ {:<28} {:<6} {:>8}us  +{}us{}{}\n",
        "│    ".repeat(depth - 1),
        label,
        s.status,
        s.dur_us,
        s.start_unix_us.saturating_sub(t0),
        energy,
        detail
    ));
    let children: Vec<usize> = (0..t.spans.len())
        .filter(|&j| t.spans[j].parent_span == t.spans[idx].span_id)
        .collect();
    for j in children {
        render_subtree(t, j, depth + 1, t0, emitted, out);
    }
}

fn fmt_pj(pj: u64) -> String {
    if pj >= 1_000_000 {
        format!("{:.2}uJ", pj as f64 / 1.0e6)
    } else if pj >= 1_000 {
        format!("{:.2}nJ", pj as f64 / 1.0e3)
    } else {
        format!("{pj}pJ")
    }
}

/// Scrapes `GET /traces` from an obs HTTP endpoint (`HOST:PORT`, or a
/// URL with an `http://` prefix) and returns the response body.
///
/// # Errors
///
/// Propagates connect/read failures and non-200 statuses.
pub fn fetch_traces(addr: &str) -> std::io::Result<String> {
    let hostport = addr
        .strip_prefix("http://")
        .unwrap_or(addr)
        .trim_end_matches('/')
        .trim_end_matches("/traces");
    let mut stream = TcpStream::connect(hostport)?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
    write!(
        stream,
        "GET /traces HTTP/1.1\r\nHost: {hostport}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no HTTP header terminator")
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{hostport}: {status}"),
        ));
    }
    Ok(body.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, service: &str, start: u64, dur: u64) -> Span {
        Span {
            span_id: id,
            parent_span: parent,
            name: name.to_owned(),
            service: service.to_owned(),
            start_unix_us: start,
            dur_us: dur,
            status: "ok".to_owned(),
            energy_pj: 0,
            detail: String::new(),
        }
    }

    #[test]
    fn parse_round_trips_the_recorder_export() {
        let rec = imc_obs::TraceRec {
            trace_id: 0xAB,
            spans: vec![imc_obs::SpanRec {
                span_id: 7,
                parent_span: 0,
                name: "serve.request",
                service: "serve",
                start_unix_us: 1_000,
                dur_us: 250,
                status: imc_obs::SpanStatus::Ok,
                energy_pj: 42,
                detail: "bank=1 \"quoted\"".to_owned(),
            }],
        };
        let doc = imc_obs::traces_json(&[rec]);
        let parsed = parse_doc(&doc).expect("parses");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].trace_id, 0xAB);
        let s = &parsed[0].spans[0];
        assert_eq!(s.span_id, 7);
        assert_eq!(s.name, "serve.request");
        assert_eq!(s.energy_pj, 42);
        assert_eq!(s.detail, "bank=1 \"quoted\"");
    }

    #[test]
    fn stitch_merges_across_documents_and_dedups_spans() {
        let router = vec![Trace {
            trace_id: 1,
            spans: vec![span(10, 0, "fleet.request", "fleet", 100, 500)],
        }];
        let replica = vec![Trace {
            trace_id: 1,
            spans: vec![
                span(20, 10, "serve.request", "serve", 120, 400),
                // duplicate of the router's span (double scrape)
                span(10, 0, "fleet.request", "fleet", 100, 500),
            ],
        }];
        let other = vec![Trace {
            trace_id: 2,
            spans: vec![span(30, 0, "serve.request", "serve", 50, 10)],
        }];
        let stitched = stitch(vec![router, replica, other]);
        assert_eq!(stitched.len(), 2);
        let t1 = stitched.iter().find(|t| t.trace_id == 1).expect("trace 1");
        assert_eq!(t1.spans.len(), 2, "dedup by span id");
        assert_eq!(t1.dur_us(), 500);
        let view = render_waterfall(t1);
        assert!(view.contains("fleet/fleet.request"), "{view}");
        assert!(view.contains("serve/serve.request"), "{view}");
        // the replica hop nests deeper than the root
        let root_at = view.find("fleet/fleet.request").expect("root");
        let child_line = view
            .lines()
            .find(|l| l.contains("serve/serve.request"))
            .expect("child");
        let root_line = view
            .lines()
            .find(|l| l.contains("fleet/fleet.request"))
            .expect("root line");
        assert!(
            child_line.find("serve/").expect("idx") > root_line.find("fleet/").expect("idx"),
            "child should indent deeper:\n{view}"
        );
        let _ = root_at;
    }

    #[test]
    fn cross_service_detects_multi_recorder_traces() {
        let local = Trace {
            trace_id: 3,
            spans: vec![
                span(1, 0, "fleet.request", "fleet", 0, 10),
                span(2, 1, "fleet.partial", "fleet", 1, 5),
            ],
        };
        assert!(!local.is_cross_service());
        let stitched = Trace {
            trace_id: 4,
            spans: vec![
                span(1, 0, "fleet.request", "fleet", 0, 10),
                span(2, 1, "serve.partial", "serve", 1, 5),
            ],
        };
        assert!(stitched.is_cross_service());
        assert!(!Trace {
            trace_id: 5,
            spans: vec![],
        }
        .is_cross_service());
    }

    #[test]
    fn orphan_spans_render_as_roots_not_lost() {
        let t = Trace {
            trace_id: 9,
            spans: vec![
                // parent 77 was never scraped
                span(40, 77, "serve.request", "serve", 10, 5),
            ],
        };
        let view = render_waterfall(&t);
        assert!(view.contains("serve/serve.request"), "{view}");
    }
}
