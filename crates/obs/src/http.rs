//! A tiny read-only HTTP/1.1 scrape endpoint over `std::net`.
//!
//! One accept thread, blocked in a wakeable accept ([`Listener`]); one
//! short-lived thread per connection (so a stalled scraper never
//! serializes the endpoint — concurrent `curl`s each get their own
//! snapshot); one request per connection (`Connection: close`). Routes:
//!
//! * `GET /metrics` — Prometheus text exposition
//! * `GET /metrics.json` — JSON snapshot
//! * `GET /traces` — flight-recorder dump (JSON; see [`crate::trace`])
//! * `GET /healthz` — liveness probe (`ok`), for CI smokes to poll
//! * `GET /` — plain-text route listing
//!
//! This is deliberately *not* a web server: no keep-alive, no TLS, no
//! request body handling. It exists so `curl`/Prometheus can scrape a
//! running bin, matching the `--obs-addr` flag on `imc-serve` and
//! `imc-fleet`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::export::{json_snapshot, prometheus_text};
use crate::listen::{Listener, Waker};
use crate::registry::registry;
use crate::trace::{recorder, traces_json};

/// A running scrape endpoint; shuts down on [`stop`](HttpHandle::stop)
/// or drop.
pub struct HttpHandle {
    addr: SocketAddr,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

impl HttpHandle {
    /// Local address the endpoint is bound to (useful with `:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wakes the accept thread and joins it, as dropping does.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for HttpHandle {
    fn drop(&mut self) {
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9100`, or port `0` for an ephemeral
/// port) and serves the global registry until the handle is stopped or
/// dropped.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the spawn
/// error of the accept thread.
pub fn serve_http(addr: &str) -> io::Result<HttpHandle> {
    let listener = Listener::bind(addr, "obs-http")?;
    let addr = listener.local_addr();
    let waker = listener.waker();
    let thread = thread::Builder::new()
        .name("obs-http".into())
        .spawn(move || {
            while let Some(stream) = listener.accept() {
                // One short-lived thread per connection: a scraper that
                // stalls mid-read (or three Prometheis scraping at once)
                // must not serialize everyone else behind the accept
                // loop. Responses are small and connections are
                // `Connection: close`, so threads are gone in
                // milliseconds; the read/write timeouts inside bound the
                // worst case. A failed spawn drops only this scrape.
                let _ = thread::Builder::new()
                    .name("obs-http-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream);
                    });
            }
        })?;
    Ok(HttpHandle {
        addr,
        waker,
        thread: Some(thread),
    })
}

fn handle_connection(mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until end of headers (or a small cap — we only need line 1).
    let mut buf = [0u8; 4096];
    let mut len = 0;
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = route(method, path);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn route(method: &str, path: &str) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "read-only endpoint\n".into(),
        );
    }
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            prometheus_text(&registry().snapshot()),
        ),
        "/metrics.json" => (
            "200 OK",
            "application/json",
            json_snapshot(&registry().snapshot()),
        ),
        "/traces" => (
            "200 OK",
            "application/json",
            traces_json(&recorder().snapshot()),
        ),
        "/healthz" => ("200 OK", "text/plain", "ok\n".into()),
        "/" => (
            "200 OK",
            "text/plain",
            "imc-obs scrape endpoint\n  GET /metrics       Prometheus text\n  GET /metrics.json  JSON snapshot\n  GET /traces        flight-recorder traces (JSON)\n  GET /healthz       liveness probe\n".into(),
        ),
        _ => ("404 Not Found", "text/plain", "unknown route\n".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn scrape_endpoint_serves_all_routes() {
        registry()
            .counter("http_test_total", "for the http test")
            .inc();
        let handle = serve_http("127.0.0.1:0").expect("bind");
        let addr = handle.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("http_test_total"));

        let (head, body) = get(addr, "/metrics.json");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"));
        assert!(body.contains("\"http_test_total\""));

        let (head, _) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/traces");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"traces\""));

        // Concurrent scrapes: a connection that never sends a request
        // must not block other scrapers (it holds its own thread, and
        // its 500 ms read timeout is far longer than a healthy
        // scrape).
        let _stalled = TcpStream::connect(addr).expect("stall connect");
        let t0 = std::time::Instant::now();
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(
            t0.elapsed() < Duration::from_millis(400),
            "scrape serialized behind a stalled connection: {:?}",
            t0.elapsed()
        );

        handle.stop();
        // After stop the port is released; a fresh bind succeeds.
        let again = serve_http(&addr.to_string());
        assert!(again.is_ok());
    }
}
