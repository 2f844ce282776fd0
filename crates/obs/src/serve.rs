//! Dependency-free live scrape endpoint for the metric registry.
//!
//! [`MetricsServer::start`] binds a TCP listener and serves, on a
//! single background thread, the handful of plain-text routes a
//! scraper needs while a simulation steps in the foreground:
//!
//! | route      | payload                                               |
//! |------------|-------------------------------------------------------|
//! | `/metrics` | the live [`Obs`] snapshot in OpenMetrics text format  |
//! | `/healthz` | `ok` — liveness probe                                 |
//! | `/run`     | the run's JSON metadata line (set by the host)        |
//! | `/quit`    | acknowledges, then flags the host to shut down        |
//!
//! The server is deliberately minimal — blocking I/O, one connection
//! at a time, `Connection: close` on every response — because its one
//! client is a scraper polling every few seconds, and the workspace is
//! hermetic (no HTTP crate). Responses are honest HTTP/1.0 with a
//! `Content-Length`, so `curl`, Prometheus, or a bash `/dev/tcp` probe
//! all parse them. Requests are bounded: a request line over 8 KiB is
//! answered `400`, and a longer header line or more than 100 headers
//! `431`, before the connection closes.
//!
//! The registry side is lock-free for writers: a scrape snapshots the
//! shared [`Obs`] atomics, so the stepping thread is never blocked by
//! a slow client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::Obs;

/// Per-connection socket timeout: a stalled client cannot wedge the
/// accept loop for longer than this.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request or header line accepted, terminator included.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Most header lines accepted after the request line.
const MAX_HEADERS: usize = 100;

/// Most unread request bytes discarded after refusing an oversized
/// request, so the client reads the refusal instead of a reset.
const MAX_DRAIN_BYTES: u64 = 64 * 1024;

/// OpenMetrics content type, per the OpenMetrics 1.0 spec.
pub const OPENMETRICS_CONTENT_TYPE: &str =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// State shared between the host and the serving thread.
struct ServerShared {
    obs: Obs,
    /// The `/run` payload; hosts update it as the run progresses.
    run_info: Mutex<String>,
    /// Set by [`MetricsServer::shutdown`]; the accept loop exits on the
    /// next connection (shutdown self-connects to force one).
    stop: AtomicBool,
    /// Set once a client requests `/quit`; hosts poll or wait on it to
    /// end a `--linger` run cleanly.
    quit: Mutex<bool>,
    quit_cv: Condvar,
}

/// Handle to a running scrape endpoint; see the module docs for the
/// routes. Dropping the handle shuts the server down.
pub struct MetricsServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl MetricsServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port — read
    /// it back from [`addr`](Self::addr)) and starts serving scrapes of
    /// `obs` on a background thread. `run_info` seeds the `/run`
    /// payload; update it later with [`set_run_info`](Self::set_run_info).
    ///
    /// # Errors
    ///
    /// Returns the bind error if the port is taken or privileged.
    pub fn start(port: u16, obs: Obs, run_info: String) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            obs,
            run_info: Mutex::new(run_info),
            stop: AtomicBool::new(false),
            quit: Mutex::new(false),
            quit_cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("baat-obs-serve".to_owned())
            .spawn(move || accept_loop(&listener, &thread_shared))?;
        Ok(Self {
            shared,
            addr,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the `/run` payload.
    pub fn set_run_info(&self, run_info: String) {
        *lock(&self.shared.run_info) = run_info;
    }

    /// `true` once a client has requested `/quit`.
    pub fn quit_requested(&self) -> bool {
        *lock(&self.shared.quit)
    }

    /// Blocks until a client requests `/quit`.
    pub fn wait_for_quit(&self) {
        let mut quit = lock(&self.shared.quit);
        while !*quit {
            quit = self
                .shared
                .quit_cv
                .wait(quit)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Stops the accept loop and joins the serving thread. Called by
    /// `Drop` too; the explicit form exists so hosts can shut down at a
    /// deterministic point and observe join completion.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::Relaxed);
        // The accept loop only observes `stop` between connections;
        // poke it with one so it never waits for an external client.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn accept_loop(listener: &TcpListener, shared: &ServerShared) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Client faults (timeouts, broken pipes, malformed requests)
        // must never take the endpoint down; drop the connection and
        // keep serving.
        let _ = handle_client(stream, shared);
    }
}

/// Reads one line of at most [`MAX_LINE_BYTES`] into `line`; `false`
/// when the line is longer.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<bool> {
    line.clear();
    let n = reader.by_ref().take(MAX_LINE_BYTES).read_line(line)?;
    Ok(n < MAX_LINE_BYTES as usize || line.ends_with('\n'))
}

/// Reads the request line and drains the headers, within
/// [`MAX_LINE_BYTES`] per line and [`MAX_HEADERS`] lines. `Err` holds
/// the refusal status of an oversized request.
fn read_request(reader: &mut impl BufRead) -> std::io::Result<Result<String, &'static str>> {
    let mut request_line = String::new();
    if !read_bounded_line(reader, &mut request_line)? {
        return Ok(Err("400 Bad Request"));
    }
    let mut header = String::new();
    for _ in 0..=MAX_HEADERS {
        if !read_bounded_line(reader, &mut header)? {
            return Ok(Err("431 Request Header Fields Too Large"));
        }
        if header.is_empty() || header == "\r\n" || header == "\n" {
            return Ok(Ok(request_line));
        }
    }
    Ok(Err("431 Request Header Fields Too Large"))
}

/// Reads one request, writes one response, closes. Returns `Err` only
/// on socket-level failures — the caller ignores it either way.
fn handle_client(stream: TcpStream, shared: &ServerShared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let request_line = match read_request(&mut reader)? {
        Ok(line) => line,
        Err(status) => {
            respond(reader.get_mut(), status, "text/plain; charset=utf-8", "")?;
            // Half-close, then discard a bounded amount of what the
            // client is still sending: closing with unread input would
            // reset the connection before the client reads the status.
            reader.get_ref().shutdown(Shutdown::Write)?;
            std::io::copy(&mut reader.take(MAX_DRAIN_BYTES), &mut std::io::sink())?;
            return Ok(());
        }
    };
    let target = request_line.split_whitespace().nth(1).unwrap_or("");
    let path = target.split('?').next().unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            OPENMETRICS_CONTENT_TYPE,
            shared.obs.metrics_openmetrics(),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
        "/run" => {
            let mut line = lock(&shared.run_info).clone();
            if !line.ends_with('\n') {
                line.push('\n');
            }
            ("200 OK", "application/json; charset=utf-8", line)
        }
        "/quit" => {
            *lock(&shared.quit) = true;
            shared.quit_cv.notify_all();
            ("200 OK", "text/plain; charset=utf-8", "bye\n".to_owned())
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_owned(),
        ),
    };
    respond(reader.get_mut(), status, content_type, &body)
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full HTTP exchange against the server; returns the raw
    /// response text.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
            .expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    fn body(response: &str) -> &str {
        response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .unwrap_or("")
    }

    #[test]
    fn metrics_route_serves_live_openmetrics() {
        let obs = Obs::enabled();
        let counter = obs.counter("sim.steps");
        let server = MetricsServer::start(0, obs, "{}".to_owned()).expect("server starts");
        counter.add(7);
        let response = get(server.addr(), "/metrics");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("application/openmetrics-text"));
        assert!(body(&response).contains("sim_steps_total 7\n"));
        assert!(body(&response).ends_with("# EOF\n"));
        // A later scrape sees newer values: the snapshot is live.
        counter.add(3);
        assert!(body(&get(server.addr(), "/metrics")).contains("sim_steps_total 10\n"));
        server.shutdown();
    }

    #[test]
    fn healthz_and_run_and_404() {
        let server = MetricsServer::start(0, Obs::disabled(), r#"{"scenario":"x"}"#.to_owned())
            .expect("server starts");
        assert_eq!(body(&get(server.addr(), "/healthz")), "ok\n");
        let run = get(server.addr(), "/run");
        assert!(run.contains("application/json"));
        assert_eq!(body(&run), "{\"scenario\":\"x\"}\n");
        server.set_run_info(r#"{"scenario":"y"}"#.to_owned());
        assert_eq!(body(&get(server.addr(), "/run")), "{\"scenario\":\"y\"}\n");
        assert!(get(server.addr(), "/nope").starts_with("HTTP/1.0 404"));
        server.shutdown();
    }

    #[test]
    fn quit_route_flags_the_host() {
        let server = MetricsServer::start(0, Obs::disabled(), String::new()).expect("starts");
        assert!(!server.quit_requested());
        assert_eq!(body(&get(server.addr(), "/quit")), "bye\n");
        assert!(server.quit_requested());
        // Does not block: the flag is already set.
        server.wait_for_quit();
        server.shutdown();
    }

    /// Sends `request` raw and returns the whole response.
    fn exchange(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request).expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn oversized_requests_are_refused_and_the_server_keeps_serving() {
        let server = MetricsServer::start(0, Obs::disabled(), String::new()).expect("starts");
        let long_target = "a".repeat(2 * MAX_LINE_BYTES as usize);
        let long_line = format!("GET /{long_target} HTTP/1.0\r\n\r\n");
        let response = exchange(server.addr(), long_line.as_bytes());
        assert!(response.starts_with("HTTP/1.0 400 "), "{response}");

        let long_header = format!("GET /healthz HTTP/1.0\r\nX-Big: {long_target}\r\n\r\n");
        let response = exchange(server.addr(), long_header.as_bytes());
        assert!(response.starts_with("HTTP/1.0 431 "), "{response}");

        let many = "X-A: b\r\n".repeat(MAX_HEADERS + 1);
        let response = exchange(
            server.addr(),
            format!("GET /healthz HTTP/1.0\r\n{many}\r\n").as_bytes(),
        );
        assert!(response.starts_with("HTTP/1.0 431 "), "{response}");

        // The limits are inclusive: a full header budget still parses.
        let most = "X-A: b\r\n".repeat(MAX_HEADERS);
        let response = exchange(
            server.addr(),
            format!("GET /healthz HTTP/1.0\r\n{most}\r\n").as_bytes(),
        );
        assert_eq!(body(&response), "ok\n");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_without_a_client() {
        let server = MetricsServer::start(0, Obs::enabled(), String::new()).expect("starts");
        let addr = server.addr();
        server.shutdown();
        // The port is released once the thread exits.
        assert!(TcpListener::bind(addr).is_ok());
    }
}
