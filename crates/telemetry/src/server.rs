//! The ops endpoint: a minimal HTTP/1.1 server over std
//! [`TcpListener`] — no async runtime, no HTTP crate, no new
//! dependencies. One accept thread serves `/metrics` (Prometheus text),
//! `/trace` (flight-recorder dump JSON), `/trace/latest` (Chrome
//! trace-event export of the newest dump), and `/` (the live dashboard).
//! Every response renders from a fresh snapshot per request; scrapes
//! never touch the frame hot path beyond relaxed atomic reads.

use crate::dashboard::DASHBOARD_HTML;
use crate::render::{render_runtime_stats, render_trace_dumps};
use gs_prof::trace;
use gs_runtime::FrameStream;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Overall deadline for reading one request head, and the write timeout
/// of its response: a stuck or trickling peer must not wedge the
/// single-threaded accept loop.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request head (request line plus headers) the server reads; a
/// longer one is answered `400`.
const MAX_HEAD_BYTES: usize = 8192;

/// Overall deadline for one [`scrape`]: covers connect plus the whole
/// response, so a byte-at-a-time server cannot keep the client pinned by
/// resetting the per-read timeout forever.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(5);

/// A running ops endpoint bound to a local TCP port.
///
/// Serves `GET /metrics` (text format 0.0.4) rendered from the stream's
/// [`stats`](FrameStream::stats) snapshot at request time, `GET /trace`
/// (retained flight-recorder dumps as JSON), `GET /trace/latest` (the
/// newest dump as Chrome trace-event JSON, Perfetto-loadable), and
/// `GET /` (the live dashboard). Any other path gets `404`, any other
/// method `405`. The server owns one accept thread and shuts down on
/// [`Drop`] (or explicit [`MetricsServer::shutdown`]), joining the
/// thread so no socket outlives the value.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 to let the OS pick — read it back with
    /// [`MetricsServer::addr`]) and starts serving the stream's stats.
    pub fn spawn(addr: &str, stream: Arc<FrameStream>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new().name("gs-metrics".into()).spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                // Serve inline: scrapes are rare, tiny, and deadline-bounded.
                let _ = serve_one(conn, &stream);
            }
        })?;
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address, e.g. to build a scrape URL for port 0 binds.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent;
    /// also called by [`Drop`].
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            // The accept loop is parked in `accept`; poke it awake with a
            // throwaway connection to our own port.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads the request head through its blank line under one overall
/// [`IO_TIMEOUT`] deadline, never more than `MAX_HEAD_BYTES + 1` bytes.
/// `None` when the head is oversized, or still unterminated at EOF or at
/// the deadline.
fn read_head(conn: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while head.len() <= MAX_HEAD_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(None);
        }
        conn.set_read_timeout(Some(left))?;
        let want = buf.len().min(MAX_HEAD_BYTES + 1 - head.len());
        let n = match conn.read(&mut buf[..want]) {
            Ok(0) => return Ok(None),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        // A terminator may straddle two reads.
        let from = head.len().saturating_sub(3);
        head.extend_from_slice(&buf[..n]);
        let blank_line = (from..head.len())
            .find(|&i| head[i..].starts_with(b"\r\n\r\n") || head[i..].starts_with(b"\n\n"));
        if let Some(i) = blank_line {
            head.truncate(i);
            return Ok((i <= MAX_HEAD_BYTES).then_some(head));
        }
    }
    Ok(None)
}

/// Handles one connection: read the head, answer, close.
fn serve_one(mut conn: TcpStream, stream: &Arc<FrameStream>) -> std::io::Result<()> {
    conn.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = read_head(&mut conn)?;
    // `None` answers `400`: an oversized, unterminated or non-UTF-8 head.
    let request = head.as_deref().and_then(|h| std::str::from_utf8(h).ok()).map(|h| {
        let mut parts = h.lines().next().unwrap_or("").split_whitespace();
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""))
    });
    let Some((method, path)) = request else {
        return respond(conn, "400 Bad Request", "text/plain", "bad request\n");
    };
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => {
            ("200 OK", "text/plain; version=0.0.4", render_runtime_stats(&stream.stats()))
        }
        ("GET", "/") | ("GET", "/index.html") => {
            ("200 OK", "text/html; charset=utf-8", DASHBOARD_HTML.to_string())
        }
        ("GET", "/trace") => {
            ("200 OK", "application/json", render_trace_dumps(&trace::recent_dumps()))
        }
        ("GET", "/trace/latest") => match trace::recent_dumps().last() {
            Some(dump) => ("200 OK", "application/json", trace::chrome_trace_json(dump)),
            None => ("404 Not Found", "text/plain", String::from("no trace dumps captured\n")),
        },
        ("GET", _) => ("404 Not Found", "text/plain", String::from("not found\n")),
        _ => ("405 Method Not Allowed", "text/plain", String::from("method not allowed\n")),
    };
    respond(conn, status, content_type, &body)
}

/// Writes one response and closes the connection.
fn respond(
    mut conn: TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        conn,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    conn.flush()?;
    let _ = conn.shutdown(Shutdown::Both);
    Ok(())
}

/// Performs one `GET` against a [`MetricsServer`] (or anything speaking
/// HTTP/1.1 on `addr`) and returns the response body. Errors on non-200
/// statuses. This is the scrape side of the e2e tests and the CI smoke
/// job — a plain [`TcpStream`], mirroring the server's no-deps stance.
///
/// The whole request — connect, write, and reading the full response —
/// is bounded by a 5 s deadline (see [`scrape_deadline`] for an explicit
/// budget): a per-read timeout alone would let a byte-at-a-time peer
/// hold the client forever by resetting the clock on every byte.
pub fn scrape(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    scrape_deadline(addr, path, SCRAPE_DEADLINE)
}

/// [`scrape`] with an explicit overall deadline.
pub fn scrape_deadline(
    addr: SocketAddr,
    path: &str,
    deadline: Duration,
) -> std::io::Result<String> {
    let start = Instant::now();
    let timed_out = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("scrape of {path} timed out ({what})"),
        )
    };
    let remaining = |start: Instant| {
        let left = deadline.saturating_sub(start.elapsed());
        if left.is_zero() {
            None
        } else {
            Some(left)
        }
    };
    let mut conn = TcpStream::connect_timeout(&addr, deadline)?;
    conn.set_write_timeout(remaining(start).ok_or_else(|| timed_out("connect"))?.into())?;
    write!(conn, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    conn.flush()?;
    // Read to EOF under the *overall* deadline: each read's timeout is
    // whatever budget is left, not a fresh per-read allowance.
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let Some(left) = remaining(start) else { return Err(timed_out("read")) };
        conn.set_read_timeout(Some(left))?;
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(timed_out("read"))
            }
            Err(e) => return Err(e),
        }
    }
    let response = String::from_utf8(response)
        .map_err(|_| std::io::Error::other("non-UTF-8 response body"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no header/body separator in response"))?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains("200") {
        return Err(std::io::Error::other(format!("scrape of {path} failed: {status_line}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosphere_core::geosphere_decoder;
    use gs_modulation::Constellation;
    use gs_phy::PhyConfig;
    use gs_runtime::StreamConfig;

    fn serve() -> MetricsServer {
        let cfg = PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) };
        let mut sc = StreamConfig::new(1);
        sc.workers = 1;
        let stream = Arc::new(FrameStream::new(cfg, geosphere_decoder(), sc));
        MetricsServer::spawn("127.0.0.1:0", stream).expect("bind")
    }

    /// A peer that sends its head one byte at a time, never finishing a
    /// line, is cut off at the head deadline: a scrape queued behind it
    /// still completes within its own deadline.
    #[test]
    fn a_trickling_peer_cannot_hold_the_endpoint() {
        let server = serve();
        let mut slow = TcpStream::connect(server.addr()).expect("connect");
        slow.write_all(b"G").expect("first byte");
        let trickle = std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed() < SCRAPE_DEADLINE + Duration::from_secs(1) {
                std::thread::sleep(Duration::from_millis(250));
                if slow.write_all(b"E").is_err() {
                    break;
                }
            }
        });
        // Connected after the slow peer, so accepted after it.
        let body = scrape(server.addr(), "/metrics").expect("scrape behind a trickling peer");
        assert!(body.contains("# TYPE"), "not an exposition: {body}");
        trickle.join().unwrap();
    }

    #[test]
    fn an_oversized_head_gets_400_and_the_server_keeps_serving() {
        let server = serve();
        let mut peer = TcpStream::connect(server.addr()).expect("connect");
        peer.write_all(&[b'a'; MAX_HEAD_BYTES + 1]).expect("write head");
        peer.set_read_timeout(Some(SCRAPE_DEADLINE)).unwrap();
        let mut response = String::new();
        peer.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 400 "), "got: {response}");
        scrape(server.addr(), "/metrics").expect("the server keeps serving");
    }
}
