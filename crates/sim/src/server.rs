//! Zero-dependency HTTP/1.1 wire code for the crate's one HTTP surface,
//! [`crate::service::CampaignService`].
//!
//! The server half (`read_http_request`, slow-loris safe under an
//! overall deadline, and `write_http_response`, one `Connection: close`
//! JSON reply) serves the service's router; the client half
//! ([`http_get`], [`http_post`], [`http_get_with_retries`]) types its
//! failures as [`HttpError`] so a caller can tell a fault from an answer.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Typed failure of an HTTP exchange ([`http_get`] / [`http_post`]).
///
/// The split matters for retry policy: [`Timeout`](Self::Timeout) and
/// [`Io`](Self::Io) are transport faults worth retrying (the server may
/// be restarting — the crash-only service does exactly that), while
/// [`Status`](Self::Status) and [`Malformed`](Self::Malformed) are
/// answers: the server spoke, retrying verbatim gets the same reply
/// (except `429`/`503` backpressure, which
/// [`http_get_with_retries`] handles explicitly).
#[derive(Debug)]
pub enum HttpError {
    /// The overall request deadline elapsed (connect, write or read).
    Timeout,
    /// Transport failure below HTTP (connect refused, reset, …).
    Io(std::io::Error),
    /// The peer's bytes were not a parseable HTTP/1.1 response.
    Malformed(String),
    /// A complete non-2xx response.
    Status {
        /// HTTP status code (e.g. `404`, `429`, `503`).
        code: u16,
        /// Response body (the service answers JSON).
        body: String,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Timeout => write!(f, "http request timed out"),
            HttpError::Io(e) => write!(f, "http transport error: {e}"),
            HttpError::Malformed(reason) => write!(f, "malformed http response: {reason}"),
            HttpError::Status { code, body } => write!(f, "http status {code}: {body}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            HttpError::Timeout
        } else {
            HttpError::Io(e)
        }
    }
}

impl HttpError {
    /// Whether a verbatim retry can possibly succeed: transport faults
    /// and explicit backpressure (`429`, `503`), but never other
    /// complete answers.
    pub fn is_retryable(&self) -> bool {
        match self {
            HttpError::Timeout | HttpError::Io(_) => true,
            HttpError::Status { code, .. } => matches!(code, 429 | 503),
            HttpError::Malformed(_) => false,
        }
    }
}

/// Writes one `Connection: close` JSON response.
pub(crate) fn write_http_response(
    stream: &mut TcpStream,
    status: &str,
    body: &str,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// One parsed inbound request: method, path (query string stripped) and
/// the body promised by `Content-Length`.
pub(crate) struct HttpRequest {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// Reads one HTTP/1.1 request under an **overall** deadline.
///
/// The per-read socket timeout alone is not enough: a client trickling
/// one byte per timeout window (slow loris) would hold the accept
/// thread forever while every individual `read` "succeeds". Here the
/// whole request — head and body — must arrive within `deadline`, or
/// the connection is dropped (`None`). Also `None` for unparsable
/// requests and bodies larger than the head's `Content-Length` cap.
pub(crate) fn read_http_request(stream: &mut TcpStream, deadline: Duration) -> Option<HttpRequest> {
    const MAX_HEAD: usize = 8 * 1024;
    const MAX_BODY: usize = 4 * 1024 * 1024;
    let started = Instant::now();
    let mut buf = Vec::with_capacity(2048);
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= MAX_HEAD {
            return None;
        }
        let remaining = deadline.checked_sub(started.elapsed())?;
        stream
            .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
            .ok()?;
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    };
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    // Strip any query string; endpoints take no parameters.
    let path = target.split('?').next().unwrap_or(target).to_string();
    let content_length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return None;
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let remaining = deadline.checked_sub(started.elapsed())?;
        stream
            .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
            .ok()?;
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    body.truncate(content_length);
    Some(HttpRequest { method, path, body })
}

/// Minimal blocking HTTP GET against the campaign service: returns the
/// 2xx response body, or a typed [`HttpError`]. This is the client half
/// used by the offline verify smoke and the `abl13_campaign_observatory`
/// poller.
///
/// # Errors
///
/// [`HttpError::Timeout`] when the 5-second overall deadline elapses
/// (connect included — no wedged poller threads), [`HttpError::Io`] on
/// transport failure, [`HttpError::Malformed`] on unparsable bytes, and
/// [`HttpError::Status`] for complete non-2xx answers.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, HttpError> {
    http_exchange(addr, "GET", path, None, Duration::from_secs(5))
}

/// Blocking HTTP POST of a JSON body; same contract as [`http_get`].
///
/// # Errors
///
/// Same taxonomy as [`http_get`].
pub fn http_post(addr: SocketAddr, path: &str, body: &str) -> Result<String, HttpError> {
    http_exchange(addr, "POST", path, Some(body), Duration::from_secs(5))
}

/// [`http_get`] with bounded exponential backoff over transient faults.
///
/// Retries [`HttpError::is_retryable`] failures (transport faults and
/// `429`/`503` backpressure) up to `attempts` times total, sleeping
/// `base_backoff × 2^attempt` between tries, capped at one second.
/// Definitive answers (other statuses, malformed bytes) return
/// immediately. This is the client loop a crash-only server demands:
/// the server dying mid-request is indistinguishable from slowness, so
/// the client retries idempotent reads until the restarted process
/// answers.
///
/// # Errors
///
/// The last failure, when every attempt failed.
pub fn http_get_with_retries(
    addr: SocketAddr,
    path: &str,
    attempts: u32,
    base_backoff: Duration,
) -> Result<String, HttpError> {
    let mut last = HttpError::Timeout;
    for attempt in 0..attempts.max(1) {
        match http_get(addr, path) {
            Ok(body) => return Ok(body),
            Err(e) if e.is_retryable() && attempt + 1 < attempts.max(1) => {
                let backoff = base_backoff
                    .saturating_mul(1u32 << attempt.min(10))
                    .min(Duration::from_secs(1));
                std::thread::sleep(backoff);
                last = e;
            }
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

fn http_exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    deadline: Duration,
) -> Result<String, HttpError> {
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, deadline)?;
    stream.set_write_timeout(Some(deadline))?;
    let request = match body {
        Some(body) => format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
        None => format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    };
    stream.write_all(request.as_bytes())?;
    // Chunked reads under the *overall* deadline: a peer trickling
    // bytes cannot hold this thread past it.
    const MAX_RESPONSE: usize = 64 * 1024 * 1024;
    let mut response = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        let remaining = deadline
            .checked_sub(started.elapsed())
            .ok_or(HttpError::Timeout)?;
        stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                response.extend_from_slice(&chunk[..n]);
                if response.len() > MAX_RESPONSE {
                    return Err(HttpError::Malformed("response too large".to_string()));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    let text = String::from_utf8(response)
        .map_err(|_| HttpError::Malformed("response is not UTF-8".to_string()))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| HttpError::Malformed("no header/body separator".to_string()))?;
    let status_line = head
        .lines()
        .next()
        .ok_or_else(|| HttpError::Malformed("empty response head".to_string()))?;
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("unparsable status line {status_line:?}")))?;
    if !(200..300).contains(&code) {
        return Err(HttpError::Status {
            code,
            body: body.to_string(),
        });
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn slow_loris_requests_hit_the_overall_deadline() {
        // A client trickling bytes must be cut off by the *overall*
        // request deadline even though every individual read succeeds.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for _ in 0..20 {
                if stream.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let (mut conn, _) = listener.accept().unwrap();
        let started = Instant::now();
        let request = read_http_request(&mut conn, Duration::from_millis(100));
        assert!(request.is_none(), "a trickled request must not parse");
        assert!(
            started.elapsed() < Duration::from_millis(900),
            "the reader must give up at the deadline, not at EOF"
        );
        drop(conn);
        writer.join().unwrap();
    }

    #[test]
    fn post_bodies_are_read_to_content_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let request = read_http_request(&mut conn, Duration::from_secs(2)).unwrap();
            write_http_response(&mut conn, "200 OK", "{\"ok\":true}").unwrap();
            request
        });
        let body = http_post(addr, "/jobs", "{\"points\":3}").unwrap();
        assert_eq!(body, "{\"ok\":true}");
        let request = server.join().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/jobs");
        assert_eq!(request.body, b"{\"points\":3}");
    }

    #[test]
    fn serves_all_endpoints_and_404() {
        use crate::service::{submission_body, CampaignService, FaultPlan, ServiceConfig};
        use crate::{CampaignPlan, ClosedFormPll, PllConfig};
        use pllbist_telemetry::json::{json_str_field, json_u64_field};

        let root = std::env::temp_dir().join(format!(
            "pllbist_server_unit_{}_endpoints",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let service = CampaignService::start(ServiceConfig::rooted(&root)).unwrap();
        let addr = service.addr();
        let plan = CampaignPlan::new(PllConfig::paper_table3())
            .engine::<ClosedFormPll>()
            .lock_settle(0.05);
        let grid = [5.0, 20.0];
        let job = plan.digest(&grid, "endpoints");
        let submit = http_post(
            addr,
            "/jobs",
            &submission_body(&plan, &grid, "endpoints", &FaultPlan::none()),
        )
        .unwrap();
        assert!(submit.contains(&job), "{submit}");
        let started = Instant::now();
        let detail = loop {
            let detail = http_get(addr, &format!("/jobs/{job}")).unwrap();
            if json_str_field(&detail, "state").as_deref() == Some("done") {
                break detail;
            }
            assert!(started.elapsed().as_secs() < 60, "job not done in 60 s");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(json_u64_field(&detail, "results_lines"), Some(2));

        let progress = http_get(addr, "/progress").unwrap();
        assert_eq!(json_u64_field(&progress, "done"), Some(1));
        assert!(progress.contains("\"running\":null"), "{progress}");
        let jobs = http_get(addr, "/jobs").unwrap();
        assert!(jobs.contains(&format!("\"job\":\"{job}\",\"state\":\"done\"")));
        let results = http_get(addr, &format!("/jobs/{job}/results")).unwrap();
        assert_eq!(results.matches("\"campaign.point\"").count(), 2);

        // A 404 is a complete answer → typed status error, not a body.
        let not_found = |path: &str| match http_get(addr, path) {
            Err(HttpError::Status { code: 404, body }) => body,
            other => panic!("{path}: expected 404 status error, got {other:?}"),
        };
        assert!(not_found("/nope").contains("no such endpoint"));
        assert!(not_found("/").contains("no such endpoint"));
        for view in ["progress", "workers", "incidents"] {
            let body = not_found(&format!("/jobs/{job}/{view}"));
            assert!(body.contains("\"error\":\"job not running\""), "{body}");
            assert!(body.contains("\"state\":\"done\""), "{body}");
        }

        // Query strings are tolerated.
        let q = http_get(addr, &format!("/jobs/{job}?pretty=1")).unwrap();
        assert_eq!(json_u64_field(&q, "results_lines"), Some(2));

        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retry_wrapper_classifies_and_backs_off() {
        // Connection refused is retryable; all attempts burn, quickly.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let started = Instant::now();
        let err = http_get_with_retries(dead, "/", 3, Duration::from_millis(5)).unwrap_err();
        assert!(err.is_retryable(), "transport fault: {err:?}");
        assert!(
            started.elapsed() >= Duration::from_millis(15),
            "5+10 ms backoff"
        );
        // A definitive 404 returns immediately, no retries.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_http_request(&mut conn, Duration::from_secs(2)).unwrap();
            write_http_response(&mut conn, "404 Not Found", "{\"error\":\"nope\"}").unwrap();
        });
        let err = http_get_with_retries(addr, "/nope", 3, Duration::from_secs(10)).unwrap_err();
        assert!(matches!(err, HttpError::Status { code: 404, .. }));
        assert!(!err.is_retryable());
        server.join().unwrap();
        // Backpressure statuses are retryable.
        assert!(HttpError::Status {
            code: 429,
            body: String::new()
        }
        .is_retryable());
        assert!(!HttpError::Malformed("x".into()).is_retryable());
    }
}
