//! Live introspection for the execution service: a structured snapshot
//! ([`ServiceIntrospection`]) with text and JSON renderings, plus a tiny
//! env-gated HTTP debug listener ([`DebugServer`]) that serves the global
//! service's snapshot.
//!
//! The snapshot is produced by [`ExecutionService::introspect`]: the
//! [`ServiceStats`] totals and the per-tenant rows are taken under one
//! lock acquisition, so every per-tenant counter column sums exactly to
//! its total and the accounting identity
//! `submitted == completed + running + queued + cancelled` holds for the
//! totals **and** for every tenant row.
//!
//! The JSON is hand-rolled (this workspace carries no serde); the format
//! is documented in the README and kept deliberately flat:
//!
//! ```json
//! {
//!   "service": {"capacity": 256, "permit_budget": 3, "pool_threads": 4},
//!   "stats": {"submitted": 10, "completed": 10, ...},
//!   "tenants": [{"tenant": "default", "submitted": 10, ...}],
//!   "backends": [{"backend": "qpp", "inflight": 0}]
//! }
//! ```
//!
//! [`ExecutionService::introspect`]: crate::ExecutionService::introspect
//! [`ServiceStats`]: crate::ServiceStats

use crate::exec_service::ServiceStats;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One tenant's gauges inside a [`ServiceIntrospection`] snapshot. The
/// counters satisfy the accounting identity
/// `submitted == completed + running + queued + cancelled`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's name (session key).
    pub tenant: String,
    /// Tasks admitted under this tenant.
    pub submitted: usize,
    /// Tasks that ran to completion.
    pub completed: usize,
    /// Tasks currently executing.
    pub running: usize,
    /// Tasks cancelled while queued.
    pub cancelled: usize,
    /// Tasks queued right now.
    pub queued: usize,
}

/// A consistent, self-describing snapshot of an execution service: its
/// configuration surface, [`ServiceStats`](crate::ServiceStats),
/// per-tenant gauges and the live per-backend in-flight loads. Produced by
/// [`ExecutionService::introspect`](crate::ExecutionService::introspect);
/// rendered by [`to_text`](ServiceIntrospection::to_text) /
/// [`to_json`](ServiceIntrospection::to_json) and served by
/// [`DebugServer`].
#[derive(Debug, Clone)]
pub struct ServiceIntrospection {
    /// The counter snapshot (one lock acquisition with `tenants`).
    pub stats: ServiceStats,
    /// Queue high-water mark.
    pub capacity: usize,
    /// Executor-permit budget.
    pub permit_budget: usize,
    /// Backing pool team size.
    pub pool_threads: usize,
    /// Per-tenant gauges, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
    /// `(backend, in-flight executions)` from the service registry,
    /// sorted by backend name.
    pub backends: Vec<(String, usize)>,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl ServiceIntrospection {
    /// Render the snapshot as a flat JSON object (see the module docs for
    /// the shape). Hand-rolled — stable key order, no external deps.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"service\":{{\"capacity\":{},\"permit_budget\":{},\"pool_threads\":{}}},",
            self.capacity, self.permit_budget, self.pool_threads,
        ));
        out.push_str(&format!(
            "\"stats\":{{\"submitted\":{},\"completed\":{},\"cancelled\":{},\"running\":{},\
             \"queue_len\":{},\"peak_queue_len\":{}}},",
            s.submitted, s.completed, s.cancelled, s.running, s.queue_len, s.peak_queue_len,
        ));
        out.push_str("\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"submitted\":{},\"completed\":{},\"running\":{},\
                 \"cancelled\":{},\"queued\":{}}}",
                json_escape(&t.tenant),
                t.submitted,
                t.completed,
                t.running,
                t.cancelled,
                t.queued,
            ));
        }
        out.push_str("],\"backends\":[");
        for (i, (name, inflight)) in self.backends.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"backend\":\"{}\",\"inflight\":{}}}", json_escape(name), inflight));
        }
        out.push_str("]}");
        out
    }

    /// Render the snapshot as human-oriented text (the `/text` route of
    /// the debug endpoint).
    pub fn to_text(&self) -> String {
        let s = &self.stats;
        let mut out = String::with_capacity(1024);
        out.push_str("execution service\n");
        out.push_str(&format!(
            "  capacity={} permit_budget={} pool_threads={}\n",
            self.capacity, self.permit_budget, self.pool_threads,
        ));
        out.push_str(&format!(
            "  submitted={} completed={} cancelled={} running={} queued={} peak={}\n",
            s.submitted, s.completed, s.cancelled, s.running, s.queue_len, s.peak_queue_len
        ));
        out.push_str("tenants\n");
        for t in &self.tenants {
            out.push_str(&format!(
                "  {} submitted={} completed={} running={} cancelled={} queued={}\n",
                t.tenant, t.submitted, t.completed, t.running, t.cancelled, t.queued,
            ));
        }
        out.push_str("backends\n");
        for (name, inflight) in &self.backends {
            out.push_str(&format!("  {name} inflight={inflight}\n"));
        }
        out
    }
}

/// A minimal HTTP/1.0 debug listener serving live
/// [`ServiceIntrospection`] snapshots. Routes: `/`, `/stats`,
/// `/stats.json` → JSON; `/text`, `/stats.txt` → plain text; anything
/// else → 404. One request per connection, no keep-alive — this is a
/// debugging peephole, not a web server. Normally bound by setting
/// `QCOR_DEBUG_ENDPOINT=<addr>` before the global service's first use;
/// off by default.
pub struct DebugServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for DebugServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DebugServer").field("addr", &self.addr).finish()
    }
}

impl DebugServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve snapshots produced by
    /// `provider` until the server is dropped.
    pub fn start<A, F>(addr: A, provider: F) -> std::io::Result<DebugServer>
    where
        A: ToSocketAddrs,
        F: Fn() -> ServiceIntrospection + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new().name("qcor-debug".to_string()).spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Serve inline: a debugging endpoint needs no
                // concurrency, and a slow reader is bounded by the
                // stream timeouts below.
                let _ = handle_conn(stream, &provider);
            }
        })?;
        Ok(DebugServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for DebugServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection. An
        // unspecified bind address (0.0.0.0 / ::) is not connectable;
        // loopback on the same port is.
        let target = if self.addr.ip().is_unspecified() {
            SocketAddr::new(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST), self.addr.port())
        } else {
            self.addr
        };
        let _ = TcpStream::connect_timeout(&target, Duration::from_millis(200));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn handle_conn<F>(stream: TcpStream, provider: &F) -> std::io::Result<()>
where
    F: Fn() -> ServiceIntrospection,
{
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let path = request_line.split_whitespace().nth(1).unwrap_or("/").to_string();
    let mut stream = reader.into_inner();
    let (status, content_type, body) = match path.as_str() {
        "/" | "/stats" | "/stats.json" => ("200 OK", "application/json", provider().to_json()),
        "/text" | "/stats.txt" => ("200 OK", "text/plain; charset=utf-8", provider().to_text()),
        _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn sample() -> ServiceIntrospection {
        ServiceIntrospection {
            stats: ServiceStats {
                submitted: 7,
                completed: 4,
                shed: 0,
                cancelled: 1,
                expired: 0,
                peak_queue_len: 3,
                running: 1,
                queue_len: 1,
            },
            capacity: 8,
            permit_budget: 3,
            pool_threads: 4,
            tenants: vec![TenantStats {
                tenant: "alice \"a\"".to_string(),
                submitted: 7,
                completed: 4,
                running: 1,
                cancelled: 1,
                queued: 1,
            }],
            backends: vec![("qpp".to_string(), 2)],
        }
    }

    #[test]
    fn json_rendering_is_wellformed_and_escaped() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"capacity\":8,"));
        assert!(json.contains("\"pool_threads\":4}"));
        assert!(json.contains("\"tenant\":\"alice \\\"a\\\"\""), "quotes must be escaped: {json}");
        assert!(json.contains("\"queued\":1}"));
        assert!(json.contains("{\"backend\":\"qpp\",\"inflight\":2}"));
        // Balanced braces/brackets outside strings is a cheap sanity
        // proxy for well-formedness without a JSON parser in-tree.
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
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn text_rendering_mentions_every_surface() {
        let text = sample().to_text();
        for needle in ["capacity=8", "permit_budget=3", "alice", "queued=1", "qpp inflight=2"] {
            assert!(text.contains(needle), "`{needle}` missing from:\n{text}");
        }
    }

    #[test]
    fn debug_server_serves_json_text_and_404() {
        let server = DebugServer::start("127.0.0.1:0", sample).expect("bind loopback");
        let addr = server.local_addr();
        let fetch = |path: &str| -> (String, String) {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
            (head.to_string(), body.to_string())
        };
        let (head, body) = fetch("/stats");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, sample().to_json());
        let (head, body) = fetch("/text");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, sample().to_text());
        let (head, _) = fetch("/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
        drop(server); // Drop joins the listener thread without hanging.
    }
}
