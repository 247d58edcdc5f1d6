//! A minimal, dependency-free Prometheus exposition endpoint.
//!
//! `std::net::TcpListener` in non-blocking accept mode, polled from the
//! service's event loop — no threads, no async runtime, no HTTP crate.
//! That is deliberate: the scrape path must not perturb the validation
//! pipeline it measures, and the offline build environment rules out a
//! web framework anyway. One poll per loop iteration drains every
//! pending connection; a scraper sees `HTTP/1.1 200` with
//! `text/plain; version=0.0.4` (the Prometheus exposition content type)
//! for `GET /metrics`, and `404` for anything else.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Longest request head we will read before answering; a scraper's GET
/// line plus headers fits comfortably.
const MAX_REQUEST_BYTES: usize = 4096;

/// Time one connection may take from accept to the last response byte.
/// Every read and write gets only what is left of it, so a client that
/// trickles bytes cannot hold the event loop longer than this.
const REQUEST_DEADLINE: Duration = Duration::from_millis(250);

/// A polled metrics endpoint. Construct with [`MetricsServer::bind`],
/// call [`MetricsServer::poll`] from the event loop with the current
/// exposition text.
#[derive(Debug)]
pub struct MetricsServer {
    listener: TcpListener,
}

impl MetricsServer {
    /// Binds the listener (e.g. `"127.0.0.1:9090"`; port 0 picks a free
    /// port — read it back with [`MetricsServer::local_addr`]).
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(MetricsServer { listener })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves every connection currently pending, answering each with
    /// `body` (for `/metrics`) or a 404. Returns how many requests were
    /// answered. Never spends more than a short per-connection deadline
    /// on one client; per-connection errors are swallowed (a half-open
    /// scraper must not take the relayer down).
    pub fn poll(&self, body: &str) -> std::io::Result<usize> {
        let mut served = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let deadline = Instant::now() + REQUEST_DEADLINE;
                    if serve_one(stream, body, deadline).is_ok() {
                        served += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(served)
    }
}

/// Time left until `deadline`, or `TimedOut` once it has passed.
fn remaining(deadline: Instant) -> std::io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(std::io::ErrorKind::TimedOut.into());
    }
    Ok(left)
}

fn serve_one(mut stream: TcpStream, body: &str, deadline: Instant) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;

    // Read until the end of the request head (or the cap).
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        stream.set_read_timeout(Some(remaining(deadline)?))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }

    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let response = if method == "GET" && (path == "/metrics" || path == "/") {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        let msg = "not found\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            msg.len(),
            msg
        )
    };
    let mut rest = response.as_bytes();
    while !rest.is_empty() {
        stream.set_write_timeout(Some(remaining(deadline)?))?;
        match stream.write(rest)? {
            0 => return Err(std::io::ErrorKind::WriteZero.into()),
            n => rest = &rest[n..],
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(addr: SocketAddr, server: &MetricsServer, body: &str, path: &str) -> String {
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        client.flush().unwrap();
        // Give the kernel a beat to surface the connection, then poll.
        for _ in 0..100 {
            if server.poll(body).unwrap() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_exposition_and_404s_unknown_paths() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();

        let ok = request(addr, &server, "waku_up 1\n", "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.ends_with("waku_up 1\n"), "{ok}");

        let missing = request(addr, &server, "waku_up 1\n", "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        // An idle poll serves nothing and does not block.
        assert_eq!(server.poll("x").unwrap(), 0);
    }

    #[test]
    fn trickling_client_cannot_hold_poll_past_the_deadline() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        // One byte every 50 ms for 2 s, never ending the request head.
        let trickler = std::thread::spawn(move || {
            for _ in 0..40 {
                if client.write_all(b"G").is_err() {
                    return true; // the server hung up
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            false
        });

        let start = Instant::now();
        let served = server.poll("x").unwrap();
        let elapsed = start.elapsed();
        assert_eq!(served, 0, "an unfinished request head is never answered");
        assert!(
            elapsed < Duration::from_secs(1),
            "poll blocked for {elapsed:?}"
        );
        assert!(
            trickler.join().unwrap(),
            "the server drops the trickling client"
        );

        // A normal scrape is still answered.
        let ok = request(addr, &server, "waku_up 1\n", "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    }
}
