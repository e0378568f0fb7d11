//! TCP transport and a thread-per-connection server.
//!
//! Real sockets for the examples and end-to-end tests: frames are RFC
//! 6455-style WebSocket frames ([`crate::wsframe`]) carried over
//! `std::net::TcpStream`. Client→server frames are masked per the RFC;
//! server→client frames are not.
//!
//! The server follows the "simple and robust" idiom from the project's
//! networking guides: one OS thread per connection (connection counts in
//! this workload are tiny — the paper's observer opens 32), a shared
//! shutdown flag, and explicit timeouts everywhere.
//!
//! ## Zero-timeout polls and the mode cache
//!
//! `recv_timeout(Duration::ZERO)` / `send_timeout(Duration::ZERO)` are
//! readiness probes under the [`Transport`] contract, so they must mean
//! "try once, never block" — but std rejects
//! `set_read_timeout(Some(Duration::ZERO))` with `InvalidInput`. Zero
//! timeouts therefore run the socket in nonblocking mode and translate
//! `WouldBlock` to [`TransportError::Timeout`]. The kernel-visible mode
//! (O_NONBLOCK, SO_RCVTIMEO/SO_SNDTIMEO) is cached in [`SockMode`] so a
//! poll loop issuing thousands of zero-timeout receives pays the
//! `setsockopt` once, not per call; blocking operations restore their
//! mode lazily through the same cache.
//!
//! ## Partial writes
//!
//! A send that times out mid-frame must not corrupt framing: the encoded
//! frame is queued in a pending-output buffer and the unwritten tail is
//! resumed by the next send (of any kind) before new bytes are written.
//! From the peer's perspective every accepted frame arrives exactly once
//! and intact; from the caller's, a `Timeout` from `send_timeout` means
//! "queued but not yet fully on the wire", and it drains as soon as a
//! later send (or reconnect teardown) runs.

use crate::transport::{Transport, TransportError};
use crate::wsframe::{decode_ws, encode_ws, Opcode, WsFrame};
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sentinel for "no timeout set" in the microsecond caches.
const TIMEOUT_UNSET: u64 = u64::MAX;

fn timeout_us(t: Option<Duration>) -> u64 {
    match t {
        None => TIMEOUT_UNSET,
        Some(d) => (d.as_micros().min(TIMEOUT_UNSET as u128 - 1)) as u64,
    }
}

/// Cached kernel-visible socket mode, so an operation re-issues a
/// `setsockopt` only when the mode it needs differs from the last one
/// set.
struct SockMode {
    nonblocking: bool,
    read_timeout_us: u64,
    write_timeout_us: u64,
}

impl SockMode {
    fn new() -> SockMode {
        SockMode {
            nonblocking: false,
            read_timeout_us: TIMEOUT_UNSET,
            write_timeout_us: TIMEOUT_UNSET,
        }
    }
}

/// Pending output: encoded frame bytes not yet accepted by the kernel.
/// Consumed from the front via an offset so resuming a half-written
/// 32 MiB frame does not memmove the tail on every write.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    head: usize,
}

impl OutBuf {
    fn is_empty(&self) -> bool {
        self.head >= self.buf.len()
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.head.min(self.buf.len())..]
    }

    fn consume(&mut self, n: usize) {
        self.head += n;
        if self.head >= self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
    }
}

/// A [`Transport`] over a TCP stream speaking WebSocket-style frames.
pub struct TcpTransport {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: OutBuf,
    /// Clients mask their frames; servers do not.
    is_client: bool,
    mask_counter: u64,
    mode: SockMode,
}

impl TcpTransport {
    /// Wraps an accepted (server-side) stream.
    pub fn server_side(stream: TcpStream) -> std::io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            inbuf: Vec::with_capacity(8 * 1024),
            outbuf: OutBuf::default(),
            is_client: false,
            mask_counter: 0,
            mode: SockMode::new(),
        })
    }

    /// Connects to `addr` as a client.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            inbuf: Vec::with_capacity(8 * 1024),
            outbuf: OutBuf::default(),
            is_client: true,
            mask_counter: 0x9e3779b97f4a7c15,
            mode: SockMode::new(),
        })
    }

    fn next_mask(&mut self) -> [u8; 4] {
        // Masking exists to defeat proxy cache poisoning, not for secrecy;
        // a counter-derived key is within spec requirements for our use.
        self.mask_counter = self
            .mask_counter
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        ((self.mask_counter >> 32) as u32).to_be_bytes()
    }

    fn ensure_nonblocking(&mut self) -> Result<(), TransportError> {
        if !self.mode.nonblocking {
            self.stream
                .set_nonblocking(true)
                .map_err(|e| TransportError::Io(e.to_string()))?;
            self.mode.nonblocking = true;
        }
        Ok(())
    }

    fn ensure_blocking(&mut self) -> Result<(), TransportError> {
        if self.mode.nonblocking {
            self.stream
                .set_nonblocking(false)
                .map_err(|e| TransportError::Io(e.to_string()))?;
            self.mode.nonblocking = false;
        }
        Ok(())
    }

    /// Applies `timeout` as the socket read timeout, skipping the
    /// syscall when the cached value already matches. `timeout` must not
    /// be `Some(Duration::ZERO)` (std rejects it) — zero-timeout receives
    /// take the nonblocking path instead.
    fn ensure_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        let us = timeout_us(timeout);
        if self.mode.read_timeout_us != us {
            self.stream
                .set_read_timeout(timeout)
                .map_err(|e| TransportError::Io(e.to_string()))?;
            self.mode.read_timeout_us = us;
        }
        Ok(())
    }

    fn ensure_write_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        let us = timeout_us(timeout);
        if self.mode.write_timeout_us != us {
            self.stream
                .set_write_timeout(timeout)
                .map_err(|e| TransportError::Io(e.to_string()))?;
            self.mode.write_timeout_us = us;
        }
        Ok(())
    }

    /// Puts the socket in the right mode for a receive with `timeout`:
    /// `Some(ZERO)` → nonblocking probe, anything else → blocking with
    /// the (cached) read timeout.
    fn enter_read_mode(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        match timeout {
            Some(t) if t.is_zero() => self.ensure_nonblocking(),
            other => {
                self.ensure_blocking()?;
                self.ensure_read_timeout(other)
            }
        }
    }

    fn read_frame(&mut self, timeout: Option<Duration>) -> Result<WsFrame, TransportError> {
        self.enter_read_mode(timeout)?;
        let mut chunk = [0u8; 4096];
        loop {
            match decode_ws(&mut self.inbuf) {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(TransportError::Timeout)
                }
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {
                    return Err(TransportError::Closed)
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
    }

    fn recv_data(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>, TransportError> {
        loop {
            let frame = self.read_frame(timeout)?;
            match frame.opcode {
                Opcode::Text | Opcode::Binary => return Ok(frame.payload),
                Opcode::Ping => {
                    // Answer pings transparently through the pending
                    // buffer: if the socket cannot take the pong right
                    // now it rides out with the next send.
                    self.queue_frame(Opcode::Pong, &frame.payload);
                    self.flush_pending()?;
                }
                Opcode::Pong => {}
                Opcode::Close => return Err(TransportError::Closed),
            }
        }
    }

    /// Encodes `payload` as a frame at the tail of the pending buffer.
    fn queue_frame(&mut self, opcode: Opcode, payload: &[u8]) {
        let mask = if self.is_client {
            Some(self.next_mask())
        } else {
            None
        };
        encode_ws(&mut self.outbuf.buf, opcode, payload, mask);
    }

    /// Writes as much pending output as the socket will take right now.
    /// Returns `Ok(true)` when fully drained; `Ok(false)` means the
    /// socket stopped accepting bytes (timeout/would-block) and the
    /// unwritten tail stays queued for the next send.
    fn flush_pending(&mut self) -> Result<bool, TransportError> {
        while !self.outbuf.is_empty() {
            match self.stream.write(self.outbuf.pending()) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => self.outbuf.consume(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(false)
                }
                Err(e)
                    if e.kind() == ErrorKind::BrokenPipe
                        || e.kind() == ErrorKind::ConnectionReset =>
                {
                    return Err(TransportError::Closed)
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
        Ok(true)
    }

    fn send_with_mode(
        &mut self,
        message: &[u8],
        timeout: Option<Duration>,
    ) -> Result<(), TransportError> {
        match timeout {
            Some(t) if t.is_zero() => self.ensure_nonblocking()?,
            other => {
                self.ensure_blocking()?;
                self.ensure_write_timeout(other)?;
            }
        }
        self.queue_frame(Opcode::Text, message);
        if self.flush_pending()? {
            Ok(())
        } else {
            Err(TransportError::Timeout)
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, message: &[u8]) -> Result<(), TransportError> {
        self.send_with_mode(message, None)
    }

    fn send_timeout(&mut self, message: &[u8], timeout: Duration) -> Result<(), TransportError> {
        self.send_with_mode(message, Some(timeout))
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.recv_data(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.recv_data(Some(timeout))
    }
}

/// A running TCP server. Dropping it (or calling [`TcpServer::shutdown`])
/// stops the accept loop and waits for it to exit; connection handler
/// threads exit when their peers disconnect.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<AtomicU64>,
}

impl TcpServer {
    /// Binds to `127.0.0.1:0` (or a given address) and serves each
    /// connection with `handler` on its own thread.
    pub fn spawn<F>(bind: &str, handler: F) -> std::io::Result<TcpServer>
    where
        F: Fn(TcpTransport) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let handler = Arc::new(handler);
        let handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let stop2 = stop.clone();
        let conns2 = connections.clone();
        let handles2 = handles.clone();
        let accept_thread = std::thread::Builder::new()
            .name("tcp-accept".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            stream.set_nonblocking(false).ok();
                            conns2.fetch_add(1, Ordering::Relaxed);
                            let handler = handler.clone();
                            let h = std::thread::Builder::new()
                                .name("tcp-conn".into())
                                .spawn(move || {
                                    if let Ok(t) = TcpTransport::server_side(stream) {
                                        handler(t);
                                    }
                                })
                                .expect("spawn connection thread");
                            handles2.lock().push(h);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })?;

        Ok(TcpServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            connections,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Stops accepting new connections.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An echo server used by several tests.
    fn echo_server() -> TcpServer {
        TcpServer::spawn("127.0.0.1:0", |mut t| {
            while let Ok(msg) = t.recv() {
                if t.send(&msg).is_err() {
                    break;
                }
            }
        })
        .unwrap()
    }

    #[test]
    fn echo_roundtrip() {
        let server = echo_server();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        client.send(b"{\"hello\":1}").unwrap();
        assert_eq!(client.recv().unwrap(), b"{\"hello\":1}");
    }

    #[test]
    fn multiple_clients_in_parallel() {
        let server = echo_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i: u32| {
                std::thread::spawn(move || {
                    let mut c = TcpTransport::connect(addr).unwrap();
                    for round in 0..10u32 {
                        let msg = format!("client {i} round {round}");
                        c.send(msg.as_bytes()).unwrap();
                        assert_eq!(c.recv().unwrap(), msg.as_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.connections_accepted(), 8);
    }

    #[test]
    fn recv_timeout_fires() {
        let server = echo_server();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(30)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn zero_timeout_recv_is_a_nonblocking_probe() {
        // Regression: `set_read_timeout(Some(ZERO))` is InvalidInput in
        // std, so this used to surface `Io` instead of `Timeout`.
        let server = echo_server();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        for _ in 0..100 {
            assert_eq!(
                client.recv_timeout(Duration::ZERO),
                Err(TransportError::Timeout),
                "an idle socket must report Timeout, never Io"
            );
        }
        // The probe must not poison later blocking operations.
        client.send(b"after-probe").unwrap();
        assert_eq!(client.recv().unwrap(), b"after-probe");
        // And once a message is in flight, the probe eventually sees it.
        client.send(b"again").unwrap();
        let mut got = None;
        for _ in 0..1_000 {
            match client.recv_timeout(Duration::ZERO) {
                Ok(msg) => {
                    got = Some(msg);
                    break;
                }
                Err(TransportError::Timeout) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert_eq!(got.as_deref(), Some(&b"again"[..]));
    }

    #[test]
    fn zero_timeout_send_never_reports_io() {
        // The peer never reads, so the kernel buffers fill up and the
        // nonblocking send path must surface Timeout (not Io, and not a
        // hang). The frame tail stays queued — dropping the transport
        // discards it, like a reconnect would.
        let server = TcpServer::spawn("127.0.0.1:0", |_t| {
            std::thread::sleep(Duration::from_millis(500));
        })
        .unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        let chunk = vec![0x5au8; 1 << 20];
        let mut saw_timeout = false;
        for _ in 0..64 {
            match client.send_timeout(&chunk, Duration::ZERO) {
                Ok(()) => {}
                Err(TransportError::Timeout) => {
                    saw_timeout = true;
                    break;
                }
                Err(e) => panic!("zero-timeout send must not fail with {e:?}"),
            }
        }
        assert!(saw_timeout, "64 MiB must exceed the socket buffers");
    }

    #[test]
    fn timed_out_send_resumes_without_corrupting_frames() {
        // A huge frame times out half-written; the next (blocking) send
        // must first finish the old frame so the peer sees both intact.
        let gate = Arc::new(AtomicBool::new(false));
        let gate2 = gate.clone();
        let server = TcpServer::spawn("127.0.0.1:0", move |mut t| {
            while !gate2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
            }
            while let Ok(msg) = t.recv() {
                let reply = msg.len().to_string();
                if t.send(reply.as_bytes()).is_err() {
                    break;
                }
            }
        })
        .unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        // 12 MiB: under the 16 MiB frame sanity cap, far over the
        // kernel socket buffers while the peer stalls.
        let big: Vec<u8> = (0..12 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(
            client.send_timeout(&big, Duration::from_millis(50)),
            Err(TransportError::Timeout),
            "the frame cannot fit the kernel buffers while the peer stalls"
        );
        gate.store(true, Ordering::Relaxed);
        // This blocking send drains the stale tail first, then its own
        // frame — framing survives the earlier partial write.
        client.send(b"tiny").unwrap();
        assert_eq!(client.recv().unwrap(), big.len().to_string().as_bytes());
        assert_eq!(client.recv().unwrap(), b"4");
    }

    #[test]
    fn server_disconnect_is_closed() {
        let server = TcpServer::spawn("127.0.0.1:0", |mut t| {
            let _ = t.recv(); // read one message then hang up
        })
        .unwrap();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        client.send(b"bye").unwrap();
        assert_eq!(client.recv(), Err(TransportError::Closed));
    }

    #[test]
    fn large_message_crosses_intact() {
        let server = echo_server();
        let mut client = TcpTransport::connect(server.addr()).unwrap();
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        client.send(&big).unwrap();
        assert_eq!(client.recv().unwrap(), big);
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = echo_server();
        let addr = server.addr();
        server.shutdown();
        // A fresh connection may connect into the dead listener's backlog,
        // but communication must fail.
        if let Ok(mut c) = TcpTransport::connect(addr) {
            let _ = c.send(b"x");
            assert!(c.recv_timeout(Duration::from_millis(50)).is_err());
        }
    }
}
