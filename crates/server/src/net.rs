//! Networked front-end: TCP and Unix-domain-socket serving of a
//! [`DecodeService`] over the `qldpc-wire` protocol.
//!
//! Hermetic by construction — `std::net`/`std::os::unix::net` listeners,
//! plain threads, no async runtime. One connection runs two threads:
//!
//! * a **reader** that owns the connection's service [`Client`], parses
//!   frames, and converts protocol violations into typed
//!   [`Frame::Error`]s;
//! * a **writer** that answers strictly in request order. Accepted
//!   decode submissions enqueue their [`ResponseHandle`] on the writer,
//!   which waits for the service to fulfill each before writing its
//!   reply — FIFO per connection, with pipelining *into* the service
//!   (many submissions can be in flight at once, bounded by
//!   [`FrontendConfig::max_inflight`], which also bounds the writer's
//!   backlog).
//!
//! Back-pressure is layered: a full code's queue refuses with
//! [`ErrorCode::Overloaded`] (service-wide), while the per-connection
//! in-flight cap refuses with [`ErrorCode::RateLimited`] (one client
//! monopolizing the queue) — distinct wire errors so a client can tell
//! "slow down" from "the service is saturated".
//!
//! A dropped connection can leak nothing: the writer drains every
//! enqueued response handle even when the socket is already dead (write
//! failures are ignored; the *service* slots must resolve).

use crate::request::{DecodeError, SubmitError};
use crate::service::{Client, CodeId, DecodeService};
use qldpc_gf2::BitVec;
use qldpc_wire::{
    read_frame, write_frame, DecodeFailure, ErrorCode, Frame, RecvError, DEFAULT_MAX_PAYLOAD,
    PROTOCOL_VERSION,
};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning of one front-end (one listener).
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// This node's identity: sent in the handshake's `HelloAck` and
    /// attached as a `node` label to every metrics series the front-end
    /// serves, so multi-node scrapes aggregate without colliding.
    pub node: String,
    /// Per-connection cap on decode submissions awaiting their reply.
    /// Submissions beyond it are refused with
    /// [`ErrorCode::RateLimited`] — the per-client rate limit layered
    /// on the service's own [`ErrorCode::Overloaded`] backpressure.
    /// It also bounds the writer's backlog of unsent answers: a reader
    /// that far ahead (its client writes and never reads) stops reading,
    /// and the socket's flow control pushes back.
    pub max_inflight: usize,
    /// Largest frame payload this front-end accepts from a client.
    pub max_payload: u32,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            node: "node0".to_string(),
            max_inflight: 256,
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Pause after a failed `accept` (e.g. out of file descriptors), so a
/// persistent error does not spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// Both socket flavors a front-end serves, unified for the connection
/// machinery.
trait Conn: Read + Write + Send + Sized + 'static {
    fn try_clone_conn(&self) -> io::Result<Self>;

    /// Closes the underlying socket for every clone of it (the shutdown
    /// registry holds one), so the peer sees EOF as soon as the
    /// connection's threads are done — not at front-end teardown.
    fn shutdown_both(&self);
}

impl Conn for TcpStream {
    fn try_clone_conn(&self) -> io::Result<Self> {
        self.try_clone()
    }

    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

impl Conn for UnixStream {
    fn try_clone_conn(&self) -> io::Result<Self> {
        self.try_clone()
    }

    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

/// Registered connection sockets, kept so shutdown can break their
/// blocked reads.
enum RegSock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl RegSock {
    fn shutdown(&self) {
        let _ = match self {
            RegSock::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            RegSock::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

/// A running listener serving one [`DecodeService`]. Dropping it (or
/// calling [`NetFrontend::shutdown`]) stops accepting, closes every open
/// connection, and joins all connection threads; the service itself is
/// left running (it is shared via `Arc` and may have other front-ends).
pub struct NetFrontend {
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<RegSock>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    local_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl NetFrontend {
    /// Binds a TCP listener (use port 0 to let the OS pick; see
    /// [`NetFrontend::local_addr`]) and starts serving.
    pub fn serve_tcp(
        service: Arc<DecodeService>,
        addr: impl ToSocketAddrs,
        config: FrontendConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut frontend = Self::new(Some(local_addr), None);
        let accept = frontend.accept_parts(service, config);
        let thread = std::thread::Builder::new()
            .name(format!("qldpc-net/accept/{local_addr}"))
            .spawn(move || {
                accept.run(
                    || listener.accept().map(|(s, _)| s),
                    |s| Ok(RegSock::Tcp(s.try_clone()?)),
                )
            })?;
        frontend.accept_thread = Some(thread);
        Ok(frontend)
    }

    /// Binds a Unix-domain socket at `path` (removed again on shutdown)
    /// and starts serving.
    pub fn serve_uds(
        service: Arc<DecodeService>,
        path: impl AsRef<Path>,
        config: FrontendConfig,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let listener = UnixListener::bind(&path)?;
        let mut frontend = Self::new(None, Some(path));
        let accept = frontend.accept_parts(service, config);
        let thread = std::thread::Builder::new()
            .name("qldpc-net/accept/uds".to_string())
            .spawn(move || {
                accept.run(
                    || listener.accept().map(|(s, _)| s),
                    |s| Ok(RegSock::Unix(s.try_clone()?)),
                )
            })?;
        frontend.accept_thread = Some(thread);
        Ok(frontend)
    }

    fn new(local_addr: Option<SocketAddr>, uds_path: Option<PathBuf>) -> Self {
        Self {
            stop: Arc::new(AtomicBool::new(false)),
            accept_thread: None,
            conns: Arc::new(Mutex::new(Vec::new())),
            conn_threads: Arc::new(Mutex::new(Vec::new())),
            local_addr,
            uds_path,
        }
    }

    fn accept_parts(&self, service: Arc<DecodeService>, config: FrontendConfig) -> AcceptLoop {
        AcceptLoop {
            service,
            config,
            stop: Arc::clone(&self.stop),
            conns: Arc::clone(&self.conns),
            conn_threads: Arc::clone(&self.conn_threads),
        }
    }

    /// The bound TCP address (`None` for UDS front-ends) — the way to
    /// learn the actual port after binding port 0.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Stops accepting, closes every open connection (blocked reads are
    /// broken by a socket shutdown), and joins all threads. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.wake_accept();
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        // The accept loop has exited, so no connection can register
        // behind this sweep.
        for sock in self.conns.lock().expect("conn registry poisoned").iter() {
            sock.shutdown();
        }
        let threads: Vec<_> = self
            .conn_threads
            .lock()
            .expect("conn threads poisoned")
            .drain(..)
            .collect();
        for thread in threads {
            let _ = thread.join();
        }
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Unblocks the accept loop with one connection to the front-end's
    /// own socket; the loop sees `stop` and drops it unregistered.
    fn wake_accept(&self) {
        if let Some(mut addr) = self.local_addr {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr.ip() {
                    IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(addr);
        }
        if let Some(path) = &self.uds_path {
            let _ = UnixStream::connect(path);
        }
    }
}

impl Drop for NetFrontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The accept loop's shared state, factored so TCP and UDS share one
/// implementation.
struct AcceptLoop {
    service: Arc<DecodeService>,
    config: FrontendConfig,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<RegSock>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl AcceptLoop {
    fn run<C: Conn>(
        self,
        mut accept: impl FnMut() -> io::Result<C>,
        register: impl Fn(&C) -> io::Result<RegSock>,
    ) {
        let mut conn_index = 0usize;
        loop {
            let accepted = accept();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            match accepted {
                Ok(stream) => {
                    if let Ok(reg) = register(&stream) {
                        self.conns.lock().expect("conn registry poisoned").push(reg);
                    }
                    let service = Arc::clone(&self.service);
                    let config = self.config.clone();
                    let thread = std::thread::Builder::new()
                        .name(format!("qldpc-net/conn/{conn_index}"))
                        .spawn(move || run_connection(service, config, stream));
                    conn_index += 1;
                    if let Ok(thread) = thread {
                        self.conn_threads
                            .lock()
                            .expect("conn threads poisoned")
                            .push(thread);
                    }
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
    }
}

/// What the reader hands the writer. Ordered per connection: replies go
/// out in the order their requests arrived.
enum WriteItem {
    /// A frame ready to send.
    Frame(Frame),
    /// An accepted decode submission: wait for the service to fulfill
    /// it, then send the reply.
    Reply {
        tag: u64,
        handle: crate::request::ResponseHandle,
    },
}

fn run_connection<C: Conn>(service: Arc<DecodeService>, config: FrontendConfig, stream: C) {
    let write_half = match stream.try_clone_conn() {
        Ok(half) => half,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::sync_channel::<WriteItem>(config.max_inflight);
    let inflight = Arc::new(AtomicUsize::new(0));
    let writer_inflight = Arc::clone(&inflight);
    let writer = std::thread::Builder::new()
        .name("qldpc-net/writer".to_string())
        .spawn(move || {
            let mut out = BufWriter::new(write_half);
            let mut dead = false;
            while let Ok(item) = rx.recv() {
                let frame = match item {
                    WriteItem::Frame(frame) => frame,
                    WriteItem::Reply { tag, handle } => {
                        // Wait even when the socket is dead: the slot
                        // must resolve so the service's accounting
                        // drains, and the in-flight counter must fall so
                        // a reconnecting client is not charged for a
                        // dead connection's requests.
                        let response = handle.wait();
                        writer_inflight.fetch_sub(1, Ordering::AcqRel);
                        Frame::DecodeReply {
                            tag,
                            batch_size: response.batch_size as u64,
                            result: response.result.map_err(|e| match e {
                                DecodeError::DeadlineExceeded => DecodeFailure::DeadlineExceeded,
                                DecodeError::WorkerLost => DecodeFailure::WorkerLost,
                            }),
                        }
                    }
                };
                if !dead {
                    dead = write_frame(&mut out, &frame).is_err() || out.flush().is_err();
                }
            }
        });
    let Ok(writer) = writer else { return };

    let half_for_close = stream.try_clone_conn();
    reader_loop(&service, &config, stream, &tx, &inflight);

    // Dropping the sender lets the writer drain its queue and exit;
    // every enqueued response handle resolves before the join returns.
    drop(tx);
    let _ = writer.join();
    // Actively close the socket: the shutdown registry keeps a clone of
    // its fd alive, so merely dropping our halves would leave the peer
    // without an EOF until the whole front-end shuts down.
    if let Ok(half) = half_for_close {
        half.shutdown_both();
    }
}

/// Sends a typed error frame (best effort — the writer ignores a dead
/// socket).
fn send_error(tx: &SyncSender<WriteItem>, tag: u64, code: ErrorCode, detail: impl Into<String>) {
    let _ = tx.send(WriteItem::Frame(Frame::Error {
        tag,
        code,
        detail: detail.into(),
    }));
}

fn submit_error_code(e: &SubmitError) -> ErrorCode {
    match e {
        SubmitError::Overloaded => ErrorCode::Overloaded,
        SubmitError::Shutdown => ErrorCode::Shutdown,
        SubmitError::UnknownCode => ErrorCode::UnknownCode,
        SubmitError::SyndromeLength { .. } => ErrorCode::SyndromeLength,
    }
}

fn reader_loop<C: Conn>(
    service: &DecodeService,
    config: &FrontendConfig,
    stream: C,
    tx: &SyncSender<WriteItem>,
    inflight: &AtomicUsize,
) {
    let mut reader = BufReader::new(stream);
    // Handshake first: exactly one Hello, correct version, before
    // anything else.
    match read_frame(&mut reader, config.max_payload) {
        Ok(Some(Frame::Hello { version, client: _ })) => {
            if version != PROTOCOL_VERSION {
                send_error(
                    tx,
                    0,
                    ErrorCode::UnsupportedVersion,
                    format!("server speaks version {PROTOCOL_VERSION}, client sent {version}"),
                );
                return;
            }
            let _ = tx.send(WriteItem::Frame(Frame::HelloAck {
                version: PROTOCOL_VERSION,
                node: config.node.clone(),
            }));
        }
        Ok(Some(other)) => {
            send_error(
                tx,
                0,
                ErrorCode::BadFrame,
                format!("expected Hello, got {}", other.type_name()),
            );
            return;
        }
        Ok(None) => return,
        Err(RecvError::Malformed(e)) => {
            send_error(tx, 0, ErrorCode::BadFrame, e.to_string());
            return;
        }
        Err(RecvError::Io(_)) => return,
    }

    let mut client = service.client();

    loop {
        let frame = match read_frame(&mut reader, config.max_payload) {
            Ok(Some(frame)) => frame,
            // Clean disconnect at a frame boundary, socket shutdown, or
            // transport failure: wind the connection down either way.
            Ok(None) | Err(RecvError::Io(_)) => return,
            Err(RecvError::Malformed(e)) => {
                // A peer that desynchronized the framing cannot be
                // re-synchronized; answer typed and hang up.
                send_error(tx, 0, ErrorCode::BadFrame, e.to_string());
                return;
            }
        };
        match frame {
            Frame::Submit {
                tag,
                code,
                deadline_micros,
                syndrome,
            } => handle_submit(
                config,
                &mut client,
                tx,
                inflight,
                tag,
                code,
                deadline_micros,
                syndrome,
            ),
            Frame::CodeLookup { name } => match service.lookup_code(&name) {
                Some(id) => {
                    let _ = tx.send(WriteItem::Frame(Frame::CodeInfo {
                        code: id.0 as u32,
                        syndrome_bits: service.syndrome_bits(id).unwrap_or(0) as u64,
                        name,
                    }));
                }
                None => send_error(
                    tx,
                    0,
                    ErrorCode::UnknownCode,
                    format!("no code registered as {name:?}"),
                ),
            },
            Frame::MetricsRequest => {
                let _ = tx.send(WriteItem::Frame(Frame::MetricsReply {
                    text: service.render_exposition_for(&config.node),
                }));
            }
            other => {
                // Server-to-client frames (or a second Hello) have no
                // business arriving here.
                send_error(
                    tx,
                    0,
                    ErrorCode::BadFrame,
                    format!("unexpected {} frame", other.type_name()),
                );
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_submit(
    config: &FrontendConfig,
    client: &mut Client,
    tx: &SyncSender<WriteItem>,
    inflight: &AtomicUsize,
    tag: u64,
    code: u32,
    deadline_micros: u64,
    syndrome: BitVec,
) {
    if inflight.load(Ordering::Acquire) >= config.max_inflight {
        send_error(
            tx,
            tag,
            ErrorCode::RateLimited,
            format!(
                "connection already has {} submissions in flight",
                config.max_inflight
            ),
        );
        return;
    }
    let code = CodeId(code as usize);
    let submitted = if deadline_micros > 0 {
        client.submit_with_deadline(code, syndrome, Duration::from_micros(deadline_micros))
    } else {
        client.submit(code, syndrome)
    };
    match submitted {
        Ok(handle) => {
            inflight.fetch_add(1, Ordering::AcqRel);
            let _ = tx.send(WriteItem::Reply { tag, handle });
        }
        Err(e) => send_error(tx, tag, submit_error_code(&e), e.to_string()),
    }
}
