//! `qldpc-client` — a thin, blocking client for the networked decode
//! service.
//!
//! One [`Connection`] wraps one TCP or Unix-domain socket and performs
//! the protocol handshake on connect. All calls are synchronous
//! request/response: the service front-end answers a connection's
//! requests in submission order, so a blocking client never needs tag
//! matching — tags are still sent and verified as a protocol
//! cross-check.
//!
//! ```no_run
//! use qldpc_client::Connection;
//! use qldpc_gf2::BitVec;
//!
//! let mut conn = Connection::connect_tcp("127.0.0.1:9151", "example").unwrap();
//! let code = conn.lookup_code("gross").unwrap();
//! let syndrome = BitVec::zeros(code.syndrome_bits as usize);
//! let reply = conn.decode(code.id, &syndrome).unwrap();
//! assert!(reply.result.unwrap().solved);
//! ```

use qldpc_decoder_api::DecodeOutcome;
use qldpc_gf2::BitVec;
use qldpc_wire::{
    read_frame, write_frame, DecodeFailure, ErrorCode, Frame, RecvError, WireError,
    DEFAULT_MAX_PAYLOAD, PROTOCOL_VERSION,
};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// How a client call can fail.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write, or EOF mid-frame).
    Io(io::Error),
    /// The server sent bytes that do not decode as a frame.
    Wire(WireError),
    /// The server answered with a typed [`Frame::Error`].
    Remote {
        /// Machine-readable category.
        code: ErrorCode,
        /// Server-side context string.
        detail: String,
    },
    /// The server sent a well-formed frame of the wrong type for the
    /// pending request — a protocol bug, not a user error.
    UnexpectedFrame {
        /// The frame type received.
        got: &'static str,
        /// The frame type the call was waiting for.
        want: &'static str,
    },
    /// The reply's correlation tag does not match the request.
    TagMismatch {
        /// Tag sent.
        sent: u64,
        /// Tag received.
        got: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "malformed server frame: {e}"),
            ClientError::Remote { code, detail } => {
                write!(f, "server refused ({code}): {detail}")
            }
            ClientError::UnexpectedFrame { got, want } => {
                write!(f, "protocol error: got {got} while waiting for {want}")
            }
            ClientError::TagMismatch { sent, got } => {
                write!(f, "protocol error: sent tag {sent}, reply carries {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Io(e) => ClientError::Io(e),
            RecvError::Malformed(e) => ClientError::Wire(e),
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A registered code as the server describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeHandle {
    /// Numeric id for [`Connection::decode`].
    pub id: u32,
    /// Syndrome length the code expects.
    pub syndrome_bits: u64,
    /// The registration name, echoed back.
    pub name: String,
}

/// A successful decode round-trip.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeReply {
    /// Live requests in the micro-batch this decode rode in.
    pub batch_size: u64,
    /// The outcome, or why the accepted request was dropped
    /// (dispatch-deadline expiry, worker death).
    pub result: Result<DecodeOutcome, DecodeFailure>,
}

/// One blocking connection to a decode-service front-end.
///
/// Dropping the connection closes the socket; the server releases the
/// in-flight slots tied to it.
pub struct Connection {
    reader: BufReader<Stream>,
    writer: BufWriter<Stream>,
    node: String,
    next_tag: u64,
    max_payload: u32,
}

impl Connection {
    /// Connects over TCP and performs the protocol handshake.
    pub fn connect_tcp(addr: impl ToSocketAddrs, client: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::handshake(Stream::Tcp(stream), client)
    }

    /// Connects over a Unix-domain socket and performs the handshake.
    pub fn connect_uds(path: impl AsRef<Path>, client: &str) -> Result<Self, ClientError> {
        let stream = UnixStream::connect(path)?;
        Self::handshake(Stream::Unix(stream), client)
    }

    /// Connects to `addr`, inferring the transport from its shape: an
    /// address containing `/` is a Unix-domain socket path, anything
    /// else a TCP `host:port` — the convention every `--service` flag
    /// in the workspace follows.
    pub fn connect(addr: &str, client: &str) -> Result<Self, ClientError> {
        if addr.contains('/') {
            Self::connect_uds(addr, client)
        } else {
            Self::connect_tcp(addr, client)
        }
    }

    fn handshake(stream: Stream, client: &str) -> Result<Self, ClientError> {
        let write_half = stream.try_clone()?;
        let mut conn = Connection {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            node: String::new(),
            next_tag: 1,
            max_payload: DEFAULT_MAX_PAYLOAD,
        };
        conn.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            client: client.to_string(),
        })?;
        match conn.recv("HelloAck")? {
            Frame::HelloAck { version: _, node } => conn.node = node,
            other => return Err(conn.unexpected(other, "HelloAck")),
        }
        Ok(conn)
    }

    /// The serving node's configured identity, from the handshake.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Sets (or clears) a read timeout on replies. With a timeout set, a
    /// stalled server surfaces as [`ClientError::Io`] with kind
    /// `WouldBlock`/`TimedOut` instead of hanging the caller — the soak
    /// harness uses this as its deadlock tripwire.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    fn fresh_tag(&mut self) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        tag
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self, want: &'static str) -> Result<Frame, ClientError> {
        match read_frame(&mut self.reader, self.max_payload)? {
            Some(frame) => Ok(frame),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed while waiting for {want}"),
            ))),
        }
    }

    /// Normalizes a wrong-type frame into the right error: typed server
    /// refusals become [`ClientError::Remote`], anything else
    /// [`ClientError::UnexpectedFrame`].
    fn unexpected(&self, frame: Frame, want: &'static str) -> ClientError {
        match frame {
            Frame::Error { code, detail, .. } => ClientError::Remote { code, detail },
            other => ClientError::UnexpectedFrame {
                got: other.type_name(),
                want,
            },
        }
    }

    /// Resolves a registered code by name.
    pub fn lookup_code(&mut self, name: &str) -> Result<CodeHandle, ClientError> {
        self.send(&Frame::CodeLookup {
            name: name.to_string(),
        })?;
        match self.recv("CodeInfo")? {
            Frame::CodeInfo {
                code,
                syndrome_bits,
                name,
            } => Ok(CodeHandle {
                id: code,
                syndrome_bits,
                name,
            }),
            other => Err(self.unexpected(other, "CodeInfo")),
        }
    }

    /// Decodes one syndrome with no dispatch deadline.
    pub fn decode(&mut self, code: u32, syndrome: &BitVec) -> Result<DecodeReply, ClientError> {
        self.decode_with_deadline(code, syndrome, None)
    }

    /// Decodes one syndrome, optionally bounding how long it may wait in
    /// the service queue before dispatch (enforced server-side).
    pub fn decode_with_deadline(
        &mut self,
        code: u32,
        syndrome: &BitVec,
        deadline: Option<Duration>,
    ) -> Result<DecodeReply, ClientError> {
        let tag = self.fresh_tag();
        self.send(&Frame::Submit {
            tag,
            code,
            deadline_micros: deadline.map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64),
            syndrome: syndrome.clone(),
        })?;
        match self.recv("DecodeReply")? {
            Frame::DecodeReply {
                tag: got,
                batch_size,
                result,
            } => {
                if got != tag {
                    return Err(ClientError::TagMismatch { sent: tag, got });
                }
                Ok(DecodeReply { batch_size, result })
            }
            other => Err(self.unexpected(other, "DecodeReply")),
        }
    }

    /// Fetches the node-labeled metrics exposition text.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send(&Frame::MetricsRequest)?;
        match self.recv("MetricsReply")? {
            Frame::MetricsReply { text } => Ok(text),
            other => Err(self.unexpected(other, "MetricsReply")),
        }
    }
}

/// A [`SyndromeDecoder`](qldpc_decoder_api::SyndromeDecoder) that
/// forwards every decode to a remote service — the adapter that lets
/// decoder-driven harnesses (the Monte Carlo runners, the campaign
/// engine) run unchanged against a networked decoder.
///
/// The remote decode is bit-identical to the in-process one for every
/// in-tree decoder family (BP, BP-OSD, BP-SF): each is a pure function
/// of its construction inputs and the syndrome, so it does not matter
/// which server instance decodes a shot, or in what order.
///
/// `decode_syndrome` has no error channel, so transport failures and
/// typed server refusals panic with the underlying [`ClientError`] —
/// a remote decode harness treats a lost service as fatal, exactly
/// like a lost worker thread.
pub struct RemoteDecoder {
    conn: Connection,
    code: CodeHandle,
}

impl RemoteDecoder {
    /// Connects to `addr` (see [`Connection::connect`]) and binds to
    /// the code registered under `code_name`.
    pub fn connect(addr: &str, code_name: &str) -> Result<Self, ClientError> {
        let mut conn = Connection::connect(addr, "remote-decoder")?;
        let code = conn.lookup_code(code_name)?;
        Ok(RemoteDecoder { conn, code })
    }

    /// The remote code this decoder is bound to.
    pub fn code(&self) -> &CodeHandle {
        &self.code
    }
}

impl qldpc_decoder_api::SyndromeDecoder for RemoteDecoder {
    fn decode_syndrome(&mut self, syndrome: &BitVec) -> DecodeOutcome {
        let reply = self
            .conn
            .decode(self.code.id, syndrome)
            .unwrap_or_else(|e| panic!("remote decode of '{}' failed: {e}", self.code.name));
        match reply.result {
            Ok(outcome) => outcome,
            Err(failure) => panic!("remote decode of '{}' dropped: {failure}", self.code.name),
        }
    }

    fn label(&self) -> String {
        format!("remote:{}@{}", self.code.name, self.conn.node())
    }
}

/// A [`DecoderFactory`](qldpc_decoder_api::DecoderFactory) whose every
/// instance is a fresh connection to `addr` decoding the code
/// registered there as `code_name`. The check matrix and priors the
/// harness passes are ignored — the server's registration is
/// authoritative — so the caller must register the *same* code
/// server-side for the results to mean anything.
///
/// Panics (inside the factory) if the service is unreachable or the
/// code is not registered.
pub fn remote_decoder_factory(
    addr: impl Into<String>,
    code_name: impl Into<String>,
) -> qldpc_decoder_api::DecoderFactory {
    let (addr, code_name) = (addr.into(), code_name.into());
    Box::new(move |_h, _priors| {
        Box::new(
            RemoteDecoder::connect(&addr, &code_name)
                .unwrap_or_else(|e| panic!("connecting remote decoder '{code_name}': {e}")),
        )
    })
}
