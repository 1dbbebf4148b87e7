//! Frame types, their binary encoding, and the typed decode errors.
//!
//! Every frame is `MAGIC(2) | type(1) | reserved(1, zero) | len(4, LE) |
//! payload(len)`. The payload layout is fixed per type (see each
//! variant's docs); decoding consumes the payload exactly — truncated
//! fields, oversized length prefixes, set padding bits, non-UTF-8
//! strings, unknown enums, and trailing bytes each map to a distinct
//! [`WireError`] and never panic.

use crate::codec::{Reader, Writer};
use qldpc_decoder_api::{DecodeOutcome, DecodeTelemetry};
use qldpc_gf2::BitVec;
use std::fmt;
use std::io::{self, Read, Write};

/// Two magic bytes opening every frame — cheap resynchronization check
/// and a guard against pointing the client at a non-qldpc port.
pub const MAGIC: [u8; 2] = [0xB5, 0x51];

/// Protocol revision negotiated by the `Hello`/`HelloAck` handshake.
/// Bump on any frame-layout change; the server refuses mismatches with
/// [`ErrorCode::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u16 = 2;

/// Bytes before the payload: magic, type, reserved, length.
pub const HEADER_LEN: usize = 8;

/// Default cap on one frame's payload. Large enough for a metrics page
/// or a full-block syndrome, small enough that a hostile length prefix
/// cannot balloon a connection buffer.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 24;

/// Why a byte sequence failed to decode as a frame. Every variant is a
/// *typed rejection* — the decoder has no panic path on untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a declared count requires.
    Truncated {
        /// Bytes the field needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic {
        /// The two bytes found instead.
        got: [u8; 2],
    },
    /// The reserved header byte was nonzero (reserved for future flags;
    /// current peers must send zero).
    ReservedNonZero {
        /// The byte found.
        got: u8,
    },
    /// The header declares a payload larger than the negotiated cap.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The cap in force.
        max: u32,
    },
    /// No frame type with this tag exists in this protocol version.
    UnknownFrameType {
        /// The type byte found.
        got: u8,
    },
    /// The payload continued past the last field of its type.
    TrailingGarbage {
        /// Unconsumed bytes.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A string field exceeds [`crate::codec::MAX_STRING_BYTES`].
    StringTooLong {
        /// Declared byte length.
        len: u32,
        /// The cap.
        max: u32,
    },
    /// A bit-vector's final word has bits set beyond its declared
    /// length.
    TrailingBits,
    /// A boolean field held something other than 0 or 1.
    BadBool {
        /// The byte found.
        got: u8,
    },
    /// An enum discriminant (error code, decode status) is out of range.
    BadDiscriminant {
        /// Which enum rejected it.
        what: &'static str,
        /// The byte found.
        got: u8,
    },
    /// A 64-bit count does not fit the host's `usize`.
    ValueOutOfRange {
        /// Which field rejected it.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            WireError::BadMagic { got } => {
                write!(f, "bad magic bytes {got:02x?} (expected {MAGIC:02x?})")
            }
            WireError::ReservedNonZero { got } => {
                write!(f, "reserved header byte must be zero, got {got:#04x}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds the cap {max}")
            }
            WireError::UnknownFrameType { got } => write!(f, "unknown frame type {got:#04x}"),
            WireError::TrailingGarbage { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::StringTooLong { len, max } => {
                write!(f, "string of {len} bytes exceeds the cap {max}")
            }
            WireError::TrailingBits => {
                write!(f, "bit vector has set bits beyond its declared length")
            }
            WireError::BadBool { got } => write!(f, "boolean field holds {got} (want 0 or 1)"),
            WireError::BadDiscriminant { what, got } => {
                write!(f, "invalid {what} discriminant {got}")
            }
            WireError::ValueOutOfRange { what } => {
                write!(f, "{what} does not fit this host's usize")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Typed error codes the server sends in [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The client's protocol version is not served here.
    UnsupportedVersion,
    /// No registered code matches the id or name.
    UnknownCode,
    /// The code's queue is full (`SubmitError::Overloaded`); retry
    /// later.
    Overloaded,
    /// The per-connection in-flight cap was hit — the *client's* rate
    /// limit, distinct from service-wide [`ErrorCode::Overloaded`].
    RateLimited,
    /// The service (or this front-end) is shutting down.
    Shutdown,
    /// Submitted syndrome length does not match the registered code.
    SyndromeLength,
    /// The peer sent a frame that is malformed or invalid in the current
    /// protocol state (e.g. a second `Hello`).
    BadFrame,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    const ALL: [ErrorCode; 8] = [
        ErrorCode::UnsupportedVersion,
        ErrorCode::UnknownCode,
        ErrorCode::Overloaded,
        ErrorCode::RateLimited,
        ErrorCode::Shutdown,
        ErrorCode::SyndromeLength,
        ErrorCode::BadFrame,
        ErrorCode::Internal,
    ];

    // 6, 9 and 10 (the streaming codes of protocol version 1) stay
    // unassigned: a surviving code never changes its byte.
    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::UnsupportedVersion => 1,
            ErrorCode::UnknownCode => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::RateLimited => 4,
            ErrorCode::Shutdown => 5,
            ErrorCode::SyndromeLength => 7,
            ErrorCode::BadFrame => 8,
            ErrorCode::Internal => 11,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Self::ALL
            .into_iter()
            .find(|c| c.as_u8() == v)
            .ok_or(WireError::BadDiscriminant {
                what: "error code",
                got: v,
            })
    }

    /// Canonical lowercase name (stable; used in logs and tests).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::UnknownCode => "unknown-code",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::RateLimited => "rate-limited",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::SyndromeLength => "syndrome-length",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an accepted request produced no outcome — the wire mirror of the
/// server's `DecodeError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeFailure {
    /// The dispatch deadline passed before the scheduler pulled the
    /// request.
    DeadlineExceeded,
    /// The owning worker died before decoding it.
    WorkerLost,
}

impl DecodeFailure {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DecodeFailure::DeadlineExceeded => "deadline-exceeded",
            DecodeFailure::WorkerLost => "worker-lost",
        }
    }
}

impl fmt::Display for DecodeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One protocol message. See each variant for its payload layout; field
/// order in the docs is wire order.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server, first frame on a connection:
    /// `version:u16 | client:str`.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Informational client label; the server does not act on it.
        client: String,
    },
    /// Server → client handshake acceptance:
    /// `version:u16 | node:str`.
    HelloAck {
        /// The version the server will speak (equals the client's).
        version: u16,
        /// The serving node's configured identity.
        node: String,
    },
    /// Client → server: resolve a registered code by name:
    /// `name:str`.
    CodeLookup {
        /// Registration name (e.g. `"gross"` or a campaign cell id).
        name: String,
    },
    /// Server → client lookup result:
    /// `code:u32 | syndrome_bits:u64 | name:str`.
    CodeInfo {
        /// Numeric id to use in [`Frame::Submit`].
        code: u32,
        /// Syndrome length the code expects.
        syndrome_bits: u64,
        /// The name echoed back.
        name: String,
    },
    /// Client → server single-shot decode request:
    /// `tag:u64 | code:u32 | deadline_micros:u64 | syndrome:bits`.
    Submit {
        /// Client-chosen correlation tag, echoed in the reply.
        tag: u64,
        /// Code id from [`Frame::CodeInfo`].
        code: u32,
        /// Dispatch deadline in microseconds from receipt; `0` = none.
        deadline_micros: u64,
        /// The syndrome, bit-packed into `u64` words.
        syndrome: BitVec,
    },
    /// Server → client decode answer:
    /// `tag:u64 | batch_size:u64 | status:u8 | [outcome]`.
    DecodeReply {
        /// The submission's tag.
        tag: u64,
        /// Live requests in the dispatched batch (0 for failures that
        /// never reached one).
        batch_size: u64,
        /// The decode outcome, or why the accepted request was dropped.
        result: Result<DecodeOutcome, DecodeFailure>,
    },
    /// Client → server: request the metrics exposition. Empty payload.
    MetricsRequest,
    /// Server → client: the node-labeled Prometheus-style text page:
    /// `text:str`.
    MetricsReply {
        /// Output of `render_exposition_for(node)`.
        text: String,
    },
    /// Server → client typed refusal:
    /// `tag:u64 | code:u8 | detail:str`.
    Error {
        /// The offending request's tag (`0` when not request-scoped —
        /// e.g. handshake failures).
        tag: u64,
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable context.
        detail: String,
    },
}

// Frame type bytes, explicit so the hardening tests can sweep the full
// u8 range for unknown-type rejection. 0x07..=0x0D (the streaming-session
// frames of protocol version 1) stay unassigned: a surviving frame never
// changes its byte.
const FT_HELLO: u8 = 0x01;
const FT_HELLO_ACK: u8 = 0x02;
const FT_CODE_LOOKUP: u8 = 0x03;
const FT_CODE_INFO: u8 = 0x04;
const FT_SUBMIT: u8 = 0x05;
const FT_DECODE_REPLY: u8 = 0x06;
const FT_METRICS_REQUEST: u8 = 0x0E;
const FT_METRICS_REPLY: u8 = 0x0F;
const FT_ERROR: u8 = 0x10;

// Decode-reply status byte.
const STATUS_OK: u8 = 0;
const STATUS_DEADLINE: u8 = 1;
const STATUS_WORKER_LOST: u8 = 2;

fn usize_of(v: u64, what: &'static str) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::ValueOutOfRange { what })
}

impl Frame {
    /// The frame's type byte on the wire.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => FT_HELLO,
            Frame::HelloAck { .. } => FT_HELLO_ACK,
            Frame::CodeLookup { .. } => FT_CODE_LOOKUP,
            Frame::CodeInfo { .. } => FT_CODE_INFO,
            Frame::Submit { .. } => FT_SUBMIT,
            Frame::DecodeReply { .. } => FT_DECODE_REPLY,
            Frame::MetricsRequest => FT_METRICS_REQUEST,
            Frame::MetricsReply { .. } => FT_METRICS_REPLY,
            Frame::Error { .. } => FT_ERROR,
        }
    }

    /// Stable display name of the frame type (logs, tests, client
    /// `UnexpectedFrame` errors).
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::HelloAck { .. } => "HelloAck",
            Frame::CodeLookup { .. } => "CodeLookup",
            Frame::CodeInfo { .. } => "CodeInfo",
            Frame::Submit { .. } => "Submit",
            Frame::DecodeReply { .. } => "DecodeReply",
            Frame::MetricsRequest => "MetricsRequest",
            Frame::MetricsReply { .. } => "MetricsReply",
            Frame::Error { .. } => "Error",
        }
    }

    fn encode_payload(&self, w: &mut Writer) {
        match self {
            Frame::Hello { version, client } => {
                w.u16(*version);
                w.string(client);
            }
            Frame::HelloAck { version, node } => {
                w.u16(*version);
                w.string(node);
            }
            Frame::CodeLookup { name } => w.string(name),
            Frame::CodeInfo {
                code,
                syndrome_bits,
                name,
            } => {
                w.u32(*code);
                w.u64(*syndrome_bits);
                w.string(name);
            }
            Frame::Submit {
                tag,
                code,
                deadline_micros,
                syndrome,
            } => {
                w.u64(*tag);
                w.u32(*code);
                w.u64(*deadline_micros);
                w.bits(syndrome);
            }
            Frame::DecodeReply {
                tag,
                batch_size,
                result,
            } => {
                w.u64(*tag);
                w.u64(*batch_size);
                match result {
                    Ok(outcome) => {
                        w.u8(STATUS_OK);
                        encode_outcome(w, outcome);
                    }
                    Err(DecodeFailure::DeadlineExceeded) => w.u8(STATUS_DEADLINE),
                    Err(DecodeFailure::WorkerLost) => w.u8(STATUS_WORKER_LOST),
                }
            }
            Frame::MetricsRequest => {}
            Frame::MetricsReply { text } => w.string(text),
            Frame::Error { tag, code, detail } => {
                w.u64(*tag);
                w.u8(code.as_u8());
                w.string(detail);
            }
        }
    }

    fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(payload);
        let frame = match frame_type {
            FT_HELLO => Frame::Hello {
                version: r.u16()?,
                client: r.string()?,
            },
            FT_HELLO_ACK => Frame::HelloAck {
                version: r.u16()?,
                node: r.string()?,
            },
            FT_CODE_LOOKUP => Frame::CodeLookup { name: r.string()? },
            FT_CODE_INFO => Frame::CodeInfo {
                code: r.u32()?,
                syndrome_bits: r.u64()?,
                name: r.string()?,
            },
            FT_SUBMIT => Frame::Submit {
                tag: r.u64()?,
                code: r.u32()?,
                deadline_micros: r.u64()?,
                syndrome: r.bits()?,
            },
            FT_DECODE_REPLY => {
                let tag = r.u64()?;
                let batch_size = r.u64()?;
                let result = match r.u8()? {
                    STATUS_OK => Ok(decode_outcome(&mut r)?),
                    STATUS_DEADLINE => Err(DecodeFailure::DeadlineExceeded),
                    STATUS_WORKER_LOST => Err(DecodeFailure::WorkerLost),
                    got => {
                        return Err(WireError::BadDiscriminant {
                            what: "decode status",
                            got,
                        })
                    }
                };
                Frame::DecodeReply {
                    tag,
                    batch_size,
                    result,
                }
            }
            FT_METRICS_REQUEST => Frame::MetricsRequest,
            FT_METRICS_REPLY => Frame::MetricsReply { text: r.string()? },
            FT_ERROR => Frame::Error {
                tag: r.u64()?,
                code: ErrorCode::from_u8(r.u8()?)?,
                detail: r.string()?,
            },
            got => return Err(WireError::UnknownFrameType { got }),
        };
        r.finish()?;
        Ok(frame)
    }

    /// Encodes the full frame (header + payload) into a fresh buffer.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u32::MAX` bytes — unreachable for
    /// frames built from in-range service data.
    pub fn encode(&self) -> Vec<u8> {
        let mut pw = Writer::new();
        self.encode_payload(&mut pw);
        let payload = pw.into_bytes();
        let len = u32::try_from(payload.len()).expect("payload exceeds u32::MAX");
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(self.type_byte());
        out.push(0); // reserved
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes one frame from the start of `buf` under the default
    /// payload cap, returning the frame and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        Self::decode_with_limit(buf, DEFAULT_MAX_PAYLOAD)
    }

    /// Decodes one frame from the start of `buf` with an explicit
    /// payload cap. `buf` may extend past the frame; the consumed byte
    /// count is returned so callers can advance. (A *frame* whose
    /// payload out-runs its declared length is still rejected with
    /// [`WireError::TrailingGarbage`] — the slack here is for buffers
    /// holding several frames back to back.)
    pub fn decode_with_limit(buf: &[u8], max_payload: u32) -> Result<(Frame, usize), WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                need: HEADER_LEN,
                have: buf.len(),
            });
        }
        let (magic, rest) = buf.split_at(2);
        if magic != MAGIC {
            return Err(WireError::BadMagic {
                got: [magic[0], magic[1]],
            });
        }
        let frame_type = rest[0];
        if rest[1] != 0 {
            return Err(WireError::ReservedNonZero { got: rest[1] });
        }
        let len = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if len > max_payload {
            return Err(WireError::Oversized {
                len,
                max: max_payload,
            });
        }
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return Err(WireError::Truncated {
                need: total,
                have: buf.len(),
            });
        }
        let frame = Self::decode_payload(frame_type, &buf[HEADER_LEN..total])?;
        Ok((frame, total))
    }
}

fn encode_outcome(w: &mut Writer, o: &DecodeOutcome) {
    w.bits(&o.error_hat);
    w.bool(o.solved);
    w.u64(o.serial_iterations as u64);
    w.u64(o.critical_iterations as u64);
    w.bool(o.postprocessed);
    let t = &o.telemetry;
    w.u64(t.bp_iterations);
    w.bool(t.bp_converged);
    w.u64(t.oscillating_bits);
    w.u64(t.osd_invocations);
    w.u64(t.osd_candidates);
    w.u64(t.sf_trials);
}

fn decode_outcome(r: &mut Reader<'_>) -> Result<DecodeOutcome, WireError> {
    Ok(DecodeOutcome {
        error_hat: r.bits()?,
        solved: r.bool()?,
        serial_iterations: usize_of(r.u64()?, "serial_iterations")?,
        critical_iterations: usize_of(r.u64()?, "critical_iterations")?,
        postprocessed: r.bool()?,
        telemetry: DecodeTelemetry {
            bp_iterations: r.u64()?,
            bp_converged: r.bool()?,
            oscillating_bits: r.u64()?,
            osd_invocations: r.u64()?,
            osd_candidates: r.u64()?,
            sf_trials: r.u64()?,
        },
    })
}

/// How receiving a frame from a live stream can fail.
#[derive(Debug)]
pub enum RecvError {
    /// The transport failed (including EOF in the *middle* of a frame).
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Malformed(WireError),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

impl From<WireError> for RecvError {
    fn from(e: WireError) -> Self {
        RecvError::Malformed(e)
    }
}

/// Writes one frame to a stream (no implicit flush — wrap the stream in
/// a `BufWriter` and flush at protocol turn boundaries).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())
}

/// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; EOF inside a frame is
/// [`WireError::Truncated`]/[`RecvError::Io`] depending on where the
/// stream broke.
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Option<Frame>, RecvError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(WireError::Truncated {
                need: HEADER_LEN,
                have: filled,
            }
            .into());
        }
        filled += n;
    }
    if header[..2] != MAGIC {
        return Err(WireError::BadMagic {
            got: [header[0], header[1]],
        }
        .into());
    }
    if header[3] != 0 {
        return Err(WireError::ReservedNonZero { got: header[3] }.into());
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > max_payload {
        return Err(WireError::Oversized {
            len,
            max: max_payload,
        }
        .into());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            RecvError::Malformed(WireError::Truncated {
                need: len as usize,
                have: 0,
            })
        } else {
            RecvError::Io(e)
        }
    })?;
    Frame::decode_payload(header[2], &payload)
        .map(Some)
        .map_err(Into::into)
}
