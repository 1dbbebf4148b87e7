//! `qldpc-wire` — the compact, versioned binary protocol spoken between
//! the decode service front-end and its clients (ROADMAP item 5).
//!
//! # Frame layout
//!
//! ```text
//! +------+------+------+----------+-------------+----------------+
//! | 0xB5 | 0x51 | type | reserved | len: u32 LE | payload (len B)|
//! +------+------+------+----------+-------------+----------------+
//! ```
//!
//! All integers are little-endian. Variable-length fields carry explicit
//! count prefixes bounds-checked against the bytes actually present
//! before any allocation; syndromes travel as `u64` words in the same
//! packed layout `qldpc_gf2::BitVec` uses internally, so encoding is a
//! word copy and decoding re-validates the zero-padding invariant.
//!
//! # Hardening contract
//!
//! Decoding untrusted bytes never panics and never allocates more than
//! the received byte count: every malformed input maps to a typed
//! [`WireError`]. The property/fuzz suite in `tests/` pins both
//! `decode(encode(f)) == f` for every frame type and typed rejection of
//! a corpus of truncated, oversized, version-skewed, and bit-flipped
//! frames.
//!
//! # Versioning
//!
//! Connections open with [`Frame::Hello`] carrying
//! [`PROTOCOL_VERSION`]; the server answers [`Frame::HelloAck`] (same
//! version, node identity) or a typed [`Frame::Error`] with
//! [`ErrorCode::UnsupportedVersion`]. The version covers payload
//! layouts; the header shape and magic are version-invariant so a
//! mismatch is still diagnosable.

#![forbid(unsafe_code)]

mod codec;
mod frame;

pub use codec::{Reader, Writer, MAX_STRING_BYTES};
pub use frame::{
    read_frame, write_frame, DecodeFailure, ErrorCode, Frame, RecvError, WireError,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, PROTOCOL_VERSION,
};
