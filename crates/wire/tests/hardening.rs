//! Decoder-hardening corpus: every malformed-input class maps to a
//! typed [`WireError`] — no panic path exists from untrusted bytes.
//!
//! The deterministic corpus pins the error *variant* per class; the
//! fuzz-style properties sweep truncations, bit flips, and raw byte
//! soup under `catch_unwind` to make the no-panic claim explicit
//! rather than implied by the test harness.

use proptest::prelude::*;
use qldpc_decoder_api::{DecodeOutcome, DecodeTelemetry};
use qldpc_gf2::BitVec;
use qldpc_wire::{
    read_frame, DecodeFailure, ErrorCode, Frame, WireError, DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A representative frame with every field class populated: strings,
/// bit vectors, scalars.
fn sample_frame() -> Frame {
    Frame::Submit {
        tag: 0xDEAD_BEEF,
        code: 7,
        deadline_micros: 1_500,
        syndrome: BitVec::from_indices(70, &[0, 3, 64, 69]),
    }
}

/// A successful decode reply carrying an `error_hat` of `bits` bits.
fn reply_frame(tag: u64, bits: usize) -> Frame {
    Frame::DecodeReply {
        tag,
        batch_size: 3,
        result: Ok(DecodeOutcome {
            error_hat: BitVec::from_indices(bits, &(0..bits).step_by(5).collect::<Vec<_>>()),
            solved: true,
            serial_iterations: 12,
            critical_iterations: 7,
            postprocessed: true,
            telemetry: DecodeTelemetry {
                bp_iterations: 5,
                sf_trials: 2,
                ..DecodeTelemetry::default()
            },
        }),
    }
}

fn decode_no_panic(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    catch_unwind(AssertUnwindSafe(|| Frame::decode(bytes)))
        .expect("frame decoding must never panic on untrusted bytes")
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    let bytes = sample_frame().encode();
    for cut in 0..bytes.len() {
        let err = decode_no_panic(&bytes[..cut]).expect_err("prefix must not decode");
        assert!(
            matches!(err, WireError::Truncated { .. }),
            "cut at {cut}: got {err:?}"
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = sample_frame().encode();
    bytes[0] ^= 0xFF;
    assert_eq!(
        decode_no_panic(&bytes),
        Err(WireError::BadMagic {
            got: [MAGIC[0] ^ 0xFF, MAGIC[1]]
        })
    );
}

#[test]
fn nonzero_reserved_byte_is_rejected() {
    let mut bytes = sample_frame().encode();
    bytes[3] = 0x80;
    assert_eq!(
        decode_no_panic(&bytes),
        Err(WireError::ReservedNonZero { got: 0x80 })
    );
}

#[test]
fn every_unassigned_frame_type_is_rejected() {
    // Types 0x01..=0x06 and 0x0E..=0x10 are assigned; everything else
    // in the u8 range — including the retired streaming-session bytes
    // 0x07..=0x0D — must be a typed rejection, not a default-case panic.
    let payloadless = [MAGIC[0], MAGIC[1], 0x00, 0x00, 0, 0, 0, 0];
    let assigned = |t: &u8| (0x01..=0x06).contains(t) || (0x0E..=0x10).contains(t);
    for t in (0u8..=255).filter(|t| !assigned(t)) {
        let mut bytes = payloadless;
        bytes[2] = t;
        assert_eq!(
            decode_no_panic(&bytes),
            Err(WireError::UnknownFrameType { got: t }),
            "type {t:#04x}"
        );
    }
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    // Header declares a u32::MAX payload; decode must refuse from the
    // header alone (the 8-byte buffer proves no payload was read).
    let mut bytes = vec![MAGIC[0], MAGIC[1], 0x01, 0x00];
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_no_panic(&bytes),
        Err(WireError::Oversized {
            len: u32::MAX,
            max: DEFAULT_MAX_PAYLOAD
        })
    );
}

#[test]
fn declared_payload_longer_than_fields_is_trailing_garbage() {
    let mut bytes = sample_frame().encode();
    // Extend the payload by two bytes and fix up the header length.
    bytes.extend_from_slice(&[0xAA, 0xBB]);
    let new_len = (bytes.len() - HEADER_LEN) as u32;
    bytes[4..8].copy_from_slice(&new_len.to_le_bytes());
    assert_eq!(
        decode_no_panic(&bytes),
        Err(WireError::TrailingGarbage { extra: 2 })
    );
}

#[test]
fn syndrome_with_set_padding_bits_is_rejected() {
    let mut bytes = sample_frame().encode();
    // The Submit payload ends with the syndrome words; setting the top
    // bit of the final word (bit 127 of a 70-bit vector) breaks the
    // padding invariant.
    let last = bytes.len() - 1;
    bytes[last] |= 0x80;
    assert_eq!(decode_no_panic(&bytes), Err(WireError::TrailingBits));
}

#[test]
fn non_boolean_bool_byte_is_rejected() {
    let mut bytes = reply_frame(9, 16).encode();
    // Payload layout: tag u64, batch_size u64, status u8, then the
    // outcome's error_hat (u64 length + one word) and its `solved` bool.
    bytes[HEADER_LEN + 8 + 8 + 1 + 16] = 2;
    assert_eq!(decode_no_panic(&bytes), Err(WireError::BadBool { got: 2 }));
}

#[test]
fn unknown_error_code_and_decode_status_are_rejected() {
    let mut bytes = Frame::Error {
        tag: 1,
        code: ErrorCode::Internal,
        detail: String::new(),
    }
    .encode();
    bytes[HEADER_LEN + 8] = 0xEE; // the code byte after the u64 tag
    assert_eq!(
        decode_no_panic(&bytes),
        Err(WireError::BadDiscriminant {
            what: "error code",
            got: 0xEE
        })
    );

    let mut bytes = Frame::DecodeReply {
        tag: 1,
        batch_size: 1,
        result: Err(DecodeFailure::WorkerLost),
    }
    .encode();
    bytes[HEADER_LEN + 16] = 9; // the status byte after tag + batch_size
    assert_eq!(
        decode_no_panic(&bytes),
        Err(WireError::BadDiscriminant {
            what: "decode status",
            got: 9
        })
    );
}

#[test]
fn bad_utf8_in_a_string_field_is_rejected() {
    let mut bytes = Frame::CodeLookup {
        name: "ab".to_string(),
    }
    .encode();
    bytes[HEADER_LEN + 4] = 0xFF; // first string byte
    assert_eq!(decode_no_panic(&bytes), Err(WireError::BadUtf8));
}

#[test]
fn string_length_exceeding_its_cap_is_rejected() {
    // A CodeLookup whose string prefix claims more than MAX_STRING_BYTES
    // (larger than any real payload, under the frame cap).
    let mut bytes = vec![MAGIC[0], MAGIC[1], 0x03, 0x00];
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(&(qldpc_wire::MAX_STRING_BYTES + 1).to_le_bytes());
    assert!(matches!(
        decode_no_panic(&bytes),
        Err(WireError::StringTooLong { .. })
    ));
}

#[test]
fn stream_reader_reports_clean_vs_dirty_eof_distinctly() {
    let bytes = sample_frame().encode();
    // Clean EOF at a frame boundary: Ok(None).
    let mut empty = std::io::Cursor::new(Vec::<u8>::new());
    assert!(matches!(
        read_frame(&mut empty, DEFAULT_MAX_PAYLOAD),
        Ok(None)
    ));
    // EOF mid-header and mid-payload: typed truncation, not a hang or
    // an Ok(None) that would silently drop a partial frame.
    for cut in [3, HEADER_LEN + 2] {
        let mut partial = std::io::Cursor::new(bytes[..cut].to_vec());
        assert!(
            matches!(
                read_frame(&mut partial, DEFAULT_MAX_PAYLOAD),
                Err(qldpc_wire::RecvError::Malformed(
                    WireError::Truncated { .. }
                ))
            ),
            "cut at {cut}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        let _ = decode_no_panic(&bytes);
    }

    #[test]
    fn bit_flips_in_valid_frames_never_panic(
        seed in 0u64..u64::MAX,
        flip in 0usize..10_000,
    ) {
        // Mutate a real frame rather than raw soup so the fuzz spends
        // its cases past the header checks, inside field decoding.
        let frame = Frame::Submit {
            tag: seed,
            code: (seed >> 32) as u32,
            deadline_micros: seed.rotate_left(13),
            syndrome: BitVec::from_indices(130, &[(seed % 130) as usize]),
        };
        let mut bytes = frame.encode();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Must decode to something or fail typed — catch_unwind inside
        // decode_no_panic asserts it cannot panic either way.
        let _ = decode_no_panic(&bytes);
    }

    #[test]
    fn truncated_random_frames_never_decode(
        seed in 0u64..u64::MAX,
        cut_back in 1usize..12,
    ) {
        let bytes = reply_frame(seed, (seed % 131) as usize).encode();
        let keep = bytes.len().saturating_sub(cut_back);
        prop_assert!(decode_no_panic(&bytes[..keep]).is_err());
    }
}
