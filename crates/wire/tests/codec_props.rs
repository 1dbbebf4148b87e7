//! Property suite: `decode ∘ encode ≡ id` for every frame type, under
//! randomized payload contents — including empty strings, zero-length
//! bit vectors, and word-boundary bit lengths.

use proptest::prelude::*;
use qldpc_decoder_api::{DecodeOutcome, DecodeTelemetry};
use qldpc_gf2::BitVec;
use qldpc_wire::{DecodeFailure, ErrorCode, Frame, HEADER_LEN};

fn arb_bits() -> impl Strategy<Value = BitVec> {
    // Lengths straddling the u64-word boundary are the interesting ones
    // for the packed encoding; 0..=130 covers 0, 64, 128 ± slack.
    (0usize..131).prop_flat_map(|len| {
        proptest::collection::vec(proptest::bool::ANY, len)
            .prop_map(|bools| BitVec::from_bools(&bools))
    })
}

fn arb_string() -> impl Strategy<Value = String> {
    // Mixed ASCII and multi-byte UTF-8, including the empty string.
    proptest::collection::vec(0usize..5, 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .map(|p| ["a", "Z", "0", "µ", "→"][p])
            .collect()
    })
}

fn arb_outcome() -> impl Strategy<Value = DecodeOutcome> {
    (
        (arb_bits(), proptest::bool::ANY, 0usize..5000, 0usize..5000),
        (
            proptest::bool::ANY,
            0u64..1000,
            proptest::bool::ANY,
            0u64..1000,
        ),
        (0u64..1000, 0u64..1000, 0u64..1000),
    )
        .prop_map(
            |(
                (error_hat, solved, serial, critical),
                (postprocessed, bp_iterations, bp_converged, oscillating_bits),
                (osd_invocations, osd_candidates, sf_trials),
            )| DecodeOutcome {
                error_hat,
                solved,
                serial_iterations: serial,
                critical_iterations: critical,
                postprocessed,
                telemetry: DecodeTelemetry {
                    bp_iterations,
                    bp_converged,
                    oscillating_bits,
                    osd_invocations,
                    osd_candidates,
                    sf_trials,
                },
            },
        )
}

const ALL_ERROR_CODES: [ErrorCode; 8] = [
    ErrorCode::UnsupportedVersion,
    ErrorCode::UnknownCode,
    ErrorCode::Overloaded,
    ErrorCode::RateLimited,
    ErrorCode::Shutdown,
    ErrorCode::SyndromeLength,
    ErrorCode::BadFrame,
    ErrorCode::Internal,
];

/// Draws one frame of any of the 9 types, exercising every payload
/// field with randomized contents.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        (0usize..9, 0u64..u64::MAX, 0u32..u32::MAX, 0u64..u64::MAX),
        (arb_string(), arb_bits(), 0usize..8),
        (arb_outcome(), 0u16..u16::MAX),
    )
        .prop_map(
            |((sel, tag, code_id, big), (text, bits, discr), (outcome, version))| match sel {
                0 => Frame::Hello {
                    version,
                    client: text,
                },
                1 => Frame::HelloAck {
                    version,
                    node: text,
                },
                2 => Frame::CodeLookup { name: text },
                3 => Frame::CodeInfo {
                    code: code_id,
                    syndrome_bits: big,
                    name: text,
                },
                4 => Frame::Submit {
                    tag,
                    code: code_id,
                    deadline_micros: big,
                    syndrome: bits,
                },
                5 => Frame::DecodeReply {
                    tag,
                    batch_size: big,
                    result: match discr % 3 {
                        0 => Ok(outcome),
                        1 => Err(DecodeFailure::DeadlineExceeded),
                        _ => Err(DecodeFailure::WorkerLost),
                    },
                },
                6 => Frame::MetricsRequest,
                7 => Frame::MetricsReply { text },
                _ => Frame::Error {
                    tag,
                    code: ALL_ERROR_CODES[discr % ALL_ERROR_CODES.len()],
                    detail: text,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_decode_round_trips(frame in arb_frame()) {
        let bytes = frame.encode();
        let (decoded, consumed) = Frame::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn decode_consumes_exactly_one_frame_from_a_back_to_back_buffer(
        a in arb_frame(),
        b in arb_frame(),
    ) {
        let mut buf = a.encode();
        let first_len = buf.len();
        buf.extend_from_slice(&b.encode());
        let (first, consumed) = Frame::decode(&buf).unwrap();
        prop_assert_eq!(&first, &a);
        prop_assert_eq!(consumed, first_len);
        let (second, consumed2) = Frame::decode(&buf[consumed..]).unwrap();
        prop_assert_eq!(&second, &b);
        prop_assert_eq!(consumed + consumed2, buf.len());
    }

    #[test]
    fn stream_io_round_trips_sequences(frames in proptest::collection::vec(arb_frame(), 0..8)) {
        let mut buf = Vec::new();
        for f in &frames {
            qldpc_wire::write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut back = Vec::new();
        while let Some(f) = qldpc_wire::read_frame(&mut cursor, qldpc_wire::DEFAULT_MAX_PAYLOAD)
            .expect("own encoding must read back")
        {
            back.push(f);
        }
        prop_assert_eq!(back, frames);
    }

    #[test]
    fn header_declares_the_exact_payload_length(frame in arb_frame()) {
        let bytes = frame.encode();
        let declared = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        prop_assert_eq!(HEADER_LEN + declared, bytes.len());
    }
}
