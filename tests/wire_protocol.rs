//! Binary wire protocol (`BIN1`) integration tests: property-tested
//! round trips, and malformed-frame handling pinned to *typed*
//! [`WireError`]s — a truncated, oversized, or corrupt frame must never
//! panic, hang, or silently decode.

use std::io::Cursor;

use imc_serve::protocol::{InferReply, InferRequest, Request, Response};
use imc_serve::wire::{self, WireError};
use proptest::prelude::*;

fn frame(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_request(req, &mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A random inference request survives the BIN1 round trip with
    /// every `f32` bit intact.
    #[test]
    fn infer_requests_round_trip(
        id in any::<u64>(),
        input in proptest::collection::vec(0.0f32..=1.0, 1..64),
    ) {
        let req = Request::Infer(InferRequest { id, input, trace: None });
        let buf = frame(&req);
        let bin = wire::decode_request(&buf[4..]).expect("bin decode");
        prop_assert_eq!(&bin, &req);
        if let (Request::Infer(a), Request::Infer(b)) = (&bin, &req) {
            for (x, y) in a.input.iter().zip(&b.input) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// A random output reply survives the BIN1 round trip bit-exactly.
    #[test]
    fn output_responses_round_trip(
        id in any::<u64>(),
        class in 0usize..32,
        bank in 0usize..8,
        batch in 1usize..64,
        queue_us in any::<u32>(),
        service_us in any::<u32>(),
        logits in proptest::collection::vec(-8.0f32..8.0, 1..24),
    ) {
        let resp = Response::Output(InferReply {
            id,
            logits,
            class,
            bank,
            batch,
            queue_us: u64::from(queue_us),
            service_us: u64::from(service_us),
            trace_id: 0,
        });
        let mut buf = Vec::new();
        wire::encode_response(&resp, &mut buf);
        let bin = wire::decode_response(&buf[4..]).expect("bin decode");
        prop_assert_eq!(&bin, &resp);
        if let (Response::Output(a), Response::Output(b)) = (&bin, &resp) {
            for (x, y) in a.logits.iter().zip(&b.logits) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Every strict prefix of a valid frame body decodes to a typed
    /// error — never a panic, never a bogus success.
    #[test]
    fn truncated_bodies_are_typed_errors(
        id in any::<u64>(),
        input in proptest::collection::vec(0.0f32..=1.0, 1..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let buf = frame(&Request::Infer(InferRequest { id, input, trace: None }));
        let body = &buf[4..];
        // Any strict prefix, including the empty body.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((body.len() as f64) * cut_frac) as usize;
        let err = wire::decode_request(&body[..cut.min(body.len() - 1)])
            .expect_err("strict prefix must not decode");
        prop_assert!(
            matches!(err, WireError::Truncated | WireError::Malformed(_)),
            "unexpected error class: {err:?}"
        );
    }
}

#[test]
fn oversized_and_truncated_streams_are_io_errors_not_hangs() {
    // An oversized length prefix is rejected from the prefix alone.
    let huge = (imc_serve::protocol::MAX_FRAME_BYTES + 1).to_le_bytes();
    let mut arena = Vec::new();
    let err = wire::read_frame_into(&mut Cursor::new(&huge[..]), &mut arena)
        .expect_err("oversized prefix must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // EOF inside a claimed frame is a clean UnexpectedEof.
    let mut partial = frame(&Request::Ping);
    partial.truncate(partial.len() - 1);
    let err = wire::read_frame_into(&mut Cursor::new(&partial[..]), &mut arena)
        .expect_err("mid-frame EOF must error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

    // A clean EOF before any frame is the orderly end of stream.
    let got = wire::read_frame_into(&mut Cursor::new(&[][..]), &mut arena).expect("clean eof");
    assert!(!got);
}

#[test]
fn unknown_kind_and_trailing_garbage_are_typed_errors() {
    // Unknown request kind byte.
    let err = wire::decode_request(&[0x7F]).expect_err("unknown kind");
    assert!(matches!(err, WireError::UnknownKind(0x7F)));

    // A valid Ping followed by trailing garbage must not decode.
    let buf = frame(&Request::Ping);
    let mut body = buf[4..].to_vec();
    body.push(0xAA);
    let err = wire::decode_request(&body).expect_err("trailing garbage");
    assert!(matches!(err, WireError::Malformed(_)), "got {err:?}");
}
