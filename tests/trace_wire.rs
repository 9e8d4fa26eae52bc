//! Trace-context propagation over the wire, property tested: a
//! [`TraceContext`] must round-trip bit-exactly through the `BIN1`
//! trailing block, absent contexts must stay absent (the v1 frame shape
//! is unchanged byte for byte), and a context-bearing frame must never
//! turn into a `WireError` — the block is a tolerated suffix, not a
//! schema break.

use imc_obs::TraceContext;
use imc_serve::protocol::{InferRequest, PartialRequest, Request};
use imc_serve::wire::{self, CTX_BLOCK_LEN, CTX_MARKER};
use proptest::prelude::*;

fn ctx(trace_id: u64, parent_span: u64, sampled: bool) -> Option<TraceContext> {
    Some(TraceContext {
        // 0 means "no trace" on the wire; keep ids honest.
        trace_id: trace_id.max(1),
        parent_span,
        sampled,
    })
}

fn frame(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_request(req, &mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The context block round-trips exactly over BIN1 — id, parent
    /// span, and sampling flag — on both request kinds that carry it.
    #[test]
    fn trace_context_round_trips_over_bin1(
        id in any::<u64>(),
        trace_id in any::<u64>(),
        parent_span in any::<u64>(),
        sampled in any::<bool>(),
        input in proptest::collection::vec(0.0f32..=1.0, 1..32),
    ) {
        let infer = Request::Infer(InferRequest {
            id,
            input: input.clone(),
            trace: ctx(trace_id, parent_span, sampled),
        });
        let buf = frame(&infer);
        prop_assert_eq!(&wire::decode_request(&buf[4..]).expect("decode"), &infer);

        let partial = Request::Partial(PartialRequest {
            id,
            layer: 0,
            chunk_lo: 0,
            chunk_hi: 1,
            codes: vec![1.0, 2.0, 3.0],
            trace: ctx(trace_id, parent_span, sampled),
        });
        let buf = frame(&partial);
        prop_assert_eq!(&wire::decode_request(&buf[4..]).expect("decode"), &partial);
    }

    /// An absent context adds no bytes: the traced encoding is exactly
    /// the untraced frame plus the 18-byte block, so a version-1 frame
    /// is byte-identical to what a v1 encoder produced and decodes to
    /// `trace: None`.
    #[test]
    fn absent_context_is_byte_identical_to_v1_frames(
        id in any::<u64>(),
        trace_id in any::<u64>(),
        input in proptest::collection::vec(0.0f32..=1.0, 1..32),
    ) {
        let untraced = frame(&Request::Infer(InferRequest {
            id,
            input: input.clone(),
            trace: None,
        }));
        let traced = frame(&Request::Infer(InferRequest {
            id,
            input: input.clone(),
            trace: ctx(trace_id, 0, true),
        }));
        prop_assert_eq!(traced.len(), untraced.len() + CTX_BLOCK_LEN);
        prop_assert_eq!(&traced[4..4 + untraced.len() - 4], &untraced[4..]);
        prop_assert_eq!(traced[4 + untraced.len() - 4], CTX_MARKER);

        let back = wire::decode_request(&untraced[4..]).expect("decode");
        if let Request::Infer(r) = back {
            prop_assert_eq!(r.trace, None);
        } else {
            prop_assert!(false, "wrong kind");
        }
    }

    /// Trailing bytes that are *not* a context block (wrong marker, or
    /// marker with the wrong length) still fail with the typed
    /// trailing-bytes error — the tolerance is exactly 18 bytes wide.
    #[test]
    fn non_context_trailers_still_rejected(
        id in any::<u64>(),
        junk_len in 1usize..CTX_BLOCK_LEN,
    ) {
        let mut buf = frame(&Request::Infer(InferRequest {
            id,
            input: vec![0.5],
            trace: None,
        }));
        // Marker byte but too short to be a context block.
        buf.push(CTX_MARKER);
        buf.extend(std::iter::repeat_n(0u8, junk_len - 1));
        prop_assert!(wire::decode_request(&buf[4..]).is_err());

        // Right length, wrong marker.
        let mut buf = frame(&Request::Infer(InferRequest {
            id,
            input: vec![0.5],
            trace: None,
        }));
        buf.extend(std::iter::repeat_n(0x5Au8, CTX_BLOCK_LEN));
        prop_assert!(wire::decode_request(&buf[4..]).is_err());
    }
}

/// A sampled=false context must keep its flag through the round trip
/// (the flag byte is not "truthy padding").
#[test]
fn unsampled_flag_survives() {
    let req = Request::Infer(InferRequest {
        id: 7,
        input: vec![0.1],
        trace: ctx(42, 9, false),
    });
    let buf = frame(&req);
    match wire::decode_request(&buf[4..]).expect("decode") {
        Request::Infer(r) => {
            let t = r.trace.expect("context present");
            assert!(!t.sampled);
            assert_eq!(t.trace_id, 42);
            assert_eq!(t.parent_span, 9);
        }
        other => panic!("wrong kind: {other:?}"),
    }
}

/// Output responses carry the trace id back; 0 means untraced and adds
/// no block.
#[test]
fn reply_trace_id_round_trips() {
    use imc_serve::protocol::{InferReply, Response};
    let traced = Response::Output(InferReply {
        id: 3,
        logits: vec![1.0, 2.0],
        class: 1,
        bank: 1,
        batch: 4,
        queue_us: 10,
        service_us: 20,
        trace_id: 0xABCD,
    });
    let mut buf = Vec::new();
    wire::encode_response(&traced, &mut buf);
    assert_eq!(wire::decode_response(&buf[4..]).expect("decode"), traced);

    let untraced = Response::Output(InferReply {
        id: 3,
        logits: vec![1.0, 2.0],
        class: 1,
        bank: 1,
        batch: 4,
        queue_us: 10,
        service_us: 20,
        trace_id: 0,
    });
    let mut plain = Vec::new();
    wire::encode_response(&untraced, &mut plain);
    assert_eq!(buf.len(), plain.len() + wire::CTX_BLOCK_LEN);
    assert_eq!(
        wire::decode_response(&plain[4..]).expect("decode"),
        untraced
    );
}
