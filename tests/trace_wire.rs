//! Trace-context propagation over the wire, property tested: a
//! [`TraceContext`], or its absence, must round-trip bit-exactly
//! through the fixed trailing trace fields of `BIN1` frames, and the
//! one field pair no encoder writes (a parent span without a trace id)
//! must be a typed error, so every frame a decoder accepts re-encodes
//! to its own bytes.

use imc_obs::TraceContext;
use imc_serve::protocol::{InferReply, InferRequest, PartialRequest, Request, Response};
use imc_serve::wire::{self, WireError};
use proptest::prelude::*;

fn ctx(traced: bool, trace_id: u64, parent_span: u64) -> Option<TraceContext> {
    traced.then_some(TraceContext {
        // 0 means "no trace" on the wire; keep ids honest.
        trace_id: trace_id.max(1),
        parent_span,
    })
}

fn frame(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_request(req, &mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The context round-trips exactly over BIN1 — id and parent span,
    /// or its absence — on both request kinds that carry it.
    #[test]
    fn trace_context_round_trips_over_bin1(
        id in any::<u64>(),
        traced in any::<bool>(),
        trace_id in any::<u64>(),
        parent_span in any::<u64>(),
        input in proptest::collection::vec(0.0f32..=1.0, 1..32),
    ) {
        let infer = Request::Infer(InferRequest {
            id,
            input,
            trace: ctx(traced, trace_id, parent_span),
        });
        let buf = frame(&infer);
        prop_assert_eq!(&wire::decode_request(&buf[4..]).expect("decode"), &infer);

        let partial = Request::Partial(PartialRequest {
            id,
            layer: 0,
            chunk_lo: 0,
            chunk_hi: 1,
            codes: vec![1.0, 2.0, 3.0],
            trace: ctx(traced, trace_id, parent_span),
        });
        let buf = frame(&partial);
        prop_assert_eq!(&wire::decode_request(&buf[4..]).expect("decode"), &partial);
    }
}

/// A parent span under a zero trace id is malformed on both request
/// kinds: read as untraced, it would re-encode without its parent.
#[test]
fn parent_span_without_trace_id_is_malformed() {
    let untraced = [
        Request::Infer(InferRequest {
            id: 7,
            input: vec![0.1],
            trace: None,
        }),
        Request::Partial(PartialRequest {
            id: 7,
            layer: 0,
            chunk_lo: 0,
            chunk_hi: 1,
            codes: vec![1.0],
            trace: None,
        }),
    ];
    for req in &untraced {
        let mut buf = frame(req);
        // The body ends with `trace_id: u64` (0 here), `parent_span: u64`.
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&9u64.to_le_bytes());
        let got = wire::decode_request(&buf[4..]);
        assert!(
            matches!(got, Err(WireError::Malformed(_))),
            "{req:?}: {got:?}"
        );
    }
}

/// Output responses carry the trace id back as the body's last 8
/// bytes; 0 means untraced.
#[test]
fn reply_trace_id_round_trips() {
    let reply = |trace_id| {
        Response::Output(InferReply {
            id: 3,
            logits: vec![1.0, 2.0],
            class: 1,
            bank: 1,
            batch: 4,
            queue_us: 10,
            service_us: 20,
            trace_id,
        })
    };
    let mut traced = Vec::new();
    wire::encode_response(&reply(0xABCD), &mut traced);
    assert_eq!(
        wire::decode_response(&traced[4..]).expect("decode"),
        reply(0xABCD)
    );
    assert_eq!(traced[traced.len() - 8..], 0xABCDu64.to_le_bytes());

    let mut plain = Vec::new();
    wire::encode_response(&reply(0), &mut plain);
    assert_eq!(plain.len(), traced.len());
    assert_eq!(
        wire::decode_response(&plain[4..]).expect("decode"),
        reply(0)
    );
}
