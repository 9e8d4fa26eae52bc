//! End-to-end contract of the compile pipeline: compile a model under a
//! seeded fault map, serve the resulting chip image over the real TCP
//! protocol, and check (a) every served logit is bit-identical to the
//! compiler's manifest predictions, and (b) fault-aware remapping
//! strictly beats raw faults on the same fault seed.

use std::sync::Arc;

use imc_compile::image::{ChipImage, MlpArch};
use imc_compile::pipeline::{compile, probe_inputs, CompileOptions};
use imc_compile::wear::WearLedger;
use imc_core::faults::FaultModel;
use imc_serve::model::ServeModel;
use imc_serve::protocol::Response;
use imc_serve::{serve, Client, ServeConfig};
use neural::imc_exec::argmax_total;
use neural::imc_exec::ImcDesign;

/// A small-but-typical compile: two-layer MLP on ChgFe with a
/// mature-process stuck-cell rate, every cell programmed.
/// The fault rate and probe count are sized so remapping's true effect
/// dominates the probe-noise variance of the agreement estimate — at
/// low rates and few probes, the strictly-beats comparison below is a
/// coin flip on analog noise rather than a test of the remap pass.
fn faulty_opts() -> CompileOptions {
    let mut opts = CompileOptions::new(
        MlpArch {
            features: 48,
            hidden: 16,
            classes: 10,
        },
        ImcDesign::ChgFe,
    );
    opts.fault_model = FaultModel {
        p_stuck_on: 4.0e-3,
        p_stuck_off: 4.0e-3,
    };
    opts.fault_seed = 1234;
    opts.probe_count = 256;
    opts
}

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("fefet_imc_compile_e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn served_image_is_bit_identical_to_manifest_predictions() {
    let opts = faulty_opts();
    let mut ledger = WearLedger::fresh(opts.geometry.banks);
    let out = compile(&opts, &mut ledger).expect("compile succeeds");
    assert!(
        out.image.manifest.faults.total_faults > 0,
        "the e2e model must actually carry faults"
    );

    // Round-trip through disk, exactly as a deployment would.
    let path = temp_path("served.chip.json");
    out.image.save(&path).expect("image saves");
    let loaded = ChipImage::load(&path).expect("image loads");
    assert_eq!(loaded, out.image, "serialize → load is lossless");
    assert_eq!(
        loaded.placement, out.image.placement,
        "placement table survives the round trip bit-for-bit"
    );

    // Serve the image over real TCP (`imc-serve --image` runs this same
    // constructor) and replay the compiler's probe set.
    let model = ServeModel::from_image(&path).expect("model from image");
    let handle = serve("127.0.0.1:0", Arc::new(model), &ServeConfig::default())
        .expect("bind ephemeral server");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let probes = probe_inputs(
        out.image.arch.features,
        out.image.manifest.probe_count,
        out.image.manifest.probe_seed,
    );
    for (i, probe) in probes.iter().enumerate() {
        let resp = client
            .infer(i as u64, probe.clone())
            .expect("infer round-trip");
        let Response::Output(o) = resp else {
            panic!("expected logits, got {resp:?}");
        };
        let want = &out.image.manifest.predicted_logits[i];
        assert_eq!(o.logits.len(), want.len());
        assert!(
            o.logits
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "probe {i}: served logits differ from the manifest prediction"
        );
    }
    handle.shutdown_flag().trigger();
    handle.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn remapping_strictly_beats_raw_faults_on_the_same_seed() {
    let opts = faulty_opts();
    let mut ledger = WearLedger::fresh(opts.geometry.banks);
    let with_remap = compile(&opts, &mut ledger).expect("remap compile");

    let mut raw_opts = faulty_opts();
    raw_opts.remap = false;
    let mut ledger = WearLedger::fresh(raw_opts.geometry.banks);
    let without = compile(&raw_opts, &mut ledger).expect("raw compile");

    // Identical fault draw on both sides.
    assert_eq!(
        with_remap.image.manifest.faults.total_faults,
        without.image.manifest.faults.total_faults
    );
    assert!(with_remap.image.manifest.faults.remap_enabled);
    assert!(!without.image.manifest.faults.remap_enabled);

    let a_with = with_remap.image.manifest.oracle_agreement.unwrap();
    let a_raw = without.image.manifest.oracle_agreement.unwrap();
    assert!(
        a_with > a_raw,
        "remapping must strictly improve probe agreement: with={a_with} raw={a_raw}"
    );
    assert!(
        with_remap.image.manifest.expected_accuracy_delta.unwrap()
            < without.image.manifest.expected_accuracy_delta.unwrap()
    );
    // And the remap did real work on this seed.
    let f = &with_remap.image.manifest.faults;
    assert!(
        !f.relocated.is_empty() || !f.clamped.is_empty(),
        "no relocation or clamping happened"
    );
}

#[test]
fn manifest_argmax_agrees_with_direct_execution() {
    // The accuracy metric in the manifest is computable by third parties:
    // rebuild the network from the image and re-derive the agreement.
    let opts = faulty_opts();
    let mut ledger = WearLedger::fresh(opts.geometry.banks);
    let out = compile(&opts, &mut ledger).expect("compile succeeds");
    let net = out.image.to_network().expect("network from image");
    let probes = probe_inputs(
        48,
        out.image.manifest.probe_count,
        out.image.manifest.probe_seed,
    );
    for (i, p) in probes.iter().enumerate() {
        let x = neural::tensor::Tensor::from_vec(&[1, 48], p.clone());
        let logits = net.forward(&x).data().to_vec();
        // The NaN-safe ties-last rule the server classifies with — the
        // manifest and `imc-serve` can never disagree on a class now.
        assert_eq!(
            argmax_total(&logits),
            argmax_total(&out.image.manifest.predicted_logits[i]),
            "probe {i}"
        );
    }
}
