//! C-SEND-SYNC: the workspace's data-carrying types must be Send + Sync
//! so users can parallelize Monte-Carlo and inference work freely.

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn device_types_are_send_sync() {
    assert_send_sync::<fefet_imc::device::fefet::FeFet>();
    assert_send_sync::<fefet_imc::device::preisach::Preisach>();
    assert_send_sync::<fefet_imc::device::variation::VariationSampler>();
    assert_send_sync::<fefet_imc::device::programming::MlcCurrentLadder>();
    assert_send_sync::<fefet_imc::device::programming::IsppTrajectory>();
}

#[test]
fn sim_types_are_send_sync() {
    assert_send_sync::<fefet_imc::sim::netlist::Netlist>();
    assert_send_sync::<fefet_imc::sim::waveform::Waveform>();
    assert_send_sync::<fefet_imc::sim::linalg::Matrix>();
    assert_send_sync::<fefet_imc::sim::SimError>();
}

#[test]
fn imc_types_are_send_sync() {
    assert_send_sync::<fefet_imc::imc::array::CurFeMacro>();
    assert_send_sync::<fefet_imc::imc::array::ChgFeMacro>();
    assert_send_sync::<fefet_imc::imc::grid::CurFeGrid>();
    assert_send_sync::<fefet_imc::imc::adc::SarAdc>();
    assert_send_sync::<fefet_imc::imc::energy::DesignPoint>();
}

#[test]
fn neural_and_system_types_are_send_sync() {
    assert_send_sync::<fefet_imc::nn::tensor::Tensor>();
    assert_send_sync::<fefet_imc::nn::dataset::Dataset>();
    assert_send_sync::<fefet_imc::nn::imc_exec::QNetwork>();
    assert_send_sync::<fefet_imc::nn::checkpoint::Checkpoint>();
    assert_send_sync::<fefet_imc::system::chip::SystemReport>();
}
