//! Seeded request inputs and their oracle answers.
//!
//! The benchmark hands the program only these generated inputs. The
//! model weights stay at the serving default seed; the CLI seed picks
//! the inputs and the order requests draw them in.

use neural::imc_exec::{ImcConfig, ImcDesign, QNetwork};
use neural::models::mlp;
use neural::tensor::Tensor;

use imc_serve::model::{DEFAULT_CLASSES, DEFAULT_HIDDEN, DEFAULT_SEED, MNIST_FEATURES};

/// Distinct inputs per run: large enough that requests do not repeat
/// within a batch, small enough that the oracle costs ~0.1 s.
pub const POOL_SIZE: usize = 256;

/// The served design.
pub const DESIGN: ImcDesign = ImcDesign::ChgFe;

/// One step of the splitmix64 generator.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference network every served answer is checked against: the
/// default serving MLP quantized at the paper operating point, built
/// here from `neural` alone rather than through the server's model
/// loader.
fn oracle() -> QNetwork {
    let seq = mlp(
        MNIST_FEATURES,
        DEFAULT_HIDDEN,
        DEFAULT_CLASSES,
        DEFAULT_SEED,
    );
    QNetwork::from_sequential(&seq, ImcConfig::paper(DESIGN, 4, 8))
}

/// Request inputs with their expected logits.
pub struct RequestPool {
    seed: u64,
    /// Flat `MNIST_FEATURES`-long inputs in `[0, 1)`.
    pub inputs: Vec<Vec<f32>>,
    /// `QNetwork::forward` of each input.
    pub expected: Vec<Vec<f32>>,
}

impl RequestPool {
    /// Draws `size` inputs from `seed` and answers each with the oracle.
    #[must_use]
    pub fn new(seed: u64, size: usize) -> Self {
        let net = oracle();
        let inputs: Vec<Vec<f32>> = (0..size as u64)
            .map(|i| {
                (0..MNIST_FEATURES as u64)
                    .map(|f| {
                        let r = splitmix64(seed ^ splitmix64(i << 20 | f));
                        (r >> 40) as f32 / (1u64 << 24) as f32
                    })
                    .collect()
            })
            .collect();
        let expected = inputs
            .iter()
            .map(|x| {
                net.forward(&Tensor::from_vec(&[1, MNIST_FEATURES], x.clone()))
                    .data()
                    .to_vec()
            })
            .collect();
        Self {
            seed,
            inputs,
            expected,
        }
    }

    /// Which input request `n` of stream `stream` carries.
    #[must_use]
    pub fn pick(&self, stream: u64, n: u64) -> usize {
        (splitmix64(self.seed ^ (stream << 48) ^ n) % self.inputs.len() as u64) as usize
    }

    /// Whether `logits` are bit for bit the oracle's answer to input `i`.
    #[must_use]
    pub fn matches(&self, i: usize, logits: &[f32]) -> bool {
        let want = &self.expected[i];
        want.len() == logits.len()
            && want
                .iter()
                .zip(logits)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}
