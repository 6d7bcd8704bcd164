//! Replays one training minibatch of a child through the public
//! `fnas_nn::layer` types, timing forward and backward per layer kind
//! and the optimiser step. The child's own training runs inside
//! `Sequential`, whose layers are private; this replay rebuilds the same
//! stack from the same `LayerSpec`s to see where a training step goes.

use std::time::{Duration, Instant};

use fnas_controller::arch::ChildArch;
use fnas_nn::layer::{Conv2d, Dense, GlobalAvgPool, Layer, LayerSpec, Relu};
use fnas_nn::loss::softmax_cross_entropy;
use fnas_nn::optim::{Optimizer, Sgd};
use fnas_nn::train::Batch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Names of the per-kind samples one replay produces, in report order.
pub const REPLAY_METRICS: [&str; 9] = [
    "nn.conv.fwd_ms",
    "nn.conv.bwd_ms",
    "nn.relu.fwd_ms",
    "nn.relu.bwd_ms",
    "nn.pool.fwd_ms",
    "nn.pool.bwd_ms",
    "nn.dense.fwd_ms",
    "nn.dense.bwd_ms",
    "nn.step_ms",
];

/// Layer kinds a child network is made of (see `ChildArch::layer_specs`).
#[derive(Debug, Clone, Copy)]
enum Kind {
    Conv,
    Relu,
    Pool,
    Dense,
}

impl Kind {
    /// Indices of this kind's forward and backward entries in
    /// [`REPLAY_METRICS`].
    fn slots(self) -> (usize, usize) {
        match self {
            Kind::Conv => (0, 1),
            Kind::Relu => (2, 3),
            Kind::Pool => (4, 5),
            Kind::Dense => (6, 7),
        }
    }
}

/// One minibatch and the input geometry it belongs to.
#[derive(Debug)]
pub struct Replayer {
    batch: Batch,
    shape: (usize, usize, usize),
    classes: usize,
}

impl Replayer {
    /// Replays `batch` (images shaped `[n, shape…]`, labels `< classes`).
    pub fn new(batch: Batch, shape: (usize, usize, usize), classes: usize) -> Self {
        Replayer {
            batch,
            shape,
            classes,
        }
    }

    fn build(&self, arch: &ChildArch) -> fnas_nn::Result<Vec<(Kind, Box<dyn Layer>)>> {
        let mut rng = StdRng::seed_from_u64(0);
        let (mut c, h, w) = self.shape;
        let mut layers: Vec<(Kind, Box<dyn Layer>)> = Vec::new();
        for spec in arch.layer_specs(self.classes) {
            match spec {
                LayerSpec::Conv {
                    out_channels,
                    kernel,
                } => {
                    let conv = Conv2d::new(
                        c,
                        out_channels,
                        kernel,
                        1,
                        Conv2d::half_pad(kernel),
                        &mut rng,
                    )?;
                    // Half padding at stride 1 keeps the extent; the
                    // child would not have been trained otherwise.
                    if conv.out_extent(h) != Some(h) || conv.out_extent(w) != Some(w) {
                        return Err(fnas_nn::NnError::InvalidConfig {
                            what: format!("kernel {kernel} changes a {h}x{w} extent"),
                        });
                    }
                    c = out_channels;
                    layers.push((Kind::Conv, Box::new(conv)));
                }
                LayerSpec::Relu => layers.push((Kind::Relu, Box::new(Relu::new()))),
                LayerSpec::GlobalAvgPool => {
                    layers.push((Kind::Pool, Box::new(GlobalAvgPool::new())));
                }
                LayerSpec::Dense { out_features } => {
                    let dense = Dense::new(c, out_features, &mut rng)?;
                    c = out_features;
                    layers.push((Kind::Dense, Box::new(dense)));
                }
                other => {
                    return Err(fnas_nn::NnError::InvalidConfig {
                        what: format!("replay does not cover {other:?}"),
                    })
                }
            }
        }
        Ok(layers)
    }

    /// One forward pass, loss, backward pass and SGD step; returns the
    /// time per [`REPLAY_METRICS`] entry.
    ///
    /// # Errors
    ///
    /// Layer construction and shape errors.
    pub fn replay(&self, arch: &ChildArch) -> fnas_nn::Result<Vec<(&'static str, Duration)>> {
        let mut layers = self.build(arch)?;
        let mut times = [Duration::ZERO; REPLAY_METRICS.len()];

        let mut x = self.batch.images.clone();
        for (kind, layer) in &mut layers {
            let start = Instant::now();
            x = layer.forward(&x)?;
            times[kind.slots().0] += start.elapsed();
        }
        let mut grad = softmax_cross_entropy(&x, &self.batch.labels)?.grad;
        for (kind, layer) in layers.iter_mut().rev() {
            let start = Instant::now();
            grad = layer.backward(&grad)?;
            times[kind.slots().1] += start.elapsed();
        }

        let start = Instant::now();
        let mut sgd = Sgd::new(0.1, 0.9);
        sgd.begin_step();
        let mut slot = 0usize;
        let mut result = Ok(());
        for (_, layer) in &mut layers {
            layer.visit_params(&mut |param| {
                if result.is_ok() {
                    result = sgd.step_param(slot, param);
                }
                slot += 1;
            });
            layer.zero_grad();
        }
        result?;
        times[8] = start.elapsed();

        Ok(REPLAY_METRICS.into_iter().zip(times).collect())
    }
}
