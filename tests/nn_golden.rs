//! Golden bits for the training kernels.
//!
//! The trained accuracies, the benchmark's pinned trained-search digest and
//! every reference byte depend on the exact f32 bits the convolution,
//! matrix and dense kernels produce, not just on their values up to
//! rounding. A data-movement rewrite of those kernels (a different im2col
//! copy, a tiled transpose, reused buffers) must keep every bit; these
//! pins fail on the first output element whose accumulation order changed.
//!
//! Each pin is an FNV-1a digest of the little-endian f32 bits of the
//! outputs, in a fixed order. Inputs carry exact zeros, because the matrix
//! kernel skips zero left-hand elements, and one case feeds an `inf`
//! through a zero weight: with the skip the output stays finite, without it
//! `0 · inf` would turn it into NaN.

use fnas::evaluator::{AccuracyEvaluator, TrainedEvaluator};
use fnas_codec::{fnv1a, FNV_OFFSET};
use fnas_controller::arch::{ChildArch, LayerChoice};
use fnas_data::SynthConfig;
use fnas_nn::layer::{Conv2d, Dense, Layer};
use fnas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Folds the bits of every value in `values` into `h`.
fn fold(h: u64, values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(h, &bytes)
}

/// Uniform values in `[-1, 1)` with roughly one in four set to exactly 0.
fn sparse(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0..4) == 0 {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect()
}

fn tensor(data: Vec<f32>, dims: &[usize]) -> Tensor {
    Tensor::from_vec(data, dims).unwrap()
}

/// The layer's accumulated parameter gradients, in `visit_params` order.
fn grads(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.grad.as_slice().to_vec()));
    out
}

/// Overwrites the layer's parameters with sparse values.
fn sparsify_params(layer: &mut dyn Layer, rng: &mut StdRng) {
    layer.visit_params(&mut |p| {
        let fresh = sparse(p.value.len(), rng);
        p.value.as_mut_slice().copy_from_slice(&fresh);
    });
}

/// Forward once, backward twice with two different output gradients, and
/// digest the output, both input gradients and the accumulated parameter
/// gradients.
fn forward_backward_digest(layer: &mut dyn Layer, input: &Tensor, rng: &mut StdRng) -> u64 {
    let y = layer.forward(input).unwrap();
    let go1 = tensor(sparse(y.len(), rng), y.shape().dims());
    let go2 = tensor(sparse(y.len(), rng), y.shape().dims());
    let gx1 = layer.backward(&go1).unwrap();
    let gx2 = layer.backward(&go2).unwrap();
    let mut h = fold(FNV_OFFSET, y.as_slice());
    h = fold(h, gx1.as_slice());
    h = fold(h, gx2.as_slice());
    for grad in grads(layer) {
        h = fold(h, &grad);
    }
    h
}

/// One digest per kernel size over stride ∈ {1,2} × pad ∈ {0..3} × N ∈
/// {1,3}, on 2→3 channels and a non-square 7×9 input.
fn conv_sweep_digest(kernel: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for stride in [1usize, 2] {
        for pad in 0..4usize {
            for n in [1usize, 3] {
                let mut rng = StdRng::seed_from_u64((kernel * 100 + stride * 10 + pad) as u64);
                let mut conv = Conv2d::new(2, 3, kernel, stride, pad, &mut rng).unwrap();
                sparsify_params(&mut conv, &mut rng);
                let x = tensor(sparse(n * 2 * 7 * 9, &mut rng), &[n, 2, 7, 9]);
                let d = forward_backward_digest(&mut conv, &x, &mut rng);
                h = fnv1a(h, &d.to_le_bytes());
            }
        }
    }
    h
}

#[test]
fn conv2d_bits_are_pinned_for_kernel_1() {
    assert_eq!(conv_sweep_digest(1), 0x623a_f5ea_5bb8_090c, "k=1 drifted");
}

#[test]
fn conv2d_bits_are_pinned_for_kernel_3() {
    assert_eq!(conv_sweep_digest(3), 0x8c57_36ac_10c7_cb9b, "k=3 drifted");
}

#[test]
fn conv2d_bits_are_pinned_for_kernel_4() {
    assert_eq!(conv_sweep_digest(4), 0x3301_b58a_8242_22f3, "k=4 drifted");
}

#[test]
fn conv2d_bits_are_pinned_for_kernel_5() {
    assert_eq!(conv_sweep_digest(5), 0x8773_b7ec_569e_169f, "k=5 drifted");
}

#[test]
fn conv2d_zero_weight_skips_an_infinite_input() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng).unwrap();
    // Output channel 0 never looks at the centre tap; channel 1 does.
    conv.visit_params(&mut |p| {
        if p.value.len() == 18 {
            p.value.as_mut_slice()[4] = 0.0;
        }
    });
    let mut x = sparse(5 * 6, &mut rng);
    x[2 * 6 + 3] = f32::INFINITY;
    let x = tensor(x, &[1, 1, 5, 6]);
    let y = conv.forward(&x).unwrap();
    // With the zero-skip, channel 0's output where the centre tap covers
    // the inf is still finite.
    assert!(y.as_slice()[2 * 6 + 3].is_finite());
    let d = forward_backward_digest(&mut conv, &x, &mut rng);
    assert_eq!(d, 0x3a94_c6e7_ba23_fde0, "inf case drifted");
}

#[test]
fn matmul_and_transpose_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(17);
    let a = tensor(sparse(17 * 33, &mut rng), &[17, 33]);
    let b = tensor(sparse(33 * 17, &mut rng), &[33, 17]);
    let ab = a.matmul(&b).unwrap();
    let at = a.transpose().unwrap();
    assert_eq!(at.shape().dims(), &[33, 17]);
    assert_eq!(at.transpose().unwrap(), a);
    let mut h = fold(FNV_OFFSET, ab.as_slice());
    h = fold(h, at.as_slice());
    h = fold(h, b.matmul(&a).unwrap().as_slice());
    assert_eq!(h, 0x0579_e4f2_e355_cc0a);
}

#[test]
fn dense_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut dense = Dense::new(33, 17, &mut rng).unwrap();
    sparsify_params(&mut dense, &mut rng);
    let x = tensor(sparse(5 * 33, &mut rng), &[5, 33]);
    assert_eq!(
        forward_backward_digest(&mut dense, &x, &mut rng),
        0x403e_8011_ea58_1d72
    );
}

#[test]
fn trained_accuracy_on_the_search_mnist_space_is_pinned() {
    let data = SynthConfig::mnist_like()
        .with_shape((1, 14, 14))
        .with_classes(5)
        .with_noise(0.2)
        .with_sizes(80, 40)
        .with_seed(5);
    let eval = TrainedEvaluator::new(&data, 2, 20).unwrap().with_lr(0.2);
    let arch = ChildArch::new(
        [(3, 8), (5, 16), (3, 16)]
            .iter()
            .map(|&(filter_size, num_filters)| LayerChoice {
                filter_size,
                num_filters,
            })
            .collect(),
    )
    .unwrap();
    let acc = eval.evaluate(&arch, &mut StdRng::seed_from_u64(7)).unwrap();
    assert_eq!(acc.to_bits(), 0x3ecccccd, "accuracy {acc} drifted");
}
