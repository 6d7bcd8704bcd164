use fnas_tensor::{Init, Tensor, XavierUniform};
use rand::RngCore;

use crate::layer::im2col::{col2im, gemm, im2col, transpose, ColGeometry};
use crate::layer::{Layer, ParamMut};
use crate::{NnError, Result};

/// Which algorithm a [`Conv2d`] uses for its forward and backward passes.
///
/// Both compute the same convolution but not the same bits: each sums an
/// output's products in its own order, so they agree only up to rounding
/// (property-tested at a tolerance). Only [`ConvAlgo::Im2col`] backs
/// training; its exact bits are pinned by the golden tests in
/// `tests/nn_golden.rs`. They also differ in speed and memory:
///
/// * [`ConvAlgo::Direct`] — six nested loops, no extra memory;
/// * [`ConvAlgo::Im2col`] — unfolds receptive fields into a column matrix
///   and rides a cache-friendly matrix-product loop; typically several
///   times faster for kernels > 1 at the cost of a `C·K²·OH·OW` column
///   buffer per call (and its transpose in backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConvAlgo {
    /// Straightforward nested-loop convolution.
    Direct,
    /// Matrix lowering via im2col (the default: faster on every kernel
    /// size this workspace trains).
    #[default]
    Im2col,
}

/// 2-D convolution over NCHW activations.
///
/// Weights are shaped `[out_channels, in_channels, kernel, kernel]`, with one
/// bias per output channel. Stride and symmetric zero padding are explicit;
/// output spatial extent is `(h + 2·pad − kernel) / stride + 1`.
///
/// # Examples
///
/// ```
/// use fnas_nn::layer::{Conv2d, Layer};
/// use fnas_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), fnas_nn::NnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(1, 4, 3, 1, 1, &mut rng)?;
/// let x = Tensor::zeros(&[2, 1, 8, 8]);
/// let y = conv.forward(&x)?;
/// assert_eq!(y.shape().dims(), &[2, 4, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    algo: ConvAlgo,
}

impl Conv2d {
    /// Creates a convolution with Xavier-uniform weights and zero biases.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if any of `in_channels`,
    /// `out_channels`, `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "conv2d requires non-zero sizes, got in={in_channels} out={out_channels} k={kernel} stride={stride}"
                ),
            });
        }
        let wshape = [out_channels, in_channels, kernel, kernel];
        Ok(Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            weight: XavierUniform.init(&wshape.into(), rng),
            bias: Tensor::zeros([out_channels]),
            grad_weight: Tensor::zeros(wshape),
            grad_bias: Tensor::zeros([out_channels]),
            cached_input: None,
            algo: ConvAlgo::default(),
        })
    }

    /// Selects the convolution algorithm (see [`ConvAlgo`]).
    #[must_use]
    pub fn with_algo(mut self, algo: ConvAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// The algorithm this layer runs with.
    pub fn algo(&self) -> ConvAlgo {
        self.algo
    }

    fn geometry(&self, h: usize, w: usize, oh: usize, ow: usize) -> ColGeometry {
        ColGeometry {
            in_channels: self.in_channels,
            height: h,
            width: w,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
            out_h: oh,
            out_w: ow,
        }
    }

    fn forward_im2col(&self, input: &Tensor, n: usize, oh: usize, ow: usize) -> Result<Tensor> {
        let dims = input.shape().dims();
        let g = self.geometry(dims[2], dims[3], oh, ow);
        let (rows, cols, image_len) = (g.rows(), g.cols(), dims[1] * dims[2] * dims[3]);
        let mut col_buf = vec![0.0f32; rows * cols];
        let wm = self.weight.as_slice();
        let b = self.bias.as_slice();
        let mut out = vec![0.0f32; n * self.out_channels * cols];
        for s in 0..n {
            let image = &input.as_slice()[s * image_len..(s + 1) * image_len];
            let dst = &mut out[s * self.out_channels * cols..(s + 1) * self.out_channels * cols];
            im2col(image, &g, &mut col_buf);
            gemm(wm, (rows, 1), &col_buf, dst, cols);
            for (drow, &bias) in dst.chunks_exact_mut(cols).zip(b) {
                for d in drow {
                    *d += bias;
                }
            }
        }
        Ok(Tensor::from_vec(out, [n, self.out_channels, oh, ow])?)
    }

    fn backward_im2col(&mut self, input: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        let dims = input.shape().dims();
        let godims = grad_out.shape().dims();
        let g = self.geometry(dims[2], dims[3], godims[2], godims[3]);
        let (co, rows, cols) = (self.out_channels, g.rows(), g.cols());
        let image_len = dims[1] * dims[2] * dims[3];
        // Buffers reused by every image of the call.
        let mut col_buf = vec![0.0f32; rows * cols];
        let mut cols_t = vec![0.0f32; cols * rows];
        let mut gw_image = vec![0.0f32; co * rows];
        let mut gw_acc = vec![0.0f32; co * rows];
        let wm = self.weight.as_slice();
        let gb = self.grad_bias.as_mut_slice();
        let mut gx = vec![0.0f32; input.len()];
        for s in 0..dims[0] {
            let image = &input.as_slice()[s * image_len..(s + 1) * image_len];
            let go_n = &grad_out.as_slice()[s * co * cols..(s + 1) * co * cols];
            let gx_n = &mut gx[s * image_len..(s + 1) * image_len];
            // One weight-gradient chain per image, summed in image order.
            im2col(image, &g, &mut col_buf);
            transpose(&col_buf, rows, &mut cols_t);
            gw_image.fill(0.0);
            gemm(go_n, (cols, 1), &cols_t, &mut gw_image, rows);
            for (acc, &v) in gw_acc.iter_mut().zip(&gw_image) {
                *acc += v;
            }
            // The column gradient Wᵀ · go_n reuses the column buffer, with
            // the weight matrix read transposed in place.
            col_buf.fill(0.0);
            gemm(wm, (1, rows), go_n, &mut col_buf, cols);
            col2im(&col_buf, &g, gx_n);
            for (bias, chunk) in gb.iter_mut().zip(go_n.chunks_exact(cols)) {
                *bias += chunk.iter().sum::<f32>();
            }
        }
        for (gw, &acc) in self.grad_weight.as_mut_slice().iter_mut().zip(&gw_acc) {
            *gw += acc;
        }
        Ok(Tensor::from_vec(gx, input.shape().clone())?)
    }

    /// Half padding for a square kernel: `(kernel − 1) / 2`.
    pub fn half_pad(kernel: usize) -> usize {
        kernel.saturating_sub(1) / 2
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Output spatial extent for a given input extent, or `None` if the
    /// kernel does not fit.
    pub fn out_extent(&self, extent: usize) -> Option<usize> {
        let padded = extent + 2 * self.pad;
        if padded < self.kernel {
            None
        } else {
            Some((padded - self.kernel) / self.stride + 1)
        }
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        if input.rank() != 4 {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: "rank-4 NCHW input".to_string(),
                got: input.shape().to_string(),
            });
        }
        let dims = input.shape().dims();
        if dims[1] != self.in_channels {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: format!("{} input channels", self.in_channels),
                got: input.shape().to_string(),
            });
        }
        let (h, w) = (dims[2], dims[3]);
        match (self.out_extent(h), self.out_extent(w)) {
            (Some(oh), Some(ow)) if oh > 0 && ow > 0 => Ok((dims[0], oh, ow)),
            _ => Err(NnError::BadInput {
                layer: "conv2d",
                expected: format!("spatial extent ≥ kernel {} after padding", self.kernel),
                got: input.shape().to_string(),
            }),
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let (n, oh, ow) = self.check_input(input)?;
        if self.algo == ConvAlgo::Im2col {
            let out = self.forward_im2col(input, n, oh, ow)?;
            // Reuse the cached input's buffer while the batch shape repeats.
            match &mut self.cached_input {
                Some(cached) if cached.shape() == input.shape() => {
                    cached.as_mut_slice().copy_from_slice(input.as_slice());
                }
                slot => *slot = Some(input.clone()),
            }
            return Ok(out);
        }
        let dims = input.shape().dims();
        let (ci, h, w) = (dims[1], dims[2], dims[3]);
        let (co, k, s, p) = (self.out_channels, self.kernel, self.stride, self.pad);

        let x = input.as_slice();
        let wt = self.weight.as_slice();
        let b = self.bias.as_slice();
        let mut out = vec![0.0f32; n * co * oh * ow];

        for nn in 0..n {
            let xn = &x[nn * ci * h * w..];
            let on = &mut out[nn * co * oh * ow..(nn + 1) * co * oh * ow];
            for m in 0..co {
                let wm = &wt[m * ci * k * k..(m + 1) * ci * k * k];
                let om = &mut on[m * oh * ow..(m + 1) * oh * ow];
                om.fill(b[m]);
                for c in 0..ci {
                    let xc = &xn[c * h * w..(c + 1) * h * w];
                    let wc = &wm[c * k * k..(c + 1) * k * k];
                    for or in 0..oh {
                        let ir0 = (or * s) as isize - p as isize;
                        for (ki, wrow) in wc.chunks_exact(k).enumerate() {
                            let ir = ir0 + ki as isize;
                            if ir < 0 || ir as usize >= h {
                                continue;
                            }
                            let xrow = &xc[ir as usize * w..(ir as usize + 1) * w];
                            let orow = &mut om[or * ow..(or + 1) * ow];
                            for (oc, out_px) in orow.iter_mut().enumerate() {
                                let ic0 = (oc * s) as isize - p as isize;
                                let mut acc = 0.0f32;
                                for (kj, &wv) in wrow.iter().enumerate() {
                                    let icx = ic0 + kj as isize;
                                    if icx >= 0 && (icx as usize) < w {
                                        acc += wv * xrow[icx as usize];
                                    }
                                }
                                *out_px += acc;
                            }
                        }
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        Ok(Tensor::from_vec(out, [n, co, oh, ow])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv2d" })?;
        let dims = input.shape().dims();
        let (n, ci, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let godims = grad_out.shape().dims();
        if grad_out.rank() != 4 || godims[0] != n || godims[1] != self.out_channels {
            return Err(NnError::BadInput {
                layer: "conv2d",
                expected: "gradient matching forward output shape".to_string(),
                got: grad_out.shape().to_string(),
            });
        }
        let (oh, ow) = (godims[2], godims[3]);
        if self.algo == ConvAlgo::Im2col {
            // Taken out for the call so no copy is needed; always restored.
            let input = self.cached_input.take().expect("checked above");
            let grad_in = self.backward_im2col(&input, grad_out);
            self.cached_input = Some(input);
            return grad_in;
        }
        let (co, k, s, p) = (self.out_channels, self.kernel, self.stride, self.pad);

        let x = input.as_slice();
        let go = grad_out.as_slice();
        let wt = self.weight.as_slice();
        let gw = self.grad_weight.as_mut_slice();
        let gb = self.grad_bias.as_mut_slice();
        let mut gx = vec![0.0f32; n * ci * h * w];

        for nn in 0..n {
            let xn = &x[nn * ci * h * w..];
            let gxn = &mut gx[nn * ci * h * w..(nn + 1) * ci * h * w];
            let gon = &go[nn * co * oh * ow..(nn + 1) * co * oh * ow];
            for m in 0..co {
                let gom = &gon[m * oh * ow..(m + 1) * oh * ow];
                gb[m] += gom.iter().sum::<f32>();
                for c in 0..ci {
                    let xc = &xn[c * h * w..(c + 1) * h * w];
                    let gxc = &mut gxn[c * h * w..(c + 1) * h * w];
                    let wbase = (m * ci + c) * k * k;
                    for or in 0..oh {
                        let ir0 = (or * s) as isize - p as isize;
                        let gorow = &gom[or * ow..(or + 1) * ow];
                        for ki in 0..k {
                            let ir = ir0 + ki as isize;
                            if ir < 0 || ir as usize >= h {
                                continue;
                            }
                            let xrow = &xc[ir as usize * w..(ir as usize + 1) * w];
                            let gxrow = &mut gxc[ir as usize * w..(ir as usize + 1) * w];
                            for (oc, &g) in gorow.iter().enumerate() {
                                if g == 0.0 {
                                    continue;
                                }
                                let ic0 = (oc * s) as isize - p as isize;
                                for kj in 0..k {
                                    let icx = ic0 + kj as isize;
                                    if icx >= 0 && (icx as usize) < w {
                                        let widx = wbase + ki * k + kj;
                                        gw[widx] += g * xrow[icx as usize];
                                        gxrow[icx as usize] += g * wt[widx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(gx, [n, ci, h, w])?)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamMut<'_>)) {
        f(ParamMut {
            value: &mut self.weight,
            grad: &mut self.grad_weight,
        });
        f(ParamMut {
            value: &mut self.bias,
            grad: &mut self.grad_bias,
        });
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng).unwrap();
        conv.weight = Tensor::ones([1, 1, 1, 1]);
        conv.bias = Tensor::zeros([1]);
        let x = Tensor::rand_uniform([1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_valid_convolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng).unwrap();
        conv.weight = Tensor::ones([1, 1, 3, 3]);
        conv.bias = Tensor::from_vec(vec![1.0], [1]).unwrap();
        let x = Tensor::ones([1, 1, 3, 3]);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(y.at(0), 10.0); // 9 ones + bias 1
    }

    #[test]
    fn half_padding_preserves_extent_for_odd_kernels() {
        let mut rng = StdRng::seed_from_u64(0);
        for k in [1usize, 3, 5, 7] {
            let conv = Conv2d::new(1, 1, k, 1, Conv2d::half_pad(k), &mut rng).unwrap();
            assert_eq!(conv.out_extent(16), Some(16), "kernel {k}");
        }
    }

    #[test]
    fn even_kernel_shrinks_by_one_with_half_pad() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(1, 1, 14, 1, Conv2d::half_pad(14), &mut rng).unwrap();
        assert_eq!(conv.out_extent(28), Some(27));
    }

    #[test]
    fn stride_two_halves_extent() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng).unwrap();
        let x = Tensor::zeros([1, 1, 8, 8]);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn rejects_wrong_channel_count_and_rank() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng).unwrap();
        assert!(conv.forward(&Tensor::zeros([1, 2, 8, 8])).is_err());
        assert!(conv.forward(&Tensor::zeros([1, 3, 8])).is_err());
    }

    #[test]
    fn rejects_kernel_larger_than_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 7, 1, 0, &mut rng).unwrap();
        assert!(conv.forward(&Tensor::zeros([1, 1, 4, 4])).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng).unwrap();
        let err = conv.backward(&Tensor::zeros([1, 1, 4, 4])).unwrap_err();
        assert!(matches!(err, NnError::BackwardBeforeForward { .. }));
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::rand_uniform([1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x).unwrap();
        conv.zero_grad();
        let _ = conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let analytic = conv.grad_weight.clone();

        let eps = 1e-2f32;
        for idx in 0..conv.weight.len() {
            let orig = conv.weight.at(idx);
            *conv.weight.at_mut(idx) = orig + eps;
            let f_plus = conv.forward(&x).unwrap().sum();
            *conv.weight.at_mut(idx) = orig - eps;
            let f_minus = conv.forward(&x).unwrap().sum();
            *conv.weight.at_mut(idx) = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic.at(idx)).abs() < 2e-2,
                "weight grad mismatch at {idx}: {numeric} vs {}",
                analytic.at(idx)
            );
        }
    }

    #[test]
    fn bias_gradient_is_output_count_per_channel() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::zeros([2, 1, 4, 4]);
        let y = conv.forward(&x).unwrap();
        conv.zero_grad();
        let _ = conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
        // d(sum)/d(bias_m) = number of output positions contributing = N·OH·OW
        assert_eq!(conv.grad_bias.at(0), (2 * 4 * 4) as f32);
        assert_eq!(conv.grad_bias.at(1), (2 * 4 * 4) as f32);
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::rand_uniform([1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x).unwrap();
        let _ = conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert!(conv.grad_weight.norm_sq() > 0.0);
        conv.zero_grad();
        assert_eq!(conv.grad_weight.norm_sq(), 0.0);
        assert_eq!(conv.grad_bias.norm_sq(), 0.0);
    }

    #[test]
    fn param_count_matches_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 8, 5, 1, 2, &mut rng).unwrap();
        assert_eq!(conv.param_count(), 8 * 3 * 25 + 8);
    }

    #[test]
    fn direct_and_im2col_agree_on_forward_and_gradients() {
        let mut rng = StdRng::seed_from_u64(21);
        for (k, stride, pad) in [(1usize, 1usize, 0usize), (3, 1, 1), (5, 2, 2), (4, 1, 1)] {
            let mut a = Conv2d::new(3, 4, k, stride, pad, &mut rng)
                .unwrap()
                .with_algo(ConvAlgo::Direct);
            let mut b = Conv2d::new(3, 4, k, stride, pad, &mut rng)
                .unwrap()
                .with_algo(ConvAlgo::Im2col);
            // Same parameters in both layers.
            b.weight = a.weight.clone();
            b.bias = a.bias.clone();
            let x = Tensor::rand_uniform([2, 3, 7, 7], -1.0, 1.0, &mut rng);
            let ya = a.forward(&x).unwrap();
            let yb = b.forward(&x).unwrap();
            assert_eq!(ya.shape(), yb.shape());
            for (p, q) in ya.as_slice().iter().zip(yb.as_slice()) {
                assert!((p - q).abs() < 1e-4, "k={k}: forward {p} vs {q}");
            }
            let go = Tensor::rand_uniform(ya.shape().clone(), -1.0, 1.0, &mut rng);
            a.zero_grad();
            b.zero_grad();
            let gxa = a.backward(&go).unwrap();
            let gxb = b.backward(&go).unwrap();
            for (p, q) in gxa.as_slice().iter().zip(gxb.as_slice()) {
                assert!((p - q).abs() < 1e-3, "k={k}: input grad {p} vs {q}");
            }
            for (p, q) in a
                .grad_weight
                .as_slice()
                .iter()
                .zip(b.grad_weight.as_slice())
            {
                assert!((p - q).abs() < 1e-3, "k={k}: weight grad {p} vs {q}");
            }
            for (p, q) in a.grad_bias.as_slice().iter().zip(b.grad_bias.as_slice()) {
                assert!((p - q).abs() < 1e-3, "k={k}: bias grad {p} vs {q}");
            }
        }
    }

    #[test]
    fn zero_height_input_yields_the_bias_under_both_algorithms() {
        // Every tap falls in the padding, so each output is its bias.
        let mut rng = StdRng::seed_from_u64(3);
        for algo in [ConvAlgo::Direct, ConvAlgo::Im2col] {
            let mut conv = Conv2d::new(2, 3, 1, 1, 1, &mut rng)
                .unwrap()
                .with_algo(algo);
            conv.bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
            let y = conv.forward(&Tensor::zeros([2, 2, 0, 3])).unwrap();
            assert_eq!(y.shape().dims(), &[2, 3, 2, 5]);
            let want: Vec<f32> = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
                .iter()
                .flat_map(|&b| [b; 10])
                .collect();
            assert_eq!(y.as_slice(), &want[..], "{algo:?}");
            let gx = conv.backward(&Tensor::ones(y.shape().clone())).unwrap();
            assert_eq!(gx.shape().dims(), &[2, 2, 0, 3]);
        }
    }

    #[test]
    fn algo_selection_round_trips() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng).unwrap();
        assert_eq!(conv.algo(), ConvAlgo::Im2col);
        let conv = conv.with_algo(ConvAlgo::Direct);
        assert_eq!(conv.algo(), ConvAlgo::Direct);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Conv2d::new(0, 1, 3, 1, 1, &mut rng).is_err());
        assert!(Conv2d::new(1, 0, 3, 1, 1, &mut rng).is_err());
        assert!(Conv2d::new(1, 1, 0, 1, 1, &mut rng).is_err());
        assert!(Conv2d::new(1, 1, 3, 0, 1, &mut rng).is_err());
    }
}
