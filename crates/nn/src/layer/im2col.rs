//! The im2col convolution lowering and the slice kernels it runs on.
//!
//! Direct convolution walks six nested loops; lowering to matrix form —
//! unfolding every receptive field into a column and multiplying by the
//! reshaped weight matrix — trades memory for the much better cache
//! behaviour of an i-k-j matrix product's tight inner loop. [`Conv2d`]
//! exposes both algorithms through [`ConvAlgo`]. They are *not*
//! bit-identical: each sums an output's products in its own order, so they
//! agree only up to rounding (compared at a tolerance in
//! `tests/proptest_invariants.rs` and in `conv.rs`). Only the im2col path
//! backs training, and its exact bits are pinned by `tests/nn_golden.rs`.
//!
//! The kernels work on caller-owned slices, so one call reuses its buffers
//! for every image of a batch. [`gemm`] and [`transpose`] repeat the loops
//! of `Tensor::matmul` and `Tensor::transpose` for that reason, and the
//! tests below hold them to those bit for bit. A rewrite here may move
//! data differently but must keep each output element's accumulation
//! order (DESIGN.md §20).
//!
//! [`Conv2d`]: crate::layer::Conv2d
//! [`ConvAlgo`]: crate::layer::ConvAlgo

use std::ops::Range;

/// Geometry of one im2col lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ColGeometry {
    pub in_channels: usize,
    pub height: usize,
    pub width: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
    pub out_h: usize,
    pub out_w: usize,
}

impl ColGeometry {
    /// Rows of the column matrix: one per weight element.
    pub fn rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the column matrix: one per output position.
    pub fn cols(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Output rows `oy` whose input row `oy·stride + ki − pad` lies inside
    /// the image.
    fn rows_for(&self, ki: usize) -> Range<usize> {
        self.in_bounds(self.out_h, self.height, ki)
    }

    /// Output columns `ox` whose input column `ox·stride + kj − pad` lies
    /// inside the image.
    fn cols_for(&self, kj: usize) -> Range<usize> {
        self.in_bounds(self.out_w, self.width, kj)
    }

    /// The outputs `o < out` with `0 ≤ o·stride + tap − pad < extent`: a
    /// contiguous range, clamped so that `start ≤ end ≤ out`.
    fn in_bounds(&self, out: usize, extent: usize, tap: usize) -> Range<usize> {
        let end = (extent + self.pad)
            .saturating_sub(tap)
            .div_ceil(self.stride)
            .min(out);
        let start = self.pad.saturating_sub(tap).div_ceil(self.stride).min(end);
        start..end
    }
}

/// Unfolds one image (`[c·h·w]` slice) into `out`, a `[rows × cols]`
/// column matrix. Every element of `out` is written, padding cells with
/// zero, so the caller may reuse one buffer across images.
pub(crate) fn im2col(image: &[f32], g: &ColGeometry, out: &mut [f32]) {
    let (cols, ow, plane_len) = (g.cols(), g.out_w, g.height * g.width);
    for c in 0..g.in_channels {
        let plane = &image[c * plane_len..(c + 1) * plane_len];
        for ki in 0..g.kernel {
            let ys = g.rows_for(ki);
            for kj in 0..g.kernel {
                let xs = g.cols_for(kj);
                let row = (c * g.kernel + ki) * g.kernel + kj;
                let orow = &mut out[row * cols..(row + 1) * cols];
                if xs.is_empty() {
                    orow.fill(0.0);
                    continue;
                }
                orow[..ys.start * ow].fill(0.0);
                orow[ys.end * ow..].fill(0.0);
                let ix = xs.start * g.stride + kj - g.pad;
                for oy in ys.clone() {
                    let dst = &mut orow[oy * ow..(oy + 1) * ow];
                    dst[..xs.start].fill(0.0);
                    dst[xs.end..].fill(0.0);
                    let iy = oy * g.stride + ki - g.pad;
                    let irow = &plane[iy * g.width..(iy + 1) * g.width];
                    let dst = &mut dst[xs.clone()];
                    if g.stride == 1 {
                        dst.copy_from_slice(&irow[ix..ix + dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(irow[ix..].iter().step_by(g.stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Folds a `[rows × cols]` gradient back onto the image, accumulating
/// overlapping receptive fields (the adjoint of [`im2col`]). Each image
/// element receives its contributions in `(c, ki, kj, oy, ox)` order.
pub(crate) fn col2im(cols_grad: &[f32], g: &ColGeometry, image_grad: &mut [f32]) {
    let (cols, ow, plane_len) = (g.cols(), g.out_w, g.height * g.width);
    for c in 0..g.in_channels {
        let plane = &mut image_grad[c * plane_len..(c + 1) * plane_len];
        for ki in 0..g.kernel {
            let ys = g.rows_for(ki);
            for kj in 0..g.kernel {
                let xs = g.cols_for(kj);
                if xs.is_empty() {
                    continue;
                }
                let row = (c * g.kernel + ki) * g.kernel + kj;
                let grow = &cols_grad[row * cols..(row + 1) * cols];
                let ix = xs.start * g.stride + kj - g.pad;
                for oy in ys.clone() {
                    let iy = oy * g.stride + ki - g.pad;
                    let irow = &mut plane[iy * g.width..(iy + 1) * g.width];
                    let src = &grow[oy * ow + xs.start..oy * ow + xs.end];
                    if g.stride == 1 {
                        for (d, &v) in irow[ix..ix + src.len()].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in irow[ix..].iter_mut().step_by(g.stride).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// `out += A · b` for an `m × k` matrix `A` read as `a[i·rs + kk·cs]` and a
/// row-major `k × n` matrix `b`, where `m = out.len() / n`.
///
/// This is the i-k-j loop of [`Tensor::matmul`] over caller-owned buffers:
/// every output element sums its products in `kk` order and zero `A`
/// elements are skipped, so on a zeroed `out` the result is bit-identical
/// to `matmul`. The strides let `A` be a row-major matrix read in place
/// (`(k, 1)`) or transposed in place (`(1, m)`).
///
/// [`Tensor::matmul`]: fnas_tensor::Tensor::matmul
pub(crate) fn gemm(a: &[f32], (rs, cs): (usize, usize), b: &[f32], out: &mut [f32], n: usize) {
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        for (kk, brow) in b.chunks_exact(n).enumerate() {
            let aik = a[i * rs + kk * cs];
            if aik == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
}

/// Rows of `a` that [`transpose`] reads as one band: they stay in cache
/// while each column of the band is written out as one contiguous run.
const BAND_ROWS: usize = 16;

/// Writes the transpose of the row-major `m × n` matrix `a` into `out`
/// (`n × m`), in the same 16-row bands as [`Tensor::transpose`].
///
/// [`Tensor::transpose`]: fnas_tensor::Tensor::transpose
pub(crate) fn transpose(a: &[f32], m: usize, out: &mut [f32]) {
    let n = a.len() / m;
    for (t, band) in a.chunks(BAND_ROWS * n).enumerate() {
        let i0 = t * BAND_ROWS;
        let rows = band.len() / n;
        for j in 0..n {
            let dst = &mut out[j * m + i0..j * m + i0 + rows];
            for (d, row) in dst.iter_mut().zip(band.chunks_exact(n)) {
                *d = row[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnas_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn geometry() -> ColGeometry {
        ColGeometry {
            in_channels: 2,
            height: 4,
            width: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
            out_h: 4,
            out_w: 4,
        }
    }

    fn lowered(image: &[f32], g: &ColGeometry) -> Vec<f32> {
        let mut out = vec![0.0f32; g.rows() * g.cols()];
        im2col(image, g, &mut out);
        out
    }

    /// The per-element im2col loop the slice copies replaced: the oracle
    /// they must match bit for bit.
    fn im2col_oracle(image: &[f32], g: &ColGeometry) -> Vec<f32> {
        let cols = g.cols();
        let mut out = vec![0.0f32; g.rows() * cols];
        for c in 0..g.in_channels {
            let plane = &image[c * g.height * g.width..(c + 1) * g.height * g.width];
            for ki in 0..g.kernel {
                for kj in 0..g.kernel {
                    let row = (c * g.kernel + ki) * g.kernel + kj;
                    for oy in 0..g.out_h {
                        let iy = (oy * g.stride + ki) as isize - g.pad as isize;
                        if iy < 0 || iy as usize >= g.height {
                            continue;
                        }
                        for ox in 0..g.out_w {
                            let ix = (ox * g.stride + kj) as isize - g.pad as isize;
                            if ix >= 0 && (ix as usize) < g.width {
                                out[row * cols + oy * g.out_w + ox] =
                                    plane[iy as usize * g.width + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The per-element col2im loop, in the same `(c, ki, kj, oy, ox)`
    /// accumulation order.
    fn col2im_oracle(cols_grad: &[f32], g: &ColGeometry, image_grad: &mut [f32]) {
        let cols = g.cols();
        for c in 0..g.in_channels {
            let plane = &mut image_grad[c * g.height * g.width..(c + 1) * g.height * g.width];
            for ki in 0..g.kernel {
                for kj in 0..g.kernel {
                    let row = (c * g.kernel + ki) * g.kernel + kj;
                    for oy in 0..g.out_h {
                        let iy = (oy * g.stride + ki) as isize - g.pad as isize;
                        if iy < 0 || iy as usize >= g.height {
                            continue;
                        }
                        for ox in 0..g.out_w {
                            let ix = (ox * g.stride + kj) as isize - g.pad as isize;
                            if ix >= 0 && (ix as usize) < g.width {
                                plane[iy as usize * g.width + ix as usize] +=
                                    cols_grad[row * cols + oy * g.out_w + ox];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Values in `[-1, 1)`, a quarter of them exactly zero.
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

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn shapes_follow_geometry() {
        let g = geometry();
        assert_eq!((g.rows(), g.cols()), (2 * 9, 16));
        // Every element is written, so a reused buffer keeps no stale data.
        let mut out = vec![f32::NAN; g.rows() * g.cols()];
        im2col(&[1.0f32; 2 * 16], &g, &mut out);
        assert!(out.iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn centre_kernel_row_reproduces_the_image() {
        // With pad 1, the kernel-centre row (ki = kj = 1) of the column
        // matrix is exactly the original image plane.
        let g = geometry();
        let img: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let cols = lowered(&img, &g);
        for c in 0..2 {
            let row = (c * 3 + 1) * 3 + 1;
            let start = row * 16;
            assert_eq!(&cols[start..start + 16], &img[c * 16..(c + 1) * 16]);
        }
    }

    #[test]
    fn padding_cells_are_zero() {
        let g = geometry();
        let cols = lowered(&[1.0f32; 32], &g);
        // Row (c=0, ki=0, kj=0) at output (0,0) reads input (-1,-1): zero.
        assert_eq!(cols[0], 0.0);
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩ for all x, y — the defining
        // property of an adjoint, checked on random data.
        let mut rng = StdRng::seed_from_u64(5);
        let g = geometry();
        let x: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f32> = (0..g.rows() * g.cols())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let cols = lowered(&x, &g);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0f32; 32];
        col2im(&y, &g, &mut back);
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "⟨Ax,y⟩={lhs} vs ⟨x,Aᵀy⟩={rhs}");
    }

    #[test]
    fn slice_paths_match_the_per_element_loops_bit_for_bit() {
        // Random geometries, including pad ≥ kernel/2 (whole rows and
        // columns of taps fall outside the image) and outputs narrower
        // than the kernel's overhang, where the in-bounds ranges clamp to
        // empty or to the output's edge.
        let mut rng = StdRng::seed_from_u64(13);
        for case in 0..400 {
            let kernel = rng.gen_range(1..7usize);
            let stride = if case % 4 == 0 { 2 } else { 1 };
            let pad = rng.gen_range(0..kernel + 2);
            let height = rng.gen_range(0..9usize);
            let width = rng.gen_range(0..9usize);
            if height + 2 * pad < kernel || width + 2 * pad < kernel {
                continue;
            }
            let g = ColGeometry {
                in_channels: rng.gen_range(1..4),
                height,
                width,
                kernel,
                stride,
                pad,
                out_h: (height + 2 * pad - kernel) / stride + 1,
                out_w: (width + 2 * pad - kernel) / stride + 1,
            };
            let image = sparse(g.in_channels * height * width, &mut rng);
            let mut cols = vec![f32::NAN; g.rows() * g.cols()];
            im2col(&image, &g, &mut cols);
            assert_eq!(bits(&cols), bits(&im2col_oracle(&image, &g)), "{g:?}");

            let grad = sparse(g.rows() * g.cols(), &mut rng);
            let start = sparse(image.len(), &mut rng);
            let (mut fast, mut slow) = (start.clone(), start);
            col2im(&grad, &g, &mut fast);
            col2im_oracle(&grad, &g, &mut slow);
            assert_eq!(bits(&fast), bits(&slow), "{g:?}");
        }
    }

    #[test]
    fn gemm_matches_tensor_matmul_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(31);
        let (m, k, n) = (17, 33, 19);
        let a = sparse(m * k, &mut rng);
        let mut b = sparse(k * n, &mut rng);
        // Meets zeros in `a`: skipped, not turned into NaN.
        b[3 * n + 1] = f32::INFINITY;
        let at = Tensor::from_vec(a.clone(), [m, k]).unwrap();
        let bt = Tensor::from_vec(b.clone(), [k, n]).unwrap();
        let want = bits(at.matmul(&bt).unwrap().as_slice());

        let mut out = vec![0.0f32; m * n];
        gemm(&a, (k, 1), &b, &mut out, n);
        assert_eq!(bits(&out), want);

        // The same left operand stored transposed and read in place.
        let a_t = at.transpose().unwrap();
        let mut out = vec![0.0f32; m * n];
        gemm(a_t.as_slice(), (1, m), &b, &mut out, n);
        assert_eq!(bits(&out), want);
    }

    #[test]
    fn transpose_matches_tensor_transpose() {
        let mut rng = StdRng::seed_from_u64(37);
        for (m, n) in [(1, 1), (16, 16), (17, 33), (40, 7)] {
            let a = sparse(m * n, &mut rng);
            let want = Tensor::from_vec(a.clone(), [m, n])
                .unwrap()
                .transpose()
                .unwrap();
            let mut out = vec![f32::NAN; m * n];
            transpose(&a, m, &mut out);
            assert_eq!(bits(&out), bits(want.as_slice()), "{m}×{n}");
        }
    }
}
