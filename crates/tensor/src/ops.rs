//! Element-wise arithmetic, matrix products and axis reductions.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().clone(),
                right: other.shape().clone(),
                op,
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        Ok(self.zip_with(other, |a, b| a + b))
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        Ok(self.zip_with(other, |a, b| a - b))
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "mul")?;
        Ok(self.zip_with(other, |a, b| a * b))
    }

    /// Adds `other * scale` into `self` in place (`axpy`).
    ///
    /// This is the workhorse of the SGD update in `fnas-nn`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        self.check_same_shape(other, "add_scaled")?;
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Multiplies every element by `scale`, producing a new tensor.
    pub fn scale(&self, scale: f32) -> Tensor {
        self.map(|x| x * scale)
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ; the public arithmetic wrappers validate
    /// first and return errors instead.
    pub(crate) fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        debug_assert_eq!(self.shape(), other.shape());
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(data, self.shape().clone()).expect("zip_with preserves length")
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "dot")?;
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Matrix product of two rank-2 tensors: `(m × k) · (k × n) → (m × n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2,
    /// and [`TensorError::MatmulDimMismatch`] if the inner dimensions differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use fnas_tensor::Tensor;
    /// # fn main() -> Result<(), fnas_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
    /// let b = Tensor::ones(&[3, 1]);
    /// let c = a.matmul(&b)?;
    /// assert_eq!(c.as_slice(), &[6.0, 15.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "matmul",
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.rank(),
                op: "matmul",
            });
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (other.shape().dim(0), other.shape().dim(1));
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order keeps the innermost accesses contiguous in both
        // `b` and `out`, which matters on the single-core target.
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n][..])
    }

    /// Matrix–vector product of a rank-2 tensor with a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for wrong ranks and
    /// [`TensorError::MatmulDimMismatch`] if widths disagree.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "matvec",
            });
        }
        if v.rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: v.rank(),
                op: "matvec",
            });
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        if k != v.len() {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: v.len(),
            });
        }
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = vec![0.0f32; m];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            out[i] = row.iter().zip(x).map(|(&r, &xv)| r * xv).sum();
        }
        Tensor::from_vec(out, &[m][..])
    }

    /// Transpose of a rank-2 tensor, copied in bands of 16 rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
                op: "transpose",
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let mut out = vec![0.0f32; m * n];
        if n > 0 {
            // Bands of 16 rows stay in cache while each of their columns is
            // written out as one contiguous run of `out`.
            for (t, band) in self.as_slice().chunks(16 * n).enumerate() {
                let (i0, rows) = (t * 16, band.len() / n);
                for j in 0..n {
                    let dst = &mut out[j * m + i0..j * m + i0 + rows];
                    for (d, row) in dst.iter_mut().zip(band.chunks_exact(n)) {
                        *d = row[j];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, m][..])
    }

    /// Outer product of two rank-1 tensors: `(m) ⊗ (n) → (m × n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 1.
    pub fn outer(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 1 || other.rank() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: if self.rank() != 1 {
                    self.rank()
                } else {
                    other.rank()
                },
                op: "outer",
            });
        }
        let (m, n) = (self.len(), other.len());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let ai = self.at(i);
            for j in 0..n {
                out[i * n + j] = ai * other.at(j);
            }
        }
        Tensor::from_vec(out, &[m, n][..])
    }

    /// Numerically stable softmax over the flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn softmax(&self) -> Result<Tensor> {
        let max = self.max()?;
        let exps: Vec<f32> = self.as_slice().iter().map(|&x| (x - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        Tensor::from_vec(
            exps.into_iter().map(|e| e / denom).collect(),
            self.shape().clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-2.0, -2.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn arithmetic_rejects_shape_mismatch() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0], &[2, 1]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = t(&[1.0, 2.0], &[2]);
        let g = t(&[10.0, 20.0], &[2]);
        a.add_scaled(&g, -0.1).unwrap();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_validates() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = Tensor::eye(2);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::RankMismatch { op: "matmul", .. })
        ));
        let a = Tensor::zeros(&[2, 3][..]);
        let b = Tensor::zeros(&[4, 5][..]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch {
                left_cols: 3,
                right_rows: 4
            })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let v = t(&[1.0, 0.5, 2.0], &[3]);
        let mv = a.matvec(&v).unwrap();
        let mm = a.matmul(&v.reshape(&[3, 1][..]).unwrap()).unwrap();
        assert_eq!(mv.as_slice(), mm.as_slice());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(tt, a);
        assert_eq!(a.transpose().unwrap().shape().dims(), &[3, 2]);
    }

    #[test]
    fn transpose_matches_the_definition_across_band_edges() {
        for (m, n) in [(17, 33), (33, 17), (16, 1), (0, 3), (3, 0)] {
            let a = Tensor::from_vec((0..m * n).map(|x| x as f32).collect(), &[m, n][..]).unwrap();
            let t = a.transpose().unwrap();
            assert_eq!(t.shape().dims(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(t.at(j * m + i), a.at(i * n + j), "{m}×{n} at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn outer_product() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0, 5.0], &[3]);
        let o = a.outer(&b).unwrap();
        assert_eq!(o.shape().dims(), &[2, 3]);
        assert_eq!(o.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let a = t(&[1000.0, 1001.0, 1002.0], &[3]);
        let s = a.softmax().unwrap();
        assert!((s.sum() - 1.0).abs() < 1e-6);
        assert!(s.as_slice().iter().all(|&x| x.is_finite() && x > 0.0));
        assert!(s.at(2) > s.at(1) && s.at(1) > s.at(0));
    }

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        let a = t(&[1.0, 0.0], &[2]);
        let b = t(&[0.0, 1.0], &[2]);
        assert_eq!(a.dot(&b).unwrap(), 0.0);
    }

    #[test]
    fn scale_multiplies_every_element() {
        let a = t(&[1.0, -2.0], &[2]);
        assert_eq!(a.scale(-3.0).as_slice(), &[-3.0, 6.0]);
    }
}
