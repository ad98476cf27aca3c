use serde::{Deserialize, Serialize};

use crate::{Result, Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// All DNN activations, weights and converted SNN parameters in the
/// workspace are stored as `Tensor`s.
///
/// ```
/// use nrsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), nrsnn_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.get(&[1, 2])?, 6.0);
/// assert_eq!(t.sum(), 21.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the number of elements implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let shape = Shape::new(shape);
        if data.len() != shape.len() {
            return Err(TensorError::ShapeDataMismatch {
                elements: data.len(),
                expected: shape.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: data.to_vec(),
            shape: Shape::new(&[data.len()]),
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of the underlying data in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying data in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads a single element.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes a single element.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Reinterprets the tensor with a new shape holding the same number of
    /// elements.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let new_shape = Shape::new(shape);
        if new_shape.len() != self.len() {
            return Err(TensorError::ShapeDataMismatch {
                elements: self.len(),
                expected: new_shape.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: new_shape,
        })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "zip_map",
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise division.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `other * scale` into `self` in place (axpy).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
                op: "add_scaled_inplace",
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Adds a scalar to every element, returning a new tensor.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|x| x + value)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in row-major order (0 for empty tensors).
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            })
            .0
    }

    /// The `q`-th percentile (0.0–100.0) of all elements, using
    /// nearest-rank interpolation. Returns 0.0 for empty tensors.
    ///
    /// This is used by the DNN-to-SNN conversion for robust activation
    /// normalisation (e.g. the 99.9th percentile).
    pub fn percentile(&self, q: f32) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f32> = self.data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = q.clamp(0.0, 100.0);
        let rank = (q / 100.0 * (sorted.len() - 1) as f32).round() as usize;
        sorted[rank]
    }

    /// Returns the `row`-th row of a rank-2 tensor as a new rank-1 tensor.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2, or
    /// [`TensorError::IndexOutOfBounds`] if the row is out of range.
    pub fn row(&self, row: usize) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "row",
            });
        }
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        if row >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![row],
                shape: self.dims().to_vec(),
            });
        }
        Ok(Tensor {
            data: self.data[row * cols..(row + 1) * cols].to_vec(),
            shape: Shape::new(&[cols]),
        })
    }

    /// Borrows the `row`-th row of a rank-2 tensor as a slice — the
    /// allocation-free sibling of [`Tensor::row`], used by the batched
    /// simulation engine to stream samples out of a dataset tensor.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2, or
    /// [`TensorError::IndexOutOfBounds`] if the row is out of range.
    pub fn row_slice(&self, row: usize) -> Result<&[f32]> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "row_slice",
            });
        }
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        if row >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![row],
                shape: self.dims().to_vec(),
            });
        }
        Ok(&self.data[row * cols..(row + 1) * cols])
    }

    /// Stacks rank-1 tensors of equal length into a rank-2 tensor
    /// (`rows.len() x len`).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the rows have differing
    /// lengths, or [`TensorError::InvalidGeometry`] if `rows` is empty.
    pub fn stack_rows(rows: &[Tensor]) -> Result<Tensor> {
        let first = rows.first().ok_or_else(|| {
            TensorError::InvalidGeometry("stack_rows requires at least one row".to_string())
        })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![cols],
                    rhs: vec![r.len()],
                    op: "stack_rows",
                });
            }
            data.extend_from_slice(r.as_slice());
        }
        Tensor::from_vec(data, &[rows.len(), cols])
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

// Hand-written (de)serialization over the shim serde data model (the derive
// on `Tensor` is a no-op under the offline shims — see shims/README.md).
// Format: `{"shape": [d0, d1, ..], "data": [..]}`.
impl Serialize for Tensor {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("shape".to_string(), self.shape.dims().to_value()),
            ("data".to_string(), self.data.to_value()),
        ])
    }
}

impl Deserialize for Tensor {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let shape_value = value
            .get("shape")
            .ok_or_else(|| serde::DeError::new("tensor is missing \"shape\""))?;
        let data_value = value
            .get("data")
            .ok_or_else(|| serde::DeError::new("tensor is missing \"data\""))?;
        let dims = Vec::<usize>::from_value(shape_value)?;
        let data = Vec::<f32>::from_value(data_value)?;
        Tensor::from_vec(data, &dims).map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
        // 2^80 elements: the product used to wrap to 0 in release.
        assert!(Tensor::from_vec(vec![], &[1 << 40, 1 << 40]).is_err());
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn eye_diagonal() {
        let t = Tensor::eye(3);
        assert_eq!(t.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(t.get(&[1, 2]).unwrap(), 0.0);
        assert_eq!(t.sum(), 3.0);
    }

    #[test]
    fn get_set() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0, 0.5]);
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.mean(), 0.625);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 2);
    }

    #[test]
    fn percentile_basic() {
        let t = Tensor::from_slice(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(t.percentile(0.0), 0.0);
        assert_eq!(t.percentile(100.0), 10.0);
        assert_eq!(t.percentile(50.0), 5.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.get(&[1, 0]).unwrap(), 3.0);
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn row_extraction() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.row(1).unwrap().as_slice(), &[4.0, 5.0, 6.0]);
        assert!(t.row(2).is_err());
    }

    #[test]
    fn row_slice_borrows_without_copying() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.row_slice(0).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row_slice(1).unwrap(), t.row(1).unwrap().as_slice());
        assert!(t.row_slice(2).is_err());
        assert!(Tensor::from_slice(&[1.0]).row_slice(0).is_err());
    }

    #[test]
    fn stack_rows_round_trip() {
        let rows = vec![
            Tensor::from_slice(&[1.0, 2.0]),
            Tensor::from_slice(&[3.0, 4.0]),
        ];
        let m = Tensor::stack_rows(&rows).unwrap();
        assert_eq!(m.dims(), &[2, 2]);
        assert_eq!(m.row(1).unwrap().as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn stack_rows_rejects_ragged() {
        let rows = vec![Tensor::from_slice(&[1.0, 2.0]), Tensor::from_slice(&[3.0])];
        assert!(Tensor::stack_rows(&rows).is_err());
    }

    #[test]
    fn add_scaled_inplace_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        a.add_scaled_inplace(&b, 0.5).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.set(&[1], f32::NAN).unwrap();
        assert!(t.has_non_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::from_slice(&[1.0, 2.0]);
        assert!(!format!("{t}").is_empty());
    }
}
