//! Property-based tests for the tensor substrate.

use nrsnn_tensor::{matmul, matvec, transpose, Tensor};
use proptest::prelude::*;

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #[test]
    fn add_is_commutative(a in tensor_strategy(16), b in tensor_strategy(16)) {
        let ta = Tensor::from_vec(a, &[16]).unwrap();
        let tb = Tensor::from_vec(b, &[16]).unwrap();
        let ab = ta.add(&tb).unwrap();
        let ba = tb.add(&ta).unwrap();
        prop_assert_eq!(ab.as_slice(), ba.as_slice());
    }

    #[test]
    fn sub_then_add_is_identity(a in tensor_strategy(12), b in tensor_strategy(12)) {
        let ta = Tensor::from_vec(a, &[12]).unwrap();
        let tb = Tensor::from_vec(b, &[12]).unwrap();
        let back = ta.sub(&tb).unwrap().add(&tb).unwrap();
        for (x, y) in back.as_slice().iter().zip(ta.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn scale_is_linear(a in tensor_strategy(10), k in -10.0f32..10.0) {
        let t = Tensor::from_vec(a, &[10]).unwrap();
        let lhs = t.scale(k).sum();
        let rhs = t.sum() * k;
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()));
    }

    #[test]
    fn transpose_is_involution(data in tensor_strategy(20)) {
        let t = Tensor::from_vec(data, &[4, 5]).unwrap();
        let tt = transpose(&transpose(&t).unwrap()).unwrap();
        prop_assert_eq!(t.as_slice(), tt.as_slice());
    }

    #[test]
    fn matmul_identity_is_noop(data in tensor_strategy(12)) {
        let t = Tensor::from_vec(data, &[3, 4]).unwrap();
        let id = Tensor::eye(4);
        let out = matmul(&t, &id).unwrap();
        for (x, y) in out.as_slice().iter().zip(t.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_is_linear_in_vector(
        m in tensor_strategy(12),
        x in tensor_strategy(4),
        y in tensor_strategy(4)
    ) {
        let mat = Tensor::from_vec(m, &[3, 4]).unwrap();
        let tx = Tensor::from_vec(x, &[4]).unwrap();
        let ty = Tensor::from_vec(y, &[4]).unwrap();
        let lhs = matvec(&mat, &tx.add(&ty).unwrap()).unwrap();
        let rhs = matvec(&mat, &tx).unwrap().add(&matvec(&mat, &ty).unwrap()).unwrap();
        for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((a - b).abs() < 0.5, "lhs {a} rhs {b}");
        }
    }

    #[test]
    fn reshape_preserves_sum(data in tensor_strategy(24)) {
        let t = Tensor::from_vec(data, &[24]).unwrap();
        let r = t.reshape(&[2, 3, 4]).unwrap();
        prop_assert!((t.sum() - r.sum()).abs() < 1e-3);
    }

    #[test]
    fn percentile_is_within_min_max(data in tensor_strategy(32), q in 0.0f32..100.0) {
        let t = Tensor::from_vec(data, &[32]).unwrap();
        let p = t.percentile(q);
        prop_assert!(p >= t.min() && p <= t.max());
    }

    #[test]
    fn stack_rows_then_row_round_trips(rows in proptest::collection::vec(tensor_strategy(6), 1..5)) {
        let tensors: Vec<Tensor> = rows.iter().map(|r| Tensor::from_vec(r.clone(), &[6]).unwrap()).collect();
        let stacked = Tensor::stack_rows(&tensors).unwrap();
        for (i, orig) in tensors.iter().enumerate() {
            let row = stacked.row(i).unwrap();
            prop_assert_eq!(row.as_slice(), orig.as_slice());
        }
    }
}
