//! Bit-identity regression suite for the DESIGN.md §8 kernel layer.
//!
//! Every unrolled or batched kernel must agree with its scalar reference
//! to the last bit (`to_bits` equality, i.e. 0 ULP): the single-threaded
//! trainer's golden-checksum test depends on it, and a silent reduction
//! reorder in a "faster" kernel would change training trajectories.
//!
//! Deterministic loops pin every remainder length `0..=17` (all residues
//! of the 8-wide and 4-wide unroll factors, twice over; `0..=70` for the
//! scaled dots); proptests then sweep longer lengths and arbitrary values.

use proptest::collection::vec;
use proptest::prelude::{prop_assert_eq, proptest};
use sisg_embedding::{dot_slice_x4, kernels, math, Matrix};

/// Deterministic, irregular test values — sums are inexact so any
/// reduction reorder flips low-order bits.
fn values(len: usize, salt: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 8;
            (h as f32 / 2.0_f32.powi(24)) * 6.0 - 3.0
        })
        .collect()
}

fn dot_serial(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (a, b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

#[test]
fn unrolled_dot_matches_lane_reference_for_all_remainders() {
    for len in 0..=17 {
        let x = values(len, 1);
        let y = values(len, 2);
        assert_eq!(
            kernels::dot(&x, &y).to_bits(),
            kernels::dot_scalar_ref(&x, &y).to_bits(),
            "len {len}"
        );
    }
}

#[test]
fn ordered_dot_is_the_serial_fold_for_all_remainders() {
    for len in 0..=17 {
        let x = values(len, 3);
        let y = values(len, 4);
        assert_eq!(
            kernels::dot_ordered(&x, &y).to_bits(),
            dot_serial(&x, &y).to_bits(),
            "len {len}"
        );
    }
}

/// The cosine scorers read raw rows and a cached `1/‖v‖`: the scaled
/// kernels must give, to the bit, what `dot_ordered` gives over a copy of
/// the row scaled in place (what `math::normalize` writes), and scale
/// `1.0` must be the unscaled kernel.
#[test]
fn scaled_dots_equal_ordered_dots_over_prescaled_rows_for_all_lengths() {
    let scales = [0.1234567f32, 3.9, 1.0 / 7.0];
    for len in 0..=70 {
        let rows: Vec<Vec<f32>> = (0..4).map(|r| values(len, 20 + r)).collect();
        let y = values(len, 30);
        let row_refs = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
        let prescaled = |r: usize, s: f32| {
            let mut v = rows[r].clone();
            kernels::scale(&mut v, s);
            v
        };
        let x4_scales = [scales[0], scales[1], scales[2], 1.0];
        let got = kernels::dot_ordered_scaled_x4(row_refs, x4_scales, &y);
        for r in 0..4 {
            let want = kernels::dot_ordered(&prescaled(r, x4_scales[r]), &y);
            assert_eq!(got[r].to_bits(), want.to_bits(), "x4 len {len} row {r}");
            for &s in &scales {
                assert_eq!(
                    kernels::dot_ordered_scaled(&rows[r], s, &y).to_bits(),
                    kernels::dot_ordered(&prescaled(r, s), &y).to_bits(),
                    "remainder len {len} row {r} scale {s}"
                );
            }
        }
        let unit = kernels::dot_ordered_scaled_x4(row_refs, [1.0; 4], &y);
        let plain = kernels::dot_ordered_x4(row_refs, &y);
        assert_eq!(unit.map(f32::to_bits), plain.map(f32::to_bits), "len {len}");
        assert_eq!(
            kernels::dot_ordered_scaled(&rows[0], 1.0, &y).to_bits(),
            kernels::dot_ordered(&rows[0], &y).to_bits(),
            "len {len}"
        );
    }
}

#[test]
fn row_ptr_dot_slice_is_the_serial_fold_for_all_remainders() {
    for len in 1..=17 {
        let m = Matrix::from_data(1, len, values(len, 5));
        let y = values(len, 6);
        assert_eq!(
            m.row_ptr(0).dot_slice(&y).to_bits(),
            dot_serial(m.row(0), &y).to_bits(),
            "len {len}"
        );
    }
}

#[test]
fn unrolled_axpy_slice_matches_scalar_reference_for_all_remainders() {
    for len in 1..=17 {
        let m = Matrix::from_data(1, len, values(len, 7));
        let x = values(len, 8);
        let mut expect: Vec<f32> = m.row(0).to_vec();
        for (e, &xi) in expect.iter_mut().zip(&x) {
            *e += 0.37 * xi;
        }
        m.row_ptr(0).axpy_slice(0.37, &x);
        let got: Vec<u32> = m.row(0).iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "len {len}");
    }
}

#[test]
fn accumulate_scaled_matches_scalar_reference_for_all_remainders() {
    for len in 1..=17 {
        let m = Matrix::from_data(1, len, values(len, 9));
        let mut acc = values(len, 10);
        let mut expect = acc.clone();
        for (e, &v) in expect.iter_mut().zip(m.row(0)) {
            *e += -0.81 * v;
        }
        m.row_ptr(0).accumulate_scaled(-0.81, &mut acc);
        let got: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "len {len}");
    }
}

proptest! {
    #[test]
    fn unrolled_dot_matches_lane_reference(
        xs in vec(-3.0f32..3.0, 0..64),
        ys in vec(-3.0f32..3.0, 0..64),
    ) {
        let n = xs.len().min(ys.len());
        let (x, y) = (&xs[..n], &ys[..n]);
        prop_assert_eq!(kernels::dot(x, y).to_bits(), kernels::dot_scalar_ref(x, y).to_bits());
    }

    #[test]
    fn ordered_dot_matches_serial_fold(
        xs in vec(-3.0f32..3.0, 0..64),
        ys in vec(-3.0f32..3.0, 0..64),
    ) {
        let n = xs.len().min(ys.len());
        let (x, y) = (&xs[..n], &ys[..n]);
        prop_assert_eq!(kernels::dot_ordered(x, y).to_bits(), dot_serial(x, y).to_bits());
    }

    #[test]
    fn interleaved_x4_dots_match_four_serial_dots(
        data in vec(-3.0f32..3.0, 4..256),
        y in vec(-3.0f32..3.0, 1..64),
    ) {
        let dim = (data.len() / 4).min(y.len());
        let rows = [
            &data[0..dim],
            &data[dim..2 * dim],
            &data[2 * dim..3 * dim],
            &data[3 * dim..4 * dim],
        ];
        let got = kernels::dot_ordered_x4(rows, &y[..dim]);
        for j in 0..4 {
            prop_assert_eq!(got[j].to_bits(), dot_serial(rows[j], &y[..dim]).to_bits());
        }
    }

    #[test]
    fn inv_norm_scaled_dot_matches_dot_over_normalized_row(
        xs in vec(-3.0f32..3.0, 0..64),
        ys in vec(-3.0f32..3.0, 0..64),
    ) {
        let n = xs.len().min(ys.len());
        let (x, y) = (&xs[..n], &ys[..n]);
        let mut unit = x.to_vec();
        math::normalize(&mut unit);
        prop_assert_eq!(
            kernels::dot_ordered_scaled(x, math::inv_norm(x), y).to_bits(),
            kernels::dot_ordered(&unit, y).to_bits()
        );
    }

    #[test]
    fn row_ptr_x4_dots_match_four_dot_slices(
        data in vec(-3.0f32..3.0, 4..256),
        y in vec(-3.0f32..3.0, 1..64),
    ) {
        let dim = (data.len() / 4).min(y.len()).max(1);
        let m = Matrix::from_data(4, dim, data[..4 * dim].to_vec());
        let got = dot_slice_x4(
            [m.row_ptr(0), m.row_ptr(1), m.row_ptr(2), m.row_ptr(3)],
            &y[..dim],
        );
        for (j, &g) in got.iter().enumerate() {
            prop_assert_eq!(g.to_bits(), m.row_ptr(j).dot_slice(&y[..dim]).to_bits());
        }
    }

    #[test]
    fn fused_step_matches_two_pass_reference(
        out in vec(-3.0f32..3.0, 1..64),
        x in vec(-3.0f32..3.0, 1..64),
        g in -0.5f32..0.5,
    ) {
        let n = out.len().min(x.len());
        // Reference: accumulate_scaled then axpy over the same initial row.
        let mut expect_out = out[..n].to_vec();
        let mut expect_grad = vec![0.0f32; n];
        for ((eg, eo), &xi) in expect_grad.iter_mut().zip(expect_out.iter_mut()).zip(&x[..n]) {
            *eg += g * *eo;
            *eo += g * xi;
        }
        let mut got_out = out[..n].to_vec();
        let mut got_grad = vec![0.0f32; n];
        kernels::fused_step(g, &x[..n], &mut got_out, &mut got_grad);
        let gb: Vec<u32> = got_out.iter().chain(&got_grad).map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = expect_out.iter().chain(&expect_grad).map(|v| v.to_bits()).collect();
        prop_assert_eq!(gb, wb);
    }

    #[test]
    fn fused_grad_step_matches_accumulate_then_axpy(
        row in vec(-3.0f32..3.0, 1..64),
        x in vec(-3.0f32..3.0, 1..64),
        g in -0.5f32..0.5,
    ) {
        let n = row.len().min(x.len());
        let fused = Matrix::from_data(1, n, row[..n].to_vec());
        let two_pass = Matrix::from_data(1, n, row[..n].to_vec());
        let mut fused_grad = vec![0.0f32; n];
        let mut ref_grad = vec![0.0f32; n];
        fused.row_ptr(0).fused_grad_step(g, &x[..n], &mut fused_grad);
        two_pass.row_ptr(0).accumulate_scaled(g, &mut ref_grad);
        two_pass.row_ptr(0).axpy_slice(g, &x[..n]);
        let gb: Vec<u32> = fused.row(0).iter().chain(&fused_grad).map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = two_pass.row(0).iter().chain(&ref_grad).map(|v| v.to_bits()).collect();
        prop_assert_eq!(gb, wb);
    }

    #[test]
    fn elementwise_kernels_match_scalar_references(
        a in vec(-3.0f32..3.0, 0..64),
        b in vec(-3.0f32..3.0, 0..64),
        s in -2.0f32..2.0,
    ) {
        let n = a.len().min(b.len());

        let mut got = a[..n].to_vec();
        kernels::axpy(s, &b[..n], &mut got);
        let mut want = a[..n].to_vec();
        for (w, &bi) in want.iter_mut().zip(&b[..n]) { *w += s * bi; }
        prop_assert_eq!(bits(&got), bits(&want));

        let mut got = a[..n].to_vec();
        kernels::add_assign(&mut got, &b[..n]);
        let mut want = a[..n].to_vec();
        for (w, &bi) in want.iter_mut().zip(&b[..n]) { *w += bi; }
        prop_assert_eq!(bits(&got), bits(&want));

        let mut got = a[..n].to_vec();
        kernels::scale(&mut got, s);
        let mut want = a[..n].to_vec();
        for w in want.iter_mut() { *w *= s; }
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
