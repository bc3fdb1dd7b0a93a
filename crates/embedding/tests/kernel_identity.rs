//! Bit-identity regression suite for the DESIGN.md §8 kernel layer.
//!
//! Every unrolled or batched kernel must agree with its scalar reference
//! to the last bit (`to_bits` equality, i.e. 0 ULP): the single-threaded
//! trainer's golden-checksum test depends on it, and a silent reduction
//! reorder in a "faster" kernel would change training trajectories.
//!
//! Deterministic loops pin every remainder length `0..=17` (all residues
//! of the 8-wide and 4-wide unroll factors, twice over; `0..=70` for the
//! scaled dots, `1..=40` for the training dots and the register-blocked
//! step); proptests then sweep longer lengths and arbitrary values.

use proptest::collection::vec;
use proptest::prelude::{prop_assert_eq, proptest};
use sisg_corpus::TokenId;
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

/// The training dot on both row access paths — the exact `Matrix`
/// batch and the Hogwild `RowPtr` one and four at a time — reduces in
/// `dot_scalar_ref`'s lane order, so all of them agree with it, and with
/// `kernels::dot`, at 0 ULP.
#[test]
fn training_dots_match_lane_reference_on_every_row_access_path() {
    for dim in 1..=40 {
        let rows = 13;
        let m = Matrix::from_data(rows, dim, values(rows * dim, dim as u32));
        let y = values(dim, 6);
        for n in 0..=rows {
            // Row lists with repeats: scoring only loads, so a repeated row
            // scores the same twice.
            let ts: Vec<TokenId> = (0..n).map(|k| TokenId(((k * 5) % rows) as u32)).collect();
            let mut out = vec![f32::NAN; n];
            m.dot_rows(&ts, &y, &mut out);
            for (k, t) in ts.iter().enumerate() {
                let want = kernels::dot_scalar_ref(m.row(t.index()), &y).to_bits();
                assert_eq!(out[k].to_bits(), want, "dim {dim} n {n} row {k}");
                assert_eq!(kernels::dot(m.row(t.index()), &y).to_bits(), want);
                assert_eq!(m.row_ptr(t.index()).dot_slice(&y).to_bits(), want);
            }
        }
        let quad = [0, 3, 3, 7].map(|r| m.row_ptr(r));
        let got = dot_slice_x4(quad, &y);
        for (j, r) in [0, 3, 3, 7].into_iter().enumerate() {
            let want = kernels::dot_scalar_ref(m.row(r), &y);
            assert_eq!(got[j].to_bits(), want.to_bits(), "x4 dim {dim} lane {j}");
        }
    }
}

/// The register-blocked step equals `fused_step` applied row by row in
/// list order, bit for bit, for dims 1..=40 (every chunk width and tail)
/// and 1..=24 rows — repeated rows included, where a later step must read
/// what an earlier one stored.
#[test]
fn blocked_step_equals_sequential_fused_steps() {
    for dim in 1..=40 {
        for n in 1..=24 {
            let rows = 9;
            let block = values(rows * dim, (dim * 31 + n) as u32);
            let ts: Vec<TokenId> = (0..n)
                .map(|k| TokenId(((k * 7 + dim) % rows) as u32))
                .collect();
            let gs: Vec<f32> = values(n, 77).iter().map(|g| g * 0.01).collect();
            let v = values(dim, 78);
            let grad0 = values(dim, 79);

            let (mut got_block, mut got_grad) = (block.clone(), grad0.clone());
            kernels::fused_step_rows(&mut got_block, &ts, &gs, &v, &mut got_grad);

            let (mut want_block, mut want_grad) = (block, grad0);
            for (t, &g) in ts.iter().zip(&gs) {
                let row = &mut want_block[t.index() * dim..(t.index() + 1) * dim];
                kernels::fused_step(g, &v, row, &mut want_grad);
            }
            assert_eq!(bits(&got_block), bits(&want_block), "dim {dim} n {n}");
            assert_eq!(bits(&got_grad), bits(&want_grad), "dim {dim} n {n}");
        }
    }
}

#[test]
#[should_panic(expected = "out of bounds")]
fn blocked_step_rejects_a_row_past_the_block() {
    let mut block = vec![0.0f32; 3 * 4];
    let mut grad = vec![0.0f32; 4];
    kernels::fused_step_rows(
        &mut block,
        &[TokenId(1), TokenId(3)],
        &[0.1, 0.1],
        &[1.0; 4],
        &mut grad,
    );
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
    fn blocked_step_matches_sequential_fused_steps(
        data in vec(-3.0f32..3.0, 64..400),
        picks in vec(0usize..6, 1..24),
        g in -0.5f32..0.5,
        dim in 1usize..48,
    ) {
        let dim = dim.min(data.len() / 6);
        let block = data[..6 * dim].to_vec();
        let ts: Vec<TokenId> = picks.iter().map(|&p| TokenId(p as u32)).collect();
        let gs: Vec<f32> = (0..ts.len()).map(|k| g * (k as f32 + 1.0) / 8.0).collect();
        let v = data[data.len() - dim..].to_vec();
        let (mut got, mut got_grad) = (block.clone(), vec![0.0f32; dim]);
        kernels::fused_step_rows(&mut got, &ts, &gs, &v, &mut got_grad);
        let (mut want, mut want_grad) = (block, vec![0.0f32; dim]);
        for (t, &gk) in ts.iter().zip(&gs) {
            kernels::fused_step(gk, &v, &mut want[t.index() * dim..(t.index() + 1) * dim], &mut want_grad);
        }
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(bits(&got_grad), bits(&want_grad));
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
