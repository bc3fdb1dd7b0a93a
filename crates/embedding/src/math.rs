//! Vector math for the retrieval / evaluation / serving paths, backed by
//! the unrolled kernels in [`crate::kernels`].
//!
//! [`dot`] here uses the 4-accumulator lane-order kernel, the order the
//! training scores use too (`kernels::dot_rows`);
//! the serving scan keeps the serial order (see DESIGN.md §8).

use crate::kernels;

/// Inner product `x · y` (unrolled, lane order).
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    kernels::dot(x, y)
}

/// `y += a * x`.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    kernels::axpy(a, x, y)
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

/// Cosine similarity; zero when either vector is all-zero.
#[inline]
pub fn cosine(x: &[f32], y: &[f32]) -> f32 {
    let nx = norm(x);
    let ny = norm(y);
    if nx == 0.0 || ny == 0.0 {
        0.0
    } else {
        dot(x, y) / (nx * ny)
    }
}

/// Scales `x` in place by `a`.
#[inline]
pub fn scale(x: &mut [f32], a: f32) {
    kernels::scale(x, a)
}

/// The factor [`normalize`] scales `x` by: `1 / ‖x‖`, or `1.0` when the
/// norm is not positive (an all-zero vector, which `x · 1.0` leaves as
/// is). Cached per row, it lets a scorer read raw rows and still produce
/// the normalized row's bits (`kernels::dot_ordered_scaled`).
#[inline]
pub fn inv_norm(x: &[f32]) -> f32 {
    let n = norm(x);
    if n > 0.0 {
        1.0 / n
    } else {
        1.0
    }
}

/// Normalizes `x` to unit length in place; leaves all-zero vectors alone.
#[inline]
pub fn normalize(x: &mut [f32]) {
    scale(x, inv_norm(x));
}

/// Accumulates `src` into `dst` (`dst += src`).
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    kernels::add_assign(dst, src);
}

/// Element-wise mean of `vectors` (each of length `dim`) into a new vector.
/// Returns a zero vector when `vectors` is empty.
pub fn mean(vectors: &[&[f32]], dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    if vectors.is_empty() {
        return out;
    }
    for v in vectors {
        add_assign(&mut out, v);
    }
    scale(&mut out, 1.0 / vectors.len() as f32);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn cosine_bounds_and_zero_handling() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn normalize_unit_length() {
        let mut x = vec![3.0, 4.0];
        normalize(&mut x);
        assert!((norm(&x) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_of_vectors() {
        let a = [1.0f32, 3.0];
        let b = [3.0f32, 5.0];
        let m = mean(&[&a, &b], 2);
        assert_eq!(m, vec![2.0, 4.0]);
        assert_eq!(mean(&[], 2), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
