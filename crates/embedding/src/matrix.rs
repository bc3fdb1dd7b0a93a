//! A flat row-major `f32` matrix with *sound* Hogwild-style shared mutation.
//!
//! Embedding matrices are stored as one contiguous allocation of
//! [`AtomicU32`] cells holding `f32` bit patterns; row `i` is the embedding
//! of token `i`. Parallel SGNS training follows the Hogwild recipe
//! (lock-free, racy-but-benign updates, as in the original word2vec code),
//! exposed through [`Matrix::row_ptr`] / [`RowPtr`].
//!
//! # Soundness contract
//!
//! The previous design handed out aliasing `&mut [f32]` slices across
//! threads — a data race and therefore undefined behavior under Rust's
//! memory model, however benign it looks in practice. This design never
//! materializes an aliased `&mut`:
//!
//! - Concurrent access goes through [`RowPtr`], whose accessors are
//!   `Relaxed` per-element atomic loads/stores of the `f32` bit pattern.
//!   On every mainstream ISA these compile to the same plain 32-bit moves
//!   the unsound version emitted, so the Hogwild inner loop costs the same
//!   — but each individual read/write is now a *defined* atomic access.
//!   Racing threads may still interleave read-modify-write sequences and
//!   lose updates (that is the Hogwild trade), yet every value observed is
//!   one some thread actually wrote: no tearing, no UB.
//! - [`Matrix::row`] / [`Matrix::as_slice`] return plain `&[f32]` views
//!   for the quiescent phases (initialization, evaluation, serialization,
//!   between-epoch barriers). Their contract is that no thread is
//!   concurrently writing; this is a *logical* requirement for fresh
//!   values, not a soundness precondition of the caller — the unsafe cast
//!   below is justified by layout compatibility alone.
//! - [`Matrix::row_mut`] requires `&mut self` and is therefore
//!   race-free by construction.
//!
//! `Matrix` is `Send + Sync` automatically (atomics are `Sync`); the old
//! blanket `unsafe impl` is gone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, Ordering};

/// A dense `rows × dim` matrix of `f32`, stored as atomic bit cells so
/// that Hogwild updates are defined behavior.
pub struct Matrix {
    data: Box<[AtomicU32]>,
    rows: usize,
    dim: usize,
}

/// A shared, lock-free view of one matrix row — the Hogwild entry point.
///
/// Copyable and cheap; obtained from [`Matrix::row_ptr`]. All accessors
/// use `Relaxed` per-element atomic operations, so concurrent use from
/// many threads is sound. [`RowPtr::add_elem`] is a non-atomic
/// read-modify-write *sequence* (load, add, store): concurrent adds to
/// the same cell may lose one of the updates, which is exactly the
/// approximation Hogwild SGD tolerates.
///
/// # Kernel contract (DESIGN.md §8)
///
/// The batched methods ([`RowPtr::dot_slice`], [`RowPtr::axpy_slice`],
/// [`RowPtr::fused_grad_step`], [`RowPtr::accumulate_scaled`], …) are the
/// *only* way hot loops should touch a row; per-element access through
/// `get_elem`/`set_elem`/`add_elem` in `crates/sgns` and `crates/eges` is
/// rejected by `xtask lint`. Reductions here preserve strict serial
/// summation order so the single-threaded training path stays
/// bit-reproducible — the batched speedup comes from [`dot_slice_x4`],
/// which interleaves four *independent* serial chains, never from
/// reordering one chain. Elementwise kernels are unrolled 4-wide, which
/// cannot change results (each element's ops keep their order).
#[derive(Clone, Copy)]
pub struct RowPtr<'a> {
    cells: &'a [AtomicU32],
}

impl<'a> RowPtr<'a> {
    /// Number of elements in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the row has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads element `d` (relaxed atomic load).
    #[inline]
    fn get_elem(&self, d: usize) -> f32 {
        // ORDERING: Relaxed — independent f32 bit-cells; Hogwild tolerates stale
        // reads and lost updates, and no other memory is published through these
        // atomics (DESIGN.md §4). Word-width atomicity alone rules out tearing.
        f32::from_bits(self.cells[d].load(Ordering::Relaxed))
    }

    /// Writes element `d` (relaxed atomic store). Cold-path accessor: hot
    /// loops must use the batched kernels (enforced by `xtask lint` in
    /// the training crates).
    ///
    /// # Panics
    /// Panics when `d >= len()`.
    #[inline]
    pub fn set_elem(&self, d: usize, v: f32) {
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        self.cells[d].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to element `d` as a load/add/store sequence.
    /// Cold-path accessor; see [`RowPtr::set_elem`].
    ///
    /// Not an atomic fetch-add: a concurrent update between the load and
    /// the store is overwritten (a lost update, permitted by Hogwild).
    #[inline]
    pub fn add_elem(&self, d: usize, delta: f32) {
        self.set_elem(d, self.get_elem(d) + delta);
    }

    /// Copies the row into `dst`.
    ///
    /// # Panics
    /// Panics when `dst.len() != len()`.
    #[inline]
    pub fn load_into(&self, dst: &mut [f32]) {
        assert_eq!(dst.len(), self.cells.len(), "length mismatch");
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        for (out, cell) in dst.iter_mut().zip(self.cells) {
            *out = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// Overwrites the row from `src`.
    ///
    /// # Panics
    /// Panics when `src.len() != len()`.
    #[inline]
    pub fn store_from(&self, src: &[f32]) {
        assert_eq!(src.len(), self.cells.len(), "length mismatch");
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        for (cell, &v) in self.cells.iter().zip(src) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Dot product of two rows via relaxed loads.
    ///
    /// # Examples
    /// ```
    /// use sisg_embedding::Matrix;
    ///
    /// let m = Matrix::from_data(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    /// let d = m.row_ptr(0).dot(&m.row_ptr(1));
    /// assert_eq!(d, 1.0 * 4.0 + 2.0 * 5.0 + 3.0 * 6.0);
    /// ```
    ///
    /// # Panics
    /// Panics when the rows differ in length.
    #[inline]
    pub fn dot(&self, other: &RowPtr<'_>) -> f32 {
        assert_eq!(self.len(), other.len(), "length mismatch");
        let mut acc = 0.0f32;
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        for (a, b) in self.cells.iter().zip(other.cells) {
            acc += f32::from_bits(a.load(Ordering::Relaxed))
                * f32::from_bits(b.load(Ordering::Relaxed));
        }
        acc
    }

    /// Dot product of the row with a plain slice via relaxed loads —
    /// THE training dot kernel. Accumulation is a strict left-to-right
    /// serial chain; this order is contractual (the golden-checksum test
    /// in `crates/sgns` pins it). To compute several dots fast, batch
    /// independent rows through [`dot_slice_x4`] rather than reordering
    /// this reduction.
    ///
    /// # Examples
    /// ```
    /// use sisg_embedding::Matrix;
    ///
    /// let m = Matrix::from_data(1, 3, vec![1.0, 2.0, 3.0]);
    /// assert_eq!(m.row_ptr(0).dot_slice(&[1.0, 0.0, -1.0]), 1.0 - 3.0);
    /// ```
    ///
    /// # Panics
    /// Panics when `xs.len() != len()`.
    #[inline]
    pub fn dot_slice(&self, xs: &[f32]) -> f32 {
        assert_eq!(self.len(), xs.len(), "length mismatch");
        let mut acc = 0.0f32;
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        for (cell, &x) in self.cells.iter().zip(xs) {
            acc += f32::from_bits(cell.load(Ordering::Relaxed)) * x;
        }
        acc
    }

    /// `self += a · xs` with a plain-slice right-hand side. Unrolled
    /// 4-wide (elementwise ⇒ bit-identical to the scalar loop).
    ///
    /// # Examples
    /// ```
    /// use sisg_embedding::Matrix;
    ///
    /// let m = Matrix::from_data(1, 2, vec![1.0, 2.0]);
    /// m.row_ptr(0).axpy_slice(-1.0, &[0.5, 0.5]);
    /// assert_eq!(m.row(0), &[0.5, 1.5]);
    /// ```
    ///
    /// # Panics
    /// Panics when `xs.len() != len()`.
    #[inline]
    pub fn axpy_slice(&self, a: f32, xs: &[f32]) {
        assert_eq!(self.len(), xs.len(), "length mismatch");
        let mut cc = self.cells.chunks_exact(4);
        let mut xc = xs.chunks_exact(4);
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        for (cells, x) in (&mut cc).zip(&mut xc) {
            let v0 = f32::from_bits(cells[0].load(Ordering::Relaxed)) + a * x[0];
            let v1 = f32::from_bits(cells[1].load(Ordering::Relaxed)) + a * x[1];
            let v2 = f32::from_bits(cells[2].load(Ordering::Relaxed)) + a * x[2];
            let v3 = f32::from_bits(cells[3].load(Ordering::Relaxed)) + a * x[3];
            cells[0].store(v0.to_bits(), Ordering::Relaxed);
            cells[1].store(v1.to_bits(), Ordering::Relaxed);
            cells[2].store(v2.to_bits(), Ordering::Relaxed);
            cells[3].store(v3.to_bits(), Ordering::Relaxed);
        }
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        for (cell, &x) in cc.remainder().iter().zip(xc.remainder()) {
            let v = f32::from_bits(cell.load(Ordering::Relaxed)) + a * x;
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// `dst += a · self` — accumulates the row, scaled, into a caller-owned
    /// buffer (the gradient-accumulation step of SGNS). Unrolled 4-wide
    /// (elementwise ⇒ bit-identical to the scalar loop).
    ///
    /// # Examples
    /// ```
    /// use sisg_embedding::Matrix;
    ///
    /// let m = Matrix::from_data(1, 2, vec![3.0, 4.0]);
    /// let mut grad = vec![1.0f32, 1.0];
    /// m.row_ptr(0).accumulate_scaled(2.0, &mut grad);
    /// assert_eq!(grad, [7.0, 9.0]);
    /// ```
    ///
    /// # Panics
    /// Panics when `dst.len() != len()`.
    #[inline]
    pub fn accumulate_scaled(&self, a: f32, dst: &mut [f32]) {
        assert_eq!(self.len(), dst.len(), "length mismatch");
        let mut dc = dst.chunks_exact_mut(4);
        let mut cc = self.cells.chunks_exact(4);
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        for (slots, cells) in (&mut dc).zip(&mut cc) {
            slots[0] += a * f32::from_bits(cells[0].load(Ordering::Relaxed));
            slots[1] += a * f32::from_bits(cells[1].load(Ordering::Relaxed));
            slots[2] += a * f32::from_bits(cells[2].load(Ordering::Relaxed));
            slots[3] += a * f32::from_bits(cells[3].load(Ordering::Relaxed));
        }
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        for (slot, cell) in dc.into_remainder().iter_mut().zip(cc.remainder()) {
            *slot += a * f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// The fused SGD update of one sample step, Hogwild path: per element,
    /// `grad[d] += g · self[d]` using the *pre-update* value, then
    /// `self[d] += g · v[d]` — one pass over the row's cache lines instead
    /// of the separate [`RowPtr::accumulate_scaled`] + [`RowPtr::axpy_slice`]
    /// passes. Per-element op order matches the two-pass sequence exactly
    /// (`v` is a plain slice, so the second pass cannot observe the first's
    /// writes), hence bit-identical. Unrolled 4-wide.
    ///
    /// # Panics
    /// Panics when `v.len()` or `grad.len()` differ from `len()`.
    #[inline]
    pub fn fused_grad_step(&self, g: f32, v: &[f32], grad: &mut [f32]) {
        assert_eq!(self.len(), v.len(), "length mismatch");
        assert_eq!(self.len(), grad.len(), "length mismatch");
        let mut cc = self.cells.chunks_exact(4);
        let mut vc = v.chunks_exact(4);
        let mut gc = grad.chunks_exact_mut(4);
        // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
        for ((cells, vs), gs) in (&mut cc).zip(&mut vc).zip(&mut gc) {
            let o0 = f32::from_bits(cells[0].load(Ordering::Relaxed));
            let o1 = f32::from_bits(cells[1].load(Ordering::Relaxed));
            let o2 = f32::from_bits(cells[2].load(Ordering::Relaxed));
            let o3 = f32::from_bits(cells[3].load(Ordering::Relaxed));
            gs[0] += g * o0;
            gs[1] += g * o1;
            gs[2] += g * o2;
            gs[3] += g * o3;
            cells[0].store((o0 + g * vs[0]).to_bits(), Ordering::Relaxed);
            cells[1].store((o1 + g * vs[1]).to_bits(), Ordering::Relaxed);
            cells[2].store((o2 + g * vs[2]).to_bits(), Ordering::Relaxed);
            cells[3].store((o3 + g * vs[3]).to_bits(), Ordering::Relaxed);
        }
        for ((cell, &x), slot) in cc
            .remainder()
            .iter()
            .zip(vc.remainder())
            .zip(gc.into_remainder())
        {
            // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
            let old = f32::from_bits(cell.load(Ordering::Relaxed));
            *slot += g * old;
            cell.store((old + g * x).to_bits(), Ordering::Relaxed);
        }
    }
}

/// Four order-preserving [`RowPtr::dot_slice`] products against a shared
/// right-hand side, with the four serial accumulation chains interleaved
/// for instruction-level parallelism — the batched dot phase of the SGD
/// step. Each result is bit-identical to `rows[i].dot_slice(xs)`; only
/// the scheduling changes, so this is safe on the bit-reproducible
/// training path *when the four rows are known to be distinct* (a row fed
/// to two lanes would observe no writes either way — the kernel only
/// loads — but callers batch steps, and steps write; the distinctness
/// requirement lives in the caller, see `sisg-sgns`).
///
/// # Panics
/// Panics when any row's length differs from `xs.len()`.
#[inline]
pub fn dot_slice_x4(rows: [RowPtr<'_>; 4], xs: &[f32]) -> [f32; 4] {
    for r in &rows {
        assert_eq!(r.len(), xs.len(), "length mismatch");
    }
    let [r0, r1, r2, r3] = rows;
    let mut a0 = 0.0f32;
    let mut a1 = 0.0f32;
    let mut a2 = 0.0f32;
    let mut a3 = 0.0f32;
    let it = r0
        .cells
        .iter()
        .zip(r1.cells)
        .zip(r2.cells)
        .zip(r3.cells)
        .zip(xs);
    // ORDERING: Relaxed — same Hogwild bit-cell argument as above.
    for ((((c0, c1), c2), c3), &x) in it {
        a0 += f32::from_bits(c0.load(Ordering::Relaxed)) * x;
        a1 += f32::from_bits(c1.load(Ordering::Relaxed)) * x;
        a2 += f32::from_bits(c2.load(Ordering::Relaxed)) * x;
        a3 += f32::from_bits(c3.load(Ordering::Relaxed)) * x;
    }
    [a0, a1, a2, a3]
}

impl std::fmt::Debug for RowPtr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowPtr")
            .field("len", &self.cells.len())
            .finish_non_exhaustive()
    }
}

fn to_cells(data: Vec<f32>) -> Box<[AtomicU32]> {
    data.into_iter()
        .map(|v| AtomicU32::new(v.to_bits()))
        .collect()
}

impl Matrix {
    /// Creates a zero matrix. The cells come from the allocator already
    /// zeroed and are not written here, so a large matrix costs no write
    /// pass, and no resident page for any row that is never written (an
    /// untrained output matrix, the rows of a served store nobody scores).
    pub fn zeros(rows: usize, dim: usize) -> Self {
        let cells = Box::<[AtomicU32]>::new_zeroed_slice(rows * dim);
        Self {
            // SAFETY: `AtomicU32` has the same in-memory representation as
            // `u32` (guaranteed by std), for which all-zero bytes are the
            // valid value 0 — the bit pattern of `0.0f32` — so every cell
            // of the zeroed allocation is initialized.
            data: unsafe { cells.assume_init() },
            rows,
            dim,
        }
    }

    /// Creates a matrix with entries uniform in `[-0.5/dim, 0.5/dim)` — the
    /// standard word2vec input-matrix initialization.
    pub fn uniform_init(rows: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let half = 0.5 / dim as f32;
        let data: Vec<f32> = (0..rows * dim)
            .map(|_| rng.gen_range(-half..half))
            .collect();
        Self {
            data: to_cells(data),
            rows,
            dim,
        }
    }

    /// Builds a matrix from raw row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * dim`.
    pub fn from_data(rows: usize, dim: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * dim, "data length mismatch");
        Self {
            data: to_cells(data),
            rows,
            dim,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a shared lock-free view — sound under concurrent use
    /// from any number of threads (see [`RowPtr`]).
    ///
    /// # Panics
    /// Panics when `i >= rows()`.
    #[inline]
    pub fn row_ptr(&self, i: usize) -> RowPtr<'_> {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        RowPtr {
            cells: &self.data[i * self.dim..(i + 1) * self.dim],
        }
    }

    /// Bounds-checked variant of [`Matrix::row_ptr`]: `None` when
    /// `i >= rows()`.
    #[inline]
    pub fn try_row_ptr(&self, i: usize) -> Option<RowPtr<'_>> {
        if i < self.rows {
            Some(RowPtr {
                cells: &self.data[i * self.dim..(i + 1) * self.dim],
            })
        } else {
            None
        }
    }

    /// Row `i` as an immutable plain slice — the quiescent-phase reader
    /// (initialization, evaluation, serialization). Callers that need
    /// values while writers are active must use [`Matrix::row_ptr`];
    /// this view may observe stale data mid-training but is always
    /// memory-safe.
    ///
    /// # Panics
    /// Panics when `i >= rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        let cells = &self.data[i * self.dim..(i + 1) * self.dim];
        // SAFETY: `AtomicU32` has the same size and alignment as `u32`
        // (guaranteed by std), whose bit patterns we store from `f32`
        // values; reinterpreting the shared slice as `&[f32]` is a pure
        // layout cast. Non-atomic reads of these cells are sound — the
        // only writers go through `&mut self` or `RowPtr`'s atomic stores,
        // and mixing an atomic store with this plain load is a race the
        // quiescence contract above rules out for correctness, while the
        // read itself stays defined for any 32-bit pattern.
        unsafe { std::slice::from_raw_parts(cells.as_ptr().cast::<f32>(), cells.len()) }
    }

    /// Row `i` as a mutable slice through `&mut self` (single-threaded
    /// path; exclusive by construction).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        let cells = &mut self.data[i * self.dim..(i + 1) * self.dim];
        // SAFETY: same layout argument as `row`; `&mut self` guarantees
        // no other view of the cells exists, so a unique `&mut [f32]` is
        // sound.
        unsafe { std::slice::from_raw_parts_mut(cells.as_mut_ptr().cast::<f32>(), cells.len()) }
    }

    /// The full row-major buffer as a plain slice (quiescent-phase
    /// reader; see [`Matrix::row`] for the contract).
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: same layout argument as `row`, over the whole buffer.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<f32>(), self.data.len()) }
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            data: to_cells(self.as_slice().to_vec()),
            rows: self.rows,
            dim: self.dim,
        }
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_rows() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 4);
        assert!(m.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zeros_is_an_ordinary_zero_matrix() {
        // The cells are taken zeroed from the allocator, never written:
        // every view must still read them as 0.0, bit for bit.
        let reference = Matrix::from_data(5, 3, vec![0.0; 15]);
        let mut m = Matrix::zeros(5, 3);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m), bits(&reference));
        assert_eq!(bits(&m.clone()), bits(&reference));
        assert_eq!(m.row_ptr(4).get_elem(2).to_bits(), 0);

        m.row_mut(3).copy_from_slice(&[1.0, -2.0, 3.5]);
        m.row_ptr(0).set_elem(1, 7.0);
        let copy = m.clone();
        for view in [&m, &copy] {
            assert_eq!(view.row(3), &[1.0, -2.0, 3.5]);
            assert_eq!(view.row(0), &[0.0, 7.0, 0.0]);
            assert_eq!(view.row(4), &[0.0; 3], "unwritten rows stay zero");
        }
        assert_eq!(m.as_slice().len(), 15);
    }

    #[test]
    fn zeros_with_an_empty_shape() {
        for (rows, dim) in [(0, 4), (4, 0), (0, 0)] {
            let m = Matrix::zeros(rows, dim);
            assert_eq!((m.rows(), m.dim()), (rows, dim));
            assert!(m.as_slice().is_empty());
            assert!(m.clone().as_slice().is_empty());
        }
        assert!(Matrix::zeros(4, 0).row(3).is_empty());
    }

    #[test]
    fn uniform_init_is_bounded_and_seeded() {
        let a = Matrix::uniform_init(10, 8, 1);
        let b = Matrix::uniform_init(10, 8, 1);
        let c = Matrix::uniform_init(10, 8, 2);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
        let bound = 0.5 / 8.0;
        assert!(a.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn row_mut_writes_are_visible() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn row_ptr_reads_and_writes() {
        let m = Matrix::from_data(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = m.row_ptr(1);
        assert_eq!(r.len(), 3);
        assert_eq!(r.get_elem(0), 4.0);
        r.set_elem(0, 9.0);
        r.add_elem(1, 0.5);
        assert_eq!(m.row(1), &[9.0, 5.5, 6.0]);
        let mut buf = [0.0f32; 3];
        r.load_into(&mut buf);
        assert_eq!(buf, [9.0, 5.5, 6.0]);
        r.store_from(&[1.0, 1.0, 1.0]);
        assert_eq!(m.row(1), &[1.0, 1.0, 1.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0], "row 0 untouched");
    }

    #[test]
    fn row_ptr_dot() {
        let m = Matrix::from_data(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let d = m.row_ptr(0).dot(&m.row_ptr(1));
        assert_eq!(d, 4.0 + 10.0 + 18.0);
    }

    #[test]
    fn row_ptr_batched_kernels_match_scalar() {
        let m = Matrix::from_data(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r0 = m.row_ptr(0);
        let r1 = m.row_ptr(1);
        assert_eq!(r0.dot_slice(&[4.0, 5.0, 6.0]), r0.dot(&r1));

        r1.axpy_slice(2.0, &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[6.0, 9.0, 12.0]);

        r1.axpy_slice(-1.0, &[1.0, 1.0, 1.0]);
        assert_eq!(m.row(1), &[5.0, 8.0, 11.0]);

        let mut acc = vec![1.0f32; 3];
        r0.accumulate_scaled(3.0, &mut acc);
        assert_eq!(acc, [4.0, 7.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_slice_length_mismatch_panics() {
        let m = Matrix::zeros(1, 3);
        m.row_ptr(0).axpy_slice(1.0, &[0.0; 2]);
    }

    #[test]
    fn shared_mutation_across_threads() {
        let m = Matrix::zeros(8, 4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..8 {
                        if i % 4 == t {
                            let row = m.row_ptr(i);
                            for d in 0..row.len() {
                                row.set_elem(d, i as f32);
                            }
                        }
                    }
                });
            }
        });
        for i in 0..8 {
            assert!(m.row(i).iter().all(|&v| v == i as f32));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m.row(1);
    }

    #[test]
    fn try_row_ptr_bounds() {
        let m = Matrix::zeros(2, 2);
        assert!(m.try_row_ptr(1).is_some());
        assert!(m.try_row_ptr(2).is_none());
    }

    #[test]
    fn dot_slice_x4_matches_four_dot_slices() {
        // Awkward dim (not a multiple of 4) to exercise full coverage.
        let m = Matrix::uniform_init(4, 13, 3);
        let xs: Vec<f32> = (0..13).map(|i| (i as f32 * 0.7).cos()).collect();
        let got = dot_slice_x4(
            [m.row_ptr(0), m.row_ptr(1), m.row_ptr(2), m.row_ptr(3)],
            &xs,
        );
        for (r, &g) in got.iter().enumerate() {
            assert_eq!(g.to_bits(), m.row_ptr(r).dot_slice(&xs).to_bits());
        }
    }

    #[test]
    fn fused_grad_step_matches_two_pass_sequence() {
        // The fused kernel must be bit-identical to accumulate_scaled
        // followed by axpy_slice, for dims hitting both unrolled body and
        // remainder.
        for dim in [1usize, 3, 4, 7, 8, 13] {
            let m_fused = Matrix::uniform_init(1, dim, 5);
            let m_two = m_fused.clone();
            let v: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.3).sin()).collect();
            let g = 0.02f32;
            let mut grad_fused = vec![0.1f32; dim];
            let mut grad_two = grad_fused.clone();

            m_fused.row_ptr(0).fused_grad_step(g, &v, &mut grad_fused);
            m_two.row_ptr(0).accumulate_scaled(g, &mut grad_two);
            m_two.row_ptr(0).axpy_slice(g, &v);

            for d in 0..dim {
                assert_eq!(grad_fused[d].to_bits(), grad_two[d].to_bits());
                assert_eq!(
                    m_fused.row(0)[d].to_bits(),
                    m_two.row(0)[d].to_bits(),
                    "dim {dim} element {d}"
                );
            }
        }
    }

    #[test]
    fn unrolled_axpy_handles_remainders() {
        for dim in [1usize, 2, 3, 5, 6, 7, 9] {
            let m = Matrix::zeros(2, dim);
            let xs: Vec<f32> = (0..dim).map(|i| i as f32 + 1.0).collect();
            m.row_ptr(0).axpy_slice(2.0, &xs);
            for d in 0..dim {
                assert_eq!(m.row(0)[d], 2.0 * (d as f32 + 1.0));
            }
            m.row_ptr(1).axpy_slice(0.5, m.row(0));
            for d in 0..dim {
                assert_eq!(m.row(1)[d], d as f32 + 1.0);
            }
            let mut acc = vec![1.0f32; dim];
            m.row_ptr(1).accumulate_scaled(1.0, &mut acc);
            for (d, &a) in acc.iter().enumerate() {
                assert_eq!(a, 1.0 + d as f32 + 1.0);
            }
        }
    }
}
