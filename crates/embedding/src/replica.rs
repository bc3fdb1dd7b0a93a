//! Per-worker replica banks over [`Matrix`] rows — the storage half of the
//! intra-process ATNS trick (docs/PARALLELISM.md).
//!
//! The ownership-partitioned trainer gives every thread its own full copy
//! of the hot top-K rows so the contended head of the frequency
//! distribution is written without any sharing at all; between training
//! rounds the replicas are reconciled — the distributed hot set of
//! Section III-A, but across threads instead of machines. The merge is
//! [`ReplicaBank::merge_deltas`]: a trust-region-clipped delta sum, not an
//! average — averaging shrinks the round's aggregate gradient by the
//! replica count, so the sum is what preserves quality, and the per-row
//! movement clip is what keeps correlated overshoot from compounding into
//! divergence (docs/PARALLELISM.md §4 has the measurement that rejected
//! plain ATNS averaging).
//!
//! The merge arithmetic runs through the order-preserving kernels
//! ([`kernels::accumulate_delta`] / [`kernels::add_assign`]), so a merge is
//! deterministic: replicas are accumulated in index order and the result
//! is bit-identical to the sequential scalar reference (pinned by a test
//! below). Per-element accessors are lint-banned here (`xtask lint`
//! rule 6): this file is part of the training hot path's support code and
//! must stay on the slice kernels.

use crate::kernels;
use crate::matrix::Matrix;

/// `n` same-shaped replicas of a bank of rows, one per training thread.
///
/// The bank owns its replicas; [`ReplicaBank::replicas_mut`] splits them
/// into disjoint `&mut Matrix` borrows so each scoped thread trains its own
/// copy through the non-atomic kernel path, and the single-threaded merge
/// phase reconciles them afterwards.
#[derive(Debug)]
pub struct ReplicaBank {
    replicas: Vec<Matrix>,
    /// The value every replica started the current round from (the result
    /// of the previous merge) — the reference point for delta merging.
    base: Matrix,
    rows: usize,
    dim: usize,
}

impl ReplicaBank {
    /// Builds `n_replicas` copies of the given `source` rows: replica `r`'s
    /// row `i` starts as `source.row(rows[i])`.
    ///
    /// # Panics
    /// Panics when `n_replicas == 0` or any row index is out of bounds.
    pub fn gather(n_replicas: usize, source: &Matrix, rows: &[usize]) -> Self {
        assert!(n_replicas > 0, "a replica bank needs at least one replica");
        let dim = source.dim();
        let mut proto = Matrix::zeros(rows.len(), dim);
        for (slot, &r) in rows.iter().enumerate() {
            proto.row_mut(slot).copy_from_slice(source.row(r));
        }
        let replicas = (0..n_replicas).map(|_| proto.clone()).collect();
        Self {
            replicas,
            base: proto,
            rows: rows.len(),
            dim,
        }
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Rows per replica.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Replica `r`, read-only.
    pub fn replica(&self, r: usize) -> &Matrix {
        &self.replicas[r]
    }

    /// Disjoint mutable borrows of every replica, in index order — hand one
    /// to each training thread.
    pub fn replicas_mut(&mut self) -> Vec<&mut Matrix> {
        self.replicas.iter_mut().collect()
    }

    /// Per-element RMS bound on one row's movement in a single
    /// [`ReplicaBank::merge_deltas`] call — the trust region of the
    /// delta-sum merge. Summed deltas from disjoint pair slices are the
    /// correct full-gradient estimate and pass through untouched (typical
    /// per-round movements sit orders of magnitude below this bound); only
    /// runaway rounds — hot-dominated corpora where correlated summed
    /// steps compound into norm explosion — get clipped back onto the
    /// bound, which breaks the exponential feedback loop
    /// (docs/PARALLELISM.md §4).
    pub const DELTA_CLIP_RMS: f32 = 0.5;

    /// Delta-sum reconciliation with a trust-region clip: every row
    /// becomes `base + λ · Σᵣ (replicaᵣ − base)` where `λ = 1` whenever
    /// the summed movement's per-element RMS is within
    /// [`ReplicaBank::DELTA_CLIP_RMS`], else `λ` scales it back onto that
    /// bound. Written back to all replicas and to the base; returns the
    /// number of rows merged.
    ///
    /// This is the merge the partitioned trainer uses. Plain averaging
    /// divides the round's aggregate gradient by the replica count —
    /// measured as a large retrieval-quality loss (docs/PARALLELISM.md §4)
    /// — while the delta sum preserves full gradient mass, exactly like
    /// Hogwild's additive writes but applied at a deterministic barrier.
    /// The clip exists because the sum has a failure mode the average
    /// doesn't: on hot-dominated corpora every replica pushes a hot row
    /// the same way and the summed step overshoots, compounding into
    /// divergence; bounding one merge's movement breaks the compounding
    /// while leaving in-regime rounds bit-exact (`λ = 1` applies no
    /// scaling at all). Accumulation order is replica `0, 1, …, n−1`
    /// through [`kernels::accumulate_delta`] with an ordered norm, so the
    /// result is bit-deterministic.
    ///
    /// `scratch` must have length [`ReplicaBank::dim`].
    pub fn merge_deltas(&mut self, scratch: &mut [f32]) -> u64 {
        assert_eq!(scratch.len(), self.dim, "scratch/dim mismatch");
        let trust = Self::DELTA_CLIP_RMS * Self::DELTA_CLIP_RMS * self.dim as f32;
        for slot in 0..self.rows {
            let base = self.base.row(slot);
            scratch.fill(0.0);
            for replica in &self.replicas {
                kernels::accumulate_delta(scratch, replica.row(slot), base);
            }
            let sum_sq = kernels::dot_ordered(scratch, scratch);
            if sum_sq > trust {
                kernels::scale(scratch, (trust / sum_sq).sqrt());
            }
            kernels::add_assign(scratch, base);
            self.base.row_mut(slot).copy_from_slice(scratch);
            for replica in &mut self.replicas {
                replica.row_mut(slot).copy_from_slice(scratch);
            }
        }
        self.rows as u64
    }

    /// Copies the merged row `slot` of replica 0 into `dst.row(dst_row)` —
    /// the canonical-store write-back after a merge (all replicas are
    /// identical then, so replica 0 is the merged value).
    pub fn publish_row(&self, slot: usize, dst: &mut Matrix, dst_row: usize) {
        dst.row_mut(dst_row)
            .copy_from_slice(self.replicas[0].row(slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> ReplicaBank {
        let source = Matrix::uniform_init(6, 8, 42);
        ReplicaBank::gather(3, &source, &[4, 0, 2])
    }

    #[test]
    fn gather_copies_the_requested_rows_into_every_replica() {
        let source = Matrix::uniform_init(6, 8, 42);
        let b = ReplicaBank::gather(3, &source, &[4, 0, 2]);
        assert_eq!(b.n_replicas(), 3);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.dim(), 8);
        for r in 0..3 {
            assert_eq!(b.replica(r).row(0), source.row(4));
            assert_eq!(b.replica(r).row(1), source.row(0));
            assert_eq!(b.replica(r).row(2), source.row(2));
        }
    }

    #[test]
    fn merge_deltas_matches_the_scalar_reference_bit_for_bit() {
        let mut b = bank();
        let base: Vec<Vec<f32>> = (0..3).map(|slot| b.replica(0).row(slot).to_vec()).collect();
        // Drift the replicas apart deterministically, inside the trust
        // region so no clip applies.
        for (r, m) in b.replicas_mut().into_iter().enumerate() {
            for slot in 0..3 {
                for x in m.row_mut(slot) {
                    *x += (r as f32 + 1.0) * 0.03125;
                }
            }
        }
        // Scalar reference: base + Σᵣ (replicaᵣ − base), same order.
        let mut expect = [[0.0f32; 8]; 3];
        for (slot, row) in expect.iter_mut().enumerate() {
            for r in 0..3 {
                for ((e, v), base) in row.iter_mut().zip(b.replica(r).row(slot)).zip(&base[slot]) {
                    *e += v - base;
                }
            }
            for (e, base) in row.iter_mut().zip(&base[slot]) {
                *e += base;
            }
        }
        let merged = b.merge_deltas(&mut [0.0; 8]);
        assert_eq!(merged, 3);
        for (slot, row) in expect.iter().enumerate() {
            for r in 0..3 {
                let got: Vec<u32> = b.replica(r).row(slot).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "slot {slot} replica {r}");
            }
        }
    }

    #[test]
    fn merge_deltas_preserves_disjoint_gradient_mass() {
        let mut b = bank();
        let base: Vec<Vec<f32>> = (0..3).map(|slot| b.replica(0).row(slot).to_vec()).collect();
        // Each replica moves a *different* coordinate — disjoint
        // information; the total movement is far inside the trust region.
        for (r, m) in b.replicas_mut().into_iter().enumerate() {
            for slot in 0..3 {
                m.row_mut(slot)[2 * r] += 0.5;
            }
        }
        b.merge_deltas(&mut [0.0; 8]);
        // The merged row carries every replica's full delta — the SUM
        // (coordinates 0, 2, 4 each moved by 0.5), not the mean (0.5/3).
        for (slot, base_row) in base.iter().enumerate() {
            for r in 0..3 {
                for (d, (got, want)) in b.replica(r).row(slot).iter().zip(base_row).enumerate() {
                    let expect = if d % 2 == 0 && d < 6 {
                        want + 0.5
                    } else {
                        *want
                    };
                    assert!(
                        (got - expect).abs() < 1e-5,
                        "slot {slot} replica {r} dim {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_deltas_sums_moderate_parallel_deltas_in_full() {
        // Every replica applies the IDENTICAL small delta. Parallel deltas
        // from disjoint pair slices are the normal case for hot rows —
        // each thread saw the same distribution — and the sum is the
        // correct full-gradient estimate, so within the trust region the
        // merge must NOT shrink it (movement 3 · 0.05, not 0.05).
        let mut b = bank();
        let base: Vec<Vec<f32>> = (0..3).map(|slot| b.replica(0).row(slot).to_vec()).collect();
        for m in b.replicas_mut() {
            for slot in 0..3 {
                for x in m.row_mut(slot) {
                    *x += 0.05;
                }
            }
        }
        b.merge_deltas(&mut [0.0; 8]);
        for (slot, base_row) in base.iter().enumerate() {
            for (got, want) in b.replica(0).row(slot).iter().zip(base_row) {
                assert!((got - (want + 0.15)).abs() < 1e-5, "slot {slot}");
            }
        }
    }

    #[test]
    fn merge_deltas_clips_runaway_movement_to_the_trust_region() {
        // Divergence-regime round: the summed delta's per-element RMS far
        // exceeds DELTA_CLIP_RMS. The merge must scale the movement back
        // onto the bound (direction preserved, magnitude capped) so the
        // exponential feedback loop of correlated overshoot cannot
        // compound across rounds.
        let mut b = bank();
        let base: Vec<Vec<f32>> = (0..3).map(|slot| b.replica(0).row(slot).to_vec()).collect();
        for m in b.replicas_mut() {
            for slot in 0..3 {
                for x in m.row_mut(slot) {
                    *x += 10.0;
                }
            }
        }
        b.merge_deltas(&mut [0.0; 8]);
        // Summed movement is 30.0 per element; clipped RMS must equal the
        // bound exactly: every element moves by DELTA_CLIP_RMS.
        for (slot, base_row) in base.iter().enumerate() {
            for (got, want) in b.replica(0).row(slot).iter().zip(base_row) {
                let moved = got - want;
                assert!(
                    (moved - ReplicaBank::DELTA_CLIP_RMS).abs() < 1e-4,
                    "slot {slot}: moved {moved}, want {}",
                    ReplicaBank::DELTA_CLIP_RMS
                );
            }
        }
    }

    #[test]
    fn merge_deltas_base_advances_across_rounds() {
        // Round 1: only replica 0 moves. Round 2: only replica 1 moves.
        // With a stale base the second merge would re-count round 1's
        // delta once per replica; the refreshed base must prevent that.
        let source = Matrix::uniform_init(4, 4, 7);
        let mut b = ReplicaBank::gather(2, &source, &[1]);
        let start = b.replica(0).row(0).to_vec();
        b.replicas_mut()[0].row_mut(0)[0] += 0.3;
        b.merge_deltas(&mut [0.0; 4]);
        b.replicas_mut()[1].row_mut(0)[1] += 0.4;
        b.merge_deltas(&mut [0.0; 4]);
        let got = b.replica(0).row(0).to_vec();
        assert!((got[0] - (start[0] + 0.3)).abs() < 1e-6);
        assert!((got[1] - (start[1] + 0.4)).abs() < 1e-6);
    }

    #[test]
    fn merge_deltas_of_identical_replicas_changes_nothing() {
        let source = Matrix::uniform_init(6, 8, 42);
        let mut b = ReplicaBank::gather(2, &source, &[4, 0, 2]);
        let before: Vec<f32> = b.replica(1).as_slice().to_vec();
        b.merge_deltas(&mut [0.0; 8]);
        let after: Vec<f32> = b.replica(1).as_slice().to_vec();
        assert_eq!(before, after);
    }

    #[test]
    fn publish_row_writes_the_merged_value() {
        let mut b = bank();
        b.merge_deltas(&mut [0.0; 8]);
        let mut canonical = Matrix::zeros(6, 8);
        b.publish_row(1, &mut canonical, 5);
        assert_eq!(canonical.row(5), b.replica(0).row(1));
    }

    #[test]
    fn empty_bank_merges_nothing() {
        let source = Matrix::uniform_init(2, 4, 1);
        let mut b = ReplicaBank::gather(2, &source, &[]);
        assert_eq!(b.merge_deltas(&mut [0.0; 4]), 0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let source = Matrix::uniform_init(2, 4, 1);
        let _ = ReplicaBank::gather(0, &source, &[0]);
    }
}
