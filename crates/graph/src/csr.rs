//! CSR form of the GCN propagation matrix — a graph's one cached,
//! maintained level-0 `Â`.
//!
//! [`CsrAdjacency`] holds a graph's normalised adjacency
//! `D̃^{-1/2}ÃD̃^{-1/2}` (Eq. 12) as a [`CsrMatrix`], assembled straight
//! from the raw adjacency, together with the `D̃^{-1/2}` factors it was
//! built from. Every degree is summed in ascending column order and every
//! stored value is `Ã_rc · (d_r · d_c)` — the exact operation order of the
//! dense oracle [`Graph::sym_norm_adjacency`] — so the CSR is bitwise
//! `CsrMatrix::from_dense(&g.sym_norm_adjacency())`. Because the CSR row
//! walk replays the dense zero-skipping GEMM's FMA sequence, propagating
//! with it is byte-identical to a dense product with that oracle (see
//! ARCHITECTURE.md "Sparse & batched execution").

#![deny(missing_docs)]

use crate::Graph;
use hap_tensor::{CsrMatrix, Tensor};
use std::sync::Arc;

/// A graph's symmetric normalised adjacency in CSR form, shareable across
/// tapes and layers via `Arc`.
///
/// Always symmetric (the normalisation `D̃^{-1/2}ÃD̃^{-1/2}` of a symmetric
/// `Ã` is symmetric), which is what lets the SpMM backward reuse the same
/// matrix: `dH = Sᵀ·G = S·G`.
#[derive(Clone, Debug)]
pub struct CsrAdjacency {
    csr: Arc<CsrMatrix>,
    /// The `D̃^{-1/2}` factor of every node. Keeping them is what makes an
    /// edge flip local: only the touched factors are recomputed.
    inv_sqrt: Vec<f64>,
}

impl CsrAdjacency {
    /// Builds the CSR propagation matrix for `g` from its raw adjacency.
    /// Every self-loop contributes a structural non-zero, so each of the
    /// `n` rows of a graph with non-negative weights holds at least its
    /// diagonal entry.
    ///
    /// ```
    /// use hap_graph::{csr::CsrAdjacency, Graph};
    /// use hap_tensor::CsrMatrix;
    ///
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    /// let s = CsrAdjacency::from_graph(&g);
    /// // The triangle's Â is dense (every Ã entry is 1/3) …
    /// assert_eq!(s.matrix().nnz(), 9);
    /// assert_eq!(s.matrix().density(), 1.0);
    /// // … and bitwise the compressed dense oracle.
    /// assert_eq!(**s.matrix(), CsrMatrix::from_dense(&g.sym_norm_adjacency()));
    /// ```
    pub fn from_graph(g: &Graph) -> Self {
        let adj = g.adjacency();
        let inv_sqrt: Vec<f64> = (0..adj.rows()).map(|i| inv_sqrt_degree(adj, i)).collect();
        let csr = Arc::new(full_build(adj, &inv_sqrt));
        Self { csr, inv_sqrt }
    }

    /// The shared CSR matrix, cloneable into tape ops without copying.
    #[inline]
    pub fn matrix(&self) -> &Arc<CsrMatrix> {
        &self.csr
    }

    /// Re-establishes the matrix after one edge changed in `adj`, where
    /// `touched` lists the edge's distinct endpoints. Only the touched
    /// `D̃^{-1/2}` factors are recomputed and only the touched rows are
    /// rebuilt. Outside them the one entry that can change is `(r, t)` for
    /// each neighbour `r` of a touched node `t`, and only in value; every
    /// other row is copied as is.
    ///
    /// That holds while every product of two factors is finite, before
    /// and after the edit: a zero `Ã` entry then normalises to `±0.0` and
    /// is never stored, where a non-finite product would make it NaN. It
    /// also needs each patched `(r, t)` to be stored already and to stay
    /// non-zero. When any of this fails the matrix is rebuilt in full.
    /// Either way the result is bitwise the from-scratch build. The
    /// matrix lands in a fresh `Arc`, so holders of the old one keep the
    /// old matrix.
    pub(crate) fn apply_edge(&mut self, adj: &Tensor, touched: &[usize]) {
        let finite_before = factor_products_finite(&self.inv_sqrt);
        for &t in touched {
            self.inv_sqrt[t] = inv_sqrt_degree(adj, t);
        }
        let inv = &self.inv_sqrt;
        let n = adj.rows();
        let patched = (finite_before && factor_products_finite(inv))
            .then(|| {
                let mut csr = self
                    .csr
                    .with_rows_replaced(|r| touched.contains(&r).then(|| row_entries(adj, inv, r)));
                let in_place = touched.iter().all(|&t| {
                    (0..n).all(|r| {
                        touched.contains(&r)
                            || adj[(r, t)] == 0.0
                            || csr.set(r, t, entry(adj, inv, r, t))
                    })
                });
                in_place.then_some(csr)
            })
            .flatten();
        self.csr = Arc::new(patched.unwrap_or_else(|| full_build(adj, inv)));
    }
}

/// `D̃_ii^{-1/2}`: row `i` of `Ã = A + I` summed in ascending column
/// order, exactly as the dense oracle sums it.
fn inv_sqrt_degree(adj: &Tensor, i: usize) -> f64 {
    let d: f64 = adj
        .row(i)
        .iter()
        .enumerate()
        .map(|(c, &a)| if c == i { a + 1.0 } else { a })
        .sum();
    1.0 / d.sqrt()
}

/// `Â_rc = Ã_rc · (d_r · d_c)` with the oracle's factor order.
#[inline]
fn entry(adj: &Tensor, inv: &[f64], r: usize, c: usize) -> f64 {
    let a = adj[(r, c)];
    let a = if r == c { a + 1.0 } else { a };
    a * (inv[r] * inv[c])
}

/// Row `r` of `Â`, every column, zeros included (the CSR constructors drop
/// them).
fn row_entries<'a>(
    adj: &'a Tensor,
    inv: &'a [f64],
    r: usize,
) -> impl Iterator<Item = (usize, f64)> + 'a {
    (0..adj.cols()).map(move |c| (c, entry(adj, inv, r, c)))
}

/// Every row, zeros dropped: the from-scratch build.
fn full_build(adj: &Tensor, inv: &[f64]) -> CsrMatrix {
    let n = adj.rows();
    CsrMatrix::from_row_entries(n, n, |r| row_entries(adj, inv, r))
}

/// Whether `d_r · d_c` is finite for every pair — then a zero `Ã` entry
/// normalises to `±0.0` and is never stored. Finite factors are `>= 0`,
/// so the largest one squared bounds every product.
fn factor_products_finite(inv: &[f64]) -> bool {
    inv.iter()
        .try_fold(0.0f64, |m, &x| x.is_finite().then(|| m.max(x)))
        .is_some_and(|m| (m * m).is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_values_match_dense_normalised_adjacency_bitwise() {
        let mut rng = hap_rand::Rng::from_seed(11);
        let g = crate::generators::erdos_renyi(20, 0.15, &mut rng);
        let s = CsrAdjacency::from_graph(&g);
        let dense = g.sym_norm_adjacency();
        let roundtrip = s.matrix().to_dense();
        assert_eq!(roundtrip.shape(), dense.shape());
        for (a, b) in roundtrip.as_slice().iter().zip(dense.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(s.matrix().is_symmetric());
    }

    #[test]
    fn edgeless_graph_is_identity_with_minimal_nnz() {
        let g = Graph::empty(4);
        let s = CsrAdjacency::from_graph(&g);
        assert_eq!(s.matrix().nnz(), 4, "self-loops only");
        assert_eq!(s.matrix().density(), 4.0 / 16.0);
    }

    #[test]
    fn cached_csr_is_shared_and_invalidated_by_mutation() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let first = Arc::clone(g.csr_adjacency_cached().matrix());
        // Second call serves the same Arc, not a rebuild.
        assert!(Arc::ptr_eq(&first, g.csr_adjacency_cached().matrix()));

        g.add_edge(2, 3);
        let after = g.csr_adjacency_cached();
        assert!(
            !Arc::ptr_eq(&first, after.matrix()),
            "cache served a stale CSR after add_edge"
        );
        assert_eq!(
            after.matrix().to_dense(),
            g.sym_norm_adjacency(),
            "maintained CSR must match the oracle on the new graph"
        );

        let before_remove = Arc::clone(after.matrix());
        g.remove_edge(0, 1);
        assert!(!Arc::ptr_eq(
            &before_remove,
            g.csr_adjacency_cached().matrix()
        ));
    }

    #[test]
    fn factor_guard_catches_non_finite_and_overflowing_products() {
        assert!(factor_products_finite(&[1.0, 0.5, 0.0]));
        assert!(!factor_products_finite(&[1.0, f64::INFINITY]));
        assert!(!factor_products_finite(&[f64::NAN, 1.0]));
        // Each factor is finite, but their product overflows.
        assert!(!factor_products_finite(&[1e160, 1.0]));
    }
}
