//! # hap-gnn
//!
//! Graph neural-network layers: the node & cluster embedding components of
//! the HAP framework (Sec. 4.3) and of every baseline pooling method.
//!
//! * [`GcnLayer`] — Kipf & Welling graph convolution, Eq. 12:
//!   `H_{k+1} = σ(D̃^{-1/2} Ã D̃^{-1/2} H_k W_k)`.
//! * [`GatLayer`] — graph attention (Veličković et al.), the classical
//!   attention of Eq. 16 masked to the 1-hop neighbourhood, realising the
//!   paper's Eq. 11.
//! * [`GnnEncoder`] — a stack of either layer kind; HAP uses a two-layer
//!   encoder before each coarsening module (Sec. 6.1.3).
//! * [`BatchGraph`] — a block-diagonal fusion of several graphs so one
//!   SpMM-based forward embeds a whole batch, byte-identical per node to
//!   the graph-at-a-time loop (GCN only; see
//!   [`GnnEncoder::forward_batch`]).
//!
//! Fixed-graph GCN propagation runs on the graph's cached CSR `Â` with
//! sparse SpMM, byte-identical to a dense product with the same matrix
//! (ARCHITECTURE.md "Sparse & batched execution").
//!
//! ## Static vs. dynamic adjacency
//!
//! At the input level the graph is fixed, so propagation matrices are
//! cached on the [`Graph`] ([`AdjacencyRef::Fixed`]). After a HAP coarsening
//! step the adjacency `A' = MᵀAM` is itself a differentiable tape value
//! ([`AdjacencyRef::Dynamic`]); layers then normalise degrees *on the
//! tape* (via `pow_const`) so gradients flow through the coarsened
//! structure, matching what DiffPool-style implementations do.

mod batch;
mod encoder;
mod gat;
mod gcn;

pub use batch::BatchGraph;
pub use encoder::{EncoderKind, GnnEncoder};
pub use gat::GatLayer;
pub use gcn::GcnLayer;

use hap_autograd::{Tape, Var};
use hap_graph::{Graph, GraphScalar};

/// How a GNN layer should see the graph structure.
///
/// The enum itself is dtype-agnostic; its accessors are generic over
/// [`GraphScalar`], so a `Fixed` graph serves whichever cached propagation
/// matrices (`f64` canonical or `f32` mirrors) the calling tape's element
/// type requires.
#[derive(Clone, Copy)]
pub enum AdjacencyRef<'a> {
    /// A fixed input graph: layers read its cached propagation matrices
    /// (the CSR `Â`, the raw adjacency) without recomputing them.
    Fixed(&'a Graph),
    /// A coarsened graph whose (dense, non-negative) adjacency lives on the
    /// tape; normalisation happens differentiably.
    Dynamic(Var),
}

impl<'a> AdjacencyRef<'a> {
    /// Number of nodes of the underlying graph.
    pub fn n<T: GraphScalar>(&self, tape: &Tape<T>) -> usize {
        match self {
            AdjacencyRef::Fixed(g) => g.n(),
            AdjacencyRef::Dynamic(a) => tape.shape(*a).0,
        }
    }

    /// The raw adjacency (with no self loops) as a tape `Var`.
    pub fn raw<T: GraphScalar>(&self, tape: &mut Tape<T>) -> Var {
        match self {
            AdjacencyRef::Fixed(g) => tape.constant(T::adjacency_of(g).clone()),
            AdjacencyRef::Dynamic(a) => *a,
        }
    }
}
