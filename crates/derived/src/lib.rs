//! # dmis-derived
//!
//! History-independent derived structures (Section 5 of the paper): because
//! the dynamic MIS algorithm's output distribution depends only on the
//! current graph, standard reductions compose with it to give
//! history-independent algorithms for other problems.
//!
//! - [`NativeMatching`] — **maximal matching** as the MIS of the line
//!   graph `L(G)`, realized directly over edges: edges of `G` are nodes of
//!   `L(G)`, an MIS of `L(G)` is exactly a maximal matching of `G`, and the
//!   engine runs the random-greedy order on edges without building `L(G)`.
//!   Worked example (Section 5, Example 2): on disjoint 3-edge paths the
//!   expected matching size is `5n/12` versus the worst case `n/4`.
//! - [`ColoringEngine`] — dynamic **greedy coloring** by random order:
//!   every node holds the smallest color unused by its lower-π neighbors
//!   (at most `Δ+1` colors). This is the random greedy coloring of
//!   Section 5, Example 3; its per-change adjustment cost is `O(Δ)` rather
//!   than `O(1)` — the open gap the paper discusses.
//! - [`BlowupColoring`] — (Δ+1)-coloring via the clique blow-up reduction
//!   Luby: one MIS computation on `G'` yields one chosen copy per node,
//!   whose index is a proper color.
//! - [`verify`] — checkers for maximality and properness.

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

mod blowup_coloring;
mod coloring;
mod matching_native;

pub mod verify;

pub use blowup_coloring::BlowupColoring;
pub use coloring::{ColoringEngine, ColoringReceipt};
pub use matching_native::{EdgeFlip, MatchingReceipt, NativeMatching};
