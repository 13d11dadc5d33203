//! Graph substrate for the `planartest` workspace.
//!
//! This crate provides everything the distributed planarity tester needs
//! from "classic" graph land:
//!
//! * [`Graph`] — a compact, immutable, undirected simple graph with stable
//!   node and edge identifiers ([`NodeId`], [`EdgeId`]).
//! * [`GraphBuilder`] — validated construction (rejects self-loops,
//!   de-duplicates parallel edges).
//! * [`generators`] — graph families used by the paper's experiments, most
//!   of them *certified*: planar families carry a proof-by-construction of
//!   planarity, non-planar families carry a lower bound on their distance
//!   to planarity (see [`generators::Certified`]).
//! * [`algo`] — BFS/DFS, connected components, union-find,
//!   bipartiteness, girth, degeneracy/arboricity bounds.
//! * [`fingerprint`] — stable 128-bit content digests
//!   ([`Graph::fingerprint`]) keying the query service's graph registry
//!   and result cache.
//! * [`generators::spec`] — textual generator specs
//!   (`"tri_grid(24,24)"`), the service's second ingest route.
//! * [`disk`] — a relocatable on-disk CSR format with a zero-copy
//!   memory-mapped loader and a streaming two-pass counting-sort
//!   builder, so graphs with `n ≫ 10^6` build and query out-of-core.
//!
//! # Example
//!
//! ```
//! use planartest_graph::{Graph, NodeId};
//! use planartest_graph::algo::bfs::BfsTree;
//!
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
//! assert_eq!(g.n(), 4);
//! assert_eq!(g.m(), 4);
//! let bfs = BfsTree::build(&g, NodeId::new(0));
//! assert_eq!(bfs.level(NodeId::new(2)), Some(2));
//! # Ok::<(), planartest_graph::GraphError>(())
//! ```

#![warn(missing_docs)]

pub mod algo;
pub mod disk;
pub mod fingerprint;
pub mod generators;
mod graph;
pub mod io;

pub use crate::graph::{EdgeId, Graph, GraphBuilder, GraphError, NodeId};
