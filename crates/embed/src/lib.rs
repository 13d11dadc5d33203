//! Planar combinatorial embeddings for the `planartest` workspace.
//!
//! This crate is the substitute substrate for the Ghaffari–Haeupler
//! distributed planar-embedding algorithm used by Stage II of the paper's
//! tester (see the round/bandwidth budget table of
//! `docs/ARCHITECTURE.md`): the tester only needs, per node, a circular
//! ordering of incident edges that is a valid combinatorial embedding
//! whenever the graph is planar. We provide:
//!
//! * [`RotationSystem`] — a validated circular edge order per vertex, with
//!   face tracing and Euler-genus computation ([`RotationSystem::genus`]),
//!   so embeddings are *verifiable*: a rotation system of a connected graph
//!   is a planar embedding iff its genus is 0.
//! * [`check_planarity`] — the left-right planarity test and embedder of
//!   de Fraysseix and Rosenstiehl, in Brandes' form (near-linear,
//!   iterative, deterministic). It is the one embedder: the former
//!   Demoucron path [`demoucron`] is a re-export of it, and the quadratic
//!   Demoucron–Malgrange–Pertuiset embedder is a test oracle under
//!   `crates/embed/tests/`.
//!
//! # Example
//!
//! ```
//! use planartest_graph::Graph;
//! use planartest_embed::{check_planarity, PlanarityCheck};
//!
//! // K4 is planar ...
//! let k4 = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])?;
//! let rot = match check_planarity(&k4) {
//!     PlanarityCheck::Planar(rot) => rot,
//!     PlanarityCheck::NonPlanar => unreachable!("K4 is planar"),
//! };
//! assert_eq!(rot.genus(&k4), 0);
//!
//! // ... and K5 is not.
//! let k5 = Graph::from_edges(5, (0..5).flat_map(|i| (i + 1..5).map(move |j| (i, j))))?;
//! assert!(matches!(check_planarity(&k5), PlanarityCheck::NonPlanar));
//! # Ok::<(), planartest_graph::GraphError>(())
//! ```

pub mod demoucron;
mod lr;
mod rotation;

pub use crate::lr::{check_planarity, is_planar, PlanarityCheck};
pub use crate::rotation::{Dart, Face, RotationError, RotationSystem};
