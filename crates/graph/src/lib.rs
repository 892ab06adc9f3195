//! # oneq-graph
//!
//! Graph substrate for the OneQ compiler (ISCA'23 reproduction).
//!
//! The OneQ compilation pipeline is graph manipulation end to end: quantum
//! programs become *graph states* and fusion strategies become *fusion
//! graphs*. This crate provides the undirected-graph data structure and the
//! graph algorithms those stages rely on, implemented from scratch so the
//! workspace has no external graph dependency:
//!
//! * [`Graph`] — a simple undirected graph with O(1) edge queries,
//! * traversal utilities (BFS order, connected components, shortest paths)
//!   in [`traversal`],
//! * biconnectivity analysis (bridges, articulation points, biconnected
//!   components) in [`biconnected`] — used for the cycle-prioritized edge
//!   ordering of the fusion mapper (paper §6),
//! * planarity testing with embedding extraction (Demoucron's face-insertion
//!   algorithm) in [`planarity`] — used by graph planarization (paper §4)
//!   and planarity-aware search (paper §6),
//! * combinatorial embeddings (rotation systems) and face traversal in
//!   [`embedding`] — used by fusion-graph generation (paper §5),
//! * maximal planar subgraph extraction in [`mps`] — used when a single
//!   dependency layer is non-planar (paper §4),
//! * deterministic and random graph generators in [`generators`].
//!
//! # Example
//!
//! ```
//! use oneq_graph::{Graph, planarity};
//!
//! // K4 is planar, K5 is not.
//! let k4 = oneq_graph::generators::complete(4);
//! let k5 = oneq_graph::generators::complete(5);
//! assert!(planarity::is_planar(&k4));
//! assert!(!planarity::is_planar(&k5));
//! ```

#![warn(missing_docs)]

pub mod biconnected;
pub mod embedding;
pub mod generators;
mod graph;
pub mod mps;
pub mod planarity;
pub mod traversal;

pub use embedding::{Embedding, Face};
pub use graph::{Edge, Graph, GraphError, NodeId};
