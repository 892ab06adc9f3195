//! # oneq-hardware
//!
//! Photonic hardware model for the OneQ compiler (ISCA'23 reproduction).
//!
//! Photonic one-way hardware (paper §3.1) consists of an array of
//! *resource-state generators* (RSGs) producing a fresh copy of a small
//! entangled state every clock cycle, routers that steer photons between
//! neighbouring RSG outputs (spatial routing) or across clock cycles via
//! delay lines (temporal routing), and fusion/measurement devices. This
//! crate models:
//!
//! * the resource-state shapes of the evaluation ([`ResourceKind`]:
//!   3-qubit line, 4-qubit line/star/ring, n-GHZ) and the node-synthesis
//!   cost model (paper §5),
//! * physical-layer geometry ([`LayerGeometry`], [`Position`]) including
//!   the rectangular aspect-ratio variants of Fig. 13 and the *extended
//!   physical layers* of Fig. 5(b) ([`ExtendedLayer`]),
//! * fused-state arithmetic ([`fusion`]).
//!
//! # Example
//!
//! ```
//! use oneq_hardware::{LayerGeometry, ResourceKind};
//!
//! let layer = LayerGeometry::new(16, 16);
//! assert_eq!(layer.area(), 256);
//! // A degree-6 graph-state node takes 5 chained 3-qubit states (paper §5).
//! assert_eq!(ResourceKind::LINE3.chain_nodes(6), 5);
//! ```

#![warn(missing_docs)]

pub mod fusion;
mod geometry;
mod resource;

pub use geometry::{ExtendedLayer, LayerGeometry, Position, Topology, MAX_NEIGHBORS};
pub use resource::{respects_degree_budget, ResourceKind};
