//! # oneq
//!
//! An optimizing compiler from quantum circuits to photonic one-way
//! (measurement-based) quantum computation — a from-scratch reproduction of
//! *"OneQ: A Compilation Framework for Photonic One-Way Quantum
//! Computation"* (ISCA 2023).
//!
//! The pipeline (paper Fig. 1) lowers a circuit to a graph state and then
//! runs three stages:
//!
//! 1. **Graph partition & scheduling** ([`partition`], paper §4) — order
//!    measurements into dependency layers via the causal flow and group
//!    consecutive layers into partitions sized to the hardware, enforcing
//!    planarity for small resource states.
//! 2. **Fusion graph generation** ([`fusion_graph`], paper §5) — synthesize
//!    high-degree graph-state nodes from chains of low-degree resource
//!    states; represent every required fusion as an edge of a *fusion
//!    graph*, preserving planar edge orders.
//! 3. **Fusion mapping & routing** ([`mapping`], paper §6) — embed the
//!    irregular fusion graph into the regular RSG grid with a
//!    boundary-aware heuristic search, route non-adjacent fusions through
//!    auxiliary resource states, and connect leftover *incomplete nodes*
//!    across layers with inter-layer shuffling.
//!
//! The end-to-end driver is [`Compiler`]; the output [`CompiledProgram`]
//! reports the paper's two metrics, *physical depth* and *number of
//! fusions*.
//!
//! # Example
//!
//! ```
//! use oneq::{Compiler, CompilerOptions};
//! use oneq_circuit::benchmarks;
//! use oneq_hardware::LayerGeometry;
//!
//! let circuit = benchmarks::bv(&[true, false, true, true]);
//! let options = CompilerOptions::new(LayerGeometry::new(8, 8));
//! let program = Compiler::new(options).compile(&circuit);
//! assert!(program.depth >= 1);
//! assert!(program.fusions > 0);
//! ```

#![warn(missing_docs)]

pub mod fusion_graph;
pub mod mapping;
pub mod partition;
mod pipeline;
pub mod viz;

pub use fusion_graph::FusionGraph;
pub use mapping::{
    CellUse, Fold, LayerLayout, MapProfile, MappingOptions, MappingResult, Placement,
};
pub use partition::{Partition, PartitionOptions, PartitionResult};
pub use pipeline::{
    CompileProfile, CompiledProgram, Compiler, CompilerOptions, PartitionProfile, Stage, StageStats,
};
