//! EGES — the paper's previous production framework, built as a baseline.
//!
//! EGES (Wang et al., KDD 2018, reference \[23\] of the SISG paper) works in
//! three stages (Figure 1(b)):
//!
//! 1. construct a weighted directed *item graph* from user behavior
//!    sequences ([`graph`]),
//! 2. generate item sequences by weighted random walk ([`walk`]),
//! 3. train a modified skip-gram where an item's input representation is an
//!    attention-weighted aggregation of its ID embedding and its SI
//!    embeddings ([`model`]).
//!
//! Section II-D of the SISG paper lists EGES's limitations, all of which
//! this implementation exhibits by construction and which the experiments
//! surface:
//!
//! - the user↔sequence link is lost in the graph, so *user* metadata cannot
//!   be used (there is no user-type input here);
//! - click *order* is partially erased by the random walk (asymmetry is not
//!   modeled);
//! - SI embeddings have no output vectors — the positive-pair combinations
//!   are strictly poorer than SISG's (Section IV-A discussion);
//! - in deployment the graph is split along categories and cross-edges are
//!   dropped ([`graph::ItemGraph::split_by_top_category`]).

#![warn(missing_docs)]

pub mod graph;
pub mod model;
pub mod walk;

pub use graph::ItemGraph;
pub use model::{EgesConfig, EgesModel};
pub use walk::WalkConfig;
