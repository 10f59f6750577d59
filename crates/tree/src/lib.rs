//! # greem-tree — Barnes-Hut octree with Barnes' modified group traversal
//!
//! The short-range (PP) part of the TreePM force is computed by the tree
//! method "with a cutoff function on the force shape" (§II). Two design
//! choices from the paper shape this crate:
//!
//! 1. **Barnes' modified algorithm** (Barnes 1990, §II): the tree is
//!    traversed once per *group* of particles rather than once per
//!    particle, producing one interaction list (tree nodes + nearby
//!    particles) shared by the whole group. Traversal cost drops by a
//!    factor ⟨Ni⟩ (the mean group size) while the force cost rises
//!    because the list is the union of what each member would need —
//!    the ⟨Ni⟩ ≈ 100-on-K / 500-on-GPU trade-off the paper discusses.
//!
//! 2. **Cutoff pruning**: because `g_P3M` vanishes beyond `r_cut`, any
//!    node farther than `r_cut` from the group contributes nothing and
//!    is skipped outright. This is why the paper's interaction lists
//!    (⟨Nj⟩ ≈ 2300) are ~6× shorter than the open-boundary pure-tree
//!    lists of the previous GPU Gordon-Bell winner.
//!
//! The tree is built over Morton-sorted particles (monopole moments, the
//! GreeM choice), supports periodic (minimum-image) and open boundaries,
//! and reports the walk statistics (⟨Ni⟩, ⟨Nj⟩, interaction counts) that
//! appear in the paper's Table I.

#![forbid(unsafe_code)]

pub mod arena;
pub mod build;
pub mod multipole;
pub mod traverse;

pub use arena::{ArenaView, SnapshotTree, TreeArena};
pub use build::{Node, TreeParams};
pub use multipole::pseudo_particles;
pub use traverse::{
    Group, GroupWalk, ListEntry, Multipole, SourceColumns, SourceEntry, TraverseParams, WalkStats,
    GROUP_SIZE_BUCKETS,
};
