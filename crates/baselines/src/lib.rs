//! # greem-baselines — reference solvers and comparators
//!
//! Everything the TreePM code is measured *against*:
//!
//! * [`ewald`] — Ewald summation: the exact pairwise force under the
//!   periodic boundary condition (with the neutralising background).
//!   This is the accuracy gold standard for the TreePM force split
//!   (§III-A's "minimise the force error" tuning is expressed against
//!   it).
//! * [`direct`] — O(N²) direct summation, open-boundary and periodic
//!   (via Ewald), the brute-force reference.
//! * [`puretree`] — the open-boundary Barnes-Hut tree without a force
//!   split: the method of the 1990s Gordon-Bell winners the paper
//!   contrasts itself with (§I). Used for the operations-at-equal-error
//!   comparison.
//! * [`p3m`] — the P3M method (direct-summation short range + PM):
//!   the paper's §I argument is that its short-range cost blows up as
//!   O(n²) in clustered cells, which our cost experiment reproduces.

#![forbid(unsafe_code)]

pub mod direct;
pub mod ewald;
pub mod ewald_table;
pub mod p3m;
pub mod puretree;

pub use direct::{direct_open, direct_periodic, direct_periodic_fast};
pub use ewald::Ewald;
pub use ewald_table::EwaldTable;
pub use p3m::{p3m_short_range, P3mCost, P3mSolver};
pub use puretree::{pure_tree_accel, PureTreeStats};
