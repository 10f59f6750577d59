//! # greem-domain — 3-D multisection domain decomposition with the
//! sampling-method load balancer
//!
//! The paper (§II) assigns each MPI process a rectangular domain from a
//! **3-D multisection** of the unit box [Makino 2004] and determines the
//! domain geometry with the **sampling method** [Blackston & Suel 1997]:
//! only a small subset of particles is gathered at the root, which cuts
//! the box so that every domain holds the same number of *samples*.
//!
//! Load balance then comes from a feedback loop: "we adjust the sampling
//! rate of particles in one domain so that it is proportional to the
//! measured calculation time of the short-range and long-range forces"
//! — an overloaded process submits more samples, receives a smaller
//! domain, and its next step gets cheaper. Boundaries are smoothed with
//! a linear weighted moving average over the last five steps to avoid
//! large jumps caused by sampling noise.
//!
//! This crate provides the geometry ([`DomainGrid`]), the pure
//! multisection algorithm ([`multisection`]), the collective balancer
//! ([`SamplingBalancer`]) and the bucketed particle exchange
//! ([`exchange`]).

#![forbid(unsafe_code)]

pub mod balancer;
pub mod exchange;
pub mod grid;

pub use balancer::{
    multisection, pack_grid, unpack_grid, BalancerParams, BalancerState, SamplingBalancer,
};
pub use exchange::{exchange, exchange_rows, PackedRow};
pub use grid::DomainGrid;
