//! # greem-cosmo — the cosmology substrate
//!
//! The paper's science run evolves 10240³ dark-matter particles in a
//! 600-comoving-parsec periodic box from redshift 400 to ≈31, starting
//! from "initial dark matter density fluctuations with the power
//! spectrum containing a sharp cutoff generated by the free motion of
//! dark matter particle (neutralino) with a mass of 100 GeV"
//! [Green, Hofmann & Schwarz 2004], under the WMAP-7 concordance
//! cosmology [Komatsu et al. 2011] (§III-A).
//!
//! This crate supplies everything that setup needs:
//!
//! * [`friedmann`] — ΛCDM background: `H(a)`, cosmic time, the linear
//!   growth factor `D(a)`, and the leapfrog **kick/drift factors**
//!   (`∫dt/a`, `∫dt/a²`) that turn the comoving equations of motion into
//!   the plain unit-box force calculations the solver crates perform.
//! * [`power`] — a CDM power spectrum (BBKS transfer function) with the
//!   Green et al. free-streaming cutoff.
//! * [`ics`] — Zel'dovich initial conditions: a Gaussian random field
//!   realised on a grid, differentiated in k-space into displacements
//!   and growing-mode velocities.

#![forbid(unsafe_code)]

pub mod friedmann;
pub mod ics;
pub mod power;
pub mod spectrum;

pub use friedmann::{Cosmology, KickDrift};
pub use ics::{generate_ics, generate_ics_with_order, IcParams, InitialConditions, LptOrder};
pub use power::PowerSpectrum;
pub use spectrum::{measure_power, PowerBin};
