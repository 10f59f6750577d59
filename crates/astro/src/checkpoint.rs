//! Scenario checkpoints: a `greem::io` container (layout and section
//! table there) holding `state` (the step; static mode), `scenario`
//! (event counters, energy bookkeeping, the virial-ratio trajectory)
//! and `bodies`, written atomically and verified before it is decoded.
//!
//! Restart is **bitwise**, and a checkpoint is a **synchronisation
//! point**. The file holds bodies, not forces, and the forces a run
//! carries depend on the pass that computed them: a replay sums each
//! target in the groups and lists of the recording, a fresh walk in the
//! groups it forms now, and a node's monopole (or a single-precision
//! kernel's group-relative coordinates) rounds differently in each.
//! [`resume`] rebuilds the [`Simulation`] with a fresh walk, so
//! [`GalaxyCollapse::save_checkpoint`] recomputes the saved run's forces
//! the same way (`Simulation::reset_forces`). Both then continue from
//! one state, and because a fresh force evaluation is deterministic at
//! given positions, the resumed trajectory reproduces the uninterrupted
//! one bit for bit — the rollback-restart contract the chaos suite
//! enforces for the cosmological driver.
//!
//! [`Simulation`]: greem::Simulation

use std::io;
use std::path::Path;

use greem::io::{write_atomic, Container, ContainerWriter, Section, SnapshotHeader};
use greem::{Body, SimulationMode, SnapshotError};

use crate::scenario::{GalaxyCollapse, GalaxyConfig};

/// The decoded scenario state of a checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct AstroCheckpoint {
    /// BH–BH mergers performed before the checkpoint.
    pub mergers: u64,
    /// Particle captures performed before the checkpoint.
    pub captures: u64,
    /// Steps taken before the checkpoint.
    pub steps_taken: u64,
    /// Reference energy E₀ of the original run.
    pub e0: f64,
    /// Cumulative BH-event energy offset.
    pub energy_offset: f64,
    /// Virial-ratio trajectory recorded so far.
    pub virial_history: Vec<f64>,
    /// The particle state.
    pub bodies: Vec<Body>,
}

/// Write a scenario checkpoint for `state` to `path`, atomically.
pub fn save<P: AsRef<Path>>(path: P, state: &GalaxyCollapse) -> io::Result<()> {
    let energy = [state.e0(), state.energy_offset()];
    let floats = energy
        .into_iter()
        .chain(state.virial_history().iter().copied());
    let scenario = [state.mergers(), state.captures()]
        .into_iter()
        .chain(floats.map(f64::to_bits));
    let mut w = ContainerWriter::default();
    w.state(&SnapshotHeader {
        step: state.steps_taken(),
        mode: SimulationMode::Static,
    })
    .section(Section::Scenario, scenario)
    .bodies(&state.bodies());
    write_atomic(path.as_ref(), &w.finish())
}

/// Read a scenario checkpoint back; classifies failures exactly like
/// the core snapshot reader.
pub fn load<P: AsRef<Path>>(path: P) -> Result<AstroCheckpoint, SnapshotError> {
    let file = std::fs::read(path).map_err(SnapshotError::Io)?;
    let c = Container::parse(&file)?;
    let state = c.state()?;
    let words = c.words(Section::Scenario)?;
    let [mergers, captures, e0, energy_offset, ref virial @ ..] = words[..] else {
        return Err(SnapshotError::MALFORMED);
    };
    let [e0, energy_offset] = [e0, energy_offset].map(f64::from_bits);
    if state.mode != SimulationMode::Static || !e0.is_finite() || !energy_offset.is_finite() {
        return Err(SnapshotError::BadField {
            what: "scenario checkpoints are static-mode with finite energy bookkeeping",
        });
    }
    Ok(AstroCheckpoint {
        mergers,
        captures,
        steps_taken: state.step,
        e0,
        energy_offset,
        virial_history: virial.iter().map(|&v| f64::from_bits(v)).collect(),
        bodies: c.bodies()?,
    })
}

/// Resume a scenario from a checkpoint: particle state and bookkeeping
/// come from the file, the solver/scenario configuration from `cfg`
/// (which must match the original run for bitwise reproduction).
pub fn resume<P: AsRef<Path>>(cfg: GalaxyConfig, path: P) -> Result<GalaxyCollapse, SnapshotError> {
    Ok(GalaxyCollapse::restore(cfg, load(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plummer::GalaxyParams;
    use greem::IntegratorKind;

    fn tiny() -> GalaxyConfig {
        GalaxyConfig {
            galaxy: GalaxyParams {
                n_stars: 24,
                n_dm: 24,
                n_bh: 2,
                ..GalaxyParams::small()
            },
            n_mesh: 16,
            steps: 6,
            ..GalaxyConfig::default()
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("greem_astro_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn checkpoint_roundtrips_scenario_state() {
        let mut sc = GalaxyCollapse::new(tiny());
        for _ in 0..3 {
            sc.step();
        }
        let path = tmp("roundtrip.bin");
        save(&path, &sc).unwrap();
        let ck = load(&path).unwrap();
        assert_eq!(ck.steps_taken, 3);
        assert_eq!(ck.mergers, sc.mergers());
        assert_eq!(ck.captures, sc.captures());
        assert_eq!(ck.e0, sc.e0());
        assert_eq!(ck.energy_offset, sc.energy_offset());
        assert_eq!(ck.virial_history, sc.virial_history());
        assert_eq!(ck.bodies, sc.bodies());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rollback_restart_is_bitwise() {
        // Run 3 steps, checkpoint, run 3 more; separately resume from
        // the checkpoint and run the same 3. Trajectories must agree
        // bit for bit — the chaos-suite recovery contract.
        let mut full = GalaxyCollapse::new(tiny());
        for _ in 0..3 {
            full.step();
        }
        let path = tmp("bitwise.bin");
        save(&path, &full).unwrap();
        full.run();

        let mut resumed = resume(tiny(), &path).unwrap();
        assert_eq!(resumed.steps_taken(), 3);
        resumed.run();

        let (a, b) = (full.bodies(), resumed.bodies());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            for (p, q) in [
                (x.pos.x, y.pos.x),
                (x.pos.y, y.pos.y),
                (x.pos.z, y.pos.z),
                (x.vel.x, y.vel.x),
                (x.vel.y, y.vel.y),
                (x.vel.z, y.vel.z),
                (x.mass, y.mass),
            ] {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "trajectory diverged on body {}",
                    x.id
                );
            }
        }
        assert_eq!(full.mergers(), resumed.mergers());
        assert_eq!(full.captures(), resumed.captures());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_classified_not_silent() {
        let mut sc = GalaxyCollapse::new(tiny());
        sc.step();
        let path = tmp("corrupt.bin");
        save(&path, &sc).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(load(&path), Err(SnapshotError::BadMagic { .. })));

        // Header bit-flip (past magic and length) → checksum mismatch.
        let mut flip = bytes.clone();
        flip[20] ^= 0x04;
        std::fs::write(&path, &flip).unwrap();
        assert!(matches!(
            load(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Truncation mid-payload.
        bytes.truncate(bytes.len() - 16);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&path),
            Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_leaves_the_previous_checkpoint_whole() {
        let dir = tmp(&format!("atomic_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("galaxy.ckpt");
        let mut sc = GalaxyCollapse::new(tiny());
        sc.step();
        sc.save_checkpoint(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        sc.step();
        // The temporary sibling cannot be created: the save fails
        // before it could touch `path`.
        std::fs::create_dir(dir.join("galaxy.ckpt.tmp")).unwrap();
        assert!(sc.save_checkpoint(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(load(&path).unwrap().steps_taken, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_respects_caller_integrator() {
        let mut sc = GalaxyCollapse::new(tiny());
        sc.step();
        let path = tmp("integ.bin");
        save(&path, &sc).unwrap();
        let cfg = GalaxyConfig {
            integrator: IntegratorKind::Leapfrog,
            ..tiny()
        };
        let resumed = resume(cfg, &path).unwrap();
        assert_eq!(resumed.config().integrator, IntegratorKind::Leapfrog);
        std::fs::remove_file(&path).ok();
    }
}
