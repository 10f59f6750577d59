//! Scenario checkpoints: `GREEMAS1`.
//!
//! A galaxy-collapse checkpoint is a small checksummed scenario header
//! (event counters, energy bookkeeping, the virial-ratio trajectory)
//! followed by an embedded, unmodified `GREEMSN1` particle snapshot —
//! the same per-record codecs and FNV-1a trailer discipline as the core
//! format, so the corruption taxonomy (truncation vs bit-flip vs bad
//! field) carries over to scenario restarts:
//!
//! ```text
//! magic[8] = "GREEMAS1"
//! header   : mergers(u64) captures(u64) steps_taken(u64)
//!            e0(f64) energy_offset(f64)
//!            n_virial(u64) virial_ratio × n_virial (f64)
//! trailer  : fnv1a-64 of the header (u64)
//! payload  : a complete GREEMSN1 snapshot (its own checksum trailer)
//! ```
//!
//! Restart is **bitwise**, and a checkpoint is a **synchronisation
//! point**. The file holds bodies, not forces, and the forces a run
//! carries are a function of the positions *and of the kind of pass
//! that computed them*: a replay pass sums each target over the groups
//! and lists of the recording, a fresh walk over the groups it builds
//! now, and a tree node's monopole (or a single-precision kernel's
//! group-relative coordinates) rounds differently from one grouping to
//! the other. [`resume`] rebuilds the [`Simulation`] from the
//! snapshotted bodies with a fresh walk, so
//! [`GalaxyCollapse::save_checkpoint`] does the same to the run it
//! saves: after writing, it drops the list cache and recomputes the
//! forces (`Simulation::reset_forces`). Both then continue from one
//! state, and because a fresh force evaluation is deterministic at
//! given positions (Morton order, chunked deposits), the resumed
//! trajectory reproduces the uninterrupted one bit for bit — the same
//! rollback-restart contract the chaos suite enforces for the
//! cosmological driver.
//!
//! [`Simulation`]: greem::Simulation

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

use greem::io::{read_snapshot, write_snapshot, ChecksumReader, ChecksumWriter, SnapshotHeader};
use greem::{Body, SimulationMode, SnapshotError};

use crate::scenario::{GalaxyCollapse, GalaxyConfig};

const MAGIC: &[u8; 8] = b"GREEMAS1";

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

/// Write a scenario checkpoint for `state` to `path`.
pub fn save<P: AsRef<Path>>(path: P, state: &GalaxyCollapse) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let mut w = ChecksumWriter::new(&mut out);
    w.put(MAGIC)?;
    w.put_u64(state.mergers())?;
    w.put_u64(state.captures())?;
    w.put_u64(state.steps_taken())?;
    w.put_f64(state.e0())?;
    w.put_f64(state.energy_offset())?;
    w.put_u64(state.virial_history().len() as u64)?;
    for &v in state.virial_history() {
        w.put_f64(v)?;
    }
    w.finish()?;
    write_snapshot(
        &mut out,
        &SnapshotHeader {
            step: state.steps_taken(),
            mode: SimulationMode::Static,
        },
        &state.bodies(),
    )?;
    out.flush()
}

/// Read a scenario checkpoint back; classifies failures exactly like
/// the core snapshot reader.
pub fn load<P: AsRef<Path>>(path: P) -> Result<AstroCheckpoint, SnapshotError> {
    let mut input = BufReader::new(File::open(path).map_err(SnapshotError::Io)?);
    let mut r = ChecksumReader::new(&mut input);
    let mut magic = [0u8; 8];
    r.take(&mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    let mergers = r.take_u64("merger count")?;
    let captures = r.take_u64("capture count")?;
    let steps_taken = r.take_u64("step counter")?;
    let e0 = r.take_f64("reference energy")?;
    let energy_offset = r.take_f64("energy offset")?;
    if !e0.is_finite() || !energy_offset.is_finite() {
        return Err(SnapshotError::BadField {
            what: "energy bookkeeping must be finite",
        });
    }
    let n_virial = r.take_u64("virial history length")? as usize;
    // The history grows by one entry per step (plus the t=0 entry); a
    // length wildly beyond that is a decode gone wrong.
    if n_virial > (steps_taken as usize).saturating_add(1_000_000) {
        return Err(SnapshotError::BadField {
            what: "virial history length is implausible",
        });
    }
    let mut virial_history = Vec::with_capacity(n_virial);
    for _ in 0..n_virial {
        virial_history.push(r.take_f64("virial ratio")?);
    }
    r.verify_trailer()?;
    let (header, bodies) = read_snapshot(&mut input)?;
    if header.mode != SimulationMode::Static {
        return Err(SnapshotError::BadField {
            what: "scenario snapshots are static-mode",
        });
    }
    if header.step != steps_taken {
        return Err(SnapshotError::BadField {
            what: "embedded snapshot step disagrees with scenario header",
        });
    }
    Ok(AstroCheckpoint {
        mergers,
        captures,
        steps_taken,
        e0,
        energy_offset,
        virial_history,
        bodies,
    })
}

/// Resume a scenario from a checkpoint: particle state and bookkeeping
/// come from the file, the solver/scenario configuration from `cfg`
/// (which must match the original run for bitwise reproduction).
pub fn resume<P: AsRef<Path>>(cfg: GalaxyConfig, path: P) -> Result<GalaxyCollapse, SnapshotError> {
    let ck = load(path)?;
    Ok(GalaxyCollapse::restore(
        cfg,
        ck.bodies,
        ck.e0,
        ck.energy_offset,
        ck.mergers,
        ck.captures,
        ck.steps_taken,
        ck.virial_history,
    ))
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

        // Header bit-flip → checksum mismatch.
        let mut flip = bytes.clone();
        flip[12] ^= 0x04;
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
