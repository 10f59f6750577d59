//! Checkpoint / snapshot I/O.
//!
//! Production cosmological runs (the paper's ran for months on 24576
//! nodes) live and die by checkpoints. This module provides a compact,
//! versioned, checksummed little-endian binary snapshot format for the
//! particle state plus the integrator's time variable, and convenience
//! save/resume hooks on [`Simulation`].
//!
//! Format `GREEMSN1`:
//!
//! ```text
//! magic[8] | header: n(u64) step(u64) mode(u8)
//!          | a, omega_m, omega_l, h, n_s (5×f64, cosmological mode)
//! body × n : pos(3×f64) vel(3×f64) mass(f64) id(u64)
//! trailer  : fnv1a-64 checksum of everything before it (u64)
//! ```
//!
//! Failures are classified, not lumped together: a file that ends too
//! early is [`SnapshotError::Truncated`] (telling you *which* record
//! was cut), a bit-flip that survives to the trailer is
//! [`SnapshotError::ChecksumMismatch`], and a value that decodes but
//! cannot be (negative particle count, non-finite scale factor) is
//! [`SnapshotError::BadField`]. Recovery code treats these differently:
//! truncation usually means an interrupted write and the previous
//! generation is fine, while a checksum mismatch on an
//! atomically-renamed file points at storage corruption.
//!
//! The checksum plumbing ([`ChecksumWriter`] / [`ChecksumReader`]) is
//! public: the sharded `GREEMSN2` checkpoint format in `greem_resil`
//! reuses it, as well as the per-record body/mode codecs, so both
//! formats stay byte-compatible per record.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use greem_cosmo::Cosmology;
use greem_math::Vec3;

use crate::particle::Body;
use crate::simulation::{Simulation, SimulationMode};
use crate::TreePmConfig;

const MAGIC: &[u8; 8] = b"GREEMSN1";

/// Why a snapshot failed to load. See the module docs for how recovery
/// code distinguishes the variants.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O failure that is not an early end-of-file.
    Io(io::Error),
    /// The file does not start with the expected magic.
    BadMagic { found: [u8; 8] },
    /// The file ended while reading the named record — the classic
    /// signature of a write interrupted by a crash.
    Truncated { what: &'static str },
    /// Every byte was present but the FNV-1a trailer disagrees: some
    /// bit flipped between write and read.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// A field decoded to a value that cannot be valid.
    BadField { what: &'static str },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a greem snapshot (magic {:02x?})", found)
            }
            SnapshotError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x}): \
                 file is corrupt"
            ),
            SnapshotError::BadField { what } => write!(f, "snapshot field invalid: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for io::Error {
    fn from(e: SnapshotError) -> io::Error {
        let msg = e.to_string();
        match e {
            SnapshotError::Io(inner) => inner,
            SnapshotError::Truncated { .. } => io::Error::new(io::ErrorKind::UnexpectedEof, msg),
            _ => io::Error::new(io::ErrorKind::InvalidData, msg),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Writer wrapper that folds every written byte into a streaming
/// FNV-1a 64 hash. [`ChecksumWriter::finish`] appends the hash as the
/// file's little-endian trailer.
pub struct ChecksumWriter<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> ChecksumWriter<W> {
    pub fn new(inner: W) -> Self {
        ChecksumWriter {
            inner,
            hash: FNV_OFFSET,
        }
    }

    /// The hash of everything written so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    pub fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.inner.write_all(bytes)
    }

    pub fn put_f64(&mut self, v: f64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    pub fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    /// Write the checksum trailer (not folded into itself) and hand the
    /// inner writer back for flushing.
    pub fn finish(mut self) -> io::Result<W> {
        let h = self.hash;
        self.inner.write_all(&h.to_le_bytes())?;
        Ok(self.inner)
    }
}

/// Reader wrapper mirroring [`ChecksumWriter`]: folds every byte read
/// into the running hash and classifies early end-of-file as
/// [`SnapshotError::Truncated`] with the caller-supplied record name.
pub struct ChecksumReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> ChecksumReader<R> {
    pub fn new(inner: R) -> Self {
        ChecksumReader {
            inner,
            hash: FNV_OFFSET,
        }
    }

    /// The hash of everything read so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    pub fn take(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), SnapshotError> {
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                SnapshotError::Truncated { what }
            } else {
                SnapshotError::Io(e)
            }
        })?;
        for &b in buf.iter() {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }

    pub fn take_f64(&mut self, what: &'static str) -> Result<f64, SnapshotError> {
        let mut b = [0u8; 8];
        self.take(&mut b, what)?;
        Ok(f64::from_le_bytes(b))
    }

    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        let mut b = [0u8; 8];
        self.take(&mut b, what)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read the trailer (which is *not* part of the hashed stream) and
    /// compare it against the running hash.
    pub fn verify_trailer(mut self) -> Result<(), SnapshotError> {
        let computed = self.hash;
        let mut trailer = [0u8; 8];
        self.inner.read_exact(&mut trailer).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                SnapshotError::Truncated {
                    what: "checksum trailer",
                }
            } else {
                SnapshotError::Io(e)
            }
        })?;
        let stored = u64::from_le_bytes(trailer);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        Ok(())
    }
}

/// Snapshot metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotHeader {
    /// Steps taken when the snapshot was written.
    pub step: u64,
    /// Integration mode (with the scale factor for cosmological runs).
    pub mode: SimulationMode,
}

/// Encode one integration mode (shared by `GREEMSN1` and `GREEMSN2`).
pub fn write_mode<W: Write>(w: &mut ChecksumWriter<W>, mode: SimulationMode) -> io::Result<()> {
    match mode {
        SimulationMode::Static => w.put(&[0u8]),
        SimulationMode::Cosmological { cosmology, a } => {
            w.put(&[1u8])?;
            w.put_f64(a)?;
            w.put_f64(cosmology.omega_m)?;
            w.put_f64(cosmology.omega_l)?;
            w.put_f64(cosmology.h)?;
            w.put_f64(cosmology.n_s)
        }
    }
}

/// Decode one integration mode (shared by `GREEMSN1` and `GREEMSN2`).
pub fn read_mode<R: Read>(r: &mut ChecksumReader<R>) -> Result<SimulationMode, SnapshotError> {
    let mut tag = [0u8; 1];
    r.take(&mut tag, "mode tag")?;
    match tag[0] {
        0 => Ok(SimulationMode::Static),
        1 => {
            let a = r.take_f64("scale factor")?;
            let omega_m = r.take_f64("omega_m")?;
            let omega_l = r.take_f64("omega_l")?;
            let h = r.take_f64("hubble h")?;
            let n_s = r.take_f64("n_s")?;
            if !(a > 0.0 && a.is_finite()) {
                return Err(SnapshotError::BadField {
                    what: "scale factor must be finite and positive",
                });
            }
            Ok(SimulationMode::Cosmological {
                cosmology: Cosmology {
                    omega_m,
                    omega_l,
                    h,
                    n_s,
                },
                a,
            })
        }
        _ => Err(SnapshotError::BadField {
            what: "unknown mode tag",
        }),
    }
}

/// Encode one particle record (shared by `GREEMSN1` and `GREEMSN2`).
pub fn write_body<W: Write>(w: &mut ChecksumWriter<W>, b: &Body) -> io::Result<()> {
    for v in [b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z, b.mass] {
        w.put_f64(v)?;
    }
    w.put_u64(b.id)
}

/// Decode one particle record (shared by `GREEMSN1` and `GREEMSN2`).
pub fn read_body<R: Read>(r: &mut ChecksumReader<R>) -> Result<Body, SnapshotError> {
    let px = r.take_f64("particle position")?;
    let py = r.take_f64("particle position")?;
    let pz = r.take_f64("particle position")?;
    let vx = r.take_f64("particle velocity")?;
    let vy = r.take_f64("particle velocity")?;
    let vz = r.take_f64("particle velocity")?;
    let mass = r.take_f64("particle mass")?;
    let id = r.take_u64("particle id")?;
    Ok(Body {
        pos: Vec3::new(px, py, pz),
        vel: Vec3::new(vx, vy, vz),
        mass,
        id,
    })
}

/// Write a snapshot to any writer.
pub fn write_snapshot<W: Write>(w: W, header: &SnapshotHeader, bodies: &[Body]) -> io::Result<()> {
    let mut w = ChecksumWriter::new(BufWriter::new(w));
    w.put(MAGIC)?;
    w.put_u64(bodies.len() as u64)?;
    w.put_u64(header.step)?;
    write_mode(&mut w, header.mode)?;
    for b in bodies {
        write_body(&mut w, b)?;
    }
    w.finish()?.flush()
}

/// Read a snapshot from any reader, verifying magic and checksum. The
/// error tells truncation, corruption and malformed fields apart.
pub fn read_snapshot<R: Read>(r: R) -> Result<(SnapshotHeader, Vec<Body>), SnapshotError> {
    let mut r = ChecksumReader::new(BufReader::new(r));
    let mut magic = [0u8; 8];
    r.take(&mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    let n = r.take_u64("particle count")? as usize;
    // Refuse absurd sizes before allocating.
    if n > 1 << 40 {
        return Err(SnapshotError::BadField {
            what: "particle count is implausible",
        });
    }
    let step = r.take_u64("step counter")?;
    let mode = read_mode(&mut r)?;
    let mut bodies = Vec::with_capacity(n);
    for _ in 0..n {
        bodies.push(read_body(&mut r)?);
    }
    r.verify_trailer()?;
    Ok((SnapshotHeader { step, mode }, bodies))
}

impl Simulation {
    /// Write the current state to `path`, then recompute the cached
    /// forces with a fresh walk. A checkpoint is a synchronisation
    /// point: the file holds bodies only, and a resume rebuilds their
    /// forces with a fresh walk, whereas the step that just ended may
    /// have replayed recorded lists — same positions, other groups,
    /// other rounding. After the refresh this run continues from
    /// exactly the state [`Simulation::resume_checkpoint`] reconstructs.
    pub fn save_checkpoint<P: AsRef<Path>>(&mut self, path: P) -> io::Result<()> {
        let header = SnapshotHeader {
            step: self.steps_taken(),
            mode: self.mode(),
        };
        write_snapshot(File::create(path)?, &header, &self.bodies())?;
        self.reset_forces();
        Ok(())
    }

    /// Resume a simulation from a checkpoint: the particle state and
    /// integration mode come from the file, the solver configuration
    /// from `cfg` (mesh/θ/… may legitimately change across restarts).
    pub fn resume_checkpoint<P: AsRef<Path>>(cfg: TreePmConfig, path: P) -> io::Result<Simulation> {
        let (header, bodies) = read_snapshot(File::open(path)?)?;
        Ok(Simulation::new(cfg, bodies, header.mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bodies(n: usize) -> Vec<Body> {
        (0..n)
            .map(|i| Body {
                pos: Vec3::new(0.1 + 0.001 * i as f64, 0.5, 0.9 - 0.002 * i as f64),
                vel: Vec3::new(i as f64, -(i as f64), 0.5),
                mass: 1.0 / n as f64,
                id: (n - i) as u64,
            })
            .collect()
    }

    fn static_snapshot(n: usize, step: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(
            &mut buf,
            &SnapshotHeader {
                step,
                mode: SimulationMode::Static,
            },
            &sample_bodies(n),
        )
        .unwrap();
        buf
    }

    #[test]
    fn roundtrip_static() {
        let bodies = sample_bodies(17);
        let header = SnapshotHeader {
            step: 42,
            mode: SimulationMode::Static,
        };
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &header, &bodies).unwrap();
        let (h2, b2) = read_snapshot(&buf[..]).unwrap();
        assert_eq!(h2, header);
        assert_eq!(b2, bodies);
    }

    #[test]
    fn roundtrip_cosmological() {
        let bodies = sample_bodies(3);
        let header = SnapshotHeader {
            step: 7,
            mode: SimulationMode::Cosmological {
                cosmology: Cosmology::wmap7(),
                a: 0.0123,
            },
        };
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &header, &bodies).unwrap();
        let (h2, b2) = read_snapshot(&buf[..]).unwrap();
        assert_eq!(h2, header);
        assert_eq!(b2, bodies);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = static_snapshot(2, 0);
        buf[0] ^= 0xFF;
        assert!(matches!(
            read_snapshot(&buf[..]),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch() {
        // Flip a single bit in every body-region byte position in turn:
        // each one must surface as ChecksumMismatch, never Truncated,
        // never a silent success.
        let buf = static_snapshot(5, 1);
        let body_start = 8 + 8 + 8 + 1;
        for pos in (body_start..buf.len() - 8).step_by(17) {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 0x10;
            match read_snapshot(&corrupt[..]) {
                Err(SnapshotError::ChecksumMismatch { stored, computed }) => {
                    assert_ne!(stored, computed)
                }
                other => panic!("flip at {pos}: wanted ChecksumMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_not_a_checksum_mismatch() {
        let buf = static_snapshot(5, 1);
        // Cut mid-body: the named record is a particle field.
        match read_snapshot(&buf[..buf.len() - 20]) {
            Err(SnapshotError::Truncated { what }) => {
                assert!(what.starts_with("particle"), "unexpected record: {what}")
            }
            other => panic!("wanted Truncated, got {other:?}"),
        }
        // Cut inside the trailer itself.
        match read_snapshot(&buf[..buf.len() - 3]) {
            Err(SnapshotError::Truncated { what }) => assert_eq!(what, "checksum trailer"),
            other => panic!("wanted Truncated trailer, got {other:?}"),
        }
        // Cut inside the header.
        match read_snapshot(&buf[..12]) {
            Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("wanted Truncated header, got {other:?}"),
        }
    }

    #[test]
    fn flipped_trailer_bit_is_corruption() {
        let mut buf = static_snapshot(3, 9);
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(
            read_snapshot(&buf[..]),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_error_maps_to_io_error_kinds() {
        let e: io::Error = SnapshotError::Truncated { what: "x" }.into();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        let e: io::Error = SnapshotError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        }
        .into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn simulation_checkpoint_roundtrip() {
        let dir = std::env::temp_dir().join("greem_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let cfg = TreePmConfig::standard(16);
        let bodies = sample_bodies(32)
            .into_iter()
            .map(|mut b| {
                b.vel *= 1e-4;
                b
            })
            .collect();
        let mut sim = Simulation::new(cfg, bodies, SimulationMode::Static);
        sim.step(1e-3);
        sim.save_checkpoint(&path).unwrap();
        let resumed = Simulation::resume_checkpoint(cfg, &path).unwrap();
        assert_eq!(resumed.bodies(), sim.bodies());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumed_run_is_bitwise_the_uninterrupted_one_after_a_replayed_step() {
        // Eight clumps in the periodic box, dense enough that the lists
        // accept tree nodes: a node's monopole is summed with whatever
        // group the walk put the target in, so the PP forces of a replay
        // pass (the groups of the recording) and of the fresh walk a
        // resume starts with differ in their last bits. Saving must
        // leave this run holding the forces a resume will hold.
        let mut rng = greem_math::testutil::TestLcg::new(21);
        let bodies: Vec<Body> = (0..2048)
            .map(|i| {
                let clump = Vec3::new((i & 1) as f64, (i >> 1 & 1) as f64, (i >> 2 & 1) as f64);
                Body {
                    pos: Vec3::splat(0.3) + clump * 0.45 + rng.next_vec3() * 0.05,
                    vel: (rng.next_vec3() - Vec3::splat(0.5)) * 1e-2,
                    mass: 1.0 / 2048.0,
                    id: i as u64,
                }
            })
            .collect();
        let cfg = TreePmConfig {
            group_size: 24,
            ..TreePmConfig::standard(16)
        };
        let path = std::env::temp_dir().join(format!("greem_ckpt_replay_{}", std::process::id()));
        let mut sim = Simulation::new(cfg, bodies, SimulationMode::Static);
        sim.step(1e-3);
        let bd = sim.step(1e-3);
        assert_eq!(bd.pp_list_replays, 1, "the step must end in a replay");
        assert!(bd.walk.node_entries > 0, "the lists must hold nodes");
        sim.save_checkpoint(&path).unwrap();
        let mut resumed = Simulation::resume_checkpoint(cfg, &path).unwrap();
        std::fs::remove_file(&path).ok();
        for _ in 0..2 {
            sim.step(1e-3);
            resumed.step(1e-3);
        }
        assert_eq!(resumed.bodies(), sim.bodies());
    }
}
