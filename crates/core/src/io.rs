//! The checkpoint container, and snapshot I/O on it.
//!
//! Production runs (the paper's ran for months on 24576 nodes) live and
//! die by checkpoints. Every checkpoint file in the workspace is one
//! container, and the kinds differ only in their sections: a snapshot
//! (here) is `state` + `bodies`, a rank shard (`greem_resil::ckpt`)
//! `shard` + `state` + `balancer` + `bodies`, a generation manifest
//! `manifest`, a galaxy-scenario checkpoint (`greem_astro::checkpoint`)
//! `state` + `scenario` + `bodies`.
//!
//! ```text
//! magic "GREEMCK1" (its last byte is the version) | total length
//! section × k: tag (1 byte) | payload length in bytes | payload
//! trailer: FNV-1a 64 of every byte before it
//!
//! tag section   payload in 8-byte words (u64 little-endian, f64 bits)
//!  1  state     step; then a, Ωm, ΩΛ, h, n_s if cosmological
//!  2  bodies    per body: pos (3), vel (3), mass, id
//!  3  balancer  step, div (3); the packed grids, oldest first
//!  4  shard     rank, world size, generation
//!  5  manifest  generation, step; per shard: bytes, checksum
//!  6  scenario  mergers, captures, E₀, energy offset, virial history
//! ```
//!
//! No count is stored: a payload's length says how many bodies, grids,
//! shards or virial ratios it holds.
//!
//! **Verify, then decode.** [`Container::parse`] checks the magic
//! ([`SnapshotError::BadMagic`]), then the declared length (a shorter
//! file is [`SnapshotError::Truncated`], naming the section it ends in:
//! an interrupted write, after which the previous generation is fine),
//! then the trailer ([`SnapshotError::ChecksumMismatch`]: a bit flipped
//! in storage). Only then are sections split and decoded, so no number
//! read from the file sizes an allocation or a loop before the checksum
//! vouched for it; a verified value that cannot be valid is
//! [`SnapshotError::BadField`].
//!
//! **Write atomically.** Every checkpoint writer goes through
//! [`write_atomic`]: a `<path>.tmp` sibling, synced, then renamed over
//! `path`. A save that fails or crashes partway leaves the previous
//! checkpoint whole.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

use greem_cosmo::Cosmology;
use greem_math::{Fnv1a, Vec3};

use crate::particle::Body;
use crate::simulation::{Simulation, SimulationMode};
use crate::TreePmConfig;

const MAGIC: &[u8; 8] = b"GREEMCK1";
/// Magic and total length.
const HEADER: usize = 16;

/// Why a checkpoint failed to load. See the module docs for how
/// recovery code distinguishes the variants.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the container magic.
    BadMagic { found: [u8; 8] },
    /// The file is shorter than it declares; `what` names the section
    /// (or the checksum trailer) it ends in.
    Truncated { what: &'static str },
    /// Every byte was present but the FNV-1a trailer disagrees: some
    /// bit flipped between write and read.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// A verified field decoded to a value that cannot be valid.
    BadField { what: &'static str },
}

impl SnapshotError {
    /// A verified section that is missing, or whose payload does not
    /// fit its format.
    pub const MALFORMED: SnapshotError = SnapshotError::BadField {
        what: "section missing or malformed",
    };
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a greem checkpoint (magic {:02x?})", found)
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

/// The section vocabulary (tags as in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    State = 1,
    Bodies,
    Balancer,
    Shard,
    Manifest,
    Scenario,
}

/// What a truncation names, by tag.
const SECTION_NAMES: [&str; 7] = [
    "unknown section",
    "state",
    "particle bodies",
    "balancer history",
    "shard identity",
    "manifest",
    "scenario",
];

/// Snapshot metadata: the `state` section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotHeader {
    /// Steps taken when the snapshot was written.
    pub step: u64,
    /// Integration mode (with the scale factor for cosmological runs).
    pub mode: SimulationMode,
}

/// Builds one container in memory, section by section;
/// [`ContainerWriter::finish`] frames it.
pub struct ContainerWriter(Vec<u8>);

impl Default for ContainerWriter {
    fn default() -> Self {
        ContainerWriter([&MAGIC[..], &[0; 8]].concat())
    }
}

impl ContainerWriter {
    /// Append a section of `words`.
    pub fn section(&mut self, tag: Section, words: impl IntoIterator<Item = u64>) -> &mut Self {
        self.0.push(tag as u8);
        let at = self.0.len();
        self.0.extend_from_slice(&[0; 8]);
        for w in words {
            self.0.extend_from_slice(&w.to_le_bytes());
        }
        let len = (self.0.len() - at - 8) as u64;
        self.0[at..at + 8].copy_from_slice(&len.to_le_bytes());
        self
    }

    pub fn state(&mut self, header: &SnapshotHeader) -> &mut Self {
        let cosmology = match header.mode {
            SimulationMode::Static => vec![],
            SimulationMode::Cosmological { cosmology: c, a } => {
                vec![a, c.omega_m, c.omega_l, c.h, c.n_s]
            }
        };
        let words = cosmology.into_iter().map(f64::to_bits);
        self.section(Section::State, [header.step].into_iter().chain(words))
    }

    pub fn bodies(&mut self, bodies: &[Body]) -> &mut Self {
        self.0.reserve(64 * bodies.len());
        let words = bodies.iter().flat_map(|b| {
            let (p, v) = (b.pos, b.vel);
            let floats = [p.x, p.y, p.z, v.x, v.y, v.z, b.mass].map(f64::to_bits);
            floats.into_iter().chain([b.id])
        });
        self.section(Section::Bodies, words)
    }

    /// The finished file: total length patched in, trailer appended.
    pub fn finish(mut self) -> Vec<u8> {
        let total = (self.0.len() + 8) as u64;
        self.0[8..HEADER].copy_from_slice(&total.to_le_bytes());
        let mut hash = Fnv1a::default();
        hash.bytes(&self.0);
        self.0.extend_from_slice(&hash.0.to_le_bytes());
        self.0
    }
}

/// A verified container, split into its sections.
pub struct Container<'a> {
    /// Each section's payload words, by tag.
    sections: [Option<&'a [[u8; 8]]>; SECTION_NAMES.len()],
    /// The trailer: FNV-1a 64 of every byte before it.
    pub checksum: u64,
}

impl<'a> Container<'a> {
    /// Check magic, length and trailer of a whole file, in that order;
    /// then split the verified bytes into sections.
    pub fn parse(file: &'a [u8]) -> Result<Self, SnapshotError> {
        let truncated = |what| SnapshotError::Truncated { what };
        let magic = file.first_chunk::<8>().ok_or(truncated("magic"))?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic { found: *magic });
        }
        let declared = file[8..].first_chunk().ok_or(truncated("total length"))?;
        let declared = u64::from_le_bytes(*declared);
        if (file.len() as u64) < declared {
            return Err(truncated(ending_section(file, declared)));
        }
        let (body, trailer) = file
            .split_last_chunk()
            .ok_or(truncated("checksum trailer"))?;
        let (stored, mut computed) = (u64::from_le_bytes(*trailer), Fnv1a::default());
        computed.bytes(body);
        if stored != computed.0 {
            let computed = computed.0;
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut rest = body.get(HEADER..).ok_or(SnapshotError::MALFORMED)?;
        let mut sections = [None; SECTION_NAMES.len()];
        while let Some((&tag, tail)) = rest.split_first() {
            let (len, tail) = tail.split_first_chunk().ok_or(SnapshotError::MALFORMED)?;
            let len = usize::try_from(u64::from_le_bytes(*len)).unwrap_or(usize::MAX);
            let payload = tail.get(..len).ok_or(SnapshotError::MALFORMED)?;
            let (Some(slot), (words, [])) = (sections.get_mut(tag as usize), payload.as_chunks())
            else {
                return Err(SnapshotError::MALFORMED);
            };
            *slot = Some(words);
            rest = &tail[len..];
        }
        if file.len() as u64 != declared {
            return Err(SnapshotError::MALFORMED);
        }
        Ok(Container {
            sections,
            checksum: stored,
        })
    }

    /// The words of the section tagged `tag`.
    pub fn words(&self, tag: Section) -> Result<Vec<u64>, SnapshotError> {
        let words = self.sections[tag as usize].ok_or(SnapshotError::MALFORMED)?;
        Ok(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
    }

    pub fn state(&self) -> Result<SnapshotHeader, SnapshotError> {
        let (step, mode) = match self.words(Section::State)?[..] {
            [step] => (step, SimulationMode::Static),
            [step, a, omega_m, omega_l, h, n_s] => {
                let [a, omega_m, omega_l, h, n_s] =
                    [a, omega_m, omega_l, h, n_s].map(f64::from_bits);
                if !(a > 0.0 && a.is_finite()) {
                    return Err(SnapshotError::BadField {
                        what: "scale factor must be finite and positive",
                    });
                }
                let cosmology = Cosmology {
                    omega_m,
                    omega_l,
                    h,
                    n_s,
                };
                (step, SimulationMode::Cosmological { cosmology, a })
            }
            _ => return Err(SnapshotError::MALFORMED),
        };
        Ok(SnapshotHeader { step, mode })
    }

    pub fn bodies(&self) -> Result<Vec<Body>, SnapshotError> {
        let words = self.sections[Section::Bodies as usize].ok_or(SnapshotError::MALFORMED)?;
        let (records, []) = words.as_chunks() else {
            return Err(SnapshotError::MALFORMED);
        };
        let body = |record: &[[u8; 8]; 8]| {
            let [px, py, pz, vx, vy, vz, mass, id] = record.map(u64::from_le_bytes);
            let f = f64::from_bits;
            Body {
                pos: Vec3::new(f(px), f(py), f(pz)),
                vel: Vec3::new(f(vx), f(vy), f(vz)),
                mass: f(mass),
                id,
            }
        };
        Ok(records.iter().map(body).collect())
    }
}

/// The section a file shorter than its `declared` length ends in, from
/// the section headers that are there. They only name the error:
/// nothing is decoded or allocated from them.
fn ending_section(file: &[u8], declared: u64) -> &'static str {
    let sections_end = usize::try_from(declared).unwrap_or(usize::MAX) - 8;
    let mut at = HEADER;
    while at < sections_end {
        let Some(&[tag, ref len @ ..]) = file.get(at..).and_then(|s| s.first_chunk::<9>()) else {
            return "section header";
        };
        let len = usize::try_from(u64::from_le_bytes(*len)).unwrap_or(usize::MAX);
        at = at.saturating_add(9).saturating_add(len);
        if at > file.len() {
            return SECTION_NAMES.get(tag as usize).unwrap_or(&SECTION_NAMES[0]);
        }
    }
    "checksum trailer"
}

/// Write `bytes` to `path` through a `<path>.tmp` sibling: write, sync,
/// rename. A failure at any point leaves whatever `path` held before.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data().ok(); // best effort; tests run on tmpfs
    fs::rename(&tmp, path)
}

fn snapshot_bytes(header: &SnapshotHeader, bodies: &[Body]) -> Vec<u8> {
    let mut w = ContainerWriter::default();
    w.state(header).bodies(bodies);
    w.finish()
}

/// Write a snapshot to any writer.
pub fn write_snapshot<W: Write>(mut w: W, h: &SnapshotHeader, bodies: &[Body]) -> io::Result<()> {
    w.write_all(&snapshot_bytes(h, bodies))?;
    w.flush()
}

/// Read a snapshot from any reader. The error tells truncation,
/// corruption and malformed fields apart.
pub fn read_snapshot<R: Read>(mut r: R) -> Result<(SnapshotHeader, Vec<Body>), SnapshotError> {
    let mut file = Vec::new();
    r.read_to_end(&mut file).map_err(SnapshotError::Io)?;
    let c = Container::parse(&file)?;
    Ok((c.state()?, c.bodies()?))
}

impl Simulation {
    /// Write the current state to `path` atomically, then recompute the
    /// cached forces with a fresh walk. A checkpoint is a
    /// synchronisation point: the file holds bodies only, and a resume
    /// rebuilds their forces with a fresh walk, whereas the step that
    /// just ended may have replayed recorded lists — same positions,
    /// other groups, other rounding. After the refresh this run
    /// continues from exactly the state
    /// [`Simulation::resume_checkpoint`] reconstructs.
    pub fn save_checkpoint<P: AsRef<Path>>(&mut self, path: P) -> io::Result<()> {
        let header = SnapshotHeader {
            step: self.steps_taken(),
            mode: self.mode(),
        };
        write_atomic(path.as_ref(), &snapshot_bytes(&header, &self.bodies()))?;
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
        let body_start = HEADER + 9 + 8 + 9;
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
    fn failed_save_leaves_the_previous_checkpoint_whole() {
        let dir = std::env::temp_dir().join(format!("greem_ckpt_atomic_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let cfg = TreePmConfig::standard(16);
        let mut sim = Simulation::new(cfg, sample_bodies(32), SimulationMode::Static);
        sim.save_checkpoint(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        sim.step(1e-3);
        // The temporary sibling cannot be created: the save fails
        // before it could touch `path`.
        std::fs::create_dir(dir.join("snap.bin.tmp")).unwrap();
        assert!(sim.save_checkpoint(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let (header, _) = read_snapshot(File::open(&path).unwrap()).unwrap();
        assert_eq!(header.step, 0);
        std::fs::remove_dir_all(&dir).ok();
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
