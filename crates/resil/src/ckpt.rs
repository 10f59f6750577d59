//! Sharded checkpoints: one file per rank, plus a manifest.
//!
//! A whole-box snapshot (`greem::io`) goes through one rank — at the
//! paper's scale (a trillion particles) that single writer would
//! dominate the step time. Here every rank writes its own shard, so
//! checkpoint cost scales with the *largest rank*, and a failed rank's
//! replacement re-reads its shard without touching anyone else's.
//! Generation `g` is two kinds of `greem::io` container (layout and
//! sections there):
//!
//! ```text
//! shard-{rank:05}-g{g:06}.bin   per rank: shard, state, balancer, bodies
//! manifest-g{g:06}.bin          rank 0, last: manifest
//! ```
//!
//! The manifest records every shard's length and checksum (its
//! trailer), so a loader rejects a damaged or swapped shard without
//! trusting the shard alone. Every file is written atomically, and rank
//! 0 writes the manifest only after every shard is in place (a gather
//! orders it): a generation with a manifest is complete by
//! construction, and a crash mid-checkpoint leaves at worst a stale
//! `.tmp` beside the previous intact generation. The loader walks
//! generations newest-first and falls back across corrupt ones.

use std::fs;
use std::path::{Path, PathBuf};

use greem::io::{write_atomic, Container, ContainerWriter, Section, SnapshotError};
use greem::{RankState, SnapshotHeader};
use greem_domain::{pack_grid, unpack_grid, BalancerState, HISTORY};
use mpisim::{Comm, Ctx};

/// Why a sharded checkpoint operation failed.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A shard or manifest failed to parse or verify (truncated,
    /// bit-flipped, bad magic — see [`SnapshotError`]).
    Snapshot(SnapshotError),
    /// A file parsed but disagrees with what the manifest or the world
    /// expects (wrong rank, world size, generation, length, checksum).
    Mismatch(&'static str),
    /// No generation in the directory could be loaded.
    NoCheckpoint,
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CkptError::Snapshot(e) => write!(f, "checkpoint shard invalid: {e}"),
            CkptError::Mismatch(what) => write!(f, "checkpoint inconsistent: {what}"),
            CkptError::NoCheckpoint => write!(f, "no loadable checkpoint generation found"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            CkptError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

impl From<SnapshotError> for CkptError {
    fn from(e: SnapshotError) -> Self {
        CkptError::Snapshot(e)
    }
}

/// One manifest entry: the length and trailer checksum of a shard
/// (rank = position in the manifest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    pub bytes: u64,
    pub checksum: u64,
}

/// A parsed, verified manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub generation: u64,
    pub step: u64,
    pub shards: Vec<ShardMeta>,
}

pub fn shard_path(dir: &Path, generation: u64, rank: usize) -> PathBuf {
    dir.join(format!("shard-{rank:05}-g{generation:06}.bin"))
}

pub fn manifest_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("manifest-g{generation:06}.bin"))
}

/// Serialise one rank's state and write its shard atomically. Returns
/// the manifest entry for the written file.
pub fn write_shard(
    dir: &Path,
    generation: u64,
    world_size: usize,
    rank: usize,
    st: &RankState,
) -> Result<ShardMeta, CkptError> {
    let bal = &st.balancer;
    let div = bal.grids[0].div.map(|d| d as u64);
    let grids = bal.grids.iter().flat_map(pack_grid).map(f64::to_bits);
    let mut w = ContainerWriter::default();
    w.section(Section::Shard, [rank as u64, world_size as u64, generation])
        .state(&SnapshotHeader {
            step: st.step,
            mode: st.mode,
        })
        .section(
            Section::Balancer,
            [bal.step].into_iter().chain(div).chain(grids),
        )
        .bodies(&st.bodies);
    let file = w.finish();
    write_atomic(&shard_path(dir, generation, rank), &file)?;
    let trailer = file.last_chunk().expect("a container ends in its trailer");
    Ok(ShardMeta {
        bytes: file.len() as u64,
        checksum: u64::from_le_bytes(*trailer),
    })
}

/// Read and verify one shard. With `expect` (the manifest entry), the
/// file length and content checksum must also match the manifest.
pub fn read_shard(
    dir: &Path,
    generation: u64,
    world_size: usize,
    rank: usize,
    expect: Option<&ShardMeta>,
) -> Result<RankState, CkptError> {
    let file = fs::read(shard_path(dir, generation, rank))?;
    if expect.is_some_and(|m| m.bytes != file.len() as u64) {
        return Err(CkptError::Mismatch("shard length disagrees with manifest"));
    }
    let c = Container::parse(&file)?;
    if expect.is_some_and(|m| m.checksum != c.checksum) {
        return Err(CkptError::Mismatch(
            "shard checksum disagrees with manifest",
        ));
    }
    if c.words(Section::Shard)? != [rank as u64, world_size as u64, generation] {
        return Err(CkptError::Mismatch(
            "shard belongs to another rank, world size or generation",
        ));
    }
    let SnapshotHeader { step, mode } = c.state()?;
    Ok(RankState {
        step,
        mode,
        balancer: read_balancer(&c.words(Section::Balancer)?)?,
        bodies: c.bodies()?,
    })
}

/// Decode a `balancer` section: the grid count is the payload's length
/// over one packed grid's.
fn read_balancer(words: &[u64]) -> Result<BalancerState, SnapshotError> {
    let [step, x, y, z, ref packed @ ..] = *words else {
        return Err(SnapshotError::MALFORMED);
    };
    let div = [x, y, z].map(|d| usize::try_from(d).unwrap_or(usize::MAX));
    let [x, y, z] = div;
    // A packed grid (see `pack_grid`) is (x+1) + x(y+1) + xy(z+1) =
    // 1 + x(2 + y(2 + z)) floats. The divisions are data: saturate, and
    // a saturated length cannot divide the payload.
    let grid = x
        .saturating_mul(y.saturating_mul(z.saturating_add(2)).saturating_add(2))
        .saturating_add(1);
    // The balancer keeps at most `HISTORY` grids: a longer history
    // would fail `SamplingBalancer::restore`'s assertion.
    let grids = packed.len() / grid;
    if div.contains(&0) || grids == 0 || grids > HISTORY || packed.len() % grid != 0 {
        return Err(SnapshotError::BadField {
            what: "balancer history does not fit its divisions or length",
        });
    }
    let packed: Vec<f64> = packed.iter().map(|&w| f64::from_bits(w)).collect();
    Ok(BalancerState {
        step,
        grids: packed.chunks(grid).map(|g| unpack_grid(g, div)).collect(),
    })
}

/// Write a generation's manifest atomically (rank 0 only, after every
/// shard is in place).
pub fn write_manifest(dir: &Path, m: &Manifest) -> Result<(), CkptError> {
    let shards = m.shards.iter().flat_map(|s| [s.bytes, s.checksum]);
    let mut w = ContainerWriter::default();
    w.section(
        Section::Manifest,
        [m.generation, m.step].into_iter().chain(shards),
    );
    write_atomic(&manifest_path(dir, m.generation), &w.finish())?;
    Ok(())
}

/// Read and verify a generation's manifest.
pub fn read_manifest(dir: &Path, generation: u64) -> Result<Manifest, CkptError> {
    let file = fs::read(manifest_path(dir, generation))?;
    let words = Container::parse(&file)?.words(Section::Manifest)?;
    let [g, step, ref shards @ ..] = words[..] else {
        return Err(SnapshotError::MALFORMED.into());
    };
    if g != generation {
        return Err(CkptError::Mismatch(
            "manifest generation disagrees with name",
        ));
    }
    let (shards, []) = shards.as_chunks() else {
        return Err(SnapshotError::MALFORMED.into());
    };
    Ok(Manifest {
        generation,
        step,
        shards: shards
            .iter()
            .map(|&[bytes, checksum]| ShardMeta { bytes, checksum })
            .collect(),
    })
}

/// All generation numbers with a manifest file present, newest first.
/// (Presence only — validity is checked when the manifest is read.)
pub fn list_generations(dir: &Path) -> Vec<u64> {
    let mut gens: Vec<u64> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            let g = name.strip_prefix("manifest-g")?.strip_suffix(".bin")?;
            g.parse().ok()
        })
        .collect();
    gens.sort_unstable_by(|a, b| b.cmp(a));
    gens
}

/// Delete one generation's files (best effort; shards of every rank
/// plus the manifest).
pub fn remove_generation(dir: &Path, generation: u64, world_size: usize) {
    for rank in 0..world_size {
        fs::remove_file(shard_path(dir, generation, rank)).ok();
    }
    fs::remove_file(manifest_path(dir, generation)).ok();
}

/// Collective checkpoint write: every rank writes its shard, rank 0
/// gathers the manifest entries and writes the manifest last (so a
/// manifest's existence implies a complete generation). Returns this
/// rank's shard size in bytes.
pub fn write_sharded(
    ctx: &mut Ctx,
    world: &Comm,
    dir: &Path,
    generation: u64,
    st: &RankState,
) -> Result<u64, CkptError> {
    let meta = write_shard(dir, generation, world.size(), world.rank(), st)?;
    let written = world.gather(ctx, 0, vec![meta]).map(|rows| {
        let shards = rows.into_iter().flatten().collect();
        let m = Manifest {
            generation,
            step: st.step,
            shards,
        };
        vec![write_manifest(dir, &m).is_ok() as u64]
    });
    if world.bcast(ctx, 0, written)[0] == 0 {
        return Err(CkptError::Mismatch("rank 0 failed to write the manifest"));
    }
    Ok(meta.bytes)
}

/// Collective checkpoint load: rank 0 walks generations newest-first,
/// broadcasting each candidate manifest; every rank verifies its own
/// shard against it and the world agrees (allreduce) before accepting.
/// A generation with any bad shard is skipped entirely — recovery
/// falls back to the previous one. Returns the accepted generation,
/// this rank's restored state, and its shard size in bytes.
pub fn load_sharded(
    ctx: &mut Ctx,
    world: &Comm,
    dir: &Path,
) -> Result<(u64, RankState, u64), CkptError> {
    let me = world.rank();
    let mut candidates = if me == 0 {
        list_generations(dir)
    } else {
        Vec::new()
    }
    .into_iter();
    loop {
        // Rank 0 offers its next readable manifest of this world's size
        // as [generation, bytes0, ck0, bytes1, ck1, …]; empty when none
        // is left.
        let offer = (me == 0).then(|| {
            let fits = |m: &Manifest| m.shards.len() == world.size();
            match candidates.find_map(|g| read_manifest(dir, g).ok().filter(fits)) {
                Some(m) => std::iter::once(m.generation)
                    .chain(m.shards.iter().flat_map(|s| [s.bytes, s.checksum]))
                    .collect(),
                None => Vec::new(),
            }
        });
        let offer = world.bcast(ctx, 0, offer);
        let Some((&generation, shards)) = offer.split_first() else {
            return Err(CkptError::NoCheckpoint);
        };
        let meta = ShardMeta {
            bytes: shards[2 * me],
            checksum: shards[2 * me + 1],
        };
        let mine = read_shard(dir, generation, world.size(), me, Some(&meta));
        let all_ok = world.allreduce(ctx, vec![mine.is_ok() as u64], |a, b| *a = (*a).min(*b));
        if all_ok[0] == 1 {
            let st = mine.expect("all_ok implies local success");
            return Ok((generation, st, meta.bytes));
        }
        // Someone's shard was bad: loop, rank 0 offers the next one.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem::{Body, SimulationMode};
    use greem_domain::DomainGrid;
    use mpisim::{NetModel, World};

    fn vec3(x: f64, y: f64, z: f64) -> greem::Body {
        Body {
            pos: greem_math_vec(x, y, z),
            vel: greem_math_vec(z, x, y),
            mass: x + y + z,
            id: (x * 1000.0) as u64,
        }
    }

    fn greem_math_vec(x: f64, y: f64, z: f64) -> greem_math::Vec3 {
        greem_math::Vec3::new(x, y, z)
    }

    fn sample_state(rank: usize) -> RankState {
        let div = [2, 2, 1];
        RankState {
            step: 7,
            mode: SimulationMode::Static,
            balancer: BalancerState {
                step: 14,
                grids: vec![DomainGrid::uniform(div); 3],
            },
            bodies: (0..5 + rank)
                .map(|i| vec3(0.1 * (i + 1) as f64, 0.2, 0.3 + rank as f64 * 0.01))
                .collect(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("greem_sn2_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&d).ok();
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn shard_roundtrip() {
        let dir = tmpdir("roundtrip");
        let st = sample_state(1);
        let meta = write_shard(&dir, 3, 4, 1, &st).unwrap();
        let back = read_shard(&dir, 3, 4, 1, Some(&meta)).unwrap();
        assert_eq!(back, st);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_refuses_a_history_longer_than_the_balancer_keeps() {
        let dir = tmpdir("history");
        let mut st = sample_state(0);
        st.balancer.grids = vec![DomainGrid::uniform([2, 2, 1]); HISTORY + 1];
        write_shard(&dir, 1, 2, 0, &st).unwrap();
        assert!(matches!(
            read_shard(&dir, 1, 2, 0, None),
            Err(CkptError::Snapshot(SnapshotError::BadField { .. }))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_rejects_flip_truncation_and_wrong_rank() {
        let dir = tmpdir("reject");
        let st = sample_state(0);
        let meta = write_shard(&dir, 1, 2, 0, &st).unwrap();
        let path = shard_path(&dir, 1, 0);
        let good = fs::read(&path).unwrap();

        // Bit flip mid-file.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x04;
        fs::write(&path, &bad).unwrap();
        assert!(read_shard(&dir, 1, 2, 0, Some(&meta)).is_err());

        // Truncation: manifest length check must catch it first.
        fs::write(&path, &good[..good.len() - 10]).unwrap();
        assert!(matches!(
            read_shard(&dir, 1, 2, 0, Some(&meta)),
            Err(CkptError::Mismatch(_))
        ));
        // …and even without a manifest it is a typed truncation.
        assert!(matches!(
            read_shard(&dir, 1, 2, 0, None),
            Err(CkptError::Snapshot(SnapshotError::Truncated { .. }))
        ));

        // A shard read under the wrong rank id must refuse.
        fs::write(&path, &good).unwrap();
        fs::copy(&path, shard_path(&dir, 1, 1)).unwrap();
        assert!(matches!(
            read_shard(&dir, 1, 2, 1, None),
            Err(CkptError::Mismatch(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrip_and_listing() {
        let dir = tmpdir("manifest");
        for g in [1u64, 2, 5] {
            let m = Manifest {
                generation: g,
                step: g * 3,
                shards: vec![
                    ShardMeta {
                        bytes: 100 + g,
                        checksum: 0xABC ^ g,
                    };
                    2
                ],
            };
            write_manifest(&dir, &m).unwrap();
            assert_eq!(read_manifest(&dir, g).unwrap(), m);
        }
        assert_eq!(list_generations(&dir), vec![5, 2, 1]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collective_write_load_falls_back_over_corrupt_generation() {
        // Two corruptions of generation 2's shard of rank 2: a flipped
        // byte mid-file, and bit 30 of the body count — the length word
        // of the bodies section, which ends the file before the trailer.
        fn flip_mid_byte(bytes: &mut [u8]) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
        }
        fn flip_body_count(bytes: &mut [u8]) {
            let word = bytes.len() - 8 - 64 * sample_state(2).bodies.len() - 8;
            bytes[word + 3] ^= 1 << 6; // bit 30 of the little-endian u64
        }
        let dir = tmpdir("fallback");
        let out = World::new(4).with_net(NetModel::free()).run(|ctx, world| {
            let st_a = sample_state(world.rank());
            let mut st_b = st_a.clone();
            st_b.step = 8;
            write_sharded(ctx, world, &dir, 1, &st_a).unwrap();
            let mut loads = Vec::new();
            for corrupt in [flip_mid_byte, flip_body_count] {
                write_sharded(ctx, world, &dir, 2, &st_b).unwrap();
                world.barrier(ctx);
                if world.rank() == 0 {
                    let p = shard_path(&dir, 2, 2);
                    let mut bytes = fs::read(&p).unwrap();
                    corrupt(&mut bytes);
                    fs::write(&p, &bytes).unwrap();
                }
                world.barrier(ctx);
                let (gen, st, _bytes) = load_sharded(ctx, world, &dir).unwrap();
                loads.push((gen, st));
            }
            loads
        });
        for (rank, loads) in out.iter().enumerate() {
            for (gen, st) in loads {
                assert_eq!(*gen, 1, "must fall back to the intact generation");
                assert_eq!(*st, sample_state(rank));
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
}
