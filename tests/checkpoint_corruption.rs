//! Integration: every checkpoint file kind refuses every single-bit flip
//! and every truncation with a typed error — never a panic, an abort or
//! a silent success. A flip in the magic is `BadMagic`; a flip in the
//! total-length word is a truncation or a checksum mismatch; any other
//! flip is `ChecksumMismatch`; a file cut short at any length is
//! `Truncated`.

use std::fs;
use std::path::{Path, PathBuf};

use greem::{read_snapshot, write_snapshot, Body, RankState, SimulationMode};
use greem::{SnapshotError, SnapshotHeader};
use greem_cosmo::Cosmology;
use greem_domain::{BalancerState, DomainGrid};
use greem_math::Vec3;
use greem_resil::{read_manifest, read_shard, write_manifest, write_shard};
use greem_resil::{CkptError, Manifest, ShardMeta};

/// One file kind: the file it wrote, and how to read it back.
struct Kind {
    name: &'static str,
    path: PathBuf,
    read: Box<dyn Fn() -> Result<(), SnapshotError>>,
}

fn bodies(n: usize) -> Vec<Body> {
    (0..n)
        .map(|i| Body {
            pos: Vec3::new(0.1 * i as f64, 0.5, 0.25),
            vel: Vec3::new(-0.01, 0.02 * i as f64, 0.0),
            mass: 1.0 / n as f64,
            id: i as u64,
        })
        .collect()
}

fn container_error<T>(r: Result<T, CkptError>) -> Result<(), SnapshotError> {
    match r {
        Ok(_) => Ok(()),
        Err(CkptError::Snapshot(e)) => Err(e),
        Err(e) => panic!("wanted a container error, got {e}"),
    }
}

fn snapshot(dir: &Path, name: &'static str, mode: SimulationMode) -> Kind {
    let path = dir.join(name);
    let header = SnapshotHeader { step: 5, mode };
    write_snapshot(fs::File::create(&path).unwrap(), &header, &bodies(3)).unwrap();
    let p = path.clone();
    Kind {
        name,
        path,
        read: Box::new(move || read_snapshot(fs::File::open(&p).unwrap()).map(|_| ())),
    }
}

fn kinds(dir: &Path) -> Vec<Kind> {
    let shard = RankState {
        step: 7,
        mode: SimulationMode::Static,
        balancer: BalancerState {
            step: 14,
            grids: vec![DomainGrid::uniform([2, 2, 1]); 3],
        },
        bodies: bodies(4),
    };
    write_shard(dir, 3, 2, 1, &shard).unwrap();
    let manifest = Manifest {
        generation: 4,
        step: 9,
        shards: vec![
            ShardMeta {
                bytes: 812,
                checksum: 0xDEAD_BEEF,
            },
            ShardMeta {
                bytes: 876,
                checksum: 0xF00D,
            },
        ],
    };
    write_manifest(dir, &manifest).unwrap();
    let (d1, d2) = (dir.to_path_buf(), dir.to_path_buf());
    vec![
        snapshot(dir, "static.snap", SimulationMode::Static),
        snapshot(
            dir,
            "cosmological.snap",
            SimulationMode::Cosmological {
                cosmology: Cosmology::wmap7(),
                a: 0.25,
            },
        ),
        Kind {
            name: "shard",
            path: greem_resil::ckpt::shard_path(dir, 3, 1),
            read: Box::new(move || container_error(read_shard(&d1, 3, 2, 1, None))),
        },
        Kind {
            name: "manifest",
            path: greem_resil::ckpt::manifest_path(dir, 4),
            read: Box::new(move || container_error(read_manifest(&d2, 4))),
        },
    ]
}

#[test]
fn every_flip_and_every_truncation_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("greem_ckpt_corruption_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    for kind in kinds(&dir) {
        let good = fs::read(&kind.path).unwrap();
        assert!(
            (kind.read)().is_ok(),
            "{}: the intact file loads",
            kind.name
        );
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                fs::write(&kind.path, &bad).unwrap();
                let got = (kind.read)();
                let typed = match byte {
                    0..8 => matches!(got, Err(SnapshotError::BadMagic { .. })),
                    8..16 => matches!(
                        got,
                        Err(SnapshotError::Truncated { .. }
                            | SnapshotError::ChecksumMismatch { .. })
                    ),
                    _ => matches!(got, Err(SnapshotError::ChecksumMismatch { .. })),
                };
                assert!(
                    typed,
                    "{}: flip of byte {byte} bit {bit} gave {got:?}",
                    kind.name
                );
            }
        }
        for len in 0..good.len() {
            fs::write(&kind.path, &good[..len]).unwrap();
            let got = (kind.read)();
            assert!(
                matches!(got, Err(SnapshotError::Truncated { .. })),
                "{}: cut to {len} of {} bytes gave {got:?}",
                kind.name,
                good.len()
            );
        }
    }
    fs::remove_dir_all(&dir).ok();
}
