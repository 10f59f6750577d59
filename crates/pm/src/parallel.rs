//! The distributed PM driver: the paper's five-step cycle over `mpisim`.

use greem_fft::{Cpx, SlabFft};
use greem_math::Vec3;
use mpisim::{Comm, Ctx};

use crate::convert::{local_density_to_slabs, slabs_to_local_potential};
use crate::greens::GreensFn;
use crate::layout::{CellBox, LocalMesh};
use crate::mesh::{self, BlockLists, Grid};
use crate::relay::{relay_density_to_slabs, relay_slabs_to_local, RelayComms, RelayConfig};
use crate::timed_phase;

/// Configuration of the parallel PM solver.
#[derive(Debug, Clone, Copy)]
pub struct ParallelPmConfig {
    /// Mesh cells per side (power of two).
    pub n_mesh: usize,
    /// Cutoff radius (sets the S2 long-range filter).
    pub r_cut: f64,
    /// TSC deconvolution.
    pub deconvolve: bool,
    /// Number of FFT processes (≤ min(world size, n_mesh)).
    pub nf: usize,
    /// `Some(g)` uses the relay mesh method with `g` groups; `None`
    /// uses the direct global conversion.
    pub relay_groups: Option<usize>,
}

impl ParallelPmConfig {
    /// Paper-standard parameters for mesh side `n` on `p` ranks:
    /// `r_cut = 3/n`, as many FFT ranks as possible, direct conversion.
    pub fn standard(n_mesh: usize, p: usize) -> Self {
        ParallelPmConfig {
            n_mesh,
            r_cut: 3.0 / n_mesh as f64,
            deconvolve: true,
            nf: p.min(n_mesh),
            relay_groups: None,
        }
    }
}

/// Wall/simulated seconds of each PM phase of one cycle, named after the
/// paper's Table I rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct PmPhaseTimes {
    /// "density assignment" (wall seconds of local compute).
    pub density_assignment: f64,
    /// "communication": simulated network seconds of both conversions.
    pub communication_sim: f64,
    /// "communication": wall seconds spent in the conversions.
    pub communication_wall: f64,
    /// "FFT" (wall seconds; FFT ranks only, 0 elsewhere).
    pub fft: f64,
    /// "acceleration on mesh" (4-point differencing, wall seconds).
    pub acceleration_on_mesh: f64,
    /// "force interpolation" (TSC gather, wall seconds).
    pub force_interpolation: f64,
}

impl PmPhaseTimes {
    /// Sum of the wall-clock phases plus the simulated communication —
    /// the per-step "PM" total in Table I terms.
    pub fn total(&self) -> f64 {
        self.density_assignment
            + self.communication_sim
            + self.fft
            + self.acceleration_on_mesh
            + self.force_interpolation
    }

    /// Element-wise accumulate (averaging across steps is the caller's
    /// division).
    pub fn accumulate(&mut self, o: &PmPhaseTimes) {
        self.density_assignment += o.density_assignment;
        self.communication_sim += o.communication_sim;
        self.communication_wall += o.communication_wall;
        self.fft += o.fft;
        self.acceleration_on_mesh += o.acceleration_on_mesh;
        self.force_interpolation += o.force_interpolation;
    }
}

#[cfg(feature = "obs")]
impl greem_obs::Observe for PmPhaseTimes {
    /// Feeds `tableone_seconds{section=pm,phase=…}` counters, matching the
    /// Table I row names.
    fn observe(&self, reg: &mut greem_obs::Registry) {
        reg.with_label("section", "pm", |reg| {
            let rows = [
                ("density_assignment", self.density_assignment),
                ("communication", self.communication_sim),
                ("communication_wall", self.communication_wall),
                ("fft", self.fft),
                ("acceleration_on_mesh", self.acceleration_on_mesh),
                ("force_interpolation", self.force_interpolation),
            ];
            for (phase, secs) in rows {
                reg.with_label("phase", phase, |reg| {
                    reg.counter_add("tableone_seconds", secs);
                });
            }
        });
    }
}

/// The per-rank parallel PM solver. Construction is collective (it
/// splits the FFT and relay communicators); [`ParallelPm::solve`] is
/// called collectively once per long-range step.
pub struct ParallelPm {
    cfg: ParallelPmConfig,
    greens: GreensFn,
    /// FFT communicator (`COMM_FFT`): the first `nf` world ranks.
    fft: Option<SlabFft>,
    relay: Option<RelayComms>,
}

impl ParallelPm {
    /// Collectively build the solver over the world communicator.
    pub fn new(ctx: &mut Ctx, world: &Comm, cfg: ParallelPmConfig) -> Self {
        assert!(cfg.n_mesh.is_power_of_two());
        assert!(cfg.nf >= 1 && cfg.nf <= world.size() && cfg.nf <= cfg.n_mesh);
        let me = world.rank();
        // COMM_FFT: "we select processes to perform FFT so that their
        // physical positions are close to one another and create a new
        // communicator by calling MPI_Comm_split" — our contiguous
        // low ranks are torus-adjacent by construction.
        let fft_comm = world.split(ctx, u64::from(me >= cfg.nf), me as u64);
        let fft = (me < cfg.nf).then(|| SlabFft::new(cfg.n_mesh, fft_comm));
        let relay = cfg.relay_groups.map(|g| {
            RelayComms::build(
                ctx,
                world,
                RelayConfig {
                    nf: cfg.nf,
                    n_groups: g,
                },
            )
        });
        ParallelPm {
            greens: GreensFn::new(cfg.n_mesh, cfg.r_cut, cfg.deconvolve),
            cfg,
            fft,
            relay,
        }
    }

    /// One collective PM cycle: this rank's particles (positions in
    /// `[0,1)` inside its domain `[dlo, dhi)`) in, their long-range
    /// accelerations out, with per-phase timings. A particle whose TSC
    /// cloud leaves the domain's local mesh is refused with a panic.
    pub fn solve(
        &self,
        ctx: &mut Ctx,
        world: &Comm,
        dlo: [f64; 3],
        dhi: [f64; 3],
        pos: &[Vec3],
        mass: &[f64],
    ) -> (Vec<Vec3>, PmPhaseTimes) {
        assert_eq!(pos.len(), mass.len());
        let ParallelPmConfig { n_mesh: n, nf, .. } = self.cfg;
        let mut t = PmPhaseTimes::default();

        // Step 1: density assignment on the local (ghosted) mesh.
        let assign_box = CellBox::covering_domain(dlo, dhi, n);
        let grid = Grid::local(assign_box, n);
        let mut rho = LocalMesh::zeros(assign_box);
        timed_phase(
            "pm",
            "pm.density_assignment",
            &mut t.density_assignment,
            || mesh::assign(grid, &mut BlockLists::default(), pos, mass, &mut rho.data),
        );

        // Step 2: conversion to slabs (direct or relay).
        let v0 = ctx.vtime();
        let slab = timed_phase(
            "pm",
            "pm.convert_to_slabs",
            &mut t.communication_wall,
            || match &self.relay {
                Some(comms) => relay_density_to_slabs(ctx, comms, &rho, n),
                None => local_density_to_slabs(ctx, world, &rho, n, nf),
            },
        );
        t.communication_sim += ctx.vtime() - v0;

        // Step 3: slab FFT + Green's function (FFT ranks only).
        let pot_slab = timed_phase("pm", "pm.fft", &mut t.fft, || {
            let (fft, slab) = (self.fft.as_ref()?, slab?);
            let mut k = fft.forward(ctx, slab.iter().map(|&v| Cpx::real(v)).collect());
            let (y0, nyl) = fft.my_kplanes();
            for (plane, ky) in k.chunks_exact_mut(n * n).zip(y0..y0 + nyl) {
                for (x, row) in plane.chunks_exact_mut(n).enumerate() {
                    let g = self.greens.row(x, ky);
                    for (z, v) in row.iter_mut().enumerate() {
                        *v = *v * g[z.min(n - z)];
                    }
                }
            }
            Some(fft.backward(ctx, k).iter().map(|c| c.re).collect())
        });

        // Step 4: conversion back to the local ghosted potential mesh.
        // Ghosts: TSC spill (1) + 4-point difference reach (2) = 3.
        let want = assign_box.grow(2);
        let v0 = ctx.vtime();
        let phi = timed_phase(
            "pm",
            "pm.convert_to_local",
            &mut t.communication_wall,
            || match &self.relay {
                Some(comms) => relay_slabs_to_local(ctx, comms, pot_slab, n, want),
                None => slabs_to_local_potential(ctx, world, pot_slab.as_deref(), n, nf, want),
            },
        );
        t.communication_sim += ctx.vtime() - v0;

        // Step 5a: acceleration on the mesh (4-point differences over
        // the assignment box, using the grown potential).
        let mut acc = std::array::from_fn(|_| vec![0.0; assign_box.len()]);
        timed_phase(
            "pm",
            "pm.acceleration_on_mesh",
            &mut t.acceleration_on_mesh,
            || mesh::accel_from_potential(grid, Grid::local(want, n), &phi.data, &mut acc),
        );

        // Step 5b: TSC force interpolation at the particles.
        let fields = acc.each_ref().map(|a| (grid, a.as_slice()));
        let accel = timed_phase(
            "pm",
            "pm.force_interpolation",
            &mut t.force_interpolation,
            || mesh::gather(fields, pos),
        );
        (accel.into_iter().map(Vec3::from).collect(), t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{PmParams, PmSolver};
    use mpisim::{NetModel, World};

    use greem_math::testutil::rand_positions as rand_pos;

    /// The parallel solver (direct and relay) must reproduce the serial
    /// PM accelerations for particles scattered across rank domains.
    #[test]
    fn parallel_matches_serial() {
        let n_mesh = 16usize;
        let npart = 64usize;
        let all_pos = rand_pos(npart, 77);
        let all_mass: Vec<f64> = (0..npart).map(|i| 1.0 + (i % 4) as f64 * 0.25).collect();

        let serial = PmSolver::new(PmParams {
            n_mesh,
            r_cut: 3.0 / n_mesh as f64,
            deconvolve: true,
        })
        .solve(&all_pos, &all_mass);

        for relay_groups in [None, Some(2)] {
            let p = 4usize;
            let results = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
                let me = world.rank();
                let cfg = ParallelPmConfig {
                    n_mesh,
                    r_cut: 3.0 / n_mesh as f64,
                    deconvolve: true,
                    nf: 2,
                    relay_groups,
                };
                let pm = ParallelPm::new(ctx, world, cfg);
                // Domain: x-slices of width 1/4.
                let dlo = [me as f64 / p as f64, 0.0, 0.0];
                let dhi = [(me + 1) as f64 / p as f64, 1.0, 1.0];
                let mine: Vec<usize> = (0..npart)
                    .filter(|&i| all_pos[i].x >= dlo[0] && all_pos[i].x < dhi[0])
                    .collect();
                let pos: Vec<Vec3> = mine.iter().map(|&i| all_pos[i]).collect();
                let mass: Vec<f64> = mine.iter().map(|&i| all_mass[i]).collect();
                let (acc, _times) = pm.solve(ctx, world, dlo, dhi, &pos, &mass);
                mine.into_iter().zip(acc).collect::<Vec<_>>()
            });
            let mut count = 0;
            for rank_result in results {
                for (i, acc) in rank_result {
                    let want = serial.accel[i];
                    let scale = want.norm().max(1e-10);
                    assert!(
                        (acc - want).norm() < 1e-8 * scale.max(1.0),
                        "relay={relay_groups:?} particle {i}: {acc:?} vs {want:?}"
                    );
                    count += 1;
                }
            }
            assert_eq!(count, npart, "every particle must be owned exactly once");
        }
    }

    /// A body outside its rank's domain on y must not deposit into
    /// another row of the local mesh: release builds refuse it too.
    #[test]
    #[should_panic(expected = "particle at Vec3 { x: 0.25, y: 0.9, z: 0.5 } leaves the local mesh")]
    fn solve_refuses_a_body_outside_its_domain() {
        World::new(1).run(|ctx, world| {
            let pm = ParallelPm::new(ctx, world, ParallelPmConfig::standard(16, 1));
            let pos = [Vec3::new(0.25, 0.25, 0.5), Vec3::new(0.25, 0.9, 0.5)];
            pm.solve(ctx, world, [0.0; 3], [0.5, 0.5, 1.0], &pos, &[1.0, 1.0]);
        });
    }

    #[test]
    fn phase_times_are_populated() {
        let results = World::new(2)
            .with_net(NetModel::k_computer())
            .run(|ctx, world| {
                let cfg = ParallelPmConfig::standard(8, 2);
                let pm = ParallelPm::new(ctx, world, cfg);
                let me = world.rank();
                let dlo = [me as f64 * 0.5, 0.0, 0.0];
                let dhi = [(me + 1) as f64 * 0.5, 1.0, 1.0];
                let pos = vec![Vec3::new(dlo[0] + 0.1, 0.5, 0.5)];
                let mass = vec![1.0];
                let (_, t) = pm.solve(ctx, world, dlo, dhi, &pos, &mass);
                t
            });
        for t in results {
            assert!(t.density_assignment >= 0.0);
            assert!(t.communication_sim > 0.0, "conversions must cost sim time");
            assert!(t.total() > 0.0);
        }
    }
}
