//! The distributed PM driver: the paper's five-step cycle over `mpisim`.

use std::time::Instant;

use greem_fft::{Cpx, SlabFft};
use greem_math::Vec3;
use mpisim::{Comm, Ctx};

use crate::convert::{local_density_to_slabs, slabs_to_local_potential};
use crate::greens::GreensFn;
use crate::layout::{CellBox, LocalMesh};
use crate::relay::{relay_density_to_slabs, relay_slabs_to_local, RelayComms, RelayConfig};
use crate::tsc::tsc_weights;

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

    /// The configuration.
    pub fn config(&self) -> &ParallelPmConfig {
        &self.cfg
    }

    /// One collective PM cycle: this rank's particles (positions in
    /// `[0,1)` inside its domain `[dlo, dhi)`) in, their long-range
    /// accelerations out, with per-phase timings.
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
        let n = self.cfg.n_mesh;
        let mut times = PmPhaseTimes::default();

        // Step 1: density assignment on the local (ghosted) mesh.
        let t0 = Instant::now();
        #[cfg(feature = "obs")]
        let span = greem_obs::trace::span("pm", "pm.density_assignment");
        let assign_box = CellBox::covering_domain(dlo, dhi, n);
        let mut rho = LocalMesh::zeros(assign_box);
        let vol_inv = (n * n * n) as f64;
        for (p, &m) in pos.iter().zip(mass) {
            let ([ix, iy, iz], [wx, wy, wz]) = tsc_weights([p.x, p.y, p.z], n);
            let amp = m * vol_inv;
            for (a, &wxa) in wx.iter().enumerate() {
                for (b, &wyb) in wy.iter().enumerate() {
                    let wxy = wxa * wyb * amp;
                    for (c, &wzc) in wz.iter().enumerate() {
                        rho.add([ix + a as i64, iy + b as i64, iz + c as i64], wxy * wzc);
                    }
                }
            }
        }
        times.density_assignment = t0.elapsed().as_secs_f64();
        #[cfg(feature = "obs")]
        drop(span);

        // Step 2: conversion to slabs (direct or relay).
        let t0 = Instant::now();
        let v0 = ctx.vtime();
        #[cfg(feature = "obs")]
        let span = greem_obs::trace::span("pm", "pm.convert_to_slabs");
        let slab = match &self.relay {
            Some(comms) => relay_density_to_slabs(ctx, comms, &rho, n),
            None => local_density_to_slabs(ctx, world, &rho, n, self.cfg.nf),
        };
        #[cfg(feature = "obs")]
        drop(span);
        times.communication_wall += t0.elapsed().as_secs_f64();
        times.communication_sim += ctx.vtime() - v0;

        // Step 3: slab FFT + Green's function (FFT ranks only).
        let t0 = Instant::now();
        #[cfg(feature = "obs")]
        let span = greem_obs::trace::span("pm", "pm.fft");
        let pot_slab = match (&self.fft, slab) {
            (Some(fft), Some(slab)) => {
                let (_, nxl) = fft.my_planes();
                let mut cbuf: Vec<Cpx> = slab.iter().map(|&v| Cpx::real(v)).collect();
                debug_assert_eq!(cbuf.len(), nxl * n * n);
                let mut k = fft.forward(ctx, cbuf);
                let (y0, nyl) = fft.my_kplanes();
                for yl in 0..nyl {
                    let ky = y0 + yl;
                    for x in 0..n {
                        let g = self.greens.row(x, ky);
                        for (z, v) in k[(yl * n + x) * n..][..n].iter_mut().enumerate() {
                            *v = *v * g[z.min(n - z)];
                        }
                    }
                }
                cbuf = fft.backward(ctx, k);
                Some(cbuf.iter().map(|c| c.re).collect::<Vec<f64>>())
            }
            _ => None,
        };
        times.fft = t0.elapsed().as_secs_f64();
        #[cfg(feature = "obs")]
        drop(span);

        // Step 4: conversion back to the local ghosted potential mesh.
        // Ghosts: TSC spill (1) + 4-point difference reach (2) = 3.
        let t0 = Instant::now();
        let v0 = ctx.vtime();
        #[cfg(feature = "obs")]
        let span = greem_obs::trace::span("pm", "pm.convert_to_local");
        let want = assign_box.grow(2);
        let phi = match &self.relay {
            Some(comms) => relay_slabs_to_local(ctx, comms, pot_slab, n, want),
            None => slabs_to_local_potential(ctx, world, pot_slab.as_deref(), n, self.cfg.nf, want),
        };
        #[cfg(feature = "obs")]
        drop(span);
        times.communication_wall += t0.elapsed().as_secs_f64();
        times.communication_sim += ctx.vtime() - v0;

        // Step 5a: acceleration on the mesh (4-point differences over
        // the assignment box, using the grown potential).
        let t0 = Instant::now();
        #[cfg(feature = "obs")]
        let span = greem_obs::trace::span("pm", "pm.acceleration_on_mesh");
        let inv12h = n as f64 / 12.0;
        let mut acc_mesh = [
            LocalMesh::zeros(assign_box),
            LocalMesh::zeros(assign_box),
            LocalMesh::zeros(assign_box),
        ];
        for x in assign_box.lo[0]..assign_box.hi[0] {
            for y in assign_box.lo[1]..assign_box.hi[1] {
                for z in assign_box.lo[2]..assign_box.hi[2] {
                    let d = |axis: usize| -> f64 {
                        let mut cp = [x, y, z];
                        let mut cm = [x, y, z];
                        let mut cp2 = [x, y, z];
                        let mut cm2 = [x, y, z];
                        cp[axis] += 1;
                        cm[axis] -= 1;
                        cp2[axis] += 2;
                        cm2[axis] -= 2;
                        -phi.get(cp2) + 8.0 * phi.get(cp) - 8.0 * phi.get(cm) + phi.get(cm2)
                    };
                    let c = [x, y, z];
                    acc_mesh[0].set(c, -d(0) * inv12h);
                    acc_mesh[1].set(c, -d(1) * inv12h);
                    acc_mesh[2].set(c, -d(2) * inv12h);
                }
            }
        }
        times.acceleration_on_mesh = t0.elapsed().as_secs_f64();
        #[cfg(feature = "obs")]
        drop(span);

        // Step 5b: TSC force interpolation at the particles.
        let t0 = Instant::now();
        #[cfg(feature = "obs")]
        let span = greem_obs::trace::span("pm", "pm.force_interpolation");
        let accel: Vec<Vec3> = pos
            .iter()
            .map(|p| {
                let ([ix, iy, iz], [wx, wy, wz]) = tsc_weights([p.x, p.y, p.z], n);
                let mut v = Vec3::ZERO;
                for (a, &wxa) in wx.iter().enumerate() {
                    for (b, &wyb) in wy.iter().enumerate() {
                        let wxy = wxa * wyb;
                        for (c, &wzc) in wz.iter().enumerate() {
                            let cell = [ix + a as i64, iy + b as i64, iz + c as i64];
                            let w = wxy * wzc;
                            v.x += w * acc_mesh[0].get(cell);
                            v.y += w * acc_mesh[1].get(cell);
                            v.z += w * acc_mesh[2].get(cell);
                        }
                    }
                }
                v
            })
            .collect();
        times.force_interpolation = t0.elapsed().as_secs_f64();
        #[cfg(feature = "obs")]
        drop(span);
        (accel, times)
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
