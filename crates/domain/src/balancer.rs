//! The sampling-method load balancer.

use std::collections::VecDeque;

use greem_math::Vec3;
use mpisim::{Comm, Ctx};
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::grid::DomainGrid;

/// Length of the linear weighted moving average over past boundaries:
/// the paper smooths over the last five steps.
pub const HISTORY: usize = 5;

/// Balancer parameters.
#[derive(Debug, Clone, Copy)]
pub struct BalancerParams {
    /// Divisions per axis.
    pub div: [usize; 3],
    /// Total samples gathered at the root per rebalance. The paper
    /// samples a "small subset"; a few hundred per domain is plenty.
    pub total_samples: usize,
}

impl BalancerParams {
    pub fn new(div: [usize; 3], total_samples: usize) -> Self {
        BalancerParams { div, total_samples }
    }
}

/// Cut sorted sample positions into `parts` groups of equal count and
/// return the `parts+1` boundaries in `[0,1]`, each midway between the
/// straddling samples.
fn equal_count_cuts(sorted: &[f64], parts: usize) -> Vec<f64> {
    let n = sorted.len();
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0.0);
    for k in 1..parts {
        let idx = k * n / parts;
        let b = if n == 0 {
            k as f64 / parts as f64
        } else if idx == 0 {
            0.5 * sorted[0]
        } else if idx >= n {
            0.5 * (sorted[n - 1] + 1.0)
        } else {
            0.5 * (sorted[idx - 1] + sorted[idx])
        };
        bounds.push(b);
    }
    bounds.push(1.0);
    // Guard against coincident samples producing zero-width domains.
    for i in 1..bounds.len() {
        if bounds[i] <= bounds[i - 1] {
            bounds[i] = bounds[i - 1] + f64::EPSILON * 4.0;
        }
    }
    bounds
}

/// Pure 3-D multisection: cut the unit box so every domain receives the
/// same number of samples (±1). This is the root-process computation of
/// the sampling method; `samples` is consumed (sorted in place).
pub fn multisection(samples: &mut [Vec3], div: [usize; 3]) -> DomainGrid {
    let n = samples.len();
    // x cuts over all samples.
    samples.sort_unstable_by(|a, b| a.x.partial_cmp(&b.x).unwrap());
    let xs: Vec<f64> = samples.iter().map(|p| p.x).collect();
    let x_bounds = equal_count_cuts(&xs, div[0]);
    let mut y_bounds = Vec::with_capacity(div[0]);
    let mut z_bounds = Vec::with_capacity(div[0] * div[1]);
    for ix in 0..div[0] {
        let lo = ix * n / div[0];
        let hi = (ix + 1) * n / div[0];
        let slab = &mut samples[lo..hi];
        slab.sort_unstable_by(|a, b| a.y.partial_cmp(&b.y).unwrap());
        let ys: Vec<f64> = slab.iter().map(|p| p.y).collect();
        y_bounds.push(equal_count_cuts(&ys, div[1]));
        let m = slab.len();
        for iy in 0..div[1] {
            let lo2 = iy * m / div[1];
            let hi2 = (iy + 1) * m / div[1];
            let col = &mut slab[lo2..hi2];
            col.sort_unstable_by(|a, b| a.z.partial_cmp(&b.z).unwrap());
            let zs: Vec<f64> = col.iter().map(|p| p.z).collect();
            z_bounds.push(equal_count_cuts(&zs, div[2]));
        }
    }
    DomainGrid {
        div,
        x_bounds,
        y_bounds,
        z_bounds,
    }
}

/// Linear weighted moving average of boundary histories: weight `k+1`
/// for the k-th newest grid (the paper's smoothing against sampling
/// noise and boundary jumps).
fn smooth(history: &VecDeque<DomainGrid>) -> DomainGrid {
    let m = history.len();
    assert!(m >= 1);
    let total_w: f64 = (1..=m).map(|w| w as f64).sum();
    let mut out = history.back().unwrap().clone();
    let blend = |get: &dyn Fn(&DomainGrid) -> &[f64], out: &mut [f64]| {
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (age, g) in history.iter().enumerate() {
                // Oldest first in the deque: weight age+1 … m.
                acc += (age + 1) as f64 * get(g)[i];
            }
            *o = acc / total_w;
        }
    };
    blend(&|g: &DomainGrid| g.x_bounds.as_slice(), &mut out.x_bounds);
    for (row, y) in out.y_bounds.iter_mut().enumerate() {
        blend(&|g: &DomainGrid| g.y_bounds[row].as_slice(), y);
    }
    for (row, z) in out.z_bounds.iter_mut().enumerate() {
        blend(&|g: &DomainGrid| g.z_bounds[row].as_slice(), z);
    }
    out
}

/// The collective sampling-method balancer. One instance per rank; all
/// ranks converge to identical grids because the root broadcasts its
/// multisection result.
pub struct SamplingBalancer {
    params: BalancerParams,
    history: VecDeque<DomainGrid>,
    step: u64,
}

/// A serialisable snapshot of a balancer's mutable state: the boundary
/// history window and the step counter that seeds per-step sampling.
/// Restoring it (plus re-running the domain exchange) puts the
/// decomposition feedback loop back exactly where it was, which is what
/// makes checkpoint/rollback recovery bit-reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancerState {
    /// Rebalances performed so far (seeds the sampling RNG).
    pub step: u64,
    /// Boundary history, oldest first (at most [`HISTORY`] grids).
    pub grids: Vec<DomainGrid>,
}

impl SamplingBalancer {
    /// Start from the uniform decomposition.
    pub fn new(params: BalancerParams) -> Self {
        let mut history = VecDeque::new();
        history.push_back(DomainGrid::uniform(params.div));
        SamplingBalancer {
            params,
            history,
            step: 0,
        }
    }

    /// The current (smoothed) decomposition.
    pub fn current(&self) -> DomainGrid {
        smooth(&self.history)
    }

    /// The parameters this balancer was built with.
    pub fn params(&self) -> BalancerParams {
        self.params
    }

    /// Snapshot the mutable state for checkpointing.
    pub fn state(&self) -> BalancerState {
        BalancerState {
            step: self.step,
            grids: self.history.iter().cloned().collect(),
        }
    }

    /// Restore a state captured by [`SamplingBalancer::state`]. The
    /// grids must match this balancer's divisions.
    pub fn restore(&mut self, state: BalancerState) {
        assert!(
            !state.grids.is_empty() && state.grids.len() <= HISTORY,
            "balancer state must hold 1..=history grids"
        );
        for g in &state.grids {
            assert_eq!(g.div, self.params.div, "grid divisions must match");
        }
        self.step = state.step;
        self.history = state.grids.into();
    }

    /// Collective rebalance: every rank passes its particle positions
    /// and its measured force-calculation cost for the last step. The
    /// sampling rate of each rank is proportional to its cost — an
    /// expensive domain submits more samples and therefore shrinks.
    /// Returns the new smoothed grid (identical on every rank).
    pub fn rebalance(
        &mut self,
        ctx: &mut Ctx,
        world: &Comm,
        pos: &[Vec3],
        my_cost: f64,
    ) -> DomainGrid {
        self.step += 1;
        let mut span = greem_obs::trace::span("domain", "dd.rebalance");
        span.arg("particles", pos.len() as f64);
        let p = world.size();
        assert_eq!(p, self.params.div.iter().product::<usize>());
        // Everyone learns the total cost to normalise sampling rates.
        let total_cost = world.allreduce(ctx, vec![my_cost.max(1e-30)], |a, b| *a += *b)[0];
        let samples = self.draw(pos, my_cost.max(1e-30) / total_cost, world.rank());
        // Root gathers, multisections, broadcasts.
        let gathered = world.gather(ctx, 0, samples);
        let grid = if let Some(bufs) = gathered {
            let mut all: Vec<Vec3> = bufs.into_iter().flatten().collect();
            let grid = multisection(&mut all, self.params.div);
            let packed = pack_grid(&grid);
            world.bcast(ctx, 0, Some(packed));
            grid
        } else {
            let packed = world.bcast::<f64>(ctx, 0, None);
            unpack_grid(&packed, self.params.div)
        };
        self.push(grid)
    }

    /// Serial rebalance for single-rank runs and tests: samples are
    /// drawn with the same cost-weighting from per-rank particle sets.
    pub fn rebalance_serial(&mut self, per_rank: &[(Vec<Vec3>, f64)]) -> DomainGrid {
        self.step += 1;
        let total_cost: f64 = per_rank.iter().map(|(_, c)| c.max(1e-30)).sum();
        let mut all = Vec::new();
        for (r, (pos, cost)) in per_rank.iter().enumerate() {
            all.extend(self.draw(pos, cost.max(1e-30) / total_cost, r));
        }
        let grid = multisection(&mut all, self.params.div);
        self.push(grid)
    }

    /// Rank `rank`'s samples for the current step: a share `share` of
    /// the total sample budget (at least one sample from a non-empty
    /// rank), drawn with replacement from `pos` by an RNG seeded from
    /// the rank and the step — so the collective and the serial
    /// rebalance draw the same samples.
    fn draw(&self, pos: &[Vec3], share: f64, rank: usize) -> Vec<Vec3> {
        if pos.is_empty() {
            return Vec::new();
        }
        let want = ((self.params.total_samples as f64 * share).round() as usize)
            .min(pos.len())
            .max(1);
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 ^ (rank as u64) << 20 ^ self.step);
        (0..want)
            .map(|_| pos[rng.random_range(0..pos.len())])
            .collect()
    }

    /// Append `grid` to the history window and return the new smoothed
    /// decomposition.
    fn push(&mut self, grid: DomainGrid) -> DomainGrid {
        self.history.push_back(grid);
        while self.history.len() > HISTORY {
            self.history.pop_front();
        }
        self.current()
    }
}

/// Flatten a grid's boundaries into `div[0]+1 + div[0]·(div[1]+1) +
/// div[0]·div[1]·(div[2]+1)` floats, for broadcasting or checkpointing.
pub fn pack_grid(g: &DomainGrid) -> Vec<f64> {
    let mut out = g.x_bounds.clone();
    for y in &g.y_bounds {
        out.extend_from_slice(y);
    }
    for z in &g.z_bounds {
        out.extend_from_slice(z);
    }
    out
}

/// Inverse of [`pack_grid`].
pub fn unpack_grid(v: &[f64], div: [usize; 3]) -> DomainGrid {
    let mut i = 0;
    let mut take = |n: usize| -> Vec<f64> {
        let s = v[i..i + n].to_vec();
        i += n;
        s
    };
    let x_bounds = take(div[0] + 1);
    let y_bounds: Vec<Vec<f64>> = (0..div[0]).map(|_| take(div[1] + 1)).collect();
    let z_bounds: Vec<Vec<f64>> = (0..div[0] * div[1]).map(|_| take(div[2] + 1)).collect();
    DomainGrid {
        div,
        x_bounds,
        y_bounds,
        z_bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{NetModel, World};

    fn clustered(n: usize, seed: u64) -> Vec<Vec3> {
        // Half the particles in a dense blob, half uniform: the regime
        // where static decomposition fails (§II).
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Vec3::new(next(), next(), next())
                } else {
                    Vec3::new(
                        0.1 + 0.05 * next(),
                        0.2 + 0.05 * next(),
                        0.7 + 0.05 * next(),
                    )
                }
            })
            .collect()
    }

    #[test]
    fn multisection_equalises_sample_counts() {
        let div = [3, 2, 2];
        let samples = clustered(1200, 3);
        let grid = multisection(&mut samples.clone(), div);
        let mut counts = vec![0usize; grid.len()];
        for p in &samples {
            counts[grid.rank_of_point(*p)] += 1;
        }
        let want = 1200 / grid.len();
        for (r, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - want as i64).unsigned_abs() as usize <= want / 3 + 4,
                "rank {r}: {c} samples, want ≈{want} ({counts:?})"
            );
        }
        // And the domains still tile the unit box.
        let vol: f64 = (0..grid.len()).map(|r| grid.domain(r).volume()).sum();
        assert!((vol - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multisection_handles_degenerate_samples() {
        // All samples at one point: grid must stay valid (positive-width
        // domains) rather than collapse.
        let div = [2, 2, 2];
        let mut samples = vec![Vec3::splat(0.5); 64];
        let grid = multisection(&mut samples, div);
        for r in 0..grid.len() {
            let d = grid.domain(r);
            assert!(d.volume() >= 0.0);
            assert!(d.extent().min_component() >= 0.0);
        }
        let vol: f64 = (0..grid.len()).map(|r| grid.domain(r).volume()).sum();
        assert!((vol - 1.0).abs() < 1e-9);
    }

    #[test]
    fn feedback_shrinks_expensive_domains() {
        // Serial loop: cost ∝ local count² (the short-range pathology).
        // After a few rounds the count imbalance must drop sharply.
        let div = [2, 2, 1];
        let pos = clustered(4000, 9);
        let mut bal = SamplingBalancer::new(BalancerParams::new(div, 2000));
        let mut grid = bal.current();
        let imbalance = |grid: &DomainGrid| -> f64 {
            let mut counts = vec![0f64; grid.len()];
            for p in &pos {
                counts[grid.rank_of_point(*p)] += 1.0;
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            counts.iter().cloned().fold(0.0, f64::max) / mean
        };
        let initial = imbalance(&grid);
        for _ in 0..8 {
            let per_rank: Vec<(Vec<Vec3>, f64)> = (0..grid.len())
                .map(|r| {
                    let mine: Vec<Vec3> = pos
                        .iter()
                        .copied()
                        .filter(|p| grid.rank_of_point(*p) == r)
                        .collect();
                    let cost = (mine.len() as f64).powi(2);
                    (mine, cost)
                })
                .collect();
            grid = bal.rebalance_serial(&per_rank);
        }
        let final_imb = imbalance(&grid);
        assert!(
            final_imb < 0.6 * initial,
            "imbalance {initial} -> {final_imb}: balancer ineffective"
        );
    }

    #[test]
    fn moving_average_damps_jumps() {
        // Feed alternating extreme grids; the smoothed boundary must
        // stay strictly between the extremes.
        let div = [2, 1, 1];
        let mut bal = SamplingBalancer::new(BalancerParams::new(div, 100));
        for step in 0..6 {
            let x = if step % 2 == 0 { 0.2 } else { 0.8 };
            let mut g = DomainGrid::uniform(div);
            g.x_bounds = vec![0.0, x, 1.0];
            let sm = bal.push(g);
            assert!(
                sm.x_bounds[1] > 0.25 && sm.x_bounds[1] < 0.75,
                "step {step}: smoothed cut {}",
                sm.x_bounds[1]
            );
        }
    }

    #[test]
    fn state_roundtrip_resumes_identically() {
        // Two balancers: one runs 6 serial rebalances straight through;
        // the other is snapshotted after 3, restored into a fresh
        // instance, and continues. They must agree bit-for-bit.
        let div = [2, 2, 1];
        let pos = clustered(2000, 5);
        let per_rank = |grid: &DomainGrid| -> Vec<(Vec<Vec3>, f64)> {
            (0..grid.len())
                .map(|r| {
                    let mine: Vec<Vec3> = pos
                        .iter()
                        .copied()
                        .filter(|p| grid.rank_of_point(*p) == r)
                        .collect();
                    let cost = (mine.len() as f64).powi(2);
                    (mine, cost)
                })
                .collect()
        };
        let mut a = SamplingBalancer::new(BalancerParams::new(div, 500));
        let mut b = SamplingBalancer::new(BalancerParams::new(div, 500));
        let mut ga = a.current();
        let mut gb = b.current();
        for _ in 0..3 {
            ga = a.rebalance_serial(&per_rank(&ga));
            gb = b.rebalance_serial(&per_rank(&gb));
        }
        let saved = b.state();
        let mut c = SamplingBalancer::new(BalancerParams::new(div, 500));
        c.restore(saved);
        let mut gc = c.current();
        assert_eq!(pack_grid(&gb), pack_grid(&gc));
        for _ in 0..3 {
            ga = a.rebalance_serial(&per_rank(&ga));
            gc = c.rebalance_serial(&per_rank(&gc));
        }
        assert_eq!(pack_grid(&ga), pack_grid(&gc), "restored run must replay");
    }

    #[test]
    fn collective_and_serial_rebalance_draw_the_same_samples() {
        // Same rank, share and step: the same samples, so the collective
        // rebalance on every rank and the serial one over the same
        // per-rank sets cut the same grid, step after step. Integer
        // costs keep the allreduced total exact in any summation order.
        let div = [2, 2, 1];
        let all = clustered(2000, 31);
        let grid0 = DomainGrid::uniform(div);
        let per_rank: Vec<(Vec<Vec3>, f64)> = (0..grid0.len())
            .map(|r| {
                let mine: Vec<Vec3> = all
                    .iter()
                    .copied()
                    .filter(|p| grid0.rank_of_point(*p) == r)
                    .collect();
                let cost = (mine.len() as f64).powi(2);
                (mine, cost)
            })
            .collect();
        let mut serial = SamplingBalancer::new(BalancerParams::new(div, 400));
        let want: Vec<Vec<f64>> = (0..3)
            .map(|_| pack_grid(&serial.rebalance_serial(&per_rank)))
            .collect();
        let out = World::new(4).with_net(NetModel::free()).run(|ctx, world| {
            let mut bal = SamplingBalancer::new(BalancerParams::new(div, 400));
            let (mine, cost) = &per_rank[world.rank()];
            (0..3)
                .map(|_| pack_grid(&bal.rebalance(ctx, world, mine, *cost)))
                .collect::<Vec<_>>()
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(
                got, &want,
                "rank {rank}'s grids differ from the serial rebalance"
            );
        }
    }

    #[test]
    fn collective_rebalance_matches_on_all_ranks() {
        let div = [2, 2, 1];
        let out = World::new(4).with_net(NetModel::free()).run(|ctx, world| {
            let mut bal = SamplingBalancer::new(BalancerParams::new(div, 400));
            let grid0 = bal.current();
            let me = world.rank();
            let all = clustered(2000, 31);
            let mine: Vec<Vec3> = all
                .iter()
                .copied()
                .filter(|p| grid0.rank_of_point(*p) == me)
                .collect();
            let cost = (mine.len() as f64).powi(2);
            let g = bal.rebalance(ctx, world, &mine, cost);
            pack_grid(&g)
        });
        for other in &out[1..] {
            assert_eq!(&out[0], other, "grids must agree across ranks");
        }
    }
}
