//! Scripts shared by the phantom-equivalence and clock-golden tests.

use mpisim::Script;

/// A script exercising every collective shape the engine supports:
/// rank-skewed compute, rooted gather/bcast/reduce, group-scoped
/// reduce/bcast (the relay-mesh shape), allgather (ragged), allreduce,
/// and barriers, over several steps.
pub fn mixed_script(p: usize, steps: u64) -> Script {
    let mut s = Script::new();
    for step in 0..steps {
        s.set_step(step);
        s.compute("dd.position_update", move |r| {
            1e-4 + r as f64 * 1e-6 + step as f64 * 1e-7
        });
        s.gather("dd.sampling_method", 0, |r| 24 * (r % 5 + 1));
        s.bcast("dd.sampling_method", 0, |_| 4096);
        s.group_reduce("pm.communication", |r| (r % 3) as u64, |_| 8192);
        s.group_bcast("pm.communication", |r| (r % 3) as u64, |_| 8192);
        s.compute("pp.force_calculation", move |r| {
            2e-4 * (1.0 + (r as f64).sin().abs() * 0.1)
        });
        s.allgather("ctl.monitor", |r| 16 + 8 * (r % 4));
        s.allreduce("ctl.balancer", |_| 40);
        s.barrier("ctl.barrier");
    }
    // A rooted reduce at a non-zero root (when p allows one).
    s.reduce("ctl.sum", 2 % p, |_| 128);
    s
}
