//! The K computer, as the paper describes it.

use greem_math::FLOPS_PER_INTERACTION;

/// Hardware constants of K computer (§I, §II-A).
#[derive(Debug, Clone, Copy)]
pub struct KMachine {
    /// Total nodes of the full system.
    pub total_nodes: usize,
    /// Cores per node (SPARC64 VIIIfx is an oct-core).
    pub cores_per_node: usize,
    /// Clock in Hz.
    pub clock_hz: f64,
    /// FMA units per core.
    pub fma_per_core: usize,
    /// Measured kernel rate per core in flops/s (11.65 Gflops, §II-A:
    /// 97 % of the 12 Gflops instruction-mix bound).
    pub kernel_flops_per_core: f64,
    /// Tofu link bandwidth per direction, bytes/s.
    pub link_bandwidth: f64,
}

impl KMachine {
    /// The full system as of the paper.
    pub fn new() -> Self {
        KMachine {
            total_nodes: 82944,
            cores_per_node: 8,
            clock_hz: 2.0e9,
            fma_per_core: 4,
            kernel_flops_per_core: 11.65e9,
            link_bandwidth: 5.0e9,
        }
    }

    /// Peak flops per node: 4 FMA × 2 flops × clock × cores = 128 G.
    pub fn peak_flops_per_node(&self) -> f64 {
        self.fma_per_core as f64 * 2.0 * self.clock_hz * self.cores_per_node as f64
    }

    /// Peak flops of `p` nodes.
    pub fn peak_flops(&self, p: usize) -> f64 {
        self.peak_flops_per_node() * p as f64
    }

    /// The theoretical bound of the force loop: 75 % of peak, because
    /// the loop mixes 17 FMA with 17 non-FMA operations per two
    /// interactions (§II-A: "the theoretical upper limit of our force
    /// loop is 12 Gflops" per 16 Gflops core).
    pub fn kernel_bound_per_core(&self) -> f64 {
        let per_core_peak = self.fma_per_core as f64 * 2.0 * self.clock_hz;
        // 17 FMA (2 flops) + 17 non-FMA (1 flop) in 34 issue slots →
        // 51 flops where a pure-FMA stream would do 68.
        per_core_peak * FLOPS_PER_INTERACTION / 68.0
    }

    /// Pairwise interactions per second per node at the measured kernel
    /// rate and the paper's 51-flop accounting.
    pub fn interactions_per_sec_per_node(&self) -> f64 {
        self.kernel_flops_per_core * self.cores_per_node as f64 / FLOPS_PER_INTERACTION
    }
}

impl Default for KMachine {
    fn default() -> Self {
        KMachine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_paper() {
        let k = KMachine::new();
        // 128 Gflops/node, 10.6 Pflops full system (§I).
        assert!((k.peak_flops_per_node() - 128e9).abs() < 1e-3);
        let full = k.peak_flops(k.total_nodes);
        assert!((full - 10.6e15).abs() < 0.05e15, "full peak {full:e}");
    }

    #[test]
    fn kernel_bound_is_12_gflops() {
        let k = KMachine::new();
        assert!((k.kernel_bound_per_core() - 12.0e9).abs() < 1e6);
        // And the measured kernel is 97 % of it.
        let frac = k.kernel_flops_per_core / k.kernel_bound_per_core();
        assert!((frac - 0.97).abs() < 0.005, "kernel fraction {frac}");
    }

    #[test]
    fn interaction_rate() {
        let k = KMachine::new();
        let r = k.interactions_per_sec_per_node();
        assert!((r - 1.827e9).abs() < 5e6, "rate {r:e}");
    }
}
