//! The benchmark's named workloads: which spec each one runs, which
//! scheduler's report row carries its sim outputs, and how the
//! benchmark's seed and thread width are written into the spec.

use ctlm_lab::ExperimentSpec;

/// One named workload.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Spec file, relative to the repository root.
    pub spec: &'static str,
    /// Scheduler whose report row gives `g0_latency_p50_s` and
    /// `unplaced_frac`.
    pub headline: &'static str,
    /// The seed the spec file itself names (the digest table's anchor).
    pub default_seed: u64,
    /// `execution.threads` of the end-to-end runs (multi-cell specs;
    /// results never depend on it, only wall time does).
    pub threads: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ctl_online",
        spec: "perfbench/workloads/ctl_online.json",
        headline: "live_registry",
        default_seed: 42,
        threads: 1,
    },
    Workload {
        name: "fleet_1m",
        spec: "experiments/scale/million_machine.json",
        headline: "main_only",
        default_seed: 17,
        // Threads 2 spread ~20% run to run on a shared 2-core host
        // (barrier rounds wait on the slower core); the traced run
        // still measures threads 2 against this.
        threads: 1,
    },
    Workload {
        name: "chaos_recorded",
        spec: "perfbench/workloads/chaos_recorded.json",
        headline: "main_only",
        default_seed: 11,
        threads: 2,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed of iteration `i` of a run at `seed`: iteration 0 runs the
/// seed itself, later ones mix in the index the way `ctlm-lab` sweeps
/// derive repeat seeds, so every iteration sees fresh inputs.
pub fn iteration_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Workload {
    /// Reads the spec text from the repository root.
    pub fn spec_text(&self, root: &std::path::Path) -> Result<String, String> {
        let path = root.join(self.spec);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    }

    /// Parses the spec and applies the benchmark's overrides: `seed`
    /// replaces `sim.seed` and clears any sweep seed list (as
    /// `ctlm-lab --seed` does), and `execution.threads` is the
    /// workload's.
    pub fn parse(&self, text: &str, seed: u64) -> Result<ExperimentSpec, String> {
        let mut spec = ExperimentSpec::from_json(text).map_err(|e| e.to_string())?;
        spec.sim.seed = seed;
        if let Some(sweep) = spec.sweep.as_mut() {
            sweep.seeds.clear();
        }
        spec.execution.threads = self.threads;
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    }
}
