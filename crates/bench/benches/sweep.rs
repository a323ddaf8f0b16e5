//! Sweep-engine benches: the figure reproductions as parallel multi-seed
//! batches.
//!
//! `figures_8seeds_j1` vs `figures_8seeds_jN` measures what the thread
//! pool buys on this machine for the real workload (all four four-station
//! figures × 8 seeds); `warm_cache` measures the cost of a fully cached
//! re-run (file reads only — no worlds simulated).

use desim::SimDuration;
use dot11_bench::Harness;
use dot11_sweep::{run_sweep, RunParams, SweepOptions, SweepScenario, SweepSpec};

fn figures_spec() -> SweepSpec {
    let mut scenarios = Vec::new();
    for fig in [7, 9, 11, 12] {
        scenarios.extend(SweepScenario::figure(fig));
    }
    SweepSpec::new(RunParams {
        duration: SimDuration::from_millis(250),
        warmup: SimDuration::from_millis(50),
    })
    .scenarios(scenarios)
    .seeds(1..=8)
}

fn main() {
    let h = Harness::from_args();
    let spec = figures_spec();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    h.bench("sweep/figures_8seeds_j1", || {
        run_sweep(&spec, &SweepOptions::serial()).expect("sweep")
    });
    h.bench(&format!("sweep/figures_8seeds_j{cores}"), || {
        run_sweep(&spec, &SweepOptions::with_jobs(cores)).expect("sweep")
    });

    // Warm-cache re-run: populate once, then measure pure cache reads.
    let dir = std::env::temp_dir().join(format!("dot11-sweep-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions::with_jobs(cores).cache(&dir);
    let cold = run_sweep(&spec, &opts).expect("populate cache");
    assert_eq!(cold.engine.cached, 0);
    h.bench("sweep/figures_8seeds_warm_cache", || {
        let r = run_sweep(&spec, &opts).expect("warm sweep");
        assert_eq!(r.engine.simulated, 0, "warm cache must not simulate");
        r
    });
    std::fs::remove_dir_all(&dir).ok();
}
