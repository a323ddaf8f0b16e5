//! paper4 through the sweep runner: a cold `run_sweep` on every core, then
//! a warm one over the same cache, checked against each other and against
//! the benchmark's direct runs.

use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use dot11_sweep::{run_sweep, CellSpec, RunParams, SweepOptions, SweepScenario, SweepSpec};

use crate::fingerprint;
use crate::gen::PAPER_FIGURES;

/// What the cold and warm sweeps measured.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Cold sweep wall time.
    pub makespan: Duration,
    /// Mean busy share of the cold sweep's workers.
    pub worker_util: f64,
    /// Warm sweep wall time.
    pub warm: Duration,
    /// Cells the warm sweep served from the cache ÷ cells.
    pub cache_hit_ratio: f64,
    /// Hash of the cold sweep's `deterministic_json`.
    pub json_hash: u64,
    /// Checks that failed.
    pub problems: Vec<String>,
}

/// Sweeps `cells` (one [`RunParams`], the figure cells × their seeds) cold
/// and warm in a fresh cache under `dir`, with `jobs` workers. `direct`
/// maps each cell key to the event count of the benchmark's own run.
pub fn check(
    cells: &[CellSpec],
    direct: &HashMap<u64, u64>,
    dir: &Path,
    jobs: usize,
) -> SweepOutcome {
    let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let spec = SweepSpec::new(RunParams::quick())
        .scenarios(PAPER_FIGURES.into_iter().flat_map(SweepScenario::figure))
        .seeds(seeds);
    let mut problems = Vec::new();
    if spec.cells().len() != cells.len() {
        problems.push(format!(
            "sweep expands to {} cells, the pass runs {}",
            spec.cells().len(),
            cells.len()
        ));
    }
    let _ = std::fs::remove_dir_all(dir);
    let opts = SweepOptions::with_jobs(jobs).cache(dir);
    let sweep = |label: &str, problems: &mut Vec<String>| {
        let out = run_sweep(&spec, &opts);
        if let Err(e) = &out {
            problems.push(format!("{label} sweep: {e}"));
        }
        out.ok()
    };
    let cold = sweep("cold", &mut problems);
    let warm = sweep("warm", &mut problems);
    let _ = std::fs::remove_dir_all(dir);
    let (Some(cold), Some(warm)) = (cold, warm) else {
        return SweepOutcome {
            makespan: Duration::ZERO,
            worker_util: 0.0,
            warm: Duration::ZERO,
            cache_hit_ratio: 0.0,
            json_hash: 0,
            problems,
        };
    };
    for c in &cold.cells {
        match direct.get(&c.key.0) {
            Some(&events) if events == c.metrics.events => {}
            other => problems.push(format!(
                "sweep cell {} ran {} events, direct run {:?}",
                c.key, c.metrics.events, other
            )),
        }
    }
    let json = cold.deterministic_json();
    if warm.deterministic_json() != json {
        problems.push("warm sweep's deterministic_json differs from the cold sweep's".into());
    }
    let cache_hit_ratio = warm.engine.cached as f64 / warm.cells.len().max(1) as f64;
    if cache_hit_ratio != 1.0 {
        problems.push(format!(
            "warm sweep served {} of {} cells from the cache",
            warm.engine.cached,
            warm.cells.len()
        ));
    }
    SweepOutcome {
        makespan: cold.engine.wall,
        worker_util: cold.engine.mean_utilization(),
        warm: warm.engine.wall,
        cache_hit_ratio,
        json_hash: fingerprint::text(&json),
        problems,
    }
}
