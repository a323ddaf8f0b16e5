//! The sweep engine's three load-bearing contracts, pinned:
//!
//! 1. **Key stability** — cell hashes are golden values. If one of these
//!    assertions fails, every existing cache directory in the world has
//!    been silently invalidated: either restore the encoding or bump the
//!    format-version tag in `CellSpec::key` *deliberately*.
//! 2. **Determinism under parallelism** — the aggregated report is
//!    byte-identical for `--jobs 1` and `--jobs 8`, and the cache files
//!    each run writes are byte-identical too.
//! 3. **Warm-cache short-circuit** — a re-run over a populated cache
//!    simulates zero worlds and still reproduces the same report.

use desim::SimDuration;
use dot11_mac::BackoffConfig;
use dot11_phy::PhyRate;
use dot11_sweep::{
    run_sweep, CellSpec, MacAxis, RunParams, SweepOptions, SweepScenario, SweepSpec,
};

/// PR 7's MAC axis entered every key (`dot11-sweep/v1` → `v4`) and PR
/// 10's mobility recipes re-salted the space again (`v4` → `v5`,
/// matching the cache-entry format), so every golden below was
/// deliberately re-pinned at each bump; the labels are unchanged
/// throughout.
#[test]
fn cell_keys_are_golden() {
    let full = RunParams::full();
    let expected = [
        ("four_station/asym11/11000k/udp/basic", "18b6ee39e5080f48"),
        ("four_station/asym11/11000k/udp/rts", "bca147e70c6dd6d9"),
        ("four_station/asym11/11000k/tcp/basic", "3d596780d0eef8e0"),
        ("four_station/asym11/11000k/tcp/rts", "e0e9a305de37c761"),
    ];
    for (scenario, (label, key)) in SweepScenario::figure(7).into_iter().zip(expected) {
        let cell = CellSpec {
            scenario,
            mac: MacAxis::table1(),
            seed: 105,
            params: full,
        };
        assert_eq!(cell.group_label(), label);
        assert_eq!(
            cell.key().to_string(),
            key,
            "stable hash of {label} moved — existing caches are invalidated"
        );
    }
}

/// The PR 7 additions hash to stable keys as well: the hidden-terminal
/// pair and non-identity MAC axes (a CWmin point and a policy swap on
/// the same fig7 cell must key apart from the identity axis and from
/// each other).
#[test]
fn mac_axis_and_hidden_triple_keys_are_golden() {
    let params = RunParams {
        duration: SimDuration::from_millis(300),
        warmup: SimDuration::from_millis(100),
    };
    let hidden: Vec<CellSpec> = SweepScenario::hidden3()
        .into_iter()
        .map(|scenario| CellSpec {
            scenario,
            mac: MacAxis::table1(),
            seed: 1,
            params,
        })
        .collect();
    assert_eq!(hidden[0].group_label(), "hidden3/512B/2000k/udp/basic");
    assert_eq!(hidden[0].key().to_string(), "0bbca52583b6f9bb");
    assert_eq!(hidden[1].group_label(), "hidden3/512B/2000k/udp/rts");
    assert_eq!(hidden[1].key().to_string(), "1d747a32e1e98376");

    let base = CellSpec {
        scenario: SweepScenario::figure(7)[0],
        mac: MacAxis::table1(),
        seed: 1,
        params,
    };
    let cw8 = CellSpec {
        mac: MacAxis {
            cw_min: 8,
            ..MacAxis::table1()
        },
        ..base
    };
    assert_eq!(
        cw8.group_label(),
        "four_station/asym11/11000k/udp/basic@cw8-1024"
    );
    assert_eq!(cw8.key().to_string(), "b25cb8c28c218a3d");
    let fixed = CellSpec {
        mac: MacAxis {
            policy: BackoffConfig::FixedCw(64),
            ..MacAxis::table1()
        },
        ..base
    };
    assert_eq!(
        fixed.group_label(),
        "four_station/asym11/11000k/udp/basic@fixed64"
    );
    assert_eq!(fixed.key().to_string(), "a787c091c319be58");
}

/// The large-topology recipes added in PR 5 — and PR 10's mobile disk —
/// hash to stable keys too (re-pinned at the v5 bump like everything
/// else; labels unchanged).
#[test]
fn large_topology_cell_keys_are_golden() {
    let params = RunParams {
        duration: SimDuration::from_millis(300),
        warmup: SimDuration::from_millis(100),
    };
    let expected = [
        (
            SweepScenario::Chain {
                n: 16,
                spacing_m: 80.0,
                rate: PhyRate::R2,
            },
            "chain/16x80m/2000k/udp",
            "2b98d9024c7013e6",
        ),
        (
            SweepScenario::Chain {
                n: 64,
                spacing_m: 80.0,
                rate: PhyRate::R2,
            },
            "chain/64x80m/2000k/udp",
            "4d575701cb68b2f6",
        ),
        (
            SweepScenario::Grid {
                rows: 4,
                cols: 4,
                spacing_m: 80.0,
                rate: PhyRate::R2,
            },
            "grid/4x4x80m/2000k/udp",
            "fd45cba009f3183e",
        ),
        (
            SweepScenario::RandomDisk {
                n: 20,
                radius_m: 120.0,
                topo_seed: 7,
                rate: PhyRate::R2,
            },
            "disk/20@120m/t7/2000k/udp",
            "0a8bcc26db81fedf",
        ),
        (
            SweepScenario::mobile_disk64(20.0),
            "mobile-disk/64@120m/t7/v20mps/e250ms/2000k/udp",
            "5c31812870056ea0",
        ),
    ];
    for (scenario, label, key) in expected {
        let cell = CellSpec {
            scenario,
            mac: MacAxis::table1(),
            seed: 1,
            params,
        };
        assert_eq!(cell.group_label(), label);
        assert_eq!(
            cell.key().to_string(),
            key,
            "stable hash of {label} moved — existing caches are invalidated"
        );
    }
}

/// The chain16 family honours the same determinism contracts as the
/// paper cells: jobs-1 and jobs-8 reports byte-identical, warm cache
/// simulates nothing.
#[test]
fn chain16_sweep_is_deterministic_and_caches() {
    let spec = SweepSpec::new(RunParams {
        duration: SimDuration::from_millis(300),
        warmup: SimDuration::from_millis(100),
    })
    .scenario(SweepScenario::Chain {
        n: 16,
        spacing_m: 80.0,
        rate: PhyRate::R2,
    })
    .seeds(1..=2);
    let dir = fresh_dir("chain16");
    let serial = run_sweep(&spec, &SweepOptions::serial()).expect("serial chain sweep");
    let opts = SweepOptions {
        jobs: 8,
        cache_dir: Some(dir.clone()),
        progress: None,
    };
    let parallel = run_sweep(&spec, &opts).expect("parallel chain sweep");
    assert_eq!(parallel.engine.simulated, 2);
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "chain16 report depends on the worker count"
    );
    let warm = run_sweep(&spec, &opts).expect("warm chain sweep");
    assert_eq!(warm.engine.simulated, 0);
    assert_eq!(warm.engine.cached, 2);
    assert_eq!(warm.deterministic_json(), serial.deterministic_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// The mobile disk honours the same contracts: epoch-committing cells
/// are byte-identical across worker counts, cache byte-identically, and
/// a warm re-run simulates zero worlds — mobility state never leaks
/// into the cache bytes.
#[test]
fn mobile_disk_sweep_is_deterministic_and_caches() {
    let spec = SweepSpec::new(RunParams {
        duration: SimDuration::from_millis(400),
        warmup: SimDuration::from_millis(100),
    })
    .scenario(SweepScenario::MobileDisk {
        n: 12,
        radius_m: 1_500.0,
        topo_seed: 7,
        rate: PhyRate::R2,
        speed_mps: 30.0,
        epoch_ms: 100,
    })
    .seeds(1..=2);
    let dir = fresh_dir("mobiledisk");
    let serial = run_sweep(&spec, &SweepOptions::serial()).expect("serial mobile sweep");
    let opts = SweepOptions {
        jobs: 8,
        cache_dir: Some(dir.clone()),
        progress: None,
    };
    let parallel = run_sweep(&spec, &opts).expect("parallel mobile sweep");
    assert_eq!(parallel.engine.simulated, 2);
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "mobile-disk report depends on the worker count"
    );
    let warm = run_sweep(&spec, &opts).expect("warm mobile sweep");
    assert_eq!(warm.engine.simulated, 0, "warm cache must skip every cell");
    assert_eq!(warm.engine.cached, 2);
    assert_eq!(warm.deterministic_json(), serial.deterministic_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// The MAC-policy grid honours the same contracts: a hidden-terminal ×
/// (CWmin ladder + policy swap) grid is byte-identical across worker
/// counts and fully served by a warm cache — every axis point keys its
/// own cache entry.
#[test]
fn mac_grid_sweep_is_deterministic_and_caches() {
    let axes = [
        MacAxis::table1(),
        MacAxis {
            cw_min: 8,
            ..MacAxis::table1()
        },
        MacAxis {
            policy: BackoffConfig::FixedCw(64),
            ..MacAxis::table1()
        },
    ];
    let spec = SweepSpec::new(RunParams {
        duration: SimDuration::from_millis(300),
        warmup: SimDuration::from_millis(100),
    })
    .scenarios(SweepScenario::hidden3())
    .mac_axes(axes)
    .seeds(1..=2);
    assert_eq!(spec.cells().len(), 12, "2 scenarios × 3 axes × 2 seeds");

    let dir = fresh_dir("macgrid");
    let serial = run_sweep(&spec, &SweepOptions::serial()).expect("serial mac-grid sweep");
    // Every (scenario, axis) pair aggregates under its own label.
    assert_eq!(serial.groups.len(), 6);
    let opts = SweepOptions {
        jobs: 8,
        cache_dir: Some(dir.clone()),
        progress: None,
    };
    let parallel = run_sweep(&spec, &opts).expect("parallel mac-grid sweep");
    assert_eq!(parallel.engine.simulated, 12);
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "mac-grid report depends on the worker count"
    );
    let warm = run_sweep(&spec, &opts).expect("warm mac-grid sweep");
    assert_eq!(warm.engine.simulated, 0, "warm cache must skip every cell");
    assert_eq!(warm.engine.cached, 12);
    assert_eq!(warm.deterministic_json(), serial.deterministic_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// 8 scenario recipes × 4 seeds = 32 cells, kept short (300 ms sims) so
/// the whole test runs in seconds.
fn spec_32_cells() -> SweepSpec {
    let mut scenarios = SweepScenario::figure(7);
    scenarios.extend(SweepScenario::figure(12));
    SweepSpec::new(RunParams {
        duration: SimDuration::from_millis(300),
        warmup: SimDuration::from_millis(100),
    })
    .scenarios(scenarios)
    .seeds(1..=4)
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("dot11-sweep-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Sorted (filename, bytes) snapshot of a cache directory.
fn cache_entries(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("cache file readable"),
            )
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn jobs_1_and_jobs_8_agree_and_warm_cache_simulates_nothing() {
    let spec = spec_32_cells();
    assert_eq!(spec.cells().len(), 32);
    let dir_serial = fresh_dir("serial");
    let dir_parallel = fresh_dir("parallel");

    // Cold, one worker.
    let serial_opts = SweepOptions {
        jobs: 1,
        cache_dir: Some(dir_serial.clone()),
        progress: None,
    };
    let serial = run_sweep(&spec, &serial_opts).expect("serial sweep");
    assert_eq!(serial.engine.simulated, 32);
    assert_eq!(serial.engine.cached, 0);

    // Cold, eight workers, separate cache.
    let parallel_opts = SweepOptions {
        jobs: 8,
        cache_dir: Some(dir_parallel.clone()),
        progress: None,
    };
    let parallel = run_sweep(&spec, &parallel_opts).expect("parallel sweep");
    assert_eq!(parallel.engine.simulated, 32);
    assert_eq!(parallel.engine.jobs, 8);

    // Contract 2a: identical aggregated reports, byte for byte.
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "aggregated SweepReport depends on the worker count"
    );

    // Contract 2b: the cache files themselves are byte-identical.
    let a = cache_entries(&dir_serial);
    let b = cache_entries(&dir_parallel);
    assert_eq!(a.len(), 32);
    assert_eq!(a, b, "cached cells written by --jobs 1 and --jobs 8 differ");

    // Contract 3: warm cache → zero worlds simulated, same report.
    let warm = run_sweep(&spec, &parallel_opts).expect("warm sweep");
    assert_eq!(warm.engine.simulated, 0, "warm cache must skip every cell");
    assert_eq!(warm.engine.cached, 32);
    assert!(warm.cells.iter().all(|c| c.cached));
    assert_eq!(warm.deterministic_json(), serial.deterministic_json());

    // And a partially warm cache simulates exactly the missing cells.
    let extra = {
        let mut s = spec.clone();
        s.seeds.push(5);
        s
    };
    let partial = run_sweep(&extra, &parallel_opts).expect("partial sweep");
    assert_eq!(partial.engine.cached, 32);
    assert_eq!(partial.engine.simulated, 8, "only the new seed's cells run");

    std::fs::remove_dir_all(&dir_serial).ok();
    std::fs::remove_dir_all(&dir_parallel).ok();
}

/// The smoke grid's total dispatched-event count is a tracked golden.
///
/// PR 4's timer coalescing + signal-delivery batching cut this grid from
/// 248,758 events to 84,805 (2.93×). The pin has a small band so an
/// innocent new timer doesn't trip it, but reintroducing per-slot
/// backoff ticks or per-receiver signal events (which roughly triples
/// the count) must fail loudly rather than silently eat the win back.
#[test]
fn smoke_grid_event_budget_is_pinned() {
    const GOLDEN_EVENTS: u64 = 84_805;
    const TOLERANCE: f64 = 0.05;

    let report = run_sweep(&spec_32_cells(), &SweepOptions::serial()).expect("sweep");
    let total: u64 = report.cells.iter().map(|c| c.metrics.events).sum();
    let lo = (GOLDEN_EVENTS as f64 * (1.0 - TOLERANCE)) as u64;
    let hi = (GOLDEN_EVENTS as f64 * (1.0 + TOLERANCE)) as u64;
    assert!(
        (lo..=hi).contains(&total),
        "smoke grid dispatched {total} events, outside the pinned budget \
         {GOLDEN_EVENTS} ± 5% [{lo}, {hi}] — if the change is a deliberate \
         engine-schedule change, re-pin the golden and state the new count"
    );
}
