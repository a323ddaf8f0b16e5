//! The `mobility` group: incremental epoch commits vs full medium
//! rebuilds — the headline artifact of the epoch-versioned link state.
//!
//! For N ∈ {64, 256, 1024} stations on a constant-density spiral field
//! (a few audible neighbors each — a sparse wide-area deployment), a
//! small mover fraction (~0.5%, the regime mobility epochs live in)
//! bounces between two position sets every iteration. `rebuild_nN` times
//! `Medium::commit_epoch_rebuild` (every slice diffed at the old and new
//! positions, then reconstruction with state transplant — the
//! O(N·degree) reference); `epoch_nN` times the incremental
//! `Medium::commit_epoch` (geometric churn around the movers, grid
//! re-binning, and a recompute of the built slices near them — O(moved))
//! and reports `speedup` = rebuild median / epoch median. No station
//! transmits here, so no slice is ever built: `epoch_nN` times the churn
//! accounting and grid upkeep every epoch pays.
//! The two paths produce bitwise-identical link state — that equivalence
//! is pinned by the phy crate's `incremental_epochs_match_rebuild_bitwise`
//! and the world-level `tests/mobility.rs`; only the wall clock differs.
//!
//! Committed medians live in `BENCH_pr10.json`; CI gates `speedup`
//! (regresses downward) against it. Independent of any baseline, the
//! bench hard-fails unless the incremental path clears **10×** over
//! rebuild at N = 1024 — the acceptance floor for O(moved) maintenance:
//!
//! ```console
//! cargo bench -p dot11-bench --bench mobility -- --json BENCH_pr10.json
//! cargo bench -p dot11-bench --bench mobility -- --baseline BENCH_pr10.json --tolerance 60
//! ```

use desim::{SimDuration, SimRng};
use dot11_bench::Harness;
use dot11_phy::{
    CullPolicy, DayProfile, Db, Dbm, EpochChurn, LogDistance, Medium, MediumConfig, NodeId,
    Position, Shadowing, CULL_MARGIN_DB,
};

/// Constant-density sunflower spiral: the field radius grows with √N so
/// every station keeps the same (sparse, wide-area) audible
/// neighborhood — a handful of stations under the ~4.7 km audible cull
/// the CULL_MARGIN_DB policy resolves to — and an epoch update is
/// N-independent work per mover.
fn spiral(n: usize) -> Vec<Position> {
    let radius = 14_000.0 * (n as f64 / 64.0).sqrt();
    (0..n)
        .map(|k| {
            let r = radius * ((k as f64 + 0.5) / n as f64).sqrt();
            let th = k as f64 * 2.399_963_229_728_653;
            Position {
                x: r * th.cos(),
                y: r * th.sin(),
            }
        })
        .collect()
}

fn medium(n: usize) -> Medium {
    let day = DayProfile::clear();
    Medium::new(
        spiral(n),
        Shadowing::new(day.clone(), SimRng::from_seed(33)),
        MediumConfig {
            path_loss: LogDistance::anchored_at_free_space_1m(3.0).into(),
            day,
            propagation_delay: SimDuration::from_micros(1),
            cull: CullPolicy::Audible {
                tx_power: Dbm(15.0),
                noise_floor: Dbm(-96.6),
                margin: Db(CULL_MARGIN_DB),
            },
        },
    )
}

/// The two alternating move sets: ~0.5% of stations (at least one) hop
/// 60-odd metres out on even epochs and back home on odd ones, so the
/// medium bounces between two states instead of drifting off the field.
fn move_sets(n: usize) -> [Vec<(NodeId, Position)>; 2] {
    let positions = spiral(n);
    let movers = (n / 200).max(1);
    let stride = n / movers;
    let mut out = Vec::with_capacity(movers);
    let mut back = Vec::with_capacity(movers);
    for m in 0..movers {
        let i = m * stride;
        let p = positions[i];
        out.push((
            NodeId(i as u32),
            Position {
                x: p.x + 60.0,
                y: p.y - 45.0,
            },
        ));
        back.push((NodeId(i as u32), p));
    }
    [out, back]
}

/// Times one commit family: alternating out/back epochs through
/// `commit`, reporting per-epoch churn — and, for the incremental rows,
/// `speedup` over the already-timed rebuild reference.
fn bench_commits(
    h: &Harness,
    name: &str,
    n: usize,
    rebuild_ns: Option<f64>,
    mut commit: impl FnMut(&mut Medium, &[(NodeId, Position)]) -> EpochChurn,
) {
    let mut medium = medium(n);
    let sets = move_sets(n);
    // Run the first out-and-back pair before timing, as a run's first
    // epochs would.
    commit(&mut medium, &sets[0]);
    commit(&mut medium, &sets[1]);
    let mut flip = 0usize;
    h.bench_metrics(
        name,
        move || {
            let churn = commit(&mut medium, &sets[flip]);
            flip ^= 1;
            churn
        },
        |churn, median| {
            let mut m = vec![
                ("stations".into(), n as f64),
                ("moved".into(), churn.moved as f64),
                ("links_recomputed".into(), churn.links_recomputed as f64),
                (
                    "audible_churn".into(),
                    (churn.audible_added + churn.audible_removed) as f64,
                ),
            ];
            if let Some(rebuild_ns) = rebuild_ns {
                m.push(("speedup".into(), rebuild_ns / median.as_nanos() as f64));
            }
            m
        },
    );
}

/// Rebuild median for size `n`, if its row ran (the speedup denominator).
fn rebuild_median_ns(h: &Harness, n: usize) -> Option<f64> {
    h.records()
        .iter()
        .find(|r| r.name == format!("mobility/rebuild_n{n}"))
        .map(|r| r.median_ns as f64)
}

fn main() {
    let h = Harness::from_args();
    for n in [64usize, 256, 1024] {
        // Reference first so the incremental row can report its speedup.
        bench_commits(&h, &format!("mobility/rebuild_n{n}"), n, None, |m, mv| {
            m.commit_epoch_rebuild(mv)
        });
        let rebuild = rebuild_median_ns(&h, n);
        bench_commits(&h, &format!("mobility/epoch_n{n}"), n, rebuild, |m, mv| {
            m.commit_epoch(mv)
        });
    }
    // Acceptance floor, independent of any committed baseline: at 1024
    // stations with a small mover set the incremental path must clear
    // 10× over the rebuild reference, or it is not O(moved) maintenance.
    let full = h
        .records()
        .into_iter()
        .find(|r| r.name == "mobility/epoch_n1024");
    if let Some(r) = full {
        let speedup = r
            .metrics
            .iter()
            .find(|(k, _)| k == "speedup")
            .map(|&(_, v)| v);
        match speedup {
            Some(s) if s >= 10.0 => {
                println!(
                    "mobility gate: epoch update {s:.1}x cheaper than rebuild at n=1024 (>= 10x)"
                );
            }
            Some(s) => {
                eprintln!(
                    "PERF REGRESSION: mobility/epoch_n1024 only {s:.1}x cheaper than rebuild \
                     (< 10x floor)"
                );
                std::process::exit(1);
            }
            // rebuild_n1024 filtered out: no denominator, nothing to gate.
            None => {}
        }
    }
    h.finish();
}
