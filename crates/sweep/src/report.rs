//! Sweep results: per-cell metrics, seed-aggregated groups, engine stats.
//!
//! A [`SweepReport`] has two layers with different determinism contracts:
//!
//! * [`SweepReport::cells`] and [`SweepReport::groups`] depend only on
//!   the spec — identical for any worker count, cache state or machine.
//!   [`SweepReport::deterministic_json`] serializes exactly this layer,
//!   and the determinism tests compare it byte-for-byte across
//!   `--jobs 1` / `--jobs 8` / warm-cache runs.
//! * [`SweepReport::engine`] is wall-clock instrumentation (sweep
//!   speedup, per-worker utilization) and is *expected* to differ
//!   between runs; [`SweepReport::to_json`] appends it.

use std::time::Duration;

use desim::SimDuration;
use dot11_adhoc::{RunReport, Summary};

use crate::spec::{CellKey, CellSpec};

/// Number formatting for report JSON: Rust's shortest-round-trip `f64`
/// `Display`, so a value survives serialize → parse → serialize with
/// identical bytes (the cache byte-identity contract).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN; metrics are finite by construction, but
        // never emit invalid JSON if that invariant breaks.
        "null".to_owned()
    }
}

/// The deterministic, cacheable outcome of one cell run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Per-flow application throughput inside the measurement window,
    /// kb/s, in flow-id order.
    pub flows_kbps: Vec<f64>,
    /// Per-flow end-to-end loss rate, in flow-id order.
    pub loss_rates: Vec<f64>,
    /// Jain's fairness index over the cell's flows.
    pub fairness: f64,
    /// Mean over stations of the channel-utilization fraction (share of
    /// the run each station saw the channel non-idle: own tx, locked rx,
    /// or carrier busy). From the airtime ledger — deterministic physics,
    /// so it caches and compares like the throughputs.
    pub chan_util: f64,
    /// Mean over stations of the transmitting share of the run.
    pub tx_util: f64,
    /// Events the simulator dispatched.
    pub events: u64,
    /// Event-queue high-water mark.
    pub queue_high_water: u64,
    /// Simulated time covered, nanoseconds.
    pub sim_elapsed_ns: u64,
}

impl CellMetrics {
    /// Extracts the deterministic metrics from a finished run (drops the
    /// wall-clock side of [`dot11_adhoc::EngineStats`], which may not be
    /// cached or compared).
    pub fn from_report(report: &RunReport) -> CellMetrics {
        let stations = report.nodes.len().max(1) as f64;
        CellMetrics {
            flows_kbps: report.flows.iter().map(|f| f.throughput_kbps).collect(),
            loss_rates: report.flows.iter().map(|f| f.loss_rate).collect(),
            fairness: report.fairness(),
            chan_util: report
                .nodes
                .iter()
                .map(|n| n.airtime.channel_utilization())
                .sum::<f64>()
                / stations,
            tx_util: report
                .nodes
                .iter()
                .map(|n| n.airtime.tx_fraction())
                .sum::<f64>()
                / stations,
            events: report.events,
            queue_high_water: report.engine.queue_high_water as u64,
            sim_elapsed_ns: report.engine.sim_elapsed.as_nanos(),
        }
    }

    /// Sum of the per-flow throughputs, kb/s.
    pub fn total_kbps(&self) -> f64 {
        self.flows_kbps.iter().sum()
    }

    /// Serializes to one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let flows: Vec<String> = self.flows_kbps.iter().map(|&v| fmt_f64(v)).collect();
        let losses: Vec<String> = self.loss_rates.iter().map(|&v| fmt_f64(v)).collect();
        format!(
            "{{\"flows_kbps\":[{}],\"loss_rates\":[{}],\"fairness\":{},\
             \"chan_util\":{},\"tx_util\":{},\
             \"events\":{},\"queue_high_water\":{},\"sim_elapsed_ns\":{}}}",
            flows.join(","),
            losses.join(","),
            fmt_f64(self.fairness),
            fmt_f64(self.chan_util),
            fmt_f64(self.tx_util),
            self.events,
            self.queue_high_water,
            self.sim_elapsed_ns
        )
    }
}

/// One cell of a finished sweep: its spec, key, metrics, and whether the
/// result came out of the cache instead of a fresh simulation.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// What was run.
    pub spec: CellSpec,
    /// The cell's content hash (cache identity).
    pub key: CellKey,
    /// The deterministic result.
    pub metrics: CellMetrics,
    /// True if the result was loaded from the run cache.
    pub cached: bool,
}

/// Seed-aggregated statistics for one scenario recipe.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// The scenario's [`CellSpec::group_label`].
    pub label: String,
    /// Seeds aggregated, in spec order.
    pub seeds: Vec<u64>,
    /// Per-flow throughput summaries over seeds, in flow-id order.
    pub flows_kbps: Vec<Summary>,
    /// Total (all-flow) throughput summary over seeds.
    pub total_kbps: Summary,
    /// Fairness-index summary over seeds.
    pub fairness: Summary,
    /// Channel-utilization summary over seeds (station-mean non-idle
    /// share per cell, from [`CellMetrics::chan_util`]).
    pub chan_util: Summary,
}

impl GroupReport {
    /// Mean second-flow over mean first-flow throughput — the paper's
    /// session-2/session-1 imbalance — when the group has ≥ 2 flows and
    /// flow 0 did not starve on average.
    pub fn imbalance(&self) -> Option<f64> {
        match self.flows_kbps.as_slice() {
            [first, second, ..] if first.mean > 0.0 => Some(second.mean / first.mean),
            _ => None,
        }
    }

    fn summary_json(s: &Summary) -> String {
        format!(
            "{{\"n\":{},\"mean\":{},\"median\":{},\"std_dev\":{},\"ci95\":{},\
             \"min\":{},\"max\":{}}}",
            s.n,
            fmt_f64(s.mean),
            fmt_f64(s.median),
            fmt_f64(s.std_dev),
            fmt_f64(s.ci95),
            fmt_f64(s.min),
            fmt_f64(s.max)
        )
    }

    fn to_json(&self) -> String {
        let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
        let flows: Vec<String> = self.flows_kbps.iter().map(Self::summary_json).collect();
        format!(
            "{{\"label\":\"{}\",\"seeds\":[{}],\"flows_kbps\":[{}],\
             \"total_kbps\":{},\"fairness\":{},\"chan_util\":{}}}",
            self.label,
            seeds.join(","),
            flows.join(","),
            Self::summary_json(&self.total_kbps),
            Self::summary_json(&self.fairness),
            Self::summary_json(&self.chan_util)
        )
    }
}

/// What one worker thread did during the sweep.
#[derive(Debug, Clone, Copy)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Cells this worker simulated.
    pub cells: usize,
    /// Events dispatched across those cells.
    pub events: u64,
    /// Wall-clock time spent inside `World::run`.
    pub busy: Duration,
}

impl WorkerStats {
    /// Share of the sweep's wall time this worker spent simulating.
    pub fn utilization(&self, sweep_wall: Duration) -> f64 {
        let w = sweep_wall.as_secs_f64();
        if w > 0.0 {
            (self.busy.as_secs_f64() / w).min(1.0)
        } else {
            0.0
        }
    }
}

/// Sweep-level engine instrumentation (wall-clock; varies run to run).
#[derive(Debug, Clone)]
pub struct SweepEngine {
    /// Worker threads requested.
    pub jobs: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Cells simulated this run.
    pub simulated: usize,
    /// Cells answered from the run cache.
    pub cached: usize,
    /// Simulated time covered by the cells simulated *this run*.
    pub sim_elapsed: SimDuration,
    /// Events dispatched by the cells simulated this run.
    pub events: u64,
    /// Per-worker breakdown (workers that simulated at least one cell).
    pub workers: Vec<WorkerStats>,
}

impl SweepEngine {
    /// Aggregate simulated-seconds per wall-second across all workers —
    /// with N busy workers this exceeds any single run's speedup.
    pub fn speedup(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w > 0.0 {
            self.sim_elapsed.as_secs_f64() / w
        } else {
            0.0
        }
    }

    /// Mean worker utilization (busy share of sweep wall time).
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers
            .iter()
            .map(|w| w.utilization(self.wall))
            .sum::<f64>()
            / self.workers.len() as f64
    }

    fn to_json(&self) -> String {
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"worker\":{},\"cells\":{},\"events\":{},\"busy_ns\":{},\
                     \"utilization\":{}}}",
                    w.worker,
                    w.cells,
                    w.events,
                    w.busy.as_nanos(),
                    fmt_f64(w.utilization(self.wall))
                )
            })
            .collect();
        format!(
            "{{\"jobs\":{},\"wall_ns\":{},\"simulated\":{},\"cached\":{},\
             \"sim_elapsed_ns\":{},\"events\":{},\"speedup\":{},\
             \"mean_utilization\":{},\"workers\":[{}]}}",
            self.jobs,
            self.wall.as_nanos(),
            self.simulated,
            self.cached,
            self.sim_elapsed.as_nanos(),
            self.events,
            fmt_f64(self.speedup()),
            fmt_f64(self.mean_utilization()),
            workers.join(",")
        )
    }
}

/// A finished sweep (see module docs for the determinism contract).
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Every cell, in spec order.
    pub cells: Vec<CellOutcome>,
    /// Seed-aggregated groups, in first-appearance order.
    pub groups: Vec<GroupReport>,
    /// Wall-clock instrumentation of this particular run.
    pub engine: SweepEngine,
}

impl SweepReport {
    /// Groups `cells` (already in spec order) by scenario label and
    /// aggregates each metric over seeds.
    pub(crate) fn group(cells: &[CellOutcome]) -> Vec<GroupReport> {
        let mut groups: Vec<GroupReport> = Vec::new();
        for cell in cells {
            let label = cell.spec.group_label();
            if !groups.iter().any(|g| g.label == label) {
                let members: Vec<&CellOutcome> = cells
                    .iter()
                    .filter(|c| c.spec.group_label() == label)
                    .collect();
                let flow_count = members
                    .iter()
                    .map(|c| c.metrics.flows_kbps.len())
                    .max()
                    .unwrap_or(0);
                let flows_kbps = (0..flow_count)
                    .map(|i| {
                        let samples: Vec<f64> = members
                            .iter()
                            .filter_map(|c| c.metrics.flows_kbps.get(i).copied())
                            .collect();
                        Summary::of(&samples).expect("group has at least one member")
                    })
                    .collect();
                let totals: Vec<f64> = members.iter().map(|c| c.metrics.total_kbps()).collect();
                let fairness: Vec<f64> = members.iter().map(|c| c.metrics.fairness).collect();
                let chan_util: Vec<f64> = members.iter().map(|c| c.metrics.chan_util).collect();
                groups.push(GroupReport {
                    label,
                    seeds: members.iter().map(|c| c.spec.seed).collect(),
                    flows_kbps,
                    total_kbps: Summary::of(&totals).expect("non-empty"),
                    fairness: Summary::of(&fairness).expect("non-empty"),
                    chan_util: Summary::of(&chan_util).expect("non-empty"),
                });
            }
        }
        groups
    }

    /// Groups in which some seed's flows all measured 0 kb/s, as
    /// `(label, silent seeds, seeds)` in group order: a workload that
    /// delivered nothing at those seeds, whatever its fairness reads.
    pub fn silent_groups(&self) -> Vec<(&str, usize, usize)> {
        self.groups
            .iter()
            .filter_map(|g| {
                let silent = self
                    .cells
                    .iter()
                    .filter(|c| c.spec.group_label() == g.label)
                    .filter(|c| c.metrics.flows_kbps.iter().all(|&k| k == 0.0))
                    .count();
                (silent > 0).then_some((g.label.as_str(), silent, g.seeds.len()))
            })
            .collect()
    }

    /// Serializes only the worker-count-independent layer: cells (spec,
    /// key, metrics) and groups. Byte-identical for any `jobs` value and
    /// any cache state.
    pub fn deterministic_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"key\":\"{}\",\"scenario\":\"{}\",\"seed\":{},\
                     \"duration_ns\":{},\"metrics\":{}}}",
                    c.key,
                    c.spec.group_label(),
                    c.spec.seed,
                    c.spec.params.duration.as_nanos(),
                    c.metrics.to_json()
                )
            })
            .collect();
        let groups: Vec<String> = self.groups.iter().map(|g| g.to_json()).collect();
        format!(
            "{{\"cells\":[{}],\"groups\":[{}]}}",
            cells.join(","),
            groups.join(",")
        )
    }

    /// Full report: the deterministic layer plus this run's engine
    /// instrumentation.
    pub fn to_json(&self) -> String {
        let det = self.deterministic_json();
        // Splice the engine object into the outer JSON object.
        debug_assert!(det.ends_with('}'));
        format!(
            "{},\"engine\":{}}}\n",
            &det[..det.len() - 1],
            self.engine.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MacAxis, RunParams, SweepScenario};

    fn outcome(scenario: SweepScenario, seed: u64, kbps: Vec<f64>) -> CellOutcome {
        let spec = CellSpec {
            scenario,
            mac: MacAxis::table1(),
            seed,
            params: RunParams {
                duration: SimDuration::from_secs(1),
                warmup: SimDuration::from_millis(100),
            },
        };
        CellOutcome {
            key: spec.key(),
            spec,
            metrics: CellMetrics {
                loss_rates: kbps.iter().map(|_| 0.0).collect(),
                fairness: 1.0,
                chan_util: 0.5,
                tx_util: 0.25,
                events: 100,
                queue_high_water: 5,
                sim_elapsed_ns: 1_000_000_000,
                flows_kbps: kbps,
            },
            cached: false,
        }
    }

    #[test]
    fn groups_aggregate_across_seeds_only() {
        let figs = SweepScenario::figure(7);
        let cells = vec![
            outcome(figs[0], 1, vec![100.0, 300.0]),
            outcome(figs[0], 2, vec![200.0, 500.0]),
            outcome(figs[1], 1, vec![50.0, 60.0]),
        ];
        let groups = SweepReport::group(&cells);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].seeds, vec![1, 2]);
        assert!((groups[0].flows_kbps[0].mean - 150.0).abs() < 1e-12);
        assert!((groups[0].flows_kbps[1].mean - 400.0).abs() < 1e-12);
        assert!((groups[0].total_kbps.mean - 550.0).abs() < 1e-12);
        assert!((groups[0].imbalance().expect("two flows") - 400.0 / 150.0).abs() < 1e-12);
        assert_eq!(groups[1].seeds, vec![1]);
    }

    #[test]
    fn silent_groups_count_seeds_whose_flows_all_read_zero() {
        let figs = SweepScenario::figure(7);
        let cells = vec![
            outcome(figs[0], 1, vec![0.0, 0.0]),
            outcome(figs[0], 2, vec![0.0, 5.0]),
            outcome(figs[1], 1, vec![50.0, 60.0]),
            outcome(figs[2], 1, vec![0.0, 0.0]),
            outcome(figs[2], 2, vec![0.0, 0.0]),
        ];
        let groups = SweepReport::group(&cells);
        let report = SweepReport {
            cells,
            groups,
            engine: SweepEngine {
                jobs: 1,
                wall: Duration::ZERO,
                simulated: 5,
                cached: 0,
                sim_elapsed: SimDuration::ZERO,
                events: 0,
                workers: Vec::new(),
            },
        };
        assert_eq!(
            report.silent_groups(),
            vec![
                ("four_station/asym11/11000k/udp/basic", 1, 2),
                ("four_station/asym11/11000k/tcp/basic", 2, 2),
            ]
        );
    }

    #[test]
    fn metrics_json_round_trips_shortest_floats() {
        let m = CellMetrics {
            flows_kbps: vec![599.0368, 2714.125],
            loss_rates: vec![0.1, 0.0],
            fairness: 0.7512341,
            chan_util: 0.8421875,
            tx_util: 0.2109375,
            events: 12345,
            queue_high_water: 77,
            sim_elapsed_ns: 20_000_000_000,
        };
        let json = m.to_json();
        assert!(
            json.contains("\"flows_kbps\":[599.0368,2714.125]"),
            "{json}"
        );
        assert!(json.contains("\"fairness\":0.7512341"), "{json}");
        assert!(
            json.contains("\"chan_util\":0.8421875,\"tx_util\":0.2109375"),
            "{json}"
        );
    }

    #[test]
    fn non_finite_values_never_emit_invalid_json() {
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(2.5), "2.5");
    }

    #[test]
    fn full_json_extends_deterministic_json() {
        let figs = SweepScenario::figure(11);
        let cells = vec![outcome(figs[0], 1, vec![10.0])];
        let groups = SweepReport::group(&cells);
        let report = SweepReport {
            cells,
            groups,
            engine: SweepEngine {
                jobs: 2,
                wall: Duration::from_millis(10),
                simulated: 1,
                cached: 0,
                sim_elapsed: SimDuration::from_secs(1),
                events: 100,
                workers: vec![WorkerStats {
                    worker: 0,
                    cells: 1,
                    events: 100,
                    busy: Duration::from_millis(5),
                }],
            },
        };
        let det = report.deterministic_json();
        let full = report.to_json();
        assert!(full.starts_with(&det[..det.len() - 1]));
        assert!(full.contains("\"engine\":{\"jobs\":2"));
        // 1 simulated second in 10 ms of wall: 100x aggregate speedup.
        assert!((report.engine.speedup() - 100.0).abs() < 1e-9);
        assert!((report.engine.mean_utilization() - 0.5).abs() < 1e-9);
    }
}
