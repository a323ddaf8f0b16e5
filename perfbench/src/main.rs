//! End-to-end and per-layer benchmark of the dot11 simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper4|hotspot4096|roam4096|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times untraced passes of the workload for `--seconds` and
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced passes and reports the per-layer metrics. Both check every run
//! against its fingerprint and the workload's delivery promises. The
//! last stdout line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); the exit code is non-zero when a check failed.

mod calib;
mod fingerprint;
mod gen;
mod host;
mod pass;
mod spans;
mod sweep;

use std::collections::HashMap;
use std::panic::catch_unwind;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dot11_adhoc::world::PROBE_SCOPES;
use dot11_sweep::CellSpec;

use crate::gen::{Inputs, Workload};
use crate::pass::{Job, Pass};
use crate::spans::Recorder;

const USAGE: &str = "usage: perfbench --workload <paper4|hotspot4096|roam4096|all> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--print-pins]";

/// Untraced passes a timed run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: fingerprint::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            args.print_pins = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs counted against the correctness checks.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    /// Counts one attempted run; it failed if any check reported a problem.
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("{what}: {}", problems.join("; ")));
            }
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Median of `v` (0 when empty).
fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    quantile(v.into_iter().collect(), 0.5)
}

/// Linearly interpolated quantile `q` of `v` (0 when empty).
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Where the benchmark keeps what it writes: beside the build output.
fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            PathBuf::from,
        )
        .join("perfbench")
}

/// What one workload reported.
struct Outcome {
    gate: Gate,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// Layer → metric → the end-to-end metric it should move, for the table.
const LAYERS: &[(&str, &str, &str)] = &[
    ("scenario", "scenario.build_ms", "setup_s"),
    ("phy", "phy.medium_new_ms", "setup_s, peak_rss_mb"),
    ("phy", "phy.links_built", "setup_s, peak_rss_mb"),
    ("phy", "phy.links_used", "-"),
    ("phy", "phy.links_used_ratio", "-"),
    ("world", "world.new_ms", "setup_s"),
    ("world", "world.rss_delta_mb", "peak_rss_mb"),
    ("desim", "desim.events", "run_s"),
    ("desim", "desim.ns_per_event", "run_s"),
    ("desim", "desim.queue_high_water", "run_s"),
    ("phy", "phy.scatter_ms", "run_s"),
    ("phy", "phy.arrival_scan_ms", "run_s"),
    ("phy", "phy.ber_eval_ms", "run_s"),
    ("world", "world.signal_start_ms", "run_s"),
    ("world", "world.signal_end_ms", "run_s"),
    ("phy", "phy.deliveries_per_frame", "run_s"),
    ("phy", "phy.decode_ratio", "-"),
    ("mac", "mac.timer_ms", "run_s, cell_ms.*"),
    ("mac", "mac.actions_ms", "run_s, cell_ms.*"),
    ("mac", "mac.response_build_ms", "run_s, cell_ms.*"),
    ("mac", "mac.success_ratio", "-"),
    ("mac", "mac.retries", "run_s"),
    ("net", "net.tcp_timer_ms", "cell_ms.*"),
    ("net", "net.delivered_pkts", "-"),
    ("net", "net.delivery_ratio", "-"),
    ("mobility", "mobility.epoch_ms", "run_s"),
    ("mobility", "mobility.epochs", "run_s"),
    ("mobility", "mobility.slices_recomputed", "run_s"),
    ("mobility", "mobility.links_recomputed", "run_s"),
    ("mobility", "mobility.churn_ratio", "-"),
    ("sweep", "sweep.makespan_s", "wall_s / jobs"),
    ("sweep", "sweep.worker_util", "wall_s / jobs"),
    ("sweep", "sweep.warm_s", "-"),
    ("sweep", "sweep.cache_hit_ratio", "-"),
    ("bench", "cell_ms.samples", "-"),
    ("bench", "trace.overhead_ratio", "-"),
];

fn run_workload(w: Workload, args: &Args) -> Outcome {
    let mut gate = Gate::default();
    let inputs = Inputs::generate(w, args.seed);
    gate.record("generated inputs", inputs.validate());
    let jobs = Job::all(&inputs);
    println!(
        "inputs: {} worlds a pass, digest {:016x}",
        jobs.len(),
        inputs.digest()
    );

    let (world_rss_mb, peak_rss_mb) =
        catch_unwind(|| pass::first_world_mb(&jobs)).unwrap_or_else(|_| {
            gate.record("first world", vec!["world panicked".into()]);
            (0.0, 0.0)
        });
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut rec = Recorder::new();
    let mut pace = calib::Pace::new();
    loop {
        plain.push(pass::plain(&jobs, &mut pace));
        if args.trace {
            traced.push(pass::traced(&jobs, &mut rec, traced.len() as u32));
        }
        let min = if args.trace { 2 } else { MIN_PASSES };
        if plain.len() >= min && Instant::now() >= deadline {
            break;
        }
    }

    // Every run must reproduce its reference fingerprint: the pinned one
    // at the default seed, else the first untraced pass's. Traced runs
    // check against the same reference, so tracing must not change a run.
    let pinned = fingerprint::pinned(w.name());
    let reference: Vec<Option<u64>> = if args.seed == fingerprint::DEFAULT_SEED && !args.print_pins
    {
        (0..jobs.len()).map(|i| pinned.get(i).copied()).collect()
    } else {
        plain[0].worlds.iter().map(|o| o.fingerprint).collect()
    };
    for (kind, passes) in [("untraced", &plain), ("traced", &traced)] {
        for (p, pass) in passes.iter().enumerate() {
            for (i, o) in pass.worlds.iter().enumerate() {
                let mut problems = o.problems.clone();
                if o.fingerprint.is_some() && o.fingerprint != reference[i] {
                    problems.push(format!(
                        "fingerprint {:016x}, expected {}",
                        o.fingerprint.unwrap_or(0),
                        reference[i].map_or("none pinned".into(), |f| format!("{f:016x}"))
                    ));
                }
                gate.record(&format!("{kind} pass {p} world {i}"), problems);
            }
        }
    }

    let sweep = match &inputs {
        Inputs::Cells(cells) => check_sweep(cells, &plain[0], args, &mut gate),
        Inputs::Fields(_) => None,
    };

    if args.print_pins {
        let pins: Vec<String> = plain[0]
            .worlds
            .iter()
            .map(|o| format!("0x{:016x}", o.fingerprint.unwrap_or(0)))
            .collect();
        println!("pin {}: &[{}]", w.name(), pins.join(", "));
        if let Some(s) = &sweep {
            println!("pin {}_sweep: 0x{:016x}", w.name(), s.json_hash);
        }
    }

    // Times are medians over passes, each world scaled to the reference
    // host speed; `host` holds the same statistics unscaled. A world's
    // latency is its median over passes; `cell_ms.*` are percentiles of
    // those over the workload's worlds.
    let timed = |scaled: bool| {
        let k = |s: f64| if scaled { s } else { 1.0 };
        let sum = |p: &Pass, f: fn(&pass::WorldOutcome) -> Duration| {
            p.worlds
                .iter()
                .map(|o| f(o).as_secs_f64() * k(o.scale))
                .sum::<f64>()
        };
        let cells: Vec<f64> = (0..jobs.len())
            .map(|i| {
                median(plain.iter().map(|p| {
                    let o = &p.worlds[i];
                    ms(o.setup + o.run) * k(o.scale)
                }))
            })
            .collect();
        vec![
            metric(
                "wall_s",
                median(plain.iter().map(|p| p.wall.as_secs_f64() * k(p.scale))),
                "s",
            ),
            metric(
                "setup_s",
                median(plain.iter().map(|p| sum(p, |o| o.setup))),
                "s",
            ),
            metric(
                "run_s",
                median(plain.iter().map(|p| sum(p, |o| o.run))),
                "s",
            ),
            metric("cell_ms.p50", quantile(cells.clone(), 0.5), "ms"),
            metric("cell_ms.p90", quantile(cells, 0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    let end_to_end = timed(true);
    let host = timed(false);
    let samples = jobs.len();
    let work = &plain[0].counters;
    println!(
        "passes: {} untraced, {} traced; a pass runs {} worlds, {} events, delivers {} of {} packets",
        plain.len(),
        traced.len(),
        jobs.len(),
        work.events,
        work.delivered,
        work.offered
    );
    let kernel = median(plain.iter().map(|p| p.kernel_ms));
    println!(
        "host speed: reference kernel {kernel:.2} ms (reference {} ms), median pass scale {:.4}",
        calib::REFERENCE_MS,
        median(plain.iter().map(|p| p.scale))
    );
    println!("end-to-end (untraced, median over passes; reference-speed and host values):");
    for (m, h) in end_to_end.iter().zip(&host) {
        println!(
            "  {:<14} {:>14.4} {:<3} host {:>12.4}",
            m.name, m.value, m.unit, h.value
        );
    }
    println!(
        "  {:<14} {:>14} worlds, each the median of {} passes",
        "cell_ms.n",
        samples,
        plain.len()
    );
    println!(
        "  {:<14} {:>14.4} ratio ({} failed of {} attempted)",
        "failed_frac",
        gate.failed_frac(),
        gate.failed,
        gate.attempted
    );

    let per_layer = if args.trace {
        let layers = per_layer(&plain, &traced, sweep.as_ref(), samples, world_rss_mb);
        print_layers(&layers, &rec, traced.len());
        let path = scratch_dir().join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        match rec.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", rec.spans().len(), path.display()),
            Err(e) => println!("spans: not written to {}: {e}", path.display()),
        }
        layers
    } else {
        Vec::new()
    };
    for note in &gate.notes {
        println!("FAILED {note}");
    }
    Outcome {
        gate,
        end_to_end,
        per_layer,
    }
}

/// paper4 through the sweep runner, counted as one attempt: cold and warm
/// sweeps agree with each other, with the direct runs of `first` and —
/// at the default seed — with the pinned `deterministic_json` hash.
fn check_sweep(
    cells: &[CellSpec],
    first: &Pass,
    args: &Args,
    gate: &mut Gate,
) -> Option<sweep::SweepOutcome> {
    let direct: HashMap<u64, u64> = cells
        .iter()
        .zip(&first.worlds)
        .map(|(c, o)| (c.key().0, o.events))
        .collect();
    let dir = scratch_dir().join(format!("sweep-cache-{}", std::process::id()));
    let Ok(out) = catch_unwind(|| sweep::check(cells, &direct, &dir, host::jobs())) else {
        gate.record("paper4 sweep", vec!["sweep panicked".into()]);
        return None;
    };
    let mut problems = out.problems.clone();
    if args.seed == fingerprint::DEFAULT_SEED
        && !args.print_pins
        && out.json_hash != fingerprint::PAPER4_SWEEP
    {
        problems.push(format!(
            "sweep deterministic_json hash {:016x}, pinned {:016x}",
            out.json_hash,
            fingerprint::PAPER4_SWEEP
        ));
    }
    gate.record("paper4 sweep", problems);
    Some(out)
}

/// The per-layer metrics of the traced passes (times: median over
/// passes; counts: deterministic, from the first traced pass).
fn per_layer(
    plain: &[Pass],
    traced: &[Pass],
    sweep: Option<&sweep::SweepOutcome>,
    samples: usize,
    world_rss_mb: f64,
) -> Vec<Metric> {
    let layers: Vec<&pass::Layers> = traced.iter().filter_map(|p| p.layers.as_ref()).collect();
    let first = layers[0];
    let c = &traced[0].counters;
    let med_ms = |f: &dyn Fn(&pass::Layers) -> Duration| median(layers.iter().map(|l| ms(f(l))));
    let idx = |name: &str| {
        PROBE_SCOPES
            .iter()
            .position(|s| *s == name)
            .expect("scope in PROBE_SCOPES")
    };
    let scope_ms = |names: &[&str]| {
        let ids: Vec<usize> = names.iter().map(|n| idx(n)).collect();
        median(
            layers
                .iter()
                .map(|l| ids.iter().map(|&i| l.scopes[i].1).sum::<u64>() as f64 / 1e6),
        )
    };
    let count = |name: &str| first.scopes[idx(name)].0 as f64;
    let mac_timers: Vec<&str> = PROBE_SCOPES
        .iter()
        .copied()
        .filter(|s| s.starts_with("mac_"))
        .collect();
    let plain_run = median(plain.iter().map(|p| p.run.as_secs_f64()));
    let plain_wall = median(plain.iter().map(|p| p.wall.as_secs_f64()));
    let traced_wall = median(traced.iter().map(|p| p.wall.as_secs_f64()));
    let (makespan, util, warm, hits) = sweep.map_or((0.0, 0.0, 0.0, 0.0), |s| {
        (
            s.makespan.as_secs_f64(),
            s.worker_util,
            s.warm.as_secs_f64(),
            s.cache_hit_ratio,
        )
    });
    vec![
        metric("scenario.build_ms", med_ms(&|l| l.scenario_build), "ms"),
        metric("phy.medium_new_ms", med_ms(&|l| l.medium_new), "ms"),
        metric("phy.links_built", first.links_built as f64, "count"),
        metric("phy.links_used", first.links_used as f64, "count"),
        metric(
            "phy.links_used_ratio",
            ratio(first.links_used as f64, first.links_built as f64),
            "ratio",
        ),
        metric(
            "world.new_ms",
            med_ms(&|l| l.into_world.saturating_sub(l.medium_new)),
            "ms",
        ),
        metric("world.rss_delta_mb", world_rss_mb, "MB"),
        metric("desim.events", c.events as f64, "count"),
        metric(
            "desim.ns_per_event",
            ratio(plain_run * 1e9, c.events as f64),
            "ns",
        ),
        metric("desim.queue_high_water", c.queue_high_water as f64, "count"),
        metric("phy.scatter_ms", scope_ms(&["phase_scatter"]), "ms"),
        metric(
            "phy.arrival_scan_ms",
            scope_ms(&["phase_arrival_scan"]),
            "ms",
        ),
        metric("phy.ber_eval_ms", scope_ms(&["phase_ber_eval"]), "ms"),
        metric("world.signal_start_ms", scope_ms(&["signal_start"]), "ms"),
        metric("world.signal_end_ms", scope_ms(&["signal_end"]), "ms"),
        metric(
            "phy.deliveries_per_frame",
            ratio(count("phase_arrival_scan"), count("signal_start")),
            "ratio",
        ),
        metric(
            "phy.decode_ratio",
            ratio(c.decoded as f64, c.locks as f64),
            "ratio",
        ),
        metric("mac.timer_ms", scope_ms(&mac_timers), "ms"),
        metric("mac.actions_ms", scope_ms(&["phase_mac_actions"]), "ms"),
        metric(
            "mac.response_build_ms",
            scope_ms(&["phase_response_build"]),
            "ms",
        ),
        metric(
            "mac.success_ratio",
            ratio(c.tx_success as f64, c.data_tx as f64),
            "ratio",
        ),
        metric("mac.retries", c.retries as f64, "count"),
        metric(
            "net.tcp_timer_ms",
            scope_ms(&["rto_timer", "delack_timer"]),
            "ms",
        ),
        metric("net.delivered_pkts", c.delivered as f64, "count"),
        metric(
            "net.delivery_ratio",
            ratio(c.delivered as f64, c.offered as f64),
            "ratio",
        ),
        metric("mobility.epoch_ms", scope_ms(&["topology_update"]), "ms"),
        metric("mobility.epochs", c.epochs as f64, "count"),
        metric(
            "mobility.slices_recomputed",
            c.slices_recomputed as f64,
            "count",
        ),
        metric(
            "mobility.links_recomputed",
            c.links_recomputed as f64,
            "count",
        ),
        metric(
            "mobility.churn_ratio",
            ratio(c.churn as f64, c.links_recomputed as f64),
            "ratio",
        ),
        metric("sweep.makespan_s", makespan, "s"),
        metric("sweep.worker_util", util, "ratio"),
        metric("sweep.warm_s", warm, "s"),
        metric("sweep.cache_hit_ratio", hits, "ratio"),
        metric("cell_ms.samples", samples as f64, "count"),
        metric(
            "trace.overhead_ratio",
            ratio(traced_wall, plain_wall),
            "ratio",
        ),
    ]
}

fn print_layers(layers: &[Metric], rec: &Recorder, passes: usize) {
    println!("per-layer (traced passes; times are medians over passes):");
    println!(
        "  {:<9} {:<28} {:>16} {:<6} moves",
        "layer", "metric", "value", "unit"
    );
    for m in layers {
        let (layer, moves) = LAYERS
            .iter()
            .find(|(_, name, _)| *name == m.name)
            .map_or(("?", "-"), |&(l, _, mv)| (l, mv));
        println!(
            "  {:<9} {:<28} {:>16.4} {:<6} {}",
            layer, m.name, m.value, m.unit, moves
        );
    }
    println!("spans (mean per traced pass):");
    println!(
        "  {:<16} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    let n = passes.max(1) as f64;
    for (name, (count, total, own)) in rec.by_name() {
        println!(
            "  {:<16} {:>8.0} {:>12.3} {:>12.3}",
            name,
            count as f64 / n,
            total as f64 / 1e6 / n,
            own as f64 / 1e6 / n
        );
    }
}

fn json_metrics(prefix: &str, metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = host::Host::detect();
    println!("host: {host}");
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    let single = args.workloads.len() == 1;
    for &w in &args.workloads {
        println!(
            "== {} (seed {}, {} s, trace {}) ==",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let out = run_workload(w, &args);
        attempted += out.gate.attempted;
        failed += out.gate.failed;
        let prefix = if single {
            String::new()
        } else {
            format!("{}/", w.name())
        };
        let reported = if args.trace {
            &out.per_layer
        } else {
            &out.end_to_end
        };
        metrics.extend(json_metrics(&prefix, reported));
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
