//! One pass of a workload: build and run every world, untraced or traced.
//!
//! The untraced pass calls the program exactly as a user would
//! (`CellSpec::build` or `ScenarioBuilder::build`, then
//! `Scenario::into_world` and `World::run`) and times construction and
//! execution apart. The traced pass runs the same inputs with a span
//! around each layer call and the engine's `WallProbe` armed over
//! `world::PROBE_SCOPES`, and gathers the per-layer counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use desim::{SimRng, WallProbe};
use dot11_adhoc::calib::{calibrated_dual_slope, calibrated_path_loss};
use dot11_adhoc::world::PROBE_SCOPES;
use dot11_adhoc::{MobilityConfig, RunReport, Scenario, ScenarioBuilder, Traffic};
use dot11_phy::{
    CullPolicy, DayProfile, Db, Medium, MediumConfig, NodeId, PathLossModel, PhyRate, Position,
    RadioConfig, Shadowing, CULL_MARGIN_DB,
};
use dot11_sweep::{CellSpec, SweepScenario};
use dot11_trace::NullSink;

use crate::calib::Pace;
use crate::fingerprint;
use crate::gen::{Field, Inputs};
use crate::host;
use crate::spans::{Recorder, SpanId};

/// One world of a pass.
#[derive(Debug, Clone, Copy)]
pub enum Job<'a> {
    /// A paper four-station cell.
    Cell(&'a CellSpec),
    /// A generated field.
    Field(&'a Field),
}

impl Job<'_> {
    /// The worlds of one pass, in order.
    pub fn all(inputs: &Inputs) -> Vec<Job<'_>> {
        match inputs {
            Inputs::Cells(c) => c.iter().map(Job::Cell).collect(),
            Inputs::Fields(f) => f.iter().map(Job::Field).collect(),
        }
    }

    /// Builds the scenario through the program's public builders.
    fn scenario(self) -> Scenario {
        match self {
            Job::Cell(cell) => cell.build(),
            Job::Field(f) => {
                let r = f.recipe;
                let mut b = ScenarioBuilder::new(PhyRate::R2)
                    .path_loss(calibrated_dual_slope())
                    .seed(f.run_seed)
                    .duration(r.duration)
                    .warmup(r.warmup);
                for &p in &f.positions {
                    b.station(p);
                }
                let traffic = Traffic::SaturatedUdp {
                    payload_bytes: 512,
                    backlog: 10,
                };
                for &(s, d) in &f.flows {
                    b = b.flow(s, d, traffic);
                }
                if !f.movers.is_empty() {
                    b = b.mobility(MobilityConfig::trace(f.movers.concat()).with_epoch(r.epoch));
                }
                b.build()
            }
        }
    }

    /// The medium a world of this job builds, as `Medium::new` receives
    /// it: positions, path loss, the clear-day shadowing stream of the
    /// run seed, and the radio's audible-set culling.
    fn medium_inputs(self) -> (Vec<Position>, PathLossModel, u64) {
        match self {
            Job::Cell(cell) => {
                let SweepScenario::FourStation { layout, .. } = cell.scenario else {
                    unreachable!("paper4 runs only four-station cells")
                };
                let positions = layout
                    .positions()
                    .iter()
                    .map(|&x| Position::on_line(x))
                    .collect();
                (positions, calibrated_path_loss().into(), cell.seed)
            }
            Job::Field(f) => (
                f.positions.clone(),
                calibrated_dual_slope().into(),
                f.run_seed,
            ),
        }
    }

    /// Whether every flow must deliver.
    fn is_field(self) -> bool {
        matches!(self, Job::Field(_))
    }
}

/// Deterministic counters of one run, summed over a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Dispatched events.
    pub events: u64,
    /// Highest event-queue population of any world.
    pub queue_high_water: u64,
    /// PHY preamble locks.
    pub locks: u64,
    /// Frames decoded.
    pub decoded: u64,
    /// MAC data transmissions.
    pub data_tx: u64,
    /// Acknowledged data transmissions.
    pub tx_success: u64,
    /// MAC retries.
    pub retries: u64,
    /// Packets the flows offered.
    pub offered: u64,
    /// Packets delivered end to end.
    pub delivered: u64,
    /// Mobility epochs committed.
    pub epochs: u64,
    /// Audible slices recomputed by epoch commits.
    pub slices_recomputed: u64,
    /// Links recomputed by epoch commits.
    pub links_recomputed: u64,
    /// Audible-set changes (added + removed).
    pub churn: u64,
}

impl Counters {
    fn add(&mut self, r: &RunReport) {
        self.events += r.events;
        self.queue_high_water = self.queue_high_water.max(r.engine.queue_high_water as u64);
        for n in &r.nodes {
            self.locks += n.phy.locks;
            self.decoded += n.phy.decoded;
            self.data_tx += n.mac.data_tx;
            self.tx_success += n.mac.tx_success;
            self.retries += n.mac.retries;
        }
        for f in &r.flows {
            self.offered += f.offered_packets;
            self.delivered += f.delivered_packets;
        }
        let m = &r.engine.mobility;
        self.epochs += m.epochs;
        self.slices_recomputed += m.slices_recomputed;
        self.links_recomputed += m.links_recomputed;
        self.churn += m.audible_added + m.audible_removed;
    }
}

/// What one world produced.
#[derive(Debug, Clone)]
pub struct WorldOutcome {
    /// Scenario build + `into_world`.
    pub setup: Duration,
    /// Time inside `World::run`.
    pub run: Duration,
    /// Run fingerprint (`None` if the world panicked).
    pub fingerprint: Option<u64>,
    /// Dispatched events.
    pub events: u64,
    /// Flow checks that failed.
    pub problems: Vec<String>,
    /// Host-speed scale of the world's segment (see [`Pace::scale`]; 1
    /// in traced passes).
    pub scale: f64,
}

/// Per-layer measurements of a traced pass (summed over its worlds).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `ScenarioBuilder::build` / `CellSpec::build`.
    pub scenario_build: Duration,
    /// `Medium::new` on the workload's positions.
    pub medium_new: Duration,
    /// `Scenario::into_world` (medium included).
    pub into_world: Duration,
    /// Audible links built.
    pub links_built: u64,
    /// Audible links of stations that transmitted.
    pub links_used: u64,
    /// Probe scope totals `(count, ns)`, in `PROBE_SCOPES` order.
    pub scopes: Vec<(u64, u64)>,
}

/// One pass over every world.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The whole pass.
    pub wall: Duration,
    /// Sum of world setup times.
    pub setup: Duration,
    /// Sum of `World::run` times.
    pub run: Duration,
    /// Per-world outcomes, in job order.
    pub worlds: Vec<WorldOutcome>,
    /// Summed deterministic counters.
    pub counters: Counters,
    /// Traced passes only.
    pub layers: Option<Layers>,
    /// Host-speed scale of an untraced pass: its worlds' scales,
    /// weighted by their times.
    pub scale: f64,
    /// Median reference-kernel time during an untraced pass, ms.
    pub kernel_ms: f64,
}

/// The checks a finished run must pass.
fn check_flows(job: Job<'_>, r: &RunReport) -> Vec<String> {
    let mut problems = Vec::new();
    for f in &r.flows {
        if f.delivered_packets > f.offered_packets {
            problems.push(format!(
                "flow {} delivered {} of {} offered",
                f.flow.0, f.delivered_packets, f.offered_packets
            ));
        }
        if job.is_field() && f.delivered_packets == 0 {
            problems.push(format!("flow {} delivered nothing", f.flow.0));
        }
    }
    problems
}

fn panicked(setup: Duration, run: Duration) -> WorldOutcome {
    WorldOutcome {
        setup,
        run,
        fingerprint: None,
        events: 0,
        problems: vec!["world panicked".into()],
        scale: 1.0,
    }
}

/// Memory of the workload's first world, measured before anything else
/// runs in the process (later worlds reuse what earlier ones freed, and
/// the heap's fragmentation makes a run-long high-water mark depend on
/// allocation order): resident growth across its build, MB, and the
/// process's resident high-water mark once it has run, MB.
pub fn first_world_mb(jobs: &[Job<'_>]) -> (f64, f64) {
    let before = host::rss_mb();
    let world = jobs[0].scenario().into_world();
    let built = host::rss_mb() - before;
    drop(world.run());
    (built, host::peak_rss_mb())
}

/// Runs every world untraced, sampling the host's speed between worlds
/// (the samples are left out of the pass's wall time).
pub fn plain(jobs: &[Job<'_>], pace: &mut Pace) -> Pass {
    let start = Instant::now();
    pace.begin();
    let mut pass = Pass {
        wall: Duration::ZERO,
        setup: Duration::ZERO,
        run: Duration::ZERO,
        worlds: Vec::with_capacity(jobs.len()),
        counters: Counters::default(),
        layers: None,
        scale: 1.0,
        kernel_ms: 0.0,
    };
    let mut segments = Vec::with_capacity(jobs.len());
    for &job in jobs {
        segments.push(pace.tick());
        let t0 = Instant::now();
        let world = catch_unwind(AssertUnwindSafe(|| job.scenario().into_world()));
        let t1 = Instant::now();
        let outcome = match world {
            Err(_) => panicked(t1 - t0, Duration::ZERO),
            Ok(world) => {
                let report = catch_unwind(AssertUnwindSafe(|| world.run()));
                let t2 = Instant::now();
                match report {
                    Err(_) => panicked(t1 - t0, t2 - t1),
                    Ok(r) => {
                        pass.counters.add(&r);
                        WorldOutcome {
                            setup: t1 - t0,
                            run: t2 - t1,
                            fingerprint: Some(fingerprint::run(&r)),
                            events: r.events,
                            problems: check_flows(job, &r),
                            scale: 1.0,
                        }
                    }
                }
            }
        };
        pass.setup += outcome.setup;
        pass.run += outcome.run;
        pass.worlds.push(outcome);
    }
    let spent = pace.end();
    pass.wall = start.elapsed() - spent;
    let (mut host, mut scaled) = (0.0, 0.0);
    for (o, &seg) in pass.worlds.iter_mut().zip(&segments) {
        o.scale = pace.scale(seg);
        let t = (o.setup + o.run).as_secs_f64();
        host += t;
        scaled += t * o.scale;
    }
    pass.scale = if host > 0.0 { scaled / host } else { 1.0 };
    pass.kernel_ms = pace.kernel_ms();
    pass
}

/// Runs every world with spans at each layer boundary and the engine
/// probe armed; `trace` tags the pass's spans.
pub fn traced(jobs: &[Job<'_>], rec: &mut Recorder, trace: u32) -> Pass {
    let radio = RadioConfig::dwl650();
    let start = Instant::now();
    let root = rec.open("workload", None, trace);
    let mut pass = Pass {
        wall: Duration::ZERO,
        setup: Duration::ZERO,
        run: Duration::ZERO,
        worlds: Vec::with_capacity(jobs.len()),
        counters: Counters::default(),
        layers: None,
        scale: 1.0,
        kernel_ms: 0.0,
    };
    let mut layers = Layers {
        scopes: vec![(0, 0); PROBE_SCOPES.len()],
        ..Layers::default()
    };
    for &job in jobs {
        let w = rec.open("world", Some(root), trace);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            traced_world(job, &radio, rec, w, trace, &mut layers, &mut pass.counters)
        }))
        .unwrap_or_else(|_| panicked(Duration::ZERO, Duration::ZERO));
        rec.close(w);
        pass.setup += outcome.setup;
        pass.run += outcome.run;
        pass.worlds.push(outcome);
    }
    rec.close(root);
    pass.wall = start.elapsed();
    pass.layers = Some(layers);
    pass
}

fn span_time(rec: &Recorder, id: SpanId) -> Duration {
    let s = &rec.spans()[id];
    Duration::from_nanos(s.end_ns - s.start_ns)
}

fn traced_world(
    job: Job<'_>,
    radio: &RadioConfig,
    rec: &mut Recorder,
    w: SpanId,
    trace: u32,
    layers: &mut Layers,
    counters: &mut Counters,
) -> WorldOutcome {
    let (b, scenario) = rec.span("scenario.build", Some(w), trace, || job.scenario());
    let (positions, path_loss, seed) = job.medium_inputs();
    let shadowing = Shadowing::new(
        DayProfile::clear(),
        SimRng::from_seed(seed).substream(b"shadowing"),
    );
    let config = MediumConfig {
        path_loss,
        day: DayProfile::clear(),
        propagation_delay: desim::SimDuration::from_micros(1),
        cull: CullPolicy::Audible {
            tx_power: radio.tx_power,
            noise_floor: radio.noise_floor,
            margin: Db(CULL_MARGIN_DB),
        },
    };
    let (m, medium) = rec.span("phy.medium_new", Some(w), trace, || {
        Medium::new(positions, shadowing, config)
    });
    drop(medium);
    let (n, world) = rec.span("world.new", Some(w), trace, || {
        scenario.into_world_probed(NullSink, WallProbe::new(&PROBE_SCOPES))
    });
    let audible: Vec<u64> = (0..world.medium().station_count())
        .map(|i| world.medium().audible_count(NodeId(i as u32)) as u64)
        .collect();
    let (r, report) = rec.span("world.run", Some(w), trace, || world.run());
    layers.scenario_build += span_time(rec, b);
    layers.medium_new += span_time(rec, m);
    layers.into_world += span_time(rec, n);
    layers.links_built += audible.iter().sum::<u64>();
    layers.links_used += report
        .nodes
        .iter()
        .zip(&audible)
        .filter(|(node, _)| node.phy.tx_frames > 0)
        .map(|(_, &a)| a)
        .sum::<u64>();
    if let Some(profile) = &report.engine.profile {
        for (acc, s) in layers.scopes.iter_mut().zip(&profile.scopes) {
            acc.0 += s.count;
            acc.1 += s.total_ns;
            if s.count > 0 {
                rec.attr(r, format!("{}_ns", s.name), s.total_ns as f64);
            }
        }
    }
    rec.attr(r, "events", report.events as f64);
    counters.add(&report);
    WorldOutcome {
        setup: span_time(rec, b) + span_time(rec, n),
        run: span_time(rec, r),
        fingerprint: Some(fingerprint::run(&report)),
        events: report.events,
        problems: check_flows(job, &report),
        scale: 1.0,
    }
}
