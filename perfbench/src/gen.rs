//! Seeded workload generator.
//!
//! Every input the simulator receives — cell seeds, station positions,
//! flow endpoints, run seeds and mover traces — is drawn here from the
//! benchmark's `--seed` with the benchmark's own generator, so the
//! program only ever sees generated positions, flows and traces. The
//! same seed yields bit-identical inputs ([`Inputs::digest`]), and
//! [`Inputs::validate`] re-checks the properties each workload promises.

use desim::SimDuration;
use dot11_adhoc::hash::StableHasher;
use dot11_adhoc::TracePoint;
use dot11_phy::{NodeId, Position};
use dot11_sweep::{CellSpec, MacAxis, RunParams, SweepScenario};

/// The calibrated 2 Mb/s data range (crates/core/src/calib.rs): every
/// field flow's endpoints must lie inside it.
pub const DATA_RANGE_2M_M: f64 = 98.0;

/// Longest flow a field workload draws: half the 2 Mb/s data range. Near
/// the range edge a link's fate hangs on its shadowing draw (a 70 m link
/// can lose every frame of a short session), and a flow that delivers
/// nothing measures nothing.
pub const MAX_FLOW_SPAN_M: f64 = DATA_RANGE_2M_M / 2.0;

/// The paper's four-station figures (Figs. 7, 9, 11, 12).
pub const PAPER_FIGURES: [u32; 4] = [7, 9, 11, 12];
/// Seeds per paper4 figure cell: 16 cells × 7 seeds = 112 worlds a pass,
/// so the 90th percentile of their latencies has 11 worlds beyond it.
pub const PAPER_SEEDS: usize = 7;

/// `splitmix64`: the benchmark's own input generator, independent of the
/// simulator's RNG so that a change to the program cannot move its inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = StableHasher::new();
        h.write_str("perfbench/inputs");
        h.write_str(stream);
        h.write_u64(seed);
        Rng(h.finish())
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// `k` distinct values of `0..n`, in draw order (partial Fisher–Yates).
    pub fn distinct(&mut self, n: u32, k: usize) -> Vec<u32> {
        let mut pool: Vec<u32> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i as u32) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Geometry of a hotspot field: `side × side` hotspots on a square grid
/// of pitch `pitch_m`, each holding `per_hotspot` stations drawn
/// area-uniformly on a disk of `radius_m` around its centre. Station ids
/// are hotspot-major: hotspot `h` owns `h * per_hotspot ..`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldShape {
    /// Hotspots per grid side.
    pub side: u32,
    /// Stations per hotspot.
    pub per_hotspot: u32,
    /// Hotspot radius, meters.
    pub radius_m: f64,
    /// Distance between neighbouring hotspot centres, meters.
    pub pitch_m: f64,
}

impl FieldShape {
    /// The 4096-station field: 256 hotspots of 16 stations, 40 m radius,
    /// on a 1.5 km grid.
    pub const FIELD4096: FieldShape = FieldShape {
        side: 16,
        per_hotspot: 16,
        radius_m: 40.0,
        pitch_m: 1500.0,
    };

    /// Number of hotspots.
    pub fn hotspots(&self) -> u32 {
        self.side * self.side
    }

    /// Number of stations.
    pub fn stations(&self) -> u32 {
        self.hotspots() * self.per_hotspot
    }

    /// Centre of hotspot `h`.
    pub fn centre(&self, h: u32) -> Position {
        Position {
            x: (h % self.side) as f64 * self.pitch_m,
            y: (h / self.side) as f64 * self.pitch_m,
        }
    }

    /// The hotspot station `node` belongs to.
    pub fn hotspot_of(&self, node: u32) -> u32 {
        node / self.per_hotspot
    }

    /// The grid neighbours (4-neighbourhood) of hotspot `h`.
    pub fn neighbours(&self, h: u32) -> Vec<u32> {
        let (x, y) = (h % self.side, h / self.side);
        let mut v = Vec::with_capacity(4);
        if x > 0 {
            v.push(h - 1);
        }
        if x + 1 < self.side {
            v.push(h + 1);
        }
        if y > 0 {
            v.push(h - self.side);
        }
        if y + 1 < self.side {
            v.push(h + self.side);
        }
        v
    }
}

/// Traffic and motion recipe of a field workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldRecipe {
    /// Field geometry.
    pub shape: FieldShape,
    /// Saturated flows inside every hotspot (`None`: see `sparse_flows`).
    pub flows_per_hotspot: Option<u32>,
    /// Total flows, each in its own randomly chosen hotspot, when
    /// `flows_per_hotspot` is `None`.
    pub sparse_flows: u32,
    /// Stations (never flow endpoints) walking toward a neighbouring
    /// hotspot.
    pub movers: u32,
    /// Mover speed range, m/s.
    pub speed_mps: (f64, f64),
    /// Simulated session.
    pub duration: SimDuration,
    /// Warm-up excluded from throughput windows.
    pub warmup: SimDuration,
    /// Mobility epoch (and trace sample period).
    pub epoch: SimDuration,
    /// Fields per pass.
    pub fields: usize,
}

/// One generated field: what the simulator receives.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// The recipe it was drawn from.
    pub recipe: FieldRecipe,
    /// Station positions (hotspot-major ids).
    pub positions: Vec<Position>,
    /// Saturated 512 B UDP flows, `(src, dst)`.
    pub flows: Vec<(u32, u32)>,
    /// Mover traces (empty on static fields).
    pub movers: Vec<Vec<TracePoint>>,
    /// The simulator's run seed.
    pub run_seed: u64,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 16 four-station cells of Figs. 7/9/11/12 × [`PAPER_SEEDS`].
    Paper4,
    /// Static 4096-station hotspot fields, two saturated flows a hotspot.
    Hotspot4096,
    /// Fresh hotspot fields with sparse traffic and walking stations.
    Roam4096,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Paper4, Workload::Hotspot4096, Workload::Roam4096];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper4 => "paper4",
            Workload::Hotspot4096 => "hotspot4096",
            Workload::Roam4096 => "roam4096",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The field recipe (`None` for paper4).
    pub fn recipe(self) -> Option<FieldRecipe> {
        match self {
            Workload::Paper4 => None,
            Workload::Hotspot4096 => Some(FieldRecipe {
                shape: FieldShape::FIELD4096,
                flows_per_hotspot: Some(2),
                sparse_flows: 0,
                movers: 0,
                speed_mps: (0.0, 0.0),
                // 150 ms sessions let an unlucky flow lose every frame to
                // collisions and backoff (4 attempts, none acknowledged);
                // the same flow delivered 18 packets in 300 ms.
                duration: SimDuration::from_millis(250),
                warmup: SimDuration::from_millis(50),
                epoch: SimDuration::ZERO,
                fields: 3,
            }),
            Workload::Roam4096 => Some(FieldRecipe {
                shape: FieldShape::FIELD4096,
                flows_per_hotspot: None,
                sparse_flows: 32,
                movers: 64,
                // Pedestrians to town traffic.
                speed_mps: (1.5, 15.0),
                duration: SimDuration::from_millis(500),
                warmup: SimDuration::from_millis(100),
                epoch: SimDuration::from_millis(100),
                fields: 4,
            }),
        }
    }
}

/// Everything one pass of a workload feeds the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    /// paper4: sweep cell recipes at generated seeds.
    Cells(Vec<CellSpec>),
    /// The 4096-station workloads: generated fields.
    Fields(Vec<Field>),
}

impl Inputs {
    /// Generates a workload's inputs from the benchmark seed.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, workload.name());
        match workload.recipe() {
            None => {
                let seeds: Vec<u64> = (0..PAPER_SEEDS).map(|_| rng.next_u64() >> 1).collect();
                let mut cells = Vec::new();
                for fig in PAPER_FIGURES {
                    for scenario in SweepScenario::figure(fig) {
                        for &seed in &seeds {
                            cells.push(CellSpec {
                                scenario,
                                mac: MacAxis::table1(),
                                seed,
                                params: RunParams::quick(),
                            });
                        }
                    }
                }
                Inputs::Cells(cells)
            }
            Some(recipe) => Inputs::Fields(
                (0..recipe.fields)
                    .map(|_| {
                        // Each field draws from its own topology seed.
                        let mut field_rng = Rng::new(rng.next_u64(), "field");
                        generate_field(recipe, &mut field_rng)
                    })
                    .collect(),
            ),
        }
    }

    /// A stable hash of every generated input (equal seeds, equal digest).
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        match self {
            Inputs::Cells(cells) => {
                for c in cells {
                    h.write_u64(c.key().0);
                }
            }
            Inputs::Fields(fields) => {
                for f in fields {
                    h.write_u64(f.run_seed);
                    for p in &f.positions {
                        h.write_u64(p.x.to_bits());
                        h.write_u64(p.y.to_bits());
                    }
                    for &(s, d) in &f.flows {
                        h.write_u32(s);
                        h.write_u32(d);
                    }
                    for t in f.movers.iter().flatten() {
                        h.write_u64(t.at.as_nanos());
                        h.write_u32(t.node.0);
                        h.write_u64(t.x.to_bits());
                        h.write_u64(t.y.to_bits());
                    }
                }
            }
        }
        h.finish()
    }

    /// Checks the properties the workload promises; returns one message
    /// per violation (empty when the inputs are sound).
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let Inputs::Fields(fields) = self else {
            return errors;
        };
        for (i, f) in fields.iter().enumerate() {
            let shape = f.recipe.shape;
            if f.positions.len() != shape.stations() as usize {
                errors.push(format!("field {i}: {} stations", f.positions.len()));
            }
            let want_flows = match f.recipe.flows_per_hotspot {
                Some(k) => k * shape.hotspots(),
                None => f.recipe.sparse_flows,
            };
            if f.flows.len() != want_flows as usize {
                errors.push(format!(
                    "field {i}: {} flows, want {want_flows}",
                    f.flows.len()
                ));
            }
            let mut endpoint = vec![false; f.positions.len()];
            for &(s, d) in &f.flows {
                let (a, b) = (f.positions[s as usize], f.positions[d as usize]);
                let dist = (a.x - b.x).hypot(a.y - b.y);
                if s == d || dist > MAX_FLOW_SPAN_M {
                    errors.push(format!("field {i}: flow {s}->{d} spans {dist:.1} m"));
                }
                if endpoint[s as usize] || endpoint[d as usize] {
                    errors.push(format!("field {i}: station reused by flow {s}->{d}"));
                }
                endpoint[s as usize] = true;
                endpoint[d as usize] = true;
            }
            if f.movers.len() != f.recipe.movers as usize {
                errors.push(format!("field {i}: {} movers", f.movers.len()));
            }
            for trace in &f.movers {
                let Some(first) = trace.first() else {
                    errors.push(format!("field {i}: empty mover trace"));
                    continue;
                };
                if endpoint[first.node.index()] {
                    errors.push(format!(
                        "field {i}: mover {} is a flow endpoint",
                        first.node
                    ));
                }
                let ordered = trace
                    .windows(2)
                    .all(|w| w[0].at < w[1].at && w[0].node == w[1].node);
                if !ordered || trace.last().is_some_and(|t| t.at > f.recipe.duration) {
                    errors.push(format!(
                        "field {i}: mover {} trace out of order",
                        first.node
                    ));
                }
            }
        }
        errors
    }
}

/// Draws one field of `recipe`.
pub fn generate_field(recipe: FieldRecipe, rng: &mut Rng) -> Field {
    let shape = recipe.shape;
    let mut positions = Vec::with_capacity(shape.stations() as usize);
    for h in 0..shape.hotspots() {
        let c = shape.centre(h);
        for _ in 0..shape.per_hotspot {
            let r = shape.radius_m * rng.unit().sqrt();
            let theta = std::f64::consts::TAU * rng.unit();
            positions.push(Position {
                x: c.x + r * theta.cos(),
                y: c.y + r * theta.sin(),
            });
        }
    }
    let k = shape.per_hotspot;
    // Each flow takes two stations of one hotspot; no station serves two
    // flows.
    let mut flows = Vec::new();
    let flow_hotspots: Vec<(u32, u32)> = match recipe.flows_per_hotspot {
        Some(per) => (0..shape.hotspots()).map(|h| (h, per)).collect(),
        None => rng
            .distinct(shape.hotspots(), recipe.sparse_flows as usize)
            .into_iter()
            .map(|h| (h, 1))
            .collect(),
    };
    for (h, per) in flow_hotspots {
        let members: Vec<u32> = (h * k..(h + 1) * k).collect();
        let mut free = members.clone();
        for _ in 0..per {
            flows.push(pick_pair(&mut free, &positions, rng));
        }
    }
    let mut endpoint = vec![false; positions.len()];
    for &(s, d) in &flows {
        endpoint[s as usize] = true;
        endpoint[d as usize] = true;
    }
    let candidates: Vec<u32> = (0..shape.stations())
        .filter(|&n| !endpoint[n as usize])
        .collect();
    let movers = rng
        .distinct(candidates.len() as u32, recipe.movers as usize)
        .into_iter()
        .map(|i| {
            let node = candidates[i as usize];
            let hotspots = shape.neighbours(shape.hotspot_of(node));
            let target = shape.centre(hotspots[rng.below(hotspots.len() as u32) as usize]);
            let (lo, hi) = recipe.speed_mps;
            let speed = lo + (hi - lo) * rng.unit();
            walk(node, positions[node as usize], target, speed, recipe)
        })
        .collect();
    Field {
        recipe,
        positions,
        flows,
        movers,
        run_seed: rng.next_u64() >> 1,
    }
}

/// Draws a flow from the stations in `free` (removing both endpoints):
/// a random source and a random destination within [`MAX_FLOW_SPAN_M`]
/// of it. Hotspot stations lie at most 2 × 40 m apart, and every station
/// has neighbours well inside that span, so the draw always succeeds.
fn pick_pair(free: &mut Vec<u32>, positions: &[Position], rng: &mut Rng) -> (u32, u32) {
    loop {
        let si = rng.below(free.len() as u32) as usize;
        let src = free[si];
        let a = positions[src as usize];
        let near: Vec<usize> = (0..free.len())
            .filter(|&j| {
                let b = positions[free[j] as usize];
                j != si && (a.x - b.x).hypot(a.y - b.y) <= MAX_FLOW_SPAN_M
            })
            .collect();
        if near.is_empty() {
            continue;
        }
        let di = near[rng.below(near.len() as u32) as usize];
        let dst = free[di];
        free.retain(|&n| n != src && n != dst);
        return (src, dst);
    }
}

/// A straight walk from `from` toward `to` at `speed` m/s, sampled every
/// epoch over the session (stopping on arrival).
fn walk(
    node: u32,
    from: Position,
    to: Position,
    speed: f64,
    recipe: FieldRecipe,
) -> Vec<TracePoint> {
    let (dx, dy) = (to.x - from.x, to.y - from.y);
    let len = dx.hypot(dy);
    let epochs = recipe.duration.as_nanos() / recipe.epoch.as_nanos();
    (0..=epochs)
        .map(|e| {
            let at = SimDuration::from_nanos(e * recipe.epoch.as_nanos());
            let s = (speed * at.as_secs_f64()).min(len) / len;
            TracePoint {
                at,
                node: NodeId(node),
                x: from.x + s * dx,
                y: from.y + s * dy,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(side: u32, recipe: FieldRecipe) -> FieldRecipe {
        FieldRecipe {
            shape: FieldShape {
                side,
                ..recipe.shape
            },
            ..recipe
        }
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 17);
            assert_eq!(a, Inputs::generate(w, 17), "{}", w.name());
            assert_eq!(a.digest(), Inputs::generate(w, 17).digest());
            assert_ne!(a.digest(), Inputs::generate(w, 18).digest(), "{}", w.name());
        }
    }

    #[test]
    fn generated_inputs_validate() {
        for w in Workload::ALL {
            for seed in [1, 2, 99] {
                let inputs = Inputs::generate(w, seed);
                assert!(
                    inputs.validate().is_empty(),
                    "{}: {:?}",
                    w.name(),
                    inputs.validate()
                );
            }
        }
    }

    #[test]
    fn flow_endpoints_lie_inside_the_data_range() {
        let Inputs::Fields(fields) = Inputs::generate(Workload::Hotspot4096, 3) else {
            panic!("fields expected");
        };
        for f in &fields {
            for &(s, d) in &f.flows {
                let (a, b) = (f.positions[s as usize], f.positions[d as usize]);
                assert!((a.x - b.x).hypot(a.y - b.y) <= MAX_FLOW_SPAN_M);
                assert_eq!(f.recipe.shape.hotspot_of(s), f.recipe.shape.hotspot_of(d));
            }
        }
    }

    #[test]
    fn flow_count_grows_with_hotspot_count() {
        let base = Workload::Hotspot4096.recipe().expect("field workload");
        let count = |side| {
            generate_field(small(side, base), &mut Rng::new(5, "t"))
                .flows
                .len()
        };
        assert_eq!(count(2), 8);
        assert_eq!(count(4), 32);
        assert_eq!(count(16), 512);
    }

    #[test]
    fn movers_are_never_endpoints_and_walk_in_time_order() {
        let recipe = Workload::Roam4096.recipe().expect("field workload");
        for seed in 0..8 {
            let f = generate_field(recipe, &mut Rng::new(seed, "t"));
            assert_eq!(f.movers.len(), 64);
            for trace in &f.movers {
                assert!(!trace.is_empty());
                let node = trace[0].node.0;
                assert!(f.flows.iter().all(|&(s, d)| s != node && d != node));
                assert!(trace.windows(2).all(|w| w[0].at < w[1].at));
                // Moving, and toward another hotspot.
                let (a, b) = (trace[0], trace[trace.len() - 1]);
                assert!((a.x - b.x).hypot(a.y - b.y) > 0.5);
            }
        }
    }

    #[test]
    fn validate_catches_broken_inputs() {
        let Inputs::Fields(mut fields) = Inputs::generate(Workload::Roam4096, 4) else {
            panic!("fields expected");
        };
        let (src, _) = fields[0].flows[0];
        fields[0].movers[0][0].node = NodeId(src);
        fields[1].movers[0].reverse();
        fields[2].flows[0].1 = fields[2].flows[0].0 + 16;
        let errors = Inputs::Fields(fields).validate();
        assert!(errors.iter().any(|e| e.contains("endpoint")), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.contains("out of order")),
            "{errors:?}"
        );
        assert!(errors.iter().any(|e| e.contains("spans")), "{errors:?}");
    }
}
