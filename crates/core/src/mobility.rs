//! Movement models driving the epoch-versioned medium.
//!
//! A [`MobilityConfig`] on a scenario makes station positions functions of
//! time: the world schedules a `TopologyUpdate` event every epoch, asks
//! the model where each station now stands, and commits the moved set to
//! the medium's incremental epoch path
//! ([`Medium::commit_epoch`](dot11_phy::Medium::commit_epoch)). Everything
//! here is a pure, seeded function of the scenario — two runs of the same
//! mobile scenario are bit-identical, and (asserted by the identity
//! suite) indistinguishable from re-building the whole medium at every
//! epoch.
//!
//! Two models, matching the mobile ad hoc literature the paper's
//! related-work axis points at:
//!
//! * **random waypoint on the disk** — each station walks at a fixed
//!   speed toward a target drawn area-uniformly on the deployment disk,
//!   drawing the next target the instant it arrives (no pause time). Each
//!   station consumes its own RNG substream (`mobility/<i>`), so the
//!   walk of station *i* is independent of the station count and of
//!   every other model draw.
//! * **linear trace playback** — piecewise-linear interpolation through
//!   `(t, node, x, y)` waypoints loaded from a file, for replaying
//!   externally generated mobility (ns-2 style setdest output, measured
//!   GPS tracks) under this stack.

use desim::{SimDuration, SimRng};
use dot11_phy::{NodeId, Position};

/// How stations move between epochs.
#[derive(Debug, Clone, PartialEq)]
pub enum MovementModel {
    /// Random waypoint on a disk (no pause time).
    Waypoint {
        /// Walking speed, m/s (every station moves at this speed).
        speed_mps: f64,
        /// Deployment-disk radius, meters. `None` derives it from the
        /// initial positions (the smallest centroid-centered disk that
        /// contains them), which keeps waypoint mobility meaningful on
        /// chains and grids too.
        radius_m: Option<f64>,
    },
    /// Linear playback of an explicit waypoint list (see
    /// [`parse_trace`]). Stations without waypoints never move; before
    /// its first waypoint a station holds its scenario position, after
    /// its last it holds the final one.
    Trace {
        /// The waypoints, in any order (sorted per node internally).
        points: Vec<TracePoint>,
    },
}

/// One `(time, node, position)` sample of a mobility trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// When the node is at this position, relative to the run start.
    pub at: SimDuration,
    /// Which node.
    pub node: NodeId,
    /// Position, meters.
    pub x: f64,
    /// Position, meters.
    pub y: f64,
}

/// Scenario-level mobility: a movement model sampled every `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityConfig {
    /// The movement model.
    pub model: MovementModel,
    /// Topology-update period: positions are piecewise-constant between
    /// epoch commits (the standard discrete-epoch mobility approximation;
    /// shrink it to tighten the approximation).
    pub epoch: SimDuration,
    /// Diagnostics/testing: commit every epoch by tearing down and
    /// rebuilding the medium instead of the incremental path. Produces
    /// bit-identical runs (that equivalence *is* the incremental path's
    /// correctness proof) at O(N·degree) per epoch instead of O(moved).
    pub rebuild_epochs: bool,
}

impl MobilityConfig {
    /// Random-waypoint mobility at `speed_mps` with a 1 s epoch, disk
    /// derived from the initial positions.
    pub fn waypoint(speed_mps: f64) -> MobilityConfig {
        MobilityConfig {
            model: MovementModel::Waypoint {
                speed_mps,
                radius_m: None,
            },
            epoch: SimDuration::from_secs(1),
            rebuild_epochs: false,
        }
    }

    /// Trace-playback mobility with a 1 s epoch.
    pub fn trace(points: Vec<TracePoint>) -> MobilityConfig {
        MobilityConfig {
            model: MovementModel::Trace { points },
            epoch: SimDuration::from_secs(1),
            rebuild_epochs: false,
        }
    }

    /// Sets the epoch period.
    pub fn with_epoch(mut self, epoch: SimDuration) -> MobilityConfig {
        self.epoch = epoch;
        self
    }

    /// Selects rebuild-per-epoch commits (see
    /// [`MobilityConfig::rebuild_epochs`]).
    pub fn with_rebuild_epochs(mut self, rebuild: bool) -> MobilityConfig {
        self.rebuild_epochs = rebuild;
        self
    }
}

/// Parses a mobility trace: one `seconds node x y` record per line,
/// whitespace-separated; blank lines and `#` comments ignored.
///
/// # Example
///
/// ```
/// use dot11_adhoc::mobility::parse_trace;
/// let points = parse_trace("# t node x y\n0.0 1 10.0 0.0\n2.5 1 60.0 0.0\n").unwrap();
/// assert_eq!(points.len(), 2);
/// assert_eq!(points[1].at.as_micros(), 2_500_000);
/// ```
pub fn parse_trace(text: &str) -> Result<Vec<TracePoint>, String> {
    let mut points = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let mut field = |what: &str| {
            fields
                .next()
                .ok_or_else(|| format!("trace line {}: missing {what}", ln + 1))
        };
        let at: f64 = field("time")?
            .parse()
            .map_err(|e| format!("trace line {}: bad time: {e}", ln + 1))?;
        let node: u32 = field("node id")?
            .parse()
            .map_err(|e| format!("trace line {}: bad node id: {e}", ln + 1))?;
        let x: f64 = field("x")?
            .parse()
            .map_err(|e| format!("trace line {}: bad x: {e}", ln + 1))?;
        let y: f64 = field("y")?
            .parse()
            .map_err(|e| format!("trace line {}: bad y: {e}", ln + 1))?;
        if !(at >= 0.0 && at.is_finite()) {
            return Err(format!(
                "trace line {}: time must be finite and >= 0",
                ln + 1
            ));
        }
        if !x.is_finite() || !y.is_finite() {
            return Err(format!("trace line {}: coordinates must be finite", ln + 1));
        }
        // `u64::MAX as f64` rounds up to 2^64, the first value past range.
        let ns = (at * 1e9).round();
        if ns >= u64::MAX as f64 {
            return Err(format!(
                "trace line {}: time {at} s overflows the nanosecond clock",
                ln + 1
            ));
        }
        points.push(TracePoint {
            at: SimDuration::from_nanos(ns as u64),
            node: NodeId(node),
            x,
            y,
        });
    }
    Ok(points)
}

/// One station's current random-waypoint leg.
#[derive(Debug, Clone, Copy)]
struct Leg {
    /// Where the leg ends.
    target: Position,
}

/// The runtime form of a [`MovementModel`]: per-station state plus the
/// sampled-position query the world's epoch handler drives.
#[derive(Debug)]
pub(crate) struct MobilityEngine {
    model: ModelState,
    /// Simulated time the engine last advanced to (waypoint walks are
    /// integrated leg by leg from here).
    advanced_to: SimDuration,
}

#[derive(Debug)]
enum ModelState {
    Waypoint {
        speed: f64,
        center: Position,
        radius: f64,
        /// Per-station leg + RNG substream (`mobility/<i>` of the
        /// scenario's mobility stream — stable across epochs, untouched
        /// by every other consumer of the run seed).
        legs: Vec<(Leg, SimRng)>,
    },
    Trace {
        /// Per-node waypoint tracks, each sorted by time (stable sort:
        /// duplicate timestamps keep file order, last one wins at the
        /// sample instant).
        tracks: Vec<Vec<(SimDuration, Position)>>,
    },
}

impl MobilityEngine {
    /// Builds the runtime model over the scenario's initial positions.
    /// `rng` is the run's dedicated mobility stream.
    pub(crate) fn new(
        config: &MobilityConfig,
        positions: &[Position],
        rng: &SimRng,
    ) -> MobilityEngine {
        let model = match &config.model {
            MovementModel::Waypoint {
                speed_mps,
                radius_m,
            } => {
                let n = positions.len().max(1) as f64;
                let center = Position {
                    x: positions.iter().map(|p| p.x).sum::<f64>() / n,
                    y: positions.iter().map(|p| p.y).sum::<f64>() / n,
                };
                let radius = radius_m.unwrap_or_else(|| {
                    positions
                        .iter()
                        .map(|p| distance(*p, center))
                        .fold(0.0_f64, f64::max)
                        .max(1.0)
                });
                let legs = positions
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        let mut sub = rng.substream(format!("mobility/{i}").as_bytes());
                        let target = draw_on_disk(&mut sub, center, radius);
                        (Leg { target }, sub)
                    })
                    .collect();
                ModelState::Waypoint {
                    speed: *speed_mps,
                    center,
                    radius,
                    legs,
                }
            }
            MovementModel::Trace { points } => {
                let mut tracks: Vec<Vec<(SimDuration, Position)>> =
                    vec![Vec::new(); positions.len()];
                for p in points {
                    if let Some(track) = tracks.get_mut(p.node.index()) {
                        track.push((p.at, Position { x: p.x, y: p.y }));
                    }
                }
                for track in &mut tracks {
                    track.sort_by_key(|(t, _)| *t);
                }
                ModelState::Trace { tracks }
            }
        };
        MobilityEngine {
            model,
            advanced_to: SimDuration::ZERO,
        }
    }

    /// Advances the model to `now` and pushes a `(node, new position)`
    /// move for every station whose position actually changed (bitwise).
    /// `positions` are the medium's current (pre-epoch) positions.
    pub(crate) fn advance(
        &mut self,
        now: SimDuration,
        positions: &[Position],
        moves: &mut Vec<(NodeId, Position)>,
    ) {
        let dt = now.saturating_sub(self.advanced_to).as_secs_f64();
        self.advanced_to = now;
        match &mut self.model {
            ModelState::Waypoint {
                speed,
                center,
                radius,
                legs,
            } => {
                if *speed <= 0.0 || dt <= 0.0 {
                    return;
                }
                for (i, (leg, rng)) in legs.iter_mut().enumerate() {
                    let mut at = positions[i];
                    let mut travel = *speed * dt;
                    // Walk whole legs until the travel budget runs out;
                    // each arrival draws the next waypoint immediately.
                    loop {
                        let to_target = distance(at, leg.target);
                        if to_target > travel {
                            let f = travel / to_target;
                            at = Position {
                                x: at.x + (leg.target.x - at.x) * f,
                                y: at.y + (leg.target.y - at.y) * f,
                            };
                            break;
                        }
                        travel -= to_target;
                        at = leg.target;
                        leg.target = draw_on_disk(rng, *center, *radius);
                        if travel <= 0.0 {
                            break;
                        }
                    }
                    push_if_moved(moves, i, positions[i], at);
                }
            }
            ModelState::Trace { tracks } => {
                for (i, track) in tracks.iter().enumerate() {
                    if track.is_empty() {
                        continue;
                    }
                    let at = sample_track(track, positions[i], now);
                    push_if_moved(moves, i, positions[i], at);
                }
            }
        }
    }
}

/// Area-uniform waypoint draw on the disk (`r = R·√u` — same sampling as
/// [`ScenarioBuilder::random_disk`](crate::ScenarioBuilder::random_disk)).
fn draw_on_disk(rng: &mut SimRng, center: Position, radius: f64) -> Position {
    let r = radius * rng.gen_f64().sqrt();
    let theta = 2.0 * std::f64::consts::PI * rng.gen_f64();
    Position {
        x: center.x + r * theta.cos(),
        y: center.y + r * theta.sin(),
    }
}

fn distance(a: Position, b: Position) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    (dx * dx + dy * dy).sqrt()
}

fn push_if_moved(moves: &mut Vec<(NodeId, Position)>, i: usize, from: Position, to: Position) {
    if from.x.to_bits() != to.x.to_bits() || from.y.to_bits() != to.y.to_bits() {
        moves.push((NodeId(i as u32), to));
    }
}

/// Piecewise-linear position at `now` on a sorted track. `fallback` is
/// the station's scenario position (held before the first waypoint).
fn sample_track(
    track: &[(SimDuration, Position)],
    fallback: Position,
    now: SimDuration,
) -> Position {
    // Index of the first waypoint strictly after `now`.
    let after = track.partition_point(|(t, _)| *t <= now);
    match (after.checked_sub(1).map(|i| track[i]), track.get(after)) {
        (None, Some(_)) => fallback,
        (Some((_, p)), None) => p,
        (Some((t0, p0)), Some(&(t1, p1))) => {
            let span = (t1 - t0).as_secs_f64();
            if span <= 0.0 {
                return p0;
            }
            let f = (now - t0).as_secs_f64() / span;
            Position {
                x: p0.x + (p1.x - p0.x) * f,
                y: p0.y + (p1.y - p0.y) * f,
            }
        }
        (None, None) => unreachable!("empty tracks are skipped by the caller"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(xs: &[f64]) -> Vec<Position> {
        xs.iter().map(|&x| Position::on_line(x)).collect()
    }

    #[test]
    fn parse_trace_accepts_comments_and_rejects_garbage() {
        let points = parse_trace("# header\n\n0 0 1.5 -2.5 # inline\n1.25 3 0 0\n").unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].node, NodeId(0));
        assert_eq!(points[0].y, -2.5);
        assert_eq!(points[1].at, SimDuration::from_nanos(1_250_000_000));
        assert!(parse_trace("0 0 1.5").unwrap_err().contains("missing y"));
        assert!(parse_trace("x 0 1 2").unwrap_err().contains("bad time"));
        assert!(parse_trace("-1 0 1 2").unwrap_err().contains(">= 0"));
        assert!(parse_trace("0 0 inf 2").unwrap_err().contains("finite"));
    }

    #[test]
    fn parse_trace_rejects_times_past_the_nanosecond_clock() {
        // ~1.8e10 s is the last time u64 nanoseconds can hold.
        let last = parse_trace("18446744073 0 0 0").unwrap();
        assert!((last[0].at.as_secs_f64() - 18_446_744_073.0).abs() < 1e-3);
        for t in ["18446744074", "1e11", "1e300"] {
            let err = parse_trace(&format!("{t} 0 0 0")).unwrap_err();
            assert!(err.contains("overflows"), "{t}: {err}");
        }
    }

    #[test]
    fn trace_playback_interpolates_linearly() {
        let positions = line(&[0.0, 100.0]);
        let cfg = MobilityConfig::trace(parse_trace("1 1 100 0\n3 1 300 40\n").unwrap());
        let rng = SimRng::from_seed(1);
        let mut eng = MobilityEngine::new(&cfg, &positions, &rng);
        let mut moves = Vec::new();
        // Before the first waypoint: held at the scenario position.
        eng.advance(SimDuration::from_millis(500), &positions, &mut moves);
        assert!(moves.is_empty(), "{moves:?}");
        // Midway between the waypoints: linear interpolation.
        eng.advance(SimDuration::from_secs(2), &positions, &mut moves);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].0, NodeId(1));
        assert_eq!((moves[0].1.x, moves[0].1.y), (200.0, 20.0));
        // Past the last waypoint: parked there.
        moves.clear();
        eng.advance(SimDuration::from_secs(50), &positions, &mut moves);
        assert_eq!((moves[0].1.x, moves[0].1.y), (300.0, 40.0));
    }

    #[test]
    fn waypoint_walk_is_deterministic_and_speed_bounded() {
        let positions = line(&[0.0, 50.0, 100.0, 150.0]);
        let cfg = MobilityConfig::waypoint(10.0);
        let rng = SimRng::from_seed(9).substream(b"mobility");
        let mut a = MobilityEngine::new(&cfg, &positions, &rng);
        let mut b = MobilityEngine::new(&cfg, &positions, &rng);
        let mut pos_a = positions.clone();
        let mut pos_b = positions.clone();
        for step in 1..=20u64 {
            let now = SimDuration::from_millis(step * 500);
            for (eng, pos) in [(&mut a, &mut pos_a), (&mut b, &mut pos_b)] {
                let mut moves = Vec::new();
                eng.advance(now, pos, &mut moves);
                for (node, p) in moves {
                    // 10 m/s over 0.5 s: never more than 5 m (+ε) per step.
                    assert!(distance(pos[node.index()], p) <= 5.0 + 1e-9);
                    pos[node.index()] = p;
                }
            }
            for (pa, pb) in pos_a.iter().zip(&pos_b) {
                assert_eq!(pa.x.to_bits(), pb.x.to_bits());
                assert_eq!(pa.y.to_bits(), pb.y.to_bits());
            }
        }
        // Everybody actually went somewhere.
        for (p0, p) in positions.iter().zip(&pos_a) {
            assert!(distance(*p0, *p) > 0.0);
        }
    }

    #[test]
    fn waypoint_disk_derives_from_initial_positions() {
        let positions = line(&[0.0, 1_000.0]);
        let cfg = MobilityConfig::waypoint(400.0);
        let rng = SimRng::from_seed(4).substream(b"mobility");
        let mut eng = MobilityEngine::new(&cfg, &positions, &rng);
        let mut pos = positions.clone();
        let center = Position::on_line(500.0);
        for step in 1..=40u64 {
            let mut moves = Vec::new();
            eng.advance(SimDuration::from_secs(step), &pos, &mut moves);
            for (node, p) in moves {
                pos[node.index()] = p;
            }
            for p in &pos {
                // Derived disk: centroid (500, 0), radius 500. Walkers
                // stay on it (legs connect points of a convex set).
                assert!(distance(*p, center) <= 500.0 + 1e-9);
            }
        }
    }
}
