//! The shared wireless medium: positions, propagation, active signals.
//!
//! `Medium` is pure computation — the event loop lives in the simulation
//! driver. When a station starts transmitting, the driver calls
//! [`Medium::transmit_into`], which samples the per-receiver powers
//! **once** (path loss + that instant's shadowing) into the caller's
//! buffer; the driver then schedules signal-start/end events at each
//! receiver after the propagation delay.

use desim::{SimDuration, SimTime};

use crate::pathloss::{PathLoss, PathLossModel};
use crate::plcp::{FrameAirtime, Preamble};
use crate::rate::PhyRate;
use crate::shadowing::{DayProfile, LinkShadow, Shadowing};
use crate::units::{Db, Dbm, Meters, NodeId, Position};

/// Identifier of one transmission on the medium (unique within a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

/// Default culling margin (dB) below the noise floor for
/// [`CullPolicy::Audible`].
///
/// A link is kept whenever its *best-case* received power — TX power
/// minus cached path loss minus [`DayProfile::min_excess`] — still clears
/// `noise_floor − CULL_MARGIN_DB`. At 25 dB below a −96.6 dBm noise floor
/// a culled signal is ≤ −121.6 dBm ≈ 7·10⁻¹³ mW, more than 300× below
/// the weakest signal the PHY will ever carrier-sense (−101.5 dBm) and
/// ~10⁻⁵ of the noise power that dominates every SINR denominator, so
/// dropping it cannot flip a carrier-sense comparison or change a decode
/// probability beyond the float's low bits (see ARCHITECTURE.md,
/// "Audible sets & scaling", for the full soundness argument).
pub const CULL_MARGIN_DB: f64 = 25.0;

/// How [`Medium`] decides which receivers each transmitter can possibly
/// reach.
#[derive(Debug, Clone, Copy)]
pub enum CullPolicy {
    /// Deliver every frame to all other stations — O(N) fan-out, the
    /// pre-culling behaviour. Kept for A/B comparison and as the safe
    /// default for hand-built media whose TX power is unknown.
    Full,
    /// Deliver only to receivers whose best-case received power clears
    /// `noise_floor − margin`. Sound only if every transmission uses at
    /// most `tx_power` (checked by a debug assertion on the hot path).
    Audible {
        /// Upper bound on the TX power any station will use.
        tx_power: Dbm,
        /// The receivers' thermal noise floor.
        noise_floor: Dbm,
        /// Safety margin below the noise floor (see [`CULL_MARGIN_DB`]).
        margin: Db,
    },
}

/// Static configuration of the medium.
#[derive(Clone)]
pub struct MediumConfig {
    /// Deterministic path-loss model (devirtualized — see
    /// [`PathLossModel`]).
    pub path_loss: PathLossModel,
    /// Day/weather profile driving the shadowing process.
    pub day: DayProfile,
    /// Propagation delay applied uniformly (the paper's Table 1 lists
    /// τ = 1 µs).
    pub propagation_delay: SimDuration,
    /// Audible-set culling policy applied when the link matrix is built.
    pub cull: CullPolicy,
}

impl std::fmt::Debug for MediumConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MediumConfig")
            .field("path_loss", &self.path_loss)
            .field("day", &self.day.name)
            .field("propagation_delay", &self.propagation_delay)
            .field("cull", &self.cull)
            .finish()
    }
}

/// One launched transmission, as seen by a particular receiver.
#[derive(Debug, Clone, Copy)]
pub struct TxSignal {
    /// The transmission this signal belongs to.
    pub tx_id: TxId,
    /// The transmitting station.
    pub source: NodeId,
    /// Received power at this receiver (sampled at transmit time).
    pub rx_power: Dbm,
    /// Rate of the MPDU body.
    pub rate: PhyRate,
    /// MPDU length, bytes.
    pub mpdu_bytes: u32,
    /// Preamble format.
    pub preamble: Preamble,
    /// Airtime start at the receiver (transmit time + propagation delay).
    pub starts_at: SimTime,
    /// Airtime end at the receiver.
    pub ends_at: SimTime,
}

/// One kept directed link of a built audible slice: the receiver, the
/// link's cached geometry — exactly `path_loss.path_loss(distance)`, so
/// cached and recomputed powers are bit-identical — and its shadowing
/// state (`None` until the link is first sampled).
#[derive(Debug)]
struct LinkRecord {
    rx: NodeId,
    distance: Meters,
    loss: Db,
    shadow: LinkShadow,
}

/// The shared medium for one simulation run.
///
/// Positions change only at mobility epochs ([`Medium::commit_epoch`]),
/// so the deterministic part of every directed link — distance and path
/// loss — is cached per kept link. The cache is organised by
/// transmitter: station `t`'s **audible slice** holds one record per
/// receiver `t` can reach, in station order, with that link's distance,
/// path loss and shadowing state side by side, so a frame's scatter
/// walks one contiguous block — no `log10`, no virtual dispatch, no
/// hashing and, once the slice is built, no allocation.
///
/// Slices are built **lazily**: a station's slice is computed the first
/// time it transmits, from the one bucket grid the medium keeps over the
/// current positions for its whole life. Construction therefore costs
/// O(N) — the grid — and a run pays only for the slices of the stations
/// that transmit.
/// Build order cannot show in the results: a slice's contents are a pure
/// function of the positions, and a link's shadowing draws come from its
/// own `"shadow/"+tx+rx` substream, started on its first sample.
/// Read-only queries ([`Medium::audible_count`],
/// [`Medium::culled_link_count`]) answer from the grid and build nothing.
#[derive(Debug)]
pub struct Medium {
    positions: Vec<Position>,
    shadowing: Shadowing,
    config: MediumConfig,
    /// The exact keep horizon recovered by `keep_radius` at construction.
    /// A function of the cull policy, path-loss model and day profile
    /// only — never of positions — so epoch commits reuse it as-is.
    cull_radius: f64,
    /// Bucket grid over the current positions: the candidate generator
    /// for slice builds, read-only audible queries and epoch commits.
    grid: Grid,
    /// Built audible slices by transmitter; `None` until first needed,
    /// and again after an epoch moves the transmitter.
    slices: Vec<Option<Vec<LinkRecord>>>,
    next_tx: u64,
}

/// Link-churn accounting for one mobility epoch, returned by
/// [`Medium::commit_epoch`] (and, with identical values, by the
/// [`Medium::commit_epoch_rebuild`] reference), so a run report carrying
/// accumulated churn stays bitwise comparable across the two modes.
///
/// The counters describe the full audible sets, built or not: a
/// directed link counts when it has a moved endpoint and is audible
/// before or after the epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochChurn {
    /// Stations whose position actually changed (bit-identical no-op
    /// moves are dropped).
    pub moved: u32,
    /// Audible slices the epoch can have changed: the movers' own plus
    /// those of the stations within the keep radius of a mover's old or
    /// new position. A horizon that keeps every pair counts the movers'
    /// only (no other slice changes membership); one that keeps nothing
    /// counts none.
    pub slices_recomputed: u32,
    /// Pre-epoch directed links invalidated — entries with a moved
    /// endpoint, including those that left their audible set.
    pub links_dirtied: u32,
    /// Post-epoch directed links starting from fresh state — entries
    /// with a moved endpoint, including those that just entered.
    pub links_recomputed: u32,
    /// Directed links that entered an audible set this epoch.
    pub audible_added: u32,
    /// Directed links that left an audible set this epoch.
    pub audible_removed: u32,
}

/// The validated move set of one epoch: which stations really moved, and
/// from where.
struct EpochPlan {
    moved: Vec<bool>,
    moved_count: u32,
    /// `(station, pre-epoch position)`, ascending by station.
    movers: Vec<(u32, Position)>,
}

impl EpochPlan {
    /// Where station `x` stood before the epoch.
    fn old_position(&self, x: u32, positions: &[Position]) -> Position {
        if !self.moved[x as usize] {
            return positions[x as usize];
        }
        let i = self.movers.partition_point(|&(id, _)| id < x);
        self.movers[i].1
    }
}

/// Merges a station's audible slice before the epoch against its slice
/// after it (both `(receiver, distance)` in station order) into churn
/// counters. An entry present on both sides with no moved endpoint
/// survives untouched; everything else is dirtied and/or recomputed.
/// The rebuild reference counts through this; the incremental commit
/// classifies the same pairs geometrically (`Medium::geometric_churn`).
fn count_slice_churn(
    moved: &[bool],
    tx: usize,
    old: &[(u32, f64)],
    new: &[(u32, f64)],
    churn: &mut EpochChurn,
) {
    churn.slices_recomputed += 1;
    let tx_moved = moved[tx];
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        match (old.get(i).map(|&(r, _)| r), new.get(j).map(|&(r, _)| r)) {
            (Some(a), Some(b)) if a == b => {
                if tx_moved || moved[a as usize] {
                    churn.links_dirtied += 1;
                    churn.links_recomputed += 1;
                }
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                churn.links_dirtied += 1;
                churn.audible_removed += 1;
                i += 1;
            }
            (Some(_), None) => {
                churn.links_dirtied += 1;
                churn.audible_removed += 1;
                i += 1;
            }
            (_, Some(_)) => {
                churn.links_recomputed += 1;
                churn.audible_added += 1;
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

/// The largest distance the (monotone) keep predicate accepts, found by
/// bisection over the f64 bit lattice — non-negative floats order like
/// their bit patterns, so this lands on the exact float where the
/// predicate flips. [`PathLoss`] implementations are monotone
/// non-decreasing in distance (a documented trait contract the range
/// solvers already rely on), which makes `keep` downward-closed in
/// distance; `d ≤ radius` then reproduces `keep(d)` for every distance,
/// bit for bit (debug-asserted per examined pair in `for_each_audible`,
/// and pinned against the exhaustive scan by the cull-equivalence test).
///
/// Returns `NEG_INFINITY` when nothing is kept (every comparison false)
/// and `INFINITY` when everything is (every comparison true).
fn keep_radius(keep: impl Fn(Meters) -> bool) -> f64 {
    if !keep(Meters(0.0)) {
        return f64::NEG_INFINITY;
    }
    if keep(Meters(f64::MAX)) {
        return f64::INFINITY;
    }
    let (mut lo, mut hi) = (0.0f64.to_bits(), f64::MAX.to_bits());
    // Invariant: keep(lo) && !keep(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if keep(Meters(f64::from_bits(mid))) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

/// A uniform bucket grid over station positions: the spatial index that
/// lets every audible-set computation examine only O(neighbours)
/// candidate pairs instead of all N−1. Cell side is at least the keep
/// radius (so a small ring of cells always covers it) but never smaller
/// than span/√N (so the grid itself stays O(N) cells even when the keep
/// radius is far below the station spacing). An infinite radius makes
/// one cell holding everyone.
///
/// Geometry is frozen at construction; per-cell `Vec` buckets make moving
/// a station two bucket edits, so one grid follows the stations through
/// every epoch. Bucket *order* is irrelevant (every consumer counts,
/// marks or sorts what it visits), so removal can `swap_remove`.
#[derive(Debug)]
struct Grid {
    cell: f64,
    min_x: f64,
    min_y: f64,
    nx: usize,
    ny: usize,
    /// Cells-per-axis a pair within the keep radius can straddle.
    reach: usize,
    buckets: Vec<Vec<u32>>,
}

impl Grid {
    fn new(positions: &[Position], radius: f64) -> Grid {
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let span = (max_x - min_x).max(max_y - min_y).max(1.0);
        let max_side = (positions.len() as f64).sqrt().ceil().max(1.0);
        let cell = radius.max(span / max_side);
        let nx = (((max_x - min_x) / cell) as usize + 1).max(1);
        let ny = (((max_y - min_y) / cell) as usize + 1).max(1);
        // ceil(radius/cell) rings suffice mathematically; the +1 ring
        // absorbs any rounding in the division for free (the extra cells
        // are empty or re-checked by the exact distance compare anyway).
        let reach = ((radius / cell).ceil() as usize).saturating_add(1);
        let mut grid = Grid {
            cell,
            min_x,
            min_y,
            nx,
            ny,
            reach,
            buckets: vec![Vec::new(); nx * ny],
        };
        for (i, p) in positions.iter().enumerate() {
            let (ix, iy) = grid.coords(p);
            grid.buckets[iy * nx + ix].push(i as u32);
        }
        grid
    }

    /// The (clamped) cell coordinates of a position. Clamping makes the
    /// index total: positions outside the construction-time bounding box
    /// land in edge cells. Because clamping is monotone and
    /// non-expanding, two positions within the keep radius of each other
    /// still map to cells at most `reach` apart — so the frozen grid
    /// remains a *correct* candidate generator for any later positions
    /// (only its efficiency can degrade as stations drift far outside
    /// the box).
    fn coords(&self, p: &Position) -> (usize, usize) {
        let ix = (((p.x - self.min_x) / self.cell) as usize).min(self.nx - 1);
        let iy = (((p.y - self.min_y) / self.cell) as usize).min(self.ny - 1);
        (ix, iy)
    }

    /// Re-bins station `id` after it moved from `old` to `new`.
    fn move_id(&mut self, id: u32, old: &Position, new: &Position) {
        let ((ox, oy), (nx, ny)) = (self.coords(old), self.coords(new));
        if (ox, oy) == (nx, ny) {
            return;
        }
        let bucket = &mut self.buckets[oy * self.nx + ox];
        let at = bucket
            .iter()
            .position(|&b| b == id)
            .expect("station binned in the cell its old position maps to");
        bucket.swap_remove(at);
        self.buckets[ny * self.nx + nx].push(id);
    }

    /// Visits every station id (including `of`'s own, if it is a
    /// station) in the neighbourhood of cells guaranteed to contain all
    /// stations within the keep radius of `of`.
    fn for_each_neighbour(&self, of: &Position, mut visit: impl FnMut(u32)) {
        let (ix, iy) = self.coords(of);
        for cy in iy.saturating_sub(self.reach)..=(iy + self.reach).min(self.ny - 1) {
            for cx in ix.saturating_sub(self.reach)..=(ix + self.reach).min(self.nx - 1) {
                self.buckets[cy * self.nx + cx]
                    .iter()
                    .for_each(|&id| visit(id));
            }
        }
    }
}

/// Visits `(receiver, distance)` for every member of station `tx`'s
/// audible set at `positions`, in grid order — the one place the keep
/// predicate is applied: the grid's candidates pass the exact
/// `d ≤ radius` compare (debug cross-checked against the full predicate).
// `config` only feeds the debug cross-check below.
#[cfg_attr(not(debug_assertions), allow(unused_variables))]
fn for_each_audible(
    positions: &[Position],
    config: &MediumConfig,
    radius: f64,
    grid: &Grid,
    tx: usize,
    mut visit: impl FnMut(u32, f64),
) {
    grid.for_each_neighbour(&positions[tx], |rx| {
        if rx as usize == tx {
            return;
        }
        let d = positions[tx].distance_to(positions[rx as usize]);
        #[cfg(debug_assertions)]
        if let CullPolicy::Audible {
            tx_power,
            noise_floor,
            margin,
        } = config.cull
        {
            let best_case = tx_power - config.path_loss.path_loss(d) - config.day.min_excess();
            debug_assert_eq!(
                d.0 <= radius,
                best_case.0 >= noise_floor.0 - margin.0,
                "keep-radius compare diverged from the exact predicate at {d:?}"
            );
        }
        if d.0 <= radius {
            visit(rx, d.0);
        }
    });
}

/// Station `tx`'s audible slice at `positions`, as `(receiver,
/// distance)` in station order. The single slice routine behind lazy
/// builds, epoch refreshes and the rebuild reference, so a slice built
/// at any point is byte-identical to what any other path would build
/// over the same positions.
fn compute_audible_slice(
    positions: &[Position],
    config: &MediumConfig,
    radius: f64,
    grid: &Grid,
    tx: usize,
) -> Vec<(u32, f64)> {
    let mut slice = Vec::new();
    for_each_audible(positions, config, radius, grid, tx, |rx, d| {
        slice.push((rx, d))
    });
    slice.sort_unstable_by_key(|&(rx, _)| rx);
    slice
}

/// Adds one unordered pair with a moved endpoint to the churn counters.
/// Both directed links share one distance (`distance_to` is symmetric
/// bit for bit), so they enter, leave or stay together and count twice.
fn tally_pair(churn: &mut EpochChurn, was: bool, is: bool) {
    churn.links_dirtied += 2 * was as u32;
    churn.links_recomputed += 2 * is as u32;
    churn.audible_removed += 2 * (was && !is) as u32;
    churn.audible_added += 2 * (is && !was) as u32;
}

impl Medium {
    /// Creates a medium over the given station positions.
    ///
    /// Each transmitter's **audible set** under `config.cull` is the set
    /// of receivers whose best-case received power (TX power bound −
    /// path loss − [`DayProfile::min_excess`]) clears
    /// `noise_floor − margin`. [`Medium::transmit_into`] scatters only
    /// over that set, making per-frame fan-out O(reachable) rather than
    /// O(N).
    ///
    /// Construction is O(N) and computes no audible set: the predicate
    /// depends on a pair only through its distance and path loss is
    /// monotone in distance, so the exact keep horizon is recovered once
    /// by `keep_radius` bisection, and a bucket grid over the positions
    /// lets each slice — built on first use — examine only the
    /// neighbours that could be inside it. The kept set is identical,
    /// station for station, to evaluating the predicate on all
    /// `n·(n−1)` pairs.
    pub fn new(positions: Vec<Position>, shadowing: Shadowing, config: MediumConfig) -> Medium {
        let radius = match config.cull {
            CullPolicy::Full => f64::INFINITY,
            CullPolicy::Audible {
                tx_power,
                noise_floor,
                margin,
            } => {
                let min_excess = config.day.min_excess();
                keep_radius(|d| {
                    let best_case = tx_power - config.path_loss.path_loss(d) - min_excess;
                    best_case.0 >= noise_floor.0 - margin.0
                })
            }
        };
        Medium {
            grid: Grid::new(&positions, radius),
            slices: positions.iter().map(|_| None).collect(),
            positions,
            shadowing,
            config,
            cull_radius: radius,
            next_tx: 0,
        }
    }

    /// (Re)builds station `tx`'s slice at the current positions. A
    /// receiver with a record in `carried` (ascending, every one still
    /// audible) keeps it — cached bits and shadowing state — and every
    /// other link starts fresh: path loss computed now, shadowing state
    /// left for the first sample.
    fn build_slice(&mut self, tx: usize, carried: Vec<LinkRecord>) {
        let mut carried = carried.into_iter().peekable();
        let fresh = compute_audible_slice(
            &self.positions,
            &self.config,
            self.cull_radius,
            &self.grid,
            tx,
        );
        let records = fresh
            .into_iter()
            .map(|(rx, d)| {
                carried
                    .next_if(|r| r.rx.0 == rx)
                    .unwrap_or_else(|| LinkRecord {
                        rx: NodeId(rx),
                        distance: Meters(d),
                        loss: self.config.path_loss.path_loss(Meters(d)),
                        shadow: None,
                    })
            })
            .collect();
        assert!(
            carried.next().is_none(),
            "an unmoved pair's audible membership cannot change"
        );
        self.slices[tx] = Some(records);
    }

    /// Builds station `tx`'s slice unless it is built already.
    fn ensure_slice(&mut self, tx: NodeId) {
        if self.slices[tx.index()].is_none() {
            self.build_slice(tx.index(), Vec::new());
        }
    }

    /// Number of stations on the field.
    pub fn station_count(&self) -> usize {
        self.positions.len()
    }

    /// Position of a station.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Distance between two stations.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Meters {
        self.position(a).distance_to(self.position(b))
    }

    /// The propagation delay between any pair of stations.
    pub fn propagation_delay(&self) -> SimDuration {
        self.config.propagation_delay
    }

    /// Number of receivers in `tx`'s audible set — the receivers
    /// [`Medium::transmit_into`] scatters to. Answers from `tx`'s slice
    /// if it is built and from the grid otherwise; builds nothing.
    pub fn audible_count(&self, tx: NodeId) -> usize {
        if let Some(slice) = &self.slices[tx.index()] {
            return slice.len();
        }
        let mut count = 0;
        for_each_audible(
            &self.positions,
            &self.config,
            self.cull_radius,
            &self.grid,
            tx.index(),
            |_, _| count += 1,
        );
        count
    }

    /// Number of directed links removed by the culling policy, out of
    /// `n·(n−1)` total. Zero under [`CullPolicy::Full`] — and zero on all
    /// paper-scale scenarios even under [`CullPolicy::Audible`], which is
    /// what makes culling physics-invisible there (asserted by the
    /// cull-exactness regression test). Builds nothing.
    pub fn culled_link_count(&self) -> usize {
        let n = self.positions.len();
        let kept: usize = (0..n).map(|t| self.audible_count(NodeId(t as u32))).sum();
        n * n.saturating_sub(1) - kept
    }

    /// Launches a transmission at `now` from `source`, appending the
    /// signal as it will appear at every station in `source`'s audible
    /// set (in station order) to `deliveries`, powers sampled at launch
    /// (block-fading per frame). Builds `source`'s audible slice on its
    /// first transmission.
    ///
    /// `deliveries` must arrive **empty** (debug-asserted): the caller
    /// owns clearing and recycles its buffers, so the steady-state path
    /// neither clears nor allocates here.
    #[allow(clippy::too_many_arguments)] // the per-frame signature is flat on purpose
    pub fn transmit_into(
        &mut self,
        source: NodeId,
        tx_power: Dbm,
        rate: PhyRate,
        mpdu_bytes: u32,
        preamble: Preamble,
        now: SimTime,
        deliveries: &mut Vec<(NodeId, TxSignal)>,
    ) -> (TxId, FrameAirtime) {
        debug_assert!(
            deliveries.is_empty(),
            "transmit_into expects an empty delivery buffer"
        );
        #[cfg(debug_assertions)]
        if let CullPolicy::Audible {
            tx_power: bound, ..
        } = self.config.cull
        {
            debug_assert!(
                tx_power.0 <= bound.0,
                "transmit at {tx_power:?} exceeds the audible-set TX power bound {bound:?}"
            );
        }
        let tx_id = TxId(self.next_tx);
        self.next_tx += 1;
        let airtime = FrameAirtime::new(mpdu_bytes, rate, preamble);
        let starts_at = now + self.config.propagation_delay;
        let ends_at = starts_at + airtime.total();
        self.ensure_slice(source);
        // One pass over the contiguous slice: cached loss, shadowing
        // advance and power subtraction per receiver, no per-receiver
        // search or hashing.
        for r in self.slices[source.index()].as_mut().expect("built above") {
            let excess = self
                .shadowing
                .sample_link(&mut r.shadow, source, r.rx, r.distance, now);
            deliveries.push((
                r.rx,
                TxSignal {
                    tx_id,
                    source,
                    rx_power: tx_power - r.loss - excess,
                    rate,
                    mpdu_bytes,
                    preamble,
                    starts_at,
                    ends_at,
                },
            ));
        }
        (tx_id, airtime)
    }

    /// All station positions, indexed by station id. Movement models
    /// read this to derive the next epoch's displacements.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Applies one mobility epoch: moves the given stations and updates
    /// only the link state their displacement can have touched, leaving
    /// every unmoved pair's cached geometry and shadowing state
    /// byte-for-byte intact (same bits, same RNG substream position). The
    /// result is bitwise-identical to tearing the medium down and
    /// rebuilding it at the new positions ([`Medium::commit_epoch_rebuild`]
    /// is that reference; the epoch-identity tests replay every epoch
    /// both ways).
    ///
    /// Only built slices are touched. A mover's slice is dropped — every
    /// one of its links restarts from fresh state anyway — and rebuilt on
    /// next use. An unmoved station's slice can only change if it lies
    /// within the keep radius of some mover's old or new position; those
    /// that are built are recomputed with the same slice routine as a
    /// first build, carrying their unmoved pairs' records over.
    ///
    /// Duplicate moves of one station keep the last position; moves that
    /// leave a station's position bit-identical are ignored.
    ///
    /// # Panics
    ///
    /// Panics if any moved [`NodeId`] is out of range.
    pub fn commit_epoch(&mut self, moves: &[(NodeId, Position)]) -> EpochChurn {
        let plan = self.apply_moves(moves);
        let mut churn = EpochChurn {
            moved: plan.moved_count,
            ..EpochChurn::default()
        };
        if plan.movers.is_empty() {
            return churn;
        }
        let dirty = self.geometric_churn(&plan, &mut churn);
        for &(id, _) in &plan.movers {
            self.slices[id as usize] = None;
        }
        for tx in dirty {
            if let Some(old) = self.slices[tx as usize].take() {
                let carried = old.into_iter().filter(|r| !plan.moved[r.rx.index()]);
                self.build_slice(tx as usize, carried.collect());
            }
        }
        churn
    }

    /// Counts the epoch's churn geometrically, whether or not any slice
    /// is built, re-binning the movers in the grid on the way, and
    /// returns the unmoved stations within the keep radius of a mover's
    /// old or new position (ascending, deduplicated).
    ///
    /// Every pair with a moved endpoint that is audible before the epoch,
    /// after it, or both is classified exactly once — from its only
    /// mover, or from the lower-numbered of two: first from the grid
    /// still binned at the old positions (audible before), then from the
    /// re-binned grid (audible after only).
    fn geometric_churn(&mut self, plan: &EpochPlan, churn: &mut EpochChurn) -> Vec<u32> {
        let (r, positions) = (self.cull_radius, &self.positions);
        let skip = |m: u32, x: u32| x == m || (plan.moved[x as usize] && x < m);
        let mut dirty = Vec::new();
        for &(m, old_m) in &plan.movers {
            let new_m = positions[m as usize];
            self.grid.for_each_neighbour(&old_m, |x| {
                if skip(m, x) || old_m.distance_to(plan.old_position(x, positions)).0 > r {
                    return;
                }
                tally_pair(churn, true, new_m.distance_to(positions[x as usize]).0 <= r);
                dirty.push(x);
            });
        }
        for &(m, ref old_m) in &plan.movers {
            self.grid.move_id(m, old_m, &positions[m as usize]);
        }
        for &(m, old_m) in &plan.movers {
            let new_m = positions[m as usize];
            self.grid.for_each_neighbour(&new_m, |x| {
                if skip(m, x)
                    || new_m.distance_to(positions[x as usize]).0 > r
                    || old_m.distance_to(plan.old_position(x, positions)).0 <= r
                {
                    return;
                }
                tally_pair(churn, false, true);
                dirty.push(x);
            });
        }
        dirty.retain(|&x| !plan.moved[x as usize]);
        dirty.sort_unstable();
        dirty.dedup();
        // The two degenerate horizons count as `EpochChurn` documents: an
        // infinite one changes no unmoved slice's membership, an empty
        // one leaves every slice empty.
        churn.slices_recomputed = if r == f64::INFINITY {
            plan.moved_count
        } else if r == f64::NEG_INFINITY {
            0
        } else {
            plan.moved_count + dirty.len() as u32
        };
        dirty
    }

    /// The from-scratch reference for [`Medium::commit_epoch`]: applies
    /// the same moves and counts churn by diffing every station's audible
    /// slice at the old positions against its slice at the new ones, over
    /// grids of their own, for every station that moved or has a mover in
    /// either slice (a horizon that keeps every pair takes its closed
    /// form). It then reconstructs the medium with [`Medium::new`] at the
    /// new positions and rebuilds there each unmoved transmitter's slice
    /// that was built, carrying over its unmoved pairs' records — cached
    /// bits and shadowing state (relocation cannot fork a link's
    /// trajectory: the state is the same bits in a different record).
    ///
    /// O(N + kept links) per epoch; exists for the identity proof and as
    /// the baseline of the ≥ 10× floor in `tests/mobility.rs`
    /// (`incremental_epoch_is_ten_times_cheaper_than_rebuild_at_1024`).
    pub fn commit_epoch_rebuild(&mut self, moves: &[(NodeId, Position)]) -> EpochChurn {
        let old_positions = self.positions.clone();
        let plan = self.apply_moves(moves);
        let mut churn = EpochChurn {
            moved: plan.moved_count,
            ..EpochChurn::default()
        };
        if plan.movers.is_empty() {
            return churn;
        }
        let (radius, n) = (self.cull_radius, self.positions.len());
        if radius == f64::INFINITY {
            // Membership never changes; every directed link with a moved
            // endpoint restarts: n − 1 in each mover's slice plus one per
            // mover in every other slice.
            let (m, n) = (plan.moved_count, n as u32);
            churn.slices_recomputed = m;
            churn.links_dirtied = m * (n - 1) + (n - m) * m;
            churn.links_recomputed = churn.links_dirtied;
        } else if radius != f64::NEG_INFINITY {
            let old_grid = Grid::new(&old_positions, radius);
            let new_grid = Grid::new(&self.positions, radius);
            let has_mover = |s: &[(u32, f64)]| s.iter().any(|&(rx, _)| plan.moved[rx as usize]);
            for tx in 0..n {
                let old =
                    compute_audible_slice(&old_positions, &self.config, radius, &old_grid, tx);
                let new =
                    compute_audible_slice(&self.positions, &self.config, radius, &new_grid, tx);
                if plan.moved[tx] || has_mover(&old) || has_mover(&new) {
                    count_slice_churn(&plan.moved, tx, &old, &new, &mut churn);
                }
            }
        }
        // Full rebuild at the new positions, from the same (already
        // salted) master stream, then the surviving state transplanted.
        let mut fresh = Medium::new(
            self.positions.clone(),
            self.shadowing.fresh_like(),
            self.config.clone(),
        );
        fresh.next_tx = self.next_tx;
        for tx in (0..n).filter(|&tx| !plan.moved[tx]) {
            if let Some(old) = self.slices[tx].take() {
                let carried = old.into_iter().filter(|r| !plan.moved[r.rx.index()]);
                fresh.build_slice(tx, carried.collect());
            }
        }
        *self = fresh;
        churn
    }

    /// Validates and applies the raw move list: dedups stations (last
    /// position wins), drops bit-identical no-ops, records each real
    /// mover's pre-epoch position, and updates `positions`.
    fn apply_moves(&mut self, moves: &[(NodeId, Position)]) -> EpochPlan {
        let n = self.positions.len();
        let mut moved = vec![false; n];
        let mut movers: Vec<(u32, Position)> = Vec::new();
        for &(node, to) in moves {
            let i = node.index();
            let old = self.positions[i];
            if old.x.to_bits() == to.x.to_bits() && old.y.to_bits() == to.y.to_bits() {
                continue;
            }
            if !moved[i] {
                moved[i] = true;
                movers.push((i as u32, old));
            }
            self.positions[i] = to;
        }
        movers.sort_unstable_by_key(|&(id, _)| id);
        EpochPlan {
            moved_count: movers.len() as u32,
            moved,
            movers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathloss::LogDistance;
    use desim::SimRng;

    fn medium(positions: Vec<Position>, sigma_zero: bool) -> Medium {
        let day = if sigma_zero {
            DayProfile::still()
        } else {
            DayProfile::clear()
        };
        Medium::new(
            positions,
            Shadowing::new(day.clone(), SimRng::from_seed(5)),
            MediumConfig {
                path_loss: LogDistance::anchored_at_free_space_1m(3.0).into(),
                day,
                propagation_delay: SimDuration::from_micros(1),
                cull: CullPolicy::Full,
            },
        )
    }

    /// `tx`'s audible set as the grid answers it, building nothing.
    fn audible_set(m: &Medium, tx: u32) -> Vec<NodeId> {
        compute_audible_slice(&m.positions, &m.config, m.cull_radius, &m.grid, tx as usize)
            .into_iter()
            .map(|(rx, _)| NodeId(rx))
            .collect()
    }

    /// One frame from `src` at `now` (2 Mb/s, 64 bytes): its deliveries,
    /// in station order.
    fn scatter(
        m: &mut Medium,
        src: NodeId,
        tx_power: Dbm,
        now: SimTime,
    ) -> Vec<(NodeId, TxSignal)> {
        let mut deliveries = Vec::new();
        m.transmit_into(
            src,
            tx_power,
            PhyRate::R2,
            64,
            Preamble::Long,
            now,
            &mut deliveries,
        );
        deliveries
    }

    /// The stations whose audible slice is built.
    fn built(m: &Medium) -> Vec<usize> {
        (0..m.station_count())
            .filter(|&t| m.slices[t].is_some())
            .collect()
    }

    /// A deterministic irregular disk: golden-angle spiral.
    fn spiral(n: usize, radius: f64) -> Vec<Position> {
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

    #[test]
    fn geometry_queries() {
        let m = medium(vec![Position::on_line(0.0), Position::on_line(25.0)], true);
        assert_eq!(m.station_count(), 2);
        assert!((m.distance(NodeId(0), NodeId(1)).0 - 25.0).abs() < 1e-12);
        assert_eq!(m.propagation_delay(), SimDuration::from_micros(1));
    }

    #[test]
    fn received_power_decreases_with_distance() {
        let mut m = medium(
            vec![
                Position::on_line(0.0),
                Position::on_line(10.0),
                Position::on_line(100.0),
            ],
            true,
        );
        let deliveries = scatter(&mut m, NodeId(0), Dbm(15.0), SimTime::ZERO);
        let (near, far) = (deliveries[0].1.rx_power, deliveries[1].1.rx_power);
        assert_eq!((deliveries[0].0, deliveries[1].0), (NodeId(1), NodeId(2)));
        assert!(near.0 > far.0 + 25.0, "near {near} vs far {far}");
    }

    #[test]
    fn transmit_delivers_to_all_but_source() {
        let mut m = medium(
            vec![
                Position::on_line(0.0),
                Position::on_line(10.0),
                Position::on_line(20.0),
            ],
            true,
        );
        let now = SimTime::from_millis(1);
        let mut deliveries = Vec::new();
        let (tx_id, airtime) = m.transmit_into(
            NodeId(1),
            Dbm(15.0),
            PhyRate::R2,
            112 / 8,
            Preamble::Long,
            now,
            &mut deliveries,
        );
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|(rx, _)| *rx != NodeId(1)));
        for (_, sig) in &deliveries {
            assert_eq!(sig.tx_id, tx_id);
            assert_eq!(sig.starts_at, now + SimDuration::from_micros(1));
            assert_eq!(sig.ends_at - sig.starts_at, airtime.total());
        }
        // Consecutive transmissions get distinct ids.
        deliveries.clear();
        let (tx_id2, _) = m.transmit_into(
            NodeId(0),
            Dbm(15.0),
            PhyRate::R1,
            20,
            Preamble::Long,
            now,
            &mut deliveries,
        );
        assert_ne!(tx_id, tx_id2);
    }

    /// The link cache is an optimization, not a behaviour change: the
    /// cached (distance, loss) must be bit-identical to recomputing from
    /// positions.
    #[test]
    fn link_cache_matches_naive_recomputation_bitwise() {
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(25.0),
            Position { x: 40.0, y: 30.0 },
            Position::on_line(200.0),
        ];
        let model = LogDistance::anchored_at_free_space_1m(3.0);
        let mut m = medium(positions.clone(), false);
        for tx in 0..positions.len() {
            m.ensure_slice(NodeId(tx as u32));
            for r in m.slices[tx].as_ref().unwrap() {
                let naive_d = positions[tx].distance_to(positions[r.rx.index()]);
                assert_eq!(
                    r.distance.0.to_bits(),
                    naive_d.0.to_bits(),
                    "{tx}->{:?} d",
                    r.rx
                );
                assert_eq!(
                    r.loss.0.to_bits(),
                    model.path_loss(naive_d).0.to_bits(),
                    "{tx}->{:?} loss",
                    r.rx
                );
            }
        }
    }

    fn audible_medium(positions: Vec<Position>, margin: f64) -> Medium {
        let day = DayProfile::clear();
        Medium::new(
            positions,
            Shadowing::new(day.clone(), SimRng::from_seed(5)),
            MediumConfig {
                path_loss: LogDistance::anchored_at_free_space_1m(3.0).into(),
                day,
                propagation_delay: SimDuration::from_micros(1),
                cull: CullPolicy::Audible {
                    tx_power: Dbm(15.0),
                    noise_floor: Dbm(-96.6),
                    margin: Db(margin),
                },
            },
        )
    }

    #[test]
    fn audible_sets_cull_unreachable_receivers_only() {
        // With exponent 3.0 the cull horizon at margin 25 dB sits where
        // path loss exceeds 15 + 96.6 + 25 + 16 ≈ 152.6 dB → ~5.6 km.
        // One station far beyond that, three well inside.
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(50.0),
            Position::on_line(100.0),
            Position::on_line(50_000.0),
        ];
        let mut m = audible_medium(positions.clone(), CULL_MARGIN_DB);
        // Near stations hear each other but not the far one.
        assert_eq!(
            audible_set(&m, 0),
            [NodeId(1), NodeId(2)],
            "far station should be culled from 0's set"
        );
        assert_eq!(audible_set(&m, 3), []);
        assert_eq!(m.audible_count(NodeId(1)), 2);
        assert_eq!(m.audible_count(NodeId(3)), 0);
        // 12 directed links total; 6 involve the far station.
        assert_eq!(m.culled_link_count(), 6);
        // A built slice holds exactly that set, and the counts agree.
        m.ensure_slice(NodeId(0));
        let rx: Vec<NodeId> = m.slices[0].as_ref().unwrap().iter().map(|r| r.rx).collect();
        assert_eq!(rx, audible_set(&m, 0));
        assert_eq!(m.audible_count(NodeId(0)), 2);
        assert_eq!(m.culled_link_count(), 6);

        // The full policy keeps everything.
        let full = medium(positions, false);
        assert_eq!(full.culled_link_count(), 0);
        assert!((0..4).all(|t| full.audible_count(NodeId(t)) == 3));
        assert_eq!(audible_set(&full, 0), [NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn transmit_scatters_over_audible_set_only() {
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(50.0),
            Position::on_line(50_000.0),
        ];
        let mut m = audible_medium(positions, CULL_MARGIN_DB);
        let now = SimTime::from_millis(1);
        let deliveries = scatter(&mut m, NodeId(0), Dbm(15.0), now);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, NodeId(1));
        // An isolated transmitter delivers to nobody.
        assert!(scatter(&mut m, NodeId(2), Dbm(15.0), now).is_empty());
    }

    /// Culling must never perturb the powers of the links it keeps: the
    /// kept deliveries of a culled medium are bit-identical to the same
    /// links in a full-fanout medium with the same seed, because per-link
    /// shadowing substreams are call-order independent.
    #[test]
    fn kept_links_are_bitwise_unaffected_by_culling() {
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(60.0),
            Position { x: 30.0, y: 40.0 },
            Position::on_line(40_000.0),
        ];
        let day = DayProfile::clear();
        let mk = |cull: CullPolicy| {
            Medium::new(
                positions.clone(),
                Shadowing::new(day.clone(), SimRng::from_seed(11)),
                MediumConfig {
                    path_loss: LogDistance::anchored_at_free_space_1m(3.0).into(),
                    day: day.clone(),
                    propagation_delay: SimDuration::from_micros(1),
                    cull,
                },
            )
        };
        let mut full = mk(CullPolicy::Full);
        let mut culled = mk(CullPolicy::Audible {
            tx_power: Dbm(15.0),
            noise_floor: Dbm(-96.6),
            margin: Db(CULL_MARGIN_DB),
        });
        assert!(culled.culled_link_count() > 0);
        for frame in 0..6u64 {
            let now = SimTime::from_micros(frame * 500);
            let src = NodeId((frame % 3) as u32);
            let dels_full = scatter(&mut full, src, Dbm(15.0), now);
            let dels_culled = scatter(&mut culled, src, Dbm(15.0), now);
            for (rx, sig) in &dels_culled {
                let (_, sig_full) = dels_full
                    .iter()
                    .find(|(r, _)| r == rx)
                    .expect("kept link present in full fan-out");
                assert_eq!(
                    sig.rx_power.0.to_bits(),
                    sig_full.rx_power.0.to_bits(),
                    "kept link {src:?}->{rx:?} perturbed by culling"
                );
            }
        }
    }

    /// The grid and the lazy slices are an optimization, not a policy
    /// change: for any topology the medium must keep exactly the pairs the
    /// exhaustive n·(n−1) predicate scan keeps. Read-only queries
    /// (`audible_count`, `culled_link_count`) must match it before any
    /// slice is built — and build none — and built slices must hold the
    /// same sets in the same order with bit-identical (distance, loss)
    /// per link, on the construction-time positions and after epochs.
    #[test]
    fn grid_cull_matches_exhaustive_scan_bitwise() {
        use crate::pathloss::DualSlope;

        /// Exhaustive reference: every tx's kept `(rx, (distance, loss)
        /// bits)`, by the per-pair predicate.
        fn exhaustive(
            positions: &[Position],
            config: &MediumConfig,
        ) -> Vec<Vec<(NodeId, (u64, u64))>> {
            let min_excess = config.day.min_excess();
            (0..positions.len())
                .map(|tx| {
                    let mut set = Vec::new();
                    for rx in (0..positions.len()).filter(|&rx| rx != tx) {
                        let d = positions[tx].distance_to(positions[rx]);
                        let pl = config.path_loss.path_loss(d);
                        let keep = match config.cull {
                            CullPolicy::Full => true,
                            CullPolicy::Audible {
                                tx_power,
                                noise_floor,
                                margin,
                            } => (tx_power - pl - min_excess).0 >= noise_floor.0 - margin.0,
                        };
                        if keep {
                            set.push((NodeId(rx as u32), (d.0.to_bits(), pl.0.to_bits())));
                        }
                    }
                    set
                })
                .collect()
        }

        // Checks one medium against the exhaustive reference at its
        // *current* positions: counts, culled total, built slices.
        fn assert_matches_exhaustive(m: &Medium, config: &MediumConfig, tag: &str) {
            let n = m.station_count();
            let sets = exhaustive(m.positions(), config);
            for (tx, set) in sets.iter().enumerate() {
                assert_eq!(
                    m.audible_count(NodeId(tx as u32)),
                    set.len(),
                    "{tag} count of {tx}"
                );
                if let Some(slice) = &m.slices[tx] {
                    let got: Vec<_> = slice
                        .iter()
                        .map(|r| (r.rx, (r.distance.0.to_bits(), r.loss.0.to_bits())))
                        .collect();
                    assert_eq!(&got, set, "{tag} slice of {tx}");
                }
            }
            let kept: usize = sets.iter().map(Vec::len).sum();
            assert_eq!(
                m.culled_link_count(),
                n * (n - 1) - kept,
                "{tag} culled count"
            );
        }

        let far_model: PathLossModel = DualSlope {
            near: LogDistance::anchored_at_free_space_1m(2.42),
            breakpoint: Meters(500.0),
            far_exponent: 4.0,
        }
        .into();
        let topologies: Vec<Vec<Position>> = vec![
            // A long chain with a finite horizon partway down it.
            (0..120)
                .map(|i| Position::on_line(i as f64 * 140.0))
                .collect(),
            // An irregular disk wider than the horizon.
            spiral(150, 9_000.0),
            // Hotspots: four dense 12-station clusters, 6 km apart.
            (0..48)
                .map(|i| Position {
                    x: (i / 12 % 2) as f64 * 6_000.0 + (i % 4) as f64 * 20.0,
                    y: (i / 24) as f64 * 6_000.0 + (i % 12 / 4) as f64 * 20.0,
                })
                .collect(),
            // Two clusters with a gulf between them.
            (0..30)
                .map(|i| Position {
                    x: (i % 6) as f64 * 55.0 + if i >= 15 { 30_000.0 } else { 0.0 },
                    y: (i / 6 % 3) as f64 * 70.0,
                })
                .collect(),
            // Degenerate: everyone in (nearly) one spot.
            (0..8).map(|i| Position::on_line(i as f64 * 0.25)).collect(),
        ];
        let culls = [
            CullPolicy::Audible {
                tx_power: Dbm(15.0),
                noise_floor: Dbm(-96.6),
                margin: Db(CULL_MARGIN_DB),
            },
            // A margin so hostile nothing survives even at 0 m.
            CullPolicy::Audible {
                tx_power: Dbm(-400.0),
                noise_floor: Dbm(-96.6),
                margin: Db(0.0),
            },
            CullPolicy::Full,
        ];
        for positions in &topologies {
            for cull in culls {
                let day = DayProfile::clear();
                let config = MediumConfig {
                    path_loss: far_model,
                    day: day.clone(),
                    propagation_delay: SimDuration::from_micros(1),
                    cull,
                };
                let mut m = Medium::new(
                    positions.clone(),
                    Shadowing::new(day, SimRng::from_seed(9)),
                    config.clone(),
                );
                assert_matches_exhaustive(&m, &config, &format!("{cull:?} fresh"));
                assert!(built(&m).is_empty(), "read-only queries built a slice");
                let n = positions.len();
                for tx in (0..n).step_by(2) {
                    m.ensure_slice(NodeId(tx as u32));
                }
                assert_matches_exhaustive(&m, &config, &format!("{cull:?} built"));
                // Arbitrary displacement sequences (large jumps, sign
                // flips, diagonal drift) must leave every count and every
                // built slice exactly what a full per-pair scan over the
                // new positions gives — proving the grid candidate
                // superset stays correct as stations leave their
                // construction-time cells (and the original bounding box).
                for epoch in 0..3usize {
                    let mut moves = Vec::new();
                    for i in (epoch % 3..n).step_by(3) {
                        let p = m.positions()[i];
                        let sign = if (i + epoch) % 2 == 0 { 1.0 } else { -1.0 };
                        let dx = sign * (((i * 37 + epoch * 101) % 40) as f64) * 60.0;
                        let dy = -sign * (((i * 13 + epoch * 59) % 30) as f64) * 45.0;
                        moves.push((
                            NodeId(i as u32),
                            Position {
                                x: p.x + dx,
                                y: p.y + dy,
                            },
                        ));
                    }
                    m.commit_epoch(&moves);
                    assert_matches_exhaustive(&m, &config, &format!("{cull:?} epoch {epoch}"));
                }
            }
        }
    }

    /// Slices are built on first use only, and an epoch touches only the
    /// built slices its movers can have changed.
    #[test]
    fn slices_build_on_first_use_and_epochs_refresh_only_built_ones() {
        // 1 km spacing under a ~5.6 km horizon: each station hears about
        // five neighbours either side.
        let positions: Vec<Position> = (0..40)
            .map(|i| Position::on_line(i as f64 * 1_000.0))
            .collect();
        let mut m = audible_medium(positions.clone(), CULL_MARGIN_DB);
        assert!(built(&m).is_empty());
        let now = SimTime::from_millis(1);
        for src in [3, 10, 12, 20, 3, 30, 10] {
            scatter(&mut m, NodeId(src), Dbm(15.0), now);
        }
        assert_eq!(
            built(&m),
            [3, 10, 12, 20, 30],
            "one slice per distinct source"
        );
        // A repeat transmission builds nothing new; a first one from an
        // unbuilt transmitter builds its slice.
        scatter(&mut m, NodeId(3), Dbm(15.0), now);
        assert_eq!(built(&m).len(), 5);
        scatter(&mut m, NodeId(25), Dbm(15.0), now);
        assert_eq!(built(&m), [3, 10, 12, 20, 25, 30]);

        let blocks = |m: &Medium| -> Vec<Option<*const LinkRecord>> {
            m.slices
                .iter()
                .map(|s| s.as_ref().map(|s| s.as_ptr()))
                .collect()
        };
        let before = blocks(&m);
        // Station 10 steps 500 m down the chain.
        let churn = m.commit_epoch(&[(NodeId(10), Position::on_line(10_500.0))]);
        let near: Vec<usize> = (0..40)
            .filter(|&t| t != 10)
            .filter(|&t| {
                let p = positions[t];
                p.distance_to(positions[10]).0 <= m.cull_radius
                    || p.distance_to(m.positions()[10]).0 <= m.cull_radius
            })
            .collect();
        assert!(near.contains(&12) && near.contains(&11) && !near.contains(&3));
        // The counters describe every slice the epoch can have changed,
        // built or not.
        assert_eq!(churn.slices_recomputed as usize, 1 + near.len());
        // The mover's slice is dropped, the one built slice near it is
        // recomputed, unbuilt neighbours stay unbuilt, and slices far
        // from it are not touched at all.
        assert_eq!(built(&m), [3, 12, 20, 25, 30]);
        let after = blocks(&m);
        assert_ne!(
            after[12], before[12],
            "built slice near the mover is recomputed"
        );
        for t in [3, 20, 25, 30] {
            assert_eq!(
                after[t], before[t],
                "slice {t} far from the mover was touched"
            );
        }
        let rx: Vec<u32> = m.slices[12]
            .as_ref()
            .unwrap()
            .iter()
            .map(|r| r.rx.0)
            .collect();
        assert_eq!(
            rx,
            audible_set(&m, 12).iter().map(|r| r.0).collect::<Vec<_>>()
        );
    }

    /// The incremental epoch commit must be indistinguishable — bit for
    /// bit — from tearing the medium down and rebuilding it at the new
    /// positions: same audible sets and built slices, same cached link
    /// cells, same shadowing state (probed by interleaved transmissions
    /// that consume RNG state between epochs), same churn counters.
    /// Covers a drifting disk, a chain with a moved block that densifies,
    /// and the degenerate full-fanout / nothing-kept culls.
    #[test]
    fn incremental_epochs_match_rebuild_bitwise() {
        /// Observable per-link state, slice by slice: membership,
        /// (distance, loss) bits and shadowing state — equal state means
        /// every future shadowing sample is equal too.
        fn assert_same_state(inc: &Medium, reb: &Medium, tag: &str) {
            assert_eq!(inc.station_count(), reb.station_count());
            assert_eq!(inc.culled_link_count(), reb.culled_link_count(), "{tag}");
            assert_eq!(inc.next_tx, reb.next_tx, "{tag}");
            let view = |m: &Medium, t: usize| {
                m.slices[t].as_ref().map(|s| {
                    s.iter()
                        .map(|r| {
                            let bits = (r.distance.0.to_bits(), r.loss.0.to_bits());
                            (r.rx, bits, format!("{:?}", r.shadow))
                        })
                        .collect::<Vec<_>>()
                })
            };
            for t in 0..inc.station_count() {
                let tx = NodeId(t as u32);
                assert_eq!(inc.audible_count(tx), reb.audible_count(tx), "{tag} {tx:?}");
                assert_eq!(view(inc, t), view(reb, t), "{tag} slice {tx:?}");
            }
        }

        let culls = [
            CullPolicy::Audible {
                tx_power: Dbm(15.0),
                noise_floor: Dbm(-96.6),
                margin: Db(CULL_MARGIN_DB),
            },
            CullPolicy::Full,
            CullPolicy::Audible {
                tx_power: Dbm(-400.0),
                noise_floor: Dbm(-96.6),
                margin: Db(0.0),
            },
        ];
        let topologies: Vec<Vec<Position>> = vec![
            spiral(60, 9_000.0),
            (0..48)
                .map(|i| Position::on_line(i as f64 * 2_500.0))
                .collect(),
        ];
        for positions in &topologies {
            for cull in culls {
                let day = DayProfile::clear();
                let mk = || {
                    Medium::new(
                        positions.clone(),
                        Shadowing::new(day.clone(), SimRng::from_seed(33)),
                        MediumConfig {
                            path_loss: LogDistance::anchored_at_free_space_1m(3.0).into(),
                            day: day.clone(),
                            propagation_delay: SimDuration::from_micros(1),
                            cull,
                        },
                    )
                };
                let mut inc = mk();
                let mut reb = mk();
                let n = positions.len();
                for epoch in 0..6usize {
                    // ~10% of stations drift toward the field's center,
                    // plus one no-op move and one duplicate to exercise
                    // the move-plan validation.
                    let mut moves = Vec::new();
                    for i in (epoch % 10..n).step_by(10) {
                        let p = inc.positions()[i];
                        moves.push((
                            NodeId(i as u32),
                            Position {
                                x: p.x * 0.45,
                                y: p.y * 0.45 + 80.0,
                            },
                        ));
                    }
                    let anchor = inc.positions()[(epoch + 1) % n];
                    moves.push((NodeId(((epoch + 1) % n) as u32), anchor));
                    if let Some(&first) = moves.first() {
                        moves.push(first);
                    }
                    let ci = inc.commit_epoch(&moves);
                    let cr = reb.commit_epoch_rebuild(&moves);
                    assert_eq!(ci, cr, "churn diverged ({cull:?} epoch {epoch})");
                    assert_same_state(&inc, &reb, &format!("{cull:?} epoch {epoch}"));
                    // Consume shadowing state on both sides between
                    // epochs so survivors' RNG positions are live state,
                    // not fresh draws — the deliveries must stay
                    // bitwise equal.
                    let tx_power = if matches!(cull, CullPolicy::Audible { tx_power, .. } if tx_power.0 < 0.0)
                    {
                        Dbm(-400.0)
                    } else {
                        Dbm(15.0)
                    };
                    for f in 0..4u64 {
                        let now = SimTime::from_micros((epoch as u64 * 4 + f) * 700 + 1);
                        let src = NodeId(((epoch as u64 * 7 + f * 13) % n as u64) as u32);
                        let da = scatter(&mut inc, src, tx_power, now);
                        let db = scatter(&mut reb, src, tx_power, now);
                        assert_eq!(inc.next_tx, reb.next_tx);
                        assert_eq!(da.len(), db.len(), "{cull:?} epoch {epoch} frame {f}");
                        for ((rxa, sa), (rxb, sb)) in da.iter().zip(&db) {
                            assert_eq!(rxa, rxb);
                            assert_eq!(
                                sa.rx_power.0.to_bits(),
                                sb.rx_power.0.to_bits(),
                                "{cull:?} epoch {epoch} frame {f} {rxa:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Move-plan validation: empty commits, bit-identical no-ops and
    /// duplicate entries (last position wins).
    #[test]
    fn epoch_move_plan_validates_inputs() {
        let positions = vec![
            Position::on_line(0.0),
            Position::on_line(50.0),
            Position::on_line(100.0),
        ];
        let mut m = medium(positions.clone(), false);
        assert_eq!(m.commit_epoch(&[]), EpochChurn::default());
        // A bit-identical "move" is a no-op commit.
        let noop = m.commit_epoch(&[(NodeId(1), positions[1])]);
        assert_eq!(noop, EpochChurn::default());
        // Duplicates: the last position wins, and the station counts once.
        let churn = m.commit_epoch(&[
            (NodeId(1), Position::on_line(999.0)),
            (NodeId(1), Position::on_line(60.0)),
        ]);
        assert_eq!(churn.moved, 1);
        assert_eq!(m.position(NodeId(1)).x, 60.0);
        // Full fan-out: membership never changes, only moved-pair state
        // resets (2 slice entries + 2 reverse entries here).
        assert_eq!(churn.audible_added, 0);
        assert_eq!(churn.audible_removed, 0);
        assert_eq!(churn.links_dirtied, 4);
        assert_eq!(churn.links_recomputed, 4);
    }

    #[test]
    fn shadowed_link_varies_but_still_link_does_not() {
        let power_at = |m: &mut Medium, secs: u64| {
            scatter(m, NodeId(0), Dbm(15.0), SimTime::from_secs(secs))[0]
                .1
                .rx_power
        };
        let mut still = medium(vec![Position::on_line(0.0), Position::on_line(50.0)], true);
        let (a, b) = (power_at(&mut still, 1), power_at(&mut still, 30));
        assert_eq!(a.0, b.0);

        let mut varying = medium(vec![Position::on_line(0.0), Position::on_line(50.0)], false);
        let (a, b) = (power_at(&mut varying, 1), power_at(&mut varying, 30));
        assert_ne!(a.0, b.0, "time-varying channel should move over 29 s");
    }
}
