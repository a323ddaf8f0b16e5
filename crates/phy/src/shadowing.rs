//! Time-correlated log-normal shadowing with per-day weather profiles.
//!
//! The paper stresses that the channel is **time-varying and asymmetric**:
//! the same link measured on different days (and within one session) shows
//! different loss (their Figure 4, footnote 4, and the non-monotonic
//! points of Figure 3). We model the deviation from deterministic path
//! loss as two per-directed-link components in dB:
//!
//! * a **slow** (session-scale) log-normal term, drawn once per link per
//!   run — antennas, ground moisture, people walking by: this is what
//!   makes two sessions at the same distance measure different loss;
//! * a **fast** Gauss–Markov (AR(1)) term with coherence time `τ`:
//!
//! ```text
//! X(t+Δ) = ρ X(t) + σ_f √(1-ρ²) N(0,1),   ρ = exp(-Δ/τ)
//! ```
//!
//! A [`DayProfile`] adds a constant weather offset and selects the random
//! stream, so "2002-12-06" and "2002-12-09" are reproducible distinct
//! days. Keying the state on the *directed* pair (a→b) yields the
//! asymmetric channels the paper observed.

use desim::{SimDuration, SimRng, SimTime};

use crate::units::{Db, Meters, NodeId};

/// Hard bound on the total random deviation (slow + fast, dB) a single
/// shadowing sample may return around the profile's `extra_loss`.
///
/// The deviation is clamped at *read time*; the underlying AR(1)/slow
/// state evolves unclamped, so trajectories are unchanged and only the
/// astronomically rare excursion is truncated. For every shipped profile
/// the combined σ is at most ≈2.9 dB, putting the bound past 5.5σ —
/// P(hit) < 2·10⁻⁸ per sample, far below one expected hit across all
/// golden runs. What the clamp buys is a *strict* link-budget bound: the
/// received power on a link can never exceed
/// `tx_power − path_loss − extra_loss + DEVIATION_BOUND_DB`, which is
/// what makes the audible-set culling in [`crate::Medium`] sound rather
/// than merely probabilistic (see `ARCHITECTURE.md`, "Audible sets").
pub const DEVIATION_BOUND_DB: f64 = 16.0;

/// Weather/epoch profile for a measurement day.
///
/// # Example
///
/// ```
/// use dot11_phy::DayProfile;
/// let clear = DayProfile::clear();
/// let rainy = DayProfile::rainy();
/// assert!(rainy.extra_loss.0 > clear.extra_loss.0);
/// ```
#[derive(Debug, Clone)]
pub struct DayProfile {
    /// Human-readable label, e.g. `"2002-12-06"`.
    pub name: String,
    /// Constant extra attenuation on every link (weather, humidity).
    pub extra_loss: Db,
    /// Standard deviation of the slow (per-session, per-link) component.
    pub sigma_slow: Db,
    /// Standard deviation of the fast AR(1) component.
    pub sigma_fast: Db,
    /// Coherence time of the fast component.
    pub coherence: SimDuration,
    /// Distance at which the sigmas reach full strength. Short links are
    /// line-of-sight on the open field and shadow little; the variance
    /// ramps linearly up to this distance (σ_eff = σ · min(1, d/d_full)).
    pub sigma_full_distance: Meters,
    /// Salt mixed into the random stream so different days decorrelate.
    pub seed_salt: u64,
}

impl DayProfile {
    /// A clear, dry day — the paper's 2002-12-06 session (longer ranges).
    pub fn clear() -> DayProfile {
        DayProfile {
            name: "2002-12-06 (clear)".to_owned(),
            extra_loss: Db(0.0),
            sigma_slow: Db(2.0),
            sigma_fast: Db(1.0),
            coherence: SimDuration::from_millis(300),
            sigma_full_distance: Meters(75.0),
            seed_salt: 0x2002_1206,
        }
    }

    /// A damp day — the paper's 2002-12-09 session, with visibly shorter
    /// ranges (their Figure 4).
    pub fn rainy() -> DayProfile {
        DayProfile {
            name: "2002-12-09 (damp)".to_owned(),
            extra_loss: Db(4.0),
            sigma_slow: Db(2.6),
            sigma_fast: Db(1.2),
            coherence: SimDuration::from_millis(300),
            sigma_full_distance: Meters(75.0),
            seed_salt: 0x2002_1209,
        }
    }

    /// A hypothetical still channel (no shadowing) — ablation D4: with
    /// σ = 0 the loss-vs-distance curves become knife edges, unlike the
    /// paper's gradual Figure 3 transitions.
    pub fn still() -> DayProfile {
        DayProfile {
            name: "still channel (ablation)".to_owned(),
            extra_loss: Db(0.0),
            sigma_slow: Db(0.0),
            sigma_fast: Db(0.0),
            coherence: SimDuration::from_millis(300),
            sigma_full_distance: Meters(75.0),
            seed_salt: 0,
        }
    }

    /// Lower bound (dB) on the excess loss any shadowing sample under
    /// this profile can ever return, i.e. the *best case* for a
    /// receiver. With both sigmas zero the sample short-circuits to
    /// exactly `extra_loss`; otherwise the read-time clamp guarantees the
    /// random deviation never exceeds [`DEVIATION_BOUND_DB`] in the
    /// receiver's favour. [`crate::Medium`] uses this to build sound
    /// audible sets.
    pub fn min_excess(&self) -> Db {
        if self.sigma_slow.0 == 0.0 && self.sigma_fast.0 == 0.0 {
            self.extra_loss
        } else {
            Db(self.extra_loss.0 - DEVIATION_BOUND_DB)
        }
    }
}

impl Default for DayProfile {
    fn default() -> Self {
        DayProfile::clear()
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkState {
    at: SimTime,
    slow_db: f64,
    fast_db: f64,
}

/// A directed link's shadowing state: its AR(1)/slow state plus its
/// private substream, or `None` before first sample. It lives in the
/// link's [`crate::Medium`] slice record.
pub(crate) type LinkShadow = Option<(LinkState, SimRng)>;

/// Initializes the state for the directed link `tx → rx`: derive the
/// link's substream from the 15-byte `"shadow/" + tx + rx` label and draw
/// the slow then fast components, exactly as every prior revision did —
/// the label bytes and draw order are load-bearing for byte-identity.
fn init_link_state(
    master: &SimRng,
    tx: NodeId,
    rx: NodeId,
    slow: f64,
    fast: f64,
    now: SimTime,
) -> (LinkState, SimRng) {
    let mut label = [0u8; 15];
    label[..7].copy_from_slice(b"shadow/");
    label[7..11].copy_from_slice(&tx.0.to_le_bytes());
    label[11..15].copy_from_slice(&rx.0.to_le_bytes());
    let mut rng = master.substream(&label);
    let slow_db = rng.gen_normal(0.0, slow);
    let fast_db = rng.gen_normal(0.0, fast);
    (
        LinkState {
            at: now,
            slow_db,
            fast_db,
        },
        rng,
    )
}

/// Advances the AR(1) fast component to `now` and returns the clamped
/// total excess loss. `memo` caches `(ρ, √(1-ρ²))` keyed on the raw bits
/// of `dt`: every audible link of one transmitter advances with the same
/// `dt` (links are only sampled when that station transmits), so one
/// `exp`+`sqrt` pair serves the whole scatter slice. The innovation is
/// still drawn per link, keeping the sample stream byte-identical.
fn advance_and_read(
    state: &mut LinkState,
    rng: &mut SimRng,
    extra_loss: f64,
    fast: f64,
    tau: f64,
    now: SimTime,
    memo: &mut Option<(u64, f64, f64)>,
) -> Db {
    let dt = now.saturating_duration_since(state.at).as_secs_f64();
    if dt > 0.0 && fast > 0.0 {
        let (rho, root) = match *memo {
            Some((bits, rho, root)) if bits == dt.to_bits() => (rho, root),
            _ => {
                let rho = (-dt / tau).exp();
                let root = (1.0 - rho * rho).sqrt();
                *memo = Some((dt.to_bits(), rho, root));
                (rho, root)
            }
        };
        let innov = fast * root;
        state.fast_db = rho * state.fast_db + rng.gen_normal(0.0, innov.max(0.0));
        state.at = now;
    }
    let deviation = (state.slow_db + state.fast_db).clamp(-DEVIATION_BOUND_DB, DEVIATION_BOUND_DB);
    Db(extra_loss + deviation)
}

/// The per-link shadowing process for one simulation run.
///
/// The process holds the profile and the salted master stream; each
/// directed link's state lives in the owning [`crate::Medium`]'s slice
/// record, the hot scatter path, with no hashing. `init_link_state` is a
/// pure function of `(master, tx, rx)`, so which record holds a link's
/// state, and when it was started, cannot show in the draws.
#[derive(Debug)]
pub struct Shadowing {
    profile: DayProfile,
    master: SimRng,
    /// AR(1) coefficient memo `(dt_bits, ρ, √(1-ρ²))` shared by every
    /// sample (see `advance_and_read`).
    ar1_memo: Option<(u64, f64, f64)>,
}

impl Shadowing {
    /// Creates the process for `profile`, deriving all link streams from
    /// `master` (pass a substream of the run's master seed).
    pub fn new(profile: DayProfile, master: SimRng) -> Shadowing {
        let master = master.substream(&profile.seed_salt.to_le_bytes());
        Shadowing {
            profile,
            master,
            ar1_memo: None,
        }
    }

    /// The active day profile.
    pub fn profile(&self) -> &DayProfile {
        &self.profile
    }

    /// Samples the total excess loss (weather offset + shadowing) on the
    /// directed link `tx → rx` of length `distance` at time `now`,
    /// advancing the caller-held state `link` and starting it on first
    /// sample.
    ///
    /// Consecutive samples on the same link are correlated with
    /// coherence time `τ`; samples on different links (including the
    /// reverse direction) are independent. Variance ramps with distance
    /// (see [`DayProfile::sigma_full_distance`]). The AR(1) memo persists
    /// across calls on the owned process (one `exp`+`sqrt` serves a whole
    /// scatter slice).
    pub(crate) fn sample_link(
        &mut self,
        link: &mut LinkShadow,
        tx: NodeId,
        rx: NodeId,
        distance: Meters,
        now: SimTime,
    ) -> Db {
        let scale = (distance.0 / self.profile.sigma_full_distance.0.max(1e-9)).clamp(0.0, 1.0);
        let slow = self.profile.sigma_slow.0 * scale;
        let fast = self.profile.sigma_fast.0 * scale;
        if slow == 0.0 && fast == 0.0 {
            return self.profile.extra_loss;
        }
        let tau = self.profile.coherence.as_secs_f64().max(1e-9);
        let (state, rng) =
            link.get_or_insert_with(|| init_link_state(&self.master, tx, rx, slow, fast, now));
        advance_and_read(
            state,
            rng,
            self.profile.extra_loss.0,
            fast,
            tau,
            now,
            &mut self.ar1_memo,
        )
    }

    /// A fresh process with the same profile and (already-salted) master
    /// stream — what a from-scratch reconstruction of the owning `Medium`
    /// starts from. Cloning the master directly is
    /// deliberate: `Shadowing::new` already applied the profile salt, so
    /// re-deriving through it would double-salt the stream.
    pub(crate) fn fresh_like(&self) -> Shadowing {
        Shadowing {
            profile: self.profile.clone(),
            master: self.master.clone(),
            ar1_memo: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(profile: DayProfile, seed: u64) -> Shadowing {
        Shadowing::new(profile, SimRng::from_seed(seed))
    }

    /// One sample of a link started fresh for it: the first draw of the
    /// directed link `tx → rx`.
    fn first(s: &mut Shadowing, tx: u32, rx: u32, distance: f64, now: SimTime) -> f64 {
        s.sample_link(&mut None, NodeId(tx), NodeId(rx), Meters(distance), now)
            .0
    }

    #[test]
    fn still_profile_is_deterministic_offset() {
        let mut s = process(DayProfile::still(), 1);
        let mut link = None;
        for k in 0..10 {
            let v = s.sample_link(
                &mut link,
                NodeId(0),
                NodeId(1),
                Meters(100.0),
                SimTime::from_millis(k * 10),
            );
            assert_eq!(v.0, 0.0);
        }
    }

    #[test]
    fn same_seed_reproduces_samples() {
        let mut a = process(DayProfile::clear(), 42);
        let mut b = process(DayProfile::clear(), 42);
        let (mut la, mut lb) = (None, None);
        for k in 0..50 {
            let t = SimTime::from_millis(k * 7);
            assert_eq!(
                a.sample_link(&mut la, NodeId(0), NodeId(1), Meters(100.0), t)
                    .0
                    .to_bits(),
                b.sample_link(&mut lb, NodeId(0), NodeId(1), Meters(100.0), t)
                    .0
                    .to_bits()
            );
        }
    }

    #[test]
    fn shared_process_matches_one_process_per_link_bitwise() {
        // A link's draws depend only on its own state and substream: two
        // links interleaved on one process, sharing its dt-keyed AR(1)
        // memo, must realize exactly the streams each link gets from a
        // process of its own. Irregular lags make consecutive samples
        // alternate between memo hits and misses across the links.
        let mut shared = process(DayProfile::clear(), 42);
        let mut own_fwd = process(DayProfile::clear(), 42);
        let mut own_rev = process(DayProfile::clear(), 42);
        let (mut fwd, mut rev): (LinkShadow, LinkShadow) = (None, None);
        let (mut fwd_alone, mut rev_alone): (LinkShadow, LinkShadow) = (None, None);
        for k in 0..50u64 {
            let t = SimTime::from_millis(k * k % 97 + k * 7);
            assert_eq!(
                shared
                    .sample_link(&mut fwd, NodeId(3), NodeId(9), Meters(100.0), t)
                    .0
                    .to_bits(),
                own_fwd
                    .sample_link(&mut fwd_alone, NodeId(3), NodeId(9), Meters(100.0), t)
                    .0
                    .to_bits()
            );
            let t2 = SimTime::from_millis(k * 13 + 5);
            assert_eq!(
                shared
                    .sample_link(&mut rev, NodeId(9), NodeId(3), Meters(60.0), t2)
                    .0
                    .to_bits(),
                own_rev
                    .sample_link(&mut rev_alone, NodeId(9), NodeId(3), Meters(60.0), t2)
                    .0
                    .to_bits()
            );
        }
    }

    #[test]
    fn directions_are_independent() {
        let mut s = process(DayProfile::clear(), 42);
        let t = SimTime::from_secs(1);
        let fwd = first(&mut s, 0, 1, 100.0, t);
        let rev = first(&mut s, 1, 0, 100.0, t);
        assert_ne!(fwd, rev, "directed links should decorrelate");
    }

    #[test]
    fn short_lags_are_highly_correlated_long_lags_are_not() {
        // Correlation over many links: sample each link at t, t+1ms (short
        // lag) and t+10s (≫ coherence time).
        let mut s = process(DayProfile::clear(), 7);
        let mut short_pairs = Vec::new();
        let mut long_pairs = Vec::new();
        for i in 0..300u32 {
            let (a, b) = (NodeId(i), NodeId(i + 1000));
            let mut link = None;
            let mut at = |t: SimTime| s.sample_link(&mut link, a, b, Meters(100.0), t).0;
            let x0 = at(SimTime::from_secs(1));
            let x1 = at(SimTime::from_secs(1) + SimDuration::from_millis(1));
            let x2 = at(SimTime::from_secs(20));
            short_pairs.push((x0, x1));
            long_pairs.push((x0, x2));
        }
        let corr = |pairs: &[(f64, f64)]| {
            let n = pairs.len() as f64;
            let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
            let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
            let cov = pairs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / n;
            let sx = (pairs.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>() / n).sqrt();
            let sy = (pairs.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>() / n).sqrt();
            cov / (sx * sy)
        };
        let short = corr(&short_pairs);
        let long = corr(&long_pairs);
        assert!(
            short > 0.95,
            "1 ms lag should be near-perfectly correlated, got {short}"
        );
        // The fast component decorrelates over 10 s; the slow per-session
        // component persists, so the long-lag correlation settles near
        // slow² / (slow² + fast²) ≈ 0.81 for the clear profile.
        assert!(
            long < short - 0.02,
            "fast component should decay: {long} vs {short}"
        );
        assert!(
            (0.55..0.95).contains(&long),
            "slow component should persist, got {long}"
        );
    }

    #[test]
    fn marginal_std_matches_combined_sigma() {
        let mut s = process(DayProfile::clear(), 9);
        let vals: Vec<f64> = (0..2000u32)
            .map(|i| first(&mut s, i, i + 10_000, 100.0, SimTime::from_secs(5)))
            .collect();
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let std = (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
        let expect = (2.0f64.powi(2) + 1.0f64.powi(2)).sqrt();
        assert!(
            (std - expect).abs() < 0.3,
            "marginal std {std} should approach {expect:.2}"
        );
        assert!(
            mean.abs() < 0.3,
            "mean {mean} should be near the 0 dB offset"
        );
    }

    #[test]
    fn short_links_shadow_less_than_long_links() {
        let mut s = process(DayProfile::clear(), 21);
        let spread = |d: f64, s: &mut Shadowing| {
            let vals: Vec<f64> = (0..500u32)
                .map(|i| first(s, i, i + 5000, d, SimTime::from_secs(1)))
                .collect();
            let n = vals.len() as f64;
            let mean = vals.iter().sum::<f64>() / n;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt()
        };
        let near = spread(20.0, &mut s);
        let mut s2 = process(DayProfile::clear(), 21);
        let far = spread(120.0, &mut s2);
        assert!(
            near < far * 0.5,
            "20 m spread {near:.2} dB should be well below 120 m {far:.2} dB"
        );
        // Beyond sigma_full_distance the variance saturates.
        let mut s3 = process(DayProfile::clear(), 21);
        let very_far = spread(300.0, &mut s3);
        assert!(
            (very_far - far).abs() < 0.4,
            "variance saturates: {far:.2} vs {very_far:.2}"
        );
    }

    #[test]
    fn deviation_is_hard_bounded_for_every_profile() {
        for profile in [DayProfile::clear(), DayProfile::rainy()] {
            let extra = profile.extra_loss.0;
            let mut s = process(profile, 13);
            for i in 0..5000u32 {
                let v = first(&mut s, i, i + 50_000, 200.0, SimTime::from_secs(3));
                assert!(
                    (v - extra).abs() <= DEVIATION_BOUND_DB,
                    "deviation {v} escaped the ±{DEVIATION_BOUND_DB} dB bound"
                );
            }
        }
    }

    #[test]
    fn min_excess_bounds_every_sample_from_below() {
        for profile in [
            DayProfile::clear(),
            DayProfile::rainy(),
            DayProfile::still(),
        ] {
            let floor = profile.min_excess().0;
            let mut s = process(profile, 17);
            for i in 0..2000u32 {
                let v = first(&mut s, i, i + 20_000, 150.0, SimTime::from_secs(1));
                assert!(v >= floor, "sample {v} fell below min_excess {floor}");
            }
        }
        assert_eq!(DayProfile::still().min_excess().0, 0.0);
        assert_eq!(DayProfile::clear().min_excess().0, -DEVIATION_BOUND_DB);
        assert_eq!(DayProfile::rainy().min_excess().0, 4.0 - DEVIATION_BOUND_DB);
    }

    #[test]
    fn rainy_day_adds_loss_on_average() {
        let mut clear = process(DayProfile::clear(), 3);
        let mut rainy = process(DayProfile::rainy(), 3);
        let avg = |s: &mut Shadowing| {
            (0..500u32)
                .map(|i| first(s, i, i + 1000, 100.0, SimTime::from_secs(2)))
                .sum::<f64>()
                / 500.0
        };
        let diff = avg(&mut rainy) - avg(&mut clear);
        assert!(
            diff > 2.0,
            "rainy day should average ≥2 dB extra loss, got {diff}"
        );
    }
}
