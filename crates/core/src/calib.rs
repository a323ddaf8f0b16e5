//! The calibrated outdoor radio model.
//!
//! The paper's test-bed was an open field with D-Link DWL-650 cards. We
//! calibrate a log-distance model so the simulated per-rate transmission
//! ranges land on the paper's Table 3:
//!
//! | quantity | paper | calibrated model |
//! |---|---|---|
//! | data TX_range @ 11 Mb/s | ~30 m | 30 m |
//! | data TX_range @ 5.5 Mb/s | ~70 m | ~67 m |
//! | data TX_range @ 2 Mb/s | 90–100 m | ~98 m |
//! | data TX_range @ 1 Mb/s | 110–130 m | ~121 m |
//! | control TX_range (2 Mb/s) | 90–120 m | ~98 m |
//! | PCS_range | > all of the above | ~151 m |
//!
//! Derivation: the ranges the paper measures are *datagram* ranges — the
//! MAC retries each frame up to 7 times, so a datagram is lost only when
//! every attempt fails, i.e. when the per-attempt frame error rate
//! reaches 0.5^(1/7) ≈ 0.906. The SINR thresholds where that happens on a
//! 546-byte MPDU (from the BER curves over a −96.6 dBm noise floor) are
//! ≈12.3 dB at 11 Mb/s, ≈3.8 dB at 5.5, ≈−0.1 dB at 2 and ≈−2.1 dB at
//! 1 Mb/s. With 15 dBm TX power, hitting ~33 m at 11 Mb/s and ~129 m at
//! 1 Mb/s requires `PL(d) = 62.6 + 24.2·log10(d)` — exponent 2.42 with a
//! ~22.5 dB clutter/antenna offset over free space at 1 m. The offset
//! models the near-ground antennas of laptops on an open field; the
//! exponent is the value the paper's own range ratios imply. The anchor
//! sits ~10% above the paper's printed 30 m so that the four-station
//! 25 m links keep the ~3 dB median margin the paper's own experiments
//! evidently had (their Figure 7 sessions move megabits).

use dot11_phy::{Db, DualSlope, LogDistance, Meters};

/// The calibrated path-loss model (see module docs).
pub fn calibrated_path_loss() -> LogDistance {
    LogDistance {
        reference_loss: Db(62.6),
        reference_distance: Meters(1.0),
        exponent: 2.42,
    }
}

/// The large-topology path-loss model: the calibrated log-distance model
/// up to a 500 m breakpoint (bit-identical there — every paper-scale cell
/// sits well inside it), then fourth-power roll-off, the far-field slope
/// of the two-ray ground regime. The exponent-2.42 near model alone never
/// reaches ~128 dB of extra loss within any earthly field, so without the
/// far slope the audible-set culling in `Medium` would have an infinite
/// horizon; with it, stations beyond a couple of kilometres fall below
/// `noise_floor − CULL_MARGIN_DB` and drop out of the fan-out.
pub fn calibrated_dual_slope() -> DualSlope {
    DualSlope {
        near: calibrated_path_loss(),
        breakpoint: Meters(500.0),
        far_exponent: 4.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dot11_phy::{ber, packet_success_prob, Dbm, PathLoss, PhyRate, RadioConfig};

    /// Distance at which a *datagram* of `bits` at `rate` — up to 7 MAC
    /// attempts per datagram — has 50% delivery over the calibrated
    /// deterministic channel (no shadowing).
    fn median_range(rate: PhyRate, bits: u64) -> f64 {
        let radio = RadioConfig::dwl650();
        let pl = calibrated_path_loss();
        let noise = radio.noise_floor.to_milliwatts();
        let mut lo = 1.0f64;
        let mut hi = 1000.0;
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            let rx: Dbm = radio.tx_power - pl.path_loss(Meters(mid));
            let sinr = rx.to_milliwatts().0 / noise.0;
            let frame_ok = packet_success_prob(ber(rate.modulation(), sinr), bits);
            let p = 1.0 - (1.0 - frame_ok).powi(7);
            if p > 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn data_ranges_match_table3() {
        // 546-byte MPDU (512-byte packets) per the paper's experiments.
        let bits = 546 * 8;
        let r11 = median_range(PhyRate::R11, bits);
        let r55 = median_range(PhyRate::R5_5, bits);
        let r2 = median_range(PhyRate::R2, bits);
        let r1 = median_range(PhyRate::R1, bits);
        // Bands: the paper's Table 3 values +10% (the deliberate anchor
        // shift documented in the module docs).
        assert!(
            (27.0..38.0).contains(&r11),
            "11 Mb/s range {r11:.0} m (paper: 30 m)"
        );
        assert!(
            (60.0..85.0).contains(&r55),
            "5.5 Mb/s range {r55:.0} m (paper: 70 m)"
        );
        assert!(
            (90.0..115.0).contains(&r2),
            "2 Mb/s range {r2:.0} m (paper: 90-100 m)"
        );
        assert!(
            (115.0..140.0).contains(&r1),
            "1 Mb/s range {r1:.0} m (paper: 110-130 m)"
        );
        assert!(r11 < r55 && r55 < r2 && r2 < r1);
    }

    #[test]
    fn control_frames_reach_3x_further_than_11mbps_data() {
        let data = median_range(PhyRate::R11, 546 * 8);
        let ctrl = median_range(PhyRate::R2, 112);
        assert!(
            ctrl / data > 2.5,
            "control range {ctrl:.0} m vs data range {data:.0} m"
        );
    }

    #[test]
    fn pcs_range_exceeds_every_tx_range() {
        let radio = RadioConfig::dwl650();
        let pl = calibrated_path_loss();
        let budget = radio.tx_power - radio.cs_threshold;
        let pcs = pl.distance_for_loss(Db(budget.0)).expect("within sweep").0;
        assert!((135.0..175.0).contains(&pcs), "PCS range {pcs:.0} m");
        assert!(pcs > median_range(PhyRate::R1, 546 * 8));
    }

    #[test]
    fn ns2_assumption_is_2_to_3x_our_2mbps_range() {
        // The paper: ns-2/GloMoSim assume TX_range = 250 m at 2 Mb/s,
        // "2-3 times higher than the values measured in practice".
        let measured = median_range(PhyRate::R2, 546 * 8);
        let ratio = 250.0 / measured;
        assert!((2.0..3.2).contains(&ratio), "ns-2 ratio {ratio:.2}");
    }
}
