//! Bit-error-rate model for the DSSS/CCK modulations.
//!
//! The inputs are linear SINR values at the receiver; the DSSS processing
//! gain (11 MHz chip bandwidth over the data rate) converts SINR to an
//! effective per-bit Eb/N0, so the slower spreading-heavy rates tolerate
//! much lower SINR — this is what makes the 1 Mb/s range ~4× the 11 Mb/s
//! range in the paper's Table 3.
//!
//! The curves are the standard textbook/simulator forms (as used by the
//! ns-2/ns-3 802.11b error models): exact DBPSK, coherent-approximation
//! DQPSK, and union-bound-style CCK approximations. Absolute calibration
//! (noise floor, TX power) lives in `dot11-adhoc::calib`; what matters
//! here is the relative ordering and the steepness of the waterfalls.

/// DSSS chip bandwidth, Hz.
const CHIP_BANDWIDTH_HZ: f64 = 11e6;

/// Modulation schemes of the four 802.11b rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Differential BPSK (1 Mb/s), 11-chip Barker code.
    Dbpsk,
    /// Differential QPSK (2 Mb/s), 11-chip Barker code.
    Dqpsk,
    /// Complementary Code Keying, 4 bits/symbol (5.5 Mb/s).
    Cck5_5,
    /// Complementary Code Keying, 8 bits/symbol (11 Mb/s).
    Cck11,
}

impl Modulation {
    /// The bit rate carried by the modulation, b/s.
    pub fn bit_rate(self) -> f64 {
        match self {
            Modulation::Dbpsk => 1e6,
            Modulation::Dqpsk => 2e6,
            Modulation::Cck5_5 => 5.5e6,
            Modulation::Cck11 => 11e6,
        }
    }

    /// DSSS processing gain: chip bandwidth over bit rate.
    pub fn processing_gain(self) -> f64 {
        CHIP_BANDWIDTH_HZ / self.bit_rate()
    }
}

/// Complementary error function, Abramowitz & Stegun 7.1.26 applied to
/// `erfc(x) = 1 - erf(x)`; absolute error ≤ 1.5e-7, adequate for BER work.
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    if sign_negative {
        1.0 + erf
    } else {
        1.0 - erf
    }
}

/// Gaussian tail probability `Q(x) = erfc(x/√2)/2`.
fn q(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// CCK 5.5 coding gain over uncoded DQPSK: +0.5 dB as a linear factor,
/// i.e. `10^(0.5/10)`. Hoisted to a literal so the BER hot loop does not
/// re-evaluate `powf` per integration segment; a test pins the bits.
const CCK5_5_CODING_GAIN: f64 = 1.122_018_454_301_963_3;

/// CCK 11 per-bit penalty against DQPSK: −5 dB as a linear factor,
/// i.e. `10^(-5/10)`. See [`CCK5_5_CODING_GAIN`] for why it is a literal.
const CCK11_CODING_GAIN: f64 = 0.316_227_766_016_837_94;

/// Bit error probability for `modulation` at linear SINR `sinr`
/// (signal power over noise-plus-interference power, both in the chip
/// bandwidth).
///
/// Returns a value in `[0, 0.5]`; non-positive (or NaN) SINR returns the
/// coin-flip bound 0.5, and infinite SINR — a signal over a 0 mW noise
/// floor with no interference — returns 0.
///
/// # Example
///
/// ```
/// use dot11_phy::{ber, Modulation};
/// // At equal SINR, faster modulations are strictly more fragile.
/// let sinr = 1.0; // 0 dB
/// assert!(ber(Modulation::Dbpsk, sinr) < ber(Modulation::Cck11, sinr));
/// ```
pub fn ber(modulation: Modulation, sinr: f64) -> f64 {
    if sinr.is_nan() || sinr <= 0.0 {
        return 0.5;
    }
    if sinr == f64::INFINITY {
        return 0.0;
    }
    let ebn0 = sinr * modulation.processing_gain();
    let pb = match modulation {
        // Exact non-coherent DBPSK.
        Modulation::Dbpsk => 0.5 * (-ebn0).exp(),
        // DQPSK, coherent approximation.
        Modulation::Dqpsk => q((2.0 * ebn0).sqrt()),
        // CCK 5.5: 4 bits per 8-chip symbol. The code's minimum-distance
        // gain buys ~0.5 dB over uncoded DQPSK at equal Eb/N0 (the
        // effective required-SINR then lands where the paper's ~70 m
        // 5.5 Mb/s range implies, given the rate-4/11 processing gain).
        Modulation::Cck5_5 => q((2.0 * ebn0 * CCK5_5_CODING_GAIN).sqrt()),
        // CCK 11: 8 bits per symbol and no spreading margin left; ~5 dB
        // penalty against DQPSK per bit, putting the decode threshold at
        // ~14.6 dB SINR.
        Modulation::Cck11 => q((2.0 * ebn0 * CCK11_CODING_GAIN).sqrt()),
    };
    pb.clamp(0.0, 0.5)
}

/// Probability that `bits` consecutive bits are all received correctly at
/// the given BER (independent-error assumption).
///
/// Computed in log space so a 12 000-bit frame at BER 1e-6 does not lose
/// precision.
pub fn packet_success_prob(bit_error_rate: f64, bits: u64) -> f64 {
    if bit_error_rate <= 0.0 {
        return 1.0;
    }
    if bit_error_rate >= 1.0 {
        return 0.0;
    }
    ((bits as f64) * (1.0 - bit_error_rate).ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_sinr_is_error_free_and_undefined_sinr_is_a_coin_flip() {
        for m in [
            Modulation::Dbpsk,
            Modulation::Dqpsk,
            Modulation::Cck5_5,
            Modulation::Cck11,
        ] {
            assert_eq!(ber(m, f64::INFINITY), 0.0, "{m:?} at +inf");
            assert_eq!(ber(m, f64::NAN), 0.5, "{m:?} at NaN");
            for sinr in [0.0, -0.0, -1.0, f64::NEG_INFINITY] {
                assert_eq!(ber(m, sinr), 0.5, "{m:?} at {sinr}");
            }
        }
    }

    #[test]
    fn erfc_reference_points() {
        // erfc(0) = 1, erfc(1) ≈ 0.157299, erfc(-1) ≈ 1.842701.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(6.0) < 1e-15);
    }

    #[test]
    fn ber_is_monotone_decreasing_in_sinr() {
        for m in [
            Modulation::Dbpsk,
            Modulation::Dqpsk,
            Modulation::Cck5_5,
            Modulation::Cck11,
        ] {
            let mut prev = 0.5;
            for i in 0..200 {
                let sinr = 10f64.powf(-3.0 + i as f64 * 0.02); // -30..+10 dB
                let b = ber(m, sinr);
                assert!(b <= prev + 1e-12, "{m:?} BER not monotone at sinr {sinr}");
                assert!((0.0..=0.5).contains(&b));
                prev = b;
            }
        }
    }

    #[test]
    fn faster_modulations_need_more_sinr() {
        // Find the SINR (dB) where BER crosses 1e-5 for each modulation;
        // the thresholds must be strictly increasing with rate.
        let threshold = |m: Modulation| {
            (-300..300)
                .map(|i| i as f64 * 0.1)
                .find(|&db| ber(m, 10f64.powf(db / 10.0)) < 1e-5)
                .expect("threshold within sweep")
        };
        let t1 = threshold(Modulation::Dbpsk);
        let t2 = threshold(Modulation::Dqpsk);
        let t55 = threshold(Modulation::Cck5_5);
        let t11 = threshold(Modulation::Cck11);
        assert!(
            t1 < t2 && t2 < t55 && t55 < t11,
            "thresholds {t1} {t2} {t55} {t11}"
        );
        // The spread between 1 and 11 Mb/s should be roughly 10–16 dB —
        // that is what produces the ~4x range ratio of the paper's Table 3.
        let spread = t11 - t1;
        assert!(
            (8.0..20.0).contains(&spread),
            "1→11 Mb/s SINR spread {spread} dB"
        );
    }

    #[test]
    fn zero_or_negative_sinr_is_coin_flip() {
        assert_eq!(ber(Modulation::Dbpsk, 0.0), 0.5);
        assert_eq!(ber(Modulation::Cck11, -1.0), 0.5);
        assert_eq!(ber(Modulation::Dqpsk, f64::NAN), 0.5);
    }

    #[test]
    fn packet_success_prob_bounds_and_limits() {
        assert_eq!(packet_success_prob(0.0, 10_000), 1.0);
        assert_eq!(packet_success_prob(1.0, 1), 0.0);
        let p = packet_success_prob(1e-6, 12_000);
        assert!((p - (1.0 - 1e-6f64).powi(12_000)).abs() < 1e-9);
        // More bits, lower success.
        assert!(packet_success_prob(1e-4, 2_000) > packet_success_prob(1e-4, 10_000));
    }

    #[test]
    fn high_sinr_frames_are_effectively_error_free() {
        // 20 dB SINR at 11 Mb/s: a 1024-byte frame should survive almost
        // surely.
        let b = ber(Modulation::Cck11, 100.0);
        assert!(packet_success_prob(b, 8192 + 272) > 0.9999);
    }

    #[test]
    fn cck_coding_gain_literals_match_powf_bitwise() {
        // The hoisted constants must be the exact f64s `powf` produces,
        // or every CCK BER (and hence every golden report) would shift.
        assert_eq!(
            CCK5_5_CODING_GAIN.to_bits(),
            10f64.powf(0.5 / 10.0).to_bits(),
            "CCK 5.5 coding-gain literal drifted from 10^(0.5/10)"
        );
        assert_eq!(
            CCK11_CODING_GAIN.to_bits(),
            10f64.powf(-5.0 / 10.0).to_bits(),
            "CCK 11 coding-gain literal drifted from 10^(-5/10)"
        );
    }
}
