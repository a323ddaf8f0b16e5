//! Per-station MAC configuration.

use dot11_phy::{PhyRate, Preamble};

use crate::arf::ArfConfig;
use crate::policy::BackoffConfig;
use crate::timing::MacTiming;

/// Configuration of one station's DCF MAC.
#[derive(Debug, Clone, Copy)]
pub struct MacConfig {
    /// Rate used for data MPDUs (the NIC rate, fixed per experiment as in
    /// the paper's test-bed).
    pub data_rate: PhyRate,
    /// Rate used for RTS/CTS/ACK. The standard requires a basic-set rate;
    /// the test-bed's basic set is {1, 2} Mb/s and by default control
    /// goes at the highest basic rate not above the data rate.
    pub control_rate: PhyRate,
    /// Whether the RTS/CTS exchange precedes data frames.
    pub rts_enabled: bool,
    /// Maximum transmissions of an RTS or of a basic-access data frame
    /// (dot11ShortRetryLimit).
    pub short_retry_limit: u32,
    /// Maximum transmissions of a data frame protected by RTS/CTS
    /// (dot11LongRetryLimit).
    pub long_retry_limit: u32,
    /// Interface queue capacity, MSDUs.
    pub queue_capacity: usize,
    /// Timing constants.
    pub timing: MacTiming,
    /// PLCP preamble in use.
    pub preamble: Preamble,
    /// Whether EIFS is applied after undecodable frames (ablation D3
    /// disables it).
    pub eifs_enabled: bool,
    /// Dynamic rate switching (ARF). Disabled by default — the paper's
    /// test-bed pinned the NIC rate; enabling this reproduces what
    /// shipping firmware did instead.
    pub arf: ArfConfig,
    /// Contention-window policy. Defaults to binary exponential backoff
    /// ([`BackoffConfig::Beb`]), the paper's Table 1 behaviour.
    pub backoff: BackoffConfig,
}

impl MacConfig {
    /// The paper's configuration at a given NIC rate: basic access
    /// (RTS/CTS off), control at the matching basic rate, standard retry
    /// limits, 50-packet interface queue.
    pub fn new(data_rate: PhyRate) -> MacConfig {
        MacConfig {
            data_rate,
            control_rate: data_rate.control_rate(),
            rts_enabled: false,
            short_retry_limit: 7,
            long_retry_limit: 4,
            queue_capacity: 50,
            timing: MacTiming::dsss(),
            preamble: Preamble::Long,
            eifs_enabled: true,
            arf: ArfConfig::disabled(),
            backoff: BackoffConfig::Beb,
        }
    }

    /// The same configuration with the RTS/CTS mechanism on.
    pub fn with_rts(mut self) -> MacConfig {
        self.rts_enabled = true;
        self
    }

    /// The same configuration with the contention-window bounds moved —
    /// the CWmin/CWmax sensitivity axis (Siddik et al.,
    /// arXiv:2206.12615). `cw_min` must be ≥ 1 and ≤ `cw_max`.
    pub fn with_cw(mut self, cw_min: u32, cw_max: u32) -> MacConfig {
        self.timing = self.timing.with_cw(cw_min, cw_max);
        self
    }

    /// The same configuration with different retry limits
    /// (dot11ShortRetryLimit / dot11LongRetryLimit).
    pub fn with_retry_limits(mut self, short: u32, long: u32) -> MacConfig {
        self.short_retry_limit = short;
        self.long_retry_limit = long;
        self
    }

    /// The same configuration with a different slot time. DIFS is
    /// re-derived as `SIFS + 2·slot`, as the standard defines it.
    pub fn with_slot_us(mut self, slot_us: u32) -> MacConfig {
        self.timing = self.timing.with_slot_us(slot_us);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_rate_follows_basic_set() {
        assert_eq!(MacConfig::new(PhyRate::R11).control_rate, PhyRate::R2);
        assert_eq!(MacConfig::new(PhyRate::R5_5).control_rate, PhyRate::R2);
        assert_eq!(MacConfig::new(PhyRate::R2).control_rate, PhyRate::R2);
        assert_eq!(MacConfig::new(PhyRate::R1).control_rate, PhyRate::R1);
    }

    #[test]
    fn rts_toggle() {
        let base = MacConfig::new(PhyRate::R11);
        assert!(!base.rts_enabled);
        assert!(base.with_rts().rts_enabled);
        assert_eq!(base.short_retry_limit, 7);
        assert_eq!(base.long_retry_limit, 4);
    }
}
