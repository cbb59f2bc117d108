//! Case-study parameters: traffic shape, protocol constants, and the
//! workload-calibration knobs.

/// All tunables of the TUTMAC case study. The defaults are calibrated so
/// the profiling report reproduces the *shape* of the paper's Table 4(a):
/// group1 ≫ group2 > group3 ≫ group4, with group1 around 90 % of all
/// cycles.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TutmacConfig {
    /// Period between user MSDUs (ns).
    pub msdu_period_ns: i64,
    /// User MSDU payload size (bytes).
    pub msdu_bytes: i64,
    /// Maximum fragment payload (bytes).
    pub fragment_bytes: i64,
    /// Period between remote-terminal frames arriving from the radio (ns).
    pub rx_period_ns: i64,
    /// Remote frame payload size (bytes).
    pub rx_frame_bytes: i64,
    /// Beacon period (ns).
    pub beacon_period_ns: i64,
    /// Beacon frame size (bytes).
    pub beacon_bytes: i64,
    /// Link-quality estimation period of RadioManagement (ns).
    pub rmng_period_ns: i64,
    /// Every `loss_modulus`-th transmitted frame is lost on the channel
    /// (0 disables loss). Deterministic, so runs are reproducible.
    pub loss_modulus: i64,
    /// Acknowledgement timeout of the stop-and-wait ARQ (ns); also the
    /// starting value of the exponential backoff.
    pub ack_timeout_ns: i64,
    /// Cap of the exponential ARQ backoff: each retransmission doubles
    /// the ack timeout up to this ceiling (ns).
    pub max_backoff_ns: i64,
    /// Maximum retransmissions per fragment.
    pub max_retries: i64,

    // ---- workload calibration (cost units per event) -------------------
    /// RadioChannelAccess: control work per transmitted frame (channel
    /// access, framing, timing).
    pub rca_tx_control: i64,
    /// RadioChannelAccess: bit-level work per transmitted frame
    /// (scrambling).
    pub rca_tx_bit: i64,
    /// RadioChannelAccess: control work per received frame.
    pub rca_rx_control: i64,
    /// RadioChannelAccess: control work per acknowledgement.
    pub rca_ack_control: i64,
    /// RadioChannelAccess: control work per beacon transmission.
    pub rca_beacon_control: i64,
    /// Management: control work to assemble one beacon.
    pub mng_beacon_control: i64,
    /// RadioManagement: DSP work per link-quality estimate.
    pub rmng_dsp: i64,
    /// UserInterface processes: control work per MSDU.
    pub ui_control: i64,
    /// DataProcessing `frag`/`defrag`: memory work per fragment handled.
    pub dp_mem: i64,
    /// CRC engine: one `bit` unit per this many payload bytes (models the
    /// accelerator's words-per-cycle throughput).
    pub crc_bytes_per_unit: i64,
}

impl Default for TutmacConfig {
    fn default() -> Self {
        TutmacConfig {
            msdu_period_ns: 1_000_000,
            msdu_bytes: 1500,
            fragment_bytes: 256,
            rx_period_ns: 1_500_000,
            rx_frame_bytes: 256,
            beacon_period_ns: 2_000_000,
            beacon_bytes: 64,
            rmng_period_ns: 4_000_000,
            loss_modulus: 8,
            ack_timeout_ns: 200_000,
            max_backoff_ns: 800_000,
            max_retries: 4,
            rca_tx_control: 6800,
            rca_tx_bit: 60,
            rca_rx_control: 2600,
            rca_ack_control: 120,
            rca_beacon_control: 400,
            mng_beacon_control: 600,
            rmng_dsp: 500,
            ui_control: 900,
            dp_mem: 16,
            crc_bytes_per_unit: 64,
        }
    }
}

impl TutmacConfig {
    /// A light-load variant (fewer, smaller MSDUs) for quick tests.
    pub fn light_load() -> TutmacConfig {
        TutmacConfig {
            msdu_period_ns: 4_000_000,
            msdu_bytes: 500,
            rx_period_ns: 6_000_000,
            ..TutmacConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_cap_exceeds_initial_timeout() {
        let c = TutmacConfig::default();
        assert!(c.max_backoff_ns >= c.ack_timeout_ns);
    }

    #[test]
    fn light_load_is_lighter() {
        let light = TutmacConfig::light_load();
        let normal = TutmacConfig::default();
        assert!(light.msdu_period_ns > normal.msdu_period_ns);
        assert!(light.msdu_bytes < normal.msdu_bytes);
    }
}
