//! Machine topology and model constants.

use crate::MbaLevel;

/// Topology, timing, and model constants of the simulated server.
///
/// [`MachineConfig::xeon_gold_6130`] reproduces the paper's testbed
/// (Table 1): 16 cores at 2.1 GHz, a shared 22 MB 11-way LLC, two DDR4
/// DIMMs providing ~28 GB/s, and MBA levels 10–100 % in steps of 10.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of physical cores (Hyper-Threading disabled, as in §3.1).
    pub n_cores: u32,
    /// Core clock frequency in Hz (Turbo Boost disabled, as in §3.1).
    pub freq_hz: f64,
    /// Number of LLC ways available for CAT partitioning.
    pub llc_ways: u32,
    /// Capacity of a single LLC way in bytes.
    pub llc_way_bytes: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Total memory bandwidth of the machine in bytes/second
    /// (empirically ~28 GB/s on the testbed, measured with STREAM).
    pub mem_bw_bytes_per_sec: f64,
    /// Unthrottled per-core L2↔LLC link bandwidth in bytes/second. MBA
    /// throttles a fraction of this per core.
    pub per_core_link_bw: f64,
    /// Unloaded memory access latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// Strength of the latency inflation MBA throttling imposes on
    /// latency-bound applications (see [`MachineConfig::mba_latency_factor`]).
    pub throttle_latency_coeff: f64,
    /// Set-sampling scale factor: the simulated LLC has `1/scale` of the
    /// true sets and application footprints are scaled to match,
    /// preserving reuse distances and miss ratios.
    pub scale: u32,
    /// Maximum number of sampled accesses simulated per application per
    /// window. When an application's quota exceeds it, every quota
    /// shrinks by the same factor, which keeps the apps' relative cache
    /// pressure and bounds the host time of a tick. It is not neutral
    /// for results: fewer accesses per window walk less of each
    /// footprint, and the measured miss ratios — hence the headline
    /// unfairness — move with it (ROADMAP item 2).
    pub window_sample_budget: u32,
    /// Seed for all stochastic trace generation; runs are reproducible.
    pub seed: u64,
    /// Enable a next-line hardware prefetcher: every demand miss also
    /// fills the following line. Off by default — the calibrated workload
    /// models fold average prefetching benefit into their timing
    /// constants; this knob exists for ablation studies.
    pub prefetch_next_line: bool,
}

impl MachineConfig {
    /// The paper's testbed (Table 1), at a 1/64 cache-sampling scale.
    pub fn xeon_gold_6130() -> MachineConfig {
        MachineConfig {
            n_cores: 16,
            freq_hz: 2.1e9,
            llc_ways: 11,
            llc_way_bytes: 2 * 1024 * 1024,
            line_bytes: 64,
            mem_bw_bytes_per_sec: 28.0e9,
            per_core_link_bw: 12.0e9,
            mem_latency_ns: 80.0,
            throttle_latency_coeff: 0.12,
            scale: 64,
            window_sample_budget: 32_768,
            seed: 0xC0_9A27,
            prefetch_next_line: false,
        }
    }

    /// A deliberately tiny machine for fast unit tests: 4 cores, 4 ways of
    /// 64 KiB, unscaled.
    pub fn tiny_test() -> MachineConfig {
        MachineConfig {
            n_cores: 4,
            freq_hz: 1.0e9,
            llc_ways: 4,
            llc_way_bytes: 64 * 1024,
            line_bytes: 64,
            mem_bw_bytes_per_sec: 8.0e9,
            per_core_link_bw: 6.0e9,
            mem_latency_ns: 80.0,
            throttle_latency_coeff: 0.12,
            scale: 1,
            window_sample_budget: 16_384,
            seed: 7,
            prefetch_next_line: false,
        }
    }

    /// True number of LLC sets (`way_bytes / line_bytes`).
    pub fn true_sets(&self) -> u64 {
        self.llc_way_bytes / self.line_bytes
    }

    /// Number of *simulated* sets after set sampling.
    pub fn sim_sets(&self) -> u64 {
        (self.true_sets() / u64::from(self.scale)).max(1)
    }

    /// Total LLC capacity in bytes.
    pub fn llc_bytes(&self) -> u64 {
        self.llc_way_bytes * u64::from(self.llc_ways)
    }

    /// Fraction of the per-core link bandwidth an MBA level permits.
    ///
    /// Intel documents MBA as *approximate and non-linear*; a linear map
    /// is the simulator's default and matches the testbed closely enough
    /// for the controller, which only ever steps levels up or down.
    pub fn mba_bandwidth_fraction(&self, level: MbaLevel) -> f64 {
        level.fraction()
    }

    /// Memory-latency inflation factor imposed by MBA throttling.
    ///
    /// MBA inserts delays between L2→LLC requests, so even an application
    /// whose *bandwidth* fits under the throttled cap observes higher
    /// effective memory latency when throttled hard. Latency-bound
    /// applications (low memory-level parallelism) feel this strongly;
    /// bandwidth-bound streamers are dominated by the cap instead. At
    /// level 100 the factor is exactly 1.
    pub fn mba_latency_factor(&self, level: MbaLevel) -> f64 {
        let f = self.mba_bandwidth_fraction(level);
        1.0 + self.throttle_latency_coeff * (1.0 - f) / f
    }

    /// Per-application bandwidth cap in bytes/second for `cores` cores at
    /// the given MBA level.
    pub fn mba_bandwidth_cap(&self, cores: u32, level: MbaLevel) -> f64 {
        self.mba_bandwidth_fraction(level) * f64::from(cores) * self.per_core_link_bw
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a nonsensical configuration (zero cores/ways, a way
    /// smaller than a line, or a scale larger than the set count); these
    /// are construction-time programming errors, not runtime conditions.
    pub fn assert_valid(&self) {
        assert!(self.n_cores > 0, "machine needs at least one core");
        assert!(
            self.llc_ways >= 1 && self.llc_ways <= 31,
            "way count out of range"
        );
        assert!(
            self.llc_way_bytes >= self.line_bytes,
            "a way must hold at least one line"
        );
        assert!(
            u64::from(self.scale) <= self.true_sets(),
            "scale exceeds set count"
        );
        assert!(self.freq_hz > 0.0 && self.mem_bw_bytes_per_sec > 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_geometry_matches_table_1() {
        let cfg = MachineConfig::xeon_gold_6130();
        cfg.assert_valid();
        assert_eq!(cfg.n_cores, 16);
        assert_eq!(cfg.llc_ways, 11);
        assert_eq!(cfg.llc_bytes(), 22 * 1024 * 1024);
        assert_eq!(cfg.true_sets(), 32_768);
        assert_eq!(cfg.sim_sets(), 512);
    }

    #[test]
    fn mba_cap_scales_with_cores_and_level() {
        let cfg = MachineConfig::xeon_gold_6130();
        let full = cfg.mba_bandwidth_cap(4, MbaLevel::MAX);
        let half = cfg.mba_bandwidth_cap(4, MbaLevel::new(50));
        assert!((full - 48.0e9).abs() < 1.0);
        assert!((half / full - 0.5).abs() < 1e-12);
        assert!((cfg.mba_bandwidth_cap(8, MbaLevel::MAX) / full - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_factor_is_one_unthrottled_and_grows() {
        let cfg = MachineConfig::xeon_gold_6130();
        assert!((cfg.mba_latency_factor(MbaLevel::MAX) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for level in MbaLevel::all() {
            let f = cfg.mba_latency_factor(level);
            if prev > 0.0 {
                assert!(f < prev, "latency factor must fall as level rises");
            }
            prev = f;
        }
        assert!(cfg.mba_latency_factor(MbaLevel::MIN) > 2.0);
    }

    #[test]
    fn tiny_config_is_valid_and_unscaled() {
        let cfg = MachineConfig::tiny_test();
        cfg.assert_valid();
        assert_eq!(cfg.sim_sets(), cfg.true_sets());
    }
}
