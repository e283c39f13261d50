//! The STREAM bandwidth probe and its per-MBA-level reference table.
//!
//! The paper uses STREAM (§3.3) as the empirical ceiling of memory traffic
//! on the machine: the memory-bandwidth classifier's *memory traffic
//! ratio* divides an application's LLC miss rate by STREAM's miss rate *at
//! the same MBA level* (§5.3). [`StreamReference`] precomputes that
//! per-level table by running the STREAM model solo at every level.

use std::sync::Mutex;

use copart_sim::{AppSpec, MachineConfig, MbaLevel};

use crate::{measure, reference};

/// The STREAM model: sequential triad-style sweeps far larger than the
/// LLC, with the canonical one-write-per-two-reads ratio.
pub fn stream_spec(cores: u32) -> AppSpec {
    AppSpec {
        name: "STREAM".into(),
        cores,
        ipc_peak: 1.0,
        apki: 180.0,
        write_fraction: 0.33,
        mlp: 16.0,
        phases: vec![(
            1.0,
            copart_sim::trace::AccessPattern::Stream { bytes: 1 << 30 },
        )],
    }
}

/// STREAM's steady-state LLC miss rate at every MBA level.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReference {
    /// `misses_per_sec[i]` corresponds to MBA level `(i + 1) × 10`.
    misses_per_sec: [f64; 10],
}

impl StreamReference {
    /// Measures the reference table on the given machine configuration by
    /// running the STREAM model solo at each MBA level with all LLC ways.
    ///
    /// The paper's controller measures this once per machine; callers
    /// should do the same and reuse the table.
    pub fn compute(cfg: &MachineConfig, cores: u32) -> StreamReference {
        let spec = stream_spec(cores);
        let mut misses_per_sec = [0.0f64; 10];
        for (i, level) in MbaLevel::all().enumerate() {
            let (_, rates) = measure::measure(cfg, &spec, cfg.llc_ways, level);
            misses_per_sec[i] = rates.llc_misses_per_sec;
        }
        StreamReference { misses_per_sec }
    }

    /// The reference table for `cfg` with the 4-core STREAM every
    /// consolidation in this workspace is calibrated against:
    /// [`StreamReference::compute`] is ten solo simulations, a pure
    /// function of `cfg`, and every surface (one-shot runs, the daemon,
    /// each fleet node, each kill/resume incarnation) wants the same
    /// table. The checked-in table ([`crate::reference`]) answers for the
    /// testbed model; any other machine is measured once per process.
    pub fn for_machine(cfg: &MachineConfig) -> StreamReference {
        if let Some(misses_per_sec) = reference::stream_misses(cfg) {
            return StreamReference { misses_per_sec };
        }
        static TABLES: Mutex<Vec<(MachineConfig, StreamReference)>> = Mutex::new(Vec::new());
        // Held across the measurement so concurrent first callers wait
        // for one computation instead of each running their own.
        let mut tables = TABLES.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, table)) = tables.iter().find(|(known, _)| known == cfg) {
            return table.clone();
        }
        let table = StreamReference::compute(cfg, 4);
        tables.push((cfg.clone(), table.clone()));
        table
    }

    /// Builds a table from precomputed values (index 0 = level 10 %).
    pub fn from_table(misses_per_sec: [f64; 10]) -> StreamReference {
        StreamReference { misses_per_sec }
    }

    /// STREAM's LLC miss rate at `level`.
    pub fn misses_per_sec(&self, level: MbaLevel) -> f64 {
        let idx = usize::from(level.percent() / 10) - 1;
        self.misses_per_sec[idx]
    }

    /// The §5.3 memory traffic ratio for an application observed at
    /// `level`.
    pub fn traffic_ratio(&self, app_misses_per_sec: f64, level: MbaLevel) -> f64 {
        copart_telemetry::traffic_ratio(app_misses_per_sec, self.misses_per_sec(level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_monotone_in_level() {
        let cfg = MachineConfig::xeon_gold_6130();
        let r = StreamReference::compute(&cfg, 4);
        let mut prev = 0.0;
        for level in MbaLevel::all() {
            let m = r.misses_per_sec(level);
            assert!(m > 0.0, "no STREAM misses at {level}");
            assert!(
                m >= prev * 0.98,
                "miss rate should not fall as throttling relaxes: {m} < {prev} at {level}"
            );
            prev = m;
        }
        // Heavy throttling must bite hard.
        assert!(
            r.misses_per_sec(MbaLevel::MIN) < 0.5 * r.misses_per_sec(MbaLevel::MAX),
            "MBA 10% should at least halve STREAM traffic"
        );
    }

    #[test]
    fn for_machine_is_the_computed_table_bit_for_bit() {
        let cfg = MachineConfig::xeon_gold_6130();
        let bits = |r: &StreamReference| r.misses_per_sec.map(f64::to_bits);
        let computed = StreamReference::compute(&cfg, 4);
        // The testbed's table is checked in; a machine model outside it
        // is measured and memoized, twice the same bits.
        assert_eq!(bits(&StreamReference::for_machine(&cfg)), bits(&computed));
        let tiny = MachineConfig::tiny_test();
        let computed = StreamReference::compute(&tiny, 4);
        assert_eq!(bits(&StreamReference::for_machine(&tiny)), bits(&computed));
        assert_eq!(bits(&StreamReference::for_machine(&tiny)), bits(&computed));
    }

    #[test]
    fn traffic_ratio_uses_level_specific_reference() {
        let r = StreamReference::from_table([1e7, 2e7, 3e7, 4e7, 5e7, 6e7, 7e7, 8e7, 9e7, 1e8]);
        assert!((r.traffic_ratio(5e6, MbaLevel::new(10)) - 0.5).abs() < 1e-12);
        assert!((r.traffic_ratio(5e6, MbaLevel::new(100)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn stream_saturates_the_bus_unthrottled() {
        let cfg = MachineConfig::xeon_gold_6130();
        let spec = stream_spec(4);
        let (ips, rates) = measure::measure_full(&cfg, &spec);
        // Bandwidth-bound: achieved traffic ≈ bus bandwidth.
        let traffic = rates.llc_misses_per_sec * cfg.line_bytes as f64;
        assert!(
            traffic > 0.5 * cfg.mem_bw_bytes_per_sec,
            "STREAM traffic {traffic:.3e} should approach the bus limit"
        );
        assert!(ips > 0.0);
    }
}
