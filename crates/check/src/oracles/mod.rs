//! The workspace's differential oracles, one module per subsystem.

pub mod cluster;
pub mod corruption;
pub mod ewma;
pub mod fleet_placement;
pub mod fork;
pub mod fsm;
pub mod incremental;
pub mod json;
pub mod matching;
pub mod persistence;
pub mod schemata;
pub mod sim_cache;
pub mod sim_counters;

use crate::property::Property;

/// Every registered oracle, in report order. The `copart-check` binary
/// and the top-level suite test both run exactly this list, so a new
/// oracle registered here is automatically fuzzed, replayed against the
/// corpus, and covered by the jobs-determinism gate.
pub fn all() -> Vec<Property> {
    let mut props = Vec::new();
    props.extend(matching::properties());
    props.extend(incremental::properties());
    props.extend(schemata::properties());
    props.extend(json::properties());
    props.extend(fsm::properties());
    props.extend(sim_counters::properties());
    props.extend(sim_cache::properties());
    props.extend(ewma::properties());
    props.extend(persistence::properties());
    props.extend(fork::properties());
    props.extend(corruption::properties());
    props.extend(fleet_placement::properties());
    props.extend(cluster::properties());
    props
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn oracle_names_are_unique_and_stable() {
        let props = all();
        let names: BTreeSet<&str> = props.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), props.len(), "duplicate property names");
        // Renaming a property orphans its corpus entries; this list is
        // the rename tripwire.
        let expected: BTreeSet<&str> = [
            "matching-allocate-stable",
            "matching-incremental-vs-rebuild",
            "schemata-roundtrip",
            "schemata-validation",
            "json-roundtrip",
            "json-depth-limit",
            "json-writer-matches-reference",
            "fsm-dual-vs-table",
            "sim-counter-bounds",
            "sim-cache-matches-reference",
            "ewma-reference",
            "snapshot-restore-replay",
            "fork-replays-identically",
            "decoder-rejects-corruption",
            "fleet-placement-deterministic",
            "cluster-assignment-deterministic",
        ]
        .into_iter()
        .collect();
        assert_eq!(names, expected);
    }
}
