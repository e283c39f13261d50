//! Fleet-wide metric aggregation: percentiles, per-node gauges, and
//! lifecycle counters.
//!
//! A fleet controller owns N per-node metric registries; operators ask
//! fleet-level questions — "what is the p99 slowdown across every
//! tenant?", "which nodes are persistently unfair?", "how many
//! migrations has rebalancing done?". [`FleetAggregator`] answers them
//! from per-epoch per-node observations without touching the node
//! registries on the hot path, and renders a deterministic JSON
//! document (sorted nodes, fixed field order) so fleet metric dumps are
//! byte-comparable across `--jobs` settings like everything else.

use crate::json::JsonWriter;

/// Distribution summary of one fleet-wide series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// Number of samples summarized.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Percentiles {
    /// Summarizes a sample set (sorts in place; nearest-rank at
    /// `round((n-1)·p)`, the same estimator the planner-scale harness
    /// uses). Empty input yields all zeros.
    pub fn from_samples(samples: &mut [f64]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("fleet samples are finite"));
        let pick = |p: f64| {
            let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
            samples[idx]
        };
        Percentiles {
            count: samples.len() as u64,
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }

    fn emit(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.key("count").num(self.count as f64);
        w.key("p50").num(self.p50);
        w.key("p90").num(self.p90);
        w.key("p99").num(self.p99);
        w.key("max").num(self.max);
        w.end_obj();
    }
}

/// One node's gauges as of the latest fleet epoch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeGauges {
    /// Applications currently placed on the node.
    pub apps: u64,
    /// Unfairness of the node's last adaptation period.
    pub unfairness: f64,
    /// The rebalancer's unfairness EWMA for the node.
    pub unfairness_ewma: f64,
}

/// Rolling fleet-level metrics: lifecycle counters plus the latest
/// epoch's distributions and per-node gauges.
#[derive(Debug, Clone, Default)]
pub struct FleetAggregator {
    /// Successful placements (initial admissions onto a node).
    pub placements: u64,
    /// Arrivals that could not be placed this epoch and were queued.
    pub deferrals: u64,
    /// Completed tenants evicted at end of service.
    pub departures: u64,
    /// Rebalancing migrations between nodes.
    pub migrations: u64,
    /// Nodes booted (first tenant placed).
    pub node_boots: u64,
    /// Nodes torn down (last tenant departed).
    pub node_teardowns: u64,
    /// Latest per-node gauges, indexed by node id.
    nodes: Vec<NodeGauges>,
    /// Latest epoch's fleet-wide per-node unfairness distribution.
    pub unfairness: Percentiles,
    /// Latest epoch's fleet-wide per-app slowdown distribution.
    pub slowdown: Percentiles,
}

impl FleetAggregator {
    /// An aggregator over `nodes` nodes, all gauges zero.
    pub fn new(nodes: usize) -> FleetAggregator {
        FleetAggregator {
            nodes: vec![NodeGauges::default(); nodes],
            ..FleetAggregator::default()
        }
    }

    /// Updates one node's gauges.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node id.
    pub fn set_node(&mut self, node: usize, gauges: NodeGauges) {
        self.nodes[node] = gauges;
    }

    /// The latest gauges of every node, indexed by node id.
    pub fn nodes(&self) -> &[NodeGauges] {
        &self.nodes
    }

    /// Records the epoch's fleet-wide distributions (sorts both sample
    /// sets in place).
    pub fn observe_epoch(&mut self, unfairness: &mut [f64], slowdowns: &mut [f64]) {
        self.unfairness = Percentiles::from_samples(unfairness);
        self.slowdown = Percentiles::from_samples(slowdowns);
    }

    /// Number of nodes currently hosting at least one application.
    pub fn active_nodes(&self) -> u64 {
        self.nodes.iter().filter(|n| n.apps > 0).count() as u64
    }

    /// Number of applications currently placed fleet-wide.
    pub fn running_apps(&self) -> u64 {
        self.nodes.iter().map(|n| n.apps).sum()
    }

    /// Renders the whole aggregate as a deterministic JSON document:
    /// counters, distributions, then per-node gauges in node-id order.
    /// Only active nodes are listed (a 1000-node fleet is mostly empty).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::new(&mut out);
        w.begin_obj();
        w.key("placements").num(self.placements as f64);
        w.key("deferrals").num(self.deferrals as f64);
        w.key("departures").num(self.departures as f64);
        w.key("migrations").num(self.migrations as f64);
        w.key("node_boots").num(self.node_boots as f64);
        w.key("node_teardowns").num(self.node_teardowns as f64);
        w.key("active_nodes").num(self.active_nodes() as f64);
        w.key("running_apps").num(self.running_apps() as f64);
        w.key("unfairness");
        self.unfairness.emit(&mut w);
        w.key("slowdown");
        self.slowdown.emit(&mut w);
        w.key("nodes").begin_arr();
        for (id, n) in self.nodes.iter().enumerate().filter(|(_, n)| n.apps > 0) {
            w.begin_obj();
            w.key("node").num(id as f64);
            w.key("apps").num(n.apps as f64);
            w.key("unfairness").num(n.unfairness);
            w.key("unfairness_ewma").num(n.unfairness_ewma);
            w.end_obj();
        }
        w.end_arr().end_obj();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::from_samples(&mut xs);
        assert_eq!(p.count, 100);
        assert_eq!(p.p50, 51.0); // round(99 * 0.5) = 50 → xs[50]
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
        assert_eq!(Percentiles::from_samples(&mut []), Percentiles::default());
    }

    #[test]
    fn aggregator_counts_active_nodes_and_renders_deterministically() {
        let mut agg = FleetAggregator::new(4);
        agg.set_node(
            2,
            NodeGauges {
                apps: 3,
                unfairness: 0.25,
                unfairness_ewma: 0.2,
            },
        );
        agg.placements = 3;
        agg.observe_epoch(&mut [0.25], &mut [1.0, 1.5, 2.0]);
        assert_eq!(agg.active_nodes(), 1);
        assert_eq!(agg.running_apps(), 3);
        let a = agg.render_json();
        let b = agg.render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"migrations\":0"));
        assert!(a.contains("\"node\":2"));
        assert!(!a.contains("\"node\":0"), "empty nodes are omitted");
    }
}
