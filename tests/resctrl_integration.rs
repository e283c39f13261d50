//! The CoPart controller driving a *resctrl filesystem* instead of the
//! simulator: a mock `/sys/fs/resctrl` tree plus a synthetic counter
//! source whose rates respond to the programmed schemata, so the full
//! profile → explore → idle loop runs through real file I/O.

use std::path::{Path, PathBuf};
use std::time::Duration;

use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::{AllocationState, SystemState, WaysBudget};
use copart_core::{CoPartParams, Phase};
use copart_rdt::resctrl::{CounterSource, Schemata};
use copart_rdt::{
    CbmMask, FileCounterSource, MbaLevel, RdtBackend, RdtCapabilities, RdtError, ResctrlBackend,
};
use copart_telemetry::CounterSnapshot;

fn caps() -> RdtCapabilities {
    RdtCapabilities {
        llc_ways: 11,
        num_clos: 16,
        mba_min_percent: 10,
        mba_step_percent: 10,
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("copart-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A counter source that *reads back the group's schemata* and advances a
/// per-group instruction counter at a rate proportional to the granted
/// ways and MBA level — a crude machine living in the filesystem, enough
/// to close the control loop.
struct SchemataDrivenCounters {
    state: std::collections::HashMap<PathBuf, CounterSnapshot>,
    /// Per-group LLC appetite: ways needed for full speed.
    ways_needed: std::collections::HashMap<String, f64>,
    calls: u64,
}

impl SchemataDrivenCounters {
    fn new(ways_needed: &[(&str, f64)]) -> Self {
        SchemataDrivenCounters {
            state: Default::default(),
            ways_needed: ways_needed
                .iter()
                .map(|(n, w)| (n.to_string(), *w))
                .collect(),
            calls: 0,
        }
    }
}

impl CounterSource for SchemataDrivenCounters {
    fn read(&mut self, group_dir: &Path) -> Result<CounterSnapshot, RdtError> {
        self.calls += 1;
        let text =
            std::fs::read_to_string(group_dir.join("schemata")).map_err(|e| RdtError::Io {
                path: group_dir.display().to_string(),
                source: e,
            })?;
        let schemata = Schemata::parse(&text).map_err(|message| RdtError::Parse {
            path: group_dir.display().to_string(),
            message,
        })?;
        let ways = f64::from(schemata.l3.get(&0).copied().unwrap_or(0).count_ones());
        let mba = f64::from(schemata.mb.get(&0).copied().unwrap_or(100)) / 100.0;
        let name = group_dir
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("")
            .to_string();
        let needed = self.ways_needed.get(&name).copied().unwrap_or(1.0);

        // IPS saturates once the group holds `needed` ways; MBA throttling
        // shaves off a little.
        let ips = 1.0e9 * (ways / needed).min(1.0) * (0.8 + 0.2 * mba);
        let entry = self.state.entry(group_dir.to_path_buf()).or_default();
        // One sampling period is ~1 ms in this test.
        entry.instructions += (ips / 1000.0) as u64;
        entry.cycles += 2_100_000;
        entry.llc_accesses += (ips / 100.0 / 1000.0) as u64;
        entry.llc_misses +=
            ((ways / needed).min(1.0).mul_add(-0.04, 0.05) * ips / 100.0 / 1000.0).max(0.0) as u64;
        Ok(*entry)
    }
}

#[test]
fn system_states_program_schemata_files() {
    let root = temp_root("apply");
    ResctrlBackend::<FileCounterSource>::create_mock_tree(&root, caps()).unwrap();
    let mut backend = ResctrlBackend::mount(&root, FileCounterSource).unwrap();
    let g0 = backend.create_group("app0").unwrap();
    let g1 = backend.create_group("app1").unwrap();
    let g2 = backend.create_group("app2").unwrap();

    let state = SystemState {
        allocs: vec![
            AllocationState {
                ways: 5,
                mba: MbaLevel::new(100),
            },
            AllocationState {
                ways: 4,
                mba: MbaLevel::new(30),
            },
            AllocationState {
                ways: 2,
                mba: MbaLevel::new(60),
            },
        ],
    };
    let budget = WaysBudget::full_machine(11);
    state.apply(&mut backend, &[g0, g1, g2], &budget).unwrap();

    assert_eq!(
        std::fs::read_to_string(root.join("app0/schemata")).unwrap(),
        "L3:0=1f\nMB:0=100\n"
    );
    assert_eq!(
        std::fs::read_to_string(root.join("app1/schemata")).unwrap(),
        "L3:0=1e0\nMB:0=30\n"
    );
    assert_eq!(
        std::fs::read_to_string(root.join("app2/schemata")).unwrap(),
        "L3:0=600\nMB:0=60\n"
    );

    // Round-trip through the backend's parser too.
    let (mask, level) = backend.clos_config(g1).unwrap();
    assert_eq!(mask, CbmMask::contiguous(5, 4, 11).unwrap());
    assert_eq!(level.percent(), 30);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn full_control_loop_over_the_filesystem() {
    let root = temp_root("loop");
    ResctrlBackend::<SchemataDrivenCounters>::create_mock_tree(&root, caps()).unwrap();
    // "hungry" saturates at 6 ways, "modest" at 2, "tiny" at 1.
    let counters = SchemataDrivenCounters::new(&[("hungry", 6.0), ("modest", 2.0), ("tiny", 1.0)]);
    let mut backend = ResctrlBackend::mount(&root, counters).unwrap();
    let hungry = backend.create_group("hungry").unwrap();
    let modest = backend.create_group("modest").unwrap();
    let tiny = backend.create_group("tiny").unwrap();

    let stream = copart_workloads::stream::StreamReference::from_table([
        1e7, 2e7, 3e7, 4e7, 5e7, 6e7, 7e7, 8e7, 9e7, 1e8,
    ]);
    let cfg = RuntimeConfig {
        params: CoPartParams {
            period: Duration::from_millis(1),
            ..CoPartParams::default()
        },
        manage_llc: true,
        manage_mba: true,
        budget: WaysBudget::full_machine(11),
        stream,
        planner: Default::default(),
    };
    let mut rt = ConsolidationRuntime::new(
        backend,
        vec![
            (hungry, "hungry".into()),
            (modest, "modest".into()),
            (tiny, "tiny".into()),
        ],
        cfg,
    )
    .unwrap();
    rt.profile().unwrap();
    for _ in 0..40 {
        rt.run_period().unwrap();
        if rt.phase() == Phase::Idle {
            break;
        }
    }

    // The way-hungry group must have ended up with the most ways, and the
    // final masks must partition the cache — all read back from disk.
    let (hungry_mask, _) = rt.backend().clos_config(hungry).unwrap();
    let (modest_mask, _) = rt.backend().clos_config(modest).unwrap();
    let (tiny_mask, _) = rt.backend().clos_config(tiny).unwrap();
    assert!(
        hungry_mask.way_count() >= modest_mask.way_count(),
        "hungry {} vs modest {}",
        hungry_mask,
        modest_mask
    );
    assert!(hungry_mask.way_count() >= tiny_mask.way_count());
    assert!(!hungry_mask.overlaps(modest_mask));
    assert!(!hungry_mask.overlaps(tiny_mask));
    assert!(!modest_mask.overlaps(tiny_mask));
    let union = hungry_mask.bits() | modest_mask.bits() | tiny_mask.bits();
    assert_eq!(union, 0x7ff, "masks cover the whole LLC");
    let _ = std::fs::remove_dir_all(&root);
}
