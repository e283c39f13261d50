//! resctrl-filesystem commands: `resctrl-status`, `resctrl-apply`,
//! `resctrl-init`.

use copart_rdt::resctrl::Schemata;
use copart_rdt::{CbmMask, FileCounterSource, MbaLevel, RdtCapabilities, ResctrlBackend};
use std::path::Path;

use crate::args::Options;

/// `copart resctrl-status`: list the tree's capabilities and every
/// group's schemata.
pub fn status(opts: &Options) -> Result<(), String> {
    let root = opts.required("root")?;
    let backend = ResctrlBackend::mount(root, FileCounterSource)
        .map_err(|e| format!("cannot mount {root}: {e}"))?;
    let caps = backend.capabilities();
    outln!("resctrl tree at {root}");
    outln!(
        "  {} LLC ways, {} CLOSes, MBA {}%..100% step {}%",
        caps.llc_ways,
        caps.num_clos,
        caps.mba_min_percent,
        caps.mba_step_percent
    );

    // Groups are directories containing a schemata file (plus the root's
    // own default schemata).
    outln!("\ngroups:");
    print_group(Path::new(root), "(default)")?;
    let entries = std::fs::read_dir(root).map_err(|e| e.to_string())?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("schemata").exists())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        print_group(&Path::new(root).join(&name), &name)?;
    }
    Ok(())
}

fn print_group(dir: &Path, label: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(dir.join("schemata")).map_err(|e| format!("{label}: {e}"))?;
    let s = Schemata::parse(&text).map_err(|e| format!("{label}: {e}"))?;
    let l3 =
        s.l3.get(&0)
            .map(|b| format!("{:#x} ({} ways)", b, b.count_ones()))
            .unwrap_or_else(|| "-".into());
    let mb =
        s.mb.get(&0)
            .map(|p| format!("{p}%"))
            .unwrap_or_else(|| "-".into());
    outln!("  {label:<16} L3 {l3:<18} MB {mb}");
    Ok(())
}

/// `copart resctrl-apply`: program one group.
pub fn apply(opts: &Options) -> Result<(), String> {
    let root = opts.required("root")?;
    let group = opts.required("group")?;
    let ways_spec = opts.required("ways")?;
    let mba: u8 = opts.number("mba", 100u8)?;

    let (count, first) = match ways_spec.split_once('@') {
        Some((c, f)) => (
            c.parse::<u32>().map_err(|_| "bad way count".to_string())?,
            f.parse::<u32>().map_err(|_| "bad first way".to_string())?,
        ),
        None => (
            ways_spec
                .parse::<u32>()
                .map_err(|_| "bad way count".to_string())?,
            0,
        ),
    };

    let mut backend = ResctrlBackend::mount(root, FileCounterSource)
        .map_err(|e| format!("cannot mount {root}: {e}"))?;
    let caps = backend.capabilities();
    let mask = CbmMask::contiguous(first, count, caps.llc_ways)
        .map_err(|e| format!("invalid way range: {e}"))?;
    let clos = backend
        .create_group(group)
        .map_err(|e| format!("cannot create group {group}: {e}"))?;
    backend
        .set_cbm(clos, mask)
        .map_err(|e| format!("cannot program mask: {e}"))?;
    backend
        .set_mba(clos, MbaLevel::new(mba))
        .map_err(|e| format!("cannot program MBA: {e}"))?;
    outln!(
        "programmed {group}: L3 mask {mask} ({count} ways from way {first}), MBA {}",
        MbaLevel::new(mba)
    );
    Ok(())
}

/// `copart resctrl-init`: create a mock tree (dry-run environments).
pub fn init(opts: &Options) -> Result<(), String> {
    let root = opts.required("root")?;
    let llc_ways: u32 = opts.number("llc-ways", 11u32)?;
    if !(1..=31).contains(&llc_ways) {
        return Err("--llc-ways must be between 1 and 31".into());
    }
    let caps = RdtCapabilities {
        llc_ways,
        num_clos: 16,
        mba_min_percent: 10,
        mba_step_percent: 10,
    };
    ResctrlBackend::<FileCounterSource>::create_mock_tree(Path::new(root), caps)
        .map_err(|e| format!("cannot create tree: {e}"))?;
    outln!("mock resctrl tree created at {root} ({llc_ways} ways)");
    Ok(())
}

/// `copart monitor`: sample each group's MBM/occupancy a few times and
/// print bandwidth rates.
pub fn monitor(opts: &Options) -> Result<(), String> {
    let root = opts.required("root")?;
    let interval_ms: u64 = opts.number("interval-ms", 1000u64)?;
    let count: u32 = opts.number("count", 5u32)?;
    let mut backend = ResctrlBackend::mount(root, FileCounterSource)
        .map_err(|e| format!("cannot mount {root}: {e}"))?;

    // Adopt every existing group directory.
    let entries = std::fs::read_dir(root).map_err(|e| e.to_string())?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("mon_data").exists())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    if names.is_empty() {
        return Err("no monitorable groups under this root".into());
    }
    let groups: Vec<_> = names
        .iter()
        .map(|n| backend.create_group(n).map(|g| (g, n.clone())))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot adopt groups: {e}"))?;

    let mut last: Vec<(u64, std::time::Instant)> = Vec::new();
    for round in 0..count {
        let now = std::time::Instant::now();
        let readings: Vec<u64> = groups
            .iter()
            .map(|(g, _)| backend.read_mbm_total_bytes(*g).unwrap_or(0))
            .collect();
        if round > 0 {
            outln!("--");
            for (((g, name), bytes), (prev_bytes, prev_t)) in
                groups.iter().zip(&readings).zip(&last)
            {
                let dt = now.duration_since(*prev_t).as_secs_f64();
                let rate = (bytes.saturating_sub(*prev_bytes)) as f64 / dt.max(1e-9);
                let occ = backend.read_llc_occupancy_bytes(*g).unwrap_or(0);
                outln!(
                    "{name:<16} bw {:>10.3e} B/s   llc_occupancy {:>12} B",
                    rate,
                    occ
                );
            }
        }
        last = readings.into_iter().map(|b| (b, now)).collect();
        if round + 1 < count {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    Ok(())
}

// `RdtBackend` trait must be in scope for set_cbm/set_mba/capabilities.
use copart_rdt::RdtBackend as _;
