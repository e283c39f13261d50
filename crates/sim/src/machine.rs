//! The composed server: CLOS table, applications, PMCs, clock.

use std::collections::BTreeMap;
use std::fmt;

use copart_telemetry::CounterSnapshot;

use crate::cache::{CacheConfig, SampledCache};
use crate::timing::{
    self, AppTimingParams, AppWindowResult, TimingConfig, WindowInputs, WindowScratch,
};
use crate::trace::{AccessPattern, TraceGenerator, BURST_LEN};
use crate::{CbmMask, ClosId, MachineConfig, MaskError, MbaLevel};

/// A static description of an application's execution behaviour.
///
/// These parameters — plus the phase mixture — fully determine how the
/// application responds to LLC capacity and memory bandwidth, and are the
/// calibration surface of the workload models in `copart-workloads`.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Human-readable name (e.g. `"water_nsquared"`).
    pub name: String,
    /// Dedicated cores (threads are pinned, as in §3.3 of the paper).
    pub cores: u32,
    /// Peak per-core IPC when never missing in the LLC.
    pub ipc_peak: f64,
    /// LLC accesses per kilo-instruction.
    pub apki: f64,
    /// Fraction of LLC accesses that are writes (drives writeback traffic).
    pub write_fraction: f64,
    /// Memory-level parallelism (overlapping outstanding misses).
    pub mlp: f64,
    /// Weighted access-phase mixture describing the memory reference
    /// stream.
    pub phases: Vec<(f64, AccessPattern)>,
}

/// Handle identifying an application inside a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppHandle(u32);

impl AppHandle {
    /// The raw slot index — the snapshot/restore seam for backend group
    /// tables that must persist handle values across a crash.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from its raw slot index. Only meaningful for
    /// values previously obtained from [`AppHandle::raw`] against the
    /// same (or a faithfully restored) machine.
    pub fn from_raw(raw: u32) -> AppHandle {
        AppHandle(raw)
    }
}

impl fmt::Display for AppHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// Errors from machine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Not enough free cores to admit the application.
    NoCoresAvailable {
        /// Cores requested.
        requested: u32,
        /// Cores currently free.
        free: u32,
    },
    /// The application handle does not exist (or was removed).
    UnknownApp(AppHandle),
    /// The CLOS has not been configured.
    UnknownClos(ClosId),
    /// An invalid CAT mask.
    Mask(MaskError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoCoresAvailable { requested, free } => {
                write!(f, "requested {requested} cores but only {free} are free")
            }
            SimError::UnknownApp(h) => write!(f, "unknown application {h}"),
            SimError::UnknownClos(c) => write!(f, "unconfigured {c}"),
            SimError::Mask(e) => write!(f, "invalid CAT mask: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MaskError> for SimError {
    fn from(e: MaskError) -> Self {
        SimError::Mask(e)
    }
}

/// Per-window simulation results for one application, useful for
/// experiment harnesses and debugging; the controller itself only reads
/// the PMCs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowReport {
    /// The application.
    pub app: AppHandle,
    /// Achieved instructions per second.
    pub ips: f64,
    /// LLC miss ratio this window.
    pub miss_ratio: f64,
    /// Memory traffic demanded, bytes/second.
    pub demand_bw: f64,
    /// Memory traffic granted, bytes/second.
    pub granted_bw: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ClosConfig {
    mask: CbmMask,
    mba: MbaLevel,
}

/// Frozen state of one live application inside a [`MachineSnapshot`]:
/// the full spec, CLOS assignment, trace-generator position, estimator
/// state, and cumulative PMC accumulators (kept as `f64` exactly as the
/// machine accumulates them, so a restored run produces bit-identical
/// counter readings).
#[derive(Debug, Clone, PartialEq)]
pub struct SimAppSnapshot {
    /// The application's full spec (unscaled phases).
    pub spec: AppSpec,
    /// Raw CLOS id the application runs under.
    pub clos: u16,
    /// Mid-stream position of the trace generator.
    pub gen: crate::trace::TraceGenSnapshot,
    /// IPS estimate used to size the next window's access quota.
    pub ips_estimate: f64,
    /// Smoothed miss ratio.
    pub miss_ratio: f64,
    /// Smoothed writebacks per access.
    pub wb_per_access: f64,
    /// Cumulative instructions (f64 accumulator).
    pub instructions: f64,
    /// Cumulative cycles (f64 accumulator).
    pub cycles: f64,
    /// Cumulative LLC accesses (f64 accumulator).
    pub accesses: f64,
    /// Cumulative LLC misses (f64 accumulator).
    pub misses: f64,
    /// Cumulative memory traffic in bytes (f64 accumulator).
    pub mem_traffic_bytes: f64,
}

/// Complete dynamic state of a [`Machine`]: virtual time, the CLOS table,
/// every application slot (removed-app holes preserved, so handles stay
/// stable), and the shared cache contents. Together with the
/// [`MachineConfig`] the machine was built from, this fully determines
/// all future behaviour — restoring it mid-run continues the simulation
/// bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSnapshot {
    /// Virtual time in nanoseconds.
    pub time_ns: u64,
    /// CLOS table as `(raw id, CAT mask bits, MBA percent)` triples.
    pub clos_table: Vec<(u16, u32, u8)>,
    /// Application slots in handle order; `None` marks a removed app.
    pub apps: Vec<Option<SimAppSnapshot>>,
    /// Shared LLC contents.
    pub cache: crate::cache::CacheSnapshot,
}

#[derive(Debug, Clone)]
struct SimApp {
    spec: AppSpec,
    clos: ClosId,
    gen: TraceGenerator,
    /// IPS estimate used to size the next window's access quota.
    ips_estimate: f64,
    /// Smoothed miss ratio and writebacks-per-access.
    miss_ratio: f64,
    wb_per_access: f64,
    /// Cumulative counters (f64 accumulators, exported as integers).
    instructions: f64,
    cycles: f64,
    accesses: f64,
    misses: f64,
    /// Cumulative memory traffic in bytes (the MBM `mbm_total_bytes`
    /// monitoring event: misses + writebacks actually served).
    mem_traffic_bytes: f64,
}

/// Reusable per-window buffers so steady-state [`Machine::tick`] calls
/// stay off the heap: the live-app index, sampling quotas and tallies,
/// timing inputs/outputs, and the report vector handed back to callers.
/// Everything indexed by `k` is parallel to `live`.
#[derive(Debug, Default, Clone)]
struct TickScratch {
    live: Vec<usize>,
    /// Each live app's CLOS and its configuration, resolved once per
    /// window.
    clos: Vec<(ClosId, ClosConfig)>,
    quotas: Vec<u64>,
    remaining: Vec<u64>,
    sampled_hits: Vec<u64>,
    sampled_accesses: Vec<u64>,
    sampled_writebacks: Vec<u64>,
    sampled_prefetch_fills: Vec<u64>,
    timing_in: Vec<(AppTimingParams, WindowInputs)>,
    solved: Vec<AppWindowResult>,
    timing: WindowScratch,
    reports: Vec<WindowReport>,
}

/// The simulated server.
///
/// A `Machine` owns the shared LLC, the CLOS configuration table, and the
/// consolidated applications. Time advances only through [`Machine::tick`],
/// which simulates one adaptation window: sampled cache accesses are
/// interleaved across applications, the timing fixed point is solved, and
/// the per-application PMCs advance.
///
/// A clone is an independent machine in the same state: it ticks on
/// exactly as the original would (the trace generators share only their
/// immutable Zipf step tables).
#[derive(Clone)]
pub struct Machine {
    cfg: MachineConfig,
    timing_cfg: TimingConfig,
    cache: SampledCache,
    clos_table: BTreeMap<ClosId, ClosConfig>,
    apps: Vec<Option<SimApp>>,
    cores_used: u32,
    time_ns: u64,
    scratch: TickScratch,
}

impl Machine {
    /// Builds a machine; CLOS 0 starts configured with the full way mask
    /// and an unthrottled MBA level, matching resctrl's default group.
    pub fn new(cfg: MachineConfig) -> Machine {
        cfg.assert_valid();
        let cache = SampledCache::new(CacheConfig {
            sets: cfg.sim_sets(),
            ways: cfg.llc_ways,
            line_bytes: cfg.line_bytes,
        });
        let timing_cfg = TimingConfig {
            freq_hz: cfg.freq_hz,
            mem_latency_ns: cfg.mem_latency_ns,
            total_bw: cfg.mem_bw_bytes_per_sec,
            line_bytes: cfg.line_bytes as f64,
        };
        let mut clos_table = BTreeMap::new();
        clos_table.insert(
            ClosId(0),
            ClosConfig {
                mask: CbmMask::full(cfg.llc_ways),
                mba: MbaLevel::MAX,
            },
        );
        Machine {
            cfg,
            timing_cfg,
            cache,
            clos_table,
            apps: Vec::new(),
            cores_used: 0,
            time_ns: 0,
            scratch: TickScratch::default(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.time_ns
    }

    /// Cores not yet dedicated to any application.
    pub fn free_cores(&self) -> u32 {
        self.cfg.n_cores - self.cores_used
    }

    /// Admits an application, assigning it to `clos`.
    ///
    /// # Errors
    ///
    /// Fails if the CLOS is unconfigured or not enough cores are free.
    pub fn add_app(&mut self, spec: AppSpec, clos: ClosId) -> Result<AppHandle, SimError> {
        if !self.clos_table.contains_key(&clos) {
            return Err(SimError::UnknownClos(clos));
        }
        let free = self.free_cores();
        if spec.cores == 0 || spec.cores > free {
            return Err(SimError::NoCoresAvailable {
                requested: spec.cores,
                free,
            });
        }
        let handle = AppHandle(self.apps.len() as u32);
        // Scale pattern footprints to match the sampled cache, and give
        // each application a private tag space.
        let scaled: Vec<(f64, AccessPattern)> = spec
            .phases
            .iter()
            .map(|(w, p)| (*w, p.scaled(self.cfg.scale, self.cfg.line_bytes)))
            .collect();
        let seed = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(handle.0));
        let mut gen = TraceGenerator::new(&scaled, self.cfg.line_bytes, seed);
        // Pre-roll so phase cursors are decorrelated across apps.
        for _ in 0..(u64::from(handle.0) * 97 % 1024) {
            let _ = gen.next_addr();
        }
        let bootstrap_ips = f64::from(spec.cores) * self.cfg.freq_hz * spec.ipc_peak * 0.5;
        self.cores_used += spec.cores;
        self.apps.push(Some(SimApp {
            spec,
            clos,
            gen,
            ips_estimate: bootstrap_ips,
            miss_ratio: 0.5,
            wb_per_access: 0.0,
            instructions: 0.0,
            cycles: 0.0,
            accesses: 0.0,
            misses: 0.0,
            mem_traffic_bytes: 0.0,
        }));
        Ok(handle)
    }

    /// Removes an application, freeing its cores. Its cache lines remain
    /// resident until naturally evicted, as on real hardware.
    pub fn remove_app(&mut self, app: AppHandle) -> Result<(), SimError> {
        let slot = self
            .apps
            .get_mut(app.0 as usize)
            .ok_or(SimError::UnknownApp(app))?;
        let sim_app = slot.take().ok_or(SimError::UnknownApp(app))?;
        self.cores_used -= sim_app.spec.cores;
        Ok(())
    }

    /// Live application handles, in admission order.
    pub fn apps(&self) -> Vec<AppHandle> {
        self.apps
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|_| AppHandle(i as u32)))
            .collect()
    }

    /// Configures (or creates) a CLOS with the given CAT mask.
    ///
    /// # Errors
    ///
    /// Fails if the mask is invalid for this machine's way count.
    pub fn set_cbm(&mut self, clos: ClosId, mask: CbmMask) -> Result<(), SimError> {
        CbmMask::new(mask.bits(), self.cfg.llc_ways)?;
        self.clos_table
            .entry(clos)
            .or_insert(ClosConfig {
                mask,
                mba: MbaLevel::MAX,
            })
            .mask = mask;
        Ok(())
    }

    /// Configures (or creates) a CLOS with the given MBA level.
    pub fn set_mba(&mut self, clos: ClosId, level: MbaLevel) {
        self.clos_table
            .entry(clos)
            .or_insert(ClosConfig {
                mask: CbmMask::full(self.cfg.llc_ways),
                mba: MbaLevel::MAX,
            })
            .mba = level;
    }

    /// Reads a CLOS configuration, if defined.
    pub fn clos_config(&self, clos: ClosId) -> Option<(CbmMask, MbaLevel)> {
        self.clos_table.get(&clos).map(|c| (c.mask, c.mba))
    }

    /// The CLOS a live application currently runs under — the ground
    /// truth that backend-level group tables (e.g. `SimBackend`'s) must
    /// stay consistent with.
    ///
    /// # Errors
    ///
    /// Fails on an unknown or removed application.
    pub fn app_clos(&self, app: AppHandle) -> Result<ClosId, SimError> {
        Ok(self.live(app)?.clos)
    }

    /// LLC occupancy (bytes, unscaled) attributed to the application's
    /// CLOS, emulating the `llc_occupancy` monitoring event.
    pub fn llc_occupancy_bytes(&self, app: AppHandle) -> Result<u64, SimError> {
        let clos = self.live(app)?.clos;
        Ok(self.cache.occupancy_lines(clos) * self.cfg.line_bytes * u64::from(self.cfg.scale))
    }

    /// Replaces a live application's access-phase mixture and execution
    /// parameters mid-run, modelling a program phase change (e.g. an
    /// in-memory analytics job moving from scan to aggregate). Counters
    /// and the CLOS assignment are preserved; the trace generator restarts
    /// on the new mixture.
    ///
    /// # Errors
    ///
    /// Fails on an unknown application.
    pub fn set_app_behaviour(
        &mut self,
        app: AppHandle,
        ipc_peak: f64,
        apki: f64,
        mlp: f64,
        phases: Vec<(f64, AccessPattern)>,
    ) -> Result<(), SimError> {
        let scale = self.cfg.scale;
        let line_bytes = self.cfg.line_bytes;
        let seed = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(app.0) ^ 0x5eed);
        let a = self.live_mut(app)?;
        a.spec.ipc_peak = ipc_peak;
        a.spec.apki = apki;
        a.spec.mlp = mlp;
        let scaled: Vec<(f64, AccessPattern)> = phases
            .iter()
            .map(|(w, p)| (*w, p.scaled(scale, line_bytes)))
            .collect();
        a.spec.phases = phases;
        a.gen = TraceGenerator::new(&scaled, line_bytes, seed);
        // Let the estimators re-learn the new behaviour quickly.
        a.miss_ratio = 0.5;
        a.wb_per_access = 0.0;
        Ok(())
    }

    /// Cumulative memory traffic in bytes attributed to the application,
    /// emulating RDT's `mbm_total_bytes` monitoring event.
    pub fn mbm_total_bytes(&self, app: AppHandle) -> Result<u64, SimError> {
        Ok(self.live(app)?.mem_traffic_bytes as u64)
    }

    /// Reads the application's cumulative PMCs.
    pub fn counters(&self, app: AppHandle) -> Result<CounterSnapshot, SimError> {
        let a = self.live(app)?;
        Ok(CounterSnapshot {
            timestamp_ns: self.time_ns,
            instructions: a.instructions as u64,
            cycles: a.cycles as u64,
            llc_accesses: a.accesses as u64,
            llc_misses: a.misses as u64,
        })
    }

    /// Advances virtual time by `window_ns`, simulating one window.
    ///
    /// Returns one report per live application (admission order); the
    /// slice is backed by an internal buffer and stays valid until the
    /// next `tick`. Steady-state ticks reuse all window buffers and do
    /// not touch the heap.
    pub fn tick(&mut self, window_ns: u64) -> &[WindowReport] {
        let Machine {
            cfg,
            timing_cfg,
            cache,
            clos_table,
            apps,
            time_ns,
            scratch,
            ..
        } = self;
        let TickScratch {
            live,
            clos: resolved,
            quotas,
            remaining,
            sampled_hits,
            sampled_accesses,
            sampled_writebacks,
            sampled_prefetch_fills,
            timing_in,
            solved,
            timing,
            reports,
        } = scratch;

        let dt = window_ns as f64 / 1e9;
        live.clear();
        live.extend((0..apps.len()).filter(|&i| apps[i].is_some()));
        reports.clear();
        if live.is_empty() {
            sampled_accesses.clear();
            *time_ns += window_ns;
            return reports;
        }

        // --- Phase 1: sampled cache simulation, interleaved. ---
        // Quota per app: expected accesses this window, reduced by the
        // sampling scale; if any quota exceeds the budget, shrink all
        // proportionally so relative cache pressure is preserved.
        quotas.clear();
        quotas.extend(live.iter().map(|&i| {
            let a = apps[i].as_ref().expect("live");
            let expected = a.ips_estimate * a.spec.apki / 1000.0 * dt;
            (expected / f64::from(cfg.scale)).round() as u64
        }));
        let max_quota = quotas.iter().copied().max().unwrap_or(0);
        let budget = u64::from(cfg.window_sample_budget);
        if max_quota > budget {
            let shrink = budget as f64 / max_quota as f64;
            for q in quotas.iter_mut() {
                *q = ((*q as f64) * shrink).round() as u64;
            }
        }

        sampled_hits.clear();
        sampled_hits.resize(live.len(), 0);
        sampled_accesses.clear();
        sampled_accesses.resize(live.len(), 0);
        sampled_writebacks.clear();
        sampled_writebacks.resize(live.len(), 0);
        sampled_prefetch_fills.clear();
        sampled_prefetch_fills.resize(live.len(), 0);
        remaining.clear();
        remaining.extend_from_slice(quotas);
        resolved.clear();
        resolved.extend(live.iter().map(|&i| {
            let clos = apps[i].as_ref().expect("live").clos;
            (clos, clos_table[&clos])
        }));
        // Apps take turns a burst at a time. A generator's RNG is its
        // app's own, so drawing a whole burst before walking it through
        // the shared cache reorders nothing.
        let mut block = [0u64; BURST_LEN as usize];
        loop {
            let mut any = false;
            for (k, &i) in live.iter().enumerate() {
                if remaining[k] == 0 {
                    continue;
                }
                any = true;
                let burst = remaining[k].min(u64::from(BURST_LEN));
                remaining[k] -= burst;
                let a = apps[i].as_mut().expect("live");
                let (clos, ClosConfig { mask, .. }) = resolved[k];
                let base = u64::from(i as u32 + 1) << 44;
                let block = &mut block[..burst as usize];
                let writes = a.gen.fill(a.spec.write_fraction, block);
                let t = cache.access_burst(clos, mask, base, block, writes, cfg.prefetch_next_line);
                sampled_accesses[k] += burst;
                sampled_hits[k] += t.hits;
                sampled_writebacks[k] += t.writebacks;
                sampled_prefetch_fills[k] += t.prefetch_fills;
            }
            if !any {
                break;
            }
        }

        // --- Phase 2: timing fixed point. ---
        timing_in.clear();
        for (k, &i) in live.iter().enumerate() {
            let a = apps[i].as_mut().expect("live");
            if sampled_accesses[k] > 0 {
                let mr = 1.0 - sampled_hits[k] as f64 / sampled_accesses[k] as f64;
                let wb = sampled_writebacks[k] as f64 / sampled_accesses[k] as f64;
                // Light smoothing across windows: the cache state already
                // carries history, this just damps sampling noise.
                a.miss_ratio = 0.5 * a.miss_ratio + 0.5 * mr;
                a.wb_per_access = 0.5 * a.wb_per_access + 0.5 * wb;
            } else {
                a.miss_ratio = 0.0;
                a.wb_per_access = 0.0;
            }
            // Prefetch fills consume bus bandwidth like demand misses.
            let prefetch_per_access = if sampled_accesses[k] > 0 {
                sampled_prefetch_fills[k] as f64 / sampled_accesses[k] as f64
            } else {
                0.0
            };
            let (_, cc) = resolved[k];
            timing_in.push((
                AppTimingParams {
                    cores: a.spec.cores,
                    ipc_peak: a.spec.ipc_peak,
                    apki: a.spec.apki,
                    mlp: a.spec.mlp,
                },
                WindowInputs {
                    miss_ratio: a.miss_ratio,
                    wb_per_access: a.wb_per_access + prefetch_per_access,
                    bw_cap: cfg.mba_bandwidth_cap(a.spec.cores, cc.mba),
                    lat_factor: cfg.mba_latency_factor(cc.mba),
                },
            ));
        }
        timing::solve_window_into(timing_cfg, timing_in, solved, timing);

        // --- Phase 3: advance PMCs. ---
        for (k, &i) in live.iter().enumerate() {
            let a = apps[i].as_mut().expect("live");
            let r = solved[k];
            let instr = r.ips * dt;
            let accesses = instr * a.spec.apki / 1000.0;
            a.instructions += instr;
            a.accesses += accesses;
            a.misses += accesses * a.miss_ratio;
            a.cycles += f64::from(a.spec.cores) * cfg.freq_hz * dt;
            // Achieved memory traffic: bounded by the bandwidth grant, so
            // this is what a memory-bandwidth monitor would count.
            a.mem_traffic_bytes +=
                accesses * (a.miss_ratio + a.wb_per_access) * cfg.line_bytes as f64;
            a.ips_estimate = r.ips;
            reports.push(WindowReport {
                app: AppHandle(i as u32),
                ips: r.ips,
                miss_ratio: a.miss_ratio,
                demand_bw: r.demand_bw,
                granted_bw: r.granted_bw,
            });
        }
        *time_ns += window_ns;
        reports
    }

    /// Sampled cache accesses the most recent [`Machine::tick`] simulated,
    /// summed over the live applications — the unit of simulator work
    /// (host time per tick ÷ this is the cost of one access). Zero
    /// before the first tick.
    pub fn sampled_accesses(&self) -> u64 {
        self.scratch.sampled_accesses.iter().sum()
    }

    /// Runs `n` windows of `window_ns`, returning the average IPS of each
    /// live application over the last `measure` windows (a convenience for
    /// profiling and experiments: warm up, then measure).
    pub fn run_windows(&mut self, window_ns: u64, n: u32, measure: u32) -> Vec<(AppHandle, f64)> {
        assert!(
            measure >= 1 && measure <= n,
            "measure must be within run length"
        );
        let mut sums: BTreeMap<AppHandle, (f64, u32)> = BTreeMap::new();
        for round in 0..n {
            let reports = self.tick(window_ns);
            if round >= n - measure {
                for r in reports {
                    let e = sums.entry(r.app).or_insert((0.0, 0));
                    e.0 += r.ips;
                    e.1 += 1;
                }
            }
        }
        sums.into_iter()
            .map(|(h, (s, c))| (h, s / f64::from(c.max(1))))
            .collect()
    }

    fn live(&self, app: AppHandle) -> Result<&SimApp, SimError> {
        self.apps
            .get(app.0 as usize)
            .and_then(|a| a.as_ref())
            .ok_or(SimError::UnknownApp(app))
    }

    fn live_mut(&mut self, app: AppHandle) -> Result<&mut SimApp, SimError> {
        self.apps
            .get_mut(app.0 as usize)
            .and_then(|a| a.as_mut())
            .ok_or(SimError::UnknownApp(app))
    }

    /// Captures the machine's complete dynamic state.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            time_ns: self.time_ns,
            clos_table: self
                .clos_table
                .iter()
                .map(|(id, c)| (id.0, c.mask.bits(), c.mba.percent()))
                .collect(),
            apps: self
                .apps
                .iter()
                .map(|slot| {
                    slot.as_ref().map(|a| SimAppSnapshot {
                        spec: a.spec.clone(),
                        clos: a.clos.0,
                        gen: a.gen.snapshot(),
                        ips_estimate: a.ips_estimate,
                        miss_ratio: a.miss_ratio,
                        wb_per_access: a.wb_per_access,
                        instructions: a.instructions,
                        cycles: a.cycles,
                        accesses: a.accesses,
                        misses: a.misses,
                        mem_traffic_bytes: a.mem_traffic_bytes,
                    })
                })
                .collect(),
            cache: self.cache.snapshot(),
        }
    }

    /// Restores dynamic state captured from a machine built with the same
    /// [`MachineConfig`]. Removed-app holes are reproduced so application
    /// handles keep their original meaning; trace generators are rebuilt
    /// over each spec's scaled phase mixture and resumed mid-stream.
    ///
    /// # Errors
    ///
    /// Fails if a CLOS mask in the snapshot is invalid for this machine's
    /// way count (the snapshot belongs to a different geometry).
    ///
    /// # Panics
    ///
    /// Panics if the cache snapshot or a trace-generator snapshot does
    /// not match this machine's geometry or the spec's phase mixture.
    pub fn restore(&mut self, snap: &MachineSnapshot) -> Result<(), SimError> {
        let mut clos_table = BTreeMap::new();
        for &(id, bits, percent) in &snap.clos_table {
            let mask = CbmMask::new(bits, self.cfg.llc_ways)?;
            clos_table.insert(
                ClosId(id),
                ClosConfig {
                    mask,
                    mba: MbaLevel::new(percent),
                },
            );
        }
        let mut apps: Vec<Option<SimApp>> = Vec::with_capacity(snap.apps.len());
        let mut cores_used = 0;
        for slot in &snap.apps {
            apps.push(slot.as_ref().map(|s| {
                cores_used += s.spec.cores;
                let scaled: Vec<(f64, AccessPattern)> = s
                    .spec
                    .phases
                    .iter()
                    .map(|(w, p)| (*w, p.scaled(self.cfg.scale, self.cfg.line_bytes)))
                    .collect();
                let mut gen = TraceGenerator::new(&scaled, self.cfg.line_bytes, 0);
                gen.restore(&s.gen);
                SimApp {
                    spec: s.spec.clone(),
                    clos: ClosId(s.clos),
                    gen,
                    ips_estimate: s.ips_estimate,
                    miss_ratio: s.miss_ratio,
                    wb_per_access: s.wb_per_access,
                    instructions: s.instructions,
                    cycles: s.cycles,
                    accesses: s.accesses,
                    misses: s.misses,
                    mem_traffic_bytes: s.mem_traffic_bytes,
                }
            }));
        }
        self.cache.restore(&snap.cache);
        self.clos_table = clos_table;
        self.apps = apps;
        self.cores_used = cores_used;
        self.time_ns = snap.time_ns;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_spec(name: &str, cores: u32) -> AppSpec {
        AppSpec {
            name: name.into(),
            cores,
            ipc_peak: 1.5,
            apki: 0.01,
            write_fraction: 0.0,
            mlp: 4.0,
            phases: vec![(
                1.0,
                AccessPattern::WorkingSetLoop {
                    bytes: 16 * 64,
                    stride: 64,
                },
            )],
        }
    }

    fn stream_spec(name: &str, cores: u32) -> AppSpec {
        AppSpec {
            name: name.into(),
            cores,
            ipc_peak: 1.2,
            apki: 120.0,
            write_fraction: 0.3,
            mlp: 12.0,
            phases: vec![(1.0, AccessPattern::Stream { bytes: 1 << 30 })],
        }
    }

    #[test]
    fn admission_respects_core_budget() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        m.add_app(compute_spec("a", 2), ClosId(0)).unwrap();
        m.add_app(compute_spec("b", 2), ClosId(0)).unwrap();
        let err = m.add_app(compute_spec("c", 1), ClosId(0)).unwrap_err();
        assert!(matches!(err, SimError::NoCoresAvailable { free: 0, .. }));
    }

    #[test]
    fn removal_frees_cores() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = m.add_app(compute_spec("a", 4), ClosId(0)).unwrap();
        m.remove_app(a).unwrap();
        assert_eq!(m.free_cores(), 4);
        assert!(matches!(m.remove_app(a), Err(SimError::UnknownApp(_))));
        assert!(m.add_app(compute_spec("b", 4), ClosId(0)).is_ok());
    }

    #[test]
    fn unknown_clos_is_rejected() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let err = m.add_app(compute_spec("a", 1), ClosId(7)).unwrap_err();
        assert!(matches!(err, SimError::UnknownClos(ClosId(7))));
    }

    #[test]
    fn counters_advance_monotonically() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = m.add_app(compute_spec("a", 2), ClosId(0)).unwrap();
        let s0 = m.counters(a).unwrap();
        m.tick(100_000_000);
        let s1 = m.counters(a).unwrap();
        m.tick(100_000_000);
        let s2 = m.counters(a).unwrap();
        assert!(s1.instructions > s0.instructions);
        assert!(s2.instructions > s1.instructions);
        assert!(s1.delta_since(&s0).is_some());
        assert_eq!(m.now_ns(), 200_000_000);
    }

    #[test]
    fn compute_bound_app_runs_near_peak() {
        let cfg = MachineConfig::tiny_test();
        let peak = 2.0 * cfg.freq_hz * 1.5;
        let mut m = Machine::new(cfg);
        let a = m.add_app(compute_spec("a", 2), ClosId(0)).unwrap();
        let avg = m.run_windows(100_000_000, 10, 5);
        let (h, ips) = avg[0];
        assert_eq!(h, a);
        assert!(ips > peak * 0.95, "ips {ips} vs peak {peak}");
    }

    #[test]
    fn streamer_is_hurt_by_mba_throttling() {
        let cfg = MachineConfig::tiny_test();
        let mut free_m = Machine::new(cfg.clone());
        free_m.add_app(stream_spec("s", 2), ClosId(0)).unwrap();
        let free_ips = free_m.run_windows(100_000_000, 20, 10)[0].1;

        let mut thr_m = Machine::new(cfg);
        thr_m.set_mba(ClosId(0), MbaLevel::MIN);
        thr_m.add_app(stream_spec("s", 2), ClosId(0)).unwrap();
        let thr_ips = thr_m.run_windows(100_000_000, 20, 10)[0].1;
        assert!(
            thr_ips < free_ips * 0.6,
            "throttled {thr_ips} vs free {free_ips}"
        );
    }

    #[test]
    fn cache_partition_protects_a_fitting_working_set() {
        // App A loops over three ways' worth of cache; app B streams. With
        // CAT isolation A keeps hitting; sharing all ways, B thrashes A.
        let cfg = MachineConfig::tiny_test();
        let ws_bytes = 3 * cfg.llc_way_bytes; // Fits in 3 of 4 ways.
        let loop_spec = AppSpec {
            name: "loop".into(),
            cores: 2,
            ipc_peak: 1.5,
            apki: 40.0,
            write_fraction: 0.0,
            mlp: 4.0,
            phases: vec![(
                1.0,
                AccessPattern::WorkingSetLoop {
                    bytes: ws_bytes,
                    stride: 64,
                },
            )],
        };

        let run = |isolated: bool| {
            let mut m = Machine::new(MachineConfig::tiny_test());
            if isolated {
                m.set_cbm(ClosId(0), CbmMask::new(0b0111, 4).unwrap())
                    .unwrap();
                m.set_cbm(ClosId(1), CbmMask::new(0b1000, 4).unwrap())
                    .unwrap();
            } else {
                m.set_cbm(ClosId(0), CbmMask::full(4)).unwrap();
                m.set_cbm(ClosId(1), CbmMask::full(4)).unwrap();
            }
            let a = m.add_app(loop_spec.clone(), ClosId(0)).unwrap();
            m.add_app(stream_spec("s", 2), ClosId(1)).unwrap();
            let avg = m.run_windows(100_000_000, 30, 10);
            avg.iter().find(|(h, _)| *h == a).unwrap().1
        };

        let isolated_ips = run(true);
        let shared_ips = run(false);
        assert!(
            isolated_ips > shared_ips * 1.1,
            "isolated {isolated_ips} vs shared {shared_ips}"
        );
    }

    #[test]
    fn occupancy_reflects_partition_size() {
        let cfg = MachineConfig::tiny_test();
        let mut m = Machine::new(cfg.clone());
        m.set_cbm(ClosId(0), CbmMask::new(0b0001, 4).unwrap())
            .unwrap();
        let a = m.add_app(stream_spec("s", 2), ClosId(0)).unwrap();
        m.run_windows(100_000_000, 10, 1);
        let occ = m.llc_occupancy_bytes(a).unwrap();
        // A streamer fills its one permitted way but cannot exceed it.
        assert!(occ <= cfg.llc_way_bytes + cfg.line_bytes * u64::from(cfg.scale));
        assert!(occ > cfg.llc_way_bytes / 2);
    }

    #[test]
    fn reports_cover_live_apps_only() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = m.add_app(compute_spec("a", 1), ClosId(0)).unwrap();
        let b = m.add_app(compute_spec("b", 1), ClosId(0)).unwrap();
        m.remove_app(a).unwrap();
        let reports = m.tick(50_000_000);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].app, b);
        assert_eq!(m.apps(), vec![b]);
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let mut original = Machine::new(MachineConfig::tiny_test());
        original.add_app(stream_spec("s", 2), ClosId(0)).unwrap();
        let gone = original.add_app(compute_spec("x", 1), ClosId(0)).unwrap();
        let kept = original.add_app(compute_spec("c", 1), ClosId(0)).unwrap();
        original
            .set_cbm(ClosId(1), CbmMask::new(0b0011, 4).unwrap())
            .unwrap();
        original.set_mba(ClosId(1), MbaLevel::new(40));
        original.remove_app(gone).unwrap();
        for _ in 0..7 {
            original.tick(100_000_000);
        }
        let snap = original.snapshot();
        let mut resumed = Machine::new(MachineConfig::tiny_test());
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.now_ns(), original.now_ns());
        assert_eq!(resumed.apps(), original.apps());
        assert_eq!(resumed.free_cores(), original.free_cores());
        assert_eq!(
            resumed.clos_config(ClosId(1)),
            original.clos_config(ClosId(1))
        );
        for _ in 0..10 {
            let a = original.tick(100_000_000).to_vec();
            let b = resumed.tick(100_000_000).to_vec();
            assert_eq!(a, b, "reports diverge after restore");
        }
        assert_eq!(
            original.counters(kept).unwrap(),
            resumed.counters(kept).unwrap()
        );
        assert_eq!(original.snapshot(), resumed.snapshot());
    }

    #[test]
    fn determinism_across_identical_machines() {
        let build = || {
            let mut m = Machine::new(MachineConfig::tiny_test());
            m.add_app(stream_spec("s", 2), ClosId(0)).unwrap();
            m.add_app(compute_spec("c", 1), ClosId(0)).unwrap();
            m
        };
        let mut m1 = build();
        let mut m2 = build();
        for _ in 0..5 {
            let r1 = m1.tick(100_000_000);
            let r2 = m2.tick(100_000_000);
            assert_eq!(r1, r2);
        }
    }
}

#[cfg(test)]
mod mbm_tests {
    use super::*;

    #[test]
    fn mbm_counts_streamer_traffic_but_not_compute() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let streamer = m
            .add_app(
                AppSpec {
                    name: "s".into(),
                    cores: 2,
                    ipc_peak: 1.2,
                    apki: 120.0,
                    write_fraction: 0.3,
                    mlp: 12.0,
                    phases: vec![(1.0, AccessPattern::Stream { bytes: 1 << 30 })],
                },
                ClosId(0),
            )
            .unwrap();
        let compute = m
            .add_app(
                AppSpec {
                    name: "c".into(),
                    cores: 1,
                    ipc_peak: 1.5,
                    apki: 0.01,
                    write_fraction: 0.0,
                    mlp: 4.0,
                    phases: vec![(
                        1.0,
                        AccessPattern::WorkingSetLoop {
                            bytes: 16 * 64,
                            stride: 64,
                        },
                    )],
                },
                ClosId(0),
            )
            .unwrap();
        for _ in 0..20 {
            m.tick(100_000_000);
        }
        let s_bytes = m.mbm_total_bytes(streamer).unwrap();
        let c_bytes = m.mbm_total_bytes(compute).unwrap();
        assert!(
            s_bytes > 100 * c_bytes.max(1),
            "streamer {s_bytes} should dwarf compute {c_bytes}"
        );
        // 2 seconds of traffic bounded by 2 s × bus bandwidth.
        let bound = (2.0 * m.config().mem_bw_bytes_per_sec) as u64;
        assert!(s_bytes <= bound, "{s_bytes} exceeds the bus bound {bound}");
    }

    #[test]
    fn mbm_is_monotone() {
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = m
            .add_app(
                AppSpec {
                    name: "s".into(),
                    cores: 1,
                    ipc_peak: 1.0,
                    apki: 50.0,
                    write_fraction: 0.2,
                    mlp: 8.0,
                    phases: vec![(1.0, AccessPattern::Stream { bytes: 1 << 28 })],
                },
                ClosId(0),
            )
            .unwrap();
        let mut prev = 0;
        for _ in 0..5 {
            m.tick(50_000_000);
            let now = m.mbm_total_bytes(a).unwrap();
            assert!(now >= prev);
            prev = now;
        }
        assert!(prev > 0);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;

    fn latency_bound_streamer() -> AppSpec {
        AppSpec {
            name: "lb-stream".into(),
            cores: 2,
            ipc_peak: 1.2,
            apki: 20.0,
            write_fraction: 0.1,
            mlp: 1.5, // Latency-bound: prefetching should help.
            phases: vec![(1.0, AccessPattern::Stream { bytes: 1 << 28 })],
        }
    }

    fn run_ips(prefetch: bool) -> f64 {
        let mut cfg = MachineConfig::tiny_test();
        cfg.prefetch_next_line = prefetch;
        let mut m = Machine::new(cfg);
        m.add_app(latency_bound_streamer(), ClosId(0)).unwrap();
        m.run_windows(100_000_000, 30, 10)[0].1
    }

    #[test]
    fn next_line_prefetch_helps_latency_bound_streams() {
        let off = run_ips(false);
        let on = run_ips(true);
        assert!(
            on > off * 1.2,
            "prefetching should speed a latency-bound stream: {on:.3e} vs {off:.3e}"
        );
    }

    #[test]
    fn prefetch_does_not_disturb_fitting_working_sets() {
        let spec = AppSpec {
            name: "loop".into(),
            cores: 2,
            ipc_peak: 1.5,
            apki: 40.0,
            write_fraction: 0.0,
            mlp: 4.0,
            phases: vec![(
                1.0,
                AccessPattern::WorkingSetLoop {
                    bytes: 2 * 64 * 1024, // 2 of 4 ways.
                    stride: 64,
                },
            )],
        };
        let run = |prefetch: bool| {
            let mut cfg = MachineConfig::tiny_test();
            cfg.prefetch_next_line = prefetch;
            let mut m = Machine::new(cfg);
            m.add_app(spec.clone(), ClosId(0)).unwrap();
            m.run_windows(100_000_000, 20, 10)[0].1
        };
        let off = run(false);
        let on = run(true);
        assert!(
            (on - off).abs() / off < 0.05,
            "an all-hit loop should be unaffected: {on:.3e} vs {off:.3e}"
        );
    }
}
