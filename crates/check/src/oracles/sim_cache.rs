//! Differential oracle for the simulated LLC
//! (`copart_sim::cache::SampledCache`).
//!
//! The production cache keeps its lines struct-of-arrays with per-set
//! way bitmaps, splits addresses by shift and mask, and picks victims
//! with bit tricks over a CAT mask. `RefCache` below is the cache it
//! replaced, kept verbatim as the reference model: one `Line` struct per
//! way, division and remainder, and a way-by-way victim loop. It is slow
//! and obviously right; the two must agree on every observable.
//!
//! Each case draws a geometry (non-power-of-two set counts included, up
//! to 32 ways so a set's tags span both compare windows), a few CLOSes
//! with contiguous masks that may overlap or not, and an interleaving of
//! `access`, `prefetch`, `access_burst` (with and without prefetch,
//! against the reference's access-by-access loop), `flush` and
//! snapshot→restore (each cache restored from the *other's* snapshot).
//! Lines sit at high address bases and some are aliased `k · sets · 2³²`
//! lines on, so resident tags share low halves and differ only in high
//! ones (`Place`). After every operation the [`AccessOutcome`]s (or
//! burst tallies) and every CLOS's `occupancy_lines` must match, and at
//! every snapshot and at the end the full [`CacheSnapshot`]s must be
//! equal — so every simulated statistic that flows out of the cache is
//! pinned to the reference.

use crate::property::{CaseOutcome, Property};
use crate::source::Source;
use std::fmt;

use copart_sim::cache::{
    AccessOutcome, BurstTallies, CacheConfig, CacheLineSnapshot, CacheSnapshot, SampledCache,
};
use copart_sim::{CbmMask, ClosId};

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    lru: u64,
    owner: ClosId,
    valid: bool,
    dirty: bool,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    lru: 0,
    owner: ClosId(0),
    valid: false,
    dirty: false,
};

/// The array-of-structs LRU cache `SampledCache` was before its layout
/// changed — the reference model. Same semantics, none of the tricks.
#[derive(Debug, Clone)]
struct RefCache {
    cfg: CacheConfig,
    /// `sets × ways` lines, row-major by set.
    lines: Vec<Line>,
    line_shift: u32,
    clock: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        let n = cfg.sets as usize * cfg.ways as usize;
        RefCache {
            cfg,
            lines: vec![INVALID_LINE; n],
            line_shift: cfg.line_bytes.trailing_zeros(),
            clock: 0,
        }
    }

    /// The lines of `addr`'s set, and its tag.
    fn set_of(&mut self, addr: u64) -> (&mut [Line], u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr % self.cfg.sets) as usize;
        let tag = line_addr / self.cfg.sets;
        let ways = self.cfg.ways as usize;
        (&mut self.lines[set * ways..(set + 1) * ways], tag)
    }

    /// Invalid first, then least recently used, among the ways `mask`
    /// permits, scanning upward.
    fn victim(set_lines: &[Line], mask: CbmMask) -> usize {
        let mut choice: Option<usize> = None;
        for (w, line) in set_lines.iter().enumerate() {
            if !mask.contains(w as u32) {
                continue;
            }
            if !line.valid {
                choice = Some(w);
                break;
            }
            match choice {
                None => choice = Some(w),
                Some(c) => {
                    if line.lru < set_lines[c].lru {
                        choice = Some(w);
                    }
                }
            }
        }
        choice.expect("CAT mask is non-empty by construction")
    }

    fn access(&mut self, clos: ClosId, mask: CbmMask, addr: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let clock = self.clock;
        let (set_lines, tag) = self.set_of(addr);
        for line in set_lines.iter_mut() {
            if line.valid && line.tag == tag {
                line.lru = clock;
                line.dirty |= is_write;
                line.owner = clos;
                return AccessOutcome {
                    hit: true,
                    writeback: false,
                };
            }
        }
        let victim = &mut set_lines[RefCache::victim(set_lines, mask)];
        let writeback = victim.valid && victim.dirty;
        *victim = Line {
            tag,
            lru: clock,
            owner: clos,
            valid: true,
            dirty: is_write,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    fn prefetch(&mut self, clos: ClosId, mask: CbmMask, addr: u64) -> AccessOutcome {
        let (set_lines, tag) = self.set_of(addr);
        if set_lines.iter().any(|l| l.valid && l.tag == tag) {
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }
        let victim = &mut set_lines[RefCache::victim(set_lines, mask)];
        let writeback = victim.valid && victim.dirty;
        // LRU-position insertion: keep the victim's old recency.
        *victim = Line {
            tag,
            lru: victim.lru,
            owner: clos,
            valid: true,
            dirty: false,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    fn occupancy_lines(&self, clos: ClosId) -> u64 {
        self.lines
            .iter()
            .filter(|l| l.valid && l.owner == clos)
            .count() as u64
    }

    fn flush(&mut self) {
        self.lines.fill(INVALID_LINE);
    }

    fn snapshot(&self) -> CacheSnapshot {
        let lines = self
            .lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.valid)
            .map(|(i, l)| CacheLineSnapshot {
                index: i as u64,
                tag: l.tag,
                lru: l.lru,
                owner: l.owner.0,
                dirty: l.dirty,
            })
            .collect();
        CacheSnapshot {
            clock: self.clock,
            lines,
        }
    }

    fn restore(&mut self, snap: &CacheSnapshot) {
        self.flush();
        self.clock = snap.clock;
        for line in &snap.lines {
            self.lines[line.index as usize] = Line {
                tag: line.tag,
                lru: line.lru,
                owner: ClosId(line.owner),
                valid: true,
                dirty: line.dirty,
            };
        }
    }
}

/// Set counts to draw from: 1 first (a zeroed tape is the one-set
/// cache, where every line contends), powers of two and not.
const SET_COUNTS: [u64; 8] = [1, 2, 3, 4, 6, 8, 12, 16];

/// Where an op's line lives. Region *r* starts at byte `(r + 1) << 44`,
/// as application *r*'s private tag space does in `Machine::tick`, so
/// every tag has a non-zero high half, and with a power-of-two set count
/// one line's tags in two regions differ in their high halves only. An
/// op's region is its CLOS's own unless it reaches into another's.
/// `alias` moves the line `alias · sets · 2³²` lines on: the same set, a
/// tag `alias · 2³²` larger, the same low half.
#[derive(Clone, Copy)]
struct Place {
    line: u64,
    region: u64,
    alias: u64,
}

impl Place {
    /// The line's byte offset from its region's base.
    fn offset(self, sets: u64) -> u64 {
        (self.line + self.alias * sets * (1 << 32)) * 64
    }

    fn addr(self, sets: u64) -> u64 {
        region_base(self.region) + self.offset(sets)
    }

    /// Debug fields; `region` only when not `clos`'s own and `alias`
    /// only when set, so a case without them reads (and digests) as it
    /// did before they existed.
    fn fields(self, d: &mut fmt::DebugStruct<'_, '_>, clos: usize) {
        d.field("line", &self.line);
        if self.region != clos as u64 {
            d.field("region", &self.region);
        }
        if self.alias != 0 {
            d.field("alias", &self.alias);
        }
    }
}

fn region_base(region: u64) -> u64 {
    (region + 1) << 44
}

#[derive(Clone)]
enum Op {
    Access {
        clos: usize,
        at: Place,
        write: bool,
    },
    Prefetch {
        clos: usize,
        at: Place,
    },
    /// One `access_burst` call: every access shares `region`'s base, as
    /// a machine burst shares its application's; the reference walks it
    /// access by access.
    Burst {
        clos: usize,
        region: u64,
        /// `(line, alias, write)` per access.
        accesses: Vec<(u64, u64, bool)>,
        prefetch: bool,
    },
    Flush,
    SnapshotRestore,
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Access { clos, at, write } => {
                let mut d = f.debug_struct("Access");
                d.field("clos", clos);
                at.fields(&mut d, *clos);
                d.field("write", write).finish()
            }
            Op::Prefetch { clos, at } => {
                let mut d = f.debug_struct("Prefetch");
                d.field("clos", clos);
                at.fields(&mut d, *clos);
                d.finish()
            }
            Op::Burst {
                clos,
                region,
                accesses,
                prefetch,
            } => f
                .debug_struct("Burst")
                .field("clos", clos)
                .field("region", region)
                .field("accesses", accesses)
                .field("prefetch", prefetch)
                .finish(),
            Op::Flush => f.write_str("Flush"),
            Op::SnapshotRestore => f.write_str("SnapshotRestore"),
        }
    }
}

/// Alias counts drawn: 0 (the plain line), 1 or 2.
const ALIASES: u64 = 3;

fn gen_op(src: &mut Source, n_clos: usize, lines: u64) -> Op {
    let place = |line| Place {
        line,
        region: 0,
        alias: 0,
    };
    // Access first: the zeroed tape is a run of read accesses.
    match src.below(20) {
        0..=8 => Op::Access {
            clos: src.below(n_clos as u64) as usize,
            at: place(src.below(lines)),
            write: src.below(2) == 1,
        },
        9..=12 => Op::Prefetch {
            clos: src.below(n_clos as u64) as usize,
            at: place(src.below(lines)),
        },
        13 => Op::Flush,
        14 | 15 => Op::SnapshotRestore,
        _ => {
            let clos = src.below(n_clos as u64) as usize;
            Op::Burst {
                clos,
                region: (clos as u64 + src.below(n_clos as u64)) % n_clos as u64,
                prefetch: src.below(2) == 1,
                accesses: (0..src.size(1, 16))
                    .map(|_| (src.below(lines), src.below(ALIASES), src.below(2) == 1))
                    .collect(),
            }
        }
    }
}

/// Draws every single access's and prefetch's region and alias. They
/// come after all the ops, so a tape saved before these existed decodes
/// to the ops it always did, each in its CLOS's region without an alias.
fn place_ops(src: &mut Source, n_clos: usize, ops: &mut [Op]) {
    let n = n_clos as u64;
    for op in ops {
        if let Op::Access { clos, at, .. } | Op::Prefetch { clos, at } = op {
            at.region = (*clos as u64 + src.below(n)) % n;
            at.alias = src.below(ALIASES);
        }
    }
}

fn cache_case(src: &mut Source) -> CaseOutcome {
    let sets = *src.pick(&SET_COUNTS);
    // Past 16 ways a set's low tag halves span a second window.
    let ways = src.size(1, 32) as u32;
    let cfg = CacheConfig {
        sets,
        ways,
        line_bytes: 64,
    };
    let n_clos = src.size(1, 3);
    let masks: Vec<CbmMask> = (0..n_clos)
        .map(|_| {
            let count = src.size(1, ways as usize) as u32;
            let start = src.size(0, (ways - count) as usize) as u32;
            // `CbmMask::contiguous` stops at 31 ways; spell the bits out.
            CbmMask::new(u32::MAX >> (32 - count) << start, ways).expect("in-range mask")
        })
        .collect();
    // Twice as many distinct lines as the cache holds: enough reuse to
    // hit, enough pressure to evict.
    let lines = sets * u64::from(ways) * 2;
    let n_ops = src.size(1, 48);
    let mut ops: Vec<Op> = (0..n_ops).map(|_| gen_op(src, n_clos, lines)).collect();
    place_ops(src, n_clos, &mut ops);
    let witness = format!(
        "sets={sets} ways={ways} masks={:?} ops={ops:?}",
        masks.iter().map(|m| m.bits()).collect::<Vec<_>>()
    );

    let mut cache = SampledCache::new(cfg);
    let mut reference = RefCache::new(cfg);
    let verdict = run_ops(&mut cache, &mut reference, sets, &masks, &ops);
    CaseOutcome { witness, verdict }
}

/// The reference's tallies for a burst: its per-access loop, as
/// `Machine::tick` ran it before the burst kernel.
fn reference_burst(
    reference: &mut RefCache,
    clos: ClosId,
    mask: CbmMask,
    addrs: impl Iterator<Item = (u64, bool)>,
    prefetch: bool,
) -> BurstTallies {
    let mut t = BurstTallies::default();
    for (addr, write) in addrs {
        let out = reference.access(clos, mask, addr, write);
        t.hits += u64::from(out.hit);
        t.writebacks += u64::from(out.writeback);
        if prefetch && !out.hit {
            let pf = reference.prefetch(clos, mask, addr + 64);
            t.prefetch_fills += u64::from(!pf.hit);
            t.writebacks += u64::from(pf.writeback);
        }
    }
    t
}

fn run_ops(
    cache: &mut SampledCache,
    reference: &mut RefCache,
    sets: u64,
    masks: &[CbmMask],
    ops: &[Op],
) -> Result<(), String> {
    let clos_id = |k: usize| ClosId(k as u16 + 1);
    for (i, op) in ops.iter().enumerate() {
        let outcomes = match *op {
            Op::Access { clos, at, write } => Some((
                cache.access(clos_id(clos), masks[clos], at.addr(sets), write),
                reference.access(clos_id(clos), masks[clos], at.addr(sets), write),
            )),
            Op::Prefetch { clos, at } => Some((
                cache.prefetch(clos_id(clos), masks[clos], at.addr(sets)),
                reference.prefetch(clos_id(clos), masks[clos], at.addr(sets)),
            )),
            Op::Burst {
                clos,
                region,
                ref accesses,
                prefetch,
            } => {
                let place = |&(line, alias, _): &(u64, u64, bool)| Place {
                    line,
                    region,
                    alias,
                };
                let offsets: Vec<u64> = accesses.iter().map(|a| place(a).offset(sets)).collect();
                let writes = accesses
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (j, a)| w | u64::from(a.2) << j);
                let got = cache.access_burst(
                    clos_id(clos),
                    masks[clos],
                    region_base(region),
                    &offsets,
                    writes,
                    prefetch,
                );
                let want = reference_burst(
                    reference,
                    clos_id(clos),
                    masks[clos],
                    accesses.iter().map(|a| (place(a).addr(sets), a.2)),
                    prefetch,
                );
                if got != want {
                    return Err(format!(
                        "op {i} ({op:?}): burst tallies {got:?}, reference says {want:?}"
                    ));
                }
                None
            }
            Op::Flush => {
                cache.flush();
                reference.flush();
                None
            }
            Op::SnapshotRestore => {
                let (got, want) = (cache.snapshot(), reference.snapshot());
                if got != want {
                    return Err(format!(
                        "op {i}: snapshots differ: cache {got:?}, reference {want:?}"
                    ));
                }
                // Each side adopts the other's document.
                cache.restore(&want);
                reference.restore(&got);
                None
            }
        };
        if let Some((got, want)) = outcomes {
            if got != want {
                return Err(format!(
                    "op {i} ({op:?}): cache says {got:?}, reference says {want:?}"
                ));
            }
        }
        for k in 0..masks.len() {
            let (got, want) = (
                cache.occupancy_lines(clos_id(k)),
                reference.occupancy_lines(clos_id(k)),
            );
            if got != want {
                return Err(format!(
                    "op {i} ({op:?}): CLOS {k} occupies {got} lines, reference says {want}"
                ));
            }
        }
    }
    let (got, want) = (cache.snapshot(), reference.snapshot());
    if got != want {
        return Err(format!(
            "final snapshots differ: cache {got:?}, reference {want:?}"
        ));
    }
    Ok(())
}

/// The simulated-LLC oracle.
pub fn properties() -> Vec<Property> {
    vec![Property::new("sim-cache-matches-reference", cache_case)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_pass() {
        for seed in 0..256 {
            let mut src = Source::from_seed(seed);
            let out = cache_case(&mut src);
            assert_eq!(out.verdict, Ok(()), "seed {seed}: {}", out.witness);
        }
    }

    /// The tie-break that is easiest to get wrong, as the blessed
    /// `sim-cache-prefetch-stamp-zero` tape decodes it: a prefetch lands
    /// in an empty way with stamp 0, and the next miss must still take
    /// the next *empty* way, not the "oldest" line.
    #[test]
    fn prefetched_line_in_an_empty_way_is_not_the_next_victim() {
        let tape = [
            0, 2, 0, 2, 0, 4, 9, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 3,
        ];
        let mut src = Source::replay(&tape);
        let out = cache_case(&mut src);
        assert_eq!(
            out.witness,
            "sets=1 ways=3 masks=[7] ops=[Prefetch { clos: 0, line: 0 }, \
             Access { clos: 0, line: 1, write: false }, \
             Access { clos: 0, line: 0, write: false }, \
             Access { clos: 0, line: 2, write: false }, \
             Access { clos: 0, line: 3, write: false }]"
        );
        assert_eq!(out.verdict, Ok(()));
    }
}
