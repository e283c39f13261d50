//! Way-partitioned, set-sampled LRU last-level cache with CAT semantics.
//!
//! Intel Cache Allocation Technology partitions the LLC by *ways*: the
//! capacity bitmask of a CLOS restricts which ways new lines may be
//! **allocated** into, while lookups are served from any way. Overlapping
//! masks share ways. This module implements exactly those semantics over a
//! classic set-associative LRU cache.
//!
//! The cache is simulated at a reduced set count (set sampling; see the
//! crate docs): miss *ratios* are preserved as long as application
//! footprints are scaled by the same factor, which
//! [`crate::trace::AccessPattern::scaled`] does.
//!
//! [`SampledCache::access_burst`] is the walk `Machine::tick` runs, a
//! burst at a time; [`SampledCache::access`] and
//! [`SampledCache::prefetch`] are the same steps for one access.

use crate::{CbmMask, ClosId};

/// Geometry of the simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of simulated sets (after sampling).
    pub sets: u64,
    /// Associativity (CAT-partitionable ways).
    pub ways: u32,
    /// Line size in bytes; must be a power of two.
    pub line_bytes: u64,
}

/// The outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit in the LLC.
    pub hit: bool,
    /// Whether the access evicted a dirty line (memory writeback traffic).
    pub writeback: bool,
}

/// One valid line in a [`CacheSnapshot`], addressed by its flat index
/// into the `sets × ways` line array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLineSnapshot {
    /// Flat index (`set * ways + way`) of the line.
    pub index: u64,
    /// The line's tag.
    pub tag: u64,
    /// LRU stamp (value of the access clock when last touched).
    pub lru: u64,
    /// Raw CLOS id of the last toucher.
    pub owner: u16,
    /// Whether the line holds unwritten-back data.
    pub dirty: bool,
}

/// Full content state of a [`SampledCache`]: the access clock and every
/// valid line. Invalid lines are implicit, keeping snapshots of a cold or
/// partially-warm cache compact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// The access clock (monotone LRU timestamp source).
    pub clock: u64,
    /// Every valid line, in flat-index order.
    pub lines: Vec<CacheLineSnapshot>,
}

/// The tallies of one [`SampledCache::access_burst`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstTallies {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Dirty lines evicted, by demand misses and prefetch fills alike.
    pub writebacks: u64,
    /// Prefetches that filled a line (a prefetch of a resident line is
    /// free and not counted).
    pub prefetch_fills: u64,
}

/// Which ways of one set hold a line, and which of those are dirty
/// (`dirty ⊆ valid`). Bit *w* is way *w*, the same numbering as
/// [`CbmMask::bits`], so "first permitted invalid way" is one `&` and a
/// `trailing_zeros`.
#[derive(Debug, Clone, Copy, Default)]
struct WayBits {
    valid: u32,
    dirty: u32,
}

/// How a line address splits into `(set, tag)`.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// Power-of-two set count: mask and shift.
    Pow2 { mask: u64, shift: u32 },
    /// Any other set count: remainder and quotient.
    Div { sets: u64 },
}

impl SetIndex {
    /// Splits a line address into `(set, tag)`.
    #[inline(always)]
    fn split(self, line_addr: u64) -> (usize, u64) {
        match self {
            SetIndex::Pow2 { mask, shift } => ((line_addr & mask) as usize, line_addr >> shift),
            SetIndex::Div { sets } => ((line_addr % sets) as usize, line_addr / sets),
        }
    }
}

/// Low tag halves compared at once. A set's ways start anywhere in
/// `tag_lo`, so the array carries this many padding entries past its
/// last set and a window never runs off the end.
const WINDOW: usize = 16;

/// The ways a CLOS may allocate into, resolved from its CAT mask once:
/// the bitmap, and — a CAT mask being contiguous — the slice `lo..hi` of
/// a set's ways it spans.
#[derive(Debug, Clone, Copy)]
struct Allowed {
    bits: u32,
    lo: usize,
    hi: usize,
}

const HIT: AccessOutcome = AccessOutcome {
    hit: true,
    writeback: false,
};

/// A way-partitioned set-associative LRU cache.
///
/// Line state is struct-of-arrays, row-major by set, so one set's ways
/// are contiguous in each array: every tag as its low and high 32-bit
/// halves (`tag_lo`, `tag_hi`), an LRU stamp and an owner — 18 B a line,
/// as with one `u64` tag, plus a 16-entry pad after `tag_lo`.
/// Validity and dirtiness are per-set way bitmaps. Entries of invalid
/// ways are stale and never read — every reader masks with `valid` first
/// (DESIGN.md §4).
#[derive(Debug, Clone)]
pub struct SampledCache {
    cfg: CacheConfig,
    ways: usize,
    /// Bitmap of the ways this cache has (`ways` low bits).
    way_mask: u32,
    /// Low 32 bits of each tag, then [`WINDOW`] zeros.
    tag_lo: Vec<u32>,
    /// High 32 bits of each tag.
    tag_hi: Vec<u32>,
    /// Access-clock value at the last touch; 0 for a prefetch installed
    /// into an empty way.
    lru: Vec<u64>,
    /// Raw CLOS id of the last toucher.
    owner: Vec<u16>,
    bits: Vec<WayBits>,
    line_shift: u32,
    index: SetIndex,
    clock: u64,
}

/// The line arrays of a [`SampledCache`] borrowed as plain slices: the
/// one lookup, victim choice and install that `access`, `prefetch` and
/// `access_burst` all run. Held in a local, its pointers and lengths
/// stay in registers across a whole burst.
struct Lines<'a> {
    ways: usize,
    tag_lo: &'a mut [u32],
    tag_hi: &'a mut [u32],
    lru: &'a mut [u64],
    owner: &'a mut [u16],
    bits: &'a mut [WayBits],
}

/// Bitmap of the lanes of `tag_lo[at..at + WINDOW]` equal to `half`,
/// lane *i* at bit *i*. The width is fixed, so it compiles to four SSE2
/// compares and one `pmovmskb`.
#[inline(always)]
fn window(tag_lo: &[u32], at: usize, half: u32) -> u32 {
    let lanes = &tag_lo[at..at + WINDOW];
    // Highest lane first, so each compare shifts in at bit 0.
    let mut same = 0u16;
    for &t in lanes.iter().rev() {
        same = same << 1 | u16::from(t == half);
    }
    u32::from(same)
}

impl Lines<'_> {
    /// The valid way of `set` holding `tag`. Hits are not restricted by
    /// any CAT mask.
    ///
    /// Equal tags have equal halves, so the valid ways whose low half
    /// matches are a superset of those holding `tag`, in way order; the
    /// first whose high half matches too is the lowest way holding it.
    #[inline(always)]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let lo = tag as u32;
        let mut candidates = window(self.tag_lo, base, lo);
        if self.ways > WINDOW {
            candidates |= window(self.tag_lo, base + WINDOW, lo) << WINDOW;
        }
        candidates &= self.bits[set].valid;
        let hi = (tag >> 32) as u32;
        while candidates != 0 {
            let way = candidates.trailing_zeros() as usize;
            if self.tag_hi[base + way] == hi {
                return Some(way);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// The way a miss by a CLOS allowed `allowed` fills in `set`: the
    /// lowest permitted invalid way, else the least recently used
    /// permitted way (the lowest on ties).
    #[inline(always)]
    fn victim(&self, set: usize, allowed: Allowed) -> usize {
        assert!(allowed.bits != 0, "CAT mask grants no way of this cache");
        let free = allowed.bits & !self.bits[set].valid;
        if free != 0 {
            return free.trailing_zeros() as usize;
        }
        let base = set * self.ways;
        let stamps = &self.lru[base + allowed.lo..base + allowed.hi];
        // Running minimum held in locals so the scan compiles to
        // compare-and-select: which way is oldest is data, not a pattern
        // a branch predictor can learn.
        let (mut best, mut oldest) = (0, stamps[0]);
        for (i, &stamp) in stamps.iter().enumerate().skip(1) {
            let older = stamp < oldest;
            best = if older { i } else { best };
            oldest = if older { stamp } else { oldest };
        }
        allowed.lo + best
    }

    /// Replaces way `way` of `set`; returns whether the line it held was
    /// dirty (memory writeback traffic).
    #[inline(always)]
    fn install(
        &mut self,
        set: usize,
        way: usize,
        tag: u64,
        stamp: u64,
        clos: ClosId,
        dirty: bool,
    ) -> bool {
        let i = set * self.ways + way;
        self.tag_lo[i] = tag as u32;
        self.tag_hi[i] = (tag >> 32) as u32;
        self.lru[i] = stamp;
        self.owner[i] = clos.0;
        let bit = 1u32 << way;
        let bits = &mut self.bits[set];
        let writeback = bits.dirty & bit != 0;
        bits.valid |= bit;
        bits.dirty = (bits.dirty & !bit) | (u32::from(dirty) << way);
        writeback
    }

    /// A demand access at clock value `stamp`: a hit refreshes the line,
    /// a miss fills the victim most-recently-used.
    #[inline(always)]
    fn demand(
        &mut self,
        set: usize,
        tag: u64,
        stamp: u64,
        clos: ClosId,
        allowed: Allowed,
        is_write: bool,
    ) -> AccessOutcome {
        if let Some(way) = self.find(set, tag) {
            let i = set * self.ways + way;
            self.lru[i] = stamp;
            self.owner[i] = clos.0;
            self.bits[set].dirty |= u32::from(is_write) << way;
            return HIT;
        }
        let way = self.victim(set, allowed);
        let writeback = self.install(set, way, tag, stamp, clos, is_write);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// A prefetch: fill the line if absent, into the victim's LRU
    /// position.
    #[inline(always)]
    fn prefetch(&mut self, set: usize, tag: u64, clos: ClosId, allowed: Allowed) -> AccessOutcome {
        if self.find(set, tag).is_some() {
            return HIT;
        }
        let way = self.victim(set, allowed);
        // LRU-position insertion: stamp with the victim's old recency so
        // a never-used prefetch leaves first. An empty way has none:
        // stamp 0, older than any demand line.
        let stamp = if self.bits[set].valid >> way & 1 != 0 {
            self.lru[set * self.ways + way]
        } else {
            0
        };
        let writeback = self.install(set, way, tag, stamp, clos, false);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }
}

impl SampledCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate geometry (zero sets/ways, more than 32
    /// ways, or a non-power-of-two line size); geometry comes from
    /// [`crate::MachineConfig`] and is a programming error if invalid.
    pub fn new(cfg: CacheConfig) -> SampledCache {
        assert!(cfg.sets > 0 && cfg.ways > 0, "degenerate cache geometry");
        assert!(cfg.ways <= 32, "way bitmaps hold at most 32 ways");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = usize::try_from(cfg.sets).expect("set count fits usize");
        let ways = cfg.ways as usize;
        let n = sets * ways;
        SampledCache {
            cfg,
            ways,
            way_mask: u32::MAX >> (32 - cfg.ways),
            tag_lo: vec![0; n + WINDOW],
            tag_hi: vec![0; n],
            lru: vec![0; n],
            owner: vec![0; n],
            bits: vec![WayBits::default(); sets],
            line_shift: cfg.line_bytes.trailing_zeros(),
            index: if cfg.sets.is_power_of_two() {
                SetIndex::Pow2 {
                    mask: cfg.sets - 1,
                    shift: cfg.sets.trailing_zeros(),
                }
            } else {
                SetIndex::Div { sets: cfg.sets }
            },
            clock: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The ways `mask` lets a CLOS allocate into.
    #[inline]
    fn allowed(&self, mask: CbmMask) -> Allowed {
        let bits = mask.bits() & self.way_mask;
        Allowed {
            bits,
            lo: bits.trailing_zeros() as usize,
            hi: (32 - bits.leading_zeros()) as usize,
        }
    }

    fn lines(&mut self) -> Lines<'_> {
        Lines {
            ways: self.ways,
            tag_lo: &mut self.tag_lo,
            tag_hi: &mut self.tag_hi,
            lru: &mut self.lru,
            owner: &mut self.owner,
            bits: &mut self.bits,
        }
    }

    /// Performs one access on behalf of `clos`, whose CAT mask is `mask`.
    ///
    /// A hit is served from any way; on a miss the victim is chosen among
    /// the ways permitted by `mask` (invalid first, then least recently
    /// used), matching CAT allocation semantics.
    ///
    /// # Panics
    ///
    /// Panics on a miss if `mask` grants none of this cache's ways.
    pub fn access(
        &mut self,
        clos: ClosId,
        mask: CbmMask,
        addr: u64,
        is_write: bool,
    ) -> AccessOutcome {
        self.clock += 1;
        let (stamp, allowed) = (self.clock, self.allowed(mask));
        let (set, tag) = self.index.split(addr >> self.line_shift);
        self.lines()
            .demand(set, tag, stamp, clos, allowed, is_write)
    }

    /// Installs `addr`'s line on behalf of `clos` if it is absent — a
    /// prefetch. Returns whether a fill happened (prefetches that hit an
    /// already-resident line are free) and whether a dirty victim was
    /// written back. The victim is chosen exactly as for a demand miss,
    /// but the line is installed *least*-recently-used rather than most,
    /// the usual conservative prefetch insertion policy, so a useless
    /// prefetch is evicted first.
    ///
    /// # Panics
    ///
    /// Panics on a fill if `mask` grants none of this cache's ways.
    pub fn prefetch(&mut self, clos: ClosId, mask: CbmMask, addr: u64) -> AccessOutcome {
        let allowed = self.allowed(mask);
        let (set, tag) = self.index.split(addr >> self.line_shift);
        self.lines().prefetch(set, tag, clos, allowed)
    }

    /// Walks one burst through the cache on behalf of `clos`, whose CAT
    /// mask is `mask`: access *j* is a demand access to `base +
    /// offsets[j]`, a write if bit *j* of `writes` is set, and with
    /// `prefetch` each demand miss then prefetches the next line. The
    /// same outcomes, in the same order, as [`SampledCache::access`] and
    /// [`SampledCache::prefetch`] called access by access — this is that
    /// loop with the mask, the set split and the line arrays resolved
    /// once per burst.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is longer than 64, or on a miss if `mask`
    /// grants none of this cache's ways.
    pub fn access_burst(
        &mut self,
        clos: ClosId,
        mask: CbmMask,
        base: u64,
        offsets: &[u64],
        writes: u64,
        prefetch: bool,
    ) -> BurstTallies {
        assert!(offsets.len() <= 64, "a burst is at most 64 accesses");
        let args = (clos, self.allowed(mask), base, offsets, writes, prefetch);
        // One walk per split: inside each, `split`'s `match` is already
        // decided, so the loop carries none.
        match self.index {
            index @ SetIndex::Pow2 { .. } => self.walk(args, index),
            index @ SetIndex::Div { .. } => self.walk(args, index),
        }
    }

    #[inline(always)]
    fn walk(
        &mut self,
        (clos, allowed, base, offsets, writes, prefetch): (ClosId, Allowed, u64, &[u64], u64, bool),
        index: SetIndex,
    ) -> BurstTallies {
        let line_shift = self.line_shift;
        let mut clock = self.clock;
        let mut lines = self.lines();
        let mut tallies = BurstTallies::default();
        for (j, &offset) in offsets.iter().enumerate() {
            let line = (base + offset) >> line_shift;
            clock += 1;
            let (set, tag) = index.split(line);
            let out = lines.demand(set, tag, clock, clos, allowed, writes >> j & 1 != 0);
            tallies.hits += u64::from(out.hit);
            tallies.writebacks += u64::from(out.writeback);
            if prefetch && !out.hit {
                let (set, tag) = index.split(line + 1);
                let pf = lines.prefetch(set, tag, clos, allowed);
                tallies.prefetch_fills += u64::from(!pf.hit);
                tallies.writebacks += u64::from(pf.writeback);
            }
        }
        self.clock = clock;
        tallies
    }

    /// Number of valid lines currently owned by `clos` (last toucher),
    /// emulating RDT's `llc_occupancy` monitoring event.
    pub fn occupancy_lines(&self, clos: ClosId) -> u64 {
        self.bits
            .iter()
            .zip(self.owner.chunks_exact(self.ways))
            .map(|(bits, owners)| {
                owners
                    .iter()
                    .enumerate()
                    .filter(|&(w, &o)| bits.valid >> w & 1 != 0 && o == clos.0)
                    .count() as u64
            })
            .sum()
    }

    /// Invalidate every line (e.g., between experiments). Dirty lines are
    /// dropped without writeback accounting.
    pub fn flush(&mut self) {
        self.bits.fill(WayBits::default());
    }

    /// Captures the full content state (clock + every valid line).
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut lines = Vec::new();
        for (set, bits) in self.bits.iter().enumerate() {
            let mut valid = bits.valid;
            while valid != 0 {
                let way = valid.trailing_zeros();
                valid &= valid - 1;
                let i = set * self.ways + way as usize;
                lines.push(CacheLineSnapshot {
                    index: i as u64,
                    tag: u64::from(self.tag_hi[i]) << 32 | u64::from(self.tag_lo[i]),
                    lru: self.lru[i],
                    owner: self.owner[i],
                    dirty: bits.dirty >> way & 1 != 0,
                });
            }
        }
        CacheSnapshot {
            clock: self.clock,
            lines,
        }
    }

    /// Restores content state captured from a cache of the same geometry.
    ///
    /// # Panics
    ///
    /// Panics if any line index is out of range for this geometry — the
    /// snapshot belongs to a differently-sized cache.
    pub fn restore(&mut self, snap: &CacheSnapshot) {
        self.flush();
        self.clock = snap.clock;
        let ways = self.ways;
        let mut lines = self.lines();
        for line in &snap.lines {
            let i = usize::try_from(line.index).expect("line index fits usize");
            assert!(i < lines.tag_hi.len(), "snapshot line index out of range");
            lines.install(
                i / ways,
                i % ways,
                line.tag,
                line.lru,
                ClosId(line.owner),
                line.dirty,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SampledCache {
        SampledCache::new(CacheConfig {
            sets: 4,
            ways: 4,
            line_bytes: 64,
        })
    }

    fn full_mask() -> CbmMask {
        CbmMask::full(4)
    }

    const C0: ClosId = ClosId(0);
    const C1: ClosId = ClosId(1);

    /// Address that maps to `set` with tag `tag` (4 sets, 64 B lines).
    fn addr(set: u64, tag: u64) -> u64 {
        (tag * 4 + set) * 64
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small();
        assert!(!c.access(C0, full_mask(), addr(0, 1), false).hit);
        assert!(c.access(C0, full_mask(), addr(0, 1), false).hit);
    }

    #[test]
    fn working_set_within_ways_all_hits_after_warmup() {
        let mut c = small();
        let m = full_mask();
        for round in 0..3 {
            for t in 0..4 {
                let out = c.access(C0, m, addr(2, t), false);
                if round > 0 {
                    assert!(out.hit, "round {round} tag {t} should hit");
                }
            }
        }
    }

    #[test]
    fn cyclic_sweep_beyond_ways_thrashes_lru() {
        // 5 tags over a 4-way set under LRU: every access misses.
        let mut c = small();
        let m = full_mask();
        let mut misses = 0;
        for _ in 0..5 {
            for t in 0..5 {
                if !c.access(C0, m, addr(1, t), false).hit {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 25, "classic LRU thrashing on a cyclic sweep");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        let m = full_mask();
        for t in 0..4 {
            c.access(C0, m, addr(0, t), false);
        }
        // Touch tags 1..3 so tag 0 is LRU, then install tag 9.
        for t in 1..4 {
            assert!(c.access(C0, m, addr(0, t), false).hit);
        }
        c.access(C0, m, addr(0, 9), false);
        assert!(!c.access(C0, m, addr(0, 0), false).hit, "tag 0 was evicted");
        assert!(c.access(C0, m, addr(0, 9), false).hit);
    }

    #[test]
    fn cat_mask_restricts_allocation_but_not_hits() {
        let mut c = small();
        let left = CbmMask::new(0b0011, 4).unwrap();
        let right = CbmMask::new(0b1100, 4).unwrap();
        // CLOS 0 fills its two permitted ways in set 0.
        c.access(C0, left, addr(0, 1), false);
        c.access(C0, left, addr(0, 2), false);
        // CLOS 1 installs into the other two ways only.
        c.access(C1, right, addr(0, 10), false);
        c.access(C1, right, addr(0, 11), false);
        c.access(C1, right, addr(0, 12), false); // Evicts within right half.
                                                 // CLOS 0's lines must have survived CLOS 1's thrashing.
        assert!(c.access(C0, left, addr(0, 1), false).hit);
        assert!(c.access(C0, left, addr(0, 2), false).hit);
        // Hits cross the partition: CLOS 0 may hit a line in the right
        // half.
        assert!(c.access(C0, left, addr(0, 12), false).hit);
    }

    #[test]
    fn one_way_mask_keeps_reusing_the_same_way() {
        let mut c = small();
        let narrow = CbmMask::new(0b0001, 4).unwrap();
        c.access(C0, narrow, addr(0, 1), false);
        c.access(C0, narrow, addr(0, 2), false); // Must evict tag 1.
        assert!(!c.access(C0, narrow, addr(0, 1), false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        let narrow = CbmMask::new(0b0001, 4).unwrap();
        c.access(C0, narrow, addr(0, 1), true); // Dirty install.
        let out = c.access(C0, narrow, addr(0, 2), false);
        assert!(!out.hit);
        assert!(out.writeback, "evicting a dirty line writes back");
        // The new line is clean; evicting it is silent.
        let out2 = c.access(C0, narrow, addr(0, 3), false);
        assert!(!out2.writeback);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = small();
        let narrow = CbmMask::new(0b0001, 4).unwrap();
        c.access(C0, narrow, addr(0, 1), false); // Clean install.
        c.access(C0, narrow, addr(0, 1), true); // Dirty on write hit.
        let out = c.access(C0, narrow, addr(0, 2), false);
        assert!(out.writeback);
    }

    #[test]
    fn occupancy_tracks_owner() {
        let mut c = small();
        let m = full_mask();
        for t in 0..3 {
            c.access(C0, m, addr(0, t), false);
        }
        c.access(C1, m, addr(1, 0), false);
        assert_eq!(c.occupancy_lines(C0), 3);
        assert_eq!(c.occupancy_lines(C1), 1);
        c.flush();
        assert_eq!(c.occupancy_lines(C0), 0);
    }

    #[test]
    fn snapshot_restore_reproduces_hits_and_occupancy() {
        let mut c = small();
        let m = full_mask();
        for t in 0..7 {
            c.access(C0, m, addr(t % 4, t), t % 2 == 0);
        }
        c.access(C1, m, addr(1, 40), true);
        let snap = c.snapshot();
        let mut restored = small();
        restored.restore(&snap);
        assert_eq!(restored.occupancy_lines(C0), c.occupancy_lines(C0));
        assert_eq!(restored.occupancy_lines(C1), c.occupancy_lines(C1));
        // Identical future behaviour, including LRU victim choice and
        // dirty-writeback accounting.
        for t in 0..20u64 {
            let a = addr(t % 4, 100 + t);
            assert_eq!(
                c.access(C0, m, a, t % 3 == 0),
                restored.access(C0, m, a, t % 3 == 0)
            );
        }
        assert_eq!(c.snapshot(), restored.snapshot());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn restore_rejects_foreign_geometry() {
        let mut big = SampledCache::new(CacheConfig {
            sets: 8,
            ways: 8,
            line_bytes: 64,
        });
        let m = CbmMask::full(8);
        for t in 0..60 {
            big.access(C0, m, t * 64, false);
        }
        let mut tiny = small();
        tiny.restore(&big.snapshot());
    }

    /// Tags that share their low 32 bits are told apart by the high
    /// halves, in both compare windows.
    #[test]
    fn tags_equal_in_their_low_halves_are_distinct_lines() {
        for ways in [4, 24] {
            let mut c = SampledCache::new(CacheConfig {
                sets: 4,
                ways,
                line_bytes: 64,
            });
            let m = CbmMask::full(ways);
            // Fill all but the top way, so the aliases land in the last
            // window.
            for t in 0..u64::from(ways) - 1 {
                c.access(C0, m, addr(1, t + 100), false);
            }
            let aliased = |k: u64| addr(1, 7 + (k << 32));
            assert!(!c.access(C0, m, aliased(0), false).hit);
            assert!(!c.access(C0, m, aliased(1), false).hit, "{ways} ways");
            assert!(c.access(C0, m, aliased(1), false).hit);
            assert!(!c.access(C0, m, aliased(2), false).hit);
        }
    }

    /// A burst has the outcomes of its accesses (and, with prefetch,
    /// each miss's next-line prefetch) made one call at a time, for both
    /// set splits.
    #[test]
    fn a_burst_walks_like_its_accesses() {
        for sets in [4, 6] {
            let cfg = CacheConfig {
                sets,
                ways: 4,
                line_bytes: 64,
            };
            for prefetch in [false, true] {
                let (mut burst, mut single) = (SampledCache::new(cfg), SampledCache::new(cfg));
                let m = CbmMask::new(0b0110, 4).unwrap();
                let base = 3 << 44;
                let offsets: Vec<u64> = (0..64u64).map(|j| (j * j * 7 % 40) * 64).collect();
                let writes = 0x9E37_79B9_7F4A_7C15;
                let got = burst.access_burst(C1, m, base, &offsets, writes, prefetch);
                let mut want = BurstTallies::default();
                for (j, &offset) in offsets.iter().enumerate() {
                    let out = single.access(C1, m, base + offset, writes >> j & 1 != 0);
                    want.hits += u64::from(out.hit);
                    want.writebacks += u64::from(out.writeback);
                    if prefetch && !out.hit {
                        let pf = single.prefetch(C1, m, base + offset + 64);
                        want.prefetch_fills += u64::from(!pf.hit);
                        want.writebacks += u64::from(pf.writeback);
                    }
                }
                assert_eq!(got, want, "sets {sets}, prefetch {prefetch}");
                assert_eq!(burst.snapshot(), single.snapshot());
            }
        }
    }

    #[test]
    fn invalid_ways_fill_before_eviction() {
        let mut c = small();
        let m = full_mask();
        for t in 0..4 {
            c.access(C0, m, addr(3, t), false);
        }
        // All four distinct tags must be resident (no premature eviction).
        for t in 0..4 {
            assert!(c.access(C0, m, addr(3, t), false).hit);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use copart_rng::XorShift64Star;

    /// A CLOS whose mask grants `k` ways can never occupy more than
    /// `k × sets` lines, no matter the access pattern (seeded random
    /// sweep over mask placements and address streams).
    #[test]
    fn occupancy_bounded_by_mask() {
        let mut rng = XorShift64Star::seed_from_u64(0x0CC_0001);
        for _ in 0..60 {
            let start = rng.gen_range(0..6u32);
            let count = rng.gen_range(1..6u32);
            if start + count > 8 {
                continue;
            }
            let sets = 16u64;
            let mut cache = SampledCache::new(CacheConfig {
                sets,
                ways: 8,
                line_bytes: 64,
            });
            let mask = CbmMask::contiguous(start, count, 8).unwrap();
            for _ in 0..rng.gen_range(1..2000usize) {
                let a = rng.gen_range(0..1_000_000u64);
                let _ = cache.access(ClosId(1), mask, a * 64, false);
            }
            assert!(cache.occupancy_lines(ClosId(1)) <= u64::from(count) * sets);
        }
    }

    /// Accesses are idempotent on the second touch: any address
    /// accessed twice in a row hits the second time.
    #[test]
    fn immediate_reuse_always_hits() {
        let mut rng = XorShift64Star::seed_from_u64(0x0CC_0002);
        for _ in 0..500 {
            let addr = rng.gen_range(0..1_000_000u64);
            let mut cache = SampledCache::new(CacheConfig {
                sets: 64,
                ways: 4,
                line_bytes: 64,
            });
            let mask = CbmMask::full(4);
            let _ = cache.access(ClosId(0), mask, addr * 64, false);
            assert!(cache.access(ClosId(0), mask, addr * 64, false).hit);
        }
    }
}

#[cfg(test)]
mod prefetch_unit_tests {
    use super::*;

    #[test]
    fn prefetch_installs_absent_lines_and_skips_resident_ones() {
        let mut c = SampledCache::new(CacheConfig {
            sets: 4,
            ways: 4,
            line_bytes: 64,
        });
        let m = CbmMask::full(4);
        let out = c.prefetch(ClosId(0), m, 0);
        assert!(!out.hit, "first prefetch fills");
        assert!(c.access(ClosId(0), m, 0, false).hit, "prefetched line hits");
        assert!(c.prefetch(ClosId(0), m, 0).hit, "re-prefetch is free");
    }

    #[test]
    fn prefetched_lines_are_evicted_before_demand_lines() {
        let mut c = SampledCache::new(CacheConfig {
            sets: 1,
            ways: 2,
            line_bytes: 64,
        });
        let m = CbmMask::full(2);
        c.access(ClosId(0), m, 0, false); // Demand line, tag 0.
        c.prefetch(ClosId(0), m, 64); // Prefetch line, tag 1 (LRU insert).
        c.access(ClosId(0), m, 128, false); // Fill: must evict the prefetch.
        assert!(c.access(ClosId(0), m, 0, false).hit, "demand line survived");
        assert!(
            !c.access(ClosId(0), m, 64, false).hit,
            "prefetch was victim"
        );
    }

    /// A prefetch into an empty way is valid with stamp 0. The next miss
    /// must still take the lowest *empty* way — validity decides, not
    /// the stamp — and only once the set is full is the never-used
    /// prefetch the first to go.
    #[test]
    fn prefetch_into_an_empty_way_is_not_the_victim_while_ways_are_empty() {
        let mut c = SampledCache::new(CacheConfig {
            sets: 1,
            ways: 3,
            line_bytes: 64,
        });
        let m = CbmMask::full(3);
        assert!(!c.prefetch(ClosId(0), m, 0).hit);
        assert_eq!(c.snapshot().lines[0].lru, 0, "LRU-position insert");
        c.access(ClosId(0), m, 64, false); // Way 1, not way 0.
        c.access(ClosId(0), m, 128, false); // Way 2.
        let tags: Vec<u64> = c.snapshot().lines.iter().map(|l| l.tag).collect();
        assert_eq!(tags, [0, 1, 2], "the prefetched line survived both fills");
        c.access(ClosId(0), m, 192, false); // Full set: stamp 0 goes first.
        let tags: Vec<u64> = c.snapshot().lines.iter().map(|l| l.tag).collect();
        assert_eq!(tags, [3, 1, 2]);
    }

    #[test]
    fn non_power_of_two_set_counts_split_addresses_by_remainder() {
        let mut c = SampledCache::new(CacheConfig {
            sets: 3,
            ways: 2,
            line_bytes: 64,
        });
        let m = CbmMask::full(2);
        // Lines 1, 4 and 7 all fall in set 1, with tags 0, 1 and 2.
        for line in [1u64, 4, 7] {
            assert!(!c.access(ClosId(0), m, line * 64, false).hit);
        }
        assert!(c.access(ClosId(0), m, 4 * 64, false).hit);
        assert!(!c.access(ClosId(0), m, 64, false).hit, "line 1 was evicted");
        let lines = c.snapshot().lines;
        assert!(lines.iter().all(|l| l.index / 2 == 1), "{lines:?}");
    }

    #[test]
    fn prefetch_respects_cat_masks() {
        let mut c = SampledCache::new(CacheConfig {
            sets: 1,
            ways: 4,
            line_bytes: 64,
        });
        let left = CbmMask::new(0b0011, 4).unwrap();
        let right = CbmMask::new(0b1100, 4).unwrap();
        // CLOS 1 owns the right half.
        c.access(ClosId(1), right, 64 * 10, false);
        c.access(ClosId(1), right, 64 * 11, false);
        // CLOS 0 prefetches heavily into its left half only.
        for t in 0..8 {
            c.prefetch(ClosId(0), left, 64 * t);
        }
        assert!(c.access(ClosId(1), right, 64 * 10, false).hit);
        assert!(c.access(ClosId(1), right, 64 * 11, false).hit);
    }

    #[test]
    fn prefetch_writeback_of_dirty_victim_is_reported() {
        let mut c = SampledCache::new(CacheConfig {
            sets: 1,
            ways: 1,
            line_bytes: 64,
        });
        let m = CbmMask::full(1);
        c.access(ClosId(0), m, 0, true); // Dirty.
        let out = c.prefetch(ClosId(0), m, 64);
        assert!(!out.hit);
        assert!(out.writeback, "dirty victim must be written back");
    }
}
