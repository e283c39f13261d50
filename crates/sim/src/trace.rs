//! Synthetic address-trace generation.
//!
//! Application memory behaviour is modelled as a weighted mixture of
//! access *phases*, each a simple, well-understood pattern. The mixture
//! weights and footprints are per-benchmark calibration data (see the
//! `copart-workloads` crate); together they reproduce the four sensitivity
//! classes the paper characterizes in §3.3/§4:
//!
//! * [`AccessPattern::WorkingSetLoop`] — cyclic sweeps over a bounded
//!   region; hits when the region fits the allocated ways, LRU-thrashes
//!   when it does not (LLC-sensitive behaviour),
//! * [`AccessPattern::Stream`] — sequential, effectively-no-reuse traffic
//!   (memory-bandwidth-sensitive behaviour),
//! * [`AccessPattern::UniformRandom`] — uniform accesses over a region,
//! * [`AccessPattern::Zipf`] — skewed reuse, yielding smooth miss-ratio
//!   curves.
//!
//! Patterns are emitted in bursts of [`BURST_LEN`] accesses so streaming
//! runs stay sequential under mixing, as they do in real traces.

use std::sync::{Arc, Mutex};

use copart_rng::XorShift64Star;

/// Number of consecutive accesses drawn from one phase before the active
/// phase is re-sampled.
pub const BURST_LEN: u32 = 64;

/// A single access phase.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPattern {
    /// Cyclic sweep over `bytes` with the given stride.
    WorkingSetLoop {
        /// Footprint in bytes.
        bytes: u64,
        /// Address increment per access, in bytes.
        stride: u64,
    },
    /// Sequential streaming over a `bytes`-sized region (wraps around; make
    /// the region much larger than the LLC for true no-reuse behaviour).
    Stream {
        /// Footprint in bytes.
        bytes: u64,
    },
    /// Uniformly random line-aligned accesses within `bytes`.
    UniformRandom {
        /// Footprint in bytes.
        bytes: u64,
    },
    /// Zipf-distributed accesses over `bytes` with the given exponent
    /// (larger exponent ⇒ more skew, more locality), drawn through a
    /// continuous inverse-CDF approximation tabulated exactly once per
    /// process (DESIGN.md §4).
    Zipf {
        /// Footprint in bytes.
        bytes: u64,
        /// Skew exponent: finite, positive and not 1
        /// ([`zipf_exponent_is_valid`]). A generator over any other
        /// panics, and snapshot decoding rejects it.
        exponent: f64,
    },
    /// A dependent pointer chase: each access determines the next through
    /// a fixed pseudo-random permutation of the region's lines (one long
    /// cycle), modelling linked-data-structure traversals. Pair this
    /// pattern with a low [`crate::AppSpec`] `mlp` — the chain serializes
    /// misses.
    PointerChase {
        /// Footprint in bytes.
        bytes: u64,
    },
}

impl AccessPattern {
    /// The pattern's footprint in bytes.
    pub fn bytes(&self) -> u64 {
        match *self {
            AccessPattern::WorkingSetLoop { bytes, .. }
            | AccessPattern::Stream { bytes }
            | AccessPattern::UniformRandom { bytes }
            | AccessPattern::Zipf { bytes, .. }
            | AccessPattern::PointerChase { bytes } => bytes,
        }
    }

    /// Returns a copy with the footprint divided by `scale` (floored at
    /// four lines), used for scaled cache simulation.
    pub fn scaled(&self, scale: u32, line_bytes: u64) -> AccessPattern {
        let floor = 4 * line_bytes;
        let scale_bytes = |b: u64| (b / u64::from(scale)).max(floor);
        match *self {
            AccessPattern::WorkingSetLoop { bytes, stride } => AccessPattern::WorkingSetLoop {
                bytes: scale_bytes(bytes),
                stride,
            },
            AccessPattern::Stream { bytes } => AccessPattern::Stream {
                bytes: scale_bytes(bytes),
            },
            AccessPattern::UniformRandom { bytes } => AccessPattern::UniformRandom {
                bytes: scale_bytes(bytes),
            },
            AccessPattern::Zipf { bytes, exponent } => AccessPattern::Zipf {
                bytes: scale_bytes(bytes),
                exponent,
            },
            AccessPattern::PointerChase { bytes } => AccessPattern::PointerChase {
                bytes: scale_bytes(bytes),
            },
        }
    }
}

/// An [`AccessPattern`] resolved to what one draw needs, computed once
/// at construction. The constants are the very `f64`/integer expressions
/// the per-draw code would evaluate, so the address stream is the same
/// bit for bit (DESIGN.md §4).
#[derive(Debug, Clone)]
enum Kernel {
    /// `WorkingSetLoop` and `Stream`: the cursor walks `bytes` cyclically.
    Walk { bytes: u64, stride: u64 },
    /// `UniformRandom`: one integer draw per access.
    Uniform { lines: u64 },
    /// `Zipf`: one 53-bit draw per access through the process-wide step
    /// table of its `(lines, s)` ([`ZipfTable`]), which returns exactly
    /// the rank the continuous inverse-CDF form ([`ZipfForm::rank`])
    /// gives for that draw.
    Zipf(Arc<ZipfTable>),
    /// `PointerChase`: a Weyl-style permutation walk. Stepping by an odd
    /// constant modulo `lines` visits every line once per cycle when
    /// `lines` and the step are coprime; the large odd step destroys
    /// spatial locality like a real pointer chase.
    Chase { lines: u64, step: u64 },
}

impl Kernel {
    fn new(pattern: &AccessPattern, line_bytes: u64) -> Kernel {
        let lines = (pattern.bytes() / line_bytes).max(1);
        match *pattern {
            AccessPattern::WorkingSetLoop { bytes, stride } => Kernel::Walk { bytes, stride },
            AccessPattern::Stream { bytes } => Kernel::Walk {
                bytes,
                stride: line_bytes,
            },
            AccessPattern::UniformRandom { .. } => Kernel::Uniform { lines },
            AccessPattern::Zipf { exponent, .. } => {
                Kernel::Zipf(ZipfTable::shared(lines, exponent))
            }
            AccessPattern::PointerChase { .. } => Kernel::Chase {
                lines,
                step: (lines / 2) | 1,
            },
        }
    }
}

/// Whether `s` is a Zipf exponent the generator accepts: finite,
/// positive and not 1 (at `s = 1` the closed-form `H(n)` below is 0/0).
pub fn zipf_exponent_is_valid(s: f64) -> bool {
    s.is_finite() && s > 0.0 && (s - 1.0).abs() > 1e-9
}

/// Number of distinct `[0, 1)` draws: `rng.gen_range(0.0..1.0)` is
/// `m · 2⁻⁵³` for the 53-bit integer `m = next_u64() >> 11`.
const DRAWS: u64 = 1 << 53;

/// The 53-bit integer `m` behind one `rng.gen_range(0.0..1.0)` draw.
#[inline(always)]
fn draw53(rng: &mut XorShift64Star) -> u64 {
    rng.next_u64() >> 11
}

/// The integer form of the Bernoulli draw `u < p`: `u = m · 2⁻⁵³ < p`
/// exactly when `m < ceil(p · 2⁵³)`. Scaling by a power of two is exact,
/// and the saturating cast makes every `p` agree with the float
/// comparison: NaN and `p ≤ 0` give 0 (never), `p ≥ 1` gives at least
/// 2⁵³ (always).
#[inline]
fn write_threshold(p: f64) -> u64 {
    (p * DRAWS as f64).ceil() as u64
}

/// The continuous inverse-CDF approximation of the generalized harmonic
/// CDF, H(n) ≈ (n^(1-s) - 1) / (1-s), inverted for k at H(k)/H(n) = u:
/// `k(u) = min(⌊(1 + (1-s)·u·H(n))^(1/(1-s))⌋, n - 1)`. Approximate but
/// monotone in skew, which is all the workload models need.
#[derive(Debug, Clone, Copy)]
struct ZipfForm {
    lines: u64,
    /// `1 - s`.
    one_minus_s: f64,
    /// `H(lines)`.
    h_n: f64,
    /// `1 / (1 - s)`.
    inv_one_minus_s: f64,
}

impl ZipfForm {
    fn new(lines: u64, s: f64) -> ZipfForm {
        assert!(zipf_exponent_is_valid(s), "Zipf exponent {s} unsupported");
        let one_minus_s = 1.0 - s;
        ZipfForm {
            lines,
            one_minus_s,
            h_n: ((lines as f64).powf(one_minus_s) - 1.0) / one_minus_s,
            inv_one_minus_s: 1.0 / one_minus_s,
        }
    }

    /// The rank of draw `m` by one `powf`: the definition the step table
    /// reproduces, and its exact fallback.
    #[inline]
    fn rank(&self, m: u64) -> u64 {
        let u = m as f64 * (1.0 / DRAWS as f64);
        let k = (self.one_minus_s * u * self.h_n + 1.0).powf(self.inv_one_minus_s);
        (k as u64).min(self.lines - 1)
    }

    /// The least draw `m` with `rank(m) ≥ j`, for `rank(0) < j ≤
    /// rank(DRAWS - 1)`: the analytic inverse as a guess (it lands
    /// within a few draws), then a gallop to a bracket `rank(lo) < j ≤
    /// rank(hi)`, then bisection down to adjacent draws.
    fn step(&self, j: u64) -> u64 {
        let u = ((j as f64).powf(self.one_minus_s) - 1.0) / (self.one_minus_s * self.h_n);
        let guess = ((u * DRAWS as f64) as u64).min(DRAWS - 1);
        // Each bound carries the rank it was evaluated at.
        let (mut lo, mut hi);
        let at_guess = (guess, self.rank(guess));
        if at_guess.1 >= j {
            hi = at_guess;
            let mut gap = 1;
            loop {
                let m = hi.0.saturating_sub(gap);
                let probe = (m, self.rank(m));
                if probe.1 < j {
                    lo = probe;
                    break;
                }
                hi = probe;
                gap *= 2;
            }
        } else {
            lo = at_guess;
            let mut gap = 1;
            loop {
                let m = (lo.0 + gap).min(DRAWS - 1);
                let probe = (m, self.rank(m));
                if probe.1 >= j {
                    hi = probe;
                    break;
                }
                lo = probe;
                gap *= 2;
            }
        }
        while hi.0 - lo.0 > 1 {
            let m = lo.0 + (hi.0 - lo.0) / 2;
            let probe = (m, self.rank(m));
            if probe.1 >= j {
                hi = probe;
            } else {
                lo = probe;
            }
        }
        assert!(
            lo.0 + 1 == hi.0 && lo.1 < j && hi.1 >= j,
            "Zipf rank {j} has no step: rank({}) = {}, rank({}) = {}",
            lo.0,
            lo.1,
            hi.0,
            hi.1
        );
        hi.0
    }
}

/// Bits of a step's offset into its bucket the table keeps.
const OFFSET_BITS: u32 = 16;

/// [`ZipfForm::rank`] as a table over the 53-bit draw. The rank is a
/// non-decreasing step function of the draw, so it is fixed by its steps
/// `step(j)` (the least draw of rank ≥ j, found with the very `powf`
/// form). The draw's top bits pick a bucket, which knows how many steps
/// lie before it; a short scan over the bucket's own steps finishes the
/// count. Each step is kept as the top 16 bits of its offset into its
/// bucket: a draw that shares those with a step is decided by the `powf`
/// form itself — the one exact fallback, about one draw in 2¹⁶ per step
/// in the draw's bucket.
struct ZipfTable {
    form: ZipfForm,
    /// `rank(0)`: every draw's rank is at least this.
    floor: u64,
    /// `draw >> shift` is the draw's bucket.
    shift: u32,
    /// `first[b]`: how many steps lie before bucket `b` (one entry past
    /// the last bucket, so bucket `b`'s steps are `first[b]..first[b + 1]`).
    first: Box<[u32]>,
    /// `step(j)`'s offset into its bucket, to its top [`OFFSET_BITS`],
    /// for `j` in `floor + 1..=rank(DRAWS - 1)`.
    steps: Box<[u16]>,
}

impl ZipfTable {
    /// The table for `(lines, s)`, built on first use and shared by every
    /// generator of the process afterwards.
    fn shared(lines: u64, s: f64) -> Arc<ZipfTable> {
        type Memo = Vec<((u64, u64), Arc<ZipfTable>)>;
        static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
        let key = (lines, s.to_bits());
        let mut memo = MEMO.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, table)) = memo.iter().find(|(k, _)| *k == key) {
            return Arc::clone(table);
        }
        let table = Arc::new(ZipfTable::build(ZipfForm::new(lines, s)));
        memo.push((key, Arc::clone(&table)));
        table
    }

    fn build(form: ZipfForm) -> ZipfTable {
        let floor = form.rank(0);
        let last = form.rank(DRAWS - 1);
        let count = usize::try_from(last - floor).expect("step count fits usize");
        assert!(u32::try_from(count).is_ok(), "too many Zipf steps");
        // A bucket per four ranks: a draw scans a few steps on average
        // whatever the skew, since a bucket holds n/B of them weighted by
        // how often draws land in it.
        let buckets = ((last + 1).next_power_of_two() / 4).max(1);
        let shift = 53 - buckets.trailing_zeros();
        let mut first = Vec::with_capacity(buckets as usize + 1);
        let mut steps = Vec::with_capacity(count);
        let mut previous = 0;
        for j in floor + 1..=last {
            let step = form.step(j);
            assert!(step >= previous, "Zipf steps must not decrease");
            previous = step;
            while first.len() as u64 <= step >> shift {
                first.push(steps.len() as u32);
            }
            steps.push((step >> (shift - OFFSET_BITS)) as u16);
        }
        first.resize(buckets as usize + 1, steps.len() as u32);
        ZipfTable {
            form,
            floor,
            shift,
            first: first.into_boxed_slice(),
            steps: steps.into_boxed_slice(),
        }
    }

    /// The rank of draw `m` from the table, or `None` when `m` shares its
    /// bucket offset's top bits with a step and only the `powf` form can
    /// tell.
    #[inline]
    fn lookup(&self, m: u64) -> Option<u64> {
        let bucket = (m >> self.shift) as usize;
        let offset = (m >> (self.shift - OFFSET_BITS)) as u16;
        let (mut i, end) = (self.first[bucket] as usize, self.first[bucket + 1] as usize);
        while i < end {
            let step = self.steps[i];
            if step > offset {
                break;
            }
            if step == offset {
                return None;
            }
            i += 1;
        }
        Some(self.floor + i as u64)
    }

    /// The rank of draw `m`: exactly [`ZipfForm::rank`]`(m)`.
    #[inline]
    fn rank(&self, m: u64) -> u64 {
        self.lookup(m).unwrap_or_else(|| self.form.rank(m))
    }

    /// Heap bytes the table holds.
    fn bytes(&self) -> usize {
        self.first.len() * std::mem::size_of::<u32>()
            + self.steps.len() * std::mem::size_of::<u16>()
    }
}

impl std::fmt::Debug for ZipfTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZipfTable")
            .field("form", &self.form)
            .field("buckets", &(self.first.len() - 1))
            .field("steps", &self.steps.len())
            .finish()
    }
}

/// Builds the step table a [`AccessPattern::Zipf`] draws through afresh,
/// past the process-wide memo, and returns its heap bytes (0 for any
/// other pattern): what the first generator over the pattern pays, for
/// the simulator benchmarks.
pub fn build_zipf_table(pattern: &AccessPattern, line_bytes: u64) -> usize {
    match *pattern {
        AccessPattern::Zipf { exponent, .. } => {
            let lines = (pattern.bytes() / line_bytes).max(1);
            ZipfTable::build(ZipfForm::new(lines, exponent)).bytes()
        }
        _ => 0,
    }
}

/// `(cursor + stride) % modulus`, without the division whenever the sum
/// cannot reach `2 × modulus`. A restored cursor may sit past its region
/// and a loop's stride may exceed it; those take the `%`.
#[inline(always)]
fn wrapping_step(cursor: u64, stride: u64, modulus: u64) -> u64 {
    let next = cursor + stride;
    if cursor < modulus && stride <= modulus {
        if next >= modulus {
            next - modulus
        } else {
            next
        }
    } else {
        next % modulus
    }
}

/// Fills `out` from `step`, drawing one write decision after each
/// address when `write_fraction` is given — the order
/// [`TraceGenerator::next_addr`] then [`TraceGenerator::flip`] draw in.
/// Returns the write decisions, bit *i* for `out[i]`.
#[inline(always)]
fn fill_with(
    out: &mut [u64],
    rng: &mut XorShift64Star,
    write_fraction: Option<f64>,
    mut step: impl FnMut(&mut XorShift64Star) -> u64,
) -> u64 {
    let mut writes = 0u64;
    match write_fraction {
        Some(p) => {
            let threshold = write_threshold(p);
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = step(rng);
                writes |= u64::from(draw53(rng) < threshold) << i;
            }
        }
        None => {
            for slot in out {
                *slot = step(rng);
            }
        }
    }
    writes
}

/// Per-phase generator state.
#[derive(Debug, Clone)]
struct PhaseState {
    kernel: Kernel,
    weight: f64,
    cursor: u64,
}

impl PhaseState {
    /// Emits `out.len()` (≤ 64) consecutive addresses of this phase, the
    /// pattern resolved once for the whole block.
    #[inline]
    fn fill(
        &mut self,
        rng: &mut XorShift64Star,
        line_bytes: u64,
        write_fraction: Option<f64>,
        out: &mut [u64],
    ) -> u64 {
        let align = !(line_bytes - 1);
        let cursor = &mut self.cursor;
        match &self.kernel {
            &Kernel::Walk { bytes, stride } => fill_with(out, rng, write_fraction, |_| {
                let addr = *cursor;
                *cursor = wrapping_step(addr, stride, bytes);
                addr & align
            }),
            &Kernel::Uniform { lines } => fill_with(out, rng, write_fraction, |rng| {
                (rng.gen_range(0..lines) * line_bytes) & align
            }),
            Kernel::Zipf(table) => fill_with(out, rng, write_fraction, |rng| {
                (table.rank(draw53(rng)) * line_bytes) & align
            }),
            &Kernel::Chase { lines, step } => fill_with(out, rng, write_fraction, |_| {
                let idx = if *cursor < lines {
                    *cursor
                } else {
                    *cursor % lines
                };
                *cursor = wrapping_step(idx, step, lines);
                (idx * line_bytes) & align
            }),
        }
    }
}

/// Frozen mid-stream position of a [`TraceGenerator`]: the per-phase
/// cursors, the RNG stream position, and the burst bookkeeping. Applied
/// to a generator rebuilt over the *same* phase mixture (any seed), it
/// resumes the address stream exactly where the original left off.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenSnapshot {
    /// Phase cursors, in phase order.
    pub cursors: Vec<u64>,
    /// The generator RNG's raw state word.
    pub rng_state: u64,
    /// Index of the phase currently emitting its burst.
    pub active: usize,
    /// Accesses left in the current burst.
    pub burst_left: u32,
}

/// A deterministic, seedable trace generator over a phase mixture.
///
/// All addresses are offsets within the application's private address
/// space; the machine adds a per-application base so tags never collide
/// across applications.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    phases: Vec<PhaseState>,
    line_bytes: u64,
    rng: XorShift64Star,
    active: usize,
    burst_left: u32,
    total_weight: f64,
}

impl TraceGenerator {
    /// Builds a generator over `(weight, pattern)` phases.
    ///
    /// # Panics
    ///
    /// Panics if the mixture is empty or all weights are non-positive;
    /// phase tables are static calibration data, so this is a programming
    /// error.
    pub fn new(phases: &[(f64, AccessPattern)], line_bytes: u64, seed: u64) -> TraceGenerator {
        assert!(!phases.is_empty(), "phase mixture must be non-empty");
        let states: Vec<PhaseState> = phases
            .iter()
            .map(|(w, p)| PhaseState {
                kernel: Kernel::new(p, line_bytes),
                weight: *w,
                cursor: 0,
            })
            .collect();
        let total_weight: f64 = states.iter().map(|p| p.weight).sum();
        assert!(
            total_weight > 0.0,
            "phase weights must sum to a positive value"
        );
        TraceGenerator {
            phases: states,
            line_bytes,
            rng: XorShift64Star::seed_from_u64(seed),
            active: 0,
            burst_left: 0,
            total_weight,
        }
    }

    /// Produces the next line-aligned address offset.
    pub fn next_addr(&mut self) -> u64 {
        let mut one = [0u64];
        self.generate(None, &mut one);
        one[0]
    }

    /// Generates the next `out.len()` (at most 64) accesses at once:
    /// line-aligned address offsets into `out`, and the write decisions
    /// as a bitmask (bit *i* for `out[i]`). Equivalent to calling
    /// [`TraceGenerator::next_addr`] then
    /// [`TraceGenerator::flip`]`(write_fraction)` once per slot — the
    /// same RNG draws in the same order — with the active phase resolved
    /// once per burst rather than once per access.
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than 64.
    pub fn fill(&mut self, write_fraction: f64, out: &mut [u64]) -> u64 {
        self.generate(Some(write_fraction), out)
    }

    #[inline]
    fn generate(&mut self, write_fraction: Option<f64>, out: &mut [u64]) -> u64 {
        assert!(out.len() <= 64, "one write bit per access");
        let mut writes = 0u64;
        let mut done = 0;
        while done < out.len() {
            if self.burst_left == 0 {
                self.active = self.pick_phase();
                self.burst_left = BURST_LEN;
            }
            let n = (out.len() - done).min(self.burst_left as usize);
            self.burst_left -= n as u32;
            writes |= self.phases[self.active].fill(
                &mut self.rng,
                self.line_bytes,
                write_fraction,
                &mut out[done..done + n],
            ) << done;
            done += n;
        }
        writes
    }

    fn pick_phase(&mut self) -> usize {
        let mut t = self.rng.gen_range(0.0..self.total_weight);
        for (i, p) in self.phases.iter().enumerate() {
            if t < p.weight {
                return i;
            }
            t -= p.weight;
        }
        self.phases.len() - 1
    }

    /// Draws a Bernoulli sample with probability `p` from the generator's
    /// own RNG stream (used for write decisions, keeping runs
    /// reproducible from the single seed).
    pub fn flip(&mut self, p: f64) -> bool {
        draw53(&mut self.rng) < write_threshold(p)
    }

    /// Captures the generator's mid-stream position.
    pub fn snapshot(&self) -> TraceGenSnapshot {
        TraceGenSnapshot {
            cursors: self.phases.iter().map(|p| p.cursor).collect(),
            rng_state: self.rng.state(),
            active: self.active,
            burst_left: self.burst_left,
        }
    }

    /// Resumes from a captured position. The generator must have been
    /// rebuilt over the same phase mixture the snapshot was taken from.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's cursor count does not match the phase
    /// count or its active index is out of range — that means the
    /// snapshot belongs to a different mixture.
    pub fn restore(&mut self, snap: &TraceGenSnapshot) {
        assert_eq!(
            snap.cursors.len(),
            self.phases.len(),
            "snapshot phase count mismatch"
        );
        assert!(snap.active < self.phases.len(), "active phase out of range");
        for (phase, cursor) in self.phases.iter_mut().zip(&snap.cursors) {
            phase.cursor = *cursor;
        }
        self.rng = XorShift64Star::from_state(snap.rng_state);
        self.active = snap.active;
        self.burst_left = snap.burst_left;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gen_one(pattern: AccessPattern, n: usize) -> Vec<u64> {
        let mut g = TraceGenerator::new(&[(1.0, pattern)], 64, 42);
        (0..n).map(|_| g.next_addr()).collect()
    }

    #[test]
    fn working_set_loop_cycles_exactly() {
        let addrs = gen_one(
            AccessPattern::WorkingSetLoop {
                bytes: 4 * 64,
                stride: 64,
            },
            8,
        );
        assert_eq!(addrs, vec![0, 64, 128, 192, 0, 64, 128, 192]);
    }

    #[test]
    fn stream_is_sequential_and_wraps() {
        let addrs = gen_one(AccessPattern::Stream { bytes: 3 * 64 }, 4);
        assert_eq!(addrs, vec![0, 64, 128, 0]);
    }

    #[test]
    fn uniform_random_stays_in_bounds_and_is_aligned() {
        let bytes = 1024 * 64;
        let addrs = gen_one(AccessPattern::UniformRandom { bytes }, 10_000);
        assert!(addrs.iter().all(|&a| a < bytes && a % 64 == 0));
        // Should touch a large fraction of the 1024 lines.
        let distinct: HashSet<_> = addrs.iter().collect();
        assert!(
            distinct.len() > 900,
            "only {} distinct lines",
            distinct.len()
        );
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let bytes = 4096 * 64;
        let addrs = gen_one(
            AccessPattern::Zipf {
                bytes,
                exponent: 1.2,
            },
            50_000,
        );
        assert!(addrs.iter().all(|&a| a < bytes && a % 64 == 0));
        let hot = addrs.iter().filter(|&&a| a < 64 * 64).count();
        // Top 64 of 4096 lines should draw far more than the uniform share
        // (64/4096 ≈ 1.6 %).
        assert!(
            hot as f64 / 50_000.0 > 0.3,
            "hot fraction {}",
            hot as f64 / 50_000.0
        );
    }

    /// Zipf ranks come from a step table built once per `(lines, s)`
    /// instead of a `powf` per draw; the ranks must not move by a bit.
    /// The reference is the original per-draw form, fed by a second RNG
    /// on the same stream.
    #[test]
    fn zipf_constants_computed_once_leave_every_rank_unchanged() {
        fn rank_per_draw(rng: &mut XorShift64Star, n: u64, s: f64) -> u64 {
            let u: f64 = rng.gen_range(0.0..1.0);
            let nf = n as f64;
            let one_minus_s = 1.0 - s;
            let h_n = (nf.powf(one_minus_s) - 1.0) / one_minus_s;
            let k = (one_minus_s * u * h_n + 1.0).powf(1.0 / one_minus_s);
            (k as u64).min(n - 1)
        }
        for (lines, exponent) in [
            (3072u64, 1.2),
            (3584, 1.1),
            (1280, 1.4),
            (97, 0.7),
            (1, 1.3),
        ] {
            let bytes = lines * 64;
            let phases = [(1.0, AccessPattern::Zipf { bytes, exponent })];
            let mut generator = TraceGenerator::new(&phases, 64, 11);
            let mut rng = XorShift64Star::seed_from_u64(11);
            for i in 0..20_000u32 {
                if i % BURST_LEN == 0 {
                    let _phase_draw = rng.gen_range(0.0..1.0);
                }
                assert_eq!(
                    generator.next_addr(),
                    rank_per_draw(&mut rng, lines, exponent) * 64,
                    "lines {lines} exponent {exponent} draw {i}"
                );
            }
        }
    }

    /// Every Zipf `(lines, s)` the workload models reach on the testbed
    /// (1/64 set sampling, 64 B lines: `bytes / 4096` lines): Table 2's
    /// seven phases, the case study's two memcached phases (the compare
    /// LC scenarios reuse them), `copart-persist`'s s = 0.99 test
    /// machine; then a small s < 1 region and the one-line region.
    const ZIPFS: [(u64, f64); 12] = [
        (2304, 1.3),  // 9 MB
        (1792, 1.3),  // 7 MB
        (1280, 1.4),  // 5 MB
        (3072, 1.2),  // 12 MB
        (2048, 1.2),  // 8 MB
        (3584, 1.1),  // 14 MB
        (256, 1.3),   // 1 MB
        (6144, 1.05), // 24 MB memcached
        (6144, 1.1),  // 24 MB memcached (case study)
        (16384, 0.99),
        (97, 0.7),
        (1, 1.3),
    ];

    #[test]
    fn zipf_table_matches_the_powf_form_around_every_step() {
        for (lines, s) in ZIPFS {
            let form = ZipfForm::new(lines, s);
            let table = ZipfTable::build(form);
            let mut probes: Vec<u64> = (0..=64).chain(DRAWS - 65..DRAWS).collect();
            for j in form.rank(0) + 1..=form.rank(DRAWS - 1) {
                let step = form.step(j);
                probes.extend(step.saturating_sub(64)..=(step + 64).min(DRAWS - 1));
            }
            for m in probes {
                assert_eq!(table.rank(m), form.rank(m), "lines {lines} s {s} draw {m}");
            }
        }
    }

    #[test]
    fn zipf_table_matches_the_powf_form_on_seeded_draws() {
        for (i, (lines, s)) in ZIPFS.into_iter().enumerate() {
            let form = ZipfForm::new(lines, s);
            let table = ZipfTable::build(form);
            let mut rng = XorShift64Star::seed_from_u64(i as u64);
            for _ in 0..1_000_000 {
                let m = draw53(&mut rng);
                assert_eq!(table.rank(m), form.rank(m), "lines {lines} s {s} draw {m}");
            }
        }
    }

    /// The table keeps each step's offset into its bucket to 16 bits,
    /// so a draw that shares those with a step is handed to the `powf`
    /// form: every draw sitting exactly on a step takes that fallback,
    /// and a seeded stream rarely does.
    #[test]
    fn zipf_table_falls_back_to_the_powf_form_only_beside_a_step() {
        let form = ZipfForm::new(3584, 1.1);
        let table = ZipfTable::build(form);
        for j in form.rank(0) + 1..=form.rank(DRAWS - 1) {
            let step = form.step(j);
            assert_eq!(table.lookup(step), None, "rank {j} at draw {step}");
            assert_eq!(table.rank(step), form.rank(step));
        }
        let mut rng = XorShift64Star::seed_from_u64(5);
        let rare = (0..1_000_000)
            .filter(|_| table.lookup(draw53(&mut rng)).is_none())
            .count();
        assert!(rare < 1000, "{rare} of 10^6 seeded draws fell back");
    }

    #[test]
    fn zipf_tables_are_shared_per_pattern() {
        let a = ZipfTable::shared(2304, 1.3);
        let b = ZipfTable::shared(2304, 1.3);
        let c = ZipfTable::shared(2304, 1.2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    /// `m < write_threshold(p)` is `m · 2⁻⁵³ < p` for every `p`, including
    /// the ones a float comparison treats specially.
    #[test]
    fn write_threshold_agrees_with_the_float_comparison() {
        let ps = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f64::from_bits(1), // the smallest subnormal
            1e-300,
            1.0 / DRAWS as f64,
            0.25,
            0.31,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            1.5,
            f64::INFINITY,
        ];
        let mut rng = XorShift64Star::seed_from_u64(3);
        for p in ps {
            let t = write_threshold(p);
            let near = (0..=4).map(|d| t.saturating_sub(2).saturating_add(d));
            let ends = [0, 1, DRAWS - 2, DRAWS - 1];
            let random: Vec<u64> = (0..1000).map(|_| draw53(&mut rng)).collect();
            for m in near.chain(ends).chain(random).filter(|&m| m < DRAWS) {
                let u = m as f64 * (1.0 / DRAWS as f64);
                assert_eq!(m < t, u < p, "p {p:e} draw {m}");
            }
        }
    }

    #[test]
    fn zipf_exponent_validity() {
        for s in [0.5, 0.99, 1.1, 1.3, 4.0] {
            assert!(zipf_exponent_is_valid(s), "{s}");
        }
        for s in [1.0, 0.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!zipf_exponent_is_valid(s), "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "Zipf exponent 1 unsupported")]
    fn zipf_exponent_one_is_refused_in_every_build() {
        let _ = gen_one(
            AccessPattern::Zipf {
                bytes: 1 << 16,
                exponent: 1.0,
            },
            1,
        );
    }

    #[test]
    fn pointer_chase_visits_every_line_without_locality() {
        let lines = 257u64; // Prime: any odd step is coprime.
        let addrs = gen_one(
            AccessPattern::PointerChase { bytes: lines * 64 },
            lines as usize,
        );
        let distinct: HashSet<_> = addrs.iter().collect();
        assert_eq!(
            distinct.len(),
            lines as usize,
            "one full cycle covers every line exactly once"
        );
        // No spatial locality: consecutive addresses are far apart.
        let close = addrs
            .windows(2)
            .filter(|w| w[0].abs_diff(w[1]) <= 64)
            .count();
        assert!(close <= 2, "{close} near-sequential steps");
    }

    #[test]
    fn mixture_respects_weights_roughly() {
        // 90 % tiny loop (addresses < 256), 10 % distant stream.
        let mut g = TraceGenerator::new(
            &[
                (
                    0.9,
                    AccessPattern::WorkingSetLoop {
                        bytes: 4 * 64,
                        stride: 64,
                    },
                ),
                (0.1, AccessPattern::UniformRandom { bytes: 1 << 30 }),
            ],
            64,
            9,
        );
        let n = 100_000;
        let near = (0..n).filter(|_| g.next_addr() < 256).count();
        let frac = near as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.05, "loop fraction {frac}");
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let p = [(1.0, AccessPattern::UniformRandom { bytes: 1 << 20 })];
        let mut a = TraceGenerator::new(&p, 64, 5);
        let mut b = TraceGenerator::new(&p, 64, 5);
        let mut c = TraceGenerator::new(&p, 64, 6);
        let va: Vec<u64> = (0..100).map(|_| a.next_addr()).collect();
        let vb: Vec<u64> = (0..100).map(|_| b.next_addr()).collect();
        let vc: Vec<u64> = (0..100).map(|_| c.next_addr()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn scaling_shrinks_footprints_with_floor() {
        let p = AccessPattern::Stream { bytes: 1 << 20 };
        assert_eq!(p.scaled(64, 64).bytes(), (1 << 20) / 64);
        let tiny = AccessPattern::Stream { bytes: 512 };
        assert_eq!(tiny.scaled(64, 64).bytes(), 4 * 64);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_mixture_panics() {
        let _ = TraceGenerator::new(&[], 64, 0);
    }

    #[test]
    fn snapshot_restore_resumes_mid_burst() {
        let phases = [
            (
                0.7,
                AccessPattern::WorkingSetLoop {
                    bytes: 16 * 64,
                    stride: 64,
                },
            ),
            (
                0.3,
                AccessPattern::Zipf {
                    bytes: 1 << 16,
                    exponent: 1.1,
                },
            ),
        ];
        let mut original = TraceGenerator::new(&phases, 64, 77);
        // Advance to an arbitrary point mid-burst.
        for _ in 0..203 {
            original.next_addr();
        }
        original.flip(0.5);
        let snap = original.snapshot();
        // A freshly built generator with a different seed adopts the
        // snapshot completely: the seed only matters at construction.
        let mut resumed = TraceGenerator::new(&phases, 64, 9999);
        resumed.restore(&snap);
        for _ in 0..500 {
            assert_eq!(original.next_addr(), resumed.next_addr());
        }
        assert_eq!(original.flip(0.25), resumed.flip(0.25));
    }

    #[test]
    #[should_panic(expected = "phase count mismatch")]
    fn restore_rejects_foreign_snapshot() {
        let a = TraceGenerator::new(&[(1.0, AccessPattern::Stream { bytes: 1 << 12 })], 64, 1);
        let mut b = TraceGenerator::new(
            &[
                (1.0, AccessPattern::Stream { bytes: 1 << 12 }),
                (1.0, AccessPattern::UniformRandom { bytes: 1 << 12 }),
            ],
            64,
            1,
        );
        b.restore(&a.snapshot());
    }
}
