//! `TraceGenerator::fill` is `next_addr` then `flip`, once per slot.
//!
//! `Machine::tick` draws every application's accesses a burst at a time
//! through `fill`; pre-roll, benches and older tests draw them one at a
//! time. Both must produce the same stream from the same RNG draws, for
//! every calibrated mixture and however the blocks fall against burst
//! and phase boundaries — that is what keeps every simulated statistic
//! identical across the change of generation path.

use copart_sim::trace::{AccessPattern, TraceGenSnapshot, TraceGenerator, BURST_LEN};
use copart_sim::MachineConfig;
use copart_workloads::Benchmark;

const LINE: u64 = 64;

/// Draws `total` accesses from `blockwise` in blocks of `chunk` and from
/// `stepwise` one at a time, demanding identical addresses and write
/// decisions.
fn assert_same_stream(
    blockwise: &mut TraceGenerator,
    stepwise: &mut TraceGenerator,
    write_fraction: f64,
    chunk: usize,
    total: usize,
    what: &str,
) {
    let mut block = [0u64; 64];
    let mut drawn = 0;
    while drawn < total {
        let block = &mut block[..chunk];
        let writes = blockwise.fill(write_fraction, block);
        for (j, &addr) in block.iter().enumerate() {
            let at = drawn + j;
            assert_eq!(
                addr,
                stepwise.next_addr(),
                "{what}: chunk {chunk}, access {at}"
            );
            assert_eq!(
                writes >> j & 1 != 0,
                stepwise.flip(write_fraction),
                "{what}: chunk {chunk}, write bit of access {at}"
            );
        }
        if chunk < 64 {
            assert_eq!(writes >> chunk, 0, "{what}: write bits past the block");
        }
        drawn += chunk;
    }
}

/// The full contract for one mixture: every chunk size from 1 to 64 (so
/// blocks split across bursts and phase switches every which way), then
/// a snapshot taken mid-burst and restored into a generator built from
/// another seed, then the final generator state, RNG word included.
fn assert_fill_equivalent(phases: &[(f64, AccessPattern)], write_fraction: f64, what: &str) {
    for chunk in 1..=64usize {
        let seed = 0xF111 + chunk as u64;
        let mut blockwise = TraceGenerator::new(phases, LINE, seed);
        let mut stepwise = TraceGenerator::new(phases, LINE, seed);
        // Several bursts, so several phase draws.
        let total = 5 * BURST_LEN as usize + 7;
        assert_same_stream(
            &mut blockwise,
            &mut stepwise,
            write_fraction,
            chunk,
            total,
            what,
        );
        assert_eq!(blockwise.snapshot(), stepwise.snapshot(), "{what}: state");

        // Stop mid-burst, then resume a stranger from the snapshot.
        while blockwise.snapshot().burst_left != BURST_LEN / 2 - 3 {
            blockwise.fill(write_fraction, &mut [0u64]);
        }
        let snap = blockwise.snapshot();
        let mut resumed = TraceGenerator::new(phases, LINE, !seed);
        resumed.restore(&snap);
        assert_same_stream(
            &mut blockwise,
            &mut resumed,
            write_fraction,
            chunk,
            total,
            what,
        );
        assert_eq!(blockwise.snapshot(), resumed.snapshot(), "{what}: resumed");
    }
}

#[test]
fn fill_matches_next_addr_then_flip_for_every_table2_benchmark() {
    let cfg = MachineConfig::xeon_gold_6130();
    for bench in Benchmark::all() {
        let spec = bench.spec();
        // The mixture as the machine runs it: footprints at 1/scale.
        let scaled: Vec<(f64, AccessPattern)> = spec
            .phases
            .iter()
            .map(|(w, p)| (*w, p.scaled(cfg.scale, cfg.line_bytes)))
            .collect();
        assert_fill_equivalent(&scaled, spec.write_fraction, &spec.name);
    }
}

/// Addresses a cyclic walk must emit, by the definition
/// `cursor ← (cursor + stride) mod bytes`, aligned down to a line.
fn walk_addresses(mut cursor: u64, stride: u64, bytes: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let addr = cursor & !(LINE - 1);
            cursor = (cursor + stride) % bytes;
            addr
        })
        .collect()
}

#[test]
fn a_stride_longer_than_the_region_still_walks_modulo_the_region() {
    // 5 lines, stride of 7 lines: every step wraps, some wrap twice.
    let (bytes, stride) = (5 * LINE, 7 * LINE + 8);
    let phases = [(1.0, AccessPattern::WorkingSetLoop { bytes, stride })];
    let mut generator = TraceGenerator::new(&phases, LINE, 3);
    let mut block = [0u64; 40];
    generator.fill(0.5, &mut block);
    assert_eq!(block.to_vec(), walk_addresses(0, stride, bytes, 40));
    assert_fill_equivalent(&phases, 0.5, "long stride");
}

#[test]
fn a_restored_cursor_past_the_region_is_reduced_on_its_first_step() {
    let bytes = 6 * LINE;
    for (what, pattern, stride) in [
        (
            "loop",
            AccessPattern::WorkingSetLoop {
                bytes,
                stride: 2 * LINE,
            },
            2 * LINE,
        ),
        ("stream", AccessPattern::Stream { bytes }, LINE),
    ] {
        let phases = [(1.0, pattern)];
        let foreign = TraceGenSnapshot {
            cursors: vec![bytes * 9 + 3 * LINE],
            rng_state: 0x5EED,
            active: 0,
            burst_left: 17,
        };
        let mut blockwise = TraceGenerator::new(&phases, LINE, 1);
        blockwise.restore(&foreign);
        let mut block = [0u64; 30];
        blockwise.fill(0.25, &mut block);
        // The out-of-range cursor is emitted as it stands, then wraps.
        assert_eq!(
            block.to_vec(),
            walk_addresses(foreign.cursors[0], stride, bytes, 30),
            "{what}"
        );
        let mut stepwise = TraceGenerator::new(&phases, LINE, 2);
        stepwise.restore(&foreign);
        let mut blockwise = TraceGenerator::new(&phases, LINE, 1);
        blockwise.restore(&foreign);
        assert_same_stream(&mut blockwise, &mut stepwise, 0.25, 9, 90, what);
        assert_eq!(blockwise.snapshot(), stepwise.snapshot(), "{what}");
    }
}

#[test]
fn a_restored_chase_cursor_past_the_region_is_reduced_first() {
    let lines = 11u64;
    let phases = [(
        1.0,
        AccessPattern::PointerChase {
            bytes: lines * LINE,
        },
    )];
    let mut generator = TraceGenerator::new(&phases, LINE, 1);
    generator.restore(&TraceGenSnapshot {
        cursors: vec![lines * 4 + 2],
        rng_state: 1,
        active: 0,
        burst_left: 64,
    });
    let step = (lines / 2) | 1;
    let mut idx = 2;
    let mut block = [0u64; 25];
    generator.fill(0.0, &mut block);
    for &addr in &block {
        assert_eq!(addr, idx * LINE);
        idx = (idx + step) % lines;
    }
}

#[test]
#[should_panic(expected = "one write bit per access")]
fn a_block_longer_than_64_is_rejected() {
    let phases = [(1.0, AccessPattern::Stream { bytes: 1 << 12 })];
    TraceGenerator::new(&phases, LINE, 1).fill(0.1, &mut [0u64; 65]);
}
