//! The reference kernel that puts host time on a fixed scale.
//!
//! The benchmark's host is shared with other tenants, and its speed
//! changes by up to 2× for minutes at a time. Every workload slows with
//! it, so host seconds measured a few minutes apart are not comparable.
//! The reference kernel is a small, frozen discrete-event loop shaped
//! like the simulator's hot path: a binary heap of pending events, a
//! 4 MiB table of 64-byte records touched at random, and an append-only
//! log, all freshly allocated so that page faults count as they do in a
//! scenario build and run. It is timed right before every repetition,
//! and the repetition's times are scaled by
//! [`REFERENCE_NOMINAL_S`] / that time.
//!
//! Against three simpler kernels (a small heap, an integer loop, a
//! 1 MiB table) and a prefaulted table, this one tracked the workloads
//! best: scaled by it, the spread of `wall_s` over six seeds fell from
//! 11–26% to 3–6% on the same host. The kernel uses only `std` and
//! lives in the benchmark, so a change to the simulator never changes it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The host seconds one reference run is scaled to. Scaled times are
/// those of a host on which the reference kernel takes exactly this
/// long: a round figure near the kernel's medians on the 2-vCPU host the
/// benchmark was tuned on (0.04–0.05 s).
pub const REFERENCE_NOMINAL_S: f64 = 0.04;

/// Records in the state table: 4 MiB of 64-byte records.
const RECORDS: usize = 1 << 16;

/// Events pending at any time.
const PENDING: u32 = 16_384;

/// Events processed per run.
const EVENTS: u32 = 300_000;

/// Every this many events, one is appended to the log.
const LOG_EVERY: u32 = 8;

/// Runs the reference kernel once and returns its host seconds.
pub fn reference_seconds() -> f64 {
    let mut records = vec![[0u64; 8]; RECORDS];
    let mut pending = BinaryHeap::with_capacity(2 * PENDING as usize);
    let mut log = Vec::new();
    let mut rng = XorShift(88_172_645_463_325_252);
    for id in 0..PENDING {
        pending.push(Reverse((rng.next() >> 40, id)));
    }
    let t0 = Instant::now();
    for n in 0..EVENTS {
        let Reverse((time, id)) = pending.pop().expect("every pop is followed by a push");
        let record = &mut records[rng.next() as usize & (RECORDS - 1)];
        record[0] = record[0].wrapping_add(time);
        record[1] ^= u64::from(id);
        record[(time & 7) as usize] += 1;
        if n % LOG_EVERY == 0 {
            log.push((time, id));
        }
        pending.push(Reverse((time + (rng.next() & 0xF_FFFF), id)));
    }
    std::hint::black_box((&records, &log));
    t0.elapsed().as_secs_f64()
}

/// Marsaglia's xorshift64: the kernel's inputs, fixed for every run.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}
