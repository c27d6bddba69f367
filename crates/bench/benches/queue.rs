//! Microbenchmarks of the timer-wheel event queue: raw schedule/pop
//! throughput, the fused `pop_if_before` horizon drain used by
//! `Simulation::run_until`, and the periodic-heartbeat pattern that
//! motivated the wheel (with the model's epoch-guarded watchdog resets) —
//! measured against [`ReferenceQueue`], the four-ary heap it replaced.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cpsim_des::{EventQueue, ReferenceQueue, SimDuration, SimTime};

/// Pseudo-random but deterministic schedule times that stress the heap
/// (no pre-sorted or reverse-sorted luck).
fn scatter(i: u64) -> SimTime {
    SimTime::from_micros((i.wrapping_mul(2_654_435_761)) % 1_000_000)
}

fn bench_schedule_pop(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue");
    for &n in &[1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_function(format!("schedule-pop-{n}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.schedule(scatter(i), i);
                }
                let mut sum = 0u64;
                while let Some((_, e)) = q.pop() {
                    sum = sum.wrapping_add(e);
                }
                black_box(sum)
            });
        });
    }
    g.finish();
}

fn bench_pop_if_before(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue");
    let n = 100_000u64;
    g.throughput(Throughput::Elements(n));
    // The run_until pattern: drain in horizon slices with the fused
    // peek+pop, re-scheduling a fraction (events beget events).
    g.bench_function("pop-if-before-sliced-drain", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(scatter(i), i);
            }
            let mut processed = 0u64;
            let mut horizon_us = 0u64;
            while !q.is_empty() {
                horizon_us += 50_000;
                let horizon = SimTime::from_micros(horizon_us);
                while let Some((t, e)) = q.pop_if_before(horizon) {
                    processed += 1;
                    // Every 16th event schedules a short follow-up, as
                    // management ops do.
                    if e % 16 == 0 && processed < 2 * n {
                        q.schedule(t + cpsim_des::SimDuration::from_micros(100), e + 1);
                    }
                }
            }
            black_box(processed)
        });
    });
    g.finish();
}

/// The workload the wheel was built for: `hosts` periodic heartbeat
/// timers at a fixed `period`, phases scattered across it. Every pop
/// re-arms the firing host's timer one period out, and every 7th beat
/// also resets a *neighbor's* watchdog early, the way the model does it:
/// bump the neighbor's epoch and schedule a fresh timer half a period
/// out. The superseded timer stays queued and is ignored when it pops
/// with a stale epoch, the guard `MgmtEvent::AgentDone` and
/// `MgmtEvent::TransferTick` carry.
///
/// One macro so the wheel and the reference heap run byte-identical
/// schedules.
macro_rules! periodic_heartbeats {
    ($new:expr, $hosts:expr, $beats:expr) => {{
        let hosts: u64 = $hosts;
        let beats: u64 = $beats;
        let period = SimDuration::from_micros(10_000_000);
        let half = SimDuration::from_micros(5_000_000);
        let mut q = $new;
        let mut epochs = vec![0u64; hosts as usize];
        for h in 0..hosts {
            // Scatter phases over one period, deterministically.
            let phase = (h.wrapping_mul(2_654_435_761)) % 10_000_000;
            q.schedule(SimTime::from_micros(phase), (h, 0u64));
        }
        let mut fired = 0u64;
        let mut stale = 0u64;
        while fired < beats {
            let (t, (h, epoch)) = q.pop().expect("heartbeats re-arm forever");
            if epoch != epochs[h as usize] {
                stale += 1;
                continue;
            }
            fired += 1;
            q.schedule(t + period, (h, epoch));
            if fired % 7 == 0 {
                // Watchdog reset on the neighbor: supersede its pending
                // timer and re-arm early.
                let other = ((h + 1) % hosts) as usize;
                epochs[other] += 1;
                q.schedule(t + half, (other as u64, epochs[other]));
            }
        }
        black_box((fired, stale, q.len()))
    }};
}

fn bench_periodic_heartbeats(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue");
    for &hosts in &[256u64, 4096] {
        let beats = 40 * hosts;
        g.throughput(Throughput::Elements(beats));
        g.bench_function(format!("heartbeats-wheel-{hosts}-hosts"), |b| {
            b.iter(|| periodic_heartbeats!(EventQueue::new(), hosts, beats));
        });
        g.bench_function(format!("heartbeats-heap-{hosts}-hosts"), |b| {
            b.iter(|| periodic_heartbeats!(ReferenceQueue::new(), hosts, beats));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_schedule_pop,
    bench_pop_if_before,
    bench_periodic_heartbeats
);
criterion_main!(benches);
