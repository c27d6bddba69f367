//! Microbenchmarks of the management plane: placement scan scaling,
//! linked-clone tree operations, and single-operation round trips.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cpsim_des::{EventQueue, SimTime, Streams};
use cpsim_inventory::{DatastoreSpec, HostSpec, Inventory, VmSpec};
use cpsim_mgmt::{CloneMode, ControlPlane, ControlPlaneConfig, Emit, MgmtEvent, OpKind, Placer};
use cpsim_storage::StoragePool;

/// An inventory of `hosts` hosts spread across `hosts / 64` datastores
/// (min 1), every host connected to every datastore.
fn placement_fixture(hosts: usize) -> Inventory {
    let mut inv = Inventory::new();
    let datastores: Vec<_> = (0..(hosts / 64).max(1))
        .map(|i| inv.add_datastore(DatastoreSpec::new(format!("ds{i}"), 1e6, 200.0)))
        .collect();
    for i in 0..hosts {
        let h = inv.add_host(HostSpec::new(format!("h{i}"), 48_000, 262_144));
        for &ds in &datastores {
            inv.connect_host_datastore(h, ds).unwrap();
        }
    }
    inv
}

fn bench_placement_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement");
    // The decision itself: with the inventory-maintained candidate
    // indexes this should be ~flat in host count, where the old full
    // scan grew linearly.
    for &hosts in &[64usize, 1024, 10_240] {
        let inv = placement_fixture(hosts);
        g.bench_function(format!("decide-{hosts}-hosts"), |b| {
            b.iter(|| black_box(Placer.place(&inv, 10.0, 1024)));
        });
    }
    // Decision + index maintenance under churn: place, create the VM on
    // the chosen pair (re-keying host and datastore), destroy it again.
    for &hosts in &[1024usize, 10_240] {
        let mut inv = placement_fixture(hosts);
        g.bench_function(format!("place-churn-{hosts}-hosts"), |b| {
            let mut n = 0u64;
            b.iter(|| {
                let (host, ds) = Placer
                    .place(&inv, 10.0, 1024)
                    .expect("fixture has capacity");
                n += 1;
                let vm = inv
                    .create_vm(format!("vm{n}"), VmSpec::new(2, 1024, 10.0), host, ds)
                    .unwrap();
                inv.destroy_vm(vm).unwrap();
                black_box((host, ds))
            });
        });
    }
    g.finish();
}

fn bench_clone_tree(c: &mut Criterion) {
    c.bench_function("storage/linked-clone-tree-256", |b| {
        b.iter(|| {
            let mut inv = Inventory::new();
            let ds = inv.add_datastore(DatastoreSpec::new("ds", 1e6, 200.0));
            let mut pool = StoragePool::new();
            let base = pool.create_base(&mut inv, ds, 40.0).unwrap();
            let deltas: Vec<_> = (0..256)
                .map(|_| pool.create_delta(&mut inv, base, 1.0).unwrap())
                .collect();
            for d in deltas {
                pool.detach(&mut inv, d).unwrap();
            }
            black_box(pool.len())
        });
    });
}

/// Drives one operation through the full plane (control path only).
fn drive_one(plane: &mut ControlPlane, op: OpKind) {
    let mut queue: EventQueue<MgmtEvent> = EventQueue::new();
    let mut emits: Vec<Emit> = Vec::new();
    plane.submit(SimTime::ZERO, op, &mut emits);
    for e in emits.drain(..) {
        if let Emit::At(t, ev) = e {
            queue.schedule(t, ev);
        }
    }
    while let Some((t, ev)) = queue.pop() {
        plane.handle(t, ev, &mut emits);
        for e in emits.drain(..) {
            if let Emit::At(t2, ev2) = e {
                queue.schedule(t2, ev2);
            }
        }
    }
}

fn bench_op_round_trip(c: &mut Criterion) {
    c.bench_function("plane/linked-clone-round-trip", |b| {
        b.iter_batched(
            || {
                let mut plane = ControlPlane::new(ControlPlaneConfig::default(), Streams::new(7));
                let ds = plane.add_datastore(DatastoreSpec::new("ds", 4096.0, 200.0));
                let h = plane.add_host(HostSpec::new("h", 48_000, 262_144));
                plane.connect(h, ds).unwrap();
                let t = plane
                    .install_template("t", VmSpec::new(1, 1024, 10.0), h, ds)
                    .unwrap();
                (plane, t)
            },
            |(mut plane, t)| {
                drive_one(
                    &mut plane,
                    OpKind::CloneVm {
                        source: t,
                        mode: CloneMode::Linked,
                    },
                );
                black_box(plane.stats().completed())
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_placement_scan,
    bench_clone_tree,
    bench_op_round_trip
);
criterion_main!(benches);
