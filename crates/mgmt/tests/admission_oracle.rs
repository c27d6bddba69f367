//! `AdmissionControl` against a naive oracle.
//!
//! The event-driven drain re-offers only the tasks parked on freed
//! resources. Its module doc claims this admits exactly what a naive drain
//! admits: rescan every parked task in FIFO order and admit each one whose
//! whole scope fits right now. These properties apply random acquire, park,
//! release and drain churn over every scope dimension (global, host,
//! second host, datastore, exclusive VM, shared VM) to both and compare
//! the admitted sequences and the backlog after every step.

use std::collections::{BTreeMap, BTreeSet};

use cpsim_inventory::{DatastoreId, EntityId, HostId, TaskId, VmId};
use cpsim_mgmt::{AdmissionControl, AdmissionLimits, Scope};
use proptest::prelude::*;

/// A scope as small indexes: 3 hosts, 2 datastores, 3 VMs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Spec {
    host: Option<u32>,
    host2: Option<u32>,
    datastore: Option<u32>,
    vm: Option<u32>,
    vm_shared: Option<u32>,
}

impl Spec {
    fn scope(self) -> Scope {
        let mut s = Scope::global_only();
        if let Some(h) = self.host {
            s = s.with_host(HostId::from_parts(h, 1));
        }
        if let Some(h) = self.host2 {
            s = s.with_host2(HostId::from_parts(h, 1));
        }
        if let Some(d) = self.datastore {
            s = s.with_datastore(DatastoreId::from_parts(d, 1));
        }
        if let Some(v) = self.vm {
            s = s.with_vm(VmId::from_parts(v, 1));
        }
        if let Some(v) = self.vm_shared {
            s = s.with_vm_shared(VmId::from_parts(v, 1));
        }
        s
    }
}

/// The naive admission model: plain counters and a FIFO list of parked
/// tasks that every drain rescans front to back.
struct Oracle {
    limits: AdmissionLimits,
    global: u32,
    hosts: BTreeMap<u32, u32>,
    datastores: BTreeMap<u32, u32>,
    exclusive: BTreeSet<u32>,
    shared: BTreeMap<u32, u32>,
    parked: Vec<(TaskId, Spec)>,
}

impl Oracle {
    fn new(limits: AdmissionLimits) -> Self {
        Oracle {
            limits,
            global: 0,
            hosts: BTreeMap::new(),
            datastores: BTreeMap::new(),
            exclusive: BTreeSet::new(),
            shared: BTreeMap::new(),
            parked: Vec::new(),
        }
    }

    fn fits(&self, s: Spec) -> bool {
        if self.global >= self.limits.global {
            return false;
        }
        let mut need: BTreeMap<u32, u32> = BTreeMap::new();
        for h in s.host.into_iter().chain(s.host2) {
            *need.entry(h).or_default() += 1;
        }
        let hosts_fit = need
            .iter()
            .all(|(h, n)| self.hosts.get(h).copied().unwrap_or(0) + n <= self.limits.per_host);
        let ds_fits = s.datastore.is_none_or(|d| {
            self.datastores.get(&d).copied().unwrap_or(0) < self.limits.per_datastore
        });
        let vm_fits =
            s.vm.is_none_or(|v| !self.exclusive.contains(&v) && !self.shared.contains_key(&v));
        let shared_fits = s
            .vm_shared
            .is_none_or(|v| !self.exclusive.contains(&v) && s.vm != Some(v));
        hosts_fit && ds_fits && vm_fits && shared_fits
    }

    fn acquire(&mut self, s: Spec) {
        self.global += 1;
        for h in s.host.into_iter().chain(s.host2) {
            *self.hosts.entry(h).or_default() += 1;
        }
        if let Some(d) = s.datastore {
            *self.datastores.entry(d).or_default() += 1;
        }
        if let Some(v) = s.vm {
            self.exclusive.insert(v);
        }
        if let Some(v) = s.vm_shared {
            *self.shared.entry(v).or_default() += 1;
        }
    }

    fn release(&mut self, s: Spec) {
        self.global -= 1;
        for h in s.host.into_iter().chain(s.host2) {
            *self.hosts.get_mut(&h).expect("held host") -= 1;
        }
        if let Some(d) = s.datastore {
            *self.datastores.get_mut(&d).expect("held datastore") -= 1;
        }
        if let Some(v) = s.vm {
            self.exclusive.remove(&v);
        }
        if let Some(v) = s.vm_shared {
            let n = self.shared.get_mut(&v).expect("held shared lock");
            *n -= 1;
            if *n == 0 {
                self.shared.remove(&v);
            }
        }
    }

    fn drain(&mut self) -> Vec<(TaskId, Spec)> {
        let mut admitted = Vec::new();
        let mut still = Vec::new();
        for (task, s) in std::mem::take(&mut self.parked) {
            if self.fits(s) {
                self.acquire(s);
                admitted.push((task, s));
            } else {
                still.push((task, s));
            }
        }
        self.parked = still;
        admitted
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Try to acquire; park on failure (the plane's pattern).
    Submit(Spec),
    /// Release a held scope and drain.
    Release(usize),
    /// Release a held scope without draining.
    ReleaseOnly(usize),
    /// Drain without releasing.
    Drain,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        proptest::option::of(0u32..3),
        proptest::option::of(0u32..3),
        proptest::option::of(0u32..2),
        proptest::option::of(0u32..3),
        proptest::option::of(0u32..3),
    )
        .prop_map(|(host, host2, datastore, vm, vm_shared)| Spec {
            host,
            host2,
            datastore,
            vm,
            vm_shared,
        })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        spec_strategy().prop_map(Op::Submit),
        spec_strategy().prop_map(Op::Submit),
        (0usize..64).prop_map(Op::Release),
        (0usize..64).prop_map(Op::ReleaseOnly),
        (0u8..1).prop_map(|_| Op::Drain),
    ]
}

fn limits_strategy() -> impl Strategy<Value = AdmissionLimits> {
    ((1u32..7), (1u32..4), (1u32..4)).prop_map(|(global, per_host, per_datastore)| {
        AdmissionLimits {
            global,
            per_host,
            per_datastore,
        }
    })
}

/// Maps the real admissions back to specs, checking each scope is the one
/// the task parked with.
fn as_specs(admitted: Vec<(TaskId, Scope)>, specs: &BTreeMap<TaskId, Spec>) -> Vec<(TaskId, Spec)> {
    admitted
        .into_iter()
        .map(|(task, scope)| {
            let s = specs[&task];
            assert!(
                scope == s.scope(),
                "task {task:?} admitted with a different scope"
            );
            (task, s)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    #[test]
    fn drain_matches_fifo_rescan(
        limits in limits_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let mut real = AdmissionControl::new(limits);
        let mut oracle = Oracle::new(limits);
        let mut held: Vec<Spec> = Vec::new();
        let mut specs: BTreeMap<TaskId, Spec> = BTreeMap::new();
        let mut next_task = 0u32;
        for op in ops {
            let admitted = match op {
                Op::Submit(s) => {
                    let ok = real.try_acquire(&s.scope());
                    prop_assert_eq!(ok, oracle.fits(s), "try_acquire {:?}", s);
                    if ok {
                        oracle.acquire(s);
                        held.push(s);
                    } else {
                        let task = TaskId::from_parts(next_task, 1);
                        next_task += 1;
                        specs.insert(task, s);
                        real.park(task, s.scope());
                        oracle.parked.push((task, s));
                    }
                    Vec::new()
                }
                Op::Release(i) | Op::ReleaseOnly(i) if !held.is_empty() => {
                    let s = held.swap_remove(i % held.len());
                    oracle.release(s);
                    if matches!(op, Op::Release(_)) {
                        let got = as_specs(real.release(&s.scope()), &specs);
                        let want = oracle.drain();
                        prop_assert_eq!(&got, &want, "release {:?}", s);
                        got
                    } else {
                        real.release_only(&s.scope());
                        Vec::new()
                    }
                }
                Op::Release(_) | Op::ReleaseOnly(_) => Vec::new(),
                Op::Drain => {
                    let got = as_specs(real.drain_pending(), &specs);
                    prop_assert_eq!(&got, &oracle.drain(), "drain");
                    got
                }
            };
            held.extend(admitted.into_iter().map(|(_, s)| s));
            prop_assert_eq!(real.pending_len(), oracle.parked.len());
            prop_assert_eq!(real.in_flight(), oracle.global);
        }
        // Releasing everything still held admits whatever can ever run;
        // both sides must agree to the last task.
        while let Some(s) = held.pop() {
            oracle.release(s);
            let got = as_specs(real.release(&s.scope()), &specs);
            prop_assert_eq!(&got, &oracle.drain(), "final release {:?}", s);
            held.extend(got.into_iter().map(|(_, s)| s));
            prop_assert_eq!(real.pending_len(), oracle.parked.len());
        }
        prop_assert_eq!(real.in_flight(), 0);
        prop_assert_eq!(real.vm_locks_held(), 0);
    }
}
