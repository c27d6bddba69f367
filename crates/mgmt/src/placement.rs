//! The placement engine: chooses a host and datastore for provisioning and
//! migration targets.
//!
//! Placement is a control-plane cost center: the real system scans the
//! inventory to score candidates, so our *simulated* CPU charge grows
//! linearly with host count (see `ControlCostModel::placement_per_host_us`).
//! The wall-clock cost of deciding, however, is sublinear. The inventory
//! keeps two candidate orders up to date: datastores by free space, and
//! one order of all hosts by load. A decision walks datastores from the
//! most free, and for each walks the host order filtered to the hosts
//! connected to that datastore, stopping at the first eligible one. The
//! policy itself is deliberately simple and deterministic, and the indexed
//! path is property-tested against the straightforward scans
//! (`place_reference`, `pick_host_reference`) it replaced, under churn
//! that adds, connects, loads and removes hosts.

use cpsim_inventory::{DatastoreId, HostId, Inventory};

/// The placement engine: the least memory-utilized host on the
/// datastore with the most free space. Stateless; every decision reads
/// the inventory's candidate indexes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Placer;

impl Placer {
    /// Chooses `(host, datastore)` for a new VM needing `disk_gb` of space
    /// and `mem_mb` of memory headroom.
    ///
    /// Returns `None` when no (connected host, datastore-with-space) pair
    /// exists.
    pub fn place(
        &self,
        inv: &Inventory,
        disk_gb: f64,
        mem_mb: u64,
    ) -> Option<(HostId, DatastoreId)> {
        // Walk datastores most-free-first straight off the index; once one
        // is too small, all remaining ones are too.
        for (ds, free) in inv.datastores_by_free() {
            if free < disk_gb {
                break;
            }
            if let Some(host) = self.pick_host(inv, ds, mem_mb, None) {
                return Some((host, ds));
            }
        }
        None
    }

    /// Chooses the least-loaded host reachable from `ds` with `mem_mb` of
    /// headroom, skipping `exclude` (a migrating VM's current host).
    pub fn pick_host(
        &self,
        inv: &Inventory,
        ds: DatastoreId,
        mem_mb: u64,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        // The index iterates hosts in (memory pressure, registered-VM
        // count, id) order — the first eligible one is the least loaded.
        // The VM-count tiebreak matters: without it, a fleet of
        // powered-off VMs would all pile onto the lowest host id.
        inv.hosts_by_load(ds).find(|&h| {
            Some(h) != exclude
                && inv
                    .host(h)
                    .is_some_and(|host| host.accepts_placements() && host.mem_free_mb() >= mem_mb)
        })
    }
}

#[cfg(test)]
impl Placer {
    /// The pre-index placement algorithm: a full scan over every
    /// datastore, kept as the reference oracle the indexed path is
    /// property-tested against.
    pub fn place_reference(
        &self,
        inv: &Inventory,
        disk_gb: f64,
        mem_mb: u64,
    ) -> Option<(HostId, DatastoreId)> {
        let mut candidates: Vec<(DatastoreId, f64)> = inv
            .datastores()
            .filter(|(_, ds)| ds.free_gb() >= disk_gb && !ds.hosts.is_empty())
            .map(|(id, ds)| (id, ds.free_gb()))
            .collect();
        // Most free space first, lower id on ties; a datastore might have
        // no eligible host, so fall through in that order.
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        candidates
            .into_iter()
            .find_map(|(ds, _)| Some((self.pick_host_reference(inv, ds, mem_mb, None)?, ds)))
    }

    /// The pre-index host pick: collect-then-scan over the datastore's
    /// connection list.
    pub fn pick_host_reference(
        &self,
        inv: &Inventory,
        ds: DatastoreId,
        mem_mb: u64,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        inv.datastore(ds)?
            .hosts
            .iter()
            .copied()
            .filter(|h| Some(*h) != exclude)
            .filter(|h| {
                inv.host(*h)
                    .is_some_and(|host| host.accepts_placements() && host.mem_free_mb() >= mem_mb)
            })
            .min_by(|a, b| {
                let (ha, hb) = (
                    inv.host(*a).expect("filtered"),
                    inv.host(*b).expect("filtered"),
                );
                ha.mem_utilization()
                    .total_cmp(&hb.mem_utilization())
                    .then_with(|| ha.vms.len().cmp(&hb.vms.len()))
                    .then_with(|| a.cmp(b))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_inventory::{DatastoreSpec, HostSpec, VmId, VmSpec};

    fn dc(hosts: usize, datastores: usize) -> (Inventory, Vec<HostId>, Vec<DatastoreId>) {
        let mut inv = Inventory::new();
        let ds_ids: Vec<_> = (0..datastores)
            .map(|i| inv.add_datastore(DatastoreSpec::new(format!("ds{i}"), 1000.0, 100.0)))
            .collect();
        let host_ids: Vec<_> = (0..hosts)
            .map(|i| inv.add_host(HostSpec::new(format!("h{i}"), 20_000, 65_536)))
            .collect();
        for &h in &host_ids {
            for &d in &ds_ids {
                inv.connect_host_datastore(h, d).unwrap();
            }
        }
        (inv, host_ids, ds_ids)
    }

    #[test]
    fn least_loaded_prefers_idle_host() {
        let (mut inv, hosts, ds) = dc(3, 1);
        // Load host 0 and 1.
        for &h in &hosts[..2] {
            let vm = inv
                .create_vm("l", VmSpec::new(4, 32_768, 10.0), h, ds[0])
                .unwrap();
            inv.power_on(vm).unwrap();
        }
        let (host, _) = Placer.place(&inv, 10.0, 1024).unwrap();
        assert_eq!(host, hosts[2]);
    }

    #[test]
    fn no_space_returns_none() {
        let (mut inv, _hosts, ds) = dc(1, 1);
        inv.adjust_datastore_usage(ds[0], 999.0).unwrap();
        assert!(Placer.place(&inv, 10.0, 1024).is_none());
    }

    #[test]
    fn no_memory_returns_none() {
        let (mut inv, hosts, ds) = dc(1, 1);
        let vm = inv
            .create_vm("big", VmSpec::new(8, 65_000, 10.0), hosts[0], ds[0])
            .unwrap();
        inv.power_on(vm).unwrap();
        assert!(Placer.place(&inv, 10.0, 10_000).is_none());
    }

    #[test]
    fn exclude_skips_source_host() {
        let (inv, hosts, ds) = dc(2, 1);
        let p = Placer;
        let pick = p.pick_host(&inv, ds[0], 1024, Some(hosts[0])).unwrap();
        assert_eq!(pick, hosts[1]);
        // Excluding the only host yields none.
        let (inv1, hosts1, ds1) = dc(1, 1);
        assert!(p.pick_host(&inv1, ds1[0], 1024, Some(hosts1[0])).is_none());
    }

    mod equivalence {
        //! The indexed placement path must decide exactly what the full
        //! scan it replaced decides, across random inventories and
        //! capacity churn.

        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Churn {
            AddHost {
                mem_gb: u8,
            },
            AddDatastore {
                cap: u8,
            },
            Connect {
                h: usize,
                d: usize,
            },
            CreateVm {
                h: usize,
                d: usize,
                mem_gb: u8,
                disk: u8,
            },
            PowerOn {
                v: usize,
            },
            PowerOff {
                v: usize,
            },
            Destroy {
                v: usize,
            },
            AdjustDs {
                d: usize,
                delta: i8,
            },
            /// Destroys the host's VMs, then the host itself.
            RemoveHost {
                h: usize,
            },
        }

        fn churn_strategy() -> impl Strategy<Value = Churn> {
            prop_oneof![
                (1u8..64).prop_map(|mem_gb| Churn::AddHost { mem_gb }),
                (1u8..100).prop_map(|cap| Churn::AddDatastore { cap }),
                ((0usize..8), (0usize..8)).prop_map(|(h, d)| Churn::Connect { h, d }),
                ((0usize..8), (0usize..8), (1u8..32), (1u8..40))
                    .prop_map(|(h, d, mem_gb, disk)| Churn::CreateVm { h, d, mem_gb, disk }),
                (0usize..32).prop_map(|v| Churn::PowerOn { v }),
                (0usize..32).prop_map(|v| Churn::PowerOff { v }),
                (0usize..32).prop_map(|v| Churn::Destroy { v }),
                ((0usize..8), (-50i8..50)).prop_map(|(d, delta)| Churn::AdjustDs { d, delta }),
                (0usize..8).prop_map(|h| Churn::RemoveHost { h }),
            ]
        }

        fn query_strategy() -> impl Strategy<Value = (u8, u8, Option<usize>)> {
            // (disk_gb, mem_gb, host to exclude)
            ((1u8..50), (1u8..48), proptest::option::of(0usize..8))
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 48,
                .. ProptestConfig::default()
            })]

            #[test]
            fn indexed_place_matches_reference_scan(
                ops in proptest::collection::vec(churn_strategy(), 1..100),
                queries in proptest::collection::vec(query_strategy(), 1..24),
            ) {
                let mut inv = Inventory::new();
                let mut hosts: Vec<HostId> = Vec::new();
                let mut dss: Vec<DatastoreId> = Vec::new();
                let mut vms: Vec<VmId> = Vec::new();
                for op in ops {
                    match op {
                        Churn::AddHost { mem_gb } => {
                            hosts.push(inv.add_host(HostSpec::new(
                                format!("h{}", hosts.len()),
                                8_000,
                                u64::from(mem_gb) * 1024,
                            )));
                        }
                        Churn::AddDatastore { cap } => {
                            dss.push(inv.add_datastore(DatastoreSpec::new(
                                format!("ds{}", dss.len()),
                                f64::from(cap) * 10.0,
                                50.0,
                            )));
                        }
                        Churn::Connect { h, d } => {
                            if let (Some(&h), Some(&d)) = (hosts.get(h), dss.get(d)) {
                                let _ = inv.connect_host_datastore(h, d);
                            }
                        }
                        Churn::CreateVm { h, d, mem_gb, disk } => {
                            if let (Some(&h), Some(&d)) = (hosts.get(h), dss.get(d)) {
                                if let Ok(vm) = inv.create_vm(
                                    format!("vm{}", vms.len()),
                                    VmSpec::new(2, u64::from(mem_gb) * 1024, f64::from(disk)),
                                    h,
                                    d,
                                ) {
                                    vms.push(vm);
                                }
                            }
                        }
                        Churn::PowerOn { v } => {
                            if let Some(&vm) = vms.get(v) {
                                let _ = inv.power_on(vm);
                            }
                        }
                        Churn::PowerOff { v } => {
                            if let Some(&vm) = vms.get(v) {
                                let _ = inv.power_off(vm);
                            }
                        }
                        Churn::Destroy { v } => {
                            if let Some(&vm) = vms.get(v) {
                                let _ = inv.destroy_vm(vm);
                            }
                        }
                        Churn::AdjustDs { d, delta } => {
                            if let Some(&d) = dss.get(d) {
                                let _ = inv.adjust_datastore_usage(d, f64::from(delta));
                            }
                        }
                        Churn::RemoveHost { h } => {
                            // Removed ids stay in `hosts`: later churn on
                            // them exercises the stale-id error paths.
                            if let Some(on_host) = hosts.get(h).and_then(|&h| inv.host(h)).map(|x| x.vms.clone()) {
                                for vm in on_host {
                                    let _ = inv.power_off(vm);
                                    inv.destroy_vm(vm).expect("powered off above");
                                }
                                inv.remove_host(hosts[h]).expect("host drained above");
                            }
                        }
                    }
                }
                inv.check_invariants().expect("index in sync after churn");

                for &(disk, mem_gb, exclude) in &queries {
                    let disk_gb = f64::from(disk);
                    let mem_mb = u64::from(mem_gb) * 1024;
                    let got = Placer.place(&inv, disk_gb, mem_mb);
                    let want = Placer.place_reference(&inv, disk_gb, mem_mb);
                    prop_assert_eq!(got, want, "disk {} mem {}", disk_gb, mem_mb);
                    let exclude = exclude.and_then(|h| hosts.get(h).copied());
                    for &ds in &dss {
                        let got = Placer.pick_host(&inv, ds, mem_mb, exclude);
                        let want = Placer.pick_host_reference(&inv, ds, mem_mb, exclude);
                        prop_assert_eq!(got, want, "ds {:?} mem {} exclude {:?}", ds, mem_mb, exclude);
                    }
                }
            }
        }
    }
}
