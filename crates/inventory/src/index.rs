//! Incrementally maintained placement candidate indexes.
//!
//! Placement needs two orderings: datastores most free space first, and
//! hosts least loaded first. The index keeps both sorted as the inventory
//! mutates, so a placement query is a bounded walk from the best candidate
//! instead of a full scan.
//!
//! - Datastores sit in one ordered set keyed by free space.
//! - Hosts sit in one ordered set keyed by `(utilization, VM count, id)`,
//!   over all hosts whatever their connections. A query for the hosts of
//!   one datastore filters that order by connectivity
//!   ([`Inventory::hosts_by_load`](crate::Inventory::hosts_by_load)); a
//!   filtered total order is the order of the subset.
//!
//! Every capacity update is one remove and one insert in one ordered set,
//! O(log n), however many datastores the host reaches. Connecting a host
//! to a datastore touches no index at all.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use crate::ids::{DatastoreId, HostId};

/// A totally ordered `f64` key. Inventory metrics (free gigabytes, memory
/// utilization) are always finite and non-negative; `total_cmp` gives them
/// an `Ord` without the NaN panic path that `partial_cmp().expect()` would
/// carry into every comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Host sort key: memory utilization, then registered-VM count. Matches the
/// least-loaded placement comparator (ties broken by id in the set itself).
pub(crate) type HostKey = (OrdF64, usize);

/// The candidate indexes, owned and maintained by
/// [`Inventory`](crate::Inventory).
#[derive(Clone, Debug, Default)]
pub(crate) struct PlacementIndex {
    /// Datastores ordered by (free space, `Reverse`(id)): reverse iteration
    /// yields most-free-first with lower ids winning ties.
    by_free: BTreeSet<(OrdF64, Reverse<DatastoreId>)>,
    /// The free-space key currently indexed for each datastore.
    ds_key: BTreeMap<DatastoreId, OrdF64>,
    /// Every host ordered by (utilization, VM count, id): forward
    /// iteration is least-loaded-first.
    by_load: BTreeSet<(OrdF64, usize, HostId)>,
    /// The load key currently indexed for each host.
    host_key: BTreeMap<HostId, HostKey>,
}

impl PlacementIndex {
    /// Registers a datastore with `free_gb` of space.
    pub fn datastore_added(&mut self, id: DatastoreId, free_gb: f64) {
        let key = OrdF64(free_gb);
        self.ds_key.insert(id, key);
        self.by_free.insert((key, Reverse(id)));
    }

    /// Re-keys a datastore after its free space changed.
    pub fn datastore_free_changed(&mut self, id: DatastoreId, free_gb: f64) {
        let key = OrdF64(free_gb);
        let old = self.ds_key.insert(id, key).expect("datastore not indexed");
        if old != key {
            self.by_free.remove(&(old, Reverse(id)));
            self.by_free.insert((key, Reverse(id)));
        }
    }

    /// Registers a host.
    pub fn host_added(&mut self, id: HostId, key: HostKey) {
        self.host_key.insert(id, key);
        self.by_load.insert((key.0, key.1, id));
    }

    /// Re-keys a host after its load changed.
    pub fn host_load_changed(&mut self, id: HostId, key: HostKey) {
        let old = self.host_key.insert(id, key).expect("host not indexed");
        if old != key {
            self.by_load.remove(&(old.0, old.1, id));
            self.by_load.insert((key.0, key.1, id));
        }
    }

    /// Drops a host from the index.
    pub fn host_removed(&mut self, id: HostId) {
        if let Some((util, vms)) = self.host_key.remove(&id) {
            self.by_load.remove(&(util, vms, id));
        }
    }

    /// Datastores in most-free-first order (ties: lower id first), with the
    /// indexed free space.
    pub fn datastores_by_free(&self) -> impl Iterator<Item = (DatastoreId, f64)> + '_ {
        self.by_free
            .iter()
            .rev()
            .map(|&(key, Reverse(id))| (id, key.0))
    }

    /// Every host in least-loaded-first order (utilization, then
    /// registered-VM count, then id).
    pub fn hosts_by_load(&self) -> impl Iterator<Item = HostId> + '_ {
        self.by_load.iter().map(|&(_, _, id)| id)
    }

    /// The indexed free-space key for `ds` (invariant checking).
    pub fn ds_key(&self, ds: DatastoreId) -> Option<f64> {
        self.ds_key.get(&ds).map(|k| k.0)
    }

    /// The indexed load key for `host` (invariant checking).
    pub fn host_key(&self, host: HostId) -> Option<(f64, usize)> {
        self.host_key.get(&host).map(|&(u, n)| (u.0, n))
    }

    /// Whether the load order holds exactly one entry per indexed host,
    /// under that host's indexed key (invariant checking).
    pub fn load_order_matches_keys(&self) -> bool {
        self.by_load.len() == self.host_key.len()
            && self
                .by_load
                .iter()
                .all(|&(util, vms, id)| self.host_key.get(&id) == Some(&(util, vms)))
    }

    /// Number of indexed datastores (invariant checking).
    pub fn datastore_entries(&self) -> (usize, usize) {
        (self.ds_key.len(), self.by_free.len())
    }

    /// Number of indexed hosts (invariant checking).
    pub fn host_entries(&self) -> usize {
        self.host_key.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EntityId;

    fn ds(i: u32) -> DatastoreId {
        DatastoreId::from_parts(i, 1)
    }

    fn host(i: u32) -> HostId {
        HostId::from_parts(i, 1)
    }

    #[test]
    fn datastores_order_by_free_desc_then_id_asc() {
        let mut idx = PlacementIndex::default();
        idx.datastore_added(ds(0), 50.0);
        idx.datastore_added(ds(1), 100.0);
        idx.datastore_added(ds(2), 100.0);
        let order: Vec<_> = idx.datastores_by_free().map(|(id, _)| id).collect();
        assert_eq!(order, vec![ds(1), ds(2), ds(0)], "ties: lower id first");
        idx.datastore_free_changed(ds(0), 200.0);
        let order: Vec<_> = idx.datastores_by_free().map(|(id, _)| id).collect();
        assert_eq!(order, vec![ds(0), ds(1), ds(2)]);
    }

    #[test]
    fn hosts_order_by_load_then_vms_then_id() {
        let mut idx = PlacementIndex::default();
        idx.datastore_added(ds(0), 10.0);
        for i in 0..3 {
            idx.host_added(host(i), (OrdF64(0.0), 0));
        }
        idx.host_load_changed(host(0), (OrdF64(0.5), 1));
        idx.host_load_changed(host(1), (OrdF64(0.0), 2));
        let order: Vec<_> = idx.hosts_by_load().collect();
        // host2 (util 0, 0 vms) < host1 (util 0, 2 vms) < host0 (util 0.5).
        assert_eq!(order, vec![host(2), host(1), host(0)]);
        idx.host_removed(host(2));
        let order: Vec<_> = idx.hosts_by_load().collect();
        assert_eq!(order, vec![host(1), host(0)]);
        assert!(idx.load_order_matches_keys());
    }

    #[test]
    fn rekey_is_idempotent_for_unchanged_keys() {
        let mut idx = PlacementIndex::default();
        idx.datastore_added(ds(0), 10.0);
        idx.datastore_free_changed(ds(0), 10.0);
        assert_eq!(idx.datastore_entries(), (1, 1));
        idx.host_added(host(0), (OrdF64(0.25), 3));
        idx.host_load_changed(host(0), (OrdF64(0.25), 3));
        assert_eq!(idx.hosts_by_load().count(), 1);
        assert!(idx.load_order_matches_keys());
    }
}
