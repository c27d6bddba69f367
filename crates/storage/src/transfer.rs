//! The copy engine: times bulk data movement over per-datastore shared
//! bandwidth.
//!
//! Each datastore is a [`SharedBandwidth`] resource. A transfer within one
//! datastore occupies that datastore's bandwidth; a **cross-datastore**
//! transfer occupies *both* arrays — a read leg on the source and a write
//! leg on the destination — and completes when the slower leg finishes.
//! This is what makes one hot template datastore the choke point of a
//! redistribution or full-clone storm, as in the real stack.
//!
//! The engine is a passive state machine in the kernel's epoch/tick
//! protocol: `start` and `on_tick` return [`TransferEvent`]s telling the
//! caller when to post the next tick per datastore; stale ticks return
//! `None` from `on_tick` and are dropped.

use std::collections::BTreeMap;

use cpsim_des::{SharedBandwidth, SimTime};
use cpsim_inventory::{DatastoreId, Inventory};

use crate::error::StorageError;

/// Identifies one in-flight transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId(u64);

impl std::fmt::Display for TransferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xfer-{}", self.0)
    }
}

/// A scheduling directive: post a tick for `datastore` at `at` carrying
/// `epoch`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferEvent {
    /// The datastore whose bandwidth engine wants the tick.
    pub datastore: DatastoreId,
    /// When to deliver the tick.
    pub at: SimTime,
    /// Epoch to carry (stale epochs are dropped by `on_tick`).
    pub epoch: u64,
}

/// The fleet-wide copy engine.
#[derive(Debug, Default)]
pub struct TransferEngine {
    engines: BTreeMap<DatastoreId, SharedBandwidth<TransferId>>,
    /// Outstanding legs per transfer (1 local, 2 cross-datastore).
    legs: BTreeMap<TransferId, u8>,
    next_id: u64,
}

impl TransferEngine {
    /// Creates an engine with no datastores registered.
    pub fn new() -> Self {
        TransferEngine::default()
    }

    /// Registers `datastore`'s bandwidth engine using its declared
    /// bandwidth from the inventory. Idempotent.
    ///
    /// # Errors
    ///
    /// Fails if the datastore is unknown.
    pub fn register_datastore(
        &mut self,
        inv: &Inventory,
        datastore: DatastoreId,
    ) -> Result<(), StorageError> {
        let ds = inv.datastore_checked(datastore)?;
        let bytes_per_sec = ds.spec.bandwidth_mbps * 1024.0 * 1024.0;
        self.engines
            .entry(datastore)
            .or_insert_with(|| SharedBandwidth::new(bytes_per_sec));
        Ok(())
    }

    /// Starts a copy of `bytes` from `src` into `dst`. Returns the
    /// transfer id and the tick directives (one per leg) for the caller
    /// to schedule.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` was never registered (an orchestration
    /// bug).
    pub fn start(
        &mut self,
        now: SimTime,
        src: DatastoreId,
        dst: DatastoreId,
        bytes: f64,
    ) -> (TransferId, Vec<TransferEvent>) {
        let id = TransferId(self.next_id);
        self.next_id += 1;
        let mut events = Vec::with_capacity(2);
        let mut start_leg = |engines: &mut BTreeMap<DatastoreId, SharedBandwidth<TransferId>>,
                             ds: DatastoreId| {
            let engine = engines
                .get_mut(&ds)
                .expect("datastore not registered with TransferEngine");
            let plan = engine
                .start(now, id, bytes)
                .expect("start on non-empty engine always yields a plan");
            events.push(TransferEvent {
                datastore: ds,
                at: plan.next_completion,
                epoch: plan.epoch,
            });
        };
        if src == dst {
            start_leg(&mut self.engines, dst);
            self.legs.insert(id, 1);
        } else {
            start_leg(&mut self.engines, src);
            start_leg(&mut self.engines, dst);
            self.legs.insert(id, 2);
        }
        (id, events)
    }

    /// Delivers a tick for `datastore`. Returns the transfers that fully
    /// completed (all legs done) and the next tick directive for this
    /// datastore, or `None` if the tick was stale.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        datastore: DatastoreId,
        epoch: u64,
    ) -> Option<(Vec<TransferId>, Option<TransferEvent>)> {
        let engine = self.engines.get_mut(&datastore)?;
        let done = engine.on_tick(now, epoch)?;
        let next = done.plan.map(|p| TransferEvent {
            datastore,
            at: p.next_completion,
            epoch: p.epoch,
        });
        let mut completed = Vec::new();
        for id in done.finished {
            let remaining = self
                .legs
                .get_mut(&id)
                .expect("leg completion for unknown transfer");
            *remaining -= 1;
            if *remaining == 0 {
                self.legs.remove(&id);
                completed.push(id);
            }
        }
        Some((completed, next))
    }

    /// Number of in-flight legs on `datastore`.
    pub fn active_on(&self, datastore: DatastoreId) -> usize {
        self.engines.get(&datastore).map_or(0, |e| e.active())
    }

    /// Total in-flight transfers (not legs).
    pub fn active(&self) -> usize {
        self.legs.len()
    }

    /// Fraction of time `datastore`'s bandwidth was busy through `now`.
    pub fn busy_fraction(&self, datastore: DatastoreId, now: SimTime) -> f64 {
        self.engines
            .get(&datastore)
            .map_or(0.0, |e| e.busy_fraction(now))
    }

    /// Bytes moved on `datastore` through `now`.
    pub fn bytes_moved(&self, datastore: DatastoreId, now: SimTime) -> f64 {
        self.engines
            .get(&datastore)
            .map_or(0.0, |e| e.bytes_moved(now))
    }

    /// Transfer legs completed on `datastore`.
    pub fn completed_on(&self, datastore: DatastoreId) -> u64 {
        self.engines.get(&datastore).map_or(0, |e| e.completed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_inventory::DatastoreSpec;

    fn setup() -> (Inventory, TransferEngine, DatastoreId, DatastoreId) {
        let mut inv = Inventory::new();
        // 1 MiB/s so byte counts translate directly into seconds.
        let a = inv.add_datastore(DatastoreSpec::new("a", 1000.0, 1.0));
        let b = inv.add_datastore(DatastoreSpec::new("b", 1000.0, 1.0));
        let mut eng = TransferEngine::new();
        eng.register_datastore(&inv, a).unwrap();
        eng.register_datastore(&inv, b).unwrap();
        (inv, eng, a, b)
    }

    const MIB: f64 = 1024.0 * 1024.0;

    /// Drains all scheduled events until a transfer completes; returns
    /// `(completed ids, completion time)`.
    fn drain(
        eng: &mut TransferEngine,
        mut events: Vec<TransferEvent>,
    ) -> (Vec<TransferId>, SimTime) {
        let mut completed = Vec::new();
        let mut last = SimTime::ZERO;
        while !events.is_empty() {
            events.sort_by_key(|e| e.at);
            let ev = events.remove(0);
            if let Some((done, next)) = eng.on_tick(ev.at, ev.datastore, ev.epoch) {
                if !done.is_empty() {
                    last = ev.at;
                }
                completed.extend(done);
                events.extend(next);
            }
        }
        (completed, last)
    }

    #[test]
    fn local_copy_runs_at_full_rate() {
        let (_inv, mut eng, a, _b) = setup();
        let (id, evs) = eng.start(SimTime::ZERO, a, a, 10.0 * MIB);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at, SimTime::from_secs(10));
        let (done, at) = drain(&mut eng, evs);
        assert_eq!(done, vec![id]);
        assert_eq!(at, SimTime::from_secs(10));
        assert_eq!(eng.completed_on(a), 1);
        assert_eq!(eng.active(), 0);
    }

    #[test]
    fn cross_datastore_copy_occupies_both_arrays() {
        let (_inv, mut eng, a, b) = setup();
        let (id, evs) = eng.start(SimTime::ZERO, a, b, 8.0 * MIB);
        assert_eq!(evs.len(), 2, "one leg per array");
        assert_eq!(eng.active_on(a), 1);
        assert_eq!(eng.active_on(b), 1);
        assert_eq!(eng.active(), 1, "still one logical transfer");
        let (done, at) = drain(&mut eng, evs);
        assert_eq!(done, vec![id]);
        // Both legs idle: 8 MiB at 1 MiB/s.
        assert_eq!(at, SimTime::from_secs(8));
    }

    #[test]
    fn fanout_from_one_source_contends_at_the_source() {
        // Two copies from a to b and a to... b again: the source legs
        // share a's bandwidth, halving progress; destinations see the
        // same two legs.
        let (mut inv, mut eng, a, _b) = setup();
        let c = inv.add_datastore(DatastoreSpec::new("c", 1000.0, 1.0));
        let d = inv.add_datastore(DatastoreSpec::new("d", 1000.0, 1.0));
        eng.register_datastore(&inv, c).unwrap();
        eng.register_datastore(&inv, d).unwrap();
        let (_, mut evs) = eng.start(SimTime::ZERO, a, c, 10.0 * MIB);
        let (_, evs2) = eng.start(SimTime::ZERO, a, d, 10.0 * MIB);
        evs.extend(evs2);
        let (done, at) = drain(&mut eng, evs);
        assert_eq!(done.len(), 2);
        // Source-bound: two 10 MiB reads through one 1 MiB/s array.
        assert_eq!(at, SimTime::from_secs(20));
    }

    #[test]
    fn independent_datastores_do_not_contend() {
        let (_inv, mut eng, a, b) = setup();
        let (_, evs_a) = eng.start(SimTime::ZERO, a, a, 10.0 * MIB);
        let (_, evs_b) = eng.start(SimTime::ZERO, b, b, 10.0 * MIB);
        assert_eq!(evs_a[0].at, SimTime::from_secs(10));
        assert_eq!(evs_b[0].at, SimTime::from_secs(10));
        assert_eq!(eng.active(), 2);
    }

    #[test]
    fn contention_on_one_datastore_halves_rate() {
        let (_inv, mut eng, a, _b) = setup();
        eng.start(SimTime::ZERO, a, a, 10.0 * MIB);
        let (_, evs) = eng.start(SimTime::ZERO, a, a, 10.0 * MIB);
        assert_eq!(evs[0].at, SimTime::from_secs(20));
    }

    #[test]
    fn stale_tick_is_dropped() {
        let (_inv, mut eng, a, _b) = setup();
        let (_, evs1) = eng.start(SimTime::ZERO, a, a, 10.0 * MIB);
        let _ = eng.start(SimTime::from_secs(1), a, a, 1.0 * MIB);
        assert!(eng.on_tick(evs1[0].at, a, evs1[0].epoch).is_none());
    }

    #[test]
    fn unknown_datastore_tick_is_dropped() {
        let (mut inv, mut eng, _a, _b) = setup();
        let ghost = inv.add_datastore(DatastoreSpec::new("ghost", 1.0, 1.0));
        assert!(eng.on_tick(SimTime::ZERO, ghost, 1).is_none());
    }

    #[test]
    fn register_is_idempotent() {
        let (inv, mut eng, a, _b) = setup();
        eng.start(SimTime::ZERO, a, a, MIB);
        eng.register_datastore(&inv, a).unwrap();
        assert_eq!(eng.active_on(a), 1, "re-register must not reset state");
    }

    #[test]
    fn busy_fraction_tracks_transfers() {
        let (_inv, mut eng, a, _b) = setup();
        let (_, evs) = eng.start(SimTime::ZERO, a, a, 5.0 * MIB);
        drain(&mut eng, evs);
        assert!((eng.busy_fraction(a, SimTime::from_secs(10)) - 0.5).abs() < 1e-9);
        assert!((eng.bytes_moved(a, SimTime::from_secs(10)) - 5.0 * MIB).abs() < 1.0);
    }
}
