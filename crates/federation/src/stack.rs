//! The management stack every driver runs: one control plane, one cloud
//! director, their trace and reports, and the **only** path that routes
//! their output onto a kernel queue.
//!
//! The single-plane driver (`cpsim::CloudSim`) and each federated shard
//! ([`FedSim`](crate::FedSim)) hold one [`CloudStack`] and differ only in
//! two static parameters:
//!
//! - the event type, through [`StackEvent`], which builds the `Mgmt` and
//!   `Lease` variants the router schedules;
//! - the [`ReportHook`], which sees every finished task's report before
//!   the director does and decides whether the director sees it at all.
//!   The single plane forwards everything ([`Forward`]); a shard settles
//!   its shared-pool ledger and diverts migration-tagged reports.
//!
//! # Emission order
//!
//! Plane emissions are consumed in the order the plane produced them:
//! timers go straight onto the queue, task reports go through the hook
//! to the director. The director's outputs are pushed on a work stack and
//! routed last-in first-out, each one scheduling its leases and then
//! consuming its own plane emissions the same way. Every driver shares
//! this order, which is what keeps a one-shard federation op-for-op equal
//! to the single plane.

use std::marker::PhantomData;

use cpsim_cloud::{CloudDirector, CloudOut, CloudReport, CloudRequest};
use cpsim_des::{EventQueue, SimTime};
use cpsim_inventory::{DatastoreId, HostId, OrgId, VappId, VmId};
use cpsim_mgmt::{ControlPlane, Emit, MgmtEvent, Operation, TaskReport};
use cpsim_workload::TraceLog;

/// The variants of a driver's event type that the router schedules.
pub trait StackEvent {
    /// Wraps a management-plane timer.
    fn mgmt(ev: MgmtEvent) -> Self;
    /// Wraps a vApp lease expiry.
    fn lease(vapp: VappId) -> Self;
}

/// Sees each finished task's report after it is traced and before the
/// cloud director does.
pub trait ReportHook {
    /// Returns whether the director should see `r`.
    fn on_report(&mut self, now: SimTime, r: &TaskReport) -> bool;
}

/// The single-plane hook: the director sees every report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Forward;

impl ReportHook for Forward {
    #[inline]
    fn on_report(&mut self, _now: SimTime, _r: &TaskReport) -> bool {
        true
    }
}

/// One management stack: plane, director, and what they produce, routed
/// onto a queue of `E` events.
pub struct CloudStack<E, H> {
    /// The control plane.
    pub plane: ControlPlane,
    /// The cloud director.
    pub director: CloudDirector,
    /// The operation trace.
    pub trace: TraceLog,
    /// Full task reports, kept only while `keep_task_reports` is set.
    pub task_reports_kept: Vec<TaskReport>,
    /// Whether to keep full task reports.
    pub keep_task_reports: bool,
    /// Completed cloud requests.
    pub cloud_reports: Vec<CloudReport>,
    /// Hosts, in creation order.
    pub hosts: Vec<HostId>,
    /// Datastores, in creation order.
    pub datastores: Vec<DatastoreId>,
    /// Catalog templates, in creation order.
    pub templates: Vec<VmId>,
    /// The default org requests are attributed to.
    pub org: OrgId,
    /// The report hook.
    pub hook: H,
    /// Reused emission buffer: the plane appends into this on every
    /// dispatched event instead of allocating a fresh `Vec` per event.
    scratch: Vec<Emit>,
    /// Pooled routing stack reused across events (see `route_stack`).
    route_buf: Vec<CloudOut>,
    /// The stack schedules `E`s but never stores one.
    event: PhantomData<fn(E)>,
}

impl<E: StackEvent, H: ReportHook> CloudStack<E, H> {
    /// Wraps a materialized plane and director.
    pub fn new(
        plane: ControlPlane,
        director: CloudDirector,
        hosts: Vec<HostId>,
        datastores: Vec<DatastoreId>,
        templates: Vec<VmId>,
        org: OrgId,
        hook: H,
    ) -> Self {
        CloudStack {
            plane,
            director,
            trace: TraceLog::new(),
            task_reports_kept: Vec::new(),
            keep_task_reports: false,
            cloud_reports: Vec::new(),
            hosts,
            datastores,
            templates,
            org,
            hook,
            scratch: Vec::new(),
            route_buf: Vec::new(),
            event: PhantomData,
        }
    }

    /// Delivers a management-plane event and routes what it emits.
    pub fn handle_mgmt(&mut self, now: SimTime, ev: MgmtEvent, queue: &mut EventQueue<E>) {
        self.route_scratch(now, queue, |plane, out| plane.handle(now, ev, out));
    }

    /// Refreshes the plane's placement-gate mirror and routes what the
    /// refresh emits.
    pub fn sync_gate(&mut self, now: SimTime, queue: &mut EventQueue<E>) {
        self.route_scratch(now, queue, |plane, out| {
            plane.sync_placement_gate(now, out);
        });
    }

    /// Submits a raw operation to the plane.
    pub fn submit_op(&mut self, now: SimTime, op: Operation, queue: &mut EventQueue<E>) {
        self.route_scratch(now, queue, |plane, out| plane.submit(now, op, out));
    }

    /// Submits a cloud request to the director.
    pub fn submit_cloud(&mut self, now: SimTime, req: CloudRequest, queue: &mut EventQueue<E>) {
        let (_, out) = self.director.submit(now, req, &mut self.plane);
        self.route(now, out, queue);
    }

    /// Expires a vApp lease.
    pub fn expire_lease(&mut self, now: SimTime, vapp: VappId, queue: &mut EventQueue<E>) {
        let out = self.director.on_lease_expiry(now, vapp, &mut self.plane);
        self.route(now, out, queue);
    }

    /// Routes one emission: timers go onto the queue, task reports go
    /// through the hook to the director, whose output the caller must
    /// route in turn.
    fn consume_emit(
        &mut self,
        now: SimTime,
        e: Emit,
        queue: &mut EventQueue<E>,
    ) -> Option<CloudOut> {
        match e {
            Emit::At(t, ev) => {
                queue.schedule(t, E::mgmt(ev));
                None
            }
            Emit::Done(_, r) | Emit::Failed(_, r) => {
                self.trace.push_task(&r);
                if self.keep_task_reports {
                    self.task_reports_kept.push(r.clone());
                }
                if self.hook.on_report(now, &r) {
                    Some(self.director.on_task_report(now, &r, &mut self.plane))
                } else {
                    None
                }
            }
        }
    }

    fn route_stack(&mut self, now: SimTime, stack: &mut Vec<CloudOut>, queue: &mut EventQueue<E>) {
        while let Some(o) = stack.pop() {
            self.cloud_reports.extend(o.reports);
            for (t, vapp) in o.leases {
                queue.schedule(t, E::lease(vapp));
            }
            for e in o.mgmt {
                if let Some(child) = self.consume_emit(now, e, queue) {
                    stack.push(child);
                }
            }
        }
    }

    fn route(&mut self, now: SimTime, out: CloudOut, queue: &mut EventQueue<E>) {
        let mut stack = std::mem::take(&mut self.route_buf);
        stack.push(out);
        self.route_stack(now, &mut stack, queue);
        self.route_buf = stack;
    }

    /// Runs one plane call that appends into the scratch buffer, then
    /// routes its emissions, leaving the (emptied) buffer in place for
    /// the next event.
    fn route_scratch(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<E>,
        fill: impl FnOnce(&mut ControlPlane, &mut Vec<Emit>),
    ) {
        debug_assert!(self.scratch.is_empty());
        let mut emits = std::mem::take(&mut self.scratch);
        fill(&mut self.plane, &mut emits);
        let mut stack = std::mem::take(&mut self.route_buf);
        for e in emits.drain(..) {
            if let Some(child) = self.consume_emit(now, e, queue) {
                stack.push(child);
            }
        }
        self.scratch = emits;
        self.route_stack(now, &mut stack, queue);
        self.route_buf = stack;
    }
}
