//! The [`ControlPlane`] orchestrator: executes management operations as
//! phase programs over shared control-plane resources.
//!
//! See the crate docs for the model. The plane is event-driven: callers
//! deliver [`MgmtEvent`]s with explicit timestamps via
//! [`ControlPlane::handle`] and route the returned [`Emit`]s.

use cpsim_des::FastMap;

use cpsim_des::{Dist, FifoQueue, SimDuration, SimRng, SimTime, Streams};
use cpsim_faults::{FaultKind, RecoveryPolicy};
use cpsim_hostagent::{AgentFleet, Primitive, ServiceMod};
use cpsim_inventory::{
    Arena, DatastoreId, DatastoreSpec, DiskId, HostId, HostSpec, HostState, Inventory, PowerState,
    TaskId, VmId, VmSpec,
};
use cpsim_storage::{StoragePool, TemplateResidency, TransferEngine, TransferId, GIB};

use crate::admission::{AdmissionControl, Scope};
use crate::config::{ControlCostModel, ControlPlaneConfig};
use crate::gate::{GateDecision, PlacementGate};
use crate::op::{CloneMode, OpKind, Operation};
use crate::placement::Placer;
use crate::recovery::FaultInjector;
use crate::stats::MgmtStats;
use crate::task::{PhaseClass, Task, TaskReport};

/// Who a CPU/DB job belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// A management task.
    Task(TaskId),
    /// Background work (heartbeats).
    Background,
}

/// A unit of management-server CPU or database work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceJob {
    /// Whose work this is.
    pub owner: Owner,
    /// Phase label for cost breakdowns.
    pub label: &'static str,
    /// Sampled service time.
    pub service: SimDuration,
}

/// Events the control plane reacts to.
#[derive(Clone, Debug)]
pub enum MgmtEvent {
    /// An operation arrives.
    Submit(Operation),
    /// A management-CPU job finished service.
    CpuDone(ServiceJob),
    /// A database job finished service.
    DbDone(ServiceJob),
    /// A host-agent primitive finished.
    AgentDone {
        /// Host it ran on.
        host: HostId,
        /// Owning task.
        task: TaskId,
        /// The primitive that finished.
        primitive: Primitive,
        /// Its sampled service time.
        service: SimDuration,
        /// The host's crash epoch at scheduling time; a mismatch at
        /// delivery means the work was lost in a crash and the event is
        /// stale.
        epoch: u64,
    },
    /// A datastore bandwidth tick (possibly stale).
    TransferTick {
        /// The datastore.
        datastore: DatastoreId,
        /// Epoch guarding against staleness.
        epoch: u64,
    },
    /// A host heartbeat is due.
    Heartbeat {
        /// Index into the plane's heartbeat slot table.
        slot: usize,
    },
    /// An injected fault (or its internally scheduled recovery) fires.
    Fault(FaultKind),
    /// A backed-off phase retry is due.
    Retry {
        /// The task replaying its failed stage.
        task: TaskId,
    },
}

/// Outputs of [`ControlPlane::handle`].
#[derive(Clone, Debug)]
pub enum Emit {
    /// Schedule `event` at the given time.
    At(SimTime, MgmtEvent),
    /// A task completed successfully.
    Done(TaskId, TaskReport),
    /// A task failed.
    Failed(TaskId, TaskReport),
}

/// What the phase program asks for next (internal).
enum Step {
    Cpu(&'static str, SimDuration),
    Db(&'static str, SimDuration),
    Agent(HostId, Primitive),
    /// Label, source datastore, destination datastore, bytes.
    Transfer(&'static str, DatastoreId, DatastoreId, f64),
    Acquire(Scope),
    Continue,
    Done,
}

/// Why a stage cannot proceed (internal).
enum Halt {
    /// Terminal: the task fails with this error.
    Fail(String),
    /// Transient: retried with backoff when fault injection is installed,
    /// terminal otherwise.
    Retry(String),
}

/// `?` lifts inventory and storage errors, and plain messages, into a
/// terminal failure.
impl<E: std::fmt::Display> From<E> for Halt {
    fn from(e: E) -> Self {
        Halt::Fail(e.to_string())
    }
}

/// One planned stage of a phase program.
type Plan = Result<Step, Halt>;

/// The single-VM operations that share one phase program (internal).
#[derive(Clone, Copy)]
enum VmOp {
    PowerOn,
    PowerOff,
    Reconfigure,
    Snapshot,
    RemoveSnapshot,
}

impl VmOp {
    fn primitive(self) -> Primitive {
        match self {
            VmOp::PowerOn => Primitive::PowerOnVm,
            VmOp::PowerOff => Primitive::PowerOffVm,
            VmOp::Reconfigure => Primitive::ReconfigureVm,
            VmOp::Snapshot => Primitive::CreateSnapshot,
            VmOp::RemoveSnapshot => Primitive::RemoveSnapshot,
        }
    }

    /// Label of the closing inventory-record update.
    fn record_label(self) -> &'static str {
        match self {
            VmOp::PowerOn | VmOp::PowerOff => "update-power-state",
            VmOp::Reconfigure => "update-config",
            VmOp::Snapshot | VmOp::RemoveSnapshot => "update-snapshot",
        }
    }
}

struct TransferOwner {
    task: TaskId,
    label: &'static str,
}

/// The management server and everything it orchestrates.
pub struct ControlPlane {
    cfg: ControlPlaneConfig,
    inv: Inventory,
    storage: StoragePool,
    residency: TemplateResidency,
    cpu: FifoQueue<ServiceJob>,
    db: FifoQueue<ServiceJob>,
    agents: AgentFleet<TaskId>,
    transfers: TransferEngine,
    /// Keyed lookups only (insert on start, remove on completion) — the
    /// map is never iterated, so hash ordering cannot leak into event
    /// order.
    // cpsim-lint: allow(no-unordered-iteration): keyed insert/remove only; iteration order is never observed
    transfer_owner: FastMap<TransferId, TransferOwner>,
    admission: AdmissionControl,
    tasks: Arena<TaskId, Task>,
    stats: MgmtStats,
    rng: SimRng,
    heartbeat_hosts: Vec<HostId>,
    /// Datastores in creation order; fault plans address them by index.
    datastore_order: Vec<DatastoreId>,
    /// Fault-injection state; `None` (the default) leaves every fault
    /// branch untaken and draws no fault randomness.
    faults: Option<FaultInjector>,
    /// External placement gate; `None` (the default) skips every gate
    /// branch, so a single-plane simulation is unaffected.
    gate: Option<Box<dyn PlacementGate>>,
    name_seq: u64,
}

impl ControlPlane {
    /// Creates a plane with `cfg`, drawing randomness from `streams`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ControlPlaneConfig::validate`]).
    pub fn new(cfg: ControlPlaneConfig, streams: Streams) -> Self {
        cfg.validate().expect("invalid ControlPlaneConfig");
        let agents = AgentFleet::new(cfg.host_cost.clone(), streams.rng(Streams::SERVICE + 100));
        ControlPlane {
            cpu: FifoQueue::new(cfg.effective_cores()),
            db: FifoQueue::new(cfg.effective_db_connections()),
            admission: AdmissionControl::new(cfg.limits),
            agents,
            transfers: TransferEngine::new(),
            transfer_owner: FastMap::default(),
            inv: Inventory::new(),
            storage: StoragePool::new(),
            residency: TemplateResidency::new(),
            tasks: Arena::new(),
            stats: MgmtStats::new(),
            rng: streams.rng(Streams::SERVICE),
            heartbeat_hosts: Vec::new(),
            datastore_order: Vec::new(),
            faults: None,
            gate: None,
            name_seq: 0,
            cfg,
        }
    }

    // ---- setup-time helpers (not charged to the simulation) -------------

    /// Adds a datastore to the inventory and registers its copy engine.
    pub fn add_datastore(&mut self, spec: DatastoreSpec) -> DatastoreId {
        let id = self.inv.add_datastore(spec);
        self.datastore_order.push(id);
        self.transfers
            .register_datastore(&self.inv, id)
            .expect("freshly added datastore");
        id
    }

    /// Adds a host, its agent, and its heartbeat slot.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = self.inv.add_host(spec);
        self.agents.add_host(id, self.cfg.agent_concurrency);
        self.heartbeat_hosts.push(id);
        id
    }

    /// Connects a host to a datastore.
    ///
    /// # Errors
    ///
    /// Fails if either id is stale.
    pub fn connect(
        &mut self,
        host: HostId,
        ds: DatastoreId,
    ) -> Result<(), cpsim_inventory::InventoryError> {
        self.inv.connect_host_datastore(host, ds)
    }

    /// Installs a template VM with a thick base disk on `(host, ds)` and
    /// seeds its residency there.
    ///
    /// # Errors
    ///
    /// Fails if the placement is invalid or the datastore lacks space.
    pub fn install_template(
        &mut self,
        name: &str,
        spec: VmSpec,
        host: HostId,
        ds: DatastoreId,
    ) -> Result<VmId, String> {
        let vm = self
            .inv
            .create_vm(name, spec, host, ds)
            .map_err(|e| e.to_string())?;
        let disk = self
            .storage
            .create_base(&mut self.inv, ds, spec.disk_gb)
            .map_err(|e| e.to_string())?;
        self.inv.vm_mut(vm).expect("just created").disks.push(disk);
        self.inv.mark_template(vm).map_err(|e| e.to_string())?;
        self.residency.seed(vm, ds, disk);
        Ok(vm)
    }

    /// Installs a plain VM with a thick base disk (setup-time helper for
    /// pre-populated datacenters), optionally powered on.
    ///
    /// # Errors
    ///
    /// Fails if the placement is invalid or capacity is lacking.
    pub fn install_vm(
        &mut self,
        name: &str,
        spec: VmSpec,
        host: HostId,
        ds: DatastoreId,
        powered_on: bool,
    ) -> Result<VmId, String> {
        let vm = self
            .inv
            .create_vm(name, spec, host, ds)
            .map_err(|e| e.to_string())?;
        let disk = self
            .storage
            .create_base(&mut self.inv, ds, spec.disk_gb)
            .map_err(|e| e.to_string())?;
        self.inv.vm_mut(vm).expect("just created").disks.push(disk);
        if powered_on {
            self.inv.power_on(vm).map_err(|e| e.to_string())?;
        }
        Ok(vm)
    }

    /// Instantly seeds `template` onto `ds` (setup-time helper modeling a
    /// cloud whose reconfiguration already ran).
    ///
    /// # Errors
    ///
    /// Fails if ids are stale, the datastore lacks space, or the template
    /// is already resident there.
    pub fn seed_template_now(&mut self, template: VmId, ds: DatastoreId) -> Result<(), String> {
        if self.residency.is_resident(template, ds) {
            return Err(format!("template {template} already resident on {ds}"));
        }
        let gb = self
            .inv
            .vm_checked(template)
            .map_err(|e| e.to_string())?
            .spec
            .disk_gb;
        let disk = self
            .storage
            .create_base(&mut self.inv, ds, gb)
            .map_err(|e| e.to_string())?;
        self.residency.seed(template, ds, disk);
        Ok(())
    }

    /// Installs fault injection. `policy` governs phase timeouts, retry
    /// budgets, backoff, and heartbeat-miss detection; `timeout_prob` is
    /// the per-primitive hang probability; `rng` must come from a
    /// dedicated stream so fault draws never perturb service-time
    /// sampling.
    pub fn enable_faults(&mut self, policy: RecoveryPolicy, timeout_prob: f64, rng: SimRng) {
        self.faults = Some(FaultInjector::new(policy, timeout_prob, rng));
    }

    /// Whether fault injection is installed.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Installs an external placement gate: every provisioning placement
    /// is committed against it before admission, and conflicts retry via
    /// the fault-recovery machinery (install that too, via
    /// [`enable_faults`](Self::enable_faults), or conflicts abort the
    /// task on the spot).
    pub fn set_placement_gate(&mut self, gate: Box<dyn PlacementGate>) {
        self.gate = Some(gate);
    }

    /// Whether an external placement gate is installed.
    pub fn placement_gate_enabled(&self) -> bool {
        self.gate.is_some()
    }

    /// Refreshes the mirrored free-capacity view from the gate's
    /// authoritative store and charges the refresh as background
    /// management load (one CPU slice + one DB statement), mirroring how
    /// heartbeats and resyncs are charged. No-op without a gate.
    pub fn sync_placement_gate(&mut self, now: SimTime, out: &mut Vec<Emit>) {
        let Some(g) = self.gate.as_mut() else {
            return;
        };
        g.sync(now, &mut self.inv);
        self.stats.on_placement_sync();
        let cpu = self.sample(|c| &c.result_processing);
        self.enqueue_cpu(now, Owner::Background, "placement-sync", cpu, out);
        let db = self.sample(|c| &c.db_update);
        self.enqueue_db(now, Owner::Background, "placement-sync", db, out);
    }

    /// Refreshes the mirrored view without charging any cost: the
    /// setup-time initial sync, run once after the federation seeds the
    /// shared pool (not part of the simulated run).
    pub fn sync_placement_gate_quiet(&mut self) {
        if let Some(g) = self.gate.as_mut() {
            g.sync(SimTime::ZERO, &mut self.inv);
        }
    }

    /// Initial events: one staggered heartbeat per host. Call once after
    /// setup, before running.
    pub fn init_events(&self) -> Vec<Emit> {
        if self.cfg.heartbeat.is_disabled() {
            return Vec::new();
        }
        (0..self.heartbeat_hosts.len())
            .map(|slot| {
                Emit::At(
                    self.cfg.heartbeat.first_beat(slot),
                    MgmtEvent::Heartbeat { slot },
                )
            })
            .collect()
    }

    // ---- accessors -------------------------------------------------------

    /// The shared inventory.
    pub fn inventory(&self) -> &Inventory {
        &self.inv
    }

    /// The storage pool.
    pub fn storage(&self) -> &StoragePool {
        &self.storage
    }

    /// Template residency.
    pub fn residency(&self) -> &TemplateResidency {
        &self.residency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MgmtStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &ControlPlaneConfig {
        &self.cfg
    }

    /// Admission-control state (pending queue, in-flight count).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// Management-CPU utilization through `now` (0..=1).
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Database utilization through `now` (0..=1).
    pub fn db_utilization(&self, now: SimTime) -> f64 {
        self.db.utilization(now)
    }

    /// Datastore copy-bandwidth busy fraction through `now`.
    pub fn datastore_busy(&self, ds: DatastoreId, now: SimTime) -> f64 {
        self.transfers.busy_fraction(ds, now)
    }

    /// Mean host-agent utilization across hosts through `now`.
    pub fn mean_agent_utilization(&self, now: SimTime) -> f64 {
        let hosts: Vec<HostId> = self.inv.hosts().map(|(id, _)| id).collect();
        if hosts.is_empty() {
            return 0.0;
        }
        hosts
            .iter()
            .map(|h| self.agents.utilization(*h, now))
            .sum::<f64>()
            / hosts.len() as f64
    }

    /// Tasks currently in flight (submitted, not yet finished).
    pub fn tasks_in_flight(&self) -> usize {
        self.tasks.len()
    }

    // ---- event handling --------------------------------------------------

    /// Submits an operation at `now`, appending follow-up emissions to
    /// `out`. Equivalent to handling [`MgmtEvent::Submit`].
    ///
    /// `out` is caller-owned so the driver can reuse one scratch buffer
    /// across every event instead of allocating per dispatch.
    pub fn submit(&mut self, now: SimTime, kind: impl Into<Operation>, out: &mut Vec<Emit>) {
        self.handle(now, MgmtEvent::Submit(kind.into()), out);
    }

    /// [`submit`](Self::submit) into a freshly allocated buffer
    /// (convenience for tests and examples; the hot path reuses one).
    pub fn submit_collect(&mut self, now: SimTime, kind: impl Into<Operation>) -> Vec<Emit> {
        let mut out = Vec::new();
        self.submit(now, kind, &mut out);
        out
    }

    /// [`handle`](Self::handle) into a freshly allocated buffer
    /// (convenience for tests and examples; the hot path reuses one).
    pub fn handle_collect(&mut self, now: SimTime, event: MgmtEvent) -> Vec<Emit> {
        let mut out = Vec::new();
        self.handle(now, event, &mut out);
        out
    }

    /// Processes one event, appending follow-up emissions to `out`.
    pub fn handle(&mut self, now: SimTime, event: MgmtEvent, out: &mut Vec<Emit>) {
        match event {
            MgmtEvent::Submit(op) => {
                self.stats.on_submitted(op.kind.name());
                let target_vm = match &op.kind {
                    OpKind::PowerOn { vm }
                    | OpKind::PowerOff { vm }
                    | OpKind::Reconfigure { vm }
                    | OpKind::Snapshot { vm }
                    | OpKind::RemoveSnapshot { vm }
                    | OpKind::DestroyVm { vm }
                    | OpKind::MigrateVm { vm }
                    | OpKind::RelocateVm { vm, .. } => Some(*vm),
                    OpKind::CloneVm { source, .. } => Some(*source),
                    _ => None,
                };
                let mut task = Task::new(op, now);
                task.target_vm = target_vm;
                let tid = self.tasks.insert(task);
                self.advance(now, tid, out);
            }
            MgmtEvent::CpuDone(job) => {
                if let Owner::Task(tid) = job.owner {
                    if let Some(task) = self.tasks.get_mut(tid) {
                        task.charge(PhaseClass::Cpu, job.label, job.service.as_secs_f64());
                    }
                }
                if let Some(next) = self.cpu.complete(now) {
                    self.charge_queue_wait(next.job.owner, next.waited);
                    out.push(Emit::At(
                        now + next.job.service,
                        MgmtEvent::CpuDone(next.job),
                    ));
                }
                if let Owner::Task(tid) = job.owner {
                    self.advance(now, tid, out);
                }
            }
            MgmtEvent::DbDone(job) => {
                if let Owner::Task(tid) = job.owner {
                    if let Some(task) = self.tasks.get_mut(tid) {
                        task.charge(PhaseClass::Db, job.label, job.service.as_secs_f64());
                    }
                }
                if let Some(next) = self.db.complete(now) {
                    self.charge_queue_wait(next.job.owner, next.waited);
                    out.push(Emit::At(
                        now + next.job.service,
                        MgmtEvent::DbDone(next.job),
                    ));
                }
                if let Owner::Task(tid) = job.owner {
                    self.advance(now, tid, out);
                }
            }
            MgmtEvent::AgentDone {
                host,
                task,
                primitive,
                service,
                epoch,
            } => {
                if epoch != self.agents.epoch(host) {
                    // Scheduled before the host crashed: the primitive was
                    // lost and the task already took the failure path.
                    return;
                }
                if let Some(t) = self.tasks.get_mut(task) {
                    t.charge(
                        PhaseClass::HostAgent,
                        primitive.name(),
                        service.as_secs_f64(),
                    );
                }
                match self.agents.complete(now, host, task) {
                    Ok(Some(next)) => {
                        self.charge_queue_wait(Owner::Task(next.job), next.waited);
                        out.push(Emit::At(
                            now + next.service,
                            MgmtEvent::AgentDone {
                                host,
                                task: next.job,
                                primitive: next.primitive,
                                service: next.service,
                                epoch,
                            },
                        ));
                    }
                    Ok(None) => {}
                    Err(_) => {} // host removed mid-flight; nothing to start
                }
                let timed_out = self.tasks.get(task).is_some_and(|t| t.pending_timeout);
                if timed_out {
                    self.on_phase_failure(
                        now,
                        task,
                        format!("host agent timed out during {}", primitive.name()),
                        out,
                    );
                } else {
                    self.advance(now, task, out);
                }
            }
            MgmtEvent::TransferTick { datastore, epoch } => {
                if let Some((finished, next)) = self.transfers.on_tick(now, datastore, epoch) {
                    if let Some(ev) = next {
                        out.push(Emit::At(
                            ev.at,
                            MgmtEvent::TransferTick {
                                datastore: ev.datastore,
                                epoch: ev.epoch,
                            },
                        ));
                    }
                    for xid in finished {
                        if let Some(owner) = self.transfer_owner.remove(&xid) {
                            if let Some(t) = self.tasks.get_mut(owner.task) {
                                let started = t.transfer_started.take().unwrap_or(now);
                                t.charge(
                                    PhaseClass::DataTransfer,
                                    owner.label,
                                    now.since(started).as_secs_f64(),
                                );
                            }
                            self.advance(now, owner.task, out);
                        }
                    }
                }
            }
            MgmtEvent::Heartbeat { slot } => {
                self.on_heartbeat(now, slot, out);
            }
            MgmtEvent::Fault(kind) => {
                self.on_fault(now, kind, out);
            }
            MgmtEvent::Retry { task } => {
                self.advance(now, task, out);
            }
        }
    }

    fn on_heartbeat(&mut self, now: SimTime, slot: usize, out: &mut Vec<Emit>) {
        let Some(&host) = self.heartbeat_hosts.get(slot) else {
            return;
        };
        if self.inv.host(host).is_none() {
            return; // host removed: stop its beats
        }
        let hb = self.cfg.heartbeat;
        let missed = match self.faults.as_mut() {
            Some(inj) if inj.host_down(host) || inj.hb_dropped(host) => {
                // No beat arrives (and nothing is charged): consecutive
                // misses eventually make the plane declare the host down,
                // triggering an inventory resync the control plane pays
                // for.
                let threshold = inj.policy().heartbeat_miss_threshold;
                let misses = inj.record_miss(host);
                let connected = self
                    .inv
                    .host(host)
                    .is_some_and(|h| h.state == HostState::Connected);
                if misses >= threshold && connected {
                    let _ = self.inv.set_host_state(host, HostState::Disconnected);
                    inj.declare_down(host);
                    self.stats.on_host_declared_down();
                    self.charge_resync(now, out);
                }
                true
            }
            Some(inj) => {
                inj.reset_misses(host);
                if inj.is_declared_down(host) {
                    // The host answered again: reconnect it and resync.
                    inj.clear_declared(host);
                    let _ = self.inv.set_host_state(host, HostState::Connected);
                    self.charge_resync(now, out);
                }
                false
            }
            None => false,
        };
        if !missed {
            if !hb.mgmt_cpu.is_zero() {
                self.enqueue_cpu(now, Owner::Background, "heartbeat", hb.mgmt_cpu, out);
            }
            if !hb.db_time.is_zero() {
                self.enqueue_db(now, Owner::Background, "heartbeat", hb.db_time, out);
            }
        }
        out.push(Emit::At(now + hb.interval, MgmtEvent::Heartbeat { slot }));
    }

    /// Charges the CPU + DB cost of a host-state resync as background
    /// management load (host declared down, or reconnected after one).
    fn charge_resync(&mut self, now: SimTime, out: &mut Vec<Emit>) {
        self.stats.on_resync();
        let cpu = self.sample(|c| &c.host_sync);
        self.enqueue_cpu(now, Owner::Background, "host-resync", cpu, out);
        let db = self.sample(|c| &c.db_update);
        self.enqueue_db(now, Owner::Background, "host-resync", db, out);
    }

    fn charge_queue_wait(&mut self, owner: Owner, waited: SimDuration) {
        if let Owner::Task(tid) = owner {
            if let Some(t) = self.tasks.get_mut(tid) {
                t.queue_secs += waited.as_secs_f64();
            }
        }
    }

    fn enqueue_cpu(
        &mut self,
        now: SimTime,
        owner: Owner,
        label: &'static str,
        service: SimDuration,
        out: &mut Vec<Emit>,
    ) {
        let job = ServiceJob {
            owner,
            label,
            service,
        };
        if let Some(started) = self.cpu.arrive(now, job) {
            out.push(Emit::At(
                now + started.job.service,
                MgmtEvent::CpuDone(started.job),
            ));
        }
    }

    fn enqueue_db(
        &mut self,
        now: SimTime,
        owner: Owner,
        label: &'static str,
        service: SimDuration,
        out: &mut Vec<Emit>,
    ) {
        // Degraded-DB windows stretch every statement while active.
        let service = match &self.faults {
            Some(inj) if inj.db_scale() != 1.0 => {
                SimDuration::from_secs_f64(service.as_secs_f64() * inj.db_scale())
            }
            _ => service,
        };
        let job = ServiceJob {
            owner,
            label,
            service,
        };
        if let Some(started) = self.db.arrive(now, job) {
            out.push(Emit::At(
                now + started.job.service,
                MgmtEvent::DbDone(started.job),
            ));
        }
    }

    /// Drives `tid` forward until it blocks on a resource or finishes.
    fn advance(&mut self, now: SimTime, tid: TaskId, out: &mut Vec<Emit>) {
        loop {
            if self.tasks.get(tid).is_none() {
                return; // already finished (defensive)
            }
            let step = match self.plan_step(now, tid, out) {
                Ok(step) => step,
                Err(Halt::Fail(err)) => {
                    self.finish(now, tid, Some(err), out);
                    return;
                }
                Err(Halt::Retry(err)) => {
                    self.on_phase_failure(now, tid, err, out);
                    return;
                }
            };
            match step {
                Step::Cpu(label, dur) => self.enqueue_cpu(now, Owner::Task(tid), label, dur, out),
                Step::Db(label, dur) => self.enqueue_db(now, Owner::Task(tid), label, dur, out),
                Step::Agent(host, primitive) => self.start_agent(now, tid, host, primitive, out),
                Step::Transfer(label, src, dst, bytes) => {
                    let (xid, events) = self.transfers.start(now, src, dst, bytes);
                    self.transfer_owner
                        .insert(xid, TransferOwner { task: tid, label });
                    self.task_mut(tid).transfer_started = Some(now);
                    for ev in events {
                        out.push(Emit::At(
                            ev.at,
                            MgmtEvent::TransferTick {
                                datastore: ev.datastore,
                                epoch: ev.epoch,
                            },
                        ));
                    }
                }
                Step::Acquire(scope) => {
                    if self.admission.try_acquire(&scope) {
                        self.task_mut(tid).scope = Some(scope);
                        continue;
                    }
                    self.task_mut(tid).parked_at = Some(now);
                    self.admission.park(tid, scope);
                }
                Step::Continue => continue,
                Step::Done => self.finish(now, tid, None, out),
            }
            return;
        }
    }

    /// Hands `primitive` to `host`'s agent, or fails the phase at once if
    /// an injected crash holds the host down.
    fn start_agent(
        &mut self,
        now: SimTime,
        tid: TaskId,
        host: HostId,
        primitive: Primitive,
        out: &mut Vec<Emit>,
    ) {
        if self.faults.as_ref().is_some_and(|inj| inj.host_down(host)) {
            self.on_phase_failure(
                now,
                tid,
                format!("host not responding during {}", primitive.name()),
                out,
            );
            return;
        }
        let mut service_mod = ServiceMod::default();
        let mut hangs = false;
        if let Some(inj) = self.faults.as_mut() {
            let scale = inj.agent_scale();
            if scale != 1.0 {
                service_mod.scale = scale;
            }
            if inj.draw_timeout() {
                // The primitive hangs: it occupies the agent until the
                // phase timeout, then fails.
                service_mod.force = Some(inj.policy().agent_timeout);
                hangs = true;
            }
        }
        if hangs {
            self.stats.on_agent_timeout();
            self.task_mut(tid).pending_timeout = true;
        }
        match self
            .agents
            .submit_with(now, host, primitive, tid, service_mod)
        {
            Ok(Some(start)) => {
                out.push(Emit::At(
                    now + start.service,
                    MgmtEvent::AgentDone {
                        host,
                        task: tid,
                        primitive: start.primitive,
                        service: start.service,
                        epoch: self.agents.epoch(host),
                    },
                ));
            }
            Ok(None) => {} // queued at the host
            Err(e) => self.finish(now, tid, Some(e.to_string()), out),
        }
    }

    /// Completes `tid`, releases its scope, resumes parked tasks, and
    /// emits the report.
    fn finish(&mut self, now: SimTime, tid: TaskId, error: Option<String>, out: &mut Vec<Emit>) {
        let mut task = self.tasks.remove(tid).expect("finishing a live task");
        if error.is_some() && self.rollback_partial(&mut task) {
            task.rolled_back = true;
            self.stats.on_rollback();
        }
        let failed = error.is_some();
        let report = TaskReport {
            kind: task.op.kind.name(),
            tag: task.op.tag,
            submitted_at: task.submitted_at,
            completed_at: now,
            latency: now.since(task.submitted_at),
            cpu_secs: task.cpu_secs,
            db_secs: task.db_secs,
            agent_secs: task.agent_secs,
            data_secs: task.data_secs,
            queue_secs: task.queue_secs,
            admission_secs: task.admission_secs,
            produced_vm: task.produced_vm,
            target_vm: task.target_vm,
            placement: task.placement,
            error,
            retries: task.retries,
            aborted: task.aborted,
            rolled_back: task.rolled_back,
            breakdown: std::mem::take(&mut task.breakdown),
        };
        self.stats.on_finished(&report);
        let kind = report.kind;
        out.push(if failed {
            Emit::Failed(tid, report)
        } else {
            Emit::Done(tid, report)
        });
        if let Some(scope) = task.scope {
            let resumed = self.admission.release(&scope);
            for (rtid, rscope) in resumed {
                if let Some(t) = self.tasks.get_mut(rtid) {
                    t.scope = Some(rscope);
                    if let Some(parked) = t.parked_at.take() {
                        t.admission_secs += now.since(parked).as_secs_f64();
                    }
                }
                self.advance(now, rtid, out);
            }
        }
        debug_assert!(
            self.inv.check_invariants().is_ok(),
            "inventory invariants violated after {kind:?}"
        );
    }

    /// Tears down partial state left by a failed task: a produced VM (and
    /// its disks) and any scratch disk whose copy never finished. Returns
    /// whether anything was released. Runs on every failure path so a
    /// half-provisioned VM never outlives its failed task.
    fn rollback_partial(&mut self, task: &mut Task) -> bool {
        let mut any = false;
        if let Some(vm) = task.produced_vm.take() {
            if self.inv.vm(vm).is_some() {
                // Mirror plan_destroy: power off, detach disks, destroy.
                // Each step tolerates absence (the task may have failed at
                // any point in the provisioning program).
                let _ = self.inv.power_off(vm);
                let disks = self.inv.vm(vm).map(|v| v.disks.clone()).unwrap_or_default();
                for d in disks {
                    let _ = self.storage.detach(&mut self.inv, d);
                }
                let _ = self.inv.destroy_vm(vm);
                any = true;
            }
        }
        if let Some(d) = task.work_disk.take() {
            // Still set only while the disk is dangling: attach points
            // clear `work_disk`, so this cannot double-free.
            if self.storage.disk(d).is_some() {
                let _ = self.storage.detach(&mut self.inv, d);
                any = true;
            }
        }
        any
    }

    /// A phase failed for a (possibly transient) fault-related reason.
    /// With fault injection installed the stage is retried after an
    /// exponential backoff until the retry budget runs out; without it the
    /// failure is terminal.
    fn on_phase_failure(&mut self, now: SimTime, tid: TaskId, err: String, out: &mut Vec<Emit>) {
        let Some(inj) = self.faults.as_mut() else {
            self.finish(now, tid, Some(err), out);
            return;
        };
        let Some(t) = self.tasks.get_mut(tid) else {
            return; // already finished (a crash raced with another failure)
        };
        t.pending_timeout = false;
        if t.retries >= inj.policy().max_retries {
            t.aborted = true;
            self.stats.on_abort();
            self.finish(now, tid, Some(err), out);
            return;
        }
        t.retries += 1;
        // plan_step pre-increments the stage counter, so stepping it back
        // makes the retry replay the failed stage — with freshly sampled
        // costs, which is the retry amplification of control-plane load
        // the availability experiment measures.
        t.stage -= 1;
        self.stats.on_retry();
        let backoff = inj.backoff(t.retries);
        out.push(Emit::At(now + backoff, MgmtEvent::Retry { task: tid }));
    }

    /// Applies one injected fault at `now`. Host/datastore indices in the
    /// plan are resolved modulo the current topology; recovery events are
    /// scheduled here so every fault window closes itself.
    fn on_fault(&mut self, now: SimTime, kind: FaultKind, out: &mut Vec<Emit>) {
        let Some(inj) = self.faults.as_mut() else {
            return;
        };
        match kind {
            FaultKind::HostCrash { host, down_for } => {
                if self.heartbeat_hosts.is_empty() {
                    return;
                }
                let hid = self.heartbeat_hosts[host % self.heartbeat_hosts.len()];
                if self.inv.host(hid).is_none() || inj.host_down(hid) {
                    return; // removed or already down: nothing new fails
                }
                inj.mark_host_down(host, hid);
                self.stats.on_host_crash();
                out.push(Emit::At(
                    now + down_for,
                    MgmtEvent::Fault(FaultKind::HostRecover { host }),
                ));
                let report = self.agents.crash_host(now, hid).expect("registered agent");
                for (prim, tid) in report.interrupted.into_iter().chain(report.dropped) {
                    self.on_phase_failure(
                        now,
                        tid,
                        format!("host crashed during {}", prim.name()),
                        out,
                    );
                }
                // Inventory state is deliberately NOT flipped here: the
                // plane only learns of the crash through missed
                // heartbeats, so detection latency is emergent.
            }
            FaultKind::HostRecover { host } => {
                // Clear the down flag; reconnection happens when healthy
                // heartbeats resume.
                let _ = inj.recover_host(host);
            }
            FaultKind::AgentSlowdown { factor, duration } => {
                inj.push_agent_slow(factor);
                out.push(Emit::At(
                    now + duration,
                    MgmtEvent::Fault(FaultKind::AgentSpeedRestore { factor }),
                ));
            }
            FaultKind::AgentSpeedRestore { factor } => inj.pop_agent_slow(factor),
            FaultKind::DbDegraded { factor, duration } => {
                inj.push_db_slow(factor);
                out.push(Emit::At(
                    now + duration,
                    MgmtEvent::Fault(FaultKind::DbRestore { factor }),
                ));
            }
            FaultKind::DbRestore { factor } => inj.pop_db_slow(factor),
            FaultKind::DatastoreOutage { ds, duration } => {
                if self.datastore_order.is_empty() {
                    return;
                }
                let did = self.datastore_order[ds % self.datastore_order.len()];
                if inj.ds_down(did) {
                    return;
                }
                inj.mark_ds_down(ds, did);
                out.push(Emit::At(
                    now + duration,
                    MgmtEvent::Fault(FaultKind::DatastoreRestore { ds }),
                ));
            }
            FaultKind::DatastoreRestore { ds } => {
                let _ = inj.restore_ds(ds);
            }
            FaultKind::HeartbeatDrops { host, duration } => {
                if self.heartbeat_hosts.is_empty() {
                    return;
                }
                let hid = self.heartbeat_hosts[host % self.heartbeat_hosts.len()];
                if inj.hb_dropped(hid) {
                    return;
                }
                inj.mark_hb_dropped(host, hid);
                out.push(Emit::At(
                    now + duration,
                    MgmtEvent::Fault(FaultKind::HeartbeatRestore { host }),
                ));
            }
            FaultKind::HeartbeatRestore { host } => {
                let _ = inj.restore_hb(host);
            }
        }
    }

    // ---- phase-program vocabulary -----------------------------------------

    /// The live task `tid`.
    fn task(&self, tid: TaskId) -> &Task {
        self.tasks
            .get(tid)
            .expect("task entry outlives its in-flight events")
    }

    /// The live task `tid`, mutably.
    fn task_mut(&mut self, tid: TaskId) -> &mut Task {
        self.tasks
            .get_mut(tid)
            .expect("task entry outlives its in-flight events")
    }

    /// The `(host, datastore)` an earlier stage of `tid` recorded.
    fn placement(&self, tid: TaskId) -> (HostId, DatastoreId) {
        self.task(tid)
            .placement
            .expect("placement made by an earlier stage of this task")
    }

    fn placed_host(&self, tid: TaskId) -> HostId {
        self.placement(tid).0
    }

    /// Draws one sample of the control-phase cost that `cost` selects.
    fn sample(&mut self, cost: fn(&ControlCostModel) -> &Dist) -> SimDuration {
        SimDuration::from_secs_f64(cost(&self.cfg.cost).sample(&mut self.rng))
    }

    /// A management-CPU step charged one sample of `cost`.
    fn cpu_step(&mut self, label: &'static str, cost: fn(&ControlCostModel) -> &Dist) -> Step {
        Step::Cpu(label, self.sample(cost))
    }

    /// A database step charged one sample of `cost`.
    fn db_step(&mut self, label: &'static str, cost: fn(&ControlCostModel) -> &Dist) -> Step {
        Step::Db(label, self.sample(cost))
    }

    /// The placement scan: a sampled base cost plus a per-host term.
    fn placement_step(&mut self) -> Step {
        let hosts = self.inv.counts().hosts;
        let base = self.sample(|c| &c.placement_base);
        let per_host =
            SimDuration::from_secs_f64(self.cfg.cost.placement_per_host_us * 1e-6 * hosts as f64);
        Step::Cpu("placement", base + per_host)
    }

    /// Fails the stage retryably while an injected outage holds `ds` down.
    fn datastore_up(&self, ds: DatastoreId) -> Result<(), Halt> {
        if self.faults.as_ref().is_some_and(|i| i.ds_down(ds)) {
            return Err(Halt::Retry(format!("datastore {ds} unavailable")));
        }
        Ok(())
    }

    /// Records the VM's host and datastore as the task's placement and
    /// asks for the host slot plus the VM's exclusive lock.
    fn lock_vm(&mut self, tid: TaskId, vm: VmId) -> Plan {
        let v = self
            .inv
            .vm(vm)
            .ok_or_else(|| format!("vm {vm} no longer exists"))?;
        let (host, ds) = (v.host, v.datastore);
        self.task_mut(tid).placement = Some((host, ds));
        Ok(Step::Acquire(
            Scope::global_only().with_host(host).with_vm(vm),
        ))
    }

    fn attach_disk(&mut self, vm: VmId, disk: DiskId) {
        self.inv
            .vm_mut(vm)
            .expect("vm stays in inventory while its task runs")
            .disks
            .push(disk);
    }

    fn next_clone_name(&mut self) -> String {
        self.name_seq += 1;
        format!("vm-{:06}", self.name_seq)
    }

    /// Commits a freshly-picked placement against the external gate, if
    /// one is installed. A rejected reservation halts the stage
    /// retryably (the gate refreshes the contended datastore's mirror
    /// before returning, so the retried placement scan picks elsewhere).
    fn gate_commit(
        &mut self,
        now: SimTime,
        host: HostId,
        ds: DatastoreId,
        mem_mb: u64,
        disk_gb: f64,
    ) -> Result<(), Halt> {
        let Some(g) = self.gate.as_mut() else {
            return Ok(());
        };
        match g.commit(now, &mut self.inv, host, ds, mem_mb, disk_gb) {
            GateDecision::Commit => {
                self.stats.on_placement_commit();
                Ok(())
            }
            GateDecision::Conflict(reason) => {
                self.stats.on_placement_conflict();
                Err(Halt::Retry(reason))
            }
        }
    }

    // ---- per-op programs --------------------------------------------------

    /// The per-operation phase program. Called with the task's stage
    /// counter already advanced to the stage to plan.
    fn plan_step(&mut self, now: SimTime, tid: TaskId, out: &mut Vec<Emit>) -> Plan {
        let t = self.task_mut(tid);
        t.stage += 1;
        let (kind, stage) = (t.op.kind.clone(), t.stage);

        // Shared prelude for every operation.
        match stage {
            1 => return Ok(self.cpu_step("api-ingress", |c| &c.api_ingress)),
            2 => return Ok(self.db_step("task-record", |c| &c.db_task_record)),
            _ => {}
        }

        match kind {
            OpKind::CreateVm { spec } => self.plan_create(now, tid, stage, spec),
            OpKind::CloneVm { source, mode } => self.plan_clone(now, tid, stage, source, mode),
            OpKind::PowerOn { vm } => self.plan_vm_op(tid, stage, vm, VmOp::PowerOn),
            OpKind::PowerOff { vm } => self.plan_vm_op(tid, stage, vm, VmOp::PowerOff),
            OpKind::Reconfigure { vm } => self.plan_vm_op(tid, stage, vm, VmOp::Reconfigure),
            OpKind::Snapshot { vm } => self.plan_vm_op(tid, stage, vm, VmOp::Snapshot),
            OpKind::RemoveSnapshot { vm } => self.plan_vm_op(tid, stage, vm, VmOp::RemoveSnapshot),
            OpKind::DestroyVm { vm } => self.plan_destroy(tid, stage, vm),
            OpKind::MigrateVm { vm } => self.plan_migrate(tid, stage, vm),
            OpKind::RelocateVm { vm, dst } => self.plan_relocate(tid, stage, vm, dst),
            OpKind::SeedTemplate { template, dst } => self.plan_seed(tid, stage, template, dst),
            OpKind::AddHost(params) => {
                let crate::op::AddHostParams { spec, datastores } = *params;
                self.plan_add_host(now, tid, stage, spec, datastores, out)
            }
            OpKind::RescanDatastores { host } => self.plan_rescan(tid, stage, host),
        }
    }

    fn plan_create(&mut self, now: SimTime, tid: TaskId, stage: u32, spec: VmSpec) -> Plan {
        Ok(match stage {
            3 => self.placement_step(),
            4 => {
                let (host, ds) = Placer
                    .place(&self.inv, spec.disk_gb, spec.mem_mb)
                    .ok_or("placement failed: no capacity")?;
                self.gate_commit(now, host, ds, spec.mem_mb, spec.disk_gb)?;
                self.task_mut(tid).placement = Some((host, ds));
                Step::Acquire(Scope::global_only().with_host(host).with_datastore(ds))
            }
            5 => self.db_step("insert-vm", |c| &c.db_insert),
            6 => {
                let (host, ds) = self.placement(tid);
                self.datastore_up(ds)?;
                let name = self.next_clone_name();
                let vm = self.inv.create_vm(name, spec, host, ds)?;
                let disk = match self.storage.create_base(&mut self.inv, ds, spec.disk_gb) {
                    Ok(d) => d,
                    Err(e) => {
                        let _ = self.inv.destroy_vm(vm);
                        return Err(e.into());
                    }
                };
                self.attach_disk(vm, disk);
                self.task_mut(tid).produced_vm = Some(vm);
                Step::Continue
            }
            7 => Step::Agent(self.placed_host(tid), Primitive::CreateVmFiles),
            8 => Step::Agent(self.placed_host(tid), Primitive::RegisterVm),
            9 => self.cpu_step("result-processing", |c| &c.result_processing),
            10 => self.db_step("finalize-records", |c| &c.db_update),
            11 => self.cpu_step("finalize", |c| &c.finalize),
            _ => Step::Done,
        })
    }

    /// Picks `(host, datastore)` for a full or linked clone of `source`
    /// and commits it against the gate.
    fn place_clone(
        &mut self,
        now: SimTime,
        source: VmId,
        spec: VmSpec,
        linked: bool,
    ) -> Result<(HostId, DatastoreId), Halt> {
        let delta_gb = self.cfg.linked_delta_gb;
        let need_gb = if linked { delta_gb } else { spec.disk_gb };
        let mut placement = Placer.place(&self.inv, need_gb, spec.mem_mb);
        // A linked clone that lands where the source is not resident
        // needs room for the shadow copy's full base as well.
        if linked && placement.is_some_and(|(_, ds)| !self.residency.is_resident(source, ds)) {
            placement = Placer.place(&self.inv, spec.disk_gb + delta_gb, spec.mem_mb);
        }
        let (host, ds) = placement.ok_or("placement failed: no capacity")?;
        // What the commit reserves on `ds`: the full base for a full
        // clone, the delta for a resident linked clone, and base + delta
        // when a shadow copy must land first.
        let commit_gb = match (linked, self.residency.is_resident(source, ds)) {
            (false, _) => spec.disk_gb,
            (true, true) => delta_gb,
            (true, false) => spec.disk_gb + delta_gb,
        };
        self.gate_commit(now, host, ds, spec.mem_mb, commit_gb)?;
        Ok((host, ds))
    }

    fn plan_clone(
        &mut self,
        now: SimTime,
        tid: TaskId,
        stage: u32,
        source: VmId,
        mode: CloneMode,
    ) -> Plan {
        let instant = mode == CloneMode::Instant;
        Ok(match stage {
            // No placement scan for a fork: it lands on the parent's host
            // and datastore by construction.
            3 if instant => self.cpu_step("placement", |c| &c.placement_base),
            3 => self.placement_step(),
            4 => {
                let (src_host, src_ds, spec) = self
                    .inv
                    .vm(source)
                    .map(|v| (v.host, v.datastore, v.spec))
                    .ok_or_else(|| format!("clone source {source} no longer exists"))?;
                let (host, ds) = if instant {
                    (src_host, src_ds)
                } else {
                    self.place_clone(now, source, spec, mode == CloneMode::Linked)?
                };
                self.task_mut(tid).placement = Some((host, ds));
                Step::Acquire(
                    Scope::global_only()
                        .with_host(host)
                        .with_datastore(ds)
                        .with_vm_shared(source),
                )
            }
            5 => {
                let src_host = self.inv.vm(source).ok_or("clone source vanished")?.host;
                let prim = if instant {
                    Primitive::InstantFork
                } else {
                    Primitive::PrepareClone
                };
                Step::Agent(src_host, prim)
            }
            6 => self.db_step("insert-vm", |c| &c.db_insert),
            7 => self.clone_materialize(tid, source, mode)?,
            8 => {
                self.clone_attach(tid, source, mode)?;
                Step::Continue
            }
            // The fork is complete at creation; no destination-side
            // customization pass.
            9 if instant => Step::Continue,
            9 => Step::Agent(self.placed_host(tid), Primitive::FinalizeClone),
            10 => Step::Agent(self.placed_host(tid), Primitive::RegisterVm),
            11 => self.cpu_step("result-processing", |c| &c.result_processing),
            12 => self.db_step("finalize-records", |c| &c.db_update),
            13 => self.cpu_step("finalize", |c| &c.finalize),
            _ => Step::Done,
        })
    }

    /// Clone stage 7: creates the VM record and starts materializing its
    /// data — a delta over the parent's disk for a fork, a metadata write
    /// for a resident linked clone, a full copy otherwise.
    fn clone_materialize(&mut self, tid: TaskId, source: VmId, mode: CloneMode) -> Plan {
        let (host, ds) = self.placement(tid);
        self.datastore_up(ds)?;
        let (spec, src_ds, src_top) = self
            .inv
            .vm(source)
            .map(|v| (v.spec, v.datastore, v.disks.last().copied()))
            .ok_or("clone source vanished")?;
        let name = self.next_clone_name();
        let vm = self.inv.create_vm(name, spec, host, ds)?;
        self.task_mut(tid).produced_vm = Some(vm);
        Ok(match mode {
            CloneMode::Instant => {
                let parent = src_top.ok_or("instant-clone source has no disks")?;
                let delta =
                    self.storage
                        .create_delta(&mut self.inv, parent, self.cfg.linked_delta_gb)?;
                self.attach_disk(vm, delta);
                Step::Continue
            }
            CloneMode::Linked if self.residency.resident_disk(source, ds).is_some() => {
                Step::Transfer("clone-metadata", ds, ds, self.cfg.linked_metadata_bytes)
            }
            // A full clone, or a linked clone's shadow copy: materialize
            // a full base first.
            CloneMode::Full | CloneMode::Linked => {
                let disk = self.storage.create_base(&mut self.inv, ds, spec.disk_gb)?;
                let shadow = mode == CloneMode::Linked;
                let t = self.task_mut(tid);
                t.work_disk = Some(disk);
                t.shadow_copy = shadow;
                let label = if shadow { "shadow-copy" } else { "clone-copy" };
                Step::Transfer(label, src_ds, ds, spec.disk_gb * GIB)
            }
        })
    }

    /// Clone stage 8: wires the clone's disks up now that data movement
    /// is done.
    fn clone_attach(&mut self, tid: TaskId, source: VmId, mode: CloneMode) -> Result<(), Halt> {
        let (_, ds) = self.placement(tid);
        let t = self.task(tid);
        let (vm, shadow, work_disk) = (
            t.produced_vm
                .expect("produced by an earlier stage of this task"),
            t.shadow_copy,
            t.work_disk,
        );
        match mode {
            CloneMode::Instant => {}
            CloneMode::Full => {
                let disk = self
                    .task_mut(tid)
                    .work_disk
                    .take()
                    .expect("produced by an earlier stage of this task");
                self.attach_disk(vm, disk);
            }
            CloneMode::Linked => {
                let parent = if shadow {
                    work_disk.expect("shadow created")
                } else {
                    self.residency
                        .resident_disk(source, ds)
                        .expect("checked resident at stage 7")
                };
                let delta =
                    self.storage
                        .create_delta(&mut self.inv, parent, self.cfg.linked_delta_gb)?;
                self.attach_disk(vm, delta);
                if shadow {
                    // Several clones may have raced to make the first
                    // copy on this datastore (the shadow-VM stampede of
                    // the real stack). The winner's copy becomes the
                    // resident replica; a loser's copy backs only its own
                    // clone and is collected when that clone dies.
                    if self.residency.resident_disk(source, ds).is_none() {
                        self.residency.seed(source, ds, parent);
                    } else {
                        self.storage.detach(&mut self.inv, parent)?;
                    }
                    self.task_mut(tid).work_disk = None;
                }
            }
        }
        Ok(())
    }

    /// Power on/off, reconfigure, snapshot and remove-snapshot: lock the
    /// VM on its host, run the op's agent primitive, apply its effect to
    /// inventory or storage, then record and finalize.
    fn plan_vm_op(&mut self, tid: TaskId, stage: u32, vm: VmId, op: VmOp) -> Plan {
        Ok(match stage {
            3 => self.lock_vm(tid, vm)?,
            4 => Step::Agent(self.placed_host(tid), op.primitive()),
            5 => self.vm_op_effect(vm, op)?,
            6 => self.db_step(op.record_label(), |c| &c.db_update),
            7 => self.cpu_step("finalize", |c| &c.finalize),
            _ => Step::Done,
        })
    }

    /// What a single-VM op changes once its agent primitive finished.
    fn vm_op_effect(&mut self, vm: VmId, op: VmOp) -> Plan {
        Ok(match op {
            VmOp::PowerOn => {
                self.inv.power_on(vm)?;
                Step::Continue
            }
            VmOp::PowerOff => {
                self.inv.power_off(vm)?;
                Step::Continue
            }
            VmOp::Reconfigure => Step::Continue,
            VmOp::Snapshot => {
                let disk = self
                    .inv
                    .vm(vm)
                    .and_then(|v| v.disks.last().copied())
                    .ok_or_else(|| format!("vm {vm} has no disks to snapshot"))?;
                let new_top =
                    self.storage
                        .snapshot(&mut self.inv, disk, self.cfg.snapshot_delta_gb)?;
                self.replace_top_disk(vm, new_top);
                Step::Continue
            }
            VmOp::RemoveSnapshot => {
                let v = self
                    .inv
                    .vm(vm)
                    .ok_or_else(|| format!("vm {vm} no longer exists"))?;
                let ds = v.datastore;
                let disk = v
                    .disks
                    .last()
                    .copied()
                    .ok_or_else(|| format!("vm {vm} has no disks"))?;
                let (merged_into, bytes) = self.storage.consolidate(&mut self.inv, disk)?;
                self.replace_top_disk(vm, merged_into);
                Step::Transfer("snapshot-merge", ds, ds, bytes)
            }
        })
    }

    fn replace_top_disk(&mut self, vm: VmId, disk: DiskId) {
        let v = self
            .inv
            .vm_mut(vm)
            .expect("vm stays in inventory while its task runs");
        *v.disks.last_mut().expect("non-empty") = disk;
    }

    fn plan_destroy(&mut self, tid: TaskId, stage: u32, vm: VmId) -> Plan {
        Ok(match stage {
            3 => {
                if self.inv.vm(vm).is_some_and(|v| v.power == PowerState::On) {
                    return Err(format!("vm {vm} is powered on").into());
                }
                self.lock_vm(tid, vm)?
            }
            4 => Step::Agent(self.placed_host(tid), Primitive::UnregisterVm),
            5 => Step::Agent(self.placed_host(tid), Primitive::DeleteVmFiles),
            6 => {
                let disks = self
                    .inv
                    .vm(vm)
                    .ok_or_else(|| format!("vm {vm} vanished mid-destroy"))?
                    .disks
                    .clone();
                for d in disks {
                    self.storage.detach(&mut self.inv, d)?;
                }
                self.inv.destroy_vm(vm)?;
                Step::Continue
            }
            7 => self.cpu_step("result-processing", |c| &c.result_processing),
            8 => self.db_step("delete-records", |c| &c.db_delete),
            9 => self.cpu_step("finalize", |c| &c.finalize),
            _ => Step::Done,
        })
    }

    fn plan_migrate(&mut self, tid: TaskId, stage: u32, vm: VmId) -> Plan {
        Ok(match stage {
            3 => self.placement_step(),
            4 => {
                let (src_host, ds, mem) = self
                    .inv
                    .vm(vm)
                    .map(|v| (v.host, v.datastore, v.spec.mem_mb))
                    .ok_or_else(|| format!("vm {vm} no longer exists"))?;
                let dst_host = Placer
                    .pick_host(&self.inv, ds, mem, Some(src_host))
                    .ok_or("migration placement failed: no destination host")?;
                self.task_mut(tid).placement = Some((dst_host, ds));
                Step::Acquire(
                    Scope::global_only()
                        .with_host(src_host)
                        .with_host2(dst_host)
                        .with_vm(vm),
                )
            }
            5 => Step::Agent(
                self.inv.vm(vm).ok_or("vm vanished")?.host,
                Primitive::MigrateSource,
            ),
            6 => Step::Agent(self.placed_host(tid), Primitive::MigrateDest),
            7 => {
                let dst = self.placed_host(tid);
                self.inv.relocate_vm(vm, dst)?;
                Step::Continue
            }
            8 => self.db_step("update-placement", |c| &c.db_update),
            9 => self.cpu_step("finalize", |c| &c.finalize),
            _ => Step::Done,
        })
    }

    fn plan_relocate(&mut self, tid: TaskId, stage: u32, vm: VmId, dst: DatastoreId) -> Plan {
        Ok(match stage {
            3 => {
                let v = self
                    .inv
                    .vm(vm)
                    .ok_or_else(|| format!("vm {vm} no longer exists"))?;
                if v.datastore == dst {
                    return Err("relocate source and destination are the same".into());
                }
                let host = v.host;
                self.task_mut(tid).placement = Some((host, dst));
                Step::Acquire(
                    Scope::global_only()
                        .with_host(host)
                        .with_datastore(dst)
                        .with_vm(vm),
                )
            }
            4 => {
                let v = self.inv.vm(vm).ok_or("vm vanished")?;
                let src_ds = v.datastore;
                let total_gb: f64 = v
                    .disks
                    .iter()
                    .filter_map(|d| self.storage.disk(*d))
                    .map(|d| d.allocated_gb)
                    .sum();
                self.datastore_up(dst)?;
                let new_disk = self.storage.create_base(&mut self.inv, dst, total_gb)?;
                self.task_mut(tid).work_disk = Some(new_disk);
                Step::Transfer("relocate-copy", src_ds, dst, total_gb * GIB)
            }
            5 => {
                let new_disk = self
                    .task_mut(tid)
                    .work_disk
                    .take()
                    .expect("produced by an earlier stage of this task");
                let old_disks = self.inv.vm(vm).ok_or("vm vanished")?.disks.clone();
                for d in old_disks {
                    self.storage.detach(&mut self.inv, d)?;
                }
                let v = self
                    .inv
                    .vm_mut(vm)
                    .expect("vm stays in inventory while its task runs");
                v.disks = vec![new_disk];
                v.datastore = dst;
                Step::Continue
            }
            6 => Step::Agent(self.placed_host(tid), Primitive::ReconfigureVm),
            7 => self.db_step("update-placement", |c| &c.db_update),
            8 => self.cpu_step("finalize", |c| &c.finalize),
            _ => Step::Done,
        })
    }

    fn plan_seed(&mut self, tid: TaskId, stage: u32, template: VmId, dst: DatastoreId) -> Plan {
        Ok(match stage {
            3 => {
                if self.residency.is_resident(template, dst) {
                    return Err(format!("template {template} already resident on {dst}").into());
                }
                Step::Acquire(Scope::global_only().with_datastore(dst))
            }
            4 => {
                let (src_ds, gb) = self
                    .inv
                    .vm(template)
                    .map(|v| (v.datastore, v.spec.disk_gb))
                    .ok_or_else(|| format!("template {template} no longer exists"))?;
                self.datastore_up(dst)?;
                let disk = self.storage.create_base(&mut self.inv, dst, gb)?;
                self.task_mut(tid).work_disk = Some(disk);
                Step::Transfer("seed-copy", src_ds, dst, gb * GIB)
            }
            5 => {
                let disk = self
                    .task_mut(tid)
                    .work_disk
                    .take()
                    .expect("produced by an earlier stage of this task");
                self.residency.seed(template, dst, disk);
                Step::Continue
            }
            6 => self.db_step("insert-replica", |c| &c.db_insert),
            7 => self.cpu_step("finalize", |c| &c.finalize),
            _ => Step::Done,
        })
    }

    fn plan_add_host(
        &mut self,
        now: SimTime,
        tid: TaskId,
        stage: u32,
        spec: HostSpec,
        datastores: Vec<DatastoreId>,
        out: &mut Vec<Emit>,
    ) -> Plan {
        Ok(match stage {
            3 => self.cpu_step("host-sync", |c| &c.host_sync),
            4 => self.db_step("insert-host", |c| &c.db_insert),
            5 => {
                let host = self.inv.add_host(spec);
                for ds in &datastores {
                    self.inv.connect_host_datastore(host, *ds)?;
                }
                self.agents.add_host(host, self.cfg.agent_concurrency);
                let slot = self.heartbeat_hosts.len();
                self.heartbeat_hosts.push(host);
                if !self.cfg.heartbeat.is_disabled() {
                    out.push(Emit::At(
                        now + self.cfg.heartbeat.interval,
                        MgmtEvent::Heartbeat { slot },
                    ));
                }
                self.task_mut(tid).placement = datastores.first().map(|ds| (host, *ds));
                Step::Continue
            }
            6 => self.cpu_step("finalize", |c| &c.finalize),
            _ => Step::Done,
        })
    }

    fn plan_rescan(&mut self, tid: TaskId, stage: u32, host: HostId) -> Plan {
        Ok(match stage {
            3 => {
                let ds = self
                    .inv
                    .host(host)
                    .ok_or_else(|| format!("host {host} no longer exists"))?
                    .datastores
                    .first()
                    .copied();
                self.task_mut(tid).placement = ds.map(|d| (host, d));
                Step::Acquire(Scope::global_only().with_host(host))
            }
            4 => Step::Agent(host, Primitive::MountDatastore),
            5 => self.db_step("update-storage", |c| &c.db_update),
            6 => self.cpu_step("finalize", |c| &c.finalize),
            _ => Step::Done,
        })
    }
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("tasks_in_flight", &self.tasks.len())
            .field("inventory", &self.inv.counts())
            .finish()
    }
}
