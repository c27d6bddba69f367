//! The traced single-plane driver: a benchmark-side [`Model`] that
//! replays `cpsim`'s `CloudModel` routing through public calls, counts
//! every call into a layer and times a sample of them, from the outside.
//!
//! `tests/traced_driver.rs` checks it against [`CloudSim`](cpsim::CloudSim)
//! on event count, trace length and cloud reports, so its numbers always
//! describe the same program the untraced run measures.

use std::time::Instant;

use cpsim::CoreEvent;
use cpsim_cloud::{CloudDirector, CloudOut, CloudReport, CloudRequest};
use cpsim_des::{EventQueue, Model, SimTime, Simulation, Streams};
use cpsim_mgmt::{ControlPlane, ControlPlaneConfig, Emit, MgmtEvent, Operation, TaskReport};
use cpsim_workload::{GeneratedRequest, RequestGenerator, TraceLog};

use crate::{Digest, PlaneSpec};

/// Names of the [`MgmtEvent`] kinds, indexed by [`mgmt_kind`].
pub const MGMT_KINDS: [&str; 8] = [
    "submit",
    "cpu_done",
    "db_done",
    "agent_done",
    "transfer_tick",
    "heartbeat",
    "fault",
    "retry",
];

/// Index of `ev`'s kind in [`MGMT_KINDS`].
pub fn mgmt_kind(ev: &MgmtEvent) -> usize {
    match ev {
        MgmtEvent::Submit(_) => 0,
        MgmtEvent::CpuDone(_) => 1,
        MgmtEvent::DbDone(_) => 2,
        MgmtEvent::AgentDone { .. } => 3,
        MgmtEvent::TransferTick { .. } => 4,
        MgmtEvent::Heartbeat { .. } => 5,
        MgmtEvent::Fault(_) => 6,
        MgmtEvent::Retry { .. } => 7,
    }
}

/// One event in this many is timed; every call is counted. Reading the
/// clock around every call more than doubles a kernel-bound run, which
/// would swamp the split it is meant to show.
pub const SAMPLE_PERIOD: u64 = 8;

/// How an event is traced.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Counted only.
    Off,
    /// `Model::handle` is timed as a whole, with nothing timed inside it,
    /// so its span carries a single span's clock overhead.
    Outer,
    /// Every layer call inside `Model::handle` is timed.
    Inner,
}

/// How the `n`-th event is traced: half the sampled events are `Outer`,
/// half `Inner`. The choice is a fixed hash of the index, deterministic
/// yet never in step with a periodic event mix.
fn mode(n: u64) -> Mode {
    const _: () = assert!(SAMPLE_PERIOD == 8, "the hash below keeps 1 in 8");
    match n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60 {
        0 => Mode::Inner,
        1 => Mode::Outer,
        _ => Mode::Off,
    }
}

/// Host time of one kind of call: all calls are counted, those inside
/// sampled events are timed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Host nanoseconds inside the timed calls, clock reads included.
    pub ns: u64,
    /// Calls timed.
    pub timed: u64,
    /// Calls made.
    pub calls: u64,
}

impl Span {
    fn stop(&mut self, start: Option<Instant>) {
        self.calls += 1;
        if let Some(t0) = start {
            self.ns += t0.elapsed().as_nanos() as u64;
            self.timed += 1;
        }
    }

    /// Mean host ns of a timed call (0 if none was timed).
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.ns as f64 / self.timed as f64
        }
    }
}

/// What an empty span reads, in ns: the share of its two clock reads
/// that lands inside it. Every timed span overstates its call by this.
pub fn clock_overhead_ns() -> f64 {
    const N: u64 = 200_000;
    let mut span = Span::default();
    for _ in 0..N {
        let start = std::hint::black_box(Some(Instant::now()));
        span.stop(start);
    }
    span.mean_ns()
}

/// A layer's self time over all calls, and the clock overhead that was
/// taken out of it.
#[derive(Clone, Debug)]
pub struct SelfTime {
    /// Metric name, e.g. `des.schedule_ms`.
    pub name: String,
    /// Self time with the clock overhead subtracted, ms.
    pub ms: f64,
    /// Clock overhead inside the measured value, ms.
    pub overhead_ms: f64,
    /// Calls made.
    pub calls: u64,
}

/// Every span the traced driver records during `run_until`.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// `Simulation::run_until`, whole; every call timed.
    pub run: Span,
    /// From the end of a sampled `Model::handle` to the start of the next:
    /// the kernel's pop and loop.
    pub pop: Span,
    /// `Model::handle` bodies, whole (inner layer calls included), timed
    /// on `Outer` events only.
    pub model: Span,
    /// `EventQueue::schedule`.
    pub schedule: Span,
    /// `ControlPlane::handle`, per [`MGMT_KINDS`] entry.
    pub handle: [Span; 8],
    /// `ControlPlane::submit` of raw generated operations.
    pub submit: Span,
    /// `CloudDirector::submit` (includes the plane submits it makes).
    pub cloud_submit: Span,
    /// `CloudDirector::on_task_report` (includes the plane calls it makes).
    pub task_report: Span,
    /// `CloudDirector::on_lease_expiry` (includes the plane calls it makes).
    pub lease: Span,
    /// `RequestGenerator::generate` plus `next_arrival`.
    pub generate: Span,
}

impl LayerTimes {
    /// The layer calls made inside `Model::handle`, with metric names.
    fn inner(&self) -> Vec<(String, &Span)> {
        let mut v = vec![("des.schedule_ms".to_string(), &self.schedule)];
        for (name, span) in MGMT_KINDS.iter().zip(&self.handle) {
            v.push((format!("mgmt.handle_ms.{name}"), span));
        }
        v.extend([
            ("mgmt.submit_ms".to_string(), &self.submit),
            ("cloud.submit_ms".to_string(), &self.cloud_submit),
            ("cloud.task_report_ms".to_string(), &self.task_report),
            ("cloud.lease_ms".to_string(), &self.lease),
            ("workload.generate_ms".to_string(), &self.generate),
        ]);
        v
    }

    /// Self time of every layer: the mean of its timed calls, less the
    /// clock overhead `clock_ns` each timed span carries, over all calls.
    ///
    /// The glue (`core.dispatch_ms`) is `Model::handle` timed whole on
    /// `Outer` events less the layer calls inside it timed on `Inner`
    /// events, so the inner spans' clock reads never land in it.
    pub fn self_times(&self, clock_ns: f64) -> Vec<SelfTime> {
        let events = self.model.calls;
        let self_time = |name: &str, span: &Span, calls: u64| SelfTime {
            name: name.to_string(),
            ms: (span.mean_ns() - clock_ns).max(0.0) * calls as f64 / 1e6,
            overhead_ms: clock_ns * calls as f64 / 1e6,
            calls,
        };
        let inner: Vec<SelfTime> = self
            .inner()
            .into_iter()
            .map(|(name, span)| self_time(&name, span, span.calls))
            .collect();
        let mut dispatch = self_time("core.dispatch_ms", &self.model, events);
        dispatch.ms = (dispatch.ms - inner.iter().map(|s| s.ms).sum::<f64>()).max(0.0);
        let mut out = vec![self_time("des.pop_ms", &self.pop, events), dispatch];
        out.extend(inner);
        out
    }
}

/// Sampling state of the traced driver.
#[derive(Default)]
struct Tracer {
    /// Whether layer calls of the event being handled are timed.
    on: bool,
    /// Index of the next event.
    next: u64,
    /// End of the last sampled event, if the next one has not started.
    gap_from: Option<Instant>,
    times: LayerTimes,
}

impl Tracer {
    fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }
}

/// `CloudModel`'s state and routing, with every layer call counted and
/// those of sampled events timed.
struct TracedModel {
    plane: ControlPlane,
    director: CloudDirector,
    generator: Option<RequestGenerator>,
    trace: TraceLog,
    task_reports_kept: Vec<TaskReport>,
    keep_task_reports: bool,
    cloud_reports: Vec<CloudReport>,
    scratch: Vec<Emit>,
    route_buf: Vec<CloudOut>,
    tracer: Tracer,
}

fn schedule(tr: &mut Tracer, queue: &mut EventQueue<CoreEvent>, at: SimTime, ev: CoreEvent) {
    let t0 = tr.start();
    queue.schedule(at, ev);
    tr.times.schedule.stop(t0);
}

impl TracedModel {
    fn consume_emit(
        &mut self,
        now: SimTime,
        e: Emit,
        queue: &mut EventQueue<CoreEvent>,
    ) -> Option<CloudOut> {
        match e {
            Emit::At(t, ev) => {
                schedule(&mut self.tracer, queue, t, CoreEvent::Mgmt(ev));
                None
            }
            Emit::Done(_, r) | Emit::Failed(_, r) => {
                self.trace.push_task(&r);
                if self.keep_task_reports {
                    self.task_reports_kept.push(r.clone());
                }
                let t0 = self.tracer.start();
                let out = self.director.on_task_report(now, &r, &mut self.plane);
                self.tracer.times.task_report.stop(t0);
                Some(out)
            }
        }
    }

    fn route_stack(
        &mut self,
        now: SimTime,
        stack: &mut Vec<CloudOut>,
        queue: &mut EventQueue<CoreEvent>,
    ) {
        while let Some(o) = stack.pop() {
            self.cloud_reports.extend(o.reports);
            for (t, vapp) in o.leases {
                schedule(&mut self.tracer, queue, t, CoreEvent::Lease(vapp));
            }
            for e in o.mgmt {
                if let Some(child) = self.consume_emit(now, e, queue) {
                    stack.push(child);
                }
            }
        }
    }

    fn route(&mut self, now: SimTime, out: CloudOut, queue: &mut EventQueue<CoreEvent>) {
        let mut stack = std::mem::take(&mut self.route_buf);
        stack.push(out);
        self.route_stack(now, &mut stack, queue);
        self.route_buf = stack;
    }

    fn route_scratch(&mut self, now: SimTime, queue: &mut EventQueue<CoreEvent>) {
        let mut emits = std::mem::take(&mut self.scratch);
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

    fn submit_cloud(&mut self, now: SimTime, req: CloudRequest, queue: &mut EventQueue<CoreEvent>) {
        let t0 = self.tracer.start();
        let (_, out) = self.director.submit(now, req, &mut self.plane);
        self.tracer.times.cloud_submit.stop(t0);
        self.route(now, out, queue);
    }

    fn submit_op(&mut self, now: SimTime, op: Operation, queue: &mut EventQueue<CoreEvent>) {
        let mut emits = std::mem::take(&mut self.scratch);
        let t0 = self.tracer.start();
        self.plane.submit(now, op, &mut emits);
        self.tracer.times.submit.stop(t0);
        self.scratch = emits;
        self.route_scratch(now, queue);
    }
}

impl Model for TracedModel {
    type Event = CoreEvent;

    fn handle(&mut self, now: SimTime, event: CoreEvent, queue: &mut EventQueue<CoreEvent>) {
        let tr = &mut self.tracer;
        if let Some(exit) = tr.gap_from.take() {
            tr.times.pop.stop(Some(exit));
        }
        let mode = mode(tr.next);
        tr.next += 1;
        tr.on = mode == Mode::Inner;
        let entered = (mode == Mode::Outer).then(Instant::now);
        self.dispatch(now, event, queue);
        let tr = &mut self.tracer;
        tr.times.model.stop(entered);
        if mode != Mode::Off {
            tr.gap_from = Some(Instant::now());
        }
    }
}

impl TracedModel {
    fn dispatch(&mut self, now: SimTime, event: CoreEvent, queue: &mut EventQueue<CoreEvent>) {
        match event {
            CoreEvent::Mgmt(ev) => {
                let kind = mgmt_kind(&ev);
                let mut emits = std::mem::take(&mut self.scratch);
                let t0 = self.tracer.start();
                self.plane.handle(now, ev, &mut emits);
                self.tracer.times.handle[kind].stop(t0);
                self.scratch = emits;
                self.route_scratch(now, queue);
            }
            CoreEvent::Lease(vapp) => {
                let t0 = self.tracer.start();
                let out = self.director.on_lease_expiry(now, vapp, &mut self.plane);
                self.tracer.times.lease.stop(t0);
                self.route(now, out, queue);
            }
            CoreEvent::Arrival => {
                let Some(g) = self.generator.as_mut() else {
                    return;
                };
                let t0 = self.tracer.start();
                let request = g.generate(now, &self.director, &self.plane);
                let next = g.next_arrival(now);
                self.tracer.times.generate.stop(t0);
                if next < SimTime::MAX {
                    schedule(&mut self.tracer, queue, next, CoreEvent::Arrival);
                }
                match request {
                    Some(GeneratedRequest::Cloud(req)) => self.submit_cloud(now, req, queue),
                    Some(GeneratedRequest::Op(op)) => {
                        self.submit_op(now, Operation::new(op), queue)
                    }
                    None => {}
                }
            }
            CoreEvent::Request(req) => self.submit_cloud(now, req, queue),
            CoreEvent::Op(op) => self.submit_op(now, Operation::new(op), queue),
        }
    }
}

/// A single-plane simulation built and driven like
/// [`CloudSim`](cpsim::CloudSim), with its layer calls traced.
pub struct TracedSim {
    sim: Simulation<TracedModel>,
    org: cpsim::inventory::OrgId,
    templates: Vec<cpsim::inventory::VmId>,
}

impl TracedSim {
    /// Materializes `spec` exactly as `Scenario::build` does: the same
    /// RNG substreams, the same creation order, the same initial events.
    ///
    /// # Panics
    ///
    /// Panics on a topology with a pre-provisioned population, which no
    /// benchmark workload uses.
    pub fn build(spec: &PlaneSpec) -> TracedSim {
        let t = &spec.topology;
        assert_eq!(
            t.initial_vapps, 0,
            "pre-provisioned populations are not replayed"
        );
        let streams = Streams::new(spec.seed);
        let mut plane = ControlPlane::new(ControlPlaneConfig::default(), streams.substreams(1));
        let mut director = CloudDirector::new(spec.policy);
        let datastores: Vec<_> = (0..t.datastores)
            .map(|i| {
                plane.add_datastore(cpsim::inventory::DatastoreSpec::new(
                    format!("ds-{i:02}"),
                    t.ds_capacity_gb,
                    t.ds_bandwidth_mbps,
                ))
            })
            .collect();
        let hosts: Vec<_> = (0..t.hosts)
            .map(|i| {
                plane.add_host(cpsim::inventory::HostSpec::new(
                    format!("host-{i:03}"),
                    t.host_cpu_mhz,
                    t.host_mem_mb,
                ))
            })
            .collect();
        for &h in &hosts {
            for &d in &datastores {
                plane.connect(h, d).expect("fresh ids");
            }
        }
        let mut templates = Vec::new();
        for (i, (name, vcpus, mem_mb, disk_gb)) in t.templates.iter().enumerate() {
            let home_ds = datastores[i % datastores.len()];
            let spec = cpsim::inventory::VmSpec::new(*vcpus, *mem_mb, *disk_gb);
            let template = plane
                .install_template(name, spec, hosts[i % hosts.len()], home_ds)
                .expect("benchmark templates fit their datastores");
            if t.seed_templates_everywhere {
                for &ds in datastores.iter().filter(|&&ds| ds != home_ds) {
                    plane
                        .seed_template_now(template, ds)
                        .expect("benchmark templates fit every datastore");
                }
            }
            director.register_template(template);
            templates.push(template);
        }
        let org = director.create_org("default-org");
        let generator = spec
            .workload
            .clone()
            .map(|w| RequestGenerator::new(w, &streams.substreams(2), org, templates.clone()));

        let init = plane.init_events();
        let model = TracedModel {
            plane,
            director,
            generator,
            trace: TraceLog::new(),
            task_reports_kept: Vec::new(),
            keep_task_reports: spec.keep_task_reports,
            cloud_reports: Vec::new(),
            scratch: Vec::new(),
            route_buf: Vec::new(),
            tracer: Tracer::default(),
        };
        let mut sim = Simulation::new(model);
        for e in init {
            if let Emit::At(at, ev) = e {
                sim.schedule(at, CoreEvent::Mgmt(ev));
            }
        }
        let first = sim
            .model_mut()
            .generator
            .as_mut()
            .map_or(SimTime::MAX, |g| g.next_arrival(SimTime::ZERO));
        if first < SimTime::MAX {
            sim.schedule(first, CoreEvent::Arrival);
        }
        TracedSim {
            sim,
            org,
            templates,
        }
    }

    /// Schedules a cloud request at `at` (setup; not timed).
    pub fn schedule_request(&mut self, at: SimTime, req: CloudRequest) {
        self.sim.schedule(at, CoreEvent::Request(req));
    }

    /// Runs until `horizon`, timing the whole call.
    pub fn run_until(&mut self, horizon: SimTime) {
        let t0 = Instant::now();
        self.sim.run_until(horizon);
        let tr = &mut self.sim.model_mut().tracer;
        tr.gap_from = None;
        tr.times.run.stop(Some(t0));
    }

    /// The spans recorded so far.
    pub fn times(&self) -> &LayerTimes {
        &self.sim.model().tracer.times
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// The control plane.
    pub fn plane(&self) -> &ControlPlane {
        &self.sim.model().plane
    }

    /// The cloud director.
    pub fn director(&self) -> &CloudDirector {
        &self.sim.model().director
    }

    /// The workload generator, if any.
    pub fn generator(&self) -> Option<&RequestGenerator> {
        self.sim.model().generator.as_ref()
    }

    /// The operation trace collected so far.
    pub fn trace(&self) -> &TraceLog {
        &self.sim.model().trace
    }

    /// Completed cloud requests.
    pub fn cloud_reports(&self) -> &[CloudReport] {
        &self.sim.model().cloud_reports
    }

    /// The default org requests are attributed to.
    pub fn org(&self) -> cpsim::inventory::OrgId {
        self.org
    }

    /// Catalog templates, in creation order.
    pub fn templates(&self) -> &[cpsim::inventory::VmId] {
        &self.templates
    }

    /// The simulated outputs, comparable with an untraced run's.
    pub fn digest(&self) -> Digest {
        Digest::of_plane(
            self.events_processed(),
            self.trace().len(),
            self.plane(),
            self.cloud_reports(),
        )
    }
}

/// Builds a single-plane workload on the traced driver, exactly as
/// [`build_plane`](crate::build_plane) builds it on `CloudSim`.
pub fn build_traced(w: crate::Workload, seed: u64) -> TracedSim {
    let mut sim = TracedSim::build(&PlaneSpec::of(w, seed));
    if w == crate::Workload::StormLinked {
        let (org, template) = (sim.org(), sim.templates()[0]);
        for (at, req) in crate::storm_requests(org, template) {
            sim.schedule_request(at, req);
        }
    }
    sim
}
