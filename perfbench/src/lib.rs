//! The cpsim benchmark: four workloads built through the simulator's
//! public API, the exact simulated outputs each run is checked against,
//! (in [`traced`]) an instrumented single-plane driver that splits host
//! time across the layers, and (in [`reference`]) the kernel that puts
//! host time on a fixed scale.
//!
//! Every workload is a pure function of its seed: the same seed builds
//! the same scenario and yields the same [`Digest`].

pub mod reference;
pub mod traced;

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use cpsim::{CloudSim, Scenario};
use cpsim_cloud::{CloudReport, CloudRequest, ProvisioningPolicy};
use cpsim_des::{FxHasher, SimDuration, SimTime};
use cpsim_federation::{FedScenario, FedSim, FedTopology, Router, RouterPolicy};
use cpsim_mgmt::{CloneMode, ControlPlane, ControlPlaneConfig, RecoveryPolicy};
use cpsim_workload::{cloud_b, Topology, WorkloadSpec};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cloud B profile for a simulated week, driven by its generator.
    SteadyWeek,
    /// Open-loop linked-clone storm at the F5 overload point.
    StormLinked,
    /// Four federated shards contending for a shared pool, sequential.
    FedContended,
    /// The same inputs as `FedContended` on parallel shard executors.
    FedThreaded,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SteadyWeek,
        Workload::StormLinked,
        Workload::FedContended,
        Workload::FedThreaded,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyWeek => "steady_week",
            Workload::StormLinked => "storm_linked",
            Workload::FedContended => "fed_contended",
            Workload::FedThreaded => "fed_threaded",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs a federation rather than a single plane.
    pub fn is_federated(self) -> bool {
        matches!(self, Workload::FedContended | Workload::FedThreaded)
    }

    /// The workload whose recorded outputs this one must reproduce:
    /// `fed_threaded` must match `fed_contended` op for op.
    pub fn oracle(self) -> Workload {
        match self {
            Workload::FedThreaded => Workload::FedContended,
            w => w,
        }
    }
}

/// Simulated days in `steady_week`.
pub const STEADY_DAYS: u64 = 5;

/// Offered rate of `storm_linked`, VMs per hour: the F5 overload point.
pub const STORM_VMS_PER_HOUR: f64 = 57_600.0;

/// Simulated length of `storm_linked`.
pub const STORM_MINUTES: u64 = 30;

/// Shards in the federated workloads.
pub const FED_SHARDS: usize = 4;

/// Closed-loop population per shard (the full-scale F13 figure).
pub const FED_CLIENTS_PER_SHARD: u32 = 48;

/// Simulated length of the federated workloads.
pub const FED_MINUTES: u64 = 30;

/// Shard executors of `fed_threaded`, capped at the core count by
/// [`fed_executors`].
pub const FED_EXECUTORS: usize = 2;

/// Host-side reaction period of the federated closed loop.
pub const FED_SLICE: SimDuration = SimDuration::from_secs(15);

/// Clone delta of the federated workloads: coarse, so a stale mirror
/// overshoots the shared pool by whole slots (as in F13).
const FED_DELTA_GB: f64 = 4.0;

/// The simulated horizon a single-plane workload runs to.
pub fn plane_horizon(w: Workload) -> SimTime {
    match w {
        Workload::SteadyWeek => SimTime::from_hours(24 * STEADY_DAYS),
        Workload::StormLinked => SimTime::ZERO + SimDuration::from_mins(STORM_MINUTES),
        _ => panic!("{} is not a single-plane workload", w.name()),
    }
}

/// The 16-host, fully seeded topology of the load experiments: linked
/// clones are pure control-plane work on it.
pub fn storm_topology() -> Topology {
    Topology {
        hosts: 16,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        datastores: 8,
        ds_capacity_gb: 16_384.0,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("load-template".into(), 2, 2_048, 20.0)],
        seed_templates_everywhere: true,
        initial_vapps: 0,
        initial_vapp_size: 0,
    }
}

/// Provisioning policy of the load experiments: linked clones, fencing
/// on, power-on off.
pub fn storm_policy() -> ProvisioningPolicy {
    ProvisioningPolicy {
        mode: CloneMode::Linked,
        fencing: true,
        power_on: false,
        ..Default::default()
    }
}

/// What a single-plane scenario is built from. The untraced run hands
/// it to [`Scenario`]; the traced driver materializes it by hand.
pub struct PlaneSpec {
    /// Master seed.
    pub seed: u64,
    /// Hosts, datastores and templates.
    pub topology: Topology,
    /// Open workload generator, if any.
    pub workload: Option<WorkloadSpec>,
    /// Provisioning policy of the director.
    pub policy: ProvisioningPolicy,
    /// Whether full task reports are retained (the storm keeps them).
    pub keep_task_reports: bool,
}

impl PlaneSpec {
    /// The scenario of a single-plane workload.
    pub fn of(w: Workload, seed: u64) -> PlaneSpec {
        match w {
            Workload::SteadyWeek => {
                let profile = cloud_b();
                PlaneSpec {
                    seed,
                    topology: profile.topology,
                    workload: Some(profile.workload),
                    policy: ProvisioningPolicy::default(),
                    keep_task_reports: false,
                }
            }
            Workload::StormLinked => PlaneSpec {
                seed,
                topology: storm_topology(),
                workload: None,
                policy: storm_policy(),
                keep_task_reports: true,
            },
            _ => panic!("{} is not a single-plane workload", w.name()),
        }
    }

    /// Builds the simulation through [`Scenario`].
    pub fn build(&self) -> CloudSim {
        let mut sim = Scenario::bare(self.topology.clone())
            .workload(self.workload.clone())
            .seed(self.seed)
            .policy(self.policy)
            .build();
        sim.keep_task_reports(self.keep_task_reports);
        sim
    }
}

/// The open-loop storm: one single-VM linked instantiate every
/// `3600 / STORM_VMS_PER_HOUR` seconds from t = 1 s until the horizon.
pub fn storm_requests(
    org: cpsim::inventory::OrgId,
    template: cpsim::inventory::VmId,
) -> impl Iterator<Item = (SimTime, CloudRequest)> {
    let interval = SimDuration::from_secs_f64(3_600.0 / STORM_VMS_PER_HOUR);
    let end = SimTime::ZERO + SimDuration::from_mins(STORM_MINUTES);
    let request = CloudRequest::InstantiateVapp {
        org,
        template,
        count: 1,
        mode: Some(CloneMode::Linked),
        lease: None,
    };
    std::iter::successors(Some(SimTime::from_secs(1)), move |&t| Some(t + interval))
        .take_while(move |&t| t < end)
        .map(move |t| (t, request.clone()))
}

/// Builds a single-plane workload, pre-scheduling the storm if any: the
/// set-up `setup_s` times.
pub fn build_plane(w: Workload, seed: u64) -> CloudSim {
    let mut sim = PlaneSpec::of(w, seed).build();
    if w == Workload::StormLinked {
        let (org, template) = (sim.org(), sim.templates()[0]);
        for (at, req) in storm_requests(org, template) {
            sim.schedule_request(at, req);
        }
    }
    sim
}

/// The simulated outputs a run is checked against, exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Events the kernel processed.
    pub events: u64,
    /// Operation trace records collected.
    pub trace_len: usize,
    /// Completed cloud requests.
    pub requests: usize,
    /// Order-sensitive hash of every cloud report.
    pub reports_hash: u64,
    /// Admission park events.
    pub parked: u64,
    /// Shared-pool commits, conflicts and syncs (zero on a single plane).
    pub store: [u64; 3],
    /// Per task kind: `(kind, completed, failed)`, sorted by kind.
    pub kinds: Vec<(&'static str, u64, u64)>,
}

impl Digest {
    fn new<'a>(
        events: u64,
        trace_len: usize,
        planes: impl IntoIterator<Item = &'a ControlPlane>,
        reports: impl IntoIterator<Item = &'a CloudReport>,
        store: [u64; 3],
    ) -> Digest {
        let mut kinds: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut parked = 0;
        for plane in planes {
            parked += plane.admission().parked_total();
            for (kind, ks) in plane.stats().kinds() {
                let e = kinds.entry(kind).or_default();
                e.0 += ks.completed;
                e.1 += ks.failed;
            }
        }
        // FxHash over explicit integer writes: unlike std's default
        // hasher its output is fixed, so recorded digests stay valid
        // across toolchains.
        let mut h = FxHasher::default();
        let mut requests = 0;
        for r in reports {
            requests += 1;
            h.write(r.kind.as_bytes());
            h.write_u64(r.workflow);
            h.write_u64(r.submitted_at.as_micros());
            h.write_u64(r.completed_at.as_micros());
            h.write_u32(r.ops_issued);
            h.write_u32(r.ops_failed);
            r.vapp.hash(&mut h);
        }
        Digest {
            events,
            trace_len,
            requests,
            reports_hash: h.finish(),
            parked,
            store,
            kinds: kinds.into_iter().map(|(k, (c, f))| (k, c, f)).collect(),
        }
    }

    /// The digest of a single-plane simulation.
    pub fn of_plane(
        events: u64,
        trace_len: usize,
        plane: &ControlPlane,
        reports: &[CloudReport],
    ) -> Digest {
        Digest::new(events, trace_len, [plane], reports, [0; 3])
    }

    /// The digest of a [`CloudSim`].
    pub fn of_cloud_sim(sim: &CloudSim) -> Digest {
        Digest::of_plane(
            sim.events_processed(),
            sim.trace().len(),
            sim.plane(),
            sim.cloud_reports(),
        )
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events={} trace={} requests={} reports={:016x} parked={} commits={} conflicts={} syncs={} kinds=",
            self.events,
            self.trace_len,
            self.requests,
            self.reports_hash,
            self.parked,
            self.store[0],
            self.store[1],
            self.store[2],
        )?;
        for (i, (kind, c, fl)) in self.kinds.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep}{kind}:{c}/{fl}")?;
        }
        Ok(())
    }
}

/// Conservation checks on a finished plane: every submitted task has
/// completed, failed or is still in flight, and the admission backlog
/// holds no more tasks than are in flight.
pub fn check_plane(plane: &ControlPlane) -> Result<(), String> {
    let s = plane.stats();
    let in_flight = plane.tasks_in_flight() as u64;
    if s.submitted() != s.completed() + s.failed() + in_flight {
        return Err(format!(
            "task conservation: submitted {} != completed {} + failed {} + in flight {}",
            s.submitted(),
            s.completed(),
            s.failed(),
            in_flight
        ));
    }
    let pending = plane.admission().pending_len() as u64;
    if pending > in_flight {
        return Err(format!(
            "admission holds {pending} parked tasks but only {in_flight} are in flight"
        ));
    }
    Ok(())
}

/// The F13 contended federation: home storage nearly exhausted by the
/// template base, so almost every placement spills onto a shared pool
/// sized for one shard's demand, which `FED_SHARDS` shards oversubscribe.
pub fn fed_topology() -> FedTopology {
    let per = (8 / FED_SHARDS).max(1) as u32;
    let pool_free_gb = f64::from(FED_CLIENTS_PER_SHARD) * FED_DELTA_GB * 2.0;
    FedTopology {
        shards: FED_SHARDS,
        home_hosts_per_shard: per,
        home_ds_per_shard: per,
        home_ds_capacity_gb: 24.0,
        shared_hosts: 4,
        shared_ds: 2,
        shared_ds_capacity_gb: pool_free_gb / 2.0 + 20.0 * FED_SHARDS as f64,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("fed-template".into(), 2, 2_048, 20.0)],
        initial_vms_per_shard: Vec::new(),
        initial_vm_disk_gb: 4.0,
    }
}

/// A federated closed loop: `FED_CLIENTS_PER_SHARD` single-VM linked
/// instantiates outstanding per shard; after every `FED_SLICE` each
/// completed instantiate is deleted and reissued on the least-loaded
/// shard. The loop is the user of the federation, so its host time is
/// part of `wall_s`.
pub struct FedLoop {
    sim: FedSim,
    router: Router,
    handled: Vec<usize>,
    end: SimTime,
}

impl FedLoop {
    /// Builds the federation and submits the initial burst, round-robin.
    pub fn build(seed: u64, executors: usize) -> FedLoop {
        let recovery = RecoveryPolicy {
            max_retries: 6,
            backoff_base: SimDuration::from_secs(3),
            backoff_factor: 1.5,
            backoff_max: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut sim = FedScenario::new(fed_topology())
            .seed(seed)
            .config(ControlPlaneConfig {
                linked_delta_gb: FED_DELTA_GB,
                ..Default::default()
            })
            .policy(ProvisioningPolicy::default())
            .recovery(recovery)
            .staleness(SimDuration::from_secs(10))
            .build();
        sim.set_intra_jobs(executors);
        let n = FED_CLIENTS_PER_SHARD * FED_SHARDS as u32;
        for i in 0..n {
            submit_instantiate(
                &mut sim,
                SimTime::from_micros(u64::from(i) + 1),
                i as usize % FED_SHARDS,
            );
        }
        FedLoop {
            sim,
            router: Router::new(RouterPolicy::LeastLoaded),
            handled: vec![0; FED_SHARDS],
            end: SimTime::ZERO + SimDuration::from_mins(FED_MINUTES),
        }
    }

    /// Runs one slice and closes the loop; `false` once the horizon is
    /// reached.
    pub fn step(&mut self) -> bool {
        if self.sim.now() >= self.end {
            return false;
        }
        self.sim.run_for(FED_SLICE);
        let now = self.sim.now();
        for s in 0..FED_SHARDS {
            let fresh: Vec<_> = self.sim.cloud_reports(s)[self.handled[s]..]
                .iter()
                .filter(|r| r.kind == "instantiate-vapp")
                .map(|r| r.vapp)
                .collect();
            self.handled[s] = self.sim.cloud_reports(s).len();
            for vapp in fresh {
                if let Some(vapp) = vapp {
                    self.sim
                        .schedule_request(now, s, CloudRequest::DeleteVapp { vapp });
                }
                let dst = self.router.pick(&self.sim.shard_loads(), 0);
                submit_instantiate(&mut self.sim, now, dst);
            }
        }
        true
    }

    /// Runs to the horizon.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// The federation.
    pub fn sim(&self) -> &FedSim {
        &self.sim
    }

    /// The simulated outputs, summed over shards in shard order.
    pub fn digest(&self) -> Digest {
        let sim = &self.sim;
        let shards = 0..sim.shard_count();
        let st = sim.store_stats();
        Digest::new(
            sim.events_processed(),
            shards.clone().map(|s| sim.trace(s).len()).sum(),
            shards.clone().map(|s| sim.plane(s)),
            shards.flat_map(|s| sim.cloud_reports(s)),
            [st.commits, st.conflicts, st.syncs],
        )
    }

    /// Conservation checks on every shard plus the store's own ledger
    /// invariants.
    pub fn check(&self) -> Result<(), String> {
        for s in 0..self.sim.shard_count() {
            check_plane(self.sim.plane(s)).map_err(|e| format!("shard {s}: {e}"))?;
        }
        self.sim.check_store_invariants()
    }
}

fn submit_instantiate(sim: &mut FedSim, at: SimTime, s: usize) {
    let req = CloudRequest::InstantiateVapp {
        org: sim.org(s),
        template: sim.templates(s)[0],
        count: 1,
        mode: Some(CloneMode::Linked),
        lease: None,
    };
    sim.schedule_request(at, s, req);
}

/// Shard executors a federated workload runs on: `fed_threaded` asks for
/// `FED_EXECUTORS` but never more threads than the host has cores.
pub fn fed_executors(w: Workload, nproc: usize) -> usize {
    match w {
        Workload::FedThreaded => FED_EXECUTORS.min(nproc).max(1),
        _ => 1,
    }
}

/// Outputs recorded for the default and the held-out seed, one line per
/// `(workload, seed)`: `<workload> <seed> <digest>`.
pub const EXPECTED: &str = include_str!("../expected.txt");

/// The recorded digest of `w` at `seed`, if that seed was recorded.
pub fn expected(w: Workload, seed: u64) -> Option<&'static str> {
    let key = w.oracle().name();
    EXPECTED.lines().find_map(|line| {
        let mut parts = line.splitn(3, ' ');
        let (name, s, digest) = (parts.next()?, parts.next()?, parts.next()?);
        (name == key && s.parse() == Ok(seed)).then_some(digest)
    })
}
