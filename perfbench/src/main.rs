//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cpsim-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cpsim-perfbench digest <workload> <seed>
//! ```
//!
//! With `--trace 0` it repeats the workload (build, then run to its fixed
//! simulated horizon) for `--seconds` and reports the end-to-end metrics
//! as medians over the repetitions, each scaled by the reference kernel
//! timed right before it. With `--trace 1` it alternates untraced and
//! traced repetitions and reports the per-layer metrics.
//! Every repetition's simulated outputs are checked; the last stdout line
//! is the result object, the line before it the full record. `digest`
//! prints a line of `expected.txt`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cpsim_perfbench::reference::{reference_seconds, REFERENCE_NOMINAL_S};
use cpsim_perfbench::traced::{
    build_traced, clock_overhead_ns, SelfTime, MGMT_KINDS, SAMPLE_PERIOD,
};
use cpsim_perfbench::{
    build_plane, check_plane, expected, fed_executors, plane_horizon, Digest, FedLoop, Workload,
};

/// Repetitions measured even when one outlasts `--seconds`.
const MIN_SAMPLES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("digest") {
        let w = argv.get(1).and_then(|n| Workload::parse(n));
        let seed = argv.get(2).and_then(|s| s.parse().ok());
        let (Some(w), Some(seed)) = (w, seed) else {
            eprintln!("usage: cpsim-perfbench digest <workload> <seed>");
            std::process::exit(2);
        };
        let digest = match run_once(w, seed, fed_executors(w, nproc())).1 {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        println!("{} {seed} {digest}", w.oracle().name());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpsim-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut bench = Bench::new(&args);
    let (metrics, details) = if args.trace {
        bench.traced()
    } else {
        bench.untraced()
    };
    bench.finish(&args, metrics, details);
}

/// Scenario builds per repetition; `setup_s` is their median over all
/// repetitions, since one build takes well under a millisecond.
const SETUP_BUILDS: usize = 5;

/// Host cost of one repetition.
#[derive(Clone, Debug)]
struct Sample {
    setup_s: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
}

impl Sample {
    /// The sample with every time multiplied by `factor`.
    fn scaled(&self, factor: f64) -> Sample {
        Sample {
            setup_s: self.setup_s.iter().map(|s| s * factor).collect(),
            wall_s: self.wall_s * factor,
            cpu_s: self.cpu_s * factor,
        }
    }
}

/// Builds the scenario `SETUP_BUILDS` times, timing each build, and
/// keeps the last one.
fn build_timed<T>(build: impl Fn() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut built = None;
    for _ in 0..SETUP_BUILDS {
        let t0 = Instant::now();
        let b = build();
        times.push(t0.elapsed().as_secs_f64());
        built = Some(b);
    }
    (built.expect("SETUP_BUILDS is positive"), times)
}

/// Builds and runs `w` once. The outputs are an error when a
/// conservation check fails.
fn run_once(w: Workload, seed: u64, executors: usize) -> (Sample, Result<Digest, String>) {
    if w.is_federated() {
        let (mut lp, setup_s) = build_timed(|| FedLoop::build(seed, executors));
        let (c0, t0) = (cpu_seconds(), Instant::now());
        lp.run();
        let sample = Sample {
            setup_s,
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - c0,
        };
        (sample, lp.check().map(|()| lp.digest()))
    } else {
        let (mut sim, setup_s) = build_timed(|| build_plane(w, seed));
        let (c0, t0) = (cpu_seconds(), Instant::now());
        sim.run_until(plane_horizon(w));
        let sample = Sample {
            setup_s,
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - c0,
        };
        (
            sample,
            check_plane(sim.plane()).map(|()| Digest::of_cloud_sim(&sim)),
        )
    }
}

/// One metric of the result object.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The state of one benchmark run: what was attempted, what failed, and
/// the outputs every repetition must reproduce.
struct Bench {
    workload: Workload,
    seed: u64,
    seconds: f64,
    executors: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reference: Option<Digest>,
}

impl Bench {
    fn new(args: &Args) -> Bench {
        Bench {
            workload: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            executors: fed_executors(args.workload, nproc()),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            reference: None,
        }
    }

    /// Counts one checked operation: `outputs` must be `Ok` and equal to
    /// the run's reference outputs (the first repetition's).
    fn check(&mut self, what: &str, outputs: Result<Digest, String>) -> bool {
        self.attempted += 1;
        let err = match outputs {
            Ok(d) => match &self.reference {
                None => {
                    self.reference = Some(d);
                    None
                }
                Some(r) if *r == d => None,
                Some(r) => Some(format!("outputs differ\n  expected {r}\n  got      {d}")),
            },
            Err(e) => Some(e),
        };
        match err {
            None => true,
            Some(e) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                false
            }
        }
    }

    /// Runs `f` as one checked operation; `None` if it panicked or its
    /// outputs failed the check.
    fn checked<T>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> (T, Result<Digest, String>),
    ) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok((t, outputs)) => self.check(what, outputs).then_some(t),
            Err(_) => {
                self.check(what, Err("panicked".into()));
                None
            }
        }
    }

    /// One untraced repetition, checked.
    fn repetition(&mut self, what: &str) -> Option<Sample> {
        let (w, seed, executors) = (self.workload, self.seed, self.executors);
        self.checked(what, || run_once(w, seed, executors))
    }

    /// The checks made once per run, outside the measured repetitions:
    /// the recorded outputs for this seed, and the same inputs through a
    /// second driver (the traced driver for a single plane, the other
    /// executor count for a federation).
    fn cross_check(&mut self) {
        let (w, seed) = (self.workload, self.seed);
        if let (Some(want), Some(got)) = (expected(w, seed), &self.reference) {
            self.attempted += 1;
            if got.to_string() != want {
                self.failed += 1;
                self.errors.push(format!(
                    "recorded outputs for seed {seed} differ\n  expected {want}\n  got      {got}"
                ));
            }
        }
        if w.is_federated() {
            let other = match w {
                Workload::FedThreaded => 1,
                _ => fed_executors(Workload::FedThreaded, nproc()),
            };
            self.checked(&format!("{other} shard executors"), || {
                let mut lp = FedLoop::build(seed, other);
                lp.run();
                ((), lp.check().map(|()| lp.digest()))
            });
        } else {
            self.checked("traced driver", || {
                let mut sim = build_traced(w, seed);
                sim.run_until(plane_horizon(w));
                ((), check_plane(sim.plane()).map(|()| sim.digest()))
            });
        }
    }

    /// Repeat until `--seconds` have passed, and beyond that until
    /// `MIN_SAMPLES` repetitions are in, unless one has failed.
    fn keep_going(&self, start: Instant, samples: usize) -> bool {
        start.elapsed().as_secs_f64() < self.seconds || (samples < MIN_SAMPLES && self.failed == 0)
    }

    /// End-to-end metrics: medians of untraced repetitions, each scaled
    /// by the reference kernel timed right before it.
    fn untraced(&mut self) -> (Vec<Metric>, String) {
        // The first repetition warms caches and the allocator; it is
        // checked but not timed. The memory high-water mark is read right
        // after it: one build and run in a fresh process, before later
        // repetitions or the reference kernel add allocator history.
        self.repetition("warm-up");
        let peak_rss_mb = peak_rss_mb();
        // The reference kernel's first run warms it, like the workload's.
        reference_seconds();
        let start = Instant::now();
        let (mut samples, mut raw, mut references) = (Vec::new(), Vec::new(), Vec::new());
        let mut rep = 0;
        while self.keep_going(start, samples.len()) {
            rep += 1;
            let reference = reference_seconds();
            if let Some(s) = self.repetition(&format!("repetition {rep}")) {
                samples.push(s.scaled(REFERENCE_NOMINAL_S / reference));
                raw.push(s);
                references.push(reference);
            }
        }
        self.cross_check();
        let stats = |v: &[Sample]| {
            (
                Stat::of(v.iter().map(|s| s.wall_s).collect()),
                Stat::of(v.iter().flat_map(|s| s.setup_s.clone()).collect()),
                Stat::of(v.iter().map(|s| s.cpu_s).collect()),
            )
        };
        let (wall, setup, cpu) = stats(&samples);
        let (raw_wall, raw_setup, raw_cpu) = stats(&raw);
        let details = format!(
            "\"samples\": {}, \"setup_samples\": {}, \"wall_s\": {}, \"setup_s\": {}, \"cpu_s\": {}, \"reference_nominal_s\": {REFERENCE_NOMINAL_S}, \"reference_s\": {}, \"unscaled\": {{\"wall_s\": {}, \"setup_s\": {}, \"cpu_s\": {}}}",
            samples.len(),
            samples.len() * SETUP_BUILDS,
            wall.json(),
            setup.json(),
            cpu.json(),
            Stat::of(references).json(),
            raw_wall.json(),
            raw_setup.json(),
            raw_cpu.json()
        );
        let metrics = vec![
            metric("wall_s", wall.median, "s"),
            metric("setup_s", setup.median, "s"),
            metric("cpu_s", cpu.median, "s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ];
        (metrics, details)
    }

    /// Per-layer metrics: untraced and traced repetitions alternate, so
    /// the tracing overhead is measured under the same conditions.
    fn traced(&mut self) -> (Vec<Metric>, String) {
        self.repetition("warm-up");
        let clock_ns = clock_overhead_ns();
        let start = Instant::now();
        let mut untraced = Vec::new();
        let mut traced: Vec<Traced> = Vec::new();
        let mut rep = 0;
        while self.keep_going(start, traced.len()) {
            rep += 1;
            if let Some(s) = self.repetition(&format!("untraced repetition {rep}")) {
                untraced.push(s.wall_s);
            }
            let (w, seed, executors) = (self.workload, self.seed, self.executors);
            let what = format!("traced repetition {rep}");
            if let Some(t) = self.checked(&what, || run_traced(w, seed, executors, clock_ns)) {
                traced.push(t);
            }
        }
        self.cross_check();
        if traced.is_empty() {
            return (Vec::new(), "\"samples\": 0".into());
        }
        let untraced = Stat::of(untraced);
        let layers = Layers::median(&traced);
        let overhead_ms = (layers.wall_s - untraced.median) * 1e3;
        let mut metrics = layers.metrics();
        metrics.push(metric("trace.overhead_ms", overhead_ms, "ms"));
        let details = format!(
            "\"samples\": {}, \"sample_period\": {SAMPLE_PERIOD}, \"untraced_wall_s\": {}, \"traced_wall_s\": {}, \"clock_overhead_ns\": {}, \"self_times\": {}",
            traced.len(),
            untraced.json(),
            layers.wall_s,
            clock_ns,
            layers.self_times_json()
        );
        (metrics, details)
    }

    fn finish(&self, args: &Args, metrics: Vec<Metric>, details: String) {
        for e in &self.errors {
            eprintln!("cpsim-perfbench: {e}");
        }
        let correct = self.failed == 0 && self.attempted > 0 && !metrics.is_empty();
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        let metrics = format!("{{{}}}", body.join(", "));
        println!(
            "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"executors\": {}, {}, \"outputs\": \"{}\", {}}}}}",
            self.workload.name(),
            self.seed,
            args.seconds,
            u8::from(args.trace),
            self.executors,
            stamps(),
            self.reference.as_ref().map(ToString::to_string).unwrap_or_default(),
            details
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.attempted, self.failed
        );
    }
}

/// Median and quartiles of a set of measurements.
struct Stat {
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

impl Stat {
    fn of(mut v: Vec<f64>) -> Stat {
        v.sort_by(f64::total_cmp);
        let q = |p: f64| {
            if v.is_empty() {
                return 0.0;
            }
            let x = p * (v.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        Stat {
            median: q(0.5),
            q1: q(0.25),
            q3: q(0.75),
            min: q(0.0),
            max: q(1.0),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}}}",
            self.median, self.q1, self.q3, self.min, self.max
        )
    }
}

/// What one traced repetition measured.
struct Traced {
    wall_s: f64,
    /// Per-layer self times (single plane only; a federation's shards are
    /// opaque from outside).
    self_times: Vec<SelfTime>,
    /// Host ms per `FedSim::run_for` slice (federation only).
    slice_ms: f64,
    counts: Counts,
}

/// Exact counts of one repetition.
#[derive(Clone, Copy, Default)]
struct Counts {
    events: u64,
    schedule_calls: u64,
    task_reports: u64,
    parked: u64,
    peak_pending: u64,
    completed: u64,
    failed: u64,
    retries: u64,
    cpu_util: f64,
    db_util: f64,
    cloud_submits: u64,
    requests_completed: u64,
    arrivals: u64,
    skipped: u64,
    store: cpsim_federation::StoreStats,
}

fn run_traced(
    w: Workload,
    seed: u64,
    executors: usize,
    clock_ns: f64,
) -> (Traced, Result<Digest, String>) {
    if w.is_federated() {
        let mut lp = FedLoop::build(seed, executors);
        let (mut slice_ns, mut slices) = (0, 0);
        let t0 = Instant::now();
        loop {
            let s0 = Instant::now();
            if !lp.step() {
                break;
            }
            slice_ns += s0.elapsed().as_nanos();
            slices += 1;
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let sim = lp.sim();
        let now = sim.now();
        let shards = sim.shard_count();
        let mut c = Counts {
            events: sim.events_processed(),
            store: sim.store_stats(),
            ..Counts::default()
        };
        for s in 0..shards {
            let p = sim.plane(s);
            c.parked += p.admission().parked_total();
            c.peak_pending = c.peak_pending.max(p.admission().peak_pending() as u64);
            c.completed += p.stats().completed();
            c.failed += p.stats().failed();
            c.retries += p.stats().retries();
            c.cpu_util += p.cpu_utilization(now) / shards as f64;
            c.db_util += p.db_utilization(now) / shards as f64;
            c.cloud_submits += sim.director(s).stats().submitted();
            c.requests_completed += sim.cloud_reports(s).len() as u64;
        }
        let traced = Traced {
            wall_s,
            self_times: Vec::new(),
            slice_ms: slice_ns as f64 / 1e6 / f64::from(slices.max(1)),
            counts: c,
        };
        (traced, lp.check().map(|()| lp.digest()))
    } else {
        let mut sim = build_traced(w, seed);
        sim.run_until(plane_horizon(w));
        let times = sim.times();
        let p = sim.plane();
        let now = plane_horizon(w);
        let c = Counts {
            events: sim.events_processed(),
            schedule_calls: times.schedule.calls,
            task_reports: times.task_report.calls,
            parked: p.admission().parked_total(),
            peak_pending: p.admission().peak_pending() as u64,
            completed: p.stats().completed(),
            failed: p.stats().failed(),
            retries: p.stats().retries(),
            cpu_util: p.cpu_utilization(now),
            db_util: p.db_utilization(now),
            cloud_submits: sim.director().stats().submitted(),
            requests_completed: sim.cloud_reports().len() as u64,
            arrivals: sim.generator().map_or(0, |g| g.generated()),
            skipped: sim.generator().map_or(0, |g| g.skipped()),
            store: Default::default(),
        };
        let traced = Traced {
            wall_s: times.run.ns as f64 / 1e9,
            self_times: times.self_times(clock_ns),
            slice_ms: 0.0,
            counts: c,
        };
        (traced, check_plane(sim.plane()).map(|()| sim.digest()))
    }
}

/// Per-layer results of a traced run: medians of the times over the
/// traced repetitions; counts from the first (all repetitions produced
/// the same outputs).
struct Layers {
    wall_s: f64,
    self_times: Vec<SelfTime>,
    slice_ms: f64,
    counts: Counts,
}

impl Layers {
    fn median(runs: &[Traced]) -> Layers {
        let med = |f: &dyn Fn(&Traced) -> f64| Stat::of(runs.iter().map(f).collect()).median;
        let first = &runs[0];
        let self_times = (0..first.self_times.len())
            .map(|i| SelfTime {
                ms: med(&|r: &Traced| r.self_times[i].ms),
                overhead_ms: med(&|r: &Traced| r.self_times[i].overhead_ms),
                ..first.self_times[i].clone()
            })
            .collect();
        Layers {
            wall_s: med(&|r: &Traced| r.wall_s),
            self_times,
            slice_ms: med(&|r: &Traced| r.slice_ms),
            counts: first.counts,
        }
    }

    fn self_time(&self, name: &str) -> Option<&SelfTime> {
        self.self_times.iter().find(|s| s.name == name)
    }

    fn metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let ms = |name: &str| self.self_time(name).map_or(0.0, |s| s.ms);
        let mut m = vec![
            metric("des.events", c.events as f64, "count"),
            metric("des.events_per_s", c.events as f64 / self.wall_s, "1/s"),
            metric("des.schedule_calls", c.schedule_calls as f64, "count"),
            metric("des.schedule_ms", ms("des.schedule_ms"), "ms"),
            metric("des.pop_ms", ms("des.pop_ms"), "ms"),
            metric("core.dispatch_ms", ms("core.dispatch_ms"), "ms"),
        ];
        for name in MGMT_KINDS {
            let key = format!("mgmt.handle_ms.{name}");
            m.push(metric(key.clone(), ms(&key), "ms"));
        }
        for name in MGMT_KINDS {
            let calls = self
                .self_time(&format!("mgmt.handle_ms.{name}"))
                .map_or(0, |s| s.calls);
            m.push(metric(
                format!("mgmt.handle_calls.{name}"),
                calls as f64,
                "count",
            ));
        }
        let st = c.store;
        let attempts = st.commits + st.conflicts;
        m.extend([
            metric("mgmt.submit_ms", ms("mgmt.submit_ms"), "ms"),
            metric("mgmt.admission_parked", c.parked as f64, "count"),
            metric(
                "mgmt.admission_peak_pending",
                c.peak_pending as f64,
                "count",
            ),
            metric("mgmt.tasks_completed", c.completed as f64, "count"),
            metric("mgmt.tasks_failed", c.failed as f64, "count"),
            metric("mgmt.retries", c.retries as f64, "count"),
            metric("mgmt.cpu_util", c.cpu_util, "ratio"),
            metric("mgmt.db_util", c.db_util, "ratio"),
            metric("cloud.submit_ms", ms("cloud.submit_ms"), "ms"),
            metric("cloud.submit_calls", c.cloud_submits as f64, "count"),
            metric("cloud.task_report_ms", ms("cloud.task_report_ms"), "ms"),
            metric("cloud.task_reports", c.task_reports as f64, "count"),
            metric("cloud.lease_ms", ms("cloud.lease_ms"), "ms"),
            metric(
                "cloud.requests_completed",
                c.requests_completed as f64,
                "count",
            ),
            metric("workload.generate_ms", ms("workload.generate_ms"), "ms"),
            metric("workload.arrivals", c.arrivals as f64, "count"),
            metric("workload.skipped", c.skipped as f64, "count"),
            metric("federation.store_commits", st.commits as f64, "count"),
            metric("federation.store_conflicts", st.conflicts as f64, "count"),
            metric("federation.store_syncs", st.syncs as f64, "count"),
            metric("federation.store_releases", st.releases as f64, "count"),
            // Useful commits per attempt; 1 when nothing was attempted.
            metric(
                "federation.commit_success_ratio",
                if attempts == 0 {
                    1.0
                } else {
                    st.commits as f64 / attempts as f64
                },
                "ratio",
            ),
            metric("federation.slice_ms", self.slice_ms, "ms"),
        ]);
        m
    }

    /// Every self time with the clock overhead taken out of it.
    fn self_times_json(&self) -> String {
        let body: Vec<String> = self
            .self_times
            .iter()
            .map(|s| {
                format!(
                    "\"{}\": {{\"ms\": {}, \"calls\": {}, \"timer_overhead_ms\": {}}}",
                    s.name, s.ms, s.calls, s.overhead_ms
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds of the whole process (all threads).
fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The process's resident-set high-water mark, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Provenance of a record: host parallelism, toolchain and source.
fn stamps() -> String {
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"source_hash\": \"{:016x}\"",
        nproc(),
        json_escape(&rustc),
        json_escape(&commit),
        source_hash()
    )
}

/// Hash of the simulator's sources (`crates/` and the lock file), which
/// identifies the code when the checkout carries no git metadata.
fn source_hash() -> u64 {
    use std::hash::{DefaultHasher, Hash, Hasher};
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = DefaultHasher::new();
    for f in files {
        f.hash(&mut h);
        std::fs::read(&f).unwrap_or_default().hash(&mut h);
    }
    h.finish()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
