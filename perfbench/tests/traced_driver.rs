//! The traced driver must be the program the untraced run measures: on
//! the same inputs it matches `CloudSim` event for event, trace record
//! for trace record and cloud report for cloud report.

use cpsim_perfbench::traced::build_traced;
use cpsim_perfbench::{build_plane, expected, plane_horizon, Digest, FedLoop, Workload};

fn assert_traced_matches_cloud_sim(w: Workload, seed: u64) {
    let horizon = plane_horizon(w);
    let mut plain = build_plane(w, seed);
    plain.run_until(horizon);
    let mut traced = build_traced(w, seed);
    traced.run_until(horizon);

    assert_eq!(
        traced.events_processed(),
        plain.events_processed(),
        "{w:?} events"
    );
    assert_eq!(
        traced.trace().len(),
        plain.trace().len(),
        "{w:?} trace length"
    );
    assert_eq!(
        traced.trace().records(),
        plain.trace().records(),
        "{w:?} trace records"
    );
    assert_eq!(
        traced.cloud_reports(),
        plain.cloud_reports(),
        "{w:?} cloud reports"
    );
    assert_eq!(
        traced.digest(),
        Digest::of_cloud_sim(&plain),
        "{w:?} digest"
    );

    // Every event was counted and a sample of them timed.
    let times = traced.times();
    assert_eq!(times.model.calls, plain.events_processed());
    assert!(times.model.timed > 0 && times.model.timed < times.model.calls);
}

#[test]
fn traced_driver_matches_cloud_sim_on_steady_week() {
    assert_traced_matches_cloud_sim(Workload::SteadyWeek, 1);
}

#[test]
fn traced_driver_matches_cloud_sim_on_storm_linked() {
    assert_traced_matches_cloud_sim(Workload::StormLinked, 1);
}

#[test]
fn traced_driver_matches_cloud_sim_on_another_seed() {
    assert_traced_matches_cloud_sim(Workload::StormLinked, 20_261_017);
}

#[test]
fn recorded_outputs_reproduce() {
    for w in [
        Workload::SteadyWeek,
        Workload::StormLinked,
        Workload::FedContended,
    ] {
        for seed in [1, 20_261_017] {
            let want = expected(w, seed).unwrap_or_else(|| panic!("{w:?} seed {seed} recorded"));
            let got = if w.is_federated() {
                let mut lp = FedLoop::build(seed, 1);
                lp.run();
                lp.check().expect("federation conserves tasks and ledger");
                lp.digest()
            } else {
                let mut sim = build_plane(w, seed);
                sim.run_until(plane_horizon(w));
                Digest::of_cloud_sim(&sim)
            };
            assert_eq!(got.to_string(), want, "{w:?} seed {seed}");
        }
    }
}

#[test]
fn threaded_federation_matches_sequential() {
    let mut seq = FedLoop::build(3, 1);
    seq.run();
    let mut par = FedLoop::build(3, 2);
    par.run();
    assert_eq!(par.digest(), seq.digest());
}
