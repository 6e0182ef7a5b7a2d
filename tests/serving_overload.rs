//! Overload-sweep integration test: the serving layer's
//! graceful-degradation contract (ISSUE 2 acceptance criteria).
//!
//! At 3× saturated capacity the shedding policy must keep admitted-request
//! p99 latency inside the SLO while goodput plateaus at ≥ 90% of the
//! saturated throughput — deterministically across seeds. With shedding
//! disabled the same sweep shows unbounded admission-queue growth and tail
//! latency far beyond the deadline; at half capacity batches close on
//! pipeline idleness and the tail stays under `max_linger`.
//! `PipelineSnapshot` conservation
//! invariants (`offered = admitted + rejected`,
//! `admitted = completed + shed + inflight`) are asserted on every run.

use dlbooster::gpu::ModelZoo;
use dlbooster::serving::{ServingConfig, ShedPolicy};
use dlbooster::simcore::SimTime;
use dlbooster::workflows::calibration::{BackendKind, Calibration};
use dlbooster::workflows::inference::{InferenceSim, ServingOutcome};

const BATCH: u32 = 32;
const SLO: SimTime = SimTime::from_millis(50);

fn sweep_cfg(policy: ShedPolicy) -> ServingConfig {
    ServingConfig::five_clients(BATCH, SLO, policy)
}

fn run_at(cal: &Calibration, cfg: ServingConfig, rate: f64, seed: u64) -> (f64, ServingOutcome) {
    let out = InferenceSim::served(
        cal,
        ModelZoo::GoogLeNet,
        BackendKind::DlBooster,
        BATCH,
        cfg,
        rate,
        seed,
    );
    let p99 = out.p99_latency.as_secs_f64();
    let serving = out.serving.expect("Served runs carry a serving outcome");
    (p99, serving)
}

fn assert_conserved(s: &ServingOutcome) {
    let v = s.snapshot.invariant_violations();
    assert!(v.is_empty(), "conservation violated: {v:?}");
    assert_eq!(
        s.offered,
        s.admitted + s.rejected,
        "admission door conservation"
    );
    assert_eq!(
        s.snapshot.serving.inflight, 0,
        "drained run leaves nothing in flight"
    );
    assert_eq!(
        s.admitted,
        s.completed + s.shed,
        "admitted = completed + shed once drained"
    );
}

#[test]
fn shedding_keeps_p99_in_slo_while_goodput_plateaus() {
    let cal = Calibration::paper();
    let cap = InferenceSim::saturated_throughput(
        &cal,
        ModelZoo::GoogLeNet,
        BackendKind::DlBooster,
        BATCH,
    );
    for policy in [ShedPolicy::DeadlineAware, ShedPolicy::DropOldest] {
        for seed in [7u64, 11] {
            let (p99, s) = run_at(&cal, sweep_cfg(policy), cap * 3.0, seed);
            assert_conserved(&s);
            assert!(
                s.rejected + s.shed > 0,
                "3x offered load must actually shed ({policy:?}, seed {seed})"
            );
            assert!(
                p99 <= SLO.as_secs_f64(),
                "admitted-request p99 {:.2} ms exceeds the {} SLO ({policy:?}, seed {seed})",
                p99 * 1e3,
                SLO
            );
            assert!(
                s.goodput >= 0.9 * cap,
                "goodput {:.0}/s below 90% of capacity {cap:.0}/s ({policy:?}, seed {seed})",
                s.goodput
            );
            // Equal-weight tenants under uniform overload must get equal
            // service: shedding is not allowed to starve a tenant (the WFQ
            // charges virtual time only for real service, never evictions).
            let per_tenant: Vec<u64> = s
                .snapshot
                .serving
                .tenants
                .iter()
                .map(|t| t.completed)
                .collect();
            assert_eq!(per_tenant.len(), 5, "five tenant classes reported");
            let min = *per_tenant.iter().min().unwrap();
            let max = *per_tenant.iter().max().unwrap();
            assert!(
                min as f64 >= 0.8 * max as f64,
                "tenant completions skewed under shedding: {per_tenant:?} ({policy:?}, seed {seed})"
            );
        }
    }
}

#[test]
fn overload_sweep_is_deterministic_per_seed() {
    let cal = Calibration::paper();
    let cap = InferenceSim::saturated_throughput(
        &cal,
        ModelZoo::GoogLeNet,
        BackendKind::DlBooster,
        BATCH,
    );
    let runs: Vec<(f64, ServingOutcome)> = (0..2)
        .map(|_| run_at(&cal, sweep_cfg(ShedPolicy::DeadlineAware), cap * 3.0, 7))
        .collect();
    let (p99_a, a) = &runs[0];
    let (p99_b, b) = &runs[1];
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.good, b.good);
    assert_eq!(p99_a, p99_b, "identical seed must replay identically");
}

#[test]
fn disabled_shedding_shows_unbounded_queue_growth() {
    let cal = Calibration::paper();
    let cap = InferenceSim::saturated_throughput(
        &cal,
        ModelZoo::GoogLeNet,
        BackendKind::DlBooster,
        BATCH,
    );
    let bounded_capacity = sweep_cfg(ShedPolicy::DeadlineAware).queue_capacity as i64;
    let (p99, s) = run_at(
        &cal,
        sweep_cfg(ShedPolicy::DeadlineAware).without_shedding(),
        cap * 3.0,
        7,
    );
    assert_conserved(&s);
    assert_eq!(s.rejected, 0, "no admission control: nothing rejected");
    assert_eq!(s.shed, 0, "no shedding: nothing evicted");
    assert_eq!(s.offered, s.completed, "everything eventually completes");
    // The backlog blows far past the bound the shedding config enforces —
    // at 3x offered load roughly 2/3 of all arrivals are queued at once by
    // the end of the arrival window.
    assert!(
        s.snapshot.serving.queue_depth_high_water > 4 * bounded_capacity,
        "high-water {} should dwarf the bounded capacity {bounded_capacity}",
        s.snapshot.serving.queue_depth_high_water
    );
    assert!(
        p99 > 2.0 * SLO.as_secs_f64(),
        "unshed tail latency {:.1} ms should blow through the {} SLO",
        p99 * 1e3,
        SLO
    );
}

#[test]
fn light_load_ships_on_idle_and_stays_under_the_linger() {
    // Below the knee the pipeline drains between arrivals, so the former
    // must close on idleness, not sit out `max_linger` (= SLO/4) with
    // every station free: the whole tail stays under the linger alone.
    let cal = Calibration::paper();
    let cap = InferenceSim::saturated_throughput(
        &cal,
        ModelZoo::GoogLeNet,
        BackendKind::DlBooster,
        BATCH,
    );
    let cfg = sweep_cfg(ShedPolicy::DeadlineAware);
    let linger = cfg.max_linger;
    let (p99, s) = run_at(&cal, cfg, cap * 0.5, 7);
    assert_conserved(&s);
    assert_eq!(s.rejected + s.shed, 0, "half capacity sheds nothing");
    let serving = &s.snapshot.serving;
    assert!(
        serving.batches_closed_idle > 0,
        "no idle closes at half capacity: {serving:?}"
    );
    assert!(
        p99 < linger.as_secs_f64(),
        "p99 {:.2} ms at half capacity is not under the {linger} linger",
        p99 * 1e3
    );
}
