//! The three serving workloads: how each builds its program state and
//! per-seed inputs, makes its library call, and checks its result.

use maicc_serve::cache::WeightCacheConfig;
use maicc_serve::cluster::{
    serve_cluster, serve_cluster_with_obs, ClusterConfig, ClusterFaultPlan, ClusterReport,
    ClusterShedConfig,
};
use maicc_serve::overload::{OverloadConfig, RetryBudget, Tier};
use maicc_serve::registry::{overload_mix, three_model_mix, ModelRegistry};
use maicc_serve::server::{serve, serve_with_obs, FaultConfig, Policy, ServeConfig};
use maicc_serve::slo::ServeReport;
use maicc_serve::trace::{TenantLoad, Trace};
use maicc_serve::ServeError;
use maicc_sim::RecoveryPolicy;

/// Telemetry window of the obs recorder, simulated cycles.
pub const OBS_WINDOW_CYCLES: u64 = 50_000;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zipf repeat-heavy mix over an 8-tile pool with the weight cache on.
    Repeat,
    /// Bursty 2× load on a 10-tile pool with every overload layer on.
    Overload,
    /// Diurnal day over a churning 4-fabric cluster with telemetry.
    Soak,
}

impl Kind {
    /// Every workload the benchmark can run (`BENCHMARK.json` gates two).
    pub const ALL: [Kind; 3] = [Kind::Repeat, Kind::Overload, Kind::Soak];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Repeat => "serve_repeat",
            Kind::Overload => "serve_overload",
            Kind::Soak => "cluster_soak",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn from_name(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the workload's op records interval telemetry.
    pub fn obs_in_op(self) -> bool {
        self == Kind::Soak
    }
}

/// Program state built once before the first op (the set-up time).
pub struct Setup {
    /// Models with footprints, SJF estimates, golden ofmaps and weights.
    pub registry: ModelRegistry,
    loads: Vec<TenantLoad>,
    overload: Option<OverloadConfig>,
}

/// Builds the workload's registry and tenant loads.
pub fn setup(kind: Kind) -> Setup {
    if kind == Kind::Overload {
        let (registry, loads, overload) = overload_mix();
        Setup {
            registry,
            loads,
            overload: Some(overload),
        }
    } else {
        let (registry, mut loads) = three_model_mix();
        // small (keyword) first: the Zipf head
        loads.reverse();
        Setup {
            registry,
            loads,
            overload: None,
        }
    }
}

fn hard_tiers() -> Vec<(String, Tier)> {
    vec![
        ("vision".into(), Tier::Hard),
        ("assist".into(), Tier::Soft),
        ("keyword".into(), Tier::BestEffort),
    ]
}

/// How one seed's trace is served.
pub enum Run {
    /// Through `serve` on one fabric.
    Serve(ServeConfig),
    /// Through the cluster router.
    Cluster(ClusterConfig),
}

/// One seed's pre-generated trace and configuration.
pub struct Input {
    /// Trace seed.
    pub seed: u64,
    /// The arrivals, on their open-loop schedule.
    pub trace: Trace,
    /// The serving configuration (fault plans depend on the trace).
    pub run: Run,
}

/// Generates the input of `seed` for `kind`.
pub fn input(kind: Kind, setup: &Setup, seed: u64) -> Input {
    let (trace, run) = match kind {
        Kind::Repeat => (
            Trace::zipf(&setup.loads, 1_200_000, 14_000, 2.0, seed),
            Run::Serve(ServeConfig {
                policy: Policy::Sjf,
                pool_tiles: 8,
                weight_cache: Some(WeightCacheConfig::default()),
                ..ServeConfig::default()
            }),
        ),
        Kind::Overload => {
            let trace = Trace::bursty(&setup.loads, 1_200_000, 200_000, seed);
            // the first two Hard-tier requests hit a hard fault mid-run
            let fail_at_requests = trace
                .requests
                .iter()
                .filter(|r| r.tenant == "vision")
                .take(2)
                .map(|r| r.id)
                .collect();
            let cfg = ServeConfig {
                policy: Policy::Sjf,
                pool_tiles: 10,
                recovery: Some(RecoveryPolicy {
                    max_replays: 8,
                    remap: true,
                    checkpoint_values: 8,
                }),
                fault: Some(FaultConfig {
                    fail_at_requests,
                    ..FaultConfig::default()
                }),
                overload: setup.overload.clone(),
                retry_budget: Some(RetryBudget::default()),
                ..ServeConfig::default()
            };
            (trace, Run::Serve(cfg))
        }
        Kind::Soak => {
            let horizon = 600_000;
            let trace = Trace::diurnal(&setup.loads, horizon, 12_000, 1.1, 200_000, seed);
            let cfg = ClusterConfig {
                fabrics: 4,
                replicas: 2,
                heartbeat_interval: 20_000,
                missed_heartbeats: 2,
                failover_budget: 3,
                prewarm_replicas: true,
                tiers: hard_tiers(),
                shed: Some(ClusterShedConfig::default()),
                faults: ClusterFaultPlan::churn(4, horizon, 150_000, seed),
                base: ServeConfig {
                    policy: Policy::Sjf,
                    pool_tiles: 16,
                    weight_cache: Some(WeightCacheConfig::default()),
                    ..ServeConfig::default()
                },
            };
            (trace, Run::Cluster(cfg))
        }
    };
    Input { seed, trace, run }
}

/// What one library call returned.
pub enum Report {
    /// A single-fabric report, with its telemetry stream if recorded.
    Serve(ServeReport, Option<String>),
    /// A cluster report, with its telemetry stream if recorded.
    Cluster(ClusterReport, Option<String>),
}

impl Report {
    /// The merged single-fabric report.
    pub fn serve(&self) -> &ServeReport {
        match self {
            Report::Serve(r, _) => r,
            Report::Cluster(c, _) => &c.serve,
        }
    }

    /// The cluster layer's report, if the call went through the router.
    pub fn cluster(&self) -> Option<&ClusterReport> {
        match self {
            Report::Serve(..) => None,
            Report::Cluster(c, _) => Some(c),
        }
    }

    /// The telemetry stream, if one was recorded.
    pub fn stream(&self) -> Option<&str> {
        match self {
            Report::Serve(_, s) | Report::Cluster(_, s) => s.as_deref(),
        }
    }

    /// The report's deterministic JSON.
    pub fn to_json(&self) -> String {
        match self {
            Report::Serve(r, _) => r.to_json(),
            Report::Cluster(c, _) => c.to_json(),
        }
    }
}

/// Serves `input` once, with or without the obs recorder.
pub fn call(setup: &Setup, input: &Input, obs: bool) -> Result<Report, ServeError> {
    let reg = &setup.registry;
    let trace = &input.trace;
    match (&input.run, obs) {
        (Run::Serve(cfg), false) => serve(reg, trace, cfg).map(|r| Report::Serve(r, None)),
        (Run::Serve(cfg), true) => serve_with_obs(reg, trace, cfg, OBS_WINDOW_CYCLES)
            .map(|(r, s)| Report::Serve(r, Some(s))),
        (Run::Cluster(cfg), false) => {
            serve_cluster(reg, trace, cfg).map(|c| Report::Cluster(c, None))
        }
        (Run::Cluster(cfg), true) => serve_cluster_with_obs(reg, trace, cfg, OBS_WINDOW_CYCLES)
            .map(|(c, s)| Report::Cluster(c, Some(s))),
    }
}

/// Checks the invariants every op must hold: request accounting closes,
/// no Hard-tier request is unrecoverable (overload) or lost (cluster).
pub fn check(setup: &Setup, input: &Input, report: &Report) -> Result<(), String> {
    let s = report.serve();
    let offered = input.trace.requests.len() as u64;
    let count = |f: &dyn Fn(&maicc_serve::slo::RequestOutcome) -> bool| {
        s.outcomes.iter().filter(|o| f(o)).count() as u64
    };
    let completed = count(&|o| !o.dropped);
    let shed = count(&|o| o.shed);
    let unrecoverable = count(&|o| o.unrecoverable());
    if s.requests != offered || s.outcomes.len() as u64 != offered {
        return Err(format!(
            "seed {}: {} offered, report has {} requests and {} outcomes",
            input.seed,
            offered,
            s.requests,
            s.outcomes.len()
        ));
    }
    if (completed, shed, unrecoverable) != (s.completed, s.shed, s.unrecoverable)
        || completed + shed + unrecoverable != offered
        || s.dropped != shed + unrecoverable
    {
        return Err(format!(
            "seed {}: accounting does not close: completed {} + shed {} + unrecoverable {} vs {} offered",
            input.seed, s.completed, s.shed, s.unrecoverable, offered
        ));
    }
    if let Some(c) = report.cluster() {
        if c.requests_lost != s.unrecoverable || c.cluster_shed > s.shed {
            return Err(format!(
                "seed {}: cluster lost {} / shed {} disagree with merged unrecoverable {} / shed {}",
                input.seed, c.requests_lost, c.cluster_shed, s.unrecoverable, s.shed
            ));
        }
        if c.hard_requests_lost != 0 {
            return Err(format!(
                "seed {}: {} Hard-tier requests lost",
                input.seed, c.hard_requests_lost
            ));
        }
    }
    if let Some(ov) = &setup.overload {
        for (tenant, _) in ov.tiers.iter().filter(|(_, t)| *t == Tier::Hard) {
            let lost = count(&|o| o.tenant == *tenant && o.unrecoverable());
            if lost != 0 {
                return Err(format!(
                    "seed {}: Hard tenant {tenant} has {lost} unrecoverable requests",
                    input.seed
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::digest;

    /// The first requests of a seed's trace, served through the workload's
    /// own configuration.
    fn short(kind: Kind, setup: &Setup, seed: u64, n: usize) -> Input {
        let mut input = input(kind, setup, seed);
        input.trace = Trace::from_requests(input.trace.requests[..n].to_vec());
        input
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        for k in Kind::ALL {
            let setup = setup(k);
            let (a, b, c) = (
                input(k, &setup, 5),
                input(k, &setup, 5),
                input(k, &setup, 6),
            );
            assert_eq!(a.trace, b.trace, "{}", k.name());
            assert_ne!(a.trace, c.trace, "{}", k.name());
        }
    }

    #[test]
    fn digest_is_stable_across_calls_and_obs() {
        for k in Kind::ALL {
            let setup = setup(k);
            let input = short(k, &setup, 1, 12);
            let first = call(&setup, &input, k.obs_in_op()).expect("serves");
            let again = call(&setup, &input, k.obs_in_op()).expect("serves");
            let flipped = call(&setup, &input, !k.obs_in_op()).expect("serves");
            check(&setup, &input, &first).expect("invariants hold");
            assert_eq!(
                digest(&first.to_json()),
                digest(&again.to_json()),
                "{}",
                k.name()
            );
            assert_eq!(first.stream(), again.stream(), "{}", k.name());
            assert_eq!(first.to_json(), flipped.to_json(), "{}", k.name());
            assert_eq!(first.stream().is_some(), k.obs_in_op());
        }
    }

    #[test]
    fn check_rejects_broken_accounting() {
        let setup = setup(Kind::Repeat);
        let input = short(Kind::Repeat, &setup, 1, 6);
        let Report::Serve(mut r, s) = call(&setup, &input, false).expect("serves") else {
            panic!("serve workload returned a cluster report")
        };
        r.completed += 1;
        let err = check(&setup, &input, &Report::Serve(r, s)).unwrap_err();
        assert!(err.contains("accounting"), "{err}");
    }
}
