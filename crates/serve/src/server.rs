//! The serving loop: a discrete-event scheduler over the 15×14 fabric.
//!
//! Time is fabric cycles. The loop jumps between request arrivals and
//! completions; at every event it first retires finished runs (in
//! request-id order, so simultaneous completions are deterministic),
//! then enqueues new arrivals, then lets the active [`Policy`] admit as
//! much queued work as currently fits. An admitted request is executed
//! immediately through the real bit-level [`StreamSim`] on exactly the
//! tiles the scheduler granted (placement is confined by passing the
//! complement as the avoid set), so service times, energy, and golden
//! checks all come from the simulator, not a model of it.
//!
//! Faults flow through the same machinery as offline runs: a
//! [`FaultConfig`] arms CMem/NoC fault plans (optionally targeted at
//! specific request ids), and when an attached
//! [`RecoveryPolicy`](maicc_sim::RecoveryPolicy) remaps around a hard
//! fault mid-run, the scheduler diffs [`StreamSim::retired_tiles`]
//! against the avoid set it supplied and permanently shrinks the
//! schedulable pool — later admissions steer around the casualty.

use std::collections::{BTreeMap, VecDeque};

use maicc_exec::mapping::{healthy_order, zigzag_order, Tile};
use maicc_noc::{NocFaultPlan, RetryPolicy};
use maicc_obs::{CacheSample, Recorder};
use maicc_sim::stream::{Engine, StreamSim};
use maicc_sim::RecoveryPolicy;
use maicc_sram::ecc::EccMode;
use maicc_sram::fault::FaultPlan;

use crate::cache::{AdmissionPlan, WeightCache, WeightCacheConfig};
use crate::overload::{OverloadConfig, RetryBudget, Tier};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::slo::{CacheReport, RequestOutcome, ServeReport};
use crate::trace::Trace;
use crate::ServeError;

/// How the scheduler shares the fabric between queued requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First come, first served: one FIFO queue, head-blocking — the
    /// oldest request admits as soon as its footprint fits.
    Fcfs,
    /// Shortest job first: the queued request with the smallest analytic
    /// service estimate (from the segmentation heuristic) admits next.
    Sjf,
    /// Static spatial partitioning: each tenant owns a fixed region of
    /// tiles sized for its largest model; tenants never contend, at the
    /// cost of idle regions.
    Partitioned,
    /// Temporal time-slicing: the whole pool is granted to one request
    /// at a time, round-robin across tenants.
    TimeShared,
}

impl Policy {
    /// All policies, in a stable order.
    pub const ALL: [Policy; 4] = [
        Policy::Fcfs,
        Policy::Sjf,
        Policy::Partitioned,
        Policy::TimeShared,
    ];

    /// The label used in reports and on the CLI.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::Sjf => "sjf",
            Policy::Partitioned => "partitioned",
            Policy::TimeShared => "time_shared",
        }
    }

    /// Parses a CLI label (accepts `-` for `_`).
    #[must_use]
    pub fn from_label(s: &str) -> Option<Policy> {
        match s.replace('-', "_").as_str() {
            "fcfs" => Some(Policy::Fcfs),
            "sjf" => Some(Policy::Sjf),
            "partitioned" => Some(Policy::Partitioned),
            "time_shared" => Some(Policy::TimeShared),
            _ => None,
        }
    }
}

/// Fault-injection knobs for a serving run, mirroring the offline
/// campaign's layers.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// CMem fault plan attached to every computing core of every run
    /// (seed re-salted per request so runs fault independently but
    /// deterministically).
    pub cmem: Option<FaultPlan>,
    /// NoC fault plan attached to every run's mesh.
    pub noc: Option<NocFaultPlan>,
    /// ECC protection level for all CMems.
    pub ecc: EccMode,
    /// CRC-checked ACK/NACK retransmission on the mesh.
    pub retry: Option<RetryPolicy>,
    /// Request ids whose run gets a dead CMem slice on its first
    /// computing core — a hard fault that (with remap recovery) retires
    /// a tile from the pool mid-service. Fires only on a request's
    /// first attempt: a retry re-runs on clean hardware.
    pub fail_at_requests: Vec<u64>,
}

/// Configuration of a serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scheduling policy.
    pub policy: Policy,
    /// Simulation engine driving each admitted request (does not affect
    /// results — engines are bit-identical).
    pub engine: Engine,
    /// Node-step shards per admitted request's simulation. Every count,
    /// the default 1 included, runs the same ownership-partitioned
    /// production loop (DESIGN.md §14); 1 is one shard with no worker
    /// threads, and more shards trade wall-clock for cores without
    /// affecting results: reports stay byte-identical at any count.
    pub threads: usize,
    /// Schedulable pool size in tiles, carved from the start of the
    /// serpentine order; `0` means the whole healthy array.
    pub pool_tiles: usize,
    /// Cycle budget per admitted request's simulation.
    pub run_budget: u64,
    /// Checkpoint/replay recovery attached to every run.
    pub recovery: Option<RecoveryPolicy>,
    /// Fault injection, if any.
    pub fault: Option<FaultConfig>,
    /// Tiles already known-bad before serving starts.
    pub initial_failed: Vec<Tile>,
    /// Overload hardening (bounded admission, tiers, preemption,
    /// brownout); `None` keeps the fair-weather loop. Only
    /// [`Policy::Fcfs`] and [`Policy::Sjf`] support it.
    pub overload: Option<OverloadConfig>,
    /// Retry of unrecoverable runs with bounded exponential backoff.
    /// Only honored by the overload loop; the fair-weather loop drops
    /// unrecoverable requests immediately.
    pub retry_budget: Option<RetryBudget>,
    /// Two-tier model-weight cache ([`crate::cache`]). `None` keeps the
    /// historical loop with no weight-load modeling at all (reports are
    /// byte-identical to pre-cache serving); `Some` models every load
    /// through the LLC/DRAM tier — with `enabled: false` nothing is ever
    /// retained (the "cache off" measurement arm), with `enabled: true`
    /// completed requests pin their weights for warm admissions. Only
    /// [`Policy::Fcfs`] and [`Policy::Sjf`] (and the overload loop over
    /// them) support it.
    pub weight_cache: Option<WeightCacheConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: Policy::Fcfs,
            engine: Engine::EventDriven,
            threads: 1,
            pool_tiles: 0,
            run_budget: 5_000_000,
            recovery: None,
            fault: None,
            initial_failed: Vec::new(),
            overload: None,
            retry_budget: None,
            weight_cache: None,
        }
    }
}

/// What one simulated request run produced.
pub(crate) struct RunOutput {
    pub(crate) cycles: u64,
    pub(crate) energy_pj: f64,
    pub(crate) ok: bool,
    pub(crate) newly_retired: Vec<Tile>,
    /// Cycles at which the run took sink-progress checkpoints (empty
    /// without a [`RecoveryPolicy`]); the overload loop's preemption
    /// resumes a victim from the last of these.
    pub(crate) ckpt_log: Vec<u64>,
    /// ECC single-bit corrections the run's CMems performed. Memoized
    /// replays report 0 — only fault-free runs are memoized, and a
    /// fault-free run corrects nothing.
    pub(crate) ecc_corrected: u64,
    /// NoC ACK/NACK retransmissions the run's mesh performed (same
    /// memoization argument).
    pub(crate) noc_retransmits: u64,
}

/// A request currently holding tiles.
struct Running {
    idx: usize,
    admitted: u64,
    done_at: u64,
    tiles: Vec<Tile>,
    ok: bool,
    energy_pj: f64,
    // Overload-loop state; the fair-weather loop leaves the defaults.
    tier: Tier,
    /// Service cycles banked at a checkpoint before this admission
    /// (non-zero only for resumed preemption victims).
    progress: u64,
    /// Fabric cycles burned in earlier preempted partial runs.
    executed: u64,
    ckpt_log: Vec<u64>,
    attempt: u32,
    retries: u32,
    preemptions: u32,
    /// Whether this admission found its weights resident (weight cache
    /// only; `false` on the no-cache path).
    warm: bool,
    /// Weight-load cycles this admission paid before compute started.
    load_cycles: u64,
}

/// A request waiting for admission under the overload loop.
struct Pending {
    idx: usize,
    tier: Tier,
    /// Service cycles banked at the last sink-progress checkpoint of a
    /// preempted run (0 for fresh arrivals).
    progress: u64,
    /// Fabric cycles already burned across preempted partial runs.
    executed: u64,
    /// 0 = first run; retries increment it (re-salting fault plans).
    attempt: u32,
    retries: u32,
    preemptions: u32,
    /// Earliest cycle admission may consider this entry (retry backoff).
    available_at: u64,
}

/// Key for memoizing fault-free runs: model name plus the exact tiles
/// the run was placed on (placement fully determines the simulation).
pub(crate) type RunKey = (String, Vec<(u8, u8)>);

/// The memo table [`run_request`] reads and writes: fault-free results
/// keyed by [`RunKey`]. The cluster router shares one table across all
/// fabrics — every fabric has the same 15×14 geometry, so identical
/// placements replay identically wherever they land.
pub(crate) type RunMemo = BTreeMap<RunKey, (u64, f64, bool, Vec<u64>)>;

struct Server<'a> {
    registry: &'a ModelRegistry,
    trace: &'a Trace,
    cfg: &'a ServeConfig,
    /// Tiles outside the schedulable pool (complement of the pool).
    mask: Vec<Tile>,
    /// Original pool size, for utilization accounting.
    pool_size: usize,
    /// Tiles retired by mid-run recovery, sorted.
    degraded: Vec<Tile>,
    running: Vec<Running>,
    outcomes: Vec<RequestOutcome>,
    busy_tile_cycles: u64,
    memo: RunMemo,
    /// The two-tier weight cache; `None` preserves the historical
    /// no-load-modeling loop byte-for-byte.
    cache: Option<WeightCache>,
    /// Interval telemetry recorder; `None` (the plain [`serve`] entry
    /// point) leaves every loop untouched.
    obs: Option<Recorder>,
}

/// Converts the weight cache's counters into the recorder's snapshot
/// form (integer activity counters only).
pub(crate) fn cache_sample(c: &crate::cache::CacheCounters) -> CacheSample {
    CacheSample {
        hits: c.hits,
        misses: c.misses,
        evictions: c.evictions,
        llc_hits: c.llc_hits,
        prefetch_issued: c.prefetch_issued,
        prefetch_used: c.prefetch_used,
        prefetch_canceled: c.prefetch_canceled,
    }
}

/// Runs a trace against a registry under a config and returns the SLO
/// report.
///
/// # Errors
///
/// * [`ServeError::UnknownModel`] — a request names an unregistered
///   model.
/// * [`ServeError::PoolTooSmall`] — the pool cannot fit a requested
///   model (or, under [`Policy::Partitioned`], the per-tenant regions),
///   at start or after fault recovery shrinks it.
/// * [`ServeError::BadModel`] — a trace model resolves to a registry
///   entry with a zero-tile footprint (an inconsistent entry that would
///   otherwise underflow placement).
/// * [`ServeError::BadRequest`] — a request carries an impossible
///   deadline (`0`, or at/earlier than its own arrival).
/// * [`ServeError::BadConfig`] — overload hardening combined with
///   [`Policy::Partitioned`] or [`Policy::TimeShared`], which cannot
///   honor cross-tenant priority admission.
/// * [`ServeError::Sim`] — a simulation failed in a way the serving
///   layer cannot attribute to a single request.
pub fn serve(
    registry: &ModelRegistry,
    trace: &Trace,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    serve_impl(registry, trace, cfg, None).map(|(report, _)| report)
}

/// Like [`serve`], but additionally threads a [`Recorder`] through the
/// event loop and returns its JSONL telemetry stream: one record per
/// `interval_cycles` of simulated time (see the `maicc-obs` crate docs
/// for the schema and determinism argument). The report is byte-identical
/// to what plain [`serve`] returns on the same inputs.
///
/// # Errors
///
/// Everything [`serve`] raises, plus [`ServeError::BadConfig`] for
/// [`Policy::Partitioned`] / [`Policy::TimeShared`] — interval telemetry
/// is only wired through the queued and overload loops.
pub fn serve_with_obs(
    registry: &ModelRegistry,
    trace: &Trace,
    cfg: &ServeConfig,
    interval_cycles: u64,
) -> Result<(ServeReport, String), ServeError> {
    if matches!(cfg.policy, Policy::Partitioned | Policy::TimeShared) {
        return Err(ServeError::BadConfig {
            reason: format!(
                "interval telemetry requires fcfs or sjf, not {}",
                cfg.policy.label()
            ),
        });
    }
    let recorder = Recorder::new(interval_cycles, 1);
    serve_impl(registry, trace, cfg, Some(recorder))
        .map(|(report, jsonl)| (report, jsonl.expect("recorder was attached")))
}

fn serve_impl(
    registry: &ModelRegistry,
    trace: &Trace,
    cfg: &ServeConfig,
    obs: Option<Recorder>,
) -> Result<(ServeReport, Option<String>), ServeError> {
    validate_requests(registry, trace)?;
    if cfg.overload.is_some()
        && matches!(cfg.policy, Policy::Partitioned | Policy::TimeShared)
    {
        return Err(ServeError::BadConfig {
            reason: format!(
                "overload hardening requires fcfs or sjf, not {}",
                cfg.policy.label()
            ),
        });
    }
    if cfg.weight_cache.is_some()
        && matches!(cfg.policy, Policy::Partitioned | Policy::TimeShared)
    {
        return Err(ServeError::BadConfig {
            reason: format!(
                "the weight cache requires fcfs or sjf, not {}",
                cfg.policy.label()
            ),
        });
    }

    let healthy = healthy_order(&cfg.initial_failed);
    let pool_size = if cfg.pool_tiles == 0 {
        healthy.len()
    } else {
        cfg.pool_tiles.min(healthy.len())
    };
    let pool: Vec<Tile> = healthy[..pool_size].to_vec();
    let mask: Vec<Tile> = zigzag_order()
        .into_iter()
        .filter(|t| !pool.contains(t))
        .collect();

    // Every model that appears in the trace must fit the empty pool.
    for r in &trace.requests {
        let entry = registry.get(&r.model).expect("validated above");
        if entry.tiles > pool_size {
            return Err(ServeError::PoolTooSmall {
                reason: format!(
                    "model `{}` needs {} tiles, pool holds {pool_size}",
                    entry.name, entry.tiles
                ),
            });
        }
    }

    let mut server = Server {
        registry,
        trace,
        cfg,
        mask,
        pool_size,
        degraded: Vec::new(),
        running: Vec::new(),
        outcomes: Vec::new(),
        busy_tile_cycles: 0,
        memo: BTreeMap::new(),
        cache: cfg.weight_cache.clone().map(WeightCache::new),
        obs,
    };
    server.run()?;
    let end = server
        .outcomes
        .iter()
        .map(|o| o.finished)
        .max()
        .unwrap_or(0);
    let jsonl = server.obs.take().map(|o| o.finish(end));
    let cache_report = server
        .cache
        .as_ref()
        .map(|c| CacheReport::build(c.counters(), &server.outcomes));
    let mut report = ServeReport::from_outcomes(
        cfg.policy.label(),
        server.pool_size,
        server.degraded.len(),
        server.busy_tile_cycles,
        server.outcomes,
    );
    report.cache = cache_report;
    Ok((report, jsonl))
}

/// Per-request trace validation shared by [`serve`] and the cluster
/// router: every model must resolve, have a non-zero footprint, and
/// carry a possible deadline.
pub(crate) fn validate_requests(
    registry: &ModelRegistry,
    trace: &Trace,
) -> Result<(), ServeError> {
    for r in &trace.requests {
        let Some(entry) = registry.get(&r.model) else {
            return Err(ServeError::UnknownModel {
                model: r.model.clone(),
            });
        };
        if entry.tiles == 0 {
            return Err(ServeError::BadModel {
                reason: format!("model `{}` has a zero-tile footprint", entry.name),
            });
        }
        if let Some(d) = r.deadline {
            if d == 0 {
                return Err(ServeError::BadRequest {
                    id: r.id,
                    reason: "deadline is 0".into(),
                });
            }
            if d <= r.arrival {
                return Err(ServeError::BadRequest {
                    id: r.id,
                    reason: format!(
                        "deadline {d} is at or before arrival {}",
                        r.arrival
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Where the simulator would place this model given an avoid set (the
/// first `footprint` tiles of the healthy serpentine), or `None` if it
/// does not fit.
pub(crate) fn placement_for(entry: &ModelEntry, avoid: &[Tile]) -> Option<Vec<Tile>> {
    let order = healthy_order(avoid);
    if order.len() < entry.tiles {
        return None;
    }
    Some(order[..entry.tiles].to_vec())
}

/// Executes one admitted request on the fabric, confined to the tiles
/// outside `avoid`. `attempt` is 0 for a request's first run; retries
/// pass higher values so their fault plans draw fresh seeds. `warm`
/// asserts the placement's CMems already hold the model's weight image
/// (a weight-cache hit) and takes `StreamSim`'s warm-start entry point,
/// which verifies the image bit-for-bit. Fault-free results land in
/// `memo`; [`Server`] and the cluster router both drive their fabrics
/// through this one function so the per-run semantics cannot drift.
pub(crate) fn run_request(
    cfg: &ServeConfig,
    memo: &mut RunMemo,
    entry: &ModelEntry,
    avoid: &[Tile],
    req_id: u64,
    attempt: u32,
    warm: bool,
) -> Result<RunOutput, ServeError> {
    let placement = placement_for(entry, avoid).expect("caller checked fit before running");
    let key: RunKey = (
        entry.name.clone(),
        placement.iter().map(|t| (t.x, t.y)).collect(),
    );
    // A run is memoizable when nothing request-specific can perturb
    // it: no fabric-wide fault plans, and no targeted dead slice for
    // this request. Config-constant knobs (ECC mode, NoC retry) are
    // fine — the memo lives inside one serve() call.
    let fault_free = match &cfg.fault {
        None => true,
        Some(f) => {
            f.cmem.is_none()
                && f.noc.is_none()
                && !(attempt == 0 && f.fail_at_requests.contains(&req_id))
        }
    };
    if fault_free {
        if let Some((cycles, energy_pj, ok, ckpt_log)) = memo.get(&key) {
            return Ok(RunOutput {
                cycles: *cycles,
                energy_pj: *energy_pj,
                ok: *ok,
                newly_retired: Vec::new(),
                ckpt_log: ckpt_log.clone(),
                ecc_corrected: 0,
                noc_retransmits: 0,
            });
        }
    }

    let mut sim = if warm {
        StreamSim::new_avoiding_warm(&entry.stream, avoid, &entry.weight_image)
    } else {
        StreamSim::new_avoiding(&entry.stream, avoid)
    }
    .map_err(|e| ServeError::PoolTooSmall {
        reason: format!("placement of `{}` failed: {e}", entry.name),
    })?;
    sim.set_engine(cfg.engine);
    sim.set_parallelism(cfg.threads);
    if let Some(recovery) = cfg.recovery {
        sim.set_recovery_policy(Some(recovery));
    }
    if let Some(fault) = &cfg.fault {
        // Fault-plan seeds are salted per request (runs fault
        // independently but deterministically) and, additively, per
        // attempt — a retry must not replay the exact fault draw
        // that killed attempt 0. Attempt 0 preserves the historical
        // seeds bit-for-bit.
        let attempt_salt = u64::from(attempt).wrapping_mul(0xA24B_AED4_963E_E407);
        if let Some(plan) = &fault.cmem {
            let mut p = plan.clone();
            p.seed = plan
                .seed
                .wrapping_add(req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(attempt_salt);
            sim.attach_cmem_fault_plan(&p);
        }
        if let Some(plan) = &fault.noc {
            let mut p = plan.clone();
            if attempt > 0 {
                p.seed = plan
                    .seed
                    .wrapping_add(req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(attempt_salt);
            }
            sim.attach_noc_fault_plan(p);
        }
        sim.set_ecc_mode(fault.ecc);
        sim.set_noc_retry_policy(fault.retry);
        if attempt == 0 && fault.fail_at_requests.contains(&req_id) {
            sim.attach_cmem_fault_plan_to(
                0,
                &FaultPlan {
                    seed: req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    transient_flip_rate: 0.0,
                    stuck_cells: Vec::new(),
                    dead_slices: vec![0],
                },
            );
        }
    }

    match sim.run(cfg.run_budget) {
        Ok(result) => {
            let ok = result.ofmap == entry.golden;
            let energy_pj = result.cmem_pj + result.noc.dynamic_pj();
            let newly_retired: Vec<Tile> = sim
                .retired_tiles()
                .iter()
                .filter(|t| !avoid.contains(t))
                .copied()
                .collect();
            let ckpt_log = sim.checkpoint_log().to_vec();
            if fault_free {
                memo.insert(key, (result.cycles, energy_pj, ok, ckpt_log.clone()));
            }
            Ok(RunOutput {
                cycles: result.cycles,
                energy_pj,
                ok,
                newly_retired,
                ckpt_log,
                ecc_corrected: sim.ecc_stats().corrected,
                noc_retransmits: sim.noc_fault_stats().retries,
            })
        }
        Err(e) => Err(ServeError::Sim(e)),
    }
}

impl Server<'_> {
    fn run(&mut self) -> Result<(), ServeError> {
        if self.cfg.overload.is_some() {
            return self.run_overload();
        }
        match self.cfg.policy {
            Policy::Fcfs | Policy::Sjf => self.run_queued(),
            Policy::TimeShared => self.run_time_shared(),
            Policy::Partitioned => self.run_partitioned(),
        }
    }

    /// Settles the recorder at the end of one event iteration: the
    /// admission-queue depth per tier (sample-and-hold) and the weight
    /// cache's cumulative counters (delta-attributed to the window).
    fn obs_sync(&mut self, now: u64, hard: u64, soft: u64, best_effort: u64) {
        let sample = self.cache.as_ref().map(|c| cache_sample(c.counters()));
        if let Some(o) = self.obs.as_mut() {
            o.queue_depth(now, hard, soft, best_effort);
            if let Some(s) = sample {
                o.cache_sync(now, s);
            }
        }
    }

    /// The avoid set for a fresh placement: everything outside the pool,
    /// every retired tile, and every tile a running request holds.
    fn avoid_now(&self) -> Vec<Tile> {
        let mut avoid = self.mask.clone();
        avoid.extend_from_slice(&self.degraded);
        for r in &self.running {
            avoid.extend_from_slice(&r.tiles);
        }
        avoid
    }

    /// Where the simulator would place this model given an avoid set
    /// (see [`placement_for`]).
    fn placement(&self, entry: &ModelEntry, avoid: &[Tile]) -> Option<Vec<Tile>> {
        placement_for(entry, avoid)
    }

    /// The analytic service estimate the scheduler should order by: the
    /// pipeline-model cycles plus, when the weight cache is on, the load
    /// cycles this model would pay right now (zero when resident). With
    /// no cache this is exactly `est_cycles`, so pre-cache behavior is
    /// untouched.
    fn est_for(&self, entry: &ModelEntry) -> u64 {
        let load = self
            .cache
            .as_ref()
            .map_or(0, |c| c.load_estimate(entry));
        entry.est_cycles.saturating_add(load)
    }

    /// Plans a cache-mediated admission against the current fabric state
    /// (pure — probing a head that then head-blocks mutates nothing).
    fn plan_for(&self, entry: &ModelEntry, now: u64) -> Option<AdmissionPlan> {
        let base = self.avoid_now();
        let cache = self.cache.as_ref().expect("caller checked cache is on");
        cache.plan(entry, now, &base, |need, extra| {
            let mut avoid = base.clone();
            avoid.extend_from_slice(extra);
            let order = healthy_order(&avoid);
            (order.len() >= need).then(|| order[..need].to_vec())
        })
    }

    /// Lets the cache stream a predicted model into currently-free tiles
    /// (no-op without a cache, with prefetch off, or with one in flight).
    fn try_prefetch(&mut self, now: u64) {
        if self.cache.is_none() {
            return;
        }
        let base = self.avoid_now();
        let running: Vec<&str> = self
            .running
            .iter()
            .map(|r| self.trace.requests[r.idx].model.as_str())
            .collect();
        let registry = self.registry;
        let cache = self.cache.as_mut().expect("checked above");
        cache.maybe_prefetch(now, &running, registry, |need, extra| {
            let mut avoid = base.clone();
            avoid.extend_from_slice(extra);
            let order = healthy_order(&avoid);
            (order.len() >= need).then(|| order[..need].to_vec())
        });
    }

    /// Executes one admitted request through [`run_request`] against
    /// this server's config and memo table.
    fn run_one(
        &mut self,
        entry: &ModelEntry,
        avoid: &[Tile],
        req_id: u64,
        attempt: u32,
        warm: bool,
    ) -> Result<RunOutput, ServeError> {
        run_request(self.cfg, &mut self.memo, entry, avoid, req_id, attempt, warm)
    }

    /// Admits the request at trace index `idx` at time `now`: runs it,
    /// folds fault casualties into the pool, and either schedules its
    /// completion or records it as dropped. With a weight cache, `plan`
    /// carries the cache's placement and load costs: the run is confined
    /// to exactly the planned tiles (so a warm hit reproduces the cold
    /// run's placement and the memoized result) and its completion is
    /// pushed out by the load cycles.
    fn admit(
        &mut self,
        idx: usize,
        now: u64,
        avoid: &[Tile],
        plan: Option<&AdmissionPlan>,
    ) -> Result<(), ServeError> {
        let req = &self.trace.requests[idx];
        let entry = self.registry.get(&req.model).expect("validated");
        let (avoid, warm, load) = match plan {
            Some(pl) => (
                zigzag_order()
                    .into_iter()
                    .filter(|t| !pl.tiles.contains(t))
                    .collect::<Vec<Tile>>(),
                pl.warm,
                pl.load,
            ),
            None => (avoid.to_vec(), false, maicc_mem::tier::LoadCost::default()),
        };
        let tiles = self
            .placement(entry, &avoid)
            .expect("caller checked fit before admitting");
        match self.run_one(entry, &avoid, req.id, 0, warm) {
            Ok(out) => {
                let mut newly_degraded = 0u64;
                for t in out.newly_retired {
                    if !self.degraded.contains(&t) {
                        self.degraded.push(t);
                        newly_degraded += 1;
                    }
                }
                self.degraded.sort_unstable_by_key(|t| (t.y, t.x));
                if let Some(c) = self.cache.as_mut() {
                    c.retire_tiles(&self.degraded);
                }
                if let Some(o) = self.obs.as_mut() {
                    o.admission(now, out.ecc_corrected, out.noc_retransmits, newly_degraded);
                }
                // Remap may have shifted the run onto different tiles;
                // recompute occupancy from the final avoid set so later
                // admissions see the true footprint.
                let occupied = if self.degraded.is_empty() {
                    tiles
                } else {
                    let mut post = avoid.clone();
                    post.extend(self.degraded.iter().copied());
                    match self.placement(entry, &post) {
                        Some(p) => p,
                        // Re-placement can fail when retirement shrank the
                        // pool below the footprint; fall back to the
                        // original grant minus the casualties so occupancy
                        // never counts a retired tile.
                        None => tiles
                            .into_iter()
                            .filter(|t| !self.degraded.contains(t))
                            .collect(),
                    }
                };
                let total = out.cycles + load.cycles;
                self.busy_tile_cycles += total * occupied.len() as u64;
                self.running.push(Running {
                    idx,
                    admitted: now,
                    done_at: now + total,
                    tiles: occupied,
                    ok: out.ok,
                    energy_pj: out.energy_pj + load.energy_pj,
                    tier: Tier::default(),
                    progress: 0,
                    executed: 0,
                    ckpt_log: out.ckpt_log,
                    attempt: 0,
                    retries: 0,
                    preemptions: 0,
                    warm,
                    load_cycles: load.cycles,
                });
                Ok(())
            }
            Err(ServeError::Sim(_)) => {
                // The run died beyond recovery: the request is dropped,
                // the fabric is released, serving continues.
                if let Some(o) = self.obs.as_mut() {
                    o.lost(now);
                }
                let req = &self.trace.requests[idx];
                self.outcomes.push(RequestOutcome {
                    id: req.id,
                    tenant: req.tenant.clone(),
                    model: req.model.clone(),
                    arrival: req.arrival,
                    admitted: now,
                    finished: now,
                    deadline: req.deadline,
                    tier: None,
                    ok: false,
                    dropped: true,
                    shed: false,
                    service_cycles: 0,
                    queue_cycles: now - req.arrival,
                    latency_cycles: now - req.arrival,
                    energy_pj: 0.0,
                    preemptions: 0,
                    retries: 0,
                    warm: None,
                    load_cycles: 0,
                });
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Retires every run finishing exactly at `now` (in request-id order)
    /// and records its outcome.
    fn complete_at(&mut self, now: u64) {
        // The range scan yields ascending indices; removing from the back
        // keeps the remaining ones valid. Ordering for the report happens
        // afterwards, on the collected runs, by request id.
        let done: Vec<usize> = (0..self.running.len())
            .filter(|&i| self.running[i].done_at == now)
            .collect();
        let mut finished: Vec<Running> = Vec::with_capacity(done.len());
        for &i in done.iter().rev() {
            finished.push(self.running.remove(i));
        }
        finished.sort_by_key(|run| self.trace.requests[run.idx].id);
        for run in finished {
            let req = &self.trace.requests[run.idx];
            if let Some(cache) = self.cache.as_mut() {
                // The completed run's weights stay on its tiles: a later
                // request for the same model admits warm.
                let entry = self.registry.get(&req.model).expect("validated");
                cache.on_release(entry, &run.tiles, now);
            }
            if let Some(o) = self.obs.as_mut() {
                o.completion(now, now - req.arrival);
            }
            self.outcomes.push(RequestOutcome {
                id: req.id,
                tenant: req.tenant.clone(),
                model: req.model.clone(),
                arrival: req.arrival,
                admitted: run.admitted,
                finished: now,
                deadline: req.deadline,
                tier: None,
                ok: run.ok,
                dropped: false,
                shed: false,
                service_cycles: run.done_at - run.admitted,
                queue_cycles: run.admitted - req.arrival,
                latency_cycles: now - req.arrival,
                energy_pj: run.energy_pj,
                preemptions: 0,
                retries: 0,
                warm: if self.cache.is_some() {
                    Some(run.warm)
                } else {
                    None
                },
                load_cycles: run.load_cycles,
            });
        }
    }

    /// The time of the next event: the earliest of the next arrival and
    /// the earliest completion.
    fn next_event(&self, next_arrival: Option<u64>) -> Option<u64> {
        let next_done = self.running.iter().map(|r| r.done_at).min();
        match (next_arrival, next_done) {
            (Some(a), Some(d)) => Some(a.min(d)),
            (Some(a), None) => Some(a),
            (None, Some(d)) => Some(d),
            (None, None) => None,
        }
    }

    fn run_queued(&mut self) -> Result<(), ServeError> {
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut next = 0usize; // next trace index to arrive
        loop {
            let arrival = self.trace.requests.get(next).map(|r| r.arrival);
            let Some(now) = self.next_event(arrival) else {
                break;
            };
            self.complete_at(now);
            if let Some(c) = self.cache.as_mut() {
                c.settle_prefetch(now);
            }
            while next < self.trace.requests.len() && self.trace.requests[next].arrival == now {
                if let Some(c) = self.cache.as_mut() {
                    c.record_arrival(&self.trace.requests[next].model, now);
                }
                if let Some(o) = self.obs.as_mut() {
                    o.arrival(now);
                }
                queue.push_back(next);
                next += 1;
            }
            // Admission: repeatedly pick the policy's head and admit it
            // if it fits; head-blocking otherwise. With a weight cache
            // the fit probe is the cache's pure admission plan (warm
            // tiles or cold placement with cost-aware eviction).
            while let Some(pos) = self.pick(&queue) {
                let idx = queue[pos];
                let entry = self
                    .registry
                    .get(&self.trace.requests[idx].model)
                    .expect("validated");
                if self.cache.is_some() {
                    let Some(plan) = self.plan_for(entry, now) else {
                        if self.running.is_empty() {
                            return Err(ServeError::PoolTooSmall {
                                reason: format!(
                                    "model `{}` no longer fits the empty pool \
                                     ({} tiles degraded)",
                                    entry.name,
                                    self.degraded.len()
                                ),
                            });
                        }
                        break;
                    };
                    queue.remove(pos);
                    self.cache
                        .as_mut()
                        .expect("checked above")
                        .commit(&plan, entry, now);
                    self.admit(idx, now, &[], Some(&plan))?;
                    continue;
                }
                let avoid = self.avoid_now();
                if self.placement(entry, &avoid).is_none() {
                    if self.running.is_empty() {
                        return Err(ServeError::PoolTooSmall {
                            reason: format!(
                                "model `{}` no longer fits the empty pool \
                                 ({} tiles degraded)",
                                entry.name,
                                self.degraded.len()
                            ),
                        });
                    }
                    break;
                }
                queue.remove(pos);
                self.admit(idx, now, &avoid, None)?;
            }
            // With tiles still free and the queue drained (or blocked),
            // stream a predicted model's weights while the fabric works.
            self.try_prefetch(now);
            // Fair-weather requests are untiered; the telemetry stream
            // classifies them as Soft (the default tier).
            if self.obs.is_some() {
                self.obs_sync(now, 0, queue.len() as u64, 0);
            }
        }
        Ok(())
    }

    /// The queue position the policy wants to admit next.
    fn pick(&self, queue: &VecDeque<usize>) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        match self.cfg.policy {
            Policy::Fcfs => Some(0),
            Policy::Sjf => (0..queue.len()).min_by_key(|&p| {
                let req = &self.trace.requests[queue[p]];
                let est = self
                    .registry
                    .get(&req.model)
                    .map_or(u64::MAX, |e| self.est_for(e));
                (est, req.arrival, req.id)
            }),
            _ => unreachable!("run_queued only handles FCFS/SJF"),
        }
    }

    fn run_time_shared(&mut self) -> Result<(), ServeError> {
        // Per-tenant FIFO queues, tenant names in sorted order.
        let mut tenants: Vec<String> = self
            .trace
            .requests
            .iter()
            .map(|r| r.tenant.clone())
            .collect();
        tenants.sort();
        tenants.dedup();
        let mut queues: BTreeMap<String, VecDeque<usize>> = tenants
            .iter()
            .map(|t| (t.clone(), VecDeque::new()))
            .collect();
        let mut cursor = 0usize;
        let mut next = 0usize;
        loop {
            let arrival = self.trace.requests.get(next).map(|r| r.arrival);
            let Some(now) = self.next_event(arrival) else {
                break;
            };
            self.complete_at(now);
            while next < self.trace.requests.len() && self.trace.requests[next].arrival == now {
                let t = self.trace.requests[next].tenant.clone();
                queues.get_mut(&t).expect("tenant known").push_back(next);
                next += 1;
            }
            // One request at a time gets the whole pool; round-robin
            // across tenants with pending work. The outer loop re-tries
            // when an admission drops instantly (the pool is still free).
            while self.running.is_empty() && !tenants.is_empty() {
                let mut admitted = false;
                for step in 0..tenants.len() {
                    let t = &tenants[(cursor + step) % tenants.len()];
                    let Some(&idx) = queues[t].front() else {
                        continue;
                    };
                    let entry = self
                        .registry
                        .get(&self.trace.requests[idx].model)
                        .expect("validated");
                    let avoid = self.avoid_now();
                    if self.placement(entry, &avoid).is_none() {
                        return Err(ServeError::PoolTooSmall {
                            reason: format!(
                                "model `{}` no longer fits the empty pool \
                                 ({} tiles degraded)",
                                entry.name,
                                self.degraded.len()
                            ),
                        });
                    }
                    queues.get_mut(t.as_str()).expect("tenant known").pop_front();
                    cursor = (cursor + step + 1) % tenants.len();
                    self.admit(idx, now, &avoid, None)?;
                    admitted = true;
                    break;
                }
                if !admitted {
                    break;
                }
            }
        }
        Ok(())
    }

    fn run_partitioned(&mut self) -> Result<(), ServeError> {
        // Region sizes: each tenant's largest requested model.
        let mut tenants: Vec<String> = self
            .trace
            .requests
            .iter()
            .map(|r| r.tenant.clone())
            .collect();
        tenants.sort();
        tenants.dedup();
        let need: Vec<usize> = tenants
            .iter()
            .map(|t| {
                self.trace
                    .requests
                    .iter()
                    .filter(|r| &r.tenant == t)
                    .map(|r| self.registry.get(&r.model).expect("validated").tiles)
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let total: usize = need.iter().sum();
        if total > self.pool_size {
            return Err(ServeError::PoolTooSmall {
                reason: format!(
                    "static partition needs {total} tiles for {} tenants, \
                     pool holds {}",
                    tenants.len(),
                    self.pool_size
                ),
            });
        }

        let mut regions = self.carve_regions(&tenants, &need)?;
        // Degraded count as of the last carve: growth past this (admits
        // fold casualties in mid-iteration) means a region lost a tile
        // and the partition must move.
        let mut carved_at = self.degraded.len();
        let mut queues: BTreeMap<String, VecDeque<usize>> = tenants
            .iter()
            .map(|t| (t.clone(), VecDeque::new()))
            .collect();
        let mut next = 0usize;
        loop {
            let arrival = self.trace.requests.get(next).map(|r| r.arrival);
            let Some(now) = self.next_event(arrival) else {
                break;
            };
            self.complete_at(now);
            while next < self.trace.requests.len() && self.trace.requests[next].arrival == now {
                let t = self.trace.requests[next].tenant.clone();
                queues.get_mut(&t).expect("tenant known").push_back(next);
                next += 1;
            }
            if self.degraded.len() > carved_at {
                // A tile died mid-run: re-carve the static partition
                // around the casualty (only free regions move; occupied
                // tiles are excluded from the new carve by avoid_now).
                regions = self.carve_regions(&tenants, &need)?;
                carved_at = self.degraded.len();
            }
            // Each tenant admits onto its own region when free; repeat
            // the pass while it makes progress so an instantly-dropped
            // request doesn't strand the rest of its tenant's queue.
            loop {
                let mut progressed = false;
                for (ti, t) in tenants.iter().enumerate() {
                    let busy = self
                        .running
                        .iter()
                        .any(|r| &self.trace.requests[r.idx].tenant == t);
                    if busy {
                        continue;
                    }
                    let Some(&idx) = queues[t].front() else {
                        continue;
                    };
                    let entry = self
                        .registry
                        .get(&self.trace.requests[idx].model)
                        .expect("validated");
                    // Confine the run to this tenant's region: avoid
                    // everything else.
                    let region = &regions[ti];
                    let avoid: Vec<Tile> = zigzag_order()
                        .into_iter()
                        .filter(|tile| !region.contains(tile) || self.degraded.contains(tile))
                        .collect();
                    if self.placement(entry, &avoid).is_none() {
                        continue; // region shrank below this model; re-carve next event
                    }
                    queues.get_mut(t.as_str()).expect("tenant known").pop_front();
                    self.admit(idx, now, &avoid, None)?;
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
            // Livelock guard: pending work, nothing running, nothing left
            // to arrive, and the admission pass above placed nothing —
            // the remaining regions can no longer host their queue heads
            // and never will.
            let pending: usize = queues.values().map(VecDeque::len).sum();
            if pending > 0 && self.running.is_empty() && next >= self.trace.requests.len() {
                return Err(ServeError::PoolTooSmall {
                    reason: format!(
                        "degradation shrank a partition below its tenant's \
                         footprint ({} tiles degraded)",
                        self.degraded.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Carves consecutive per-tenant regions from the healthy pool
    /// serpentine, skipping degraded and currently occupied tiles.
    fn carve_regions(
        &self,
        tenants: &[String],
        need: &[usize],
    ) -> Result<Vec<Vec<Tile>>, ServeError> {
        let mut avoid = self.mask.clone();
        avoid.extend_from_slice(&self.degraded);
        for r in &self.running {
            avoid.extend_from_slice(&r.tiles);
        }
        let order = healthy_order(&avoid);
        let total: usize = need.iter().sum();
        if order.len() < total {
            return Err(ServeError::PoolTooSmall {
                reason: format!(
                    "static partition needs {total} healthy tiles, {} remain",
                    order.len()
                ),
            });
        }
        let mut regions = Vec::with_capacity(tenants.len());
        let mut offset = 0;
        for &n in need {
            regions.push(order[offset..offset + n].to_vec());
            offset += n;
        }
        Ok(regions)
    }

    // ----- the overload-hardened event loop --------------------------
    //
    // Phase order at every event (DESIGN.md §13):
    //   retire → release retries → arrivals (+ queue-cap shed) →
    //   preempt → admit → shed
    // Admission is strict priority across tiers (policy order within a
    // tier) with head-blocking: the single best candidate either admits
    // or stalls the pass, so a Hard head drains the pool instead of
    // being starved by best-effort backfill.

    /// The tier admission rank plus the in-tier policy key for one
    /// pending entry — the global admission order is the minimum of
    /// `(tier, key, arrival, id)`.
    fn admission_key(&self, p: &Pending) -> (u8, u64, u64, u64) {
        let req = &self.trace.requests[p.idx];
        let key = match self.cfg.policy {
            Policy::Sjf => self
                .registry
                .get(&req.model)
                .map_or(u64::MAX, |e| self.est_for(e))
                .saturating_sub(p.progress),
            _ => 0,
        };
        (p.tier.rank(), key, req.arrival, req.id)
    }

    /// The pending entry admission wants next, if any.
    fn pick_overload(&self, pending: &[Pending]) -> Option<usize> {
        (0..pending.len()).min_by_key(|&i| self.admission_key(&pending[i]))
    }

    /// Records a shed: the request is dropped without ever touching the
    /// fabric (queue overflow, a busted deadline estimate, or a pool
    /// that can no longer hold its model).
    fn push_shed(&mut self, p: Pending, now: u64) {
        if let Some(o) = self.obs.as_mut() {
            o.shed(now);
        }
        let req = &self.trace.requests[p.idx];
        let latency = now - req.arrival;
        self.outcomes.push(RequestOutcome {
            id: req.id,
            tenant: req.tenant.clone(),
            model: req.model.clone(),
            arrival: req.arrival,
            admitted: now,
            finished: now,
            deadline: req.deadline,
            tier: Some(p.tier),
            ok: false,
            dropped: true,
            shed: true,
            service_cycles: p.executed,
            queue_cycles: latency.saturating_sub(p.executed),
            latency_cycles: latency,
            energy_pj: 0.0,
            preemptions: p.preemptions,
            retries: p.retries,
            warm: None,
            load_cycles: 0,
        });
    }

    /// Retires every run finishing exactly at `now`, with the overload
    /// loop's accounting: occupancy bills at completion (preempted
    /// segments billed at eviction), and service time includes the
    /// preempted partial runs.
    fn complete_overload_at(&mut self, now: u64) {
        let done: Vec<usize> = (0..self.running.len())
            .filter(|&i| self.running[i].done_at == now)
            .collect();
        let mut finished: Vec<Running> = Vec::with_capacity(done.len());
        for &i in done.iter().rev() {
            finished.push(self.running.remove(i));
        }
        finished.sort_by_key(|run| self.trace.requests[run.idx].id);
        for run in finished {
            let req = &self.trace.requests[run.idx];
            if let Some(cache) = self.cache.as_mut() {
                let entry = self.registry.get(&req.model).expect("validated");
                cache.on_release(entry, &run.tiles, now);
            }
            let segment = run.done_at - run.admitted;
            self.busy_tile_cycles += segment * run.tiles.len() as u64;
            let service = run.executed + segment;
            let latency = now - req.arrival;
            if let Some(o) = self.obs.as_mut() {
                o.completion(now, latency);
            }
            self.outcomes.push(RequestOutcome {
                id: req.id,
                tenant: req.tenant.clone(),
                model: req.model.clone(),
                arrival: req.arrival,
                admitted: run.admitted,
                finished: now,
                deadline: req.deadline,
                tier: Some(run.tier),
                ok: run.ok,
                dropped: false,
                shed: false,
                service_cycles: service,
                queue_cycles: latency.saturating_sub(service),
                latency_cycles: latency,
                energy_pj: run.energy_pj,
                preemptions: run.preemptions,
                retries: run.retries,
                warm: if self.cache.is_some() {
                    Some(run.warm)
                } else {
                    None
                },
                load_cycles: run.load_cycles,
            });
        }
    }

    /// If the admission head is a blocked `Hard` request, evicts running
    /// `BestEffort` work (most recently admitted first) until the head
    /// fits — but only when eviction can actually make it fit. A victim
    /// resumes from the latest sink-progress checkpoint of its current
    /// run at or before the preemption point (restarting from zero when
    /// no [`RecoveryPolicy`] armed the checkpoint machinery), and
    /// re-enters its tenant's queue with its original seniority.
    fn preempt_for_hard(&mut self, pending: &mut Vec<Pending>, now: u64) {
        let Some(pos) = self.pick_overload(pending) else {
            return;
        };
        if pending[pos].tier != Tier::Hard {
            return;
        }
        let entry = self
            .registry
            .get(&self.trace.requests[pending[pos].idx].model)
            .expect("validated");
        if self.placement(entry, &self.avoid_now()).is_some() {
            return; // fits without violence
        }
        // Pointless-eviction guard: would it fit even with every
        // best-effort runner gone?
        let mut avoid_no_be = self.mask.clone();
        avoid_no_be.extend_from_slice(&self.degraded);
        for r in &self.running {
            if r.tier != Tier::BestEffort {
                avoid_no_be.extend_from_slice(&r.tiles);
            }
        }
        if self.placement(entry, &avoid_no_be).is_none() {
            return;
        }
        while self.placement(entry, &self.avoid_now()).is_none() {
            let victim = (0..self.running.len())
                .filter(|&i| self.running[i].tier == Tier::BestEffort)
                .max_by_key(|&i| {
                    (
                        self.running[i].admitted,
                        self.trace.requests[self.running[i].idx].id,
                    )
                });
            let Some(vi) = victim else { break };
            let v = self.running.remove(vi);
            let elapsed = now - v.admitted;
            self.busy_tile_cycles += elapsed * v.tiles.len() as u64;
            if let Some(cache) = self.cache.as_mut() {
                // The victim resumes from its checkpoint later; its
                // weights stay on the vacated tiles so a resume there is
                // warm instead of silently paying a cold reload. (The
                // preemptor's own placement will evict the set only if it
                // actually overlaps those tiles.)
                let entry = self
                    .registry
                    .get(&self.trace.requests[v.idx].model)
                    .expect("validated");
                cache.on_release(entry, &v.tiles, now);
            }
            // The victim's position in its (full-model) run timeline is
            // carried progress + elapsed wall time; it keeps the latest
            // checkpoint at or before that point.
            let position = v.progress + elapsed;
            let kept = v
                .ckpt_log
                .iter()
                .copied()
                .filter(|&c| c <= position)
                .max()
                .unwrap_or(0);
            pending.push(Pending {
                idx: v.idx,
                tier: v.tier,
                progress: kept,
                executed: v.executed + elapsed,
                attempt: v.attempt,
                retries: v.retries,
                preemptions: v.preemptions + 1,
                available_at: now,
            });
        }
    }

    /// Admits one pending entry: runs it (under its attempt's fault
    /// salt), folds casualties into the pool, and schedules completion
    /// after the cycles its carried checkpoint progress still owes. An
    /// unrecoverable run re-enters admission as an elevated-priority
    /// retry while budget lasts, else drops.
    fn admit_overload(
        &mut self,
        p: Pending,
        now: u64,
        avoid: &[Tile],
        plan: Option<&AdmissionPlan>,
        parked: &mut Vec<Pending>,
        tenant_retries: &mut BTreeMap<String, u32>,
    ) -> Result<(), ServeError> {
        let req = &self.trace.requests[p.idx];
        let (req_id, tenant) = (req.id, req.tenant.clone());
        let entry = self.registry.get(&req.model).expect("validated");
        let (avoid, warm, load) = match plan {
            Some(pl) => (
                zigzag_order()
                    .into_iter()
                    .filter(|t| !pl.tiles.contains(t))
                    .collect::<Vec<Tile>>(),
                pl.warm,
                pl.load,
            ),
            None => (avoid.to_vec(), false, maicc_mem::tier::LoadCost::default()),
        };
        let tiles = self
            .placement(entry, &avoid)
            .expect("caller checked fit before admitting");
        match self.run_one(entry, &avoid, req_id, p.attempt, warm) {
            Ok(out) => {
                let mut newly_degraded = 0u64;
                for t in out.newly_retired {
                    if !self.degraded.contains(&t) {
                        self.degraded.push(t);
                        newly_degraded += 1;
                    }
                }
                self.degraded.sort_unstable_by_key(|t| (t.y, t.x));
                if let Some(c) = self.cache.as_mut() {
                    c.retire_tiles(&self.degraded);
                }
                if let Some(o) = self.obs.as_mut() {
                    o.admission(now, out.ecc_corrected, out.noc_retransmits, newly_degraded);
                }
                let occupied = if self.degraded.is_empty() {
                    tiles
                } else {
                    let mut post = avoid.clone();
                    post.extend(self.degraded.iter().copied());
                    match self.placement(entry, &post) {
                        Some(placed) => placed,
                        None => tiles
                            .into_iter()
                            .filter(|t| !self.degraded.contains(t))
                            .collect(),
                    }
                };
                // A resumed run re-pays the load only when the weights are
                // gone (cold); a warm resume on its old tiles pays nothing.
                let remaining =
                    out.cycles.saturating_sub(p.progress).max(1) + load.cycles;
                self.running.push(Running {
                    idx: p.idx,
                    admitted: now,
                    done_at: now + remaining,
                    tiles: occupied,
                    ok: out.ok,
                    energy_pj: out.energy_pj + load.energy_pj,
                    tier: p.tier,
                    progress: p.progress,
                    executed: p.executed,
                    ckpt_log: out.ckpt_log,
                    attempt: p.attempt,
                    retries: p.retries,
                    preemptions: p.preemptions,
                    warm,
                    load_cycles: load.cycles,
                });
                Ok(())
            }
            Err(ServeError::Sim(_)) => {
                // Unrecoverable. Retry with backoff at elevated priority
                // while the budgets last; the failed attempt occupies no
                // fabric time.
                let used = tenant_retries.get(&tenant).copied().unwrap_or(0);
                if let Some(budget) = self.cfg.retry_budget {
                    if p.attempt < budget.max_retries_per_request
                        && used < budget.per_tenant_retries
                    {
                        *tenant_retries.entry(tenant).or_insert(0) += 1;
                        parked.push(Pending {
                            tier: p.tier.elevated(),
                            progress: 0,
                            attempt: p.attempt + 1,
                            retries: p.retries + 1,
                            available_at: now + budget.backoff_cycles(p.attempt),
                            ..p
                        });
                        return Ok(());
                    }
                }
                if let Some(o) = self.obs.as_mut() {
                    o.lost(now);
                }
                let req = &self.trace.requests[p.idx];
                let latency = now - req.arrival;
                self.outcomes.push(RequestOutcome {
                    id: req.id,
                    tenant: req.tenant.clone(),
                    model: req.model.clone(),
                    arrival: req.arrival,
                    admitted: now,
                    finished: now,
                    deadline: req.deadline,
                    tier: Some(p.tier),
                    ok: false,
                    dropped: true,
                    shed: false,
                    service_cycles: p.executed,
                    queue_cycles: latency.saturating_sub(p.executed),
                    latency_cycles: latency,
                    energy_pj: 0.0,
                    preemptions: p.preemptions,
                    retries: p.retries,
                    warm: None,
                    load_cycles: 0,
                });
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn run_overload(&mut self) -> Result<(), ServeError> {
        let ov = self.cfg.overload.clone().expect("dispatch checked");
        let mut pending: Vec<Pending> = Vec::new();
        let mut parked: Vec<Pending> = Vec::new();
        let mut tenant_retries: BTreeMap<String, u32> = BTreeMap::new();
        let mut above_since: Option<u64> = None;
        let mut next = 0usize;
        loop {
            let arrival = self.trace.requests.get(next).map(|r| r.arrival);
            let release = parked.iter().map(|p| p.available_at).min();
            let done = self.running.iter().map(|r| r.done_at).min();
            let Some(now) = [arrival, release, done].into_iter().flatten().min()
            else {
                break;
            };

            // Phase 1: retire finished runs, then release retries whose
            // backoff expired, then fold in arrivals (shedding past the
            // per-tenant queue cap).
            self.complete_overload_at(now);
            if let Some(c) = self.cache.as_mut() {
                c.settle_prefetch(now);
            }
            let mut i = 0;
            while i < parked.len() {
                if parked[i].available_at <= now {
                    pending.push(parked.remove(i));
                } else {
                    i += 1;
                }
            }
            while next < self.trace.requests.len()
                && self.trace.requests[next].arrival == now
            {
                if let Some(cache) = self.cache.as_mut() {
                    let model = &self.trace.requests[next].model;
                    cache.record_arrival(model, now);
                }
                let tenant = self.trace.requests[next].tenant.clone();
                let tier = ov.tier_of(&tenant);
                let waiting = pending
                    .iter()
                    .filter(|p| self.trace.requests[p.idx].tenant == tenant)
                    .count();
                if let Some(o) = self.obs.as_mut() {
                    o.arrival(now);
                }
                let arrival_entry = Pending {
                    idx: next,
                    tier,
                    progress: 0,
                    executed: 0,
                    attempt: 0,
                    retries: 0,
                    preemptions: 0,
                    available_at: now,
                };
                if ov.queue_cap > 0 && waiting >= ov.queue_cap {
                    self.push_shed(arrival_entry, now);
                } else {
                    pending.push(arrival_entry);
                }
                next += 1;
            }

            // Brownout streak: instantaneous occupancy after retirement,
            // sampled once per event. Active once the streak covers the
            // window; it collapses the first event occupancy dips below
            // the high-water mark.
            let pool_now = self.pool_size.saturating_sub(self.degraded.len());
            let brownout = ov.brownout.as_ref().map(|b| {
                let occupied: usize =
                    self.running.iter().map(|r| r.tiles.len()).sum();
                #[allow(clippy::cast_precision_loss)]
                let high = pool_now > 0
                    && occupied as f64 / pool_now as f64 >= b.high_water;
                if high {
                    above_since.get_or_insert(now);
                } else {
                    above_since = None;
                }
                (
                    above_since.is_some_and(|s| now - s >= b.window_cycles),
                    b.best_effort_fraction,
                )
            });

            // Phase 2: preempt for a blocked Hard head.
            if ov.preempt {
                self.preempt_for_hard(&mut pending, now);
            }

            // Phase 3: admit in strict (tier, policy) order with
            // head-blocking.
            while let Some(pos) = self.pick_overload(&pending) {
                let req = &self.trace.requests[pending[pos].idx];
                let entry = self.registry.get(&req.model).expect("validated");
                let avoid = self.avoid_now();
                if self.placement(entry, &avoid).is_none() {
                    break;
                }
                if let Some((true, fraction)) = brownout {
                    if pending[pos].tier == Tier::BestEffort {
                        let be_occupied: usize = self
                            .running
                            .iter()
                            .filter(|r| r.tier == Tier::BestEffort)
                            .map(|r| r.tiles.len())
                            .sum();
                        let pool_now =
                            self.pool_size.saturating_sub(self.degraded.len());
                        #[allow(
                            clippy::cast_precision_loss,
                            clippy::cast_possible_truncation,
                            clippy::cast_sign_loss
                        )]
                        let cap = (pool_now as f64 * fraction).floor() as usize;
                        if be_occupied + entry.tiles > cap {
                            break;
                        }
                    }
                }
                let p = pending.remove(pos);
                if self.cache.is_some() {
                    let entry = self
                        .registry
                        .get(&self.trace.requests[p.idx].model)
                        .expect("validated");
                    let plan = self
                        .plan_for(entry, now)
                        .expect("placement succeeded, so the cache can plan");
                    self.cache
                        .as_mut()
                        .expect("checked above")
                        .commit(&plan, entry, now);
                    self.admit_overload(
                        p,
                        now,
                        &[],
                        Some(&plan),
                        &mut parked,
                        &mut tenant_retries,
                    )?;
                } else {
                    self.admit_overload(
                        p,
                        now,
                        &avoid,
                        None,
                        &mut parked,
                        &mut tenant_retries,
                    )?;
                }
            }

            // Phase 4: deadline-aware shedding of the remaining backlog.
            // Retries are exempt — they exist to deliver a result, late
            // or not.
            if ov.shed_late {
                let mut i = 0;
                while i < pending.len() {
                    let p = &pending[i];
                    let req = &self.trace.requests[p.idx];
                    let hopeless = p.attempt == 0
                        && req.deadline.is_some_and(|d| {
                            let est = self
                                .registry
                                .get(&req.model)
                                .map_or(0, |e| self.est_for(e));
                            now + est.saturating_sub(p.progress) > d
                        });
                    if hopeless {
                        let p = pending.remove(i);
                        self.push_shed(p, now);
                    } else {
                        i += 1;
                    }
                }
            }

            // Termination guard: with an idle fabric, nothing left to
            // arrive or release, and a head that still cannot place, the
            // head will never fit the (degraded) empty pool — shed it
            // and let the rest of the backlog try again.
            while self.running.is_empty()
                && next >= self.trace.requests.len()
                && parked.is_empty()
                && !pending.is_empty()
            {
                let pos = self.pick_overload(&pending).expect("non-empty");
                let req = &self.trace.requests[pending[pos].idx];
                let entry = self.registry.get(&req.model).expect("validated");
                let avoid = self.avoid_now();
                if self.placement(entry, &avoid).is_some() {
                    let p = pending.remove(pos);
                    if self.cache.is_some() {
                        let entry = self
                            .registry
                            .get(&self.trace.requests[p.idx].model)
                            .expect("validated");
                        let plan = self
                            .plan_for(entry, now)
                            .expect("placement succeeded, so the cache can plan");
                        self.cache
                            .as_mut()
                            .expect("checked above")
                            .commit(&plan, entry, now);
                        self.admit_overload(
                            p,
                            now,
                            &[],
                            Some(&plan),
                            &mut parked,
                            &mut tenant_retries,
                        )?;
                    } else {
                        self.admit_overload(
                            p,
                            now,
                            &avoid,
                            None,
                            &mut parked,
                            &mut tenant_retries,
                        )?;
                    }
                } else {
                    let p = pending.remove(pos);
                    self.push_shed(p, now);
                }
            }

            self.try_prefetch(now);
            if self.obs.is_some() {
                let mut depth = [0u64; 3];
                for p in &pending {
                    depth[p.tier.rank() as usize] += 1;
                }
                self.obs_sync(now, depth[0], depth[1], depth[2]);
            }
        }
        Ok(())
    }
}
