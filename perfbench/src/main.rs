//! Serving benchmark for the MAICC reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_repeat --seed 1 --seconds 20 --trace 0 [--seeds 1,2,3]
//! ```
//!
//! One op is one serving call over one pre-generated trace plus the op's
//! correctness check. Ops run back to back on one thread (closed loop on
//! the host; requests inside the simulated fabric arrive open-loop on the
//! trace's schedule). Every run covers the trace seed set a whole number
//! of times; `--seed` only shuffles the order of each pass. The last line
//! of standard output is the result as one JSON object. `--trace 1`
//! alternates untraced and traced passes, then runs the layer probes,
//! and prints the per-layer metrics instead of the end-to-end ones.
//! See `perfbench/NOTES.md` for the workloads and metrics.

mod span;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use maicc_mem::tier::dram_load;
use maicc_serve::cluster::ClusterReport;
use maicc_serve::server::ServeConfig;
use maicc_serve::slo::{CacheReport, RequestOutcome, ServeReport};
use maicc_sim::stream::StreamSim;

use span::{self_times, Tracer};
use workload::{Input, Kind, Report, Setup};

/// Trace seeds every run covers unless `--seeds` names others.
const DEFAULT_SEEDS: [u64; 7] = [1, 2, 3, 4, 5, 6, 7];
/// Registry builds timed for `setup_s` before the first op...
const SETUP_REPS: usize = 21;
/// ...and again after every pass, so the median samples the whole run.
const SETUP_REPS_PER_PASS: usize = 8;
/// Repetitions of each per-model probe in the traced run.
const PROBE_REPS: usize = 5;

/// Where the traced run writes its spans, relative to the working directory.
const SPANS_DIR: &str = ".perfbench_out";

const USAGE: &str = "usage: maicc-perfbench --workload <serve_repeat|serve_overload|cluster_soak> \
--seed <n> --seconds <n> --trace <0|1> [--seeds <n,n,...>]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    seeds: Vec<u64>,
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut seeds = DEFAULT_SEEDS.to_vec();
    while let Some(flag) = argv.next() {
        let v = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(parse_u64(&flag, &v)?),
            "--seconds" => seconds = Some(parse_u64(&flag, &v)?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                });
            }
            "--seeds" => {
                seeds = v
                    .split(',')
                    .map(|s| parse_u64(&flag, s))
                    .collect::<Result<_, _>>()?;
                if seeds.is_empty() {
                    return Err("--seeds is empty".into());
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let missing = |name: &str| format!("{name} is required");
    Ok(Args {
        kind: kind.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        seeds,
    })
}

/// splitmix64: the pass-order shuffle's generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order pass `pass` visits the `n` inputs in: a Fisher-Yates
/// shuffle seeded by the run seed and the pass number.
fn pass_order(n: usize, run_seed: u64, pass: u64) -> Vec<usize> {
    let mut state = run_seed ^ pass.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median(mut ns: Vec<u64>) -> u64 {
    ns.sort_unstable();
    stats::percentile(&ns, 50.0).expect("median of an empty sample")
}

/// Metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric value must be finite");
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push('}');
        s
    }
}

/// Host-side state of one benchmark run.
struct Bench<'a> {
    kind: Kind,
    setup: &'a Setup,
    inputs: &'a [Input],
    /// Digest of each input's first op.
    reference: Vec<Option<u64>>,
    tracer: Tracer,
    next_op: u64,
    attempted: u64,
    /// Ops whose call or check failed.
    failed: u64,
    /// Every failed check, ops and probes alike.
    failures: Vec<String>,
}

impl Bench<'_> {
    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Runs one op on input `i`: the serving call, the report's JSON, and
    /// the check. Returns the op's host time and, if it passed, its report.
    fn op(&mut self, i: usize) -> (u64, Option<Report>) {
        let id = self.op_id();
        self.attempted += 1;
        let input = &self.inputs[i];
        let t0 = Instant::now();
        let root = self.tracer.enter("op", id);
        let call = self.tracer.enter("serve.call", id);
        let result = workload::call(self.setup, input, self.kind.obs_in_op());
        self.tracer.exit(call);
        let verdict = result
            .map_err(|e| format!("seed {}: {e}", input.seed))
            .and_then(|report| {
                let js = self.tracer.enter("slo.to_json", id);
                let json = report.to_json();
                self.tracer.exit(js);
                let ck = self.tracer.enter("check", id);
                let digest = stats::fnv1a(
                    stats::digest(&json),
                    report.stream().unwrap_or_default().as_bytes(),
                );
                let checked = workload::check(self.setup, input, &report).and_then(|()| {
                    let want = *self.reference[i].get_or_insert(digest);
                    if want == digest {
                        Ok(report)
                    } else {
                        Err(format!(
                            "seed {}: report digest {digest:016x} differs from first op's {want:016x}",
                            input.seed
                        ))
                    }
                });
                self.tracer.exit(ck);
                checked
            });
        self.tracer.exit(root);
        let ns = u64::try_from(t0.elapsed().as_nanos()).expect("op shorter than 584 years");
        match verdict {
            Ok(report) => (ns, Some(report)),
            Err(e) => {
                self.failed += 1;
                self.failures.push(e);
                (ns, None)
            }
        }
    }
}

/// Simulated results pooled over one pass of the seed set.
struct Pooled<'a> {
    reports: &'a [Report],
}

impl Pooled<'_> {
    fn serve(&self) -> impl Iterator<Item = &ServeReport> {
        self.reports.iter().map(Report::serve)
    }

    fn completed(&self) -> impl Iterator<Item = &RequestOutcome> {
        self.serve()
            .flat_map(|s| s.outcomes.iter())
            .filter(|o| !o.dropped)
    }

    fn sorted(&self, f: impl Fn(&RequestOutcome) -> u64) -> Vec<u64> {
        let mut v: Vec<u64> = self.completed().map(f).collect();
        v.sort_unstable();
        v
    }

    fn sum(&self, f: impl Fn(&ServeReport) -> u64) -> f64 {
        self.serve().map(f).sum::<u64>() as f64
    }

    fn mean_completed(&self, f: impl Fn(&RequestOutcome) -> u64) -> f64 {
        let n = self.completed().count().max(1) as f64;
        self.completed().map(f).sum::<u64>() as f64 / n
    }

    fn cluster_sum(&self, f: impl Fn(&ClusterReport) -> u64) -> f64 {
        self.reports
            .iter()
            .filter_map(Report::cluster)
            .map(f)
            .sum::<u64>() as f64
    }

    fn cluster_median(&self, f: impl Fn(&ClusterReport) -> u64) -> f64 {
        let v: Vec<u64> = self
            .reports
            .iter()
            .filter_map(Report::cluster)
            .map(f)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(v) as f64
        }
    }

    /// The end-to-end simulated metrics.
    fn end_to_end(&self, m: &mut Metrics, notes: &mut Vec<String>) -> Result<(), String> {
        let lat = self.sorted(|o| o.latency_cycles);
        let p50 = stats::percentile(&lat, 50.0).ok_or("no request completed")?;
        let tail = stats::tail(&lat).ok_or("too few completions for a tail percentile")?;
        let offered: usize = self.serve().map(|s| s.outcomes.len()).sum();
        let missed = self
            .serve()
            .flat_map(|s| s.outcomes.iter())
            .filter(|o| o.dropped || o.missed_deadline())
            .count();
        let energy: f64 = self.completed().map(|o| o.energy_pj).sum();
        m.put("sim_p50_cycles", p50 as f64, "cycles");
        m.put("sim_tail_cycles", tail.value as f64, "cycles");
        m.put("sim_slo_miss_rate", missed as f64 / offered as f64, "ratio");
        m.put("energy_pj_per_req", energy / lat.len() as f64, "pJ");
        notes.push(format!(
            "sim: {} offered, {} completed, {missed} missed their SLO; p50 {p50} cycles; \
             tail = p{} {} cycles ({} samples, {} beyond)",
            offered,
            lat.len(),
            tail.pct,
            tail.value,
            tail.samples,
            tail.beyond
        ));
        Ok(())
    }

    /// Per-layer counts and cycle figures taken from the reports.
    fn layers(&self, m: &mut Metrics) {
        let q = self.sorted(|o| o.queue_cycles);
        m.put(
            "serve.queue_p50_cycles",
            stats::percentile(&q, 50.0).unwrap_or(0) as f64,
            "cycles",
        );
        m.put(
            "serve.service_mean_cycles",
            self.mean_completed(|o| o.service_cycles),
            "cycles",
        );
        let util: f64 = self.serve().map(|s| s.utilization).sum();
        m.put(
            "serve.utilization",
            util / self.reports.len() as f64,
            "ratio",
        );

        let cache = |f: fn(&CacheReport) -> u64| {
            self.serve()
                .filter_map(|s| s.cache.as_ref())
                .map(f)
                .sum::<u64>() as f64
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let (hits, misses) = (cache(|c| c.hits), cache(|c| c.misses));
        m.put("cache.hit_rate", ratio(hits, hits + misses), "ratio");
        m.put("cache.evictions", cache(|c| c.evictions), "count");
        m.put("cache.llc_hits", cache(|c| c.llc_hits), "count");
        m.put(
            "cache.prefetch_accuracy",
            ratio(cache(|c| c.prefetch_used), cache(|c| c.prefetch_issued)),
            "ratio",
        );
        m.put(
            "cache.load_mean_cycles",
            self.mean_completed(|o| o.load_cycles),
            "cycles",
        );

        m.put("overload.shed", self.sum(|s| s.shed), "count");
        m.put("overload.preemptions", self.sum(|s| s.preemptions), "count");
        m.put("overload.retries", self.sum(|s| s.retries), "count");
        m.put(
            "overload.unrecoverable",
            self.sum(|s| s.unrecoverable),
            "count",
        );

        m.put(
            "cluster.failovers",
            self.cluster_sum(|c| c.failovers),
            "count",
        );
        m.put(
            "cluster.detect_p50_cycles",
            self.cluster_median(|c| c.detect_p50_cycles),
            "cycles",
        );
        m.put(
            "cluster.failover_p99_cycles",
            self.cluster_median(|c| c.failover_p99_cycles),
            "cycles",
        );
        m.put(
            "cluster.shed",
            self.cluster_sum(|c| c.cluster_shed),
            "count",
        );
        m.put(
            "cluster.lost",
            self.cluster_sum(|c| c.requests_lost),
            "count",
        );
    }
}

/// Minor page faults and user / system CPU ticks of this process so far.
#[derive(Clone, Copy)]
struct ProcStat {
    minflt: u64,
    utime: u64,
    stime: u64,
}

fn proc_stat() -> Result<ProcStat, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // fields after the parenthesised command name, starting at field 3
    let rest: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, r)| r.split_whitespace().collect())
        .unwrap_or_default();
    let field = |n: usize| -> Result<u64, String> {
        rest.get(n - 3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat has no field {n}"))
    };
    Ok(ProcStat {
        minflt: field(10)?,
        utime: field(14)?,
        stime: field(15)?,
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Traced-run probes: each registry model's DRAM tier pricing and bare
/// `StreamSim` run, then every seed served with the obs recorder flipped
/// relative to the op (paired, order alternating), whose report must be
/// byte-identical to the op's.
fn probes(b: &mut Bench, m: &mut Metrics, notes: &mut Vec<String>) {
    b.tracer.set_enabled(true);
    let setup = b.setup;
    let entries = setup.registry.entries();
    for e in entries {
        let ns: Vec<u64> = (0..PROBE_REPS)
            .map(|_| {
                let id = b.op_id();
                let s = b.tracer.enter("mem.dram_load", id);
                black_box(dram_load(black_box(e.weight_bytes)));
                b.tracer.exit(s)
            })
            .collect();
        m.put(format!("mem.dram_load_ms.{}", e.name), ms(median(ns)), "ms");
    }
    let budget = ServeConfig::default().run_budget;
    for e in entries {
        let mut runs = Vec::new();
        for _ in 0..PROBE_REPS {
            let id = b.op_id();
            let s = b.tracer.enter("sim.run", id);
            let result = StreamSim::new(&e.stream).and_then(|mut sim| sim.run(budget));
            let ns = b.tracer.exit(s);
            match result {
                Ok(r) if r.ofmap == e.golden => runs.push((ns, r)),
                Ok(_) => b
                    .failures
                    .push(format!("StreamSim {} ofmap differs from golden", e.name)),
                Err(err) => b.failures.push(format!("StreamSim {}: {err}", e.name)),
            }
        }
        let Some((_, r)) = runs.first() else { continue };
        let (cycles, hops, cmem_pj) = (r.cycles, r.noc.flit_hops, r.cmem_pj);
        let run_ns = median(runs.iter().map(|(ns, _)| *ns).collect());
        m.put(format!("sim.run_ms.{}", e.name), ms(run_ns), "ms");
        m.put(
            format!("sim.host_ns_per_cycle.{}", e.name),
            run_ns as f64 / cycles as f64,
            "ns/cycle",
        );
        m.put(
            format!("sim.noc_flit_hops.{}", e.name),
            hops as f64,
            "count",
        );
        m.put(format!("sim.cmem_pj.{}", e.name), cmem_pj, "pJ");
    }

    let op_obs = b.kind.obs_in_op();
    let (mut diffs, mut windows, mut bytes) = (Vec::new(), 0usize, 0usize);
    for (i, input) in b.inputs.iter().enumerate() {
        let mut timed = [0u64; 2];
        let mut jsons: [String; 2] = Default::default();
        for k in 0..2 {
            // alternate which arm runs first, seed by seed
            let obs = (k + i) % 2 == 0;
            let id = b.op_id();
            let s = b.tracer.enter(if obs { "obs.on" } else { "obs.off" }, id);
            let result = workload::call(setup, input, obs);
            timed[usize::from(obs)] = b.tracer.exit(s);
            match result {
                Ok(r) => {
                    if obs {
                        let stream = r.stream().unwrap_or_default();
                        windows += stream.lines().count();
                        bytes += stream.len();
                    }
                    jsons[usize::from(obs)] = r.to_json();
                }
                Err(e) => b
                    .failures
                    .push(format!("seed {} obs={obs}: {e}", input.seed)),
            }
        }
        if jsons[0] != jsons[1] {
            b.failures.push(format!(
                "seed {}: report differs with the obs recorder on",
                input.seed
            ));
        }
        #[allow(clippy::cast_possible_wrap)]
        diffs.push(timed[1] as i64 - timed[0] as i64);
    }
    diffs.sort_unstable();
    let overhead = diffs[stats::rank(50.0, diffs.len()) - 1];
    m.put("obs.overhead_ms", overhead as f64 / 1e6, "ms");
    m.put("obs.windows", windows as f64, "count");
    m.put("obs.stream_bytes", bytes as f64, "bytes");
    notes.push(format!(
        "obs probe: {} seeds, the op runs with obs {}; overhead = median over seeds of (on - off)",
        diffs.len(),
        if op_obs { "on" } else { "off" }
    ));
    b.tracer.set_enabled(false);
}

/// Per-layer metrics of the traced passes: each layer's mean self time
/// per op, with `op.other_ms` the op's own self time, so the layer means
/// sum to `op.mean_ms`. Checks per op that self times sum to the op.
fn op_layers(
    b: &mut Bench,
    plain_best: u64,
    traced_pass: &[u64],
    m: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let spans = b.tracer.spans();
    let selfs = self_times(spans);
    let layers = [
        ("serve.call", "serve.call_ms"),
        ("slo.to_json", "slo.to_json_ms"),
        ("check", "op.check_ms"),
    ];
    let mut totals = [0u64; 3];
    let (mut ops, mut op_total, mut other, mut worst) = (0u64, 0u64, 0u64, 0u64);
    for (root, s) in spans.iter().enumerate().filter(|(_, s)| s.name == "op") {
        let mut sum = 0;
        for (j, c) in spans.iter().enumerate().filter(|(_, c)| c.op == s.op) {
            sum += selfs[j];
            if let Some(k) = layers.iter().position(|(n, _)| *n == c.name) {
                totals[k] += selfs[j];
            }
        }
        worst = worst.max(sum.abs_diff(s.dur_ns()));
        ops += 1;
        op_total += s.dur_ns();
        other += selfs[root];
    }
    if worst != 0 {
        b.failures.push(format!(
            "span self times miss their op's time by up to {worst} ns"
        ));
    }
    let per_op = |ns: u64| ms(ns) / ops.max(1) as f64;
    for ((_, metric), t) in layers.iter().zip(totals) {
        m.put(*metric, per_op(t), "ms");
    }
    m.put("op.other_ms", per_op(other), "ms");
    m.put("op.mean_ms", per_op(op_total), "ms");
    let traced_best = *traced_pass.iter().min().expect("at least one traced pass");
    #[allow(clippy::cast_possible_wrap)]
    let overhead = traced_best as i64 - plain_best as i64;
    m.put("trace.overhead_ms", overhead as f64 / 1e6, "ms");
    notes.push(format!(
        "trace: {ops} traced ops; self times + other reconcile with op time (max residual {worst} ns); \
         best traced pass {:.3} ms/op vs best untraced pass {:.3} ms/op",
        ms(traced_best),
        ms(plain_best)
    ));
}

fn run(args: &Args) -> Result<(), String> {
    let mut tracer = Tracer::new();
    tracer.set_enabled(args.trace);
    let mut setup_ns = Vec::new();
    let mut build = |tracer: &mut Tracer, id: u64| {
        let s = tracer.enter("registry.build", id);
        let t0 = Instant::now();
        let setup = black_box(workload::setup(args.kind));
        setup_ns.push(u64::try_from(t0.elapsed().as_nanos()).expect("fits"));
        tracer.exit(s);
        setup
    };
    let mut setup = None;
    for i in 0..SETUP_REPS {
        setup = Some(build(&mut tracer, i as u64));
    }
    tracer.set_enabled(false);
    let setup = setup.expect("SETUP_REPS > 0");

    let inputs: Vec<Input> = args
        .seeds
        .iter()
        .map(|&s| workload::input(args.kind, &setup, s))
        .collect();
    let mut b = Bench {
        kind: args.kind,
        setup: &setup,
        inputs: &inputs,
        reference: vec![None; inputs.len()],
        tracer,
        next_op: SETUP_REPS as u64,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    // The first pass, in seed order, fixes each seed's reference digest
    // and supplies the simulated metrics; it is not timed.
    let first: Vec<Report> = (0..inputs.len()).filter_map(|i| b.op(i).1).collect();

    let budget = Duration::from_secs(args.seconds);
    let stat_before = proc_stat()?;
    let start = Instant::now();
    // per-op times of untraced passes, and each pass's mean op time
    let (mut plain, mut plain_pass, mut traced_pass) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_seed = vec![Vec::new(); inputs.len()];
    let mut pass = 0u64;
    loop {
        let tracing = args.trace && pass % 2 == 1;
        b.tracer.set_enabled(tracing);
        let mut total = 0;
        for i in pass_order(inputs.len(), args.seed, pass) {
            let (ns, _) = b.op(i);
            total += ns;
            if !tracing {
                plain.push(ns);
                by_seed[i].push(ns);
            }
        }
        b.tracer.set_enabled(false);
        if tracing {
            &mut traced_pass
        } else {
            &mut plain_pass
        }
        .push(total / inputs.len() as u64);
        for _ in 0..SETUP_REPS_PER_PASS {
            build(&mut b.tracer, 0);
        }
        pass += 1;
        if start.elapsed() >= budget && (!args.trace || pass.is_multiple_of(2)) {
            break;
        }
    }

    let stat_after = proc_stat()?;
    let timed_ops = b.attempted - inputs.len() as u64;
    let faults_per_op = (stat_after.minflt - stat_before.minflt) as f64 / timed_ops as f64;
    let (user, sys) = (
        stat_after.utime - stat_before.utime,
        stat_after.stime - stat_before.stime,
    );
    let sys_share = sys as f64 / (user + sys).max(1) as f64;

    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let pooled = Pooled { reports: &first };
    let digests: Vec<u64> = b.reference.iter().map(|d| d.unwrap_or(0)).collect();
    notes.push(format!(
        "workload {}: seeds {:?}, order seed {}, {} timed passes, {} ops attempted",
        args.kind.name(),
        args.seeds,
        args.seed,
        pass,
        b.attempted
    ));
    if first.len() == inputs.len() {
        let mut sim = Metrics::default();
        if let Err(e) = pooled.end_to_end(&mut sim, &mut notes) {
            b.failures.push(e);
        }
        if !args.trace {
            m.0.extend(sim.0);
        }
    }
    let setup_builds = setup_ns.len();
    let setup_median = median(setup_ns);
    let host_best = *plain_pass.iter().min().expect("at least one timed pass");
    plain.sort_unstable();
    let op_pct = |p| ms(stats::percentile(&plain, p).expect("at least one timed op"));
    notes.push(format!(
        "host op: best pass {:.3} ms/op, median pass {:.3} ms/op over {} passes; per op p50 {:.3} ms, \
         p90 {:.3} ms over {} ops; setup median {:.3} ms over {setup_builds} builds",
        ms(host_best),
        ms(median(plain_pass.clone())),
        plain_pass.len(),
        op_pct(50.0),
        op_pct(90.0),
        plain.len(),
        ms(setup_median)
    ));
    notes.push(format!(
        "timed passes: {faults_per_op:.0} minor page faults per op; {:.1}% of CPU time in the kernel",
        100.0 * sys_share
    ));
    notes.push(format!(
        "host op mean by pass (ms): {}",
        plain_pass
            .iter()
            .map(|ns| format!("{:.3}", ms(*ns)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "host op p50 by seed: {}",
        args.seeds
            .iter()
            .zip(by_seed)
            .map(|(s, ns)| format!("{s}: {:.3} ms", ms(median(ns))))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push(format!(
        "digest {:016x} over seeds {:?}: {}",
        stats::digest_of(&digests),
        args.seeds,
        digests
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if args.trace {
        m.put("registry.build_ms", ms(setup_median), "ms");
        m.put("host.minor_faults_per_op", faults_per_op, "count");
        m.put("host.sys_cpu_share", sys_share, "ratio");
        op_layers(&mut b, host_best, &traced_pass, &mut m, &mut notes);
        probes(&mut b, &mut m, &mut notes);
        if first.len() == inputs.len() {
            pooled.layers(&mut m);
        }
        fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
        let path = format!("{SPANS_DIR}/spans-{}-{}.jsonl", args.kind.name(), args.seed);
        let file = File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        b.tracer
            .write_jsonl(BufWriter::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        notes.push(format!(
            "{} spans written to {}",
            b.tracer.spans().len(),
            path
        ));
    } else {
        m.0.insert(0, ("host_op_best_pass_ms".into(), ms(host_best), "ms"));
        m.put("setup_s", setup_median as f64 / 1e9, "s");
        m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    }

    for n in &notes {
        println!("# {n}");
    }
    for f in &b.failures {
        println!("# FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        b.failures.is_empty(),
        b.attempted,
        b.failed,
        m.to_json()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(7, 3, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        assert_eq!(a, pass_order(7, 3, 0));
        assert!(
            (0..8).any(|p| pass_order(7, 3, p) != a),
            "passes never reshuffle"
        );
        assert_ne!(pass_order(7, 3, 1), pass_order(7, 4, 1));
        assert!(pass_order(0, 1, 0).is_empty());
    }

    #[test]
    fn cli_is_strict() {
        let a = args("--workload cluster_soak --seed 4 --seconds 2 --trace 1 --seeds 9,8").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Soak, 4, 2, true)
        );
        assert_eq!(a.seeds, vec![9, 8]);
        let d = args("--workload serve_repeat --seed 1 --seconds 1 --trace 0").unwrap();
        assert_eq!(d.seeds, DEFAULT_SEEDS.to_vec());
        assert!(args("--workload serve_repeat --seed 1 --seconds 1").is_err());
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve_repeat --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload serve_repeat --seed x --seconds 1 --trace 0").is_err());
        assert!(
            args("--workload serve_repeat --seed 1 --seconds 1 --trace 0 --seeds 1,,2").is_err()
        );
        assert!(args("--workload serve_repeat --seed 1 --seconds 1 --trace 0 --bogus 1").is_err());
    }

    #[test]
    fn metrics_print_as_json() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.25, "ms");
        m.put("b", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}"
        );
    }
}
