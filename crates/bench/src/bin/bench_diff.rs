//! Compares two `maicc_bench` JSON reports and prints per-benchmark
//! wall-clock deltas.
//!
//! ```text
//! cargo run --release -p maicc-bench --bin bench_diff -- BASELINE.json NEW.json \
//!     [--fail-on-regress PCT]
//! ```
//!
//! The parser is hand-rolled over the harness's own fixed JSON shape
//! (`{"name": "...", "median_ns": N, ...}` entries), so the tool works
//! without a serde backend. Without `--fail-on-regress` it is
//! *informational about measurements* but still honest about inputs:
//! exit 0 annotates the log, while a usage error, an unreadable file,
//! or a report no benchmark entry could be parsed from exits
//! [`EXIT_MISSING`] (2) — distinct from the measured-regression exit 1
//! so CI can tell "the code got slower" from "the comparison never
//! happened". With `--fail-on-regress PCT` the exit code is 1 when any
//! benchmark's median regressed by more than `PCT` percent over the
//! baseline, and 2 when a gated derived metric the baseline had
//! measured is missing from the new report entirely. Benchmarks
//! present on only one side are listed as added or removed.
//!
//! Besides the timing rows the tool also diffs the report's `derived`
//! block. Derived metrics are informational except the
//! `serve_overload_*` family, `serve_repeat_p50_cycles`, the
//! `serve_cluster_*` family (minus the informational
//! `serve_cluster_failovers` count), and `serve_soak_p99_cycles`, where
//! "higher" means "worse" (Hard-tenant p99, shed rate, preemption/retry
//! counts, repeat-heavy warm p50, cluster failover-recovery p99 / fleet
//! p99s / miss rate / detection latency, soak fleet p99), and
//! `parallel_scaling`, where "lower" means "worse" and which is gated
//! only when the new report's host had a core per shard (header
//! `host_cores >= threads`, see [`scaling_is_gated`]): those are held to
//! the same `--fail-on-regress` threshold, skipping keys whose baseline
//! is 0 (absent or not yet measured). Three metrics additionally get
//! absolute gates under the same flag, so a collapse fails even against
//! a drifted baseline: `production_vs_reference` ([`SPEEDUP_FLOOR`]),
//! `weight_cache_hit_rate` ([`HIT_RATE_FLOOR`]), and
//! `serve_cluster_hard_lost` (any value above zero fails — the
//! fault-domain invariant is that the Hard tier never loses a request,
//! so there is no acceptable baseline to drift from).
//!
//! When `--fail-on-regress` is active the tool prints a `gates` section
//! listing every gate it evaluated with the observed value, the
//! baseline it was held to, and the remaining margin, even when all of
//! them pass — a green CI log should still show what was checked and
//! how close it came.

use std::process::ExitCode;

/// Exit code for "the comparison could not be made": usage errors,
/// unreadable inputs, reports with no parsable benchmark entries, and
/// gated derived metrics that vanished from the new report. Distinct
/// from exit 1 (a measured regression) so CI logs separate "slower"
/// from "not measured".
const EXIT_MISSING: u8 = 2;

/// `(name, median_ns)` pairs in file order.
fn parse_medians(json: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("{\"name\": \"") {
        let after = &rest[i + 10..];
        let Some(q) = after.find('"') else { break };
        let name = after[..q].to_string();
        let Some(m) = after.find("\"median_ns\": ") else { break };
        let digits: String = after[m + 13..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(median) = digits.parse() {
            out.push((name, median));
        }
        rest = &after[q..];
    }
    out
}

/// The largest percentage slowdown of any benchmark present on both
/// sides; `None` when nothing is comparable or nothing got slower.
fn worst_regression(base: &[(String, u64)], new: &[(String, u64)]) -> Option<(String, f64)> {
    new.iter()
        .filter_map(|(name, new_ns)| {
            let (_, base_ns) = base.iter().find(|(b, _)| b == name)?;
            let pct = (*new_ns as f64 - *base_ns as f64) / *base_ns as f64 * 100.0;
            (pct > 0.0).then(|| (name.clone(), pct))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// `(key, value)` pairs from the report's `"derived": {...}` object, in
/// file order. Values are parsed as `f64` (the harness emits plain
/// integers and fixed-point decimals, never exponents or strings).
fn parse_derived(json: &str) -> Vec<(String, f64)> {
    let Some(start) = json.find("\"derived\": {") else {
        return Vec::new();
    };
    let body = &json[start + 12..];
    let Some(end) = body.find('}') else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in body[..end].lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

/// Whether a derived key is held to the relative regression gate.
/// Higher is worse for all of these but `parallel_scaling` (see
/// [`higher_is_better`]): overload counters, the repeat-heavy warm p50,
/// the cluster failover metrics (p99s, miss rate, detection latency,
/// losses), and the soak-day fleet p99. `serve_cluster_failovers` is a
/// plain re-dispatch count that tracks the fault plan, not a health
/// metric, so it stays informational — as do the soak window count and
/// hit rate.
fn is_gated_derived(name: &str) -> bool {
    name.starts_with("serve_overload_")
        || name == "serve_repeat_p50_cycles"
        || name == "serve_soak_p99_cycles"
        || (name.starts_with("serve_cluster_") && name != "serve_cluster_failovers")
        || higher_is_better(name)
}

/// Gated derived keys where a *drop* is the regression: the speedup of
/// `threads` shards over one.
fn higher_is_better(name: &str) -> bool {
    name == "parallel_scaling"
}

/// The largest percentage worsening of any gated derived metric (see
/// [`is_gated_derived`]): an increase, or a decrease for
/// [`higher_is_better`] keys. Keys with a zero or missing baseline are
/// skipped, as are higher-is-better keys whose new value is 0 (not
/// measured).
fn worst_derived_regression(
    base: &[(String, f64)],
    new: &[(String, f64)],
) -> Option<(String, f64)> {
    new.iter()
        .filter(|(name, _)| is_gated_derived(name))
        .filter_map(|(name, new_v)| {
            let (_, base_v) = base.iter().find(|(b, _)| b == name)?;
            if *base_v <= 0.0 {
                return None;
            }
            let pct = if higher_is_better(name) {
                if *new_v <= 0.0 {
                    return None;
                }
                (base_v - new_v) / base_v * 100.0
            } else {
                (new_v - base_v) / base_v * 100.0
            };
            (pct > 0.0).then(|| (name.clone(), pct))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// An integer field of the report header (`"key": N`), e.g. `threads`
/// or `host_cores`; `None` when absent or not an integer.
fn parse_header(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let at = json.find(&pat)? + pat.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Whether the report's `parallel_scaling` is worth gating: only when
/// the host had a core for each of the `threads` shards. On fewer cores
/// the workers time-slice and the ratio measures the scheduler, not the
/// partitioned loop. Reports without `host_cores` are not gated.
fn scaling_is_gated(json: &str) -> bool {
    matches!(
        (parse_header(json, "host_cores"), parse_header(json, "threads")),
        (Some(cores), Some(threads)) if threads > 1 && cores >= threads
    )
}

/// Absolute floor for `production_vs_reference`, the production
/// stepping loop's speedup over the naive reference loop on
/// `resnet18_segment`, both at one shard. Unlike the relative
/// regression gate this does not compare against the baseline: a
/// collapsed fast path (a lost stepping shortcut, an accidental route
/// into the reference loop) should fail CI even if the checked-in
/// baseline has already drifted down. 2.5 leaves headroom below the
/// ~3.1 the harness records so ordinary run-to-run noise doesn't flap.
const SPEEDUP_FLOOR: f64 = 2.5;

/// Returns the new report's `production_vs_reference` if it is below
/// the floor. The harness emits 0.00 when the production/reference
/// bench pair didn't run (filtered `--bench` invocations), so zero
/// means "not measured", not "collapsed", and passes — as does a report
/// without the key at all.
fn speedup_floor_breach(new: &[(String, f64)]) -> Option<f64> {
    new.iter()
        .find(|(name, _)| name == "production_vs_reference")
        .map(|&(_, v)| v)
        .filter(|v| *v > 0.0 && *v < SPEEDUP_FLOOR)
}

/// Absolute floor for the weight cache's hit rate on the repeat-heavy
/// Zipf mix. The harness records ~0.86; below 0.5 the cache is no
/// longer doing its job (eviction thrash, broken retention scoring) no
/// matter what the checked-in baseline says.
const HIT_RATE_FLOOR: f64 = 0.5;

/// Returns the new report's `weight_cache_hit_rate` if it is below the
/// floor. As with the speedup floor, 0.0 means "bench not run" and
/// passes, as does an absent key.
fn hit_rate_floor_breach(new: &[(String, f64)]) -> Option<f64> {
    new.iter()
        .find(|(name, _)| name == "weight_cache_hit_rate")
        .map(|&(_, v)| v)
        .filter(|v| *v > 0.0 && *v < HIT_RATE_FLOOR)
}

/// Returns the new report's `serve_cluster_hard_lost` if it is above
/// zero. This is an absolute invariant, not a regression gate: the
/// cluster's fault-domain contract is that the Hard tier never loses a
/// request across a fabric kill, so any nonzero value fails regardless
/// of the baseline. The "0.0 means not run" convention of the other
/// floors is naturally safe here — 0 is also the passing value.
fn hard_lost_breach(new: &[(String, f64)]) -> Option<f64> {
    new.iter()
        .find(|(name, _)| name == "serve_cluster_hard_lost")
        .map(|&(_, v)| v)
        .filter(|v| *v > 0.0)
}

/// Gated derived metrics the baseline measured (value above zero) that
/// are missing from the new report entirely. A silently dropped metric
/// must not pass as green, but it is not a measured regression either —
/// it exits [`EXIT_MISSING`] instead of 1.
fn missing_gated_derived(
    base: &[(String, f64)],
    new: &[(String, f64)],
) -> Vec<String> {
    base.iter()
        .filter(|(name, v)| is_gated_derived(name) && *v > 0.0)
        .filter(|(name, _)| !new.iter().any(|(n, _)| n == name))
        .map(|(name, _)| name.clone())
        .collect()
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let fail_limit: Option<f64> = args
        .iter()
        .position(|a| a == "--fail-on-regress")
        .map(|i| {
            let v = args.drain(i..(i + 2).min(args.len())).nth(1);
            v.as_deref()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("bench_diff: bad --fail-on-regress value, ignoring");
                    f64::INFINITY
                })
        });
    let [baseline_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_diff BASELINE.json NEW.json [--fail-on-regress PCT]");
        return ExitCode::from(EXIT_MISSING);
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_diff: cannot read {path}: {e}");
            None
        }
    };
    let (Some(base_json), Some(new_json)) = (read(baseline_path), read(new_path)) else {
        return ExitCode::from(EXIT_MISSING);
    };
    let base = parse_medians(&base_json);
    let new = parse_medians(&new_json);
    if base.is_empty() || new.is_empty() {
        eprintln!(
            "bench_diff: no benchmark entries parsed ({} baseline, {} new)",
            base.len(),
            new.len()
        );
        return ExitCode::from(EXIT_MISSING);
    }

    println!("bench_diff: {baseline_path} -> {new_path}");
    println!(
        "{:<34} {:>14} {:>14} {:>9}",
        "benchmark", "baseline_ns", "new_ns", "delta"
    );
    for (name, new_ns) in &new {
        match base.iter().find(|(b, _)| b == name) {
            Some((_, base_ns)) => {
                let pct = (*new_ns as f64 - *base_ns as f64) / *base_ns as f64 * 100.0;
                println!("{name:<34} {base_ns:>14} {new_ns:>14} {pct:>+8.1}%");
            }
            None => println!("{name:<34} {:>14} {new_ns:>14}    added", "-"),
        }
    }
    for (name, base_ns) in &base {
        if !new.iter().any(|(n, _)| n == name) {
            println!("{name:<34} {base_ns:>14} {:>14}  removed", "-");
        }
    }
    let base_derived = parse_derived(&base_json);
    let new_derived = parse_derived(&new_json);
    let scaling_gated = scaling_is_gated(&new_json);
    for (name, new_v) in &new_derived {
        match base_derived.iter().find(|(b, _)| b == name) {
            Some((_, base_v)) if *base_v > 0.0 => {
                let pct = (new_v - base_v) / base_v * 100.0;
                println!("{name:<34} {base_v:>14.3} {new_v:>14.3} {pct:>+8.1}%");
            }
            Some((_, base_v)) => {
                println!("{name:<34} {base_v:>14.3} {new_v:>14.3}        -");
            }
            None => println!("{name:<34} {:>14} {new_v:>14.3}    added", "-"),
        }
    }
    if let Some(limit) = fail_limit {
        // List every gate with the observed value, the baseline it was
        // held to, and the remaining margin — a green run should still
        // show what was checked and how close it came. Failures print
        // after the table.
        println!("\ngates (--fail-on-regress {limit:.1}%):");
        let timing = worst_regression(&base, &new);
        match &timing {
            Some((name, pct)) => {
                let lookup = |side: &[(String, u64)]| {
                    side.iter()
                        .find(|(n, _)| n == name)
                        .map_or(0, |&(_, v)| v)
                };
                println!(
                    "  timing regression          worst `{name}` {} -> {} ns \
                     ({pct:+.1}%, margin {:.1}% of the {limit:.1}% limit)",
                    lookup(&base),
                    lookup(&new),
                    limit - pct
                );
            }
            None => println!("  timing regression          nothing slower than baseline"),
        }
        // an ungated `parallel_scaling` stays in the table above but is
        // held to no threshold
        let gated_new: Vec<(String, f64)> = new_derived
            .iter()
            .filter(|(name, _)| scaling_gated || !higher_is_better(name))
            .cloned()
            .collect();
        let derived = worst_derived_regression(&base_derived, &gated_new);
        match &derived {
            Some((name, pct)) => {
                let lookup = |side: &[(String, f64)]| {
                    side.iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |&(_, v)| v)
                };
                println!(
                    "  derived regression         worst `{name}` {:.3} -> {:.3} \
                     ({pct:+.1}%, margin {:.1}% of the {limit:.1}% limit)",
                    lookup(&base_derived),
                    lookup(&new_derived),
                    limit - pct
                );
            }
            None => println!("  derived regression         no gated metric worsened"),
        }
        let gate_value = |key: &str| {
            new_derived
                .iter()
                .find(|(name, _)| name == key)
                .map(|&(_, v)| v)
        };
        let print_floor = |label: &str, key: &str, floor: f64| match gate_value(key) {
            Some(v) if v > 0.0 => println!(
                "  {label} {v:.2} (floor {floor:.1}, margin {:+.2})",
                v - floor
            ),
            _ => println!("  {label} not run"),
        };
        print_floor("production_vs_reference   ", "production_vs_reference", SPEEDUP_FLOOR);
        let cores = parse_header(&new_json, "host_cores")
            .map_or_else(|| "unrecorded".to_string(), |c| c.to_string());
        let threads = parse_header(&new_json, "threads").unwrap_or(0);
        match gate_value("parallel_scaling") {
            Some(v) if v > 0.0 => println!(
                "  parallel_scaling           {v:.2} {} ({threads} shards on {cores} host cores)",
                if scaling_gated {
                    "gated relatively"
                } else {
                    "not gated"
                }
            ),
            _ => println!("  parallel_scaling           not run"),
        }
        print_floor("weight_cache_hit_rate     ", "weight_cache_hit_rate", HIT_RATE_FLOOR);
        match gate_value("serve_cluster_hard_lost") {
            Some(v) => println!("  serve_cluster_hard_lost    {v:.0} (must be 0)"),
            None => println!("  serve_cluster_hard_lost    not run"),
        }
        let missing = missing_gated_derived(&base_derived, &new_derived);
        if missing.is_empty() {
            println!("  missing gated metrics      none");
        } else {
            println!("  missing gated metrics      {}", missing.join(", "));
        }
        if let Some((name, pct)) = timing {
            if pct > limit {
                eprintln!(
                    "bench_diff: `{name}` regressed {pct:+.1}% (> {limit:.1}% limit)"
                );
                return ExitCode::FAILURE;
            }
        }
        if let Some((name, pct)) = derived {
            if pct > limit {
                eprintln!(
                    "bench_diff: derived `{name}` worsened {pct:+.1}% (> {limit:.1}% limit)"
                );
                return ExitCode::FAILURE;
            }
        }
        if let Some(v) = speedup_floor_breach(&new_derived) {
            eprintln!(
                "bench_diff: derived `production_vs_reference` = {v:.2} below the \
                 {SPEEDUP_FLOOR:.1} floor — the production loop's fast path has collapsed"
            );
            return ExitCode::FAILURE;
        }
        if let Some(v) = hit_rate_floor_breach(&new_derived) {
            eprintln!(
                "bench_diff: derived `weight_cache_hit_rate` = {v:.2} below the \
                 {HIT_RATE_FLOOR:.1} floor — the weight cache has stopped hitting"
            );
            return ExitCode::FAILURE;
        }
        if let Some(v) = hard_lost_breach(&new_derived) {
            eprintln!(
                "bench_diff: derived `serve_cluster_hard_lost` = {v:.0} — the cluster \
                 dropped Hard-tier requests during failover"
            );
            return ExitCode::FAILURE;
        }
        if !missing.is_empty() {
            eprintln!(
                "bench_diff: gated derived metric(s) missing from the new report: {}",
                missing.join(", ")
            );
            return ExitCode::from(EXIT_MISSING);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{
        hard_lost_breach, hit_rate_floor_breach, is_gated_derived,
        missing_gated_derived, parse_derived, parse_header, parse_medians,
        scaling_is_gated, speedup_floor_breach, worst_derived_regression, worst_regression,
    };

    #[test]
    fn parses_harness_shape() {
        let json = r#"{
  "benchmarks": [
    {"name": "a_bench", "median_ns": 123, "p10_ns": 100, "iterations": 5, "check": 7},
    {"name": "b_bench", "median_ns": 456, "p10_ns": 400, "iterations": 5, "check": 7}
  ]
}"#;
        assert_eq!(
            parse_medians(json),
            vec![("a_bench".to_string(), 123), ("b_bench".to_string(), 456)]
        );
    }

    #[test]
    fn empty_input_yields_no_entries() {
        assert!(parse_medians("{}").is_empty());
    }

    #[test]
    fn parses_and_gates_derived_metrics() {
        let base = r#"{
  "derived": {
    "production_vs_reference": 2.50,
    "serve_overload_hard_p99_cycles": 300000,
    "serve_overload_shed_rate": 0.500,
    "serve_overload_preemptions": 0
  }
}"#;
        let new = r#"{
  "derived": {
    "production_vs_reference": 1.00,
    "serve_overload_hard_p99_cycles": 390000,
    "serve_overload_shed_rate": 0.520,
    "serve_overload_preemptions": 3
  }
}"#;
        let b = parse_derived(base);
        let n = parse_derived(new);
        assert_eq!(b.len(), 4);
        // Hard p99 went up 30% — the worst gated metric by relative
        // regression. The collapsed production speedup is caught
        // separately by the absolute floor; the preemption jump has a 0
        // baseline and is skipped.
        let (name, pct) = worst_derived_regression(&b, &n).unwrap();
        assert_eq!(name, "serve_overload_hard_p99_cycles");
        assert!((pct - 30.0).abs() < 1e-9, "{pct}");
        assert_eq!(speedup_floor_breach(&n), Some(1.00));
    }

    #[test]
    fn speedup_floor_gates_on_new_value_only() {
        // At or above the floor: passes, regardless of the baseline.
        let ok = parse_derived(r#"{"derived": {"production_vs_reference": 2.50}}"#);
        assert_eq!(speedup_floor_breach(&ok), None);
        let good = parse_derived(r#"{"derived": {"production_vs_reference": 3.13}}"#);
        assert_eq!(speedup_floor_breach(&good), None);
        // Below the floor: fails even if the baseline had drifted down.
        let bad = parse_derived(r#"{"derived": {"production_vs_reference": 2.49}}"#);
        assert_eq!(speedup_floor_breach(&bad), Some(2.49));
        // 0.00 = bench pair not run (filtered --bench invocation): passes.
        let unrun = parse_derived(r#"{"derived": {"production_vs_reference": 0.00}}"#);
        assert_eq!(speedup_floor_breach(&unrun), None);
        // Missing metric entirely: not a breach either.
        let absent = parse_derived(r#"{"derived": {"serve_overload_shed_rate": 0.5}}"#);
        assert_eq!(speedup_floor_breach(&absent), None);
        // The old thread-count ratio is not the floor's metric.
        let old = parse_derived(r#"{"derived": {"speedup_vs_sequential": 1.00}}"#);
        assert_eq!(speedup_floor_breach(&old), None);
    }

    #[test]
    fn parallel_scaling_drop_is_the_regression() {
        let b = parse_derived(r#"{"derived": {"parallel_scaling": 2.00}}"#);
        // a 40% drop in scaling is a regression, a rise is not, and 0.00
        // (parallel row not run) is not measured
        let worse = parse_derived(r#"{"derived": {"parallel_scaling": 1.20}}"#);
        let (name, pct) = worst_derived_regression(&b, &worse).unwrap();
        assert_eq!(name, "parallel_scaling");
        assert!((pct - 40.0).abs() < 1e-9, "{pct}");
        let better = parse_derived(r#"{"derived": {"parallel_scaling": 2.60}}"#);
        assert!(worst_derived_regression(&b, &better).is_none());
        let unrun = parse_derived(r#"{"derived": {"parallel_scaling": 0.00}}"#);
        assert!(worst_derived_regression(&b, &unrun).is_none());
    }

    #[test]
    fn parallel_scaling_is_gated_only_with_a_core_per_shard() {
        let header = |threads: u64, cores: u64| {
            format!("{{\n  \"threads\": {threads},\n  \"host_cores\": {cores},\n}}")
        };
        assert_eq!(parse_header(&header(4, 2), "threads"), Some(4));
        assert_eq!(parse_header(&header(4, 2), "host_cores"), Some(2));
        assert!(scaling_is_gated(&header(4, 4)));
        assert!(scaling_is_gated(&header(2, 8)));
        assert!(!scaling_is_gated(&header(4, 2)), "oversubscribed host");
        assert!(!scaling_is_gated(&header(1, 8)), "one shard has nothing to scale");
        assert!(!scaling_is_gated("{\n  \"threads\": 4\n}"), "no host_cores recorded");
    }

    #[test]
    fn repeat_p50_is_gated_higher_is_worse() {
        let b = parse_derived(
            r#"{"derived": {"serve_repeat_p50_cycles": 200000,
                            "serve_repeat_cold_p50_cycles": 480000}}"#,
        );
        // The warm p50 regressed 25%; the cold p50 (informational)
        // halved, which must not mask the warm regression.
        let n = parse_derived(
            r#"{"derived": {"serve_repeat_p50_cycles": 250000,
                            "serve_repeat_cold_p50_cycles": 240000}}"#,
        );
        let (name, pct) = worst_derived_regression(&b, &n).unwrap();
        assert_eq!(name, "serve_repeat_p50_cycles");
        assert!((pct - 25.0).abs() < 1e-9, "{pct}");
    }

    #[test]
    fn hit_rate_floor_gates_on_new_value_only() {
        let ok = parse_derived(r#"{"derived": {"weight_cache_hit_rate": 0.8649}}"#);
        assert_eq!(hit_rate_floor_breach(&ok), None);
        let bad = parse_derived(r#"{"derived": {"weight_cache_hit_rate": 0.4200}}"#);
        assert_eq!(hit_rate_floor_breach(&bad), Some(0.42));
        // 0.0 = bench not run; absent key likewise passes.
        let unrun = parse_derived(r#"{"derived": {"weight_cache_hit_rate": 0.0000}}"#);
        assert_eq!(hit_rate_floor_breach(&unrun), None);
        assert_eq!(hit_rate_floor_breach(&[]), None);
    }

    #[test]
    fn cluster_metrics_are_gated_except_the_failover_count() {
        assert!(is_gated_derived("serve_cluster_failover_p99_cycles"));
        assert!(is_gated_derived("serve_cluster_fcfs_p99_cycles"));
        assert!(is_gated_derived("serve_cluster_sjf_p99_cycles"));
        assert!(is_gated_derived("serve_cluster_miss_rate"));
        assert!(is_gated_derived("serve_cluster_detect_p50_cycles"));
        assert!(is_gated_derived("serve_cluster_lost"));
        assert!(!is_gated_derived("serve_cluster_failovers"));
        assert!(!is_gated_derived("serve_fcfs_p99_cycles"));

        let b = parse_derived(
            r#"{"derived": {"serve_cluster_failover_p99_cycles": 500000,
                            "serve_cluster_failovers": 4}}"#,
        );
        // The recovery tail regressed 20%; the failover count tripling
        // is informational and must not win (or even place).
        let n = parse_derived(
            r#"{"derived": {"serve_cluster_failover_p99_cycles": 600000,
                            "serve_cluster_failovers": 12}}"#,
        );
        let (name, pct) = worst_derived_regression(&b, &n).unwrap();
        assert_eq!(name, "serve_cluster_failover_p99_cycles");
        assert!((pct - 20.0).abs() < 1e-9, "{pct}");
    }

    #[test]
    fn hard_lost_is_an_absolute_invariant() {
        // 0 is the passing value — also what an unrun bench emits.
        let ok = parse_derived(r#"{"derived": {"serve_cluster_hard_lost": 0}}"#);
        assert_eq!(hard_lost_breach(&ok), None);
        assert_eq!(hard_lost_breach(&[]), None);
        // Any loss fails, no matter what the baseline recorded.
        let bad = parse_derived(r#"{"derived": {"serve_cluster_hard_lost": 1}}"#);
        assert_eq!(hard_lost_breach(&bad), Some(1.0));
    }

    #[test]
    fn vanished_gated_metrics_are_flagged_not_regressed() {
        let b = parse_derived(
            r#"{"derived": {"serve_cluster_hard_p99_cycles": 500000,
                            "serve_cluster_failovers": 4,
                            "serve_overload_shed_rate": 0.0,
                            "serve_fcfs_p99_cycles": 90000}}"#,
        );
        // The gated hard p99 vanished; the informational failover count
        // and the zero-baseline (unmeasured) shed rate vanishing are
        // both fine, as is an ungated key.
        let n = parse_derived(r#"{"derived": {"serve_repeat_p50_cycles": 1}}"#);
        assert_eq!(
            missing_gated_derived(&b, &n),
            vec!["serve_cluster_hard_p99_cycles".to_string()]
        );
        // nothing missing when the key is present, whatever its value
        let ok = parse_derived(
            r#"{"derived": {"serve_cluster_hard_p99_cycles": 1}}"#,
        );
        assert!(missing_gated_derived(&b, &ok).is_empty());
    }

    #[test]
    fn worst_regression_picks_largest_slowdown() {
        let base = vec![
            ("a".to_string(), 100u64),
            ("b".to_string(), 100),
            ("c".to_string(), 100),
        ];
        let new = vec![
            ("a".to_string(), 90u64),   // improvement: ignored
            ("b".to_string(), 150),     // +50%
            ("c".to_string(), 120),     // +20%
            ("d".to_string(), 999),     // no baseline: ignored
        ];
        let (name, pct) = worst_regression(&base, &new).unwrap();
        assert_eq!(name, "b");
        assert!((pct - 50.0).abs() < 1e-9, "{pct}");
        // all-improvements case reports nothing
        assert!(worst_regression(&base, &base[..1]).is_none());
    }
}
