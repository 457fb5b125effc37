//! Multi-DNN parallel inference on one MAICC array.
//!
//! The paper's motivation (§1) and future work (§8): the MIMD many-core
//! can host several networks at once, each on its own region of the array
//! with its own control flow. This module partitions the 210 cores among
//! models (proportionally to their work) and runs each partition's
//! heuristic mapping independently — the partitions share nothing but the
//! DRAM channels, so their latencies compose in parallel.
//!
//! Two fidelity levels coexist:
//!
//! * [`parallel_inference`] / [`time_shared_inference`] — the analytic
//!   pipeline model (fast, closed-form latencies);
//! * [`streamed_multi_dnn`] — each model's partition runs the *real*
//!   bit-level [`StreamSim`] (one per worker thread) under a chosen
//!   [`Engine`], producing golden-checked cycle counts that compose into
//!   a parallel makespan (max) and a time-shared round (sum).

use crate::stream::{Engine, StreamConfig, StreamSim};
use crate::SimError;
use maicc_exec::config::ExecConfig;
use maicc_exec::pipeline_model::{run_network, RunReport};
use maicc_exec::segment::Strategy;
use maicc_nn::graph::Network;
use serde::{Deserialize, Serialize};

/// One model's outcome in a parallel deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelReport {
    /// The network's name.
    pub name: String,
    /// Cores assigned to this model's partition.
    pub cores: usize,
    /// Batch-1 latency, milliseconds.
    pub latency_ms: f64,
    /// Sustained throughput, samples/s (the partition re-runs back to
    /// back).
    pub throughput: f64,
}

/// The combined outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiDnnReport {
    /// Per-model reports.
    pub models: Vec<ModelReport>,
    /// Sum of per-model throughputs, samples/s.
    pub combined_throughput: f64,
}

/// Partitions `total_cores` among the models proportionally to their MAC
/// counts (minimum: each model's largest layer must fit) and maps each
/// with the heuristic strategy.
///
/// # Errors
///
/// Returns [`SimError::DoesNotFit`] if some model cannot fit its share.
pub fn parallel_inference(
    models: &[(&Network, [usize; 3])],
    total_cores: usize,
    base: &ExecConfig,
) -> Result<MultiDnnReport, SimError> {
    if models.is_empty() {
        return Err(SimError::DoesNotFit {
            reason: "no models given".into(),
        });
    }
    let macs: Vec<u64> = models
        .iter()
        .map(|(net, input)| net.total_macs(*input).map_err(SimError::from))
        .collect::<Result<_, _>>()?;
    let total_macs: u64 = macs.iter().sum();
    // each model needs at least its largest layer's node group
    let minima: Vec<usize> = models
        .iter()
        .map(|(net, input)| {
            let shapes = net.shapes(*input).map_err(SimError::from)?;
            let mut need = 2usize;
            for s in &shapes {
                let cap = maicc_exec::alloc::LayerCapacity::of(s);
                let min = cap.min_cores(&s.name).map_err(SimError::from)?;
                need = need.max(min + 1);
            }
            Ok(need)
        })
        .collect::<Result<_, SimError>>()?;
    let reserved: usize = minima.iter().sum();
    if reserved > total_cores {
        return Err(SimError::DoesNotFit {
            reason: format!(
                "models need {reserved} cores at minimum, array has {total_cores}"
            ),
        });
    }
    // distribute the remainder proportionally to work
    let spare = total_cores - reserved;
    let mut shares: Vec<usize> = minima
        .iter()
        .zip(&macs)
        .map(|(&min, &m)| min + ((m as f64 / total_macs as f64) * spare as f64).floor() as usize)
        .collect();
    let mut left = total_cores - shares.iter().sum::<usize>();
    let n_models = shares.len();
    let mut i = 0;
    while left > 0 {
        shares[i % n_models] += 1;
        left -= 1;
        i += 1;
    }

    let mut reports = Vec::with_capacity(models.len());
    let mut combined = 0.0;
    for ((net, input), cores) in models.iter().zip(&shares) {
        let cfg = ExecConfig {
            cores: *cores,
            ..*base
        };
        let run: RunReport =
            run_network(net, *input, Strategy::Heuristic, &cfg).map_err(|e| {
                SimError::DoesNotFit {
                    reason: format!("{}: {e}", net.name()),
                }
            })?;
        let latency_ms = run.total_ms(&cfg);
        let throughput = run.throughput(&cfg);
        combined += throughput;
        reports.push(ModelReport {
            name: net.name().to_string(),
            cores: *cores,
            latency_ms,
            throughput,
        });
    }
    Ok(MultiDnnReport {
        models: reports,
        combined_throughput: combined,
    })
}

/// One model's outcome under time-sharing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSharedModel {
    /// The network's name.
    pub name: String,
    /// Pure execution latency on the whole array, ms.
    pub run_ms: f64,
    /// Filter (re)load overhead charged at every swap-in, ms.
    pub swap_ms: f64,
}

/// Outcome of time-shared execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSharedReport {
    /// Per-model costs.
    pub models: Vec<TimeSharedModel>,
    /// Round length: one inference of every model, ms.
    pub round_ms: f64,
    /// Aggregate throughput across all models, samples/s.
    pub combined_throughput: f64,
}

/// The host CPU's alternative to spatial partitioning (§3.1: the host "is
/// responsible for resource management and task allocation"): run the
/// models round-robin, each getting the *whole* array, paying a filter
/// reload on every swap. Better when one model's largest layer leaves no
/// room for neighbours; worse when swap costs dominate.
///
/// # Errors
///
/// Returns [`SimError::DoesNotFit`] if a model cannot map even alone.
pub fn time_shared_inference(
    models: &[(&Network, [usize; 3])],
    base: &ExecConfig,
) -> Result<TimeSharedReport, SimError> {
    if models.is_empty() {
        return Err(SimError::DoesNotFit {
            reason: "no models given".into(),
        });
    }
    let mut out = Vec::with_capacity(models.len());
    let mut round_ms = 0.0;
    for (net, input) in models {
        let run: RunReport =
            run_network(net, *input, Strategy::Heuristic, base).map_err(|e| {
                SimError::DoesNotFit {
                    reason: format!("{}: {e}", net.name()),
                }
            })?;
        // swapping in reloads every weight byte from DRAM
        let weight_bytes: f64 = net
            .shapes(*input)
            .map_err(SimError::from)?
            .iter()
            .map(|s| (s.out_c * s.in_c * s.kernel_h * s.kernel_w) as f64)
            .sum();
        let swap_cycles = weight_bytes / base.filter_load_bw;
        let run_ms = run.total_ms(base);
        let swap_ms = base.cycles_to_ms(swap_cycles);
        round_ms += run_ms + swap_ms;
        out.push(TimeSharedModel {
            name: net.name().to_string(),
            run_ms,
            swap_ms,
        });
    }
    let combined = models.len() as f64 / (round_ms / 1e3);
    Ok(TimeSharedReport {
        models: out,
        round_ms,
        combined_throughput: combined,
    })
}

/// One model's outcome in a cycle-modelled streamed deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamedModelReport {
    /// Workload label.
    pub name: String,
    /// Modelled cycles until the model's partition drained.
    pub cycles: u64,
    /// CMem dynamic energy, pJ.
    pub cmem_pj: f64,
    /// The streamed ofmap matched the golden reference bit-for-bit.
    pub golden_match: bool,
}

/// Outcome of running several streamed models, with both deployment
/// compositions derived from the same per-model cycle counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamedMultiDnnReport {
    /// Engine label the runs used (`event_driven` / `cycle_accurate`).
    pub engine: String,
    /// Per-model reports, in input order.
    pub models: Vec<StreamedModelReport>,
    /// Makespan when the models occupy disjoint regions of one array and
    /// run concurrently: the slowest partition's cycles.
    pub parallel_makespan_cycles: u64,
    /// Round length when the models time-share the whole array: the sum
    /// of every model's cycles.
    pub time_shared_cycles: u64,
}

/// Runs every model's workload through the bit-level streaming simulator,
/// one worker thread per model, under the given [`Engine`].
///
/// Partitions in the MIMD array share nothing but DRAM channels, so the
/// parallel makespan is the per-model maximum while time-sharing pays the
/// per-model sum — both derived from the same golden-checked runs. Both
/// engines produce identical reports; [`Engine::EventDriven`] just gets
/// there faster.
///
/// # Errors
///
/// Returns the first model's error in input order if any simulation fails
/// to build or run within `budget` cycles, and [`SimError::DoesNotFit`]
/// for an empty model list.
pub fn streamed_multi_dnn(
    models: &[(&str, StreamConfig)],
    engine: Engine,
    budget: u64,
) -> Result<StreamedMultiDnnReport, SimError> {
    streamed_multi_dnn_parallel(models, engine, budget, 1)
}

/// [`streamed_multi_dnn`] with each model's simulation itself sharded
/// over `threads` node-stepping workers ([`StreamSim::set_parallelism`],
/// the ownership-partitioned two-phase schedule of DESIGN.md §14). The
/// shard-order packet merge reproduces node-index injection order, so
/// the report is bit-identical for every thread count — the knob only
/// trades wall-clock for cores.
///
/// # Errors
///
/// As [`streamed_multi_dnn`].
pub fn streamed_multi_dnn_parallel(
    models: &[(&str, StreamConfig)],
    engine: Engine,
    budget: u64,
    threads: usize,
) -> Result<StreamedMultiDnnReport, SimError> {
    if models.is_empty() {
        return Err(SimError::DoesNotFit {
            reason: "no models given".into(),
        });
    }
    let mut slots: Vec<Option<Result<StreamedModelReport, SimError>>> =
        (0..models.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for ((name, cfg), slot) in models.iter().zip(&mut slots) {
            scope.spawn(move || {
                *slot = Some(stream_one(name, cfg, engine, budget, threads));
            });
        }
    });
    let mut out = Vec::with_capacity(models.len());
    for slot in slots {
        out.push(slot.expect("stream worker filled its slot")?);
    }
    let makespan = out.iter().map(|m| m.cycles).max().unwrap_or(0);
    let round = out.iter().map(|m| m.cycles).sum();
    Ok(StreamedMultiDnnReport {
        engine: engine.label().to_string(),
        models: out,
        parallel_makespan_cycles: makespan,
        time_shared_cycles: round,
    })
}

fn stream_one(
    name: &str,
    cfg: &StreamConfig,
    engine: Engine,
    budget: u64,
    threads: usize,
) -> Result<StreamedModelReport, SimError> {
    let mut sim = StreamSim::new(cfg)?;
    sim.set_engine(engine);
    sim.set_parallelism(threads);
    let r = sim.run(budget)?;
    Ok(StreamedModelReport {
        name: name.to_string(),
        cycles: r.cycles,
        cmem_pj: r.cmem_pj,
        golden_match: r.ofmap == cfg.golden(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maicc_nn::resnet::{resnet18, tinynet};

    #[test]
    fn two_models_share_the_array() {
        let big = resnet18(1000);
        let small = tinynet(10);
        let cfg = ExecConfig::default();
        // ResNet-18's conv4 layers alone occupy 206 nodes, so sharing an
        // array with a second model needs more than 210 cores — the
        // scaled-up deployment §6.3 argues for
        let r = parallel_inference(
            &[(&big, [64, 56, 56]), (&small, [32, 32, 32])],
            256,
            &cfg,
        )
        .unwrap();
        assert_eq!(r.models.len(), 2);
        let total: usize = r.models.iter().map(|m| m.cores).sum();
        assert_eq!(total, 256);
        // the big model gets the lion's share
        assert!(r.models[0].cores > r.models[1].cores);
        assert!(r.combined_throughput > 0.0);
    }

    #[test]
    fn small_model_latency_barely_suffers() {
        // running tinynet beside resnet costs it cores but it still beats
        // resnet's latency by a wide margin (independent MIMD partitions)
        let big = resnet18(1000);
        let small = tinynet(10);
        let cfg = ExecConfig::default();
        let r = parallel_inference(
            &[(&big, [64, 56, 56]), (&small, [32, 32, 32])],
            256,
            &cfg,
        )
        .unwrap();
        let rn = &r.models[0];
        let tn = &r.models[1];
        assert!(tn.latency_ms < rn.latency_ms / 2.0, "{tn:?} vs {rn:?}");
    }

    #[test]
    fn three_identical_models_split_evenly() {
        let a = tinynet(10);
        let cfg = ExecConfig::default();
        let r = parallel_inference(
            &[
                (&a, [32, 16, 16]),
                (&a, [32, 16, 16]),
                (&a, [32, 16, 16]),
            ],
            210,
            &cfg,
        )
        .unwrap();
        let cores: Vec<usize> = r.models.iter().map(|m| m.cores).collect();
        assert_eq!(cores.iter().sum::<usize>(), 210);
        assert!(cores.iter().all(|&c| (68..=72).contains(&c)), "{cores:?}");
        // near-identical throughputs
        let t0 = r.models[0].throughput;
        for m in &r.models {
            assert!((m.throughput - t0).abs() / t0 < 0.05);
        }
    }

    #[test]
    fn impossible_partition_reported() {
        let big = resnet18(1000);
        let cfg = ExecConfig::default();
        // conv4 layers need ~206 cores; 50 won't do
        let r = parallel_inference(&[(&big, [64, 56, 56])], 50, &cfg);
        assert!(matches!(r, Err(SimError::DoesNotFit { .. })));
    }

    #[test]
    fn empty_model_list_rejected() {
        let cfg = ExecConfig::default();
        assert!(parallel_inference(&[], 210, &cfg).is_err());
        assert!(time_shared_inference(&[], &cfg).is_err());
    }

    #[test]
    fn time_sharing_fits_where_partitioning_cannot() {
        // resnet + tinynet exceed a 210-core array spatially, but
        // time-sharing runs each alone
        let big = resnet18(1000);
        let small = tinynet(10);
        let cfg = ExecConfig::default();
        let pair: Vec<(&maicc_nn::graph::Network, [usize; 3])> =
            vec![(&big, [64, 56, 56]), (&small, [32, 32, 32])];
        assert!(parallel_inference(&pair, 210, &cfg).is_err());
        let ts = time_shared_inference(&pair, &cfg).unwrap();
        assert_eq!(ts.models.len(), 2);
        assert!(ts.round_ms > 0.0);
        assert!(ts.combined_throughput > 0.0);
    }

    #[test]
    fn swap_cost_is_visible_but_not_dominant() {
        let big = resnet18(1000);
        let cfg = ExecConfig::default();
        let ts = time_shared_inference(&[(&big, [64, 56, 56])], &cfg).unwrap();
        let m = &ts.models[0];
        assert!(m.swap_ms > 0.0);
        assert!(m.swap_ms < m.run_ms, "{m:?}");
    }

    #[test]
    fn streamed_multi_dnn_checks_golden_and_composes_cycles() {
        let models = [
            ("small", StreamConfig::small_test()),
            ("two_layer", StreamConfig::two_layer_test()),
        ];
        let r = streamed_multi_dnn(&models, Engine::EventDriven, 5_000_000).unwrap();
        assert_eq!(r.engine, "event_driven");
        assert_eq!(r.models.len(), 2);
        assert!(r.models.iter().all(|m| m.golden_match), "{:?}", r.models);
        assert!(r.models.iter().all(|m| m.cycles > 0 && m.cmem_pj > 0.0));
        let max = r.models.iter().map(|m| m.cycles).max().unwrap();
        let sum: u64 = r.models.iter().map(|m| m.cycles).sum();
        assert_eq!(r.parallel_makespan_cycles, max);
        assert_eq!(r.time_shared_cycles, sum);
        assert!(r.parallel_makespan_cycles < r.time_shared_cycles);
    }

    #[test]
    fn streamed_multi_dnn_engines_agree() {
        let models = [
            ("small", StreamConfig::small_test()),
            ("two_layer", StreamConfig::two_layer_test()),
        ];
        let fast = streamed_multi_dnn(&models, Engine::EventDriven, 5_000_000).unwrap();
        let oracle = streamed_multi_dnn(&models, Engine::CycleAccurate, 5_000_000).unwrap();
        assert_eq!(fast.models, oracle.models);
        assert_eq!(
            fast.parallel_makespan_cycles,
            oracle.parallel_makespan_cycles
        );
        assert_eq!(fast.time_shared_cycles, oracle.time_shared_cycles);
    }

    #[test]
    fn streamed_multi_dnn_rejects_empty_list() {
        assert!(streamed_multi_dnn(&[], Engine::EventDriven, 1_000).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Node-step sharding inside each model's simulation is an
        /// implementation detail: for random one-layer workloads the
        /// report is bit-identical across 1/2/4/8 stepping threads and
        /// both engines.
        #[test]
        fn prop_streamed_report_is_thread_and_engine_invariant(
            wide_in in proptest::prelude::any::<bool>(),
            wide_out in proptest::prelude::any::<bool>(),
            hw in 5usize..=7,
            salt in 0usize..16,
        ) {
            let in_c = if wide_in { 16 } else { 8 };
            let out_c = if wide_out { 8 } else { 4 };
            let cfg = StreamConfig {
                layers: vec![crate::stream::test_layer(in_c, out_c, salt)],
                input: crate::stream::test_input(in_c, hw, hw),
            };
            let models = [("a", cfg.clone()), ("b", StreamConfig::small_test())];
            let baseline =
                streamed_multi_dnn_parallel(&models, Engine::EventDriven, 5_000_000, 1)
                    .unwrap();
            proptest::prop_assert!(baseline.models.iter().all(|m| m.golden_match));
            for engine in [Engine::EventDriven, Engine::CycleAccurate] {
                for threads in [1usize, 2, 4, 8] {
                    let r =
                        streamed_multi_dnn_parallel(&models, engine, 5_000_000, threads)
                            .unwrap();
                    proptest::prop_assert_eq!(
                        &r.models, &baseline.models,
                        "engine {:?} threads {}", engine, threads
                    );
                    proptest::prop_assert_eq!(
                        r.parallel_makespan_cycles,
                        baseline.parallel_makespan_cycles
                    );
                    proptest::prop_assert_eq!(
                        r.time_shared_cycles,
                        baseline.time_shared_cycles
                    );
                }
            }
        }
    }

    #[test]
    fn spatial_partitioning_beats_time_sharing_for_small_models() {
        // three tinynets fit side by side; running them in parallel beats
        // swapping the whole array between them
        let a = tinynet(10);
        let cfg = ExecConfig::default();
        let trio: Vec<(&maicc_nn::graph::Network, [usize; 3])> = vec![
            (&a, [32, 16, 16]),
            (&a, [32, 16, 16]),
            (&a, [32, 16, 16]),
        ];
        let spatial = parallel_inference(&trio, 210, &cfg).unwrap();
        let shared = time_shared_inference(&trio, &cfg).unwrap();
        assert!(
            spatial.combined_throughput > shared.combined_throughput,
            "spatial {} vs shared {}",
            spatial.combined_throughput,
            shared.combined_throughput
        );
    }
}
