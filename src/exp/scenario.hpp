// Declarative experiment specs — the unit of work for the scenario lab.
//
// A ScenarioSpec fully determines one simulated workflow run (or one
// analytic pipeline-schedule evaluation): cluster, workload, rank counts,
// transport method, Zipper knobs, PFS slice, background interference. Because
// the DES kernel is single-threaded and fires events in a deterministic
// (time, sequence) order, a spec maps to exactly one result — byte-identical
// across runs, machines, and sweep thread counts. That contract is what lets
// the SweepEngine (engine.hpp) run independent scenarios on every hardware
// thread without changing any number they produce.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/profiles.hpp"
#include "common/units.hpp"
#include "core/zipper/vt_binding.hpp"
#include "model/perf_model.hpp"
#include "transports/factory.hpp"
#include "transports/params.hpp"
#include "workflow/cluster.hpp"
#include "workflow/pipeline.hpp"

namespace zipper::exp {

/// The calibrated workload profiles of the paper's experiment matrix.
enum class Workload {
  kCfdBridges,       // LBM channel flow, Bridges/Haswell (Fig 2)
  kCfdStampede2,     // same solver on KNL (Fig 16)
  kLammpsStampede2,  // LJ melt + MSD (Figs 18/19)
  kSyntheticLinear,  // O(n) producer (Figs 12-15)
  kSyntheticNLogN,   // O(n log n) producer
  kSyntheticN32,     // O(n^{3/2}) producer
};

std::string workload_token(Workload w);
std::optional<Workload> parse_workload(const std::string& token);

enum class ScenarioKind {
  kWorkflow,          // run a Cluster + Coupling through the DES
  kPipelineSchedule,  // evaluate the analytic schedule model (Figs 3/11)
};

struct ScenarioSpec {
  std::string label;  // unique within one sweep/figure run
  ScenarioKind kind = ScenarioKind::kWorkflow;

  // ---- workflow scenarios --------------------------------------------------
  std::string cluster = "bridges";  // ClusterSpec::by_name key
  Workload workload = Workload::kCfdBridges;
  int steps = 10;
  int producers = 56;
  int consumers = -1;          // -1 => producers / 2 (the paper's 2:1 split)
  std::optional<int> servers;  // override transports::servers_for
  // nullopt = no coupling: the paper's "Simulation-only" lower bound.
  std::optional<transports::Method> method;

  // Synthetic workloads: compute granularity and per-step output volume.
  std::uint64_t synthetic_block_bytes = common::MiB;
  std::uint64_t bytes_per_rank_per_step = 0;  // 0 => profile default

  transports::TransportParams params;
  core::zbody::VtConfig zipper;

  // Weak-scaled PFS slice: num_osts = max(2, round(base * P / ref)). The
  // figure harnesses use this so a reduced run sees the same per-rank PFS
  // share as the paper-size run; 0 disables (cluster default).
  double pfs_osts_base = 0;
  double pfs_osts_ref_producers = 0;

  bool record_traces = false;

  // Sharded parallel DES (exp/partition.hpp): > 1 asks run_scenario to
  // partition the ranks across shard worker threads. The partitioner only
  // shards fully decomposable specs — anything else silently runs
  // sequentially — and a sharded run is byte-identical to the sequential
  // one, so this knob never changes any artifact number.
  int sim_threads = 1;
  // Emit the shard_* diagnostic columns (shard count, events, windows,
  // cross-shard messages, sync wall time). Off by default: wall time is
  // host-dependent and must never reach default artifacts.
  bool shard_metrics = false;
  // Override the profile's halo_neighbors (e.g. 0 to detach the producer
  // ring so a CFD scaling run becomes partitionable; scaling_xl uses this).
  std::optional<int> halo_neighbors;

  // Shared-file-system interference (Fig 2's MPI-IO spread): when
  // intensity > 0, other users' load hits the PFS, seeded deterministically —
  // the replication-seed axis of a sweep.
  double background_load_intensity = 0;
  std::uint64_t background_load_seed = 0;

  // Emit model::predict() columns next to the measured ones so model-vs-sim
  // error is a standard artifact output (meaningful for the Zipper pipeline).
  bool with_model = false;

  // N-stage pipeline graph (workflow/pipeline.hpp), by default the paper's
  // single hop (make_chain(1)). Every Zipper run goes through
  // PipelineCoupling; chains of two or more edges require method ==
  // kZipper. Stage-1 ranks default to effective_consumers(), deeper stages
  // occupy the layout's server slots.
  // With chaos enabled, the engine's rank dimensions follow
  // pipeline.chaos_edge so fault windows land on that edge's consumers.
  workflow::PipelineSpec pipeline;

  // Chaos injection (core/chaos): the four hostile-condition axes, all off
  // by default. Seeded from chaos.seed so the same spec replays
  // bit-for-bit; the straggler/fault axes act inside the Zipper runtime,
  // burst spawns bursty PFS interference, drift modulates the producers'
  // compute phases via the workflow runner.
  core::chaos::ChaosSpec chaos;
  // Attach the opt::AdaptiveController to the runtime's online re-tuning
  // hook (docs/chaos.md): the schedule escalates/de-escalates live instead
  // of keeping the spec's static knobs. Adds the controller metrics.
  bool adaptive_control = false;

  // ---- pipeline-schedule scenarios ------------------------------------------
  int schedule_blocks = 7;
  std::array<double, 4> schedule_stage_s{1, 1, 1, 1};  // Compute/Output/Input/Analysis

  int effective_consumers() const {
    return consumers >= 0 ? consumers : producers / 2;
  }
};

struct ScenarioResult {
  std::string label;
  bool crashed = false;  // e.g. Decaf's 32-bit count overflow
  std::string note;      // crash message or presenter annotation
  // Uncaught-exception text when the sweep engine had to abort this
  // scenario (run_guarded). Artifacts add an `error` column only when some
  // row carries one, so clean sweeps stay byte-identical.
  std::string error;
  // Insertion-ordered so CSV columns and determinism comparisons are stable.
  std::vector<std::pair<std::string, double>> metrics;
  // Kept alive only for record_traces scenarios: presenters render Gantt
  // windows and phase summaries from the recorder.
  std::shared_ptr<workflow::Cluster> cluster;

  bool has(const std::string& key) const;
  double get(const std::string& key, double fallback = 0) const;
  void put(const std::string& key, double value);
};

/// Materializes the spec's WorkloadProfile (steps, volumes, compute split).
apps::WorkloadProfile make_profile(const ScenarioSpec& spec);

/// Materializes the spec's ClusterSpec, including the weak-scaled PFS slice.
workflow::ClusterSpec make_cluster_spec(const ScenarioSpec& spec);

/// The paper's §4.4 model input for this spec (Zipper pipeline view).
model::ModelInput model_input_for(const ScenarioSpec& spec);

/// Per-edge §4.4 inputs for a pipeline spec (model::predict_pipeline): edge 0
/// is model_input_for's view; deeper edges carry compressed volumes, resolved
/// rank counts, method bandwidth presets and stage work factors. Falls back
/// to {model_input_for(spec)} when the spec has no enabled pipeline.
std::vector<model::ModelInput> pipeline_model_inputs(const ScenarioSpec& spec);

/// Runs one scenario to completion on a fresh, private simulation universe.
/// Thread-safe: concurrent calls share no mutable state.
ScenarioResult run_scenario(const ScenarioSpec& spec);

}  // namespace zipper::exp
