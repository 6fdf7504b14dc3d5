// Sweep-grid expander: axis lists -> the cartesian scenario set.
//
// A SweepGrid is a base ScenarioSpec plus optional axis vectors. expand()
// produces one spec per point of the cartesian product, with a composed,
// collision-free label per point. Empty axes contribute the base spec's
// value and no label tag — so a grid with no axes expands to exactly the
// base spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.hpp"

namespace zipper::exp {

struct SweepGrid {
  ScenarioSpec base;
  std::string label_prefix = "sweep";

  // Axes of the paper's experiment matrix. "methods" may contain nullopt
  // for the Simulation-only baseline series.
  std::vector<std::optional<transports::Method>> methods;
  std::vector<Workload> workloads;
  // Total core counts, split 2/3 producers + 1/3 consumers as in the paper's
  // job layouts. Mutually exclusive with `ranks`.
  std::vector<int> cores;
  std::vector<std::pair<int, int>> ranks;  // explicit (producers, consumers)
  std::vector<int> steps;
  std::vector<std::uint64_t> block_kib;      // zipper.block_bytes
  std::vector<double> steal_thresholds;      // zipper.high_water
  std::vector<int> preserve;                 // zipper.preserve (0/1)
  // Scheduling-policy axes (the PR-3 sched layer; see docs/scheduling.md).
  std::vector<core::sched::RouteKind> routes;   // zipper.sched.route
  std::vector<core::sched::SpillKind> spills;   // zipper.sched.spill
  std::vector<int> consumer_steal;              // zipper.sched.consumer_steal (0/1)
  std::vector<int> adaptive_block;              // zipper.sched.block_size (0/1)
  std::vector<std::uint64_t> seeds;          // background_load_seed replication
  // Chaos axes (core/chaos; see docs/chaos.md for the token grammars).
  std::vector<core::chaos::Straggler> stragglers;  // chaos.straggler
  std::vector<core::chaos::Fault> faults;          // chaos.fault
  std::vector<core::chaos::Burst> bursts;          // chaos.burst
  std::vector<core::chaos::Drift> drifts;          // chaos.drift
  std::vector<int> adaptive_control;               // adaptive_control (0/1)
  // Pipeline axes (workflow/pipeline.hpp; docs/pipelines.md): any non-empty
  // axis switches the point to a workflow::make_chain pipeline composed of
  // (stages, fan, compress, staging), defaulting the others to
  // depth 2 / fan 1 / compress 1 / staging on. --stages 1 is the one-edge
  // chain, the paper's single hop.
  std::vector<int> pipeline_stages;      // chain depth (downstream stages)
  std::vector<int> pipeline_fan;         // fan-in divisor per derived stage
  std::vector<double> pipeline_compress; // per-edge compression (edges >= 1)
  std::vector<int> pipeline_staging;     // staging nodes (1) vs colocated (0)
  // Sharded parallel DES axis: spec.sim_threads values. Tags labels (/tN)
  // and switches the points to shard_metrics so the shard_* diagnostic
  // columns land next to each thread count. The simulated numbers are
  // byte-identical across the axis — that invariance is what the axis is
  // for auditing.
  std::vector<int> sim_threads;

  /// Number of scenarios expand() will produce.
  std::size_t size() const;

  /// The cartesian product, row-major in the axis order declared above.
  std::vector<ScenarioSpec> expand() const;
};

}  // namespace zipper::exp
