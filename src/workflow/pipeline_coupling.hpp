// The Zipper coupling: executes a PipelineSpec chain by running one
// ZipperBody<VtBinding> (with its VtEnv) per edge and splicing them together
// with forwarding coroutines. The paper's single producer->consumer hop is
// the one-edge chain (make_chain(1)); every Zipper scenario, sequential or
// sharded, runs here.
//
// Edge e's consumers ARE edge e+1's producers — the same world ranks, placed
// as the downstream body's first producer rank. When a block finishes
// analysis on edge e, the body's on_output hook drops its header into an
// unbounded relay channel; a forwarder coroutine on that rank re-stamps the
// BlockId (each stage owns its own per-producer FIFO numbering), applies the
// edge's compression factor to the byte count, and puts it into the
// downstream body with the normal backpressure/stall accounting.
// End-of-stream cascades the same way: when an edge-e consumer finishes, it
// closes its relay; the forwarder drains and finalizes, which terminates the
// downstream consumers in turn.
//
// The edge transport method (zip / staged / pfs) and stage placement
// (staging vs colocated) are modeled as config flavors of the one runtime —
// credit-window, steal, and bandwidth presets — documented in
// docs/pipelines.md.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/exec/exec.hpp"
#include "core/zipper/vt_binding.hpp"
#include "sim/channel.hpp"
#include "sim/latch.hpp"
#include "workflow/cluster.hpp"
#include "workflow/coupling.hpp"
#include "workflow/pipeline.hpp"
#include "workflow/runner.hpp"

namespace zipper::workflow {

/// Field-wise sum of slice counters. All fields are integers, so summing the
/// shard slices, then applying zipper_metrics(), reproduces the whole run's
/// metrics byte-for-byte.
void accumulate_stats(core::exec::AggregateStats& into,
                      const core::exec::AggregateStats& s);

/// The metric map every Zipper figure reads, as a pure function of one
/// edge's counters so the sequential path (one runtime) and the sharded path
/// (summed slices) share one formula. The resilience counters appear only
/// with `chaos`, so default artifacts keep the pre-chaos layout.
std::map<std::string, double> zipper_metrics(
    const core::exec::AggregateStats& s, bool chaos);

class PipelineCoupling : public Coupling {
 public:
  /// `cfg` is the edge template: every edge starts from it and applies its
  /// method preset (see edge_config in the .cpp). Chaos engine/controller
  /// attach only to pipeline.chaos_edge. The cluster's layout must match
  /// pipeline.resolved_ranks: {ranks[0], ranks[1], sum(ranks[2..])}.
  PipelineCoupling(Cluster& cluster, const apps::WorkloadProfile& profile,
                   const core::zbody::VtConfig& cfg,
                   const PipelineSpec& pipeline);

  /// Shard slice of a one-edge chain (run_workflow_sharded): producers
  /// [g.p0, g.p1) and consumers [g.c0, g.c1) on shard `shard`'s kernel,
  /// numbered from 0 locally. cfg's hooks still see global indices.
  PipelineCoupling(Cluster& cluster, int shard,
                   const apps::WorkloadProfile& profile,
                   const core::zbody::VtConfig& cfg,
                   const PipelineSpec& pipeline, const ShardGroup& g);
  ~PipelineCoupling() override;

  std::string name() const override { return "Zipper"; }
  void spawn_services() override;
  sim::Task producer_step(int p, int step) override;
  sim::Task producer_block(int p, int step, int block, int num_blocks) override;
  int producer_blocks_per_step() const override;
  sim::Task producer_finalize(int p) override;
  /// Drives the whole chain hanging off stage-1 consumer c: runs edge 0's
  /// consumer, then waits for every deeper stage to finish, so the runner's
  /// end-to-end clock covers the full pipeline.
  sim::Task consumer_run(int c) override;
  /// zipper_metrics() of edge 0; chains of two or more edges add
  /// `pipeline_edges` and an e<i>_ breakdown per edge.
  std::map<std::string, double> metrics() const override;

  /// Test hook: fires for every analyzed block on every edge (in
  /// deterministic DES order), independent of the template cfg's own
  /// on_analyzed (which fires on the final edge only).
  std::function<void(int edge, int c, const core::BlockHeader&)>
      on_edge_analyzed;

  int num_edges() const { return static_cast<int>(edges_.size()); }
  /// Edge e's body (aggregate and per-endpoint counters).
  const core::zbody::ZipperBody<core::zbody::VtBinding>& edge(int e) const;

 private:
  struct Edge;

  /// Builds one env + body per edge on `kernel`, from ranks_ and base_rank_.
  void build(sim::Simulation& kernel, const apps::WorkloadProfile& profile,
             const core::zbody::VtConfig& cfg);
  /// Stage-(e) rank p's forwarding loop on edge e >= 1: relay -> re-stamp ->
  /// downstream put; finalizes the downstream producer when the relay closes.
  sim::Task forward_main(std::size_t e, int p);
  /// Interior/final stage consumer for edge e >= 1.
  sim::Task stage_consumer(std::size_t e, int c);

  Cluster* cl_;
  PipelineSpec pl_;
  bool chaos_ = false;
  std::vector<int> ranks_;      // per-stage rank counts (resolved)
  std::vector<int> base_rank_;  // per-stage world rank of the first rank
  std::vector<std::unique_ptr<Edge>> edges_;
  // relays_[e][p]: header handoff from edge e-1's consumer p to edge e's
  // producer p (same rank). Unbounded — backpressure is carried by the
  // downstream producer buffer via put_header, not the relay.
  std::vector<std::vector<std::unique_ptr<sim::Channel<core::BlockHeader>>>>
      relays_;
  std::unique_ptr<sim::Latch> chain_done_;  // one count per interior consumer
};

}  // namespace zipper::workflow
