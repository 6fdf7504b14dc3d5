// Declarative N-stage pipeline graphs: named stages (sim -> reduce ->
// analyze -> store) chained by typed edges.
//
// The paper models exactly one coupling shape — a single producer->consumer
// hop. Real in-situ deployments are multi-stage: dedicated in-transit staging
// nodes, fan-in reductions, bandwidth-reducing compression on the wire
// (Catalyst-ADIOS2, PAPERS.md). A PipelineSpec describes such a chain
// declaratively; PipelineCoupling (pipeline_coupling.hpp) executes it by
// chaining one ZipperBody instance per edge (the paper's single hop is the
// one-edge chain, make_chain(1)), and the §4 model composes the
// per-edge stage equations into a multi-stage bottleneck analysis
// (model::predict_pipeline).
//
// Stage 0 is always the simulation (the workflow runner's producer ranks);
// stage 1 runs on the consumer allocation; stages >= 2 occupy the cluster's
// server ranks — physically dedicated staging nodes. A stage with
// staging=false models colocated helper cores instead: the rank placement is
// unchanged but its incoming edge crosses memory, not the fabric (the edge
// bandwidths scale up accordingly).
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace zipper::workflow {

/// Transport flavor of one pipeline edge.
///   kZip    — the Zipper runtime as-is: deep credit window, spill channel.
///   kStaged — Decaf-style staging link: synchronous handoff (window 1),
///             no spill side channel.
///   kPfs    — Preserve-style file relay: the wire IS the file system, so
///             the edge moves at the writer/reader PFS-coupled rates.
enum class EdgeMethod { kZip, kStaged, kPfs };

std::string edge_method_token(EdgeMethod m);
std::optional<EdgeMethod> parse_edge_method(const std::string& token);

struct PipelineStage {
  std::string name;          // "sim", "reduce", "analyze", "store", ...
  int ranks = 0;             // 0 = derive (stage 0: producers; else fan rule)
  double work_factor = 1.0;  // per-byte analysis cost scale at this stage
  bool staging = true;       // stages >= 2: dedicated in-transit ranks (true)
                             // vs colocated helper cores (false)
};

struct PipelineEdge {
  EdgeMethod method = EdgeMethod::kZip;
  // Wire-bandwidth reduction: bytes forwarded on this edge = upstream bytes
  // / compression. Edge 0 must stay at 1 (the simulation's own output is
  // what it is; compression is applied by the stages that forward data).
  double compression = 1.0;
};

/// The default spec is the paper's single hop, sim -> analyze: the same
/// chain as make_chain(1).
struct PipelineSpec {
  // Fan-in: a derived (ranks == 0) stage i >= 2 gets the previous stage's
  // rank count divided by this factor (floored at 1).
  int fan = 1;
  // stages[i]; stage 0 = the simulation.
  std::vector<PipelineStage> stages = {{"sim"}, {"analyze"}};
  std::vector<PipelineEdge> edges = {PipelineEdge{}};  // stages[i] -> [i+1]
  // Which edge the chaos engine / online controller attach to. 0 targets the
  // paper's producer->consumer hop; an interior edge exercises the
  // retry->spill resilience path across a multi-hop chain.
  int chaos_edge = 0;

  int num_edges() const { return static_cast<int>(edges.size()); }

  /// Throws std::invalid_argument on an inconsistent graph.
  void validate() const;

  /// Per-stage rank counts for a concrete workflow shape: stage 0 takes
  /// `producers`, stage 1 `consumers` (unless pinned via PipelineStage::
  /// ranks), deeper derived stages shrink by `fan`.
  std::vector<int> resolved_ranks(int producers, int consumers) const;

  /// Human-readable chain, e.g. "sim:6 -zip-> reduce:4 -staged/4x-> analyze:2".
  std::string summary(int producers, int consumers) const;
};

/// Canonical chain builder behind the sweep axes (--stages/--fan/--compress/
/// --staging) and the hybrid figures: `depth` downstream stages after the
/// simulation, named from the {reduce, analyze, store} template. Every edge
/// is kZip; edges >= 1 carry `compress`; stages >= 2 get the `staging` flag.
/// depth == 1 is the paper's single hop whatever fan/compress say.
PipelineSpec make_chain(int depth, int fan = 1, double compress = 1.0,
                        bool staging = true);

}  // namespace zipper::workflow
