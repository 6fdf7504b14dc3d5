// Property and differential tests over the N-stage pipeline graph
// (workflow/pipeline.hpp + pipeline_coupling.hpp).
//
// Three nets:
//   * Unit tests on the PipelineSpec data model: token round-trips,
//     make_chain shapes/names, validation errors, rank resolution, and the
//     sweep-grid pipeline axes.
//   * Randomized seeded pipeline graphs executed end-to-end through
//     PipelineCoupling: every edge delivers exactly once, conserves blocks
//     and bytes hop-to-hop, keeps per-(edge, producer, consumer) network
//     FIFO order, and replays deterministically — across random edge
//     methods, routes, spills, stealing, and preserve — one-edge chains,
//     which every Zipper figure runs on, included. A pressured depth-2
//     chain whose two edges spill equal BlockIds keeps one PFS file per
//     spilled block.
//   * The metric contract: a one-edge chain publishes exactly the Zipper
//     key set, a longer chain adds the per-edge breakdown. (The golden
//     digests, a ctest of their own, pin every figure's values.)
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "exp/grid.hpp"
#include "workflow/pipeline.hpp"
#include "workflow/pipeline_coupling.hpp"
#include "workflow/runner.hpp"

using namespace zipper;
using common::KiB;
using common::MiB;
using core::BlockId;
using workflow::EdgeMethod;
using workflow::PipelineSpec;
using workflow::make_chain;

// ----------------------------------------------------- data-model units ----

TEST(PipelineSpecUnit, EdgeMethodTokensRoundTrip) {
  for (EdgeMethod m : {EdgeMethod::kZip, EdgeMethod::kStaged, EdgeMethod::kPfs}) {
    const auto back = workflow::parse_edge_method(workflow::edge_method_token(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(workflow::parse_edge_method("bogus").has_value());
  EXPECT_FALSE(workflow::parse_edge_method("").has_value());
}

TEST(PipelineSpecUnit, MakeChainShapesAndNames) {
  const auto d1 = make_chain(1);
  ASSERT_EQ(d1.stages.size(), 2u);
  EXPECT_EQ(d1.stages[0].name, "sim");
  EXPECT_EQ(d1.stages[1].name, "analyze");
  EXPECT_EQ(d1.num_edges(), 1);
  // The default spec is the same single hop.
  EXPECT_EQ(PipelineSpec{}.summary(8, 4), d1.summary(8, 4));

  const auto d2 = make_chain(2);
  ASSERT_EQ(d2.stages.size(), 3u);
  EXPECT_EQ(d2.stages[1].name, "reduce");
  EXPECT_EQ(d2.stages[2].name, "analyze");

  const auto d3 = make_chain(3);
  ASSERT_EQ(d3.stages.size(), 4u);
  EXPECT_EQ(d3.stages[1].name, "reduce");
  EXPECT_EQ(d3.stages[2].name, "analyze");
  EXPECT_EQ(d3.stages[3].name, "store");

  const auto d4 = make_chain(4);
  ASSERT_EQ(d4.stages.size(), 5u);
  EXPECT_EQ(d4.stages[1].name, "reduce");
  EXPECT_EQ(d4.stages[2].name, "stage2");
  EXPECT_EQ(d4.stages[3].name, "analyze");
  EXPECT_EQ(d4.stages[4].name, "store");

  // Compression rides every edge but the first; edge 0 is the simulation's
  // own output.
  const auto cx = make_chain(3, 2, 4.0);
  ASSERT_EQ(cx.edges.size(), 3u);
  EXPECT_DOUBLE_EQ(cx.edges[0].compression, 1.0);
  EXPECT_DOUBLE_EQ(cx.edges[1].compression, 4.0);
  EXPECT_DOUBLE_EQ(cx.edges[2].compression, 4.0);
  EXPECT_EQ(cx.fan, 2);
  EXPECT_NO_THROW(cx.validate());
}

TEST(PipelineSpecUnit, ValidateRejectsInconsistentGraphs) {
  EXPECT_NO_THROW(PipelineSpec{}.validate());  // the default single hop

  auto one_stage = make_chain(1);
  one_stage.stages.pop_back();
  one_stage.edges.clear();
  EXPECT_THROW(one_stage.validate(), std::invalid_argument);

  auto mismatch = make_chain(2);
  mismatch.edges.pop_back();
  EXPECT_THROW(mismatch.validate(), std::invalid_argument);

  auto bad_fan = make_chain(2);
  bad_fan.fan = 0;
  EXPECT_THROW(bad_fan.validate(), std::invalid_argument);

  auto bad_chaos = make_chain(2);
  bad_chaos.chaos_edge = 2;
  EXPECT_THROW(bad_chaos.validate(), std::invalid_argument);

  auto cx0 = make_chain(2);
  cx0.edges[0].compression = 2.0;  // edge 0 must stay at 1
  EXPECT_THROW(cx0.validate(), std::invalid_argument);

  auto cx_neg = make_chain(2);
  cx_neg.edges[1].compression = 0.0;
  EXPECT_THROW(cx_neg.validate(), std::invalid_argument);

  auto bad_ranks = make_chain(2);
  bad_ranks.stages[1].ranks = -1;
  EXPECT_THROW(bad_ranks.validate(), std::invalid_argument);

  auto bad_wf = make_chain(2);
  bad_wf.stages[2].work_factor = 0.0;
  EXPECT_THROW(bad_wf.validate(), std::invalid_argument);
}

TEST(PipelineSpecUnit, ResolvedRanksFollowTheFanRule) {
  const auto d3 = make_chain(3, 2);
  EXPECT_EQ(d3.resolved_ranks(8, 4), (std::vector<int>{8, 4, 2, 1}));
  // Deep fan-in floors at one rank.
  const auto d4 = make_chain(4, 4);
  EXPECT_EQ(d4.resolved_ranks(8, 4), (std::vector<int>{8, 4, 1, 1, 1}));
  // Pinned stage ranks override the derivation.
  auto pinned = make_chain(3, 2);
  pinned.stages[2].ranks = 5;
  EXPECT_EQ(pinned.resolved_ranks(8, 4), (std::vector<int>{8, 4, 5, 2}));
}

TEST(PipelineSpecUnit, SweepGridPipelineAxes) {
  exp::SweepGrid grid;
  grid.base.method = transports::Method::kZipper;
  grid.pipeline_stages = {1, 2};
  grid.pipeline_fan = {1, 2};
  EXPECT_EQ(grid.size(), 4u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 4u);
  for (const auto& s : specs) EXPECT_NO_THROW(s.pipeline.validate());
  EXPECT_NE(specs[0].label.find("/stages1/fan1"), std::string::npos);
  EXPECT_NE(specs[3].label.find("/stages2/fan2"), std::string::npos);
  EXPECT_EQ(specs[0].pipeline.num_edges(), 1);  // --stages 1: the single hop
  EXPECT_EQ(specs[3].pipeline.num_edges(), 2);
  EXPECT_EQ(specs[3].pipeline.fan, 2);

  // No pipeline axes: the base spec's single hop rides through.
  exp::SweepGrid none;
  none.steps = {2, 4};
  for (const auto& s : none.expand()) EXPECT_EQ(s.pipeline.num_edges(), 1);
}

// ------------------------------------- randomized pipeline-graph runs ----

namespace {

apps::WorkloadProfile pipeline_profile() {
  apps::WorkloadProfile p;
  p.name = "pipeline-sweep";
  p.steps = 3;
  p.bytes_per_rank_per_step = 2 * MiB + 256 * KiB;  // non-divisible split
  p.t_collision = sim::from_seconds(0.02);
  p.t_update = sim::from_seconds(0.01);
  p.analysis_ns_per_byte = 30.0;  // consumers lag: real backpressure
  return p;
}

struct EdgeDelivery {
  int edge;
  int consumer;
  core::BlockHeader h;
};

struct PipeOutcome {
  PipelineSpec spec;
  int producers = 0;
  std::size_t pfs_files = 0;  // files the run left on the simulated PFS
  double end_to_end_s = 0;
  std::vector<core::exec::AggregateStats> stats;  // per edge
  std::vector<EdgeDelivery> deliveries;
};

/// Runs `pl` end-to-end through PipelineCoupling on P producers and Q
/// stage-1 consumers, recording every edge's deliveries and counters.
PipeOutcome run_pipeline(const PipelineSpec& pl, const core::zbody::VtConfig& z,
                         int P, int Q, const apps::WorkloadProfile& prof) {
  const auto ranks = pl.resolved_ranks(P, Q);
  int servers = 0;
  for (std::size_t i = 2; i < ranks.size(); ++i) servers += ranks[i];

  workflow::Layout layout{P, ranks[1], servers};
  workflow::Cluster cluster(workflow::ClusterSpec::bridges(), layout);
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, pl);

  PipeOutcome out;
  out.spec = pl;
  out.producers = P;
  coupling.on_edge_analyzed = [&out](int e, int c, const core::BlockHeader& h) {
    out.deliveries.push_back({e, c, h});
  };
  out.end_to_end_s = workflow::run_workflow(cluster, prof, &coupling).end_to_end_s;
  for (int e = 0; e < coupling.num_edges(); ++e) {
    out.stats.push_back(coupling.edge(e).aggregate());
  }
  out.pfs_files = cluster.fs->num_files();
  return out;
}

/// Builds a random (but seed-deterministic) pipeline graph + schedule
/// configuration and runs it end-to-end through PipelineCoupling. Depth 1 is
/// the paper's single hop, which every Zipper figure runs on.
PipeOutcome run_random_pipeline(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };

  // One draw per statement: argument evaluation order is unspecified, and
  // the graph a seed draws must not depend on the compiler.
  const int depth = pick(1, 3);
  const int fan = pick(1, 2);
  const double compress = pick(1, 2);
  const bool staging = pick(0, 1) == 1;
  auto pl = make_chain(depth, fan, compress, staging);
  const EdgeMethod methods[] = {EdgeMethod::kZip, EdgeMethod::kStaged,
                                EdgeMethod::kPfs};
  for (std::size_t e = 1; e < pl.edges.size(); ++e) {
    pl.edges[e].method = methods[pick(0, 2)];
  }
  pl.validate();

  core::zbody::VtConfig z;
  z.block_bytes = 512 * KiB;
  z.producer_buffer_blocks = 4;
  z.consumer_buffer_blocks = 8;
  z.sender_window = 2;
  z.enable_steal = pick(0, 1) == 1;
  z.preserve = pick(0, 1) == 1;
  const core::sched::RouteKind routes[] = {core::sched::RouteKind::kStatic,
                                           core::sched::RouteKind::kRoundRobin,
                                           core::sched::RouteKind::kLeastQueued};
  const core::sched::SpillKind spills[] = {core::sched::SpillKind::kHighWater,
                                           core::sched::SpillKind::kHysteresis,
                                           core::sched::SpillKind::kAdaptive};
  z.sched.route = routes[pick(0, 2)];
  z.sched.spill = spills[pick(0, 2)];
  z.sched.consumer_steal = pick(0, 1) == 1;
  z.sched.steal_min_queue = 2;

  const int P = pick(3, 5);
  const int Q = pick(2, 3);
  return run_pipeline(pl, z, P, Q, pipeline_profile());
}

/// The byte count edge e+1's forwarder emits for an edge-e block.
std::uint64_t forwarded_bytes(std::uint64_t bytes, double compression) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(bytes) / compression));
}

}  // namespace

// Seeds 1-12 draw four chains of each depth 1, 2 and 3.
constexpr std::uint64_t kGraphSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};

class PipelineGraphs : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(SeededGraphs, PipelineGraphs,
                         ::testing::ValuesIn(kGraphSeeds),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(PipelineGraphSeeds, CoverEveryDepth) {
  std::set<int> depths;
  for (std::uint64_t seed : kGraphSeeds) {
    depths.insert(run_random_pipeline(seed).spec.num_edges());
  }
  EXPECT_EQ(depths, (std::set<int>{1, 2, 3}));
}

TEST_P(PipelineGraphs, EveryEdgeDeliversExactlyOnce) {
  const auto out = run_random_pipeline(GetParam());
  const auto prof = pipeline_profile();
  const int E = out.spec.num_edges();

  std::vector<std::set<BlockId>> seen(static_cast<std::size_t>(E));
  std::vector<std::uint64_t> count(static_cast<std::size_t>(E), 0);
  for (const auto& d : out.deliveries) {
    ASSERT_GE(d.edge, 0);
    ASSERT_LT(d.edge, E);
    EXPECT_TRUE(seen[static_cast<std::size_t>(d.edge)].insert(d.h.id).second)
        << "edge " << d.edge << ": " << d.h.id.to_string() << " delivered twice";
    ++count[static_cast<std::size_t>(d.edge)];
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(out.producers) *
                                    prof.steps * prof.bytes_per_rank_per_step;
  for (int e = 0; e < E; ++e) {
    const auto& s = out.stats[static_cast<std::size_t>(e)];
    EXPECT_EQ(s.blocks_analyzed, s.blocks_total) << "edge " << e;
    EXPECT_EQ(count[static_cast<std::size_t>(e)], s.blocks_analyzed)
        << "edge " << e;
    EXPECT_GT(s.blocks_total, 0u) << "edge " << e;
  }
  // Edge 0 carries the simulation's full output.
  EXPECT_EQ(out.stats[0].bytes_via_network + out.stats[0].bytes_via_pfs,
            total_bytes);
}

TEST_P(PipelineGraphs, HopToHopConservation) {
  const auto out = run_random_pipeline(GetParam());
  const int E = out.spec.num_edges();
  // Blocks and bytes leaving edge e's analysis enter edge e+1 re-stamped,
  // scaled by the edge's compression — nothing dropped, nothing invented.
  for (int e = 0; e + 1 < E; ++e) {
    std::uint64_t fwd_blocks = 0, fwd_bytes = 0;
    for (const auto& d : out.deliveries) {
      if (d.edge != e) continue;
      ++fwd_blocks;
      fwd_bytes += forwarded_bytes(
          d.h.bytes, out.spec.edges[static_cast<std::size_t>(e) + 1].compression);
    }
    const auto& down = out.stats[static_cast<std::size_t>(e) + 1];
    EXPECT_EQ(down.blocks_total, fwd_blocks) << "edge " << e + 1;
    EXPECT_EQ(down.bytes_via_network + down.bytes_via_pfs, fwd_bytes)
        << "edge " << e + 1;
  }
}

TEST_P(PipelineGraphs, PerEdgeNetworkFifoOrderPerProducerConsumerPair) {
  const auto out = run_random_pipeline(GetParam());
  // Within one edge, the network channel never reorders one (local)
  // producer's blocks as seen by any one consumer — stealing moves whole
  // ready blocks, and a stolen subsequence of a FIFO is still in order.
  // Spilled blocks ride the reader path, which reorders by design.
  //
  // The FIFO key differs by edge: the simulation stamps {step, p, b} with b
  // resetting each step, while interior forwarders stamp a never-resetting
  // seq as the index and carry the *upstream* step (which can interleave
  // across the upstream consumer's sources) — so deeper edges order by
  // index alone.
  const auto fifo_key = [](int edge, const BlockId& id) {
    return edge == 0 ? std::pair{id.step, id.index} : std::pair{0, id.index};
  };
  std::map<std::tuple<int, int, int>,  // (edge, producer, consumer)
           std::pair<std::int32_t, std::int32_t>>
      last;
  for (const auto& d : out.deliveries) {
    if (d.h.on_disk) continue;
    const std::tuple<int, int, int> key{d.edge, d.h.id.producer, d.consumer};
    const auto it = last.find(key);
    if (it != last.end()) {
      EXPECT_LT(it->second, fifo_key(d.edge, d.h.id))
          << "edge " << d.edge << " producer " << d.h.id.producer
          << " -> consumer " << d.consumer << " went backwards";
    }
    last[key] = fifo_key(d.edge, d.h.id);
  }
}

TEST_P(PipelineGraphs, DeterministicReplay) {
  const auto a = run_random_pipeline(GetParam());
  const auto b = run_random_pipeline(GetParam());
  EXPECT_EQ(a.end_to_end_s, b.end_to_end_s);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].edge, b.deliveries[i].edge);
    EXPECT_EQ(a.deliveries[i].consumer, b.deliveries[i].consumer);
    EXPECT_EQ(a.deliveries[i].h.id, b.deliveries[i].h.id);
    EXPECT_EQ(a.deliveries[i].h.bytes, b.deliveries[i].h.bytes);
  }
}

TEST(PipelineSpills, EdgesSpillingEqualBlockIdsKeepSeparateFiles) {
  // Both hops of a depth-2 chain under pressure: 32 small blocks per step,
  // shallow buffers, a one-block credit window and a slow final stage. Edge
  // 1's forwarders stamp {upstream step, rank, seq}, so its spilled blocks
  // reuse ids that edge 0 spilled too. The PFS must still hold one file per
  // spilled block: a name shared across edges would let the later create
  // truncate the earlier block's file.
  auto pl = make_chain(2);
  pl.stages[2].work_factor = 4;
  core::zbody::VtConfig z;
  z.block_bytes = 64 * KiB;
  z.producer_buffer_blocks = 4;
  z.consumer_buffer_blocks = 2;
  z.sender_window = 1;
  auto prof = pipeline_profile();
  prof.bytes_per_rank_per_step = 2 * MiB;
  const auto out = run_pipeline(pl, z, 4, 2, prof);

  std::set<BlockId> on_disk[2];
  for (const auto& d : out.deliveries) {
    if (d.h.on_disk) on_disk[d.edge].insert(d.h.id);
  }
  std::vector<BlockId> shared;
  std::set_intersection(on_disk[0].begin(), on_disk[0].end(),
                        on_disk[1].begin(), on_disk[1].end(),
                        std::back_inserter(shared));
  ASSERT_FALSE(shared.empty()) << "no BlockId spilled on both edges";
  EXPECT_EQ(out.pfs_files, on_disk[0].size() + on_disk[1].size());
}

// ------------------------------------------------------ the metric contract --

namespace {

/// metrics() of a finished depth-`depth` chain on 4 producers x 2 consumers.
std::map<std::string, double> chain_metrics(int depth, bool controller) {
  const auto prof = pipeline_profile();
  core::zbody::VtConfig z;
  z.block_bytes = 512 * KiB;
  if (controller) {
    z.controller = [](const core::chaos::ControlSnapshot&) {
      return core::chaos::ControlAction{};
    };
  }
  const auto pl = make_chain(depth);
  const auto r = pl.resolved_ranks(4, 2);
  workflow::Cluster cluster(workflow::ClusterSpec::bridges(),
                            workflow::Layout{4, r[1], depth > 1 ? r[2] : 0});
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, pl);
  workflow::run_workflow(cluster, prof, &coupling);
  if (depth == 1) {
    // The whole map is zipper_metrics() of the one edge.
    EXPECT_EQ(coupling.metrics(),
              workflow::zipper_metrics(coupling.edge(0).aggregate(), controller));
  }
  return coupling.metrics();
}

}  // namespace

TEST(PipelineMetrics, OneEdgeChainPublishesTheZipperKeysOnly) {
  const std::vector<std::string> zipper_keys = {
      "analysis_busy_s", "blocks_stolen",  "blocks_total",    "bytes_via_network",
      "bytes_via_pfs",   "consumer_steals", "sender_busy_s",  "stall_s",
      "steal_fraction",  "store_busy_s",   "writer_busy_s"};
  const std::vector<std::string> resilience = {
      "blocks_spilled_slow", "control_actions", "put_retries"};
  for (bool controller : {false, true}) {
    const auto one = chain_metrics(1, controller);
    const auto two = chain_metrics(2, controller);
    EXPECT_EQ(one.size(), zipper_keys.size() + (controller ? 3 : 0));
    for (const auto& k : zipper_keys) {
      EXPECT_TRUE(one.count(k) && two.count(k)) << k;
    }
    // Resilience counters: top level on one edge; on longer chains only
    // under the chaos edge's e<i>_ prefix.
    for (const auto& k : resilience) {
      EXPECT_EQ(one.count(k), controller ? 1u : 0u) << k;
      EXPECT_EQ(two.count(k), 0u) << k;
      EXPECT_EQ(two.count("e0_" + k), controller ? 1u : 0u) << k;
    }
    EXPECT_EQ(one.count("pipeline_edges"), 0u);
    EXPECT_EQ(two.at("pipeline_edges"), 2.0);
    EXPECT_EQ(two.at("e1_blocks_analyzed"), two.at("e1_blocks_total"));
  }
}
