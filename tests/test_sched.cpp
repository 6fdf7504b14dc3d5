// The pluggable scheduling layer: policy unit tests, then property sweeps
// over the simulated runtime asserting that the delivery invariants hold
// under *every* route x spill x consumer-steal x block-size combination, that
// parallel sweeps stay bitwise deterministic with load-aware routing, and
// that the threaded runtime's consumer-side stealing conserves blocks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/sched/sched.hpp"
#include "core/rt/runtime.hpp"
#include "exp/artifacts.hpp"
#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "workflow/runner.hpp"
#include "workflow/pipeline_coupling.hpp"

using namespace zipper;
using namespace zipper::core;
using namespace zipper::core::sched;
using common::KiB;
using common::MiB;

// ---------------------------------------------------------------- tokens ----

TEST(SchedTokens, RoundTrip) {
  for (RouteKind k : {RouteKind::kStatic, RouteKind::kRoundRobin,
                      RouteKind::kLeastQueued}) {
    EXPECT_EQ(parse_route(route_token(k)), k);
  }
  for (SpillKind k : {SpillKind::kHighWater, SpillKind::kHysteresis,
                      SpillKind::kAdaptive}) {
    EXPECT_EQ(parse_spill(spill_token(k)), k);
  }
  for (BlockSizeKind k : {BlockSizeKind::kFixed, BlockSizeKind::kAdaptive}) {
    EXPECT_EQ(parse_block_size(block_size_token(k)), k);
  }
  EXPECT_EQ(parse_route("least-queued"), RouteKind::kLeastQueued);
  EXPECT_EQ(parse_spill("hysteresis"), SpillKind::kHysteresis);
  EXPECT_FALSE(parse_route("carrier-pigeon").has_value());
  EXPECT_FALSE(parse_spill("yolo").has_value());
}

// --------------------------------------------------------------- routing ----

TEST(RoutePolicyTest, StaticMatchesConsumerOf) {
  SchedConfig cfg;
  const int P = 7, Q = 3;
  RoutePolicy route(cfg, P, Q);
  SchedContext ctx(P, Q);
  for (int p = 0; p < P; ++p) {
    for (int b = 0; b < 5; ++b) {
      EXPECT_EQ(route.consumer_for(BlockId{2, p, b}, ctx),
                consumer_of(BlockId{2, p, b}, P, Q));
    }
  }
  EXPECT_TRUE(route.pinned());
  for (int c = 0; c < Q; ++c) {
    EXPECT_EQ(route.expected_producers(c), producers_of_consumer(c, P, Q));
  }
}

TEST(RoutePolicyTest, RoundRobinSpreadsEveryProducerAcrossConsumers) {
  SchedConfig cfg;
  cfg.route = RouteKind::kRoundRobin;
  const int P = 4, Q = 3;
  RoutePolicy route(cfg, P, Q);
  SchedContext ctx(P, Q);
  EXPECT_FALSE(route.pinned());
  for (int p = 0; p < P; ++p) {
    std::set<int> seen;
    for (int b = 0; b < 12; ++b) {
      const int c = route.consumer_for(BlockId{0, p, b}, ctx);
      ASSERT_GE(c, 0);
      ASSERT_LT(c, Q);
      seen.insert(c);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(Q)) << "producer " << p;
    // Non-pinned routing: done messages must reach every consumer.
    EXPECT_EQ(route.consumers_fed_by(p).size(), static_cast<std::size_t>(Q));
    EXPECT_EQ(route.expected_producers(0), P);
  }
}

TEST(RoutePolicyTest, LeastQueuedFollowsOutstandingCounts) {
  SchedConfig cfg;
  cfg.route = RouteKind::kLeastQueued;
  RoutePolicy route(cfg, 4, 3);
  SchedContext ctx(4, 3);
  ctx.on_routed(0);
  ctx.on_routed(0);
  ctx.on_routed(1);
  EXPECT_EQ(route.consumer_for(BlockId{0, 0, 0}, ctx), 2);
  ctx.on_routed(2);
  ctx.on_routed(2);
  EXPECT_EQ(route.consumer_for(BlockId{0, 0, 1}, ctx), 1);
  ctx.on_analyzed(0);
  ctx.on_analyzed(0);
  EXPECT_EQ(route.consumer_for(BlockId{0, 0, 2}, ctx), 0);
  // Ties break to the lowest index for determinism.
  SchedContext fresh(4, 3);
  EXPECT_EQ(route.consumer_for(BlockId{0, 3, 9}, fresh), 0);
}

// -------------------------------------------------------------- spilling ----

TEST(SpillPolicyTest, HighWaterMatchesStealPolicyExactly) {
  SchedConfig cfg;
  StealPolicy base{16, 0.5, true};
  SpillPolicy spill(cfg, base);
  for (std::size_t n = 0; n <= 16; ++n) {
    EXPECT_EQ(spill.should_spill(n, 0), base.should_steal(n)) << n;
    EXPECT_EQ(spill.wake_writer(n), base.should_steal(n)) << n;
  }
}

TEST(SpillPolicyTest, DisabledNeverSpills) {
  for (SpillKind k : {SpillKind::kHighWater, SpillKind::kHysteresis,
                      SpillKind::kAdaptive}) {
    SchedConfig cfg;
    cfg.spill = k;
    SpillPolicy spill(cfg, StealPolicy{8, 0.5, false});
    EXPECT_FALSE(spill.should_spill(8, 1000));
    EXPECT_FALSE(spill.wake_writer(8));
  }
}

TEST(SpillPolicyTest, HysteresisDrainsToLowWater) {
  SchedConfig cfg;
  cfg.spill = SpillKind::kHysteresis;
  cfg.low_water = 0.25;
  SpillPolicy spill(cfg, StealPolicy{16, 0.5, true});  // hi = 8, lo = 4
  EXPECT_FALSE(spill.should_spill(8, 0));  // below/at hi: not armed
  EXPECT_TRUE(spill.should_spill(9, 0));   // arms
  EXPECT_TRUE(spill.should_spill(7, 0));   // keeps draining below hi...
  EXPECT_TRUE(spill.should_spill(5, 0));
  EXPECT_FALSE(spill.should_spill(4, 0));  // ...until lo: disarms
  EXPECT_FALSE(spill.should_spill(6, 0));  // stays off between lo and hi
  EXPECT_TRUE(spill.should_spill(9, 0));   // re-arms
}

TEST(SpillPolicyTest, AdaptiveLowersBarOnStallAndRecovers) {
  SchedConfig cfg;
  cfg.spill = SpillKind::kAdaptive;
  cfg.spill_recovery_checks = 2;
  SpillPolicy spill(cfg, StealPolicy{16, 0.5, true});  // start threshold 8
  EXPECT_FALSE(spill.should_spill(7, 0));
  // Each fresh-stall observation lowers the threshold by one block.
  EXPECT_FALSE(spill.should_spill(7, 100));  // threshold 8 -> 7; 7 !> 7
  EXPECT_TRUE(spill.should_spill(7, 200));   // threshold 7 -> 6; 7 > 6
  // Calm checks raise it back.
  EXPECT_FALSE(spill.should_spill(5, 200));
  EXPECT_FALSE(spill.should_spill(5, 200));  // 2nd calm check: 6 -> 7
  EXPECT_TRUE(spill.should_spill(8, 200));
}

TEST(SpillPolicyTest, WakeHintIsSupersetOfSpillDecision) {
  for (SpillKind k : {SpillKind::kHighWater, SpillKind::kHysteresis,
                      SpillKind::kAdaptive}) {
    SchedConfig cfg;
    cfg.spill = k;
    SpillPolicy spill(cfg, StealPolicy{16, 0.5, true});
    std::uint64_t stall = 0;
    for (int i = 0; i < 200; ++i) {
      const std::size_t size = static_cast<std::size_t>((i * 7) % 17);
      if (i % 5 == 0) stall += 50;
      const bool wake = spill.wake_writer(size);
      if (spill.should_spill(size, stall)) {
        EXPECT_TRUE(wake) << spill_token(k) << " size " << size
                          << ": writer would sleep through a spill decision";
      }
    }
  }
}

// ------------------------------------------------------------ block size ----

TEST(BlockSizerTest, FixedIgnoresStall) {
  SchedConfig cfg;
  BlockSizer sizer(cfg, MiB);
  EXPECT_EQ(sizer.next_block_bytes(0), MiB);
  EXPECT_EQ(sizer.next_block_bytes(1000000), MiB);
}

TEST(BlockSizerTest, AdaptiveCoarsensUnderStallAndRelaxes) {
  SchedConfig cfg;
  cfg.block_size = BlockSizeKind::kAdaptive;
  cfg.block_size_max_multiple = 4;
  BlockSizer sizer(cfg, MiB);
  EXPECT_EQ(sizer.next_block_bytes(0), MiB);         // calm: base
  EXPECT_EQ(sizer.next_block_bytes(100), 2 * MiB);   // stall: doubles
  EXPECT_EQ(sizer.next_block_bytes(200), 4 * MiB);   // more stall: doubles
  EXPECT_EQ(sizer.next_block_bytes(300), 4 * MiB);   // capped at 4x base
  EXPECT_EQ(sizer.next_block_bytes(300), 4 * MiB);   // calm check 1
  EXPECT_EQ(sizer.next_block_bytes(300), 2 * MiB);   // calm check 2: halves
  EXPECT_EQ(sizer.next_block_bytes(300), 2 * MiB);
  EXPECT_EQ(sizer.next_block_bytes(300), MiB);       // back to base, stays
  EXPECT_EQ(sizer.next_block_bytes(300), MiB);
  EXPECT_EQ(sizer.next_block_bytes(300), MiB);
}

// ----------------------------------------- DES runtime: delivery invariants --

namespace {

struct ComboCase {
  RouteKind route;
  SpillKind spill;
  bool consumer_steal;
  bool adaptive_block;
  bool preserve;
};

std::string combo_name(const ComboCase& c) {
  return route_token(c.route) + "_" + spill_token(c.spill) +
         (c.consumer_steal ? "_csteal" : "_nocsteal") +
         (c.adaptive_block ? "_ablk" : "") + (c.preserve ? "_preserve" : "");
}

std::vector<ComboCase> all_combos() {
  std::vector<ComboCase> out;
  for (RouteKind r : {RouteKind::kStatic, RouteKind::kRoundRobin,
                      RouteKind::kLeastQueued}) {
    for (SpillKind s : {SpillKind::kHighWater, SpillKind::kHysteresis,
                        SpillKind::kAdaptive}) {
      for (bool cs : {false, true}) {
        for (bool ab : {false, true}) {
          for (bool pv : {false, true}) {
            out.push_back({r, s, cs, ab, pv});
          }
        }
      }
    }
  }
  return out;
}

apps::WorkloadProfile combo_profile() {
  apps::WorkloadProfile p;
  p.name = "sched-sweep";
  p.steps = 3;
  p.bytes_per_rank_per_step = 2 * MiB + 256 * KiB;  // non-divisible split
  p.t_collision = sim::from_seconds(0.02);
  p.t_update = sim::from_seconds(0.01);
  p.analysis_ns_per_byte = 30.0;  // consumers lag: pressure + deep queues
  return p;
}

struct Delivery {
  int consumer;
  core::BlockHeader h;
};

struct ComboOutcome {
  workflow::RunResult result;
  core::exec::AggregateStats stats;
  std::vector<Delivery> deliveries;
};

ComboOutcome run_combo(const ComboCase& sc) {
  const auto prof = combo_profile();
  core::zbody::VtConfig z;
  z.block_bytes = 512 * KiB;
  z.producer_buffer_blocks = 4;
  z.consumer_buffer_blocks = 8;  // small enough that stealing has material
  z.sender_window = 2;
  z.enable_steal = true;
  z.preserve = sc.preserve;
  z.sched.route = sc.route;
  z.sched.spill = sc.spill;
  z.sched.consumer_steal = sc.consumer_steal;
  z.sched.steal_min_queue = 2;
  z.sched.block_size = sc.adaptive_block ? BlockSizeKind::kAdaptive
                                         : BlockSizeKind::kFixed;
  ComboOutcome out;
  z.on_analyzed = [&out](int c, const core::BlockHeader& h) {
    out.deliveries.push_back({c, h});
  };
  workflow::Layout layout{5, 3, 0};  // contiguous shares {2, 2, 1}: imbalanced
  workflow::Cluster cluster(workflow::ClusterSpec::bridges(), layout);
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, workflow::make_chain(1));
  out.result = workflow::run_workflow(cluster, prof, &coupling);
  out.stats = coupling.edge(0).aggregate();
  return out;
}

}  // namespace

class SchedCombos : public ::testing::TestWithParam<ComboCase> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedCombos,
                         ::testing::ValuesIn(all_combos()),
                         [](const auto& info) { return combo_name(info.param); });

TEST_P(SchedCombos, EveryBlockDeliveredExactlyOnceAndBytesConserved) {
  const auto out = run_combo(GetParam());
  const auto prof = combo_profile();
  const std::uint64_t total_bytes = 5ull * prof.steps * prof.bytes_per_rank_per_step;

  EXPECT_EQ(out.stats.blocks_analyzed, out.stats.blocks_total);
  EXPECT_EQ(out.deliveries.size(), out.stats.blocks_analyzed);
  EXPECT_EQ(out.stats.bytes_via_network + out.stats.bytes_via_pfs, total_bytes);

  std::set<BlockId> seen;
  std::uint64_t delivered_bytes = 0;
  for (const auto& d : out.deliveries) {
    EXPECT_TRUE(seen.insert(d.h.id).second)
        << d.h.id.to_string() << " delivered twice";
    delivered_bytes += d.h.bytes;
  }
  EXPECT_EQ(delivered_bytes, total_bytes);
  if (!GetParam().consumer_steal) {
    EXPECT_EQ(out.stats.blocks_consumer_stolen, 0u);
  }
}

TEST_P(SchedCombos, NetworkPathDeliveriesStayInProductionOrderPerPair) {
  // The preserve/in-order contract: whatever the schedule, the network
  // channel never reorders a producer's blocks as seen by any one consumer —
  // stealing moves only whole ready blocks, and a stolen subsequence of a
  // FIFO is still in order. (Spilled blocks ride the reader path, which
  // reorders relative to the network by design; they are excluded.)
  const auto out = run_combo(GetParam());
  std::map<std::pair<int, int>, BlockId> last;  // (producer, consumer) -> id
  for (const auto& d : out.deliveries) {
    if (d.h.on_disk) continue;
    const std::pair<int, int> key{d.h.id.producer, d.consumer};
    const auto it = last.find(key);
    if (it != last.end()) {
      EXPECT_LT(it->second, d.h.id)
          << "producer " << key.first << " -> consumer " << key.second
          << " went backwards";
    }
    last[key] = d.h.id;
  }
}

TEST_P(SchedCombos, PreserveModePersistsEveryByte) {
  const auto& sc = GetParam();
  if (!sc.preserve) return;
  const auto prof = combo_profile();
  core::zbody::VtConfig z;
  z.block_bytes = 512 * KiB;
  z.producer_buffer_blocks = 4;
  z.consumer_buffer_blocks = 8;
  z.enable_steal = true;
  z.preserve = true;
  z.sched.route = sc.route;
  z.sched.spill = sc.spill;
  z.sched.consumer_steal = sc.consumer_steal;
  z.sched.steal_min_queue = 2;
  z.sched.block_size = sc.adaptive_block ? BlockSizeKind::kAdaptive
                                         : BlockSizeKind::kFixed;
  workflow::Layout layout{5, 3, 0};
  workflow::Cluster cluster(workflow::ClusterSpec::bridges(), layout);
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, workflow::make_chain(1));
  workflow::run_workflow(cluster, prof, &coupling);
  const std::uint64_t total_bytes = 5ull * prof.steps * prof.bytes_per_rank_per_step;
  EXPECT_GE(cluster.fs->total_bytes_written(), total_bytes);
}

TEST(SchedRuntime, ConsumerStealingEngagesOnImbalance) {
  ComboCase sc{RouteKind::kStatic, SpillKind::kHighWater,
               /*consumer_steal=*/true, false, false};
  const auto out = run_combo(sc);
  EXPECT_GT(out.stats.blocks_consumer_stolen, 0u)
      << "idle consumers never stole despite a 2:1 load imbalance";
}

TEST(SchedRuntime, DeterministicReplayUnderNonDefaultPolicies) {
  for (const ComboCase sc :
       {ComboCase{RouteKind::kLeastQueued, SpillKind::kAdaptive, true, true, false},
        ComboCase{RouteKind::kRoundRobin, SpillKind::kHysteresis, true, false, true}}) {
    const auto a = run_combo(sc);
    const auto b = run_combo(sc);
    EXPECT_EQ(a.result.end_to_end_s, b.result.end_to_end_s);
    EXPECT_EQ(a.stats.blocks_consumer_stolen, b.stats.blocks_consumer_stolen);
    EXPECT_EQ(a.stats.bytes_via_network, b.stats.bytes_via_network);
    ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
    for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
      EXPECT_EQ(a.deliveries[i].consumer, b.deliveries[i].consumer);
      EXPECT_EQ(a.deliveries[i].h.id, b.deliveries[i].h.id);
    }
  }
}

// ------------------------------------------- parallel-sweep determinism ----

TEST(SchedSweep, LoadAwareRoutingStaysBitwiseIdenticalAcrossJobs) {
  exp::SweepGrid g;
  g.label_prefix = "sched";
  g.base.cluster = "bridges";
  g.base.workload = exp::Workload::kSyntheticLinear;
  g.base.steps = 2;
  g.base.producers = 10;
  g.base.consumers = 4;
  g.base.method = transports::Method::kZipper;
  g.base.zipper.block_bytes = MiB;
  g.base.zipper.producer_buffer_blocks = 8;
  g.routes = {RouteKind::kLeastQueued};
  g.consumer_steal = {0, 1};
  g.spills = {SpillKind::kHighWater, SpillKind::kAdaptive};
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].label, "sched/route-lq/spill-hw/no-csteal");

  exp::SweepOptions serial;
  serial.jobs = 1;
  const auto r1 = exp::run_sweep(specs, serial);
  exp::SweepOptions parallel;
  parallel.jobs = 4;
  const auto r4 = exp::run_sweep(specs, parallel);

  // Bitwise, not approximate: load-aware routing must read only
  // deterministic DES-internal state, never sweep-thread timing.
  EXPECT_EQ(exp::to_csv(r1), exp::to_csv(r4));
  EXPECT_EQ(exp::to_json(r1), exp::to_json(r4));
}

// ------------------------------------------------- threaded rt runtime ----

TEST(SchedRt, ConsumerStealConservesBlocksAcrossThreads) {
  namespace fs = std::filesystem;
  const auto spill_dir =
      fs::temp_directory_path() / ("zipper_sched_rt_" + std::to_string(::getpid()));
  fs::create_directories(spill_dir);

  rt::Config cfg;
  cfg.spill_dir = spill_dir;
  cfg.producer_buffer_blocks = 8;
  cfg.enable_steal = false;  // single channel: isolate consumer stealing
  cfg.consumer_buffer_blocks = 256;
  cfg.sched.consumer_steal = true;
  cfg.sched.steal_min_queue = 2;
  const int P = 2, Q = 2, blocks = 80;
  std::atomic<std::uint64_t> read_total{0};
  std::mutex mu;
  std::map<std::string, int> seen;
  {
    rt::Runtime runtime(P, Q, cfg);
    std::vector<std::thread> threads;
    for (int p = 0; p < P; ++p) {
      threads.emplace_back([&, p] {
        std::vector<std::byte> payload(4096, std::byte{0x5A});
        for (int b = 0; b < blocks; ++b) {
          runtime.producer(p).write(BlockId{0, p, b}, payload);
        }
        runtime.producer(p).finish();
      });
    }
    for (int c = 0; c < Q; ++c) {
      threads.emplace_back([&, c] {
        while (auto block = runtime.consumer(c).read()) {
          if (c == 0) {
            // A deliberately slow analyst: its backlog is what peer 1 steals.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          read_total.fetch_add(1);
          std::lock_guard lk(mu);
          ++seen[block->header.id.to_string()];
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(read_total.load(), static_cast<std::uint64_t>(P * blocks));
    for (const auto& [id, n] : seen) EXPECT_EQ(n, 1) << id;
    const auto s0 = runtime.consumer(0).stats();
    const auto s1 = runtime.consumer(1).stats();
    EXPECT_EQ(s0.blocks_read + s1.blocks_read,
              static_cast<std::uint64_t>(P * blocks));
  }
  std::error_code ec;
  fs::remove_all(spill_dir, ec);
}

TEST(SchedRt, SuggestedBlockBytesDefaultsToConfiguredBase) {
  rt::Config cfg;
  cfg.block_bytes = 2 * MiB;
  rt::Runtime runtime(1, 1, cfg);
  EXPECT_EQ(runtime.producer(0).suggested_block_bytes(), 2 * MiB);
  runtime.producer(0).finish();
  while (runtime.consumer(0).read()) {
  }
}
