// Differential suite over the unified execution core: the zipper application
// body (core/zipper) is one translation unit instantiated over two executors
// (core/exec), and this file pins down the contract between them. The same
// seeded workload runs on the VirtualTimeExecutor (one ZipperBody<VtBinding>
// per edge of workflow::PipelineCoupling) and on the embedded runtime
// (core/rt, one epoll loop thread) and must agree on the streaming
// invariants:
//
//   * exactly-once delivery — every produced block analyzed/read once;
//   * per-(producer,consumer) FIFO — with the dual channel and consumer
//     stealing disabled, blocks from one producer reach their consumer in
//     production order on both executors;
//   * conservation of blocks/bytes/spills — written == sent + stolen per
//     producer, delivered == from_network + from_disk per consumer, and the
//     spilled/sent totals match across the producer and consumer sides.
//
// Plus the unified-stats contract (one exec::RankStats for both executors,
// wait_ns populated under virtual time too) and two-run determinism of the
// sharded virtual-time path (--sim-threads 4).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/profiles.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/exec/exec.hpp"
#include "core/rt/runtime.hpp"
#include "exp/artifacts.hpp"
#include "exp/scenario.hpp"
#include "workflow/runner.hpp"
#include "workflow/pipeline_coupling.hpp"

namespace fs = std::filesystem;
using namespace zipper;
using common::KiB;
using core::BlockHeader;
using core::BlockId;
using core::exec::RankStats;

// --------------------------------------------------- unified stats contract --
// One struct serves both executors; this is a compile-time API contract, so
// calibration code can consume either runtime's counters field-for-field.
static_assert(std::is_same_v<core::rt::ProducerStats, RankStats>);
static_assert(std::is_same_v<core::rt::ConsumerStats, RankStats>);

namespace {

// The shared seeded workload, identical on both executors: kP producers each
// emit kSteps steps of kStepBytes, split exactly as the virtual-time put path
// splits them (full kBlockBytes blocks, remainder in the last block).
constexpr int kP = 4;
constexpr int kQ = 2;
constexpr int kSteps = 3;
constexpr std::uint64_t kBlockBytes = 64 * KiB;
constexpr std::uint64_t kStepBytes = 5 * 64 * KiB + 32 * KiB;  // non-divisible
constexpr int kBlocksPerStep = 6;  // ceil(kStepBytes / kBlockBytes)

std::uint64_t block_bytes_of(int b) {
  return b + 1 < kBlocksPerStep ? kBlockBytes
                                : kStepBytes - (kBlocksPerStep - 1) * kBlockBytes;
}

// Per-(consumer,producer) delivery order, for the FIFO property.
using OrderLog = std::map<std::pair<int, int>, std::vector<BlockId>>;

void expect_fifo(const OrderLog& order, const char* executor) {
  for (const auto& [key, seq] : order) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LT(seq[i - 1], seq[i])
          << executor << ": consumer " << key.first << " saw producer "
          << key.second << "'s blocks out of production order: "
          << seq[i - 1].to_string() << " before " << seq[i].to_string();
    }
  }
}

// ---------------------------------------------------------- virtual time ----

struct VtOutcome {
  core::exec::AggregateStats stats;
  std::vector<RankStats> prod, cons;
  OrderLog order;
};

VtOutcome run_virtual(bool steal) {
  apps::WorkloadProfile prof;
  prof.name = "exec-diff";
  prof.steps = kSteps;
  prof.bytes_per_rank_per_step = kStepBytes;
  prof.t_collision = sim::from_seconds(0.01);
  prof.t_update = sim::from_seconds(0.01);
  prof.analysis_ns_per_byte = 1.0;  // cheap analysis: consumers starve => wait

  core::zbody::VtConfig z;
  z.block_bytes = kBlockBytes;
  z.producer_buffer_blocks = 4;
  z.enable_steal = steal;

  VtOutcome out;
  z.on_analyzed = [&out](int c, const BlockHeader& h) {
    out.order[{c, h.id.producer}].push_back(h.id);
  };

  workflow::Cluster cluster(workflow::ClusterSpec::bridges(),
                            workflow::Layout{kP, kQ, 0});
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, workflow::make_chain(1));
  workflow::run_workflow(cluster, prof, &coupling);
  out.stats = coupling.edge(0).aggregate();
  for (int p = 0; p < kP; ++p) out.prod.push_back(coupling.edge(0).producer_stats(p));
  for (int c = 0; c < kQ; ++c) out.cons.push_back(coupling.edge(0).consumer_stats(c));
  return out;
}

// -------------------------------------------------------------- threaded ----

struct TempDirs {
  fs::path spill, preserve;
  TempDirs() {
    const auto base = fs::temp_directory_path() /
                      ("zipper_exec_test_" + std::to_string(::getpid()) + "_" +
                       std::to_string(counter()++));
    spill = base / "spill";
    preserve = base / "preserve";
    fs::create_directories(spill);
    fs::create_directories(preserve);
  }
  ~TempDirs() {
    std::error_code ec;
    fs::remove_all(spill.parent_path(), ec);
  }
  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
};

std::vector<std::byte> make_payload(std::uint64_t seed, std::size_t n) {
  std::vector<std::byte> out(n);
  common::Xoshiro256 rng(seed);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xFF);
  return out;
}

struct RtOutcome {
  std::vector<RankStats> prod, cons;
  std::map<BlockId, int> delivered;  // id -> times read
  std::uint64_t bytes_read = 0;
  OrderLog order;
};

RtOutcome run_threaded(bool steal, double network_bandwidth) {
  TempDirs dirs;
  core::rt::Config cfg;
  cfg.spill_dir = dirs.spill;
  cfg.preserve_dir = dirs.preserve;
  cfg.producer_buffer_blocks = 4;
  cfg.high_water = 0.5;
  cfg.enable_steal = steal;
  cfg.network_bandwidth = network_bandwidth;
  core::rt::Runtime rt(kP, kQ, cfg);

  std::vector<std::thread> producers;
  for (int p = 0; p < kP; ++p) {
    producers.emplace_back([&rt, p] {
      for (int s = 0; s < kSteps; ++s) {
        for (int b = 0; b < kBlocksPerStep; ++b) {
          const auto payload = make_payload(
              static_cast<std::uint64_t>(p * 10000 + s * 100 + b),
              block_bytes_of(b));
          rt.producer(p).write(BlockId{s, p, b}, payload);
        }
      }
      rt.producer(p).finish();
    });
  }

  RtOutcome out;
  std::mutex m;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kQ; ++c) {
    consumers.emplace_back([&rt, &out, &m, c] {
      while (auto block = rt.consumer(c).read()) {
        std::lock_guard<std::mutex> lock(m);
        out.delivered[block->header.id]++;
        out.bytes_read += block->payload.size();
        out.order[{c, block->header.id.producer}].push_back(block->header.id);
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  for (int p = 0; p < kP; ++p) out.prod.push_back(rt.producer(p).stats());
  for (int c = 0; c < kQ; ++c) out.cons.push_back(rt.consumer(c).stats());
  return out;
}

// Shared conservation assertions, phrased purely over the unified RankStats
// so the exact same checks run against both executors' counters.
void expect_conserved(const std::vector<RankStats>& prod,
                      const std::vector<RankStats>& cons, const char* executor) {
  constexpr std::uint64_t kExpectedBlocks =
      static_cast<std::uint64_t>(kP) * kSteps * kBlocksPerStep;
  std::uint64_t written = 0, sent = 0, stolen = 0;
  for (const auto& s : prod) {
    EXPECT_EQ(s.blocks_written, s.blocks_sent + s.blocks_stolen)
        << executor << ": every accepted block leaves via exactly one channel";
    written += s.blocks_written;
    sent += s.blocks_sent;
    stolen += s.blocks_stolen;
  }
  std::uint64_t read = 0, from_net = 0, from_disk = 0;
  for (const auto& s : cons) {
    EXPECT_EQ(s.blocks_read, s.blocks_from_network + s.blocks_from_disk)
        << executor << ": delivery splits across exactly the two channels";
    read += s.blocks_read;
    from_net += s.blocks_from_network;
    from_disk += s.blocks_from_disk;
  }
  EXPECT_EQ(written, kExpectedBlocks) << executor;
  EXPECT_EQ(read, kExpectedBlocks) << executor << ": exactly-once delivery";
  EXPECT_EQ(sent, from_net) << executor << ": network channel conserves blocks";
  EXPECT_EQ(stolen, from_disk) << executor << ": spill channel conserves blocks";
}

}  // namespace

// -------------------------------------------------------------- the suite ----

TEST(ExecDifferential, ConservationHoldsOnBothExecutors) {
  const auto vt = run_virtual(/*steal=*/true);
  // Throttled network so the threaded run exercises the spill channel too.
  const auto rt = run_threaded(/*steal=*/true, /*network_bandwidth=*/8e6);

  expect_conserved(vt.prod, vt.cons, "virtual-time");
  expect_conserved(rt.prod, rt.cons, "threaded");

  // The virtual-time facade's aggregate view agrees with its per-rank view.
  constexpr std::uint64_t kExpectedBlocks =
      static_cast<std::uint64_t>(kP) * kSteps * kBlocksPerStep;
  constexpr std::uint64_t kExpectedBytes =
      static_cast<std::uint64_t>(kP) * kSteps * kStepBytes;
  EXPECT_EQ(vt.stats.blocks_total, kExpectedBlocks);
  EXPECT_EQ(vt.stats.blocks_analyzed, kExpectedBlocks);
  EXPECT_EQ(vt.stats.bytes_via_network + vt.stats.bytes_via_pfs, kExpectedBytes);
  std::uint64_t vt_stolen = 0;
  for (const auto& s : vt.prod) vt_stolen += s.blocks_stolen;
  EXPECT_EQ(vt.stats.blocks_stolen, vt_stolen);

  // Byte conservation on the threaded side is measured on the real payloads.
  EXPECT_EQ(rt.bytes_read, kExpectedBytes);
  EXPECT_EQ(rt.delivered.size(), kExpectedBlocks);
  for (const auto& [id, count] : rt.delivered)
    EXPECT_EQ(count, 1) << "block " << id.to_string() << " delivered " << count
                        << " times";
}

TEST(ExecDifferential, PerProducerConsumerFifoOnBothExecutors) {
  // FIFO is only promised on the single-channel schedule: the dual channel
  // (spill + network) legitimately interleaves, so steal stays off, and
  // consumer stealing is off by default (sched.consumer_steal).
  const auto vt = run_virtual(/*steal=*/false);
  const auto rt = run_threaded(/*steal=*/false, /*network_bandwidth=*/0.0);

  expect_fifo(vt.order, "virtual-time");
  expect_fifo(rt.order, "threaded");

  // Static routing: each producer's stream lands wholly on one consumer, so
  // both executors must produce the same (producer -> consumer) incidence.
  std::set<std::pair<int, int>> vt_pairs, rt_pairs;
  for (const auto& [key, seq] : vt.order)
    if (!seq.empty()) vt_pairs.insert({key.second, key.first});
  for (const auto& [key, seq] : rt.order)
    if (!seq.empty()) rt_pairs.insert({key.second, key.first});
  EXPECT_EQ(vt_pairs, rt_pairs)
      << "the two executors routed producers to different consumers";
  EXPECT_EQ(vt_pairs.size(), static_cast<std::size_t>(kP));
}

TEST(ExecDifferential, WaitNsPopulatedOnBothExecutors) {
  // The historical asymmetry: only the threaded runtime reported consumer
  // wait_ns. The unified body accounts it on whichever clock it runs.
  const auto vt = run_virtual(/*steal=*/false);
  std::uint64_t vt_wait = 0;
  for (const auto& s : vt.cons) vt_wait += s.wait_ns;
  EXPECT_GT(vt_wait, 0u)
      << "virtual-time consumers must report time blocked waiting for blocks";

  const auto rt = run_threaded(/*steal=*/false, /*network_bandwidth=*/0.0);
  std::uint64_t rt_wait = 0;
  for (const auto& s : rt.cons) rt_wait += s.wait_ns;
  EXPECT_GT(rt_wait, 0u)
      << "threaded consumers must report time blocked waiting for blocks";
}

// ------------------------------------------------- sharded VT determinism ----

// Two-run determinism of the virtual-time path under --sim-threads 4: the
// sharded parallel DES must replay the identical schedule, so the artifact
// bytes (CSV and JSON) of back-to-back runs are equal.
TEST(ExecDeterminism, ShardedVirtualTimeTwoRunsByteIdentical) {
  exp::ScenarioSpec spec;
  spec.cluster = "stampede2";
  spec.workload = exp::Workload::kCfdStampede2;
  spec.steps = 2;
  spec.producers = 544;  // 8 KNL hosts
  spec.consumers = 272;  // 4 KNL hosts
  spec.method = transports::Method::kZipper;
  spec.zipper.enable_steal = false;
  spec.halo_neighbors = 0;
  spec.label = "exec/determinism";
  spec.sim_threads = 4;

  const auto first = exp::run_scenario(spec);
  ASSERT_FALSE(first.crashed) << first.note;
  const auto second = exp::run_scenario(spec);
  ASSERT_FALSE(second.crashed) << second.note;
  EXPECT_EQ(exp::to_csv({first}), exp::to_csv({second}));
  EXPECT_EQ(exp::to_json({first}), exp::to_json({second}));
}
