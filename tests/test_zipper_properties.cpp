// Property-style sweeps over the simulated Zipper runtime: for every corner
// of the configuration space (block size x buffer capacity x steal x preserve
// x P/Q shape), the runtime must conserve blocks and bytes across the two
// channels, analyze everything exactly once, respect the pipeline model's
// lower bounds, and terminate.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/profiles.hpp"
#include "common/units.hpp"
#include "workflow/runner.hpp"
#include "workflow/pipeline_coupling.hpp"

using namespace zipper;
using common::KiB;
using common::MiB;
using workflow::Cluster;
using workflow::ClusterSpec;
using workflow::Layout;

namespace {

struct SweepCase {
  std::uint64_t block_bytes;
  int buffer_blocks;
  bool steal;
  bool preserve;
  int producers;
  int consumers;
};

apps::WorkloadProfile sweep_profile() {
  apps::WorkloadProfile p;
  p.name = "sweep";
  p.steps = 6;
  p.bytes_per_rank_per_step = 3 * MiB + 256 * KiB;  // deliberately non-divisible
  p.t_collision = sim::from_seconds(0.03);
  p.t_update = sim::from_seconds(0.02);
  p.analysis_ns_per_byte = 4.0;
  return p;
}

struct RunOutcome {
  workflow::RunResult result;
  core::exec::AggregateStats stats;
  std::uint64_t pfs_bytes_written;
};

RunOutcome run_case(const SweepCase& sc) {
  const auto prof = sweep_profile();
  core::zbody::VtConfig z;
  z.block_bytes = sc.block_bytes;
  z.producer_buffer_blocks = sc.buffer_blocks;
  z.enable_steal = sc.steal;
  z.preserve = sc.preserve;
  z.sender_bandwidth = 150e6;
  Layout layout{sc.producers, sc.consumers, 0};
  Cluster cluster(ClusterSpec::bridges(), layout);
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, workflow::make_chain(1));
  RunOutcome out;
  out.result = workflow::run_workflow(cluster, prof, &coupling);
  out.stats = coupling.edge(0).aggregate();
  out.pfs_bytes_written = cluster.fs->total_bytes_written();
  return out;
}

}  // namespace

class ZipperSweep : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    Corners, ZipperSweep,
    ::testing::Values(
        // block size corners
        SweepCase{256 * KiB, 16, true, false, 6, 3},
        SweepCase{1 * MiB, 16, true, false, 6, 3},
        SweepCase{8 * MiB, 16, true, false, 6, 3},
        // tiny and huge buffers
        SweepCase{1 * MiB, 2, true, false, 6, 3},
        SweepCase{1 * MiB, 128, true, false, 6, 3},
        // steal off
        SweepCase{1 * MiB, 4, false, false, 6, 3},
        SweepCase{512 * KiB, 2, false, false, 6, 3},
        // preserve mode, both channels
        SweepCase{1 * MiB, 4, true, true, 6, 3},
        SweepCase{1 * MiB, 16, false, true, 6, 3},
        // rank shapes: P == Q, P >> Q, Q > P, singletons
        SweepCase{1 * MiB, 8, true, false, 4, 4},
        SweepCase{1 * MiB, 8, true, false, 12, 2},
        SweepCase{1 * MiB, 8, true, false, 2, 6},
        SweepCase{1 * MiB, 8, true, false, 1, 1},
        SweepCase{1 * MiB, 8, true, false, 7, 3}),
    [](const auto& info) {
      const auto& c = info.param;
      return "b" + std::to_string(c.block_bytes / KiB) + "k_cap" +
             std::to_string(c.buffer_blocks) + (c.steal ? "_steal" : "_nosteal") +
             (c.preserve ? "_preserve" : "") + "_P" + std::to_string(c.producers) +
             "Q" + std::to_string(c.consumers);
    });

TEST_P(ZipperSweep, EveryBlockProducedAndAnalyzedExactlyOnce) {
  const auto& sc = GetParam();
  const auto prof = sweep_profile();
  const auto out = run_case(sc);
  const std::uint64_t blocks_per_step =
      (prof.bytes_per_rank_per_step + sc.block_bytes - 1) / sc.block_bytes;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(sc.producers) * prof.steps * blocks_per_step;
  EXPECT_EQ(out.stats.blocks_total, expected);
  EXPECT_EQ(out.stats.blocks_analyzed, expected)
      << "dataflow must deliver every block exactly once";
}

TEST_P(ZipperSweep, BytesConservedAcrossChannels) {
  const auto& sc = GetParam();
  const auto prof = sweep_profile();
  const auto out = run_case(sc);
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(sc.producers) *
                                    prof.steps * prof.bytes_per_rank_per_step;
  EXPECT_EQ(out.stats.bytes_via_network + out.stats.bytes_via_pfs, total_bytes)
      << "network + file channels must carry exactly the produced bytes";
  if (!sc.steal) {
    EXPECT_EQ(out.stats.bytes_via_pfs, 0u);
    EXPECT_EQ(out.stats.blocks_stolen, 0u);
  }
}

TEST_P(ZipperSweep, PreserveModePersistsAllBytes) {
  const auto& sc = GetParam();
  if (!sc.preserve) return;
  const auto prof = sweep_profile();
  const auto out = run_case(sc);
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(sc.producers) *
                                    prof.steps * prof.bytes_per_rank_per_step;
  // Every byte hits the PFS exactly once: spilled blocks already live there,
  // network blocks go through the output thread.
  EXPECT_GE(out.pfs_bytes_written, total_bytes);
}

TEST_P(ZipperSweep, EndToEndRespectsModelLowerBounds) {
  const auto& sc = GetParam();
  const auto prof = sweep_profile();
  const auto out = run_case(sc);
  // Lower bound 1: pure compute.
  const double compute_s =
      prof.steps * sim::to_seconds(prof.compute_per_step()) * (1 - prof.compute_jitter);
  EXPECT_GE(out.result.end_to_end_s, compute_s);
  // Lower bound 2: per-consumer analysis of its share of the bytes.
  const double analysis_s =
      sim::to_seconds(prof.analysis_time(prof.bytes_per_rank_per_step)) *
      prof.steps * sc.producers / sc.consumers;
  EXPECT_GE(out.result.end_to_end_s, analysis_s * 0.99);
  // Sanity upper bound: fully serialized execution.
  const double serial_s = compute_s + analysis_s +
                          sc.producers * prof.steps *
                              static_cast<double>(prof.bytes_per_rank_per_step) / 150e6;
  EXPECT_LE(out.result.end_to_end_s, serial_s * 1.5);
}

TEST_P(ZipperSweep, StallOnlyWithBoundedBufferPressure) {
  const auto& sc = GetParam();
  const auto out = run_case(sc);
  if (sc.buffer_blocks >= 128) {
    // A buffer this deep never fills at these rates: no stall.
    EXPECT_EQ(out.stats.producer_stall, 0);
  }
  if (out.stats.blocks_stolen > 0) {
    // Stealing requires pressure above the threshold, which implies the
    // buffer was at least half full at some point; stolen blocks must have
    // been written to the PFS.
    EXPECT_GT(out.stats.bytes_via_pfs, 0u);
  }
}

TEST_P(ZipperSweep, DeterministicReplay) {
  const auto& sc = GetParam();
  const auto a = run_case(sc);
  const auto b = run_case(sc);
  EXPECT_EQ(a.result.end_to_end_s, b.result.end_to_end_s);
  EXPECT_EQ(a.stats.blocks_stolen, b.stats.blocks_stolen);
  EXPECT_EQ(a.stats.bytes_via_network, b.stats.bytes_via_network);
}

// ------------------------------------------------------ failure injection --

TEST(ZipperFault, CrawlingConsumerDoesNotDeadlockProducers) {
  // Analysis 100x slower than production: the dual channel must keep the
  // producers moving (bounded stall via spill), and everything still
  // completes.
  auto prof = sweep_profile();
  prof.analysis_ns_per_byte = 400.0;
  core::zbody::VtConfig z;
  z.block_bytes = MiB;
  z.producer_buffer_blocks = 4;
  Layout layout{4, 2, 0};
  Cluster cluster(ClusterSpec::bridges(), layout);
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, workflow::make_chain(1));
  const auto r = workflow::run_workflow(cluster, prof, &coupling);
  EXPECT_EQ(coupling.edge(0).aggregate().blocks_analyzed, coupling.edge(0).aggregate().blocks_total);
  // Producers finish long before the crawling analysis drains.
  EXPECT_LT(r.producers_done_s, r.end_to_end_s);
}

TEST(ZipperFault, GlacialPfsStillCompletesWithStealOn) {
  // A nearly-dead file system makes the steal channel worthless but must
  // never wedge the pipeline.
  auto prof = sweep_profile();
  core::zbody::VtConfig z;
  z.block_bytes = MiB;
  z.producer_buffer_blocks = 4;
  z.writer_bandwidth = 1e6;  // 1 MB/s spill packing
  auto spec = ClusterSpec::bridges();
  spec.pfs.num_osts = 2;
  spec.pfs.ost_bandwidth = 2e6;
  Layout layout{4, 2, 0};
  Cluster cluster(spec, layout);
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, workflow::make_chain(1));
  const auto r = workflow::run_workflow(cluster, prof, &coupling);
  EXPECT_EQ(coupling.edge(0).aggregate().blocks_analyzed, coupling.edge(0).aggregate().blocks_total);
  EXPECT_GT(r.end_to_end_s, 0.0);
}

TEST(ZipperFault, SingleConsumerManyProducers) {
  auto prof = sweep_profile();
  core::zbody::VtConfig z;
  z.block_bytes = MiB;
  Layout layout{16, 1, 0};
  Cluster cluster(ClusterSpec::bridges(), layout);
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, workflow::make_chain(1));
  workflow::run_workflow(cluster, prof, &coupling);
  EXPECT_EQ(coupling.edge(0).aggregate().blocks_analyzed, coupling.edge(0).aggregate().blocks_total);
}
