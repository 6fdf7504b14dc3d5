// Integration tests: full simulated workflows over the cluster model with
// the Zipper DES runtime and all seven baseline transports. Verifies the
// paper's qualitative claims at miniature scale (they must hold at any
// scale): pipeline overlap, stall behaviour, transport ordering, work
// stealing, Preserve mode, and the performance model.
#include <gtest/gtest.h>

#include <memory>

#include "apps/profiles.hpp"
#include "common/units.hpp"
#include "model/perf_model.hpp"
#include "transports/decaf.hpp"
#include "transports/factory.hpp"
#include "workflow/runner.hpp"
#include "workflow/pipeline_coupling.hpp"

using namespace zipper;
using common::MiB;
using transports::Method;
using workflow::Cluster;
using workflow::ClusterSpec;
using workflow::Layout;
using workflow::RunResult;

namespace {

// A small, fast workload: 8 producers, 4 consumers, 10 steps, 4 MiB/step.
apps::WorkloadProfile small_profile() {
  apps::WorkloadProfile p;
  p.name = "test";
  p.steps = 10;
  p.bytes_per_rank_per_step = 4 * MiB;
  p.t_collision = sim::from_seconds(0.05);
  p.t_streaming = sim::from_seconds(0.01);
  p.t_update = sim::from_seconds(0.04);
  p.halo_bytes = 64 * common::KiB;
  p.halo_neighbors = 2;
  p.analysis_ns_per_byte = 5.0;
  return p;
}

core::zbody::VtConfig fast_zipper() {
  core::zbody::VtConfig z;
  z.block_bytes = MiB;
  z.sender_bandwidth = 400e6;  // transfer stage < compute stage
  z.writer_bandwidth = 200e6;
  return z;
}

RunResult run_method(Method m, const apps::WorkloadProfile& prof,
                     int P = 8, int Q = 4,
                     transports::TransportParams params = {},
                     core::zbody::VtConfig zcfg = fast_zipper()) {
  Layout layout{P, Q, transports::servers_for(m, P)};
  Cluster cluster(ClusterSpec::bridges(), layout);
  auto coupling = transports::make_coupling(m, cluster, prof, params, zcfg);
  return workflow::run_workflow(cluster, prof, coupling.get());
}

RunResult run_sim_only(const apps::WorkloadProfile& prof, int P = 8) {
  Layout layout{P, 0, 0};
  Cluster cluster(ClusterSpec::bridges(), layout);
  return workflow::run_workflow(cluster, prof, nullptr);
}

}  // namespace

TEST(Workflow, SimOnlyMatchesComputePlusHalo) {
  const auto prof = small_profile();
  const auto r = run_sim_only(prof);
  const double pure_compute = prof.steps * sim::to_seconds(prof.compute_per_step());
  EXPECT_GE(r.end_to_end_s, pure_compute);
  EXPECT_LT(r.end_to_end_s, pure_compute * 1.1) << "halo exchange cost exploded";
}

TEST(Workflow, ZipperEndToEndTracksSimOnly) {
  // The paper's headline: Zipper's end-to-end time almost equals the
  // simulation-only lower bound when simulation is the slowest stage.
  const auto prof = small_profile();
  const auto sim_only = run_sim_only(prof);
  const auto zipper = run_method(Method::kZipper, prof);
  EXPECT_GE(zipper.end_to_end_s, sim_only.end_to_end_s * 0.99);
  EXPECT_LT(zipper.end_to_end_s, sim_only.end_to_end_s * 1.25)
      << "Zipper overhead too large: " << zipper.end_to_end_s << " vs "
      << sim_only.end_to_end_s;
}

TEST(Workflow, ZipperDeliversAndAnalyzesEveryBlock) {
  const auto prof = small_profile();
  Layout layout{8, 4, 0};
  Cluster cluster(ClusterSpec::bridges(), layout);
  workflow::PipelineCoupling coupling(cluster, prof, fast_zipper(), workflow::make_chain(1));
  const auto r = workflow::run_workflow(cluster, prof, &coupling);
  const auto& s = coupling.edge(0).aggregate();
  // 8 producers x 10 steps x 4 blocks/step.
  EXPECT_EQ(s.blocks_total, 8u * 10u * 4u);
  EXPECT_EQ(s.blocks_analyzed, s.blocks_total);
  EXPECT_GT(r.end_to_end_s, 0.0);
}

TEST(Workflow, EndToEndEqualsMaxStage_TransferDominated) {
  // Throttle the sender so transfer becomes the slowest stage; Tt2s must
  // track nb/P * tm (the model), not the sum of stages.
  auto prof = small_profile();
  prof.halo_neighbors = 0;
  auto zcfg = fast_zipper();
  zcfg.sender_bandwidth = 20e6;  // 4 MiB/step at 20 MB/s = 0.21 s/step >> 0.1 s compute
  zcfg.producer_buffer_blocks = 8;
  zcfg.enable_steal = false;  // the model assumes the message path only
  const auto r = run_method(Method::kZipper, prof, 8, 4, {}, zcfg);

  model::ModelInput in;
  in.total_bytes = 8ull * 10 * prof.bytes_per_rank_per_step;
  in.block_bytes = MiB;
  in.producers = 8;
  in.consumers = 4;
  in.tc_s = sim::to_seconds(prof.compute_per_step()) / 4.0;  // per block
  in.tm_s = static_cast<double>(MiB) / 20e6;
  in.ta_s = 5.0 * MiB / 1e9;
  const auto pred = model::predict(in);
  EXPECT_EQ(pred.dominant, "transfer");
  EXPECT_NEAR(r.end_to_end_s, pred.t_end_to_end, pred.t_end_to_end * 0.2)
      << "measured end-to-end diverges from the pipeline model";
}

TEST(Workflow, StallAppearsWhenTransferSlowAndStealOff) {
  auto prof = small_profile();
  prof.halo_neighbors = 0;
  auto zcfg = fast_zipper();
  zcfg.sender_bandwidth = 20e6;
  zcfg.enable_steal = false;
  zcfg.producer_buffer_blocks = 4;
  Layout layout{8, 4, 0};
  Cluster cluster(ClusterSpec::bridges(), layout);
  workflow::PipelineCoupling coupling(cluster, prof, zcfg, workflow::make_chain(1));
  workflow::run_workflow(cluster, prof, &coupling);
  EXPECT_GT(sim::to_seconds(coupling.edge(0).aggregate().producer_stall), 0.5)
      << "producer should stall when the buffer keeps filling";
}

TEST(Workflow, WorkStealingReducesStallAndUsesBothChannels) {
  auto prof = small_profile();
  prof.halo_neighbors = 0;
  auto base = fast_zipper();
  base.sender_bandwidth = 20e6;
  base.producer_buffer_blocks = 4;

  auto no_steal = base;
  no_steal.enable_steal = false;
  Layout layout{8, 4, 0};

  Cluster c1(ClusterSpec::bridges(), layout);
  workflow::PipelineCoupling k1(c1, prof, no_steal, workflow::make_chain(1));
  const auto r1 = workflow::run_workflow(c1, prof, &k1);

  Cluster c2(ClusterSpec::bridges(), layout);
  workflow::PipelineCoupling k2(c2, prof, base, workflow::make_chain(1));
  const auto r2 = workflow::run_workflow(c2, prof, &k2);

  EXPECT_GT(k2.edge(0).aggregate().blocks_stolen, 0u);
  EXPECT_LT(sim::to_seconds(k2.edge(0).aggregate().producer_stall),
            sim::to_seconds(k1.edge(0).aggregate().producer_stall))
      << "stealing must reduce producer stall";
  EXPECT_LE(r2.producers_done_s, r1.producers_done_s * 1.01)
      << "stealing must not slow the producers down";
}

TEST(Workflow, StealNeverActivatesWhenComputeBound) {
  // O(n^{3/2})-like case: producer far slower than the sender; the buffer
  // stays near-empty and the concurrent method falls back to message-passing.
  auto prof = small_profile();
  prof.t_collision = sim::from_seconds(0.5);  // very slow producer
  auto zcfg = fast_zipper();
  Layout layout{4, 2, 0};
  Cluster cluster(ClusterSpec::bridges(), layout);
  workflow::PipelineCoupling coupling(cluster, prof, zcfg, workflow::make_chain(1));
  workflow::run_workflow(cluster, prof, &coupling);
  EXPECT_EQ(coupling.edge(0).aggregate().blocks_stolen, 0u);
  EXPECT_EQ(coupling.edge(0).aggregate().bytes_via_pfs, 0u);
}

TEST(Workflow, PreserveModeStoresAllBytes) {
  auto prof = small_profile();
  auto zcfg = fast_zipper();
  zcfg.preserve = true;
  Layout layout{4, 2, 0};
  Cluster cluster(ClusterSpec::bridges(), layout);
  workflow::PipelineCoupling coupling(cluster, prof, zcfg, workflow::make_chain(1));
  workflow::run_workflow(cluster, prof, &coupling);
  const std::uint64_t total = 4ull * prof.steps * prof.bytes_per_rank_per_step;
  EXPECT_GE(cluster.fs->total_bytes_written(), total)
      << "Preserve mode must persist every block";
}

TEST(Workflow, NoPreserveIsNotSlowerThanPreserve) {
  auto prof = small_profile();
  auto z1 = fast_zipper();
  auto z2 = fast_zipper();
  z2.preserve = true;
  const auto r1 = run_method(Method::kZipper, prof, 4, 2, {}, z1);
  const auto r2 = run_method(Method::kZipper, prof, 4, 2, {}, z2);
  EXPECT_LE(r1.end_to_end_s, r2.end_to_end_s * 1.001);
}

// ------------------------------------------------------- baseline methods --

class AllMethods : public ::testing::TestWithParam<Method> {};

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethods,
    ::testing::Values(Method::kMpiIo, Method::kAdiosDataSpaces,
                      Method::kAdiosDimes, Method::kNativeDataSpaces,
                      Method::kNativeDimes, Method::kFlexpath, Method::kDecaf,
                      Method::kZipper),
    [](const auto& info) {
      std::string n = transports::method_name(info.param);
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

TEST_P(AllMethods, CompletesAndBeatsNothing) {
  const auto prof = small_profile();
  const auto sim_only = run_sim_only(prof);
  const auto r = run_method(GetParam(), prof);
  EXPECT_GT(r.end_to_end_s, 0.0);
  // No coupling can beat the simulation-only lower bound.
  EXPECT_GE(r.end_to_end_s, sim_only.end_to_end_s * 0.999)
      << transports::method_name(GetParam());
  // And every coupling must terminate in bounded time (sanity upper bound).
  EXPECT_LT(r.end_to_end_s, sim_only.end_to_end_s * 40);
}

TEST(Workflow, TransportOrderingMatchesPaper) {
  // Figure 2's qualitative ordering at miniature scale:
  //   Zipper <= Decaf (waitall interlock) <= ADIOS variants, MPI-IO worst
  //   among the file-less methods, and native beats ADIOS for both staging
  //   libraries.
  const auto prof = small_profile();
  const auto zipper = run_method(Method::kZipper, prof);
  const auto decaf = run_method(Method::kDecaf, prof);
  const auto nds = run_method(Method::kNativeDataSpaces, prof);
  const auto ads = run_method(Method::kAdiosDataSpaces, prof);
  const auto ndi = run_method(Method::kNativeDimes, prof);
  const auto adi = run_method(Method::kAdiosDimes, prof);
  const auto mpiio = run_method(Method::kMpiIo, prof);

  EXPECT_LE(zipper.end_to_end_s, decaf.end_to_end_s);
  EXPECT_LE(nds.end_to_end_s, ads.end_to_end_s * 1.001);
  EXPECT_LE(ndi.end_to_end_s, adi.end_to_end_s * 1.001);
  EXPECT_LE(ndi.end_to_end_s, nds.end_to_end_s * 1.001);  // DIMES beats DataSpaces
  EXPECT_GE(mpiio.end_to_end_s, zipper.end_to_end_s);
}

TEST(Workflow, DecafWaitallStallsProducers) {
  const auto prof = small_profile();
  const auto decaf = run_method(Method::kDecaf, prof);
  ASSERT_TRUE(decaf.metrics.contains("waitall_s"));
  EXPECT_GT(decaf.metrics.at("waitall_s"), 0.0);
}

TEST(Workflow, DecafOverflowEmulationThrowsAtScale) {
  const auto prof = small_profile();  // 4 MiB/rank/step = 524288 elements
  Layout layout{8, 4, transports::servers_for(Method::kDecaf, 8)};
  Cluster cluster(ClusterSpec::bridges(), layout);
  transports::TransportParams params;
  params.decaf_emulate_count_overflow = true;
  // 8 ranks x (4 MiB / 16 B) items is far below 2^32: fine.
  EXPECT_NO_THROW(transports::DecafCoupling(cluster, prof, params));
  // A profile large enough to overflow the 32-bit global item count:
  auto big = prof;
  big.bytes_per_rank_per_step = 16ull * common::GiB;  // 1e9 items x 8 ranks
  EXPECT_THROW(transports::DecafCoupling(cluster, big, params),
               transports::DecafCountOverflow);
}

TEST(Workflow, FlexpathSuffersFromManyRanksPerNode) {
  // Same total work, but 8 ranks packed on one node vs spread across 8 nodes:
  // the per-host socket stack must make the packed configuration slower. Use
  // a data-heavy step (little compute to hide behind) so the socket path is
  // the bottleneck, as in the paper's large-slab staging experiments.
  auto prof = small_profile();
  prof.halo_neighbors = 0;
  prof.bytes_per_rank_per_step = 16 * MiB;
  prof.t_collision = sim::from_seconds(0.02);
  prof.t_streaming = 0;
  prof.t_update = 0;
  prof.analysis_ns_per_byte = 0.5;

  auto run_packed = [&](int cores_per_node) {
    auto spec = ClusterSpec::bridges();
    spec.cores_per_node = cores_per_node;
    Layout layout{8, 4, 0};
    Cluster cluster(spec, layout);
    auto coupling =
        transports::make_coupling(Method::kFlexpath, cluster, prof, {}, {});
    return workflow::run_workflow(cluster, prof, coupling.get());
  };
  const auto packed = run_packed(28);  // all 8 producers share one node
  const auto spread = run_packed(1);   // one rank per node
  EXPECT_GT(packed.end_to_end_s, spread.end_to_end_s * 1.2)
      << "socket-stack serialization should punish rank packing";
}

TEST(Workflow, XmitWaitGrowsWithInjectionPressure) {
  // Fig 15's mechanism: a fast producer (O(n)-like) generates blocks faster
  // than the node NIC can inject them and accumulates XmitWait; a slow
  // producer (O(n^{3/2})-like) trickles blocks out with no congestion.
  auto fast = small_profile();
  fast.halo_neighbors = 0;
  fast.block_granular_compute = true;  // continuous injection
  fast.t_collision = sim::from_seconds(0.001);  // 4 GiB/s per rank demand
  fast.t_streaming = fast.t_update = 0;
  auto slow = fast;
  slow.t_collision = sim::from_seconds(2.0);  // 2 MiB/s per rank

  auto zcfg = fast_zipper();
  zcfg.sender_bandwidth = 20e9;  // sender software not the bottleneck
  zcfg.enable_steal = false;     // isolate the message path
  Layout layout{8, 4, 0};

  Cluster c1(ClusterSpec::bridges(), layout);
  workflow::PipelineCoupling k1(c1, fast, zcfg, workflow::make_chain(1));
  workflow::run_workflow(c1, fast, &k1);

  Cluster c2(ClusterSpec::bridges(), layout);
  workflow::PipelineCoupling k2(c2, slow, zcfg, workflow::make_chain(1));
  workflow::run_workflow(c2, slow, &k2);

  EXPECT_GT(c1.producer_xmit_wait(), 10 * std::max<std::uint64_t>(1, c2.producer_xmit_wait()))
      << "fast producers must show much higher congestion counters";
}

TEST(Workflow, DeterministicAcrossRuns) {
  const auto prof = small_profile();
  const auto a = run_method(Method::kZipper, prof);
  const auto b = run_method(Method::kZipper, prof);
  EXPECT_EQ(a.end_to_end_s, b.end_to_end_s);
  EXPECT_EQ(a.producer_xmit_wait, b.producer_xmit_wait);
}
