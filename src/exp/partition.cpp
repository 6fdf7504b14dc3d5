#include "exp/partition.hpp"

#include <algorithm>
#include <array>

#include "core/policy.hpp"
#include "transports/factory.hpp"

namespace zipper::exp {

namespace {

workflow::ShardPlan sequential(std::string reason) {
  workflow::ShardPlan plan;
  plan.fallback_reason = std::move(reason);
  return plan;
}

/// Tries to cut Q consumers into `S` contiguous groups whose consumer and
/// producer boundaries both land on host (cores_per_node) multiples, and
/// whose leaf footprints do not entangle shards. Returns false when no such
/// cut exists for this S.
bool try_groups(int S, int P, int Q, const workflow::ClusterSpec& cs,
                std::vector<workflow::ShardGroup>& groups) {
  const int cpn = cs.cores_per_node;
  std::vector<int> cut_c(static_cast<std::size_t>(S) + 1, 0);
  std::vector<int> cut_p(static_cast<std::size_t>(S) + 1, 0);
  cut_c[static_cast<std::size_t>(S)] = Q;
  cut_p[static_cast<std::size_t>(S)] = P;
  for (int s = 1; s < S; ++s) {
    // Even consumer split, rounded down to a whole consumer host.
    int c = static_cast<int>((static_cast<long long>(Q) * s) / S);
    c -= c % cpn;
    cut_c[static_cast<std::size_t>(s)] = c;
    // Producers of consumers [c, Q): static routing is contiguous, so the
    // first producer of consumer c is ceil(c * P / Q).
    const long long p =
        (static_cast<long long>(c) * P + Q - 1) / Q;
    cut_p[static_cast<std::size_t>(s)] = static_cast<int>(p);
  }
  for (int s = 0; s < S; ++s) {
    if (cut_c[static_cast<std::size_t>(s) + 1] <= cut_c[static_cast<std::size_t>(s)])
      return false;  // a group lost all its consumers to alignment
    if (cut_p[static_cast<std::size_t>(s) + 1] <= cut_p[static_cast<std::size_t>(s)])
      return false;
    if (cut_p[static_cast<std::size_t>(s)] % cpn != 0) return false;
  }

  // Empirical routing closure: every producer's statically-routed consumer
  // must (a) land in the producer's own group and (b) be reproduced by the
  // slice-local map the shard's ZipperBody will actually evaluate.
  for (int s = 0; s < S; ++s) {
    const int p0 = cut_p[static_cast<std::size_t>(s)];
    const int p1 = cut_p[static_cast<std::size_t>(s) + 1];
    const int c0 = cut_c[static_cast<std::size_t>(s)];
    const int c1 = cut_c[static_cast<std::size_t>(s) + 1];
    const int Pg = p1 - p0, Qg = c1 - c0;
    if (Pg < Qg) return false;  // slice would flip into fan-out routing
    for (int p = p0; p < p1; ++p) {
      const int c = core::consumer_of(core::BlockId{0, p, 0}, P, Q);
      if (c < c0 || c >= c1) return false;
      const int lc = core::consumer_of(core::BlockId{0, p - p0, 0}, Pg, Qg);
      if (lc != c - c0) return false;
    }
  }

  // Leaf entanglement: mirror Cluster's rank->host map (producers pack hosts
  // [0, ceil(P/cpn)), consumers the next hosts), then require that any group
  // whose hosts span multiple leaves owns those leaves exclusively —
  // cross-leaf transfers occupy the leaf's switch ports, which bind to a
  // shard only when the whole leaf does. Single-leaf groups use NIC/shm
  // resources only, so they may share a leaf.
  const int producer_hosts = (P + cpn - 1) / cpn;
  const int hpl = cs.fabric.hosts_per_leaf;
  const auto leaf_range = [&](int s) {
    const int h0p = cut_p[static_cast<std::size_t>(s)] / cpn;
    const int h1p = (cut_p[static_cast<std::size_t>(s) + 1] - 1) / cpn;
    const int h0c = producer_hosts + cut_c[static_cast<std::size_t>(s)] / cpn;
    const int h1c =
        producer_hosts + (cut_c[static_cast<std::size_t>(s) + 1] - 1) / cpn;
    return std::array<int, 4>{h0p / hpl, h1p / hpl, h0c / hpl, h1c / hpl};
  };
  std::vector<std::array<int, 4>> leaves(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) leaves[static_cast<std::size_t>(s)] = leaf_range(s);
  for (int s = 0; s < S; ++s) {
    const auto& a = leaves[static_cast<std::size_t>(s)];
    const bool multi = !(a[0] == a[1] && a[1] == a[2] && a[2] == a[3]);
    if (!multi) continue;
    for (int o = 0; o < S; ++o) {
      if (o == s) continue;
      const auto& b = leaves[static_cast<std::size_t>(o)];
      // The group's leaf footprint is two (possibly disjoint) ranges:
      // producer leaves [a0, a1] and consumer leaves [a2, a3]. Leaves in any
      // gap between them belong to other groups and are not ours to claim.
      const auto other_uses = [&b](int la) {
        return (la >= b[0] && la <= b[1]) || (la >= b[2] && la <= b[3]);
      };
      for (int la = a[0]; la <= a[1]; ++la) {
        if (other_uses(la)) return false;
      }
      for (int la = a[2]; la <= a[3]; ++la) {
        if (other_uses(la)) return false;
      }
    }
  }

  groups.clear();
  groups.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    groups.push_back(workflow::ShardGroup{
        cut_p[static_cast<std::size_t>(s)], cut_p[static_cast<std::size_t>(s) + 1],
        cut_c[static_cast<std::size_t>(s)], cut_c[static_cast<std::size_t>(s) + 1]});
  }
  return true;
}

}  // namespace

sim::Time shard_lookahead(const workflow::ClusterSpec& cs) {
  return cs.fabric.software_overhead + cs.fabric.hop_latency;
}

workflow::ShardPlan plan_shards(const ScenarioSpec& spec, int threads) {
  if (threads <= 1) return sequential("sim-threads <= 1");
  if (spec.kind != ScenarioKind::kWorkflow)
    return sequential("not a workflow scenario");
  if (!spec.method) return sequential("simulation-only run (no coupling)");
  if (*spec.method != transports::Method::kZipper)
    return sequential("method '" + transports::method_token(*spec.method) +
                      "' couples through global staging state");
  spec.pipeline.validate();
  if (spec.pipeline.num_edges() > 1) return sequential("multi-stage pipeline");
  const int P = spec.producers;
  // Stage 1 of the chain is the consumer allocation; a chain may pin it.
  const int Q = spec.pipeline.resolved_ranks(
      P, std::max(1, spec.effective_consumers()))[1];
  if (Q < 2) return sequential("fewer than 2 consumers");
  if (P < Q) return sequential("P < Q (fan-out routing)");
  const int servers = spec.servers
                          ? *spec.servers
                          : transports::servers_for(*spec.method, P);
  if (servers != 0) return sequential("layout has server ranks");
  if (spec.zipper.sched.route != core::sched::RouteKind::kStatic)
    return sequential("non-static routing");
  if (spec.zipper.sched.consumer_steal)
    return sequential("consumer work stealing");
  if (spec.zipper.enable_steal)
    return sequential("writer spill path may touch the PFS");
  if (spec.zipper.preserve) return sequential("preserve mode writes the PFS");
  if (spec.zipper.controller || spec.adaptive_control)
    return sequential("adaptive control loop is global");
  if (spec.chaos.any()) return sequential("chaos injection");
  if (spec.record_traces) return sequential("trace recording");
  if (spec.background_load_intensity > 0)
    return sequential("background PFS load");
  const auto profile = make_profile(spec);
  if (profile.halo_neighbors > 0 && P > 1)
    return sequential("producer halo ring crosses any partition");

  const auto cs = make_cluster_spec(spec);
  std::vector<workflow::ShardGroup> groups;
  for (int S = std::min(threads, Q); S >= 2; --S) {
    if (!try_groups(S, P, Q, cs, groups)) continue;
    workflow::ShardPlan plan;
    plan.num_shards = S;
    plan.threads = std::min(threads, S);
    plan.lookahead = shard_lookahead(cs);
    plan.groups = std::move(groups);
    plan.rank_to_shard.assign(static_cast<std::size_t>(P + Q), 0);
    for (int s = 0; s < S; ++s) {
      const auto& g = plan.groups[static_cast<std::size_t>(s)];
      for (int p = g.p0; p < g.p1; ++p)
        plan.rank_to_shard[static_cast<std::size_t>(p)] = s;
      for (int c = g.c0; c < g.c1; ++c)
        plan.rank_to_shard[static_cast<std::size_t>(P + c)] = s;
    }
    return plan;
  }
  return sequential("no host/leaf-aligned partition for P=" +
                    std::to_string(P) + " Q=" + std::to_string(Q));
}

}  // namespace zipper::exp
