#include "workflow/pipeline_coupling.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/time.hpp"

namespace zipper::workflow {

namespace {

/// Per-edge flavor of the shared template config. The edge method is a
/// rate/flow-control preset of the one runtime, not a separate code path:
/// kStaged and kPfs narrow the credit window to a synchronous handoff and
/// drop the spill side channel; kPfs additionally pins the wire to the
/// PFS-coupled writer/reader rates. A colocated downstream stage upgrades
/// the edge to a memory-speed software path.
core::zbody::VtConfig edge_config(const core::zbody::VtConfig& base,
                                  const PipelineSpec& pl, std::size_t e,
                                  std::size_t num_edges) {
  core::zbody::VtConfig c = base;
  // Preserve writes the *final* analysis products; interior edges forward.
  c.preserve = base.preserve && e + 1 == num_edges;
  // Chaos and the online controller target exactly one edge.
  if (static_cast<int>(e) != pl.chaos_edge) {
    c.chaos = nullptr;
    c.controller = nullptr;
  }
  switch (pl.edges[e].method) {
    case EdgeMethod::kZip:
      break;
    case EdgeMethod::kStaged:
      c.sender_window = 1;
      c.enable_steal = false;
      break;
    case EdgeMethod::kPfs:
      c.sender_window = 1;
      c.enable_steal = false;
      c.sender_bandwidth = base.writer_bandwidth;
      c.receiver_bandwidth = base.reader_bandwidth;
      break;
  }
  // Colocated (non-staging) downstream stage: same ranks, but the edge
  // crosses memory instead of the fabric's software path.
  if (e >= 1 && !pl.stages[e + 1].staging) {
    c.sender_bandwidth *= 4;
    c.receiver_bandwidth *= 4;
  }
  return c;
}

/// Per-edge PFS-name prefix, so spilled blocks with equal BlockIds from
/// different edges cannot collide on the file system's namespace.
std::string edge_file_tag(std::size_t e) {
  return e == 0 ? "z" : "e" + std::to_string(e) + "z";
}

/// A shard slice's hook reporting global producer/consumer indices.
std::function<void(int, const core::BlockHeader&)> rebased(
    std::function<void(int, const core::BlockHeader&)> fn, const ShardGroup& g) {
  if (!fn) return nullptr;
  return [fn = std::move(fn), p0 = g.p0, c0 = g.c0](int c,
                                                    const core::BlockHeader& h) {
    core::BlockHeader gh = h;
    gh.id.producer += p0;
    fn(c0 + c, gh);
  };
}

}  // namespace

/// One edge's runtime. The env reads its rates from `cfg`, which therefore
/// lives as long as the env.
struct PipelineCoupling::Edge {
  Edge(sim::Simulation& kernel, Cluster& cl,
       const apps::WorkloadProfile& profile, core::zbody::VtConfig c,
       const core::zbody::Placement& at, std::string file_tag)
      : cfg(std::move(c)),
        env(kernel, *cl.world, *cl.fs, cl.recorder, profile, cfg, at,
            std::move(file_tag)),
        body(env, cfg, at) {}

  core::zbody::VtConfig cfg;
  core::zbody::VtEnv env;
  core::zbody::ZipperBody<core::zbody::VtBinding> body;
};

void accumulate_stats(core::exec::AggregateStats& into,
                      const core::exec::AggregateStats& s) {
  into.producer_stall += s.producer_stall;
  into.sender_busy += s.sender_busy;
  into.writer_busy += s.writer_busy;
  into.analysis_busy += s.analysis_busy;
  into.store_busy += s.store_busy;
  into.blocks_total += s.blocks_total;
  into.blocks_stolen += s.blocks_stolen;
  into.blocks_consumer_stolen += s.blocks_consumer_stolen;
  into.blocks_analyzed += s.blocks_analyzed;
  into.bytes_via_network += s.bytes_via_network;
  into.bytes_via_pfs += s.bytes_via_pfs;
  into.put_retries += s.put_retries;
  into.blocks_spilled_slow += s.blocks_spilled_slow;
  into.control_actions += s.control_actions;
}

std::map<std::string, double> zipper_metrics(
    const core::exec::AggregateStats& s, bool chaos) {
  std::map<std::string, double> m{
      {"stall_s", sim::to_seconds(s.producer_stall)},
      {"sender_busy_s", sim::to_seconds(s.sender_busy)},
      {"writer_busy_s", sim::to_seconds(s.writer_busy)},
      {"analysis_busy_s", sim::to_seconds(s.analysis_busy)},
      {"store_busy_s", sim::to_seconds(s.store_busy)},
      {"blocks_total", static_cast<double>(s.blocks_total)},
      {"blocks_stolen", static_cast<double>(s.blocks_stolen)},
      {"consumer_steals", static_cast<double>(s.blocks_consumer_stolen)},
      {"steal_fraction", s.blocks_total
                             ? static_cast<double>(s.blocks_stolen) / s.blocks_total
                             : 0.0},
      {"bytes_via_network", static_cast<double>(s.bytes_via_network)},
      {"bytes_via_pfs", static_cast<double>(s.bytes_via_pfs)},
  };
  if (chaos) {
    m.emplace("put_retries", static_cast<double>(s.put_retries));
    m.emplace("blocks_spilled_slow", static_cast<double>(s.blocks_spilled_slow));
    m.emplace("control_actions", static_cast<double>(s.control_actions));
  }
  return m;
}

PipelineCoupling::PipelineCoupling(Cluster& cluster,
                                   const apps::WorkloadProfile& profile,
                                   const core::zbody::VtConfig& cfg,
                                   const PipelineSpec& pipeline)
    : cl_(&cluster), pl_(pipeline) {
  pl_.validate();
  const auto& lay = cluster.layout();
  ranks_ = pl_.resolved_ranks(lay.producers, lay.consumers);
  base_rank_.resize(ranks_.size());
  base_rank_[0] = 0;
  for (std::size_t i = 1; i < ranks_.size(); ++i)
    base_rank_[i] = base_rank_[i - 1] + ranks_[i - 1];
  assert(ranks_[0] == lay.producers && ranks_[1] == lay.consumers &&
         "cluster layout does not match the pipeline's resolved ranks");
  build(cluster.sim, profile, cfg);
}

PipelineCoupling::PipelineCoupling(Cluster& cluster, int shard,
                                   const apps::WorkloadProfile& profile,
                                   const core::zbody::VtConfig& cfg,
                                   const PipelineSpec& pipeline,
                                   const ShardGroup& g)
    : cl_(&cluster), pl_(pipeline) {
  pl_.validate();
  if (pl_.num_edges() != 1)
    throw std::invalid_argument("pipeline: a shard slice needs a one-edge chain");
  ranks_ = {g.p1 - g.p0, g.c1 - g.c0};
  base_rank_ = {cluster.producer_rank(g.p0), cluster.consumer_rank(g.c0)};
  core::zbody::VtConfig local = cfg;
  local.on_analyzed = rebased(cfg.on_analyzed, g);
  local.on_output = rebased(cfg.on_output, g);
  build(cluster.shard_sim(shard), profile, local);
}

PipelineCoupling::~PipelineCoupling() = default;

void PipelineCoupling::build(sim::Simulation& kernel,
                             const apps::WorkloadProfile& profile,
                             const core::zbody::VtConfig& cfg) {
  chaos_ = cfg.chaos != nullptr || static_cast<bool>(cfg.controller);
  const std::size_t E = pl_.edges.size();
  relays_.resize(E);
  for (std::size_t e = 1; e < E; ++e) {
    for (int p = 0; p < ranks_[e]; ++p) {
      relays_[e].push_back(
          std::make_unique<sim::Channel<core::BlockHeader>>(kernel));
    }
  }

  for (std::size_t e = 0; e < E; ++e) {
    auto c = edge_config(cfg, pl_, e, E);
    // The downstream stage's analysis weight rides on the profile's per-byte
    // rate; everything else about the profile only concerns stage 0.
    apps::WorkloadProfile prof = profile;
    prof.analysis_ns_per_byte *= pl_.stages[e + 1].work_factor;
    const bool last = e + 1 == E;
    const auto user_analyzed = cfg.on_analyzed;
    c.on_analyzed = [this, e, last,
                     user_analyzed](int cc, const core::BlockHeader& h) {
      if (on_edge_analyzed) on_edge_analyzed(static_cast<int>(e), cc, h);
      if (last && user_analyzed) user_analyzed(cc, h);
    };
    if (last) {
      c.on_output = cfg.on_output;
    } else {
      c.on_output = [this, e](int cc, const core::BlockHeader& h) {
        relays_[e + 1][static_cast<std::size_t>(cc)]->try_send(h);
      };
    }
    const core::zbody::Placement at{
        .producers = ranks_[e],
        .consumers = ranks_[e + 1],
        .first_producer_rank = base_rank_[e],
        .first_consumer_rank = base_rank_[e + 1],
        .step_bytes = prof.bytes_per_rank_per_step,
    };
    edges_.push_back(std::make_unique<Edge>(kernel, *cl_, prof, std::move(c),
                                            at, edge_file_tag(e)));
  }

  std::int64_t interior = 0;
  for (std::size_t e = 1; e < E; ++e) interior += ranks_[e + 1];
  chain_done_ = std::make_unique<sim::Latch>(kernel, interior);
}

void PipelineCoupling::spawn_services() {
  for (auto& ed : edges_) {
    for (int p = 0; p < ed->body.producers(); ++p) {
      ed->body.spawn_producer_services(p);
    }
    ed->body.spawn_control();
  }
  for (std::size_t e = 1; e < edges_.size(); ++e) {
    for (int p = 0; p < ranks_[e]; ++p) cl_->sim.spawn(forward_main(e, p));
    for (int c = 0; c < ranks_[e + 1]; ++c)
      cl_->sim.spawn(stage_consumer(e, c));
  }
}

sim::Task PipelineCoupling::producer_step(int p, int step) {
  return edges_[0]->body.producer_put(p, step);
}

sim::Task PipelineCoupling::producer_block(int p, int step, int block,
                                           int num_blocks) {
  return edges_[0]->body.producer_put_block(p, step, block, num_blocks);
}

int PipelineCoupling::producer_blocks_per_step() const {
  return edges_[0]->body.blocks_per_step();
}

sim::Task PipelineCoupling::producer_finalize(int p) {
  return edges_[0]->body.producer_finalize(p);
}

sim::Task PipelineCoupling::consumer_run(int c) {
  co_await edges_[0]->body.consumer_run(c);
  if (edges_.size() > 1) relays_[1][static_cast<std::size_t>(c)]->close();
  // Hold the runner's completion latch until every deeper stage drained, so
  // end_to_end_s covers the whole chain.
  co_await chain_done_->wait();
}

sim::Task PipelineCoupling::forward_main(std::size_t e, int p) {
  auto& relay = *relays_[e][static_cast<std::size_t>(p)];
  const double comp = pl_.edges[e].compression;
  std::int32_t seq = 0;
  while (true) {
    auto h = co_await relay.recv();
    if (!h) break;
    core::BlockHeader out;
    // Each stage owns its per-producer FIFO numbering: RoutePolicy and the
    // done protocol key on id.producer, which must be the *local* producer
    // index of this edge.
    out.id = core::BlockId{h->id.step, static_cast<std::int32_t>(p), seq++};
    out.offset = 0;
    out.bytes = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(h->bytes) / comp));
    co_await edges_[e]->body.put_header(
        p, core::zbody::Item<core::zbody::VtBinding>{out, {}});
  }
  co_await edges_[e]->body.producer_finalize(p);
}

sim::Task PipelineCoupling::stage_consumer(std::size_t e, int c) {
  co_await edges_[e]->body.consumer_run(c);
  if (e + 1 < edges_.size())
    relays_[e + 1][static_cast<std::size_t>(c)]->close();
  chain_done_->count_down();
}

const core::zbody::ZipperBody<core::zbody::VtBinding>& PipelineCoupling::edge(
    int e) const {
  return edges_[static_cast<std::size_t>(e)]->body;
}

std::map<std::string, double> PipelineCoupling::metrics() const {
  // Edge 0 publishes the top-level keys every reader uses (analyze's
  // observe(), presenters, the tuner probe). A one-edge chain publishes only
  // those, its resilience counters included; a longer chain adds the edge
  // count and an e<i>_ breakdown, where the chaos edge's counters live.
  auto m = zipper_metrics(edge(0).aggregate(), chaos_ && edges_.size() == 1);
  if (edges_.size() == 1) return m;
  m.emplace("pipeline_edges", static_cast<double>(edges_.size()));
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    // The same formula per edge, less the steal ratio, plus the analyzed
    // count that shows what each hop delivered.
    const auto s = edges_[e]->body.aggregate();
    const std::string k = "e" + std::to_string(e) + "_";
    const bool chaos = chaos_ && static_cast<int>(e) == pl_.chaos_edge;
    for (const auto& [name, v] : zipper_metrics(s, chaos)) {
      if (name != "steal_fraction") m.emplace(k + name, v);
    }
    m.emplace(k + "blocks_analyzed", static_cast<double>(s.blocks_analyzed));
  }
  return m;
}

}  // namespace zipper::workflow
