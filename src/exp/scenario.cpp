#include "exp/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <numeric>
#include <stdexcept>

#include "exp/partition.hpp"
#include "opt/adaptive.hpp"
#include "transports/decaf.hpp"
#include "workflow/runner.hpp"

namespace zipper::exp {

std::string workload_token(Workload w) {
  switch (w) {
    case Workload::kCfdBridges: return "cfd-bridges";
    case Workload::kCfdStampede2: return "cfd-stampede2";
    case Workload::kLammpsStampede2: return "lammps";
    case Workload::kSyntheticLinear: return "synthetic-linear";
    case Workload::kSyntheticNLogN: return "synthetic-nlogn";
    case Workload::kSyntheticN32: return "synthetic-n32";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& token) {
  std::string t;
  t.reserve(token.size());
  for (char c : token) {
    if (c == ' ' || c == '_') c = '-';
    t.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  for (Workload w : {Workload::kCfdBridges, Workload::kCfdStampede2,
                     Workload::kLammpsStampede2, Workload::kSyntheticLinear,
                     Workload::kSyntheticNLogN, Workload::kSyntheticN32}) {
    if (t == workload_token(w)) return w;
  }
  if (t == "cfd") return Workload::kCfdBridges;
  if (t == "lammps-stampede2") return Workload::kLammpsStampede2;
  return std::nullopt;
}

bool ScenarioResult::has(const std::string& key) const {
  for (const auto& [k, v] : metrics) {
    if (k == key) return true;
  }
  return false;
}

double ScenarioResult::get(const std::string& key, double fallback) const {
  for (const auto& [k, v] : metrics) {
    if (k == key) return v;
  }
  return fallback;
}

void ScenarioResult::put(const std::string& key, double value) {
  for (auto& [k, v] : metrics) {
    if (k == key) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(key, value);
}

apps::WorkloadProfile make_profile(const ScenarioSpec& spec) {
  apps::WorkloadProfile p;
  switch (spec.workload) {
    case Workload::kCfdBridges:
      p = apps::cfd_bridges(spec.steps);
      break;
    case Workload::kCfdStampede2:
      p = apps::cfd_stampede2(spec.steps);
      break;
    case Workload::kLammpsStampede2:
      p = apps::lammps_stampede2(spec.steps);
      break;
    case Workload::kSyntheticLinear:
    case Workload::kSyntheticNLogN:
    case Workload::kSyntheticN32: {
      const auto c = spec.workload == Workload::kSyntheticLinear
                         ? apps::Complexity::kLinear
                         : spec.workload == Workload::kSyntheticNLogN
                               ? apps::Complexity::kNLogN
                               : apps::Complexity::kN32;
      p = spec.bytes_per_rank_per_step
              ? apps::synthetic_profile(c, spec.synthetic_block_bytes, spec.steps,
                                        spec.bytes_per_rank_per_step)
              : apps::synthetic_profile(c, spec.synthetic_block_bytes, spec.steps);
      if (spec.halo_neighbors) p.halo_neighbors = *spec.halo_neighbors;
      return p;
    }
  }
  if (spec.bytes_per_rank_per_step) {
    p.bytes_per_rank_per_step = spec.bytes_per_rank_per_step;
  }
  if (spec.halo_neighbors) p.halo_neighbors = *spec.halo_neighbors;
  return p;
}

workflow::ClusterSpec make_cluster_spec(const ScenarioSpec& spec) {
  auto cs = workflow::ClusterSpec::by_name(spec.cluster);
  if (!cs) {
    std::string known;
    for (const auto& n : workflow::ClusterSpec::known_names()) {
      known += known.empty() ? n : ", " + n;
    }
    throw std::invalid_argument("unknown cluster '" + spec.cluster +
                                "' (known clusters: " + known + ")");
  }
  if (spec.pfs_osts_base > 0 && spec.pfs_osts_ref_producers > 0) {
    cs->pfs.num_osts = std::max(
        2, static_cast<int>(spec.pfs_osts_base * spec.producers /
                                spec.pfs_osts_ref_producers +
                            0.5));
  }
  return *cs;
}

std::vector<model::ModelInput> pipeline_model_inputs(const ScenarioSpec& spec) {
  spec.pipeline.validate();
  const auto& pl = spec.pipeline;
  const auto profile = make_profile(spec);
  const auto base = model_input_for(spec);
  const auto ranks =
      pl.resolved_ranks(spec.producers, std::max(1, spec.effective_consumers()));
  std::vector<model::ModelInput> edges;
  edges.reserve(static_cast<std::size_t>(pl.num_edges()));
  double cum = 1.0;  // cumulative compression upstream of this edge's wire
  for (int e = 0; e < pl.num_edges(); ++e) {
    const auto& pe = pl.edges[static_cast<std::size_t>(e)];
    const auto& down = pl.stages[static_cast<std::size_t>(e) + 1];
    cum *= pe.compression;
    model::ModelInput in = base;
    in.producers = ranks[static_cast<std::size_t>(e)];
    in.consumers = ranks[static_cast<std::size_t>(e) + 1];
    in.total_bytes = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(base.total_bytes) / cum));
    in.block_bytes = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(base.block_bytes) / cum));
    // Only the simulation computes; forwarding stages' per-block work is the
    // transfer + analysis below.
    in.tc_s = e == 0 ? base.tc_s : 0.0;
    // The edge's wire rate follows its method preset (and the memory-speed
    // upgrade of a colocated downstream stage) — mirrors
    // PipelineCoupling::edge_config.
    double bw = pe.method == workflow::EdgeMethod::kPfs
                    ? spec.zipper.writer_bandwidth
                    : spec.zipper.sender_bandwidth;
    if (e >= 1 && !down.staging) bw *= 4;
    in.tm_s = static_cast<double>(in.block_bytes) / bw;
    in.ta_s = profile.analysis_ns_per_byte * down.work_factor *
              static_cast<double>(in.block_bytes) / 1e9;
    in.preserve = spec.zipper.preserve && e + 1 == pl.num_edges();
    edges.push_back(in);
  }
  return edges;
}

model::ModelInput model_input_for(const ScenarioSpec& spec) {
  const auto profile = make_profile(spec);
  const auto cs = make_cluster_spec(spec);
  const int P = spec.producers;
  const int Q = std::max(1, spec.effective_consumers());
  model::ModelInput in;
  in.total_bytes = static_cast<std::uint64_t>(P) * profile.steps *
                   profile.bytes_per_rank_per_step;
  in.block_bytes = spec.zipper.block_bytes;
  in.producers = P;
  in.consumers = Q;
  const double blocks_per_step =
      static_cast<double>(profile.bytes_per_rank_per_step) /
      static_cast<double>(in.block_bytes);
  in.tc_s = sim::to_seconds(profile.compute_per_step()) / blocks_per_step;
  in.tm_s = static_cast<double>(in.block_bytes) / spec.zipper.sender_bandwidth;
  in.ta_s = profile.analysis_ns_per_byte * static_cast<double>(in.block_bytes) / 1e9;
  in.preserve = spec.zipper.preserve;
  in.pfs_write_bandwidth = cs.pfs.num_osts * cs.pfs.ost_bandwidth;
  return in;
}

namespace {

ScenarioResult run_schedule_scenario(const ScenarioSpec& spec) {
  ScenarioResult out;
  out.label = spec.label;
  const auto non = model::schedule_non_integrated(spec.schedule_blocks,
                                                  spec.schedule_stage_s.data());
  const auto integ = model::schedule_integrated(spec.schedule_blocks,
                                                spec.schedule_stage_s.data());
  const double m_non = model::makespan(non);
  const double m_int = model::makespan(integ);
  out.put("blocks", spec.schedule_blocks);
  out.put("makespan_non_integrated", m_non);
  out.put("makespan_integrated", m_int);
  out.put("speedup", m_int > 0 ? m_non / m_int : 0);
  return out;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  if (spec.kind == ScenarioKind::kPipelineSchedule) {
    return run_schedule_scenario(spec);
  }

  ScenarioResult out;
  out.label = spec.label;

  const auto profile = make_profile(spec);
  const auto cspec = make_cluster_spec(spec);
  const int P = spec.producers;
  const int Q = spec.effective_consumers();
  // Every Zipper run is a chain, by default the paper's single hop.
  spec.pipeline.validate();
  const bool zipper =
      spec.method && *spec.method == transports::Method::kZipper;
  const bool multi_edge = spec.pipeline.num_edges() > 1;
  if (multi_edge && !zipper) {
    throw std::invalid_argument(
        "pipeline scenarios require --method zipper (the chain reuses the "
        "Zipper runtime per edge)");
  }
  // Stage 1 takes the consumer allocation; stages >= 2 occupy the server
  // slots (dedicated staging nodes — or colocated helper ranks whose edges
  // run at memory speed, see workflow/pipeline.hpp). Simulation-only runs
  // drop the analysis ranks, like the paper's baseline.
  const auto stage_ranks = spec.pipeline.resolved_ranks(P, std::max(1, Q));
  int servers =
      spec.servers ? *spec.servers
                   : (spec.method ? transports::servers_for(*spec.method, P) : 0);
  if (multi_edge)
    servers = std::accumulate(stage_ranks.begin() + 2, stage_ranks.end(), 0);
  const workflow::Layout layout{
      P, zipper ? stage_ranks[1] : (spec.method ? Q : 0), servers};

  // Sharded parallel execution: only a plan the partitioner proved fully
  // decomposable runs sharded; everything else (including every legacy spec,
  // which defaults to sim_threads == 1) takes the sequential path below with
  // byte-identical artifacts.
  workflow::ShardPlan plan;
  if (spec.sim_threads > 1) plan = plan_shards(spec, spec.sim_threads);

  auto cluster =
      plan.sharded()
          ? std::make_shared<workflow::Cluster>(
                cspec, layout,
                workflow::ShardMap{plan.num_shards, plan.rank_to_shard})
          : std::make_shared<workflow::Cluster>(cspec, layout);
  cluster->recorder.set_enabled(spec.record_traces);
  if (spec.background_load_intensity > 0) {
    cluster->sim.spawn(cluster->fs->background_load(
        spec.background_load_intensity, spec.background_load_seed));
  }

  // Chaos injection + online control: everything hangs off a per-scenario
  // seeded engine, so the run stays a pure function of the spec.
  std::shared_ptr<core::chaos::ChaosEngine> chaos_engine;
  core::zbody::VtConfig zcfg = spec.zipper;
  if (spec.chaos.any()) {
    // Fault windows are spread over the healthy run's expected span (plus
    // headroom for the chaos-induced slowdown itself).
    const double horizon_s =
        std::max(1e-3, sim::to_seconds(profile.compute_per_step()) *
                           profile.steps * 1.5);
    // The producer dimension only feeds the drift axis, which always targets
    // the simulation's compute (stage 0); straggler/fault consumers follow
    // the pipeline's chaos edge.
    const int chaos_q = zipper
                            ? stage_ranks[static_cast<std::size_t>(
                                  spec.pipeline.chaos_edge) + 1]
                            : std::max(Q, 1);
    chaos_engine = std::make_shared<core::chaos::ChaosEngine>(spec.chaos, P,
                                                              chaos_q,
                                                              horizon_s);
    zcfg.chaos = chaos_engine;
    if (spec.chaos.burst.enabled()) {
      cluster->sim.spawn(cluster->fs->bursty_load(spec.chaos.burst.intensity,
                                                  spec.chaos.burst.period_s,
                                                  spec.chaos.seed));
    }
  }
  std::shared_ptr<opt::AdaptiveController> controller;
  if (spec.adaptive_control) {
    opt::AdaptiveOptions aopts;
    aopts.base_block_bytes = zcfg.block_bytes;
    controller = std::make_shared<opt::AdaptiveController>(aopts);
    zcfg.controller = [controller](const core::chaos::ControlSnapshot& s) {
      return controller->on_window(s);
    };
  }

  // The sharded path builds its own per-shard slice couplings from zcfg.
  std::unique_ptr<workflow::Coupling> coupling;
  if (spec.method && !plan.sharded()) {
    coupling = transports::make_coupling(*spec.method, *cluster, profile,
                                         spec.params, zcfg, spec.pipeline);
  }

  out.put("steps", profile.steps);
  out.put("producers", P);
  out.put("consumers", layout.consumers);
  out.put("servers", servers);

  workflow::RunResult r;
  workflow::ShardRunInfo shard_info;
  try {
    r = plan.sharded()
            ? workflow::run_workflow_sharded(*cluster, profile, zcfg,
                                             spec.pipeline, plan, &shard_info)
            : workflow::run_workflow(*cluster, profile, coupling.get(),
                                     chaos_engine.get());
  } catch (const transports::DecafCountOverflow& e) {
    out.crashed = true;
    out.note = e.what();
    if (spec.record_traces) out.cluster = cluster;
    return out;
  }

  out.put("end_to_end_s", r.end_to_end_s);
  out.put("producers_done_s", r.producers_done_s);
  out.put("compute_s", r.compute_s);
  out.put("halo_s", r.halo_s);
  out.put("put_s", r.put_s);
  out.put("analysis_s", r.analysis_s);
  out.put("xmit_wait", static_cast<double>(r.producer_xmit_wait));
  for (const auto& [k, v] : r.metrics) out.put(k, v);

  // Shard diagnostics are opt-in: wall time is host-dependent, and even the
  // deterministic counters must not perturb default artifact layouts.
  if (spec.shard_metrics) {
    out.put("shard_count", plan.num_shards);
    out.put("shard_threads", plan.sharded() ? plan.threads : 1);
    out.put("shard_lookahead_ns",
            static_cast<double>(shard_lookahead(cspec)));
    out.put("shard_events", static_cast<double>(shard_info.events));
    out.put("shard_windows", static_cast<double>(shard_info.windows));
    out.put("shard_messages", static_cast<double>(shard_info.messages));
    out.put("shard_sync_wall_s", shard_info.wall_s);
  }

  if (spec.with_model) {
    if (multi_edge) {
      const auto pp = model::predict_pipeline(pipeline_model_inputs(spec));
      out.put("model_end_to_end_s", pp.t_end_to_end);
      out.put("model_dominant_edge", pp.dominant_edge);
      for (std::size_t e = 0; e < pp.edges.size(); ++e) {
        out.put("model_e" + std::to_string(e) + "_s",
                pp.edges[e].t_end_to_end);
      }
      out.put("model_rel_error",
              model::relative_error(r.end_to_end_s, pp.t_end_to_end));
    } else {
      const auto pred = model::predict(model_input_for(spec));
      out.put("model_end_to_end_s", pred.t_end_to_end);
      out.put("model_t_comp_s", pred.t_comp);
      out.put("model_t_transfer_s", pred.t_transfer);
      out.put("model_t_analysis_s", pred.t_analysis);
      out.put("model_t_store_s", pred.t_store);
      out.put("model_rel_error", model::relative_error(r.end_to_end_s, pred));
    }
  }

  if (spec.record_traces) out.cluster = cluster;
  return out;
}

}  // namespace zipper::exp
