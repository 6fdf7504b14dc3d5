#include "exp/analyze.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "exp/artifacts.hpp"
#include "exp/engine.hpp"
#include "trace/timeline.hpp"

namespace zipper::exp {

namespace {

std::uint64_t spec_total_bytes(const ScenarioSpec& spec) {
  const auto profile = make_profile(spec);
  return static_cast<std::uint64_t>(spec.producers) * profile.steps *
         profile.bytes_per_rank_per_step;
}

/// Producer compute summed over ranks, from the scenario's own trace. The
/// streaming phase rides with compute: for the traced workloads it is either
/// zero (synthetics) or a small compute+halo slice of the step.
double compute_total_s(const ScenarioSpec& spec, const ScenarioResult& r) {
  return (r.get("compute_s") + r.get("halo_s")) * spec.producers;
}

bool pipelined(const ScenarioSpec& spec) {
  return spec.pipeline.num_edges() > 1;
}

/// One rank band per pipeline stage, mirroring PipelineCoupling's contiguous
/// world-rank layout (stage i occupies [sum(r[0..i)), sum(r[0..i]))).
std::vector<trace::RankBand> stage_bands(const ScenarioSpec& spec) {
  const auto ranks = spec.pipeline.resolved_ranks(
      spec.producers, std::max(1, spec.effective_consumers()));
  std::vector<trace::RankBand> bands;
  bands.reserve(ranks.size());
  std::int32_t base = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    bands.push_back(trace::RankBand{spec.pipeline.stages[i].name, base, ranks[i]});
    base += ranks[i];
  }
  return bands;
}

}  // namespace

bool observe(const ScenarioSpec& spec, const ScenarioResult& r,
             model::TraceObservation* out) {
  if (r.crashed || spec.kind != ScenarioKind::kWorkflow || !spec.method ||
      *spec.method != transports::Method::kZipper || !r.has("sender_busy_s")) {
    return false;
  }
  model::TraceObservation obs;
  obs.total_bytes = spec_total_bytes(spec);
  obs.producers = spec.producers;
  obs.consumers = std::max(1, spec.effective_consumers());
  obs.compute_total_s = compute_total_s(spec, r);
  obs.transfer_total_s = r.get("sender_busy_s");
  obs.analysis_total_s = r.get("analysis_busy_s");
  obs.store_total_s = r.get("store_busy_s");
  obs.preserve = spec.zipper.preserve;
  if (pipelined(spec)) {
    // The top-level metric keys a pipelined run publishes come from edge 0,
    // whose consumers are stage 1's ranks and whose store term is zero
    // (Preserve rides the last edge only).
    obs.consumers = spec.pipeline.resolved_ranks(
        spec.producers, std::max(1, spec.effective_consumers()))[1];
    obs.preserve = false;
  }
  *out = obs;
  return true;
}

namespace {

/// The calibrated prediction input for one scenario: runtime rates from the
/// fitted calibration, compute rate from the scenario's own trace.
model::ModelInput calibrated_input_for(const ScenarioSpec& spec,
                                       const ScenarioResult& r,
                                       const model::Calibration& calib) {
  auto in = model_input_for(spec);
  const double d = static_cast<double>(in.total_bytes);
  if (d > 0) {
    in.tc_s = compute_total_s(spec, r) / d * static_cast<double>(in.block_bytes);
  }
  in.tm_s = calib.tm_s_per_byte * static_cast<double>(in.block_bytes);
  in.ta_s = calib.ta_s_per_byte * static_cast<double>(in.block_bytes);
  if (calib.pfs_write_bandwidth > 0) {
    in.pfs_write_bandwidth = calib.pfs_write_bandwidth;
  }
  return in;
}

/// The pipelined analogue of calibrated_input_for: per-edge inputs through
/// model::calibrated_pipeline (runtime rates from the fit), then the edge-0
/// compute rate replaced by this scenario's own traced rate — deeper edges
/// have no compute term.
std::vector<model::ModelInput> calibrated_pipeline_for(
    const ScenarioSpec& spec, const ScenarioResult& r,
    const model::Calibration& calib) {
  auto edges = model::calibrated_pipeline(calib, pipeline_model_inputs(spec));
  if (!edges.empty()) {
    const double d = static_cast<double>(edges.front().total_bytes);
    if (d > 0) {
      edges.front().tc_s = compute_total_s(spec, r) / d *
                           static_cast<double>(edges.front().block_bytes);
    }
  }
  return edges;
}

bool predictable(const ScenarioSpec& spec, const ScenarioResult& r) {
  return !r.crashed && spec.kind == ScenarioKind::kWorkflow && spec.method &&
         *spec.method == transports::Method::kZipper;
}

}  // namespace

int analyze_scenarios(const std::string& name, std::vector<ScenarioSpec> specs,
                      const AnalyzeOptions& opts) {
  for (auto& s : specs) s.record_traces = true;

  SweepOptions sweep;
  sweep.jobs = opts.jobs;
  if (opts.progress) {
    sweep.on_done = [](const ScenarioSpec& spec, const ScenarioResult& r,
                       std::size_t done, std::size_t total) {
      std::fprintf(stderr, "[%zu/%zu] %s%s\n", done, total, spec.label.c_str(),
                   r.crashed ? "  (crashed)" : "");
    };
  }
  auto results = run_sweep(specs, sweep);

  std::printf("analyze: %s — %zu scenario%s, per-rank stall attribution\n",
              name.c_str(), specs.size(), specs.size() == 1 ? "" : "s");

  trace::ChromeTrace chrome;
  for (std::size_t i = 0; i < results.size(); ++i) {
    auto& r = results[i];
    std::printf("\n--- %s ---\n", r.label.c_str());
    if (r.crashed) {
      std::printf("crashed: %s\n", r.note.c_str());
      continue;
    }
    if (!r.cluster) {
      std::printf("no trace (analytic scenario)\n");
      continue;
    }
    const auto attr = trace::analyze(r.cluster->recorder);
    std::printf("%s", trace::attribution_table(attr, opts.table_ranks).c_str());
    if (pipelined(specs[i])) {
      std::printf("per-stage attribution (rank bands):\n%s",
                  trace::band_table(trace::band_attribution(
                                        attr, stage_bands(specs[i])))
                      .c_str());
    }
    chrome.add_process(static_cast<int>(i), r.label, r.cluster->recorder);
    // The cluster (whole simulation universe + span vectors) served its
    // purpose; release it so a large grid's peak memory doesn't hold every
    // scenario's trace through calibration and artifact writing.
    r.cluster.reset();

    for (std::size_t s = 0; s < trace::kNumStages; ++s) {
      r.put("attr_" + std::string(trace::stage_name(static_cast<trace::Stage>(s))) +
                "_s",
            sim::to_seconds(attr.total_by_stage[s]));
    }
    sim::Time idle = 0;
    for (const auto& ra : attr.ranks) idle += ra.idle;
    r.put("attr_idle_s", sim::to_seconds(idle));
    r.put("attr_critical_rank", attr.critical_rank);
  }

  // ----- trace-calibrated model fit + sweep-wide prediction ----------------
  model::Calibration calib;
  std::size_t calib_idx = results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    model::TraceObservation obs;
    if (!observe(specs[i], results[i], &obs)) continue;
    const auto c = model::fit(obs);
    if (c.valid) {
      calib = c;
      calib_idx = i;
      break;
    }
  }
  if (calib_idx < results.size()) {
    std::printf("\nmodel calibration (fit on %s):\n  %s\n",
                results[calib_idx].label.c_str(), model::summary(calib).c_str());
    std::printf("\n%-44s %12s %12s %9s  %s\n", "scenario", "measured(s)",
                "model(s)", "err", "dominant");
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!predictable(specs[i], results[i])) continue;
      double predicted = 0.0;
      std::string dominant;
      if (pipelined(specs[i])) {
        const auto pp = model::predict_pipeline(
            calibrated_pipeline_for(specs[i], results[i], calib));
        predicted = pp.t_end_to_end;
        dominant = "edge " + std::to_string(pp.dominant_edge) + " " + pp.dominant;
        results[i].put("calib_dominant_edge", pp.dominant_edge);
        for (std::size_t e = 0; e < pp.edges.size(); ++e) {
          results[i].put("calib_e" + std::to_string(e) + "_s",
                         pp.edges[e].t_end_to_end);
        }
      } else {
        const auto pred =
            model::predict(calibrated_input_for(specs[i], results[i], calib));
        predicted = pred.t_end_to_end;
        dominant = pred.dominant;
      }
      const double measured = results[i].get("end_to_end_s");
      const double err = model::relative_error(measured, predicted);
      results[i].put("calib_end_to_end_s", predicted);
      results[i].put("calib_rel_err", err);
      if (std::isfinite(err)) {
        std::printf("%-44s %12.2f %12.2f %8.1f%%  %s%s\n",
                    results[i].label.c_str(), measured, predicted, err * 100.0,
                    dominant.c_str(),
                    i == calib_idx ? "  (calibration run)" : "");
      } else {
        std::printf("%-44s %12.2f %12.2f %9s  %s\n", results[i].label.c_str(),
                    measured, predicted, "n/a", dominant.c_str());
      }
    }
  } else {
    std::printf("\nmodel calibration skipped: no traced Zipper scenario in "
                "this set (attribution and trace export only).\n");
  }

  if (opts.write_artifacts) {
    std::error_code ec;
    std::filesystem::create_directories(opts.artifacts_dir, ec);
    const std::string stem = opts.artifacts_dir + "/" + name;
    const bool trace_ok = write_file(stem + ".trace.json", chrome.json());
    const bool csv_ok = write_file(stem + ".analysis.csv", to_csv(results));
    const bool json_ok = write_file(stem + ".analysis.json", to_json(results));
    if (!trace_ok || !csv_ok || !json_ok) {
      std::fprintf(stderr, "error: failed to write artifacts under %s\n",
                   opts.artifacts_dir.c_str());
      return 1;
    }
    std::printf("\nartifacts: %s.trace.json (chrome://tracing / Perfetto), "
                "%s.analysis.csv, %s.analysis.json\n",
                stem.c_str(), stem.c_str(), stem.c_str());
  }
  return 0;
}

int analyze_figure(const FigureDef& fig, const AnalyzeOptions& opts) {
  return analyze_scenarios(fig.name, fig.scenarios(opts.full), opts);
}

}  // namespace zipper::exp
