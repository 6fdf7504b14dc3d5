#include "opt/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/units.hpp"
#include "exp/analyze.hpp"
#include "exp/artifacts.hpp"
#include "exp/engine.hpp"

namespace zipper::opt {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Sort key that pushes NaN (never-simulated / crashed) behind every finite
/// value, keeping every comparator a strict weak ordering.
double orderable(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::infinity() : v;
}

/// The measured objective of one scenario result.
double objective_of(Objective o, const exp::ScenarioResult& r, int producers) {
  if (o == Objective::kEndToEnd) return r.get("end_to_end_s");
  return r.get("stall_s") / std::max(1, producers);
}

/// ceil(P/Q)·Q/P: how many times the even share the busiest consumer of the
/// static contiguous map carries (1 exactly when Q divides P).
double imbalance_factor(int producers, int consumers) {
  const double p = producers, q = consumers;
  return std::ceil(p / q) * q / p;
}

}  // namespace

std::string objective_token(Objective o) {
  return o == Objective::kEndToEnd ? "e2e" : "stall";
}

std::optional<Objective> parse_objective(const std::string& token) {
  if (token == "e2e" || token == "end-to-end") return Objective::kEndToEnd;
  if (token == "stall" || token == "producer-stall") {
    return Objective::kProducerStall;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- grid ----

std::string Candidate::token() const {
  std::string t = "route-" + core::sched::route_token(route);
  if (consumer_steal) t += "+csteal";
  if (adaptive_block) t += "+ablk";
  t += "/b" + std::to_string(block_bytes / common::KiB) + "k";
  if (spill_enabled) {
    t += "/spill-" + core::sched::spill_token(spill);
    char buf[24];
    std::snprintf(buf, sizeof buf, "/hw%.3g", high_water);
    t += buf;
  } else {
    t += "/spill-off";
  }
  if (servers) t += "/srv" + std::to_string(*servers);
  return t;
}

exp::ScenarioSpec Candidate::apply(const exp::ScenarioSpec& base) const {
  auto s = base;
  s.zipper.sched.route = route;
  s.zipper.sched.consumer_steal = consumer_steal;
  s.zipper.sched.block_size = adaptive_block
                                  ? core::sched::BlockSizeKind::kAdaptive
                                  : core::sched::BlockSizeKind::kFixed;
  s.zipper.block_bytes = block_bytes;
  s.zipper.enable_steal = spill_enabled;
  s.zipper.sched.spill = spill;
  s.zipper.high_water = high_water;
  if (servers) s.servers = *servers;
  s.label = "tune/" + token();
  return s;
}

std::vector<Candidate> SearchSpace::enumerate(
    const exp::ScenarioSpec& base) const {
  const std::vector<std::uint64_t> blocks =
      block_bytes.empty() ? std::vector<std::uint64_t>{base.zipper.block_bytes}
                          : block_bytes;
  const std::vector<double> thresholds =
      high_water.empty() ? std::vector<double>{base.zipper.high_water}
                         : high_water;
  std::vector<Candidate> out;
  for (const auto route : routes)
  for (const int csteal : consumer_steal)
  for (const int ablk : adaptive_block)
  for (const auto block : blocks)
  for (const auto& spill : spills) {
    Candidate c;
    c.route = route;
    c.consumer_steal = csteal != 0;
    c.adaptive_block = ablk != 0;
    c.block_bytes = block;
    if (!spill) {
      // Spill off: the threshold is inert — one candidate, base knobs.
      c.spill_enabled = false;
      c.spill = base.zipper.sched.spill;
      c.high_water = base.zipper.high_water;
      if (servers.empty()) {
        out.push_back(c);
      } else {
        for (const int srv : servers) {
          c.servers = srv;
          out.push_back(c);
        }
      }
      continue;
    }
    c.spill_enabled = true;
    c.spill = *spill;
    for (const double hw : thresholds) {
      c.high_water = hw;
      if (servers.empty()) {
        out.push_back(c);
      } else {
        for (const int srv : servers) {
          c.servers = srv;
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

// ------------------------------------------------------------- halving ----

std::vector<int> halving_rounds(int candidates, int budget, int rounds) {
  if (candidates < 1 || budget < 1 || rounds < 1) return {};
  const int r = std::min(rounds, budget);
  // Largest n0 whose ladder n0, ceil(n0/2), ... fits the budget. n0 = 1
  // always fits (ladder total == r <= budget), so the loop terminates with
  // a non-empty answer.
  for (int n0 = candidates; n0 >= 1; --n0) {
    std::vector<int> sizes;
    int total = 0;
    for (int i = 0, n = n0; i < r; ++i, n = (n + 1) / 2) {
      sizes.push_back(n);
      total += n;
    }
    if (total <= budget) return sizes;
  }
  return {};
}

std::vector<int> halving_steps(int full_steps, int rounds) {
  std::vector<int> out;
  if (rounds < 1) return out;
  const int floor_steps = std::min(2, full_steps);
  for (int r = 1; r <= rounds; ++r) {
    const int s = (full_steps * r + rounds - 1) / rounds;  // ceil
    out.push_back(std::max(floor_steps, s));
  }
  out.back() = full_steps;  // the final round is always full fidelity
  return out;
}

// ------------------------------------------------------------- scoring ----

Tuner::Tuner(exp::ScenarioSpec base, SearchSpace space, TuneOptions opts)
    : base_(std::move(base)), space_(std::move(space)), opts_(opts) {}

double Tuner::predict_objective(const Candidate& cand,
                                const model::Calibration& calib) const {
  if (opts_.objective == Objective::kEndToEnd &&
      base_.pipeline.num_edges() > 1) {
    // Pipelined base: the end-to-end bound is the bottleneck edge of the
    // stage chain, so score the candidate's knobs through the per-edge
    // equations (the candidate's block size reshapes every edge's input).
    const auto pp = model::predict_pipeline(model::calibrated_pipeline(
        calib, exp::pipeline_model_inputs(cand.apply(base_))));
    return pp.t_end_to_end;
  }
  // The producer-stall objective (and a one-edge chain's e2e) reduces to
  // the single-coupling view: stall is an edge-0 phenomenon — the
  // producers only ever see the first edge's backpressure.
  const int P = base_.producers;
  const int Q = std::max(1, base_.effective_consumers());
  const auto profile = exp::make_profile(base_);
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(P) *
                                    profile.steps *
                                    profile.bytes_per_rank_per_step;
  auto in = model::calibrated_input(calib, total_bytes, cand.block_bytes, P, Q,
                                    base_.zipper.preserve);
  // Balanced routing (anything but the pinned static map, or stealing
  // consumers that rebalance it) restores the even split the model assumes.
  const bool balanced =
      cand.route != core::sched::RouteKind::kStatic || cand.consumer_steal;
  in.analysis_load_factor = balanced ? 1.0 : imbalance_factor(P, Q);
  const auto pred = model::predict(in);
  if (opts_.objective == Objective::kEndToEnd) {
    // Spill changes *where* bytes flow, not how much analysis must happen,
    // so the end-to-end bound is the pipeline bound either way.
    return pred.t_end_to_end;
  }

  // Producer-stall objective: the bottleneck-consumer queueing view. A
  // producer emits one block per tc seconds; it stalls when the slowest
  // drain element downstream needs longer than tc per block.
  const double B = static_cast<double>(in.block_bytes);
  const double tc = in.tc_s, tm = in.tm_s, ta = in.ta_s;
  // Blocks per producer routed to the busiest consumer's queue per unit of
  // its service: the static map concentrates ceil(P/Q) producers on it.
  const double k = balanced ? static_cast<double>(P) / Q
                            : std::ceil(static_cast<double>(P) / Q);
  double drain;
  if (cand.spill_enabled) {
    // Sender and writer drain the producer buffer concurrently, and the
    // overflow path never waits for consumer credit: the harmonic per-block
    // time of the two paths bounds the producer.
    const double tw = B / base_.zipper.writer_bandwidth;
    drain = tm + tw > 0 ? tm * tw / (tm + tw) : 0.0;
  } else {
    double consumer = k * ta;
    if (in.preserve) {
      // Preserve-mode store runs beside analysis on the consumer; the
      // slower of the two paces its queue.
      const double ts = B * Q / in.pfs_write_bandwidth;
      consumer = k * std::max(ta, ts);
    }
    drain = std::max(tm, consumer);
  }
  const double nb_per_producer =
      static_cast<double>(pred.num_blocks) / std::max(1, P);
  return std::max(0.0, drain - tc) * nb_per_producer;
}

// ------------------------------------------------------------ the loop ----

TuneReport Tuner::run() const {
  TuneReport rep;
  rep.objective = opts_.objective;
  if (base_.kind != exp::ScenarioKind::kWorkflow || !base_.method ||
      *base_.method != transports::Method::kZipper) {
    rep.note = "tuning requires a Zipper workflow scenario as the base";
    return rep;
  }
  const auto cands = space_.enumerate(base_);
  rep.grid_size = cands.size();
  if (cands.empty()) {
    rep.note = "empty search space";
    return rep;
  }
  if (opts_.budget < 2) {
    rep.note = "budget must be >= 2 (one probe + at least one validation run)";
    return rep;
  }
  if (opts_.rounds < 1) {
    rep.note = "rounds must be >= 1";
    return rep;
  }

  const int P = base_.producers;
  exp::SweepOptions sweep;
  sweep.jobs = opts_.jobs;
  if (opts_.progress) {
    sweep.on_done = [](const exp::ScenarioSpec& spec,
                       const exp::ScenarioResult& r, std::size_t done,
                       std::size_t total) {
      std::fprintf(stderr, "[%zu/%zu] %s%s\n", done, total, spec.label.c_str(),
                   r.crashed ? "  (crashed)" : "");
    };
  }

  // Phase 1: traced probe of the default configuration, full fidelity.
  auto probe = base_;
  probe.label = "tune/default";
  probe.record_traces = true;
  auto probe_res = exp::run_sweep({probe}, sweep);
  rep.sim_runs = 1;
  auto& pr = probe_res.front();
  if (pr.crashed) {
    rep.note = "probe run crashed: " + pr.note;
    return rep;
  }
  rep.default_objective = objective_of(opts_.objective, pr, P);
  rep.default_end_to_end = pr.get("end_to_end_s");
  model::TraceObservation obs;
  if (exp::observe(probe, pr, &obs)) {
    const auto c = model::fit(obs);
    if (c.valid) {
      rep.calib = c;
      rep.calib_from_trace = true;
    }
  }
  pr.cluster.reset();  // the trace served its purpose
  if (!rep.calib_from_trace) {
    // Fall back to the configured §4.4 rates so scoring still ranks the
    // grid; the validation rounds correct any bias either way.
    const auto in0 = exp::model_input_for(base_);
    const double b = static_cast<double>(in0.block_bytes);
    rep.calib.valid = true;
    rep.calib.note = "fit from configured rates (probe trace unusable)";
    rep.calib.tc_s_per_byte = in0.tc_s / b;
    rep.calib.tm_s_per_byte = in0.tm_s / b;
    rep.calib.ta_s_per_byte = in0.ta_s / b;
    rep.calib.pfs_write_bandwidth = in0.pfs_write_bandwidth;
  }

  // Phase 2: score the whole grid analytically.
  rep.outcomes.resize(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    rep.outcomes[i].cand = cands[i];
    rep.outcomes[i].predicted = predict_objective(cands[i], rep.calib);
    rep.outcomes[i].simulated = kNaN;
  }

  // Phase 3: successive halving over the analytic front-runners.
  rep.round_sizes =
      halving_rounds(static_cast<int>(cands.size()), opts_.budget - 1,
                     opts_.rounds);
  rep.round_steps =
      halving_steps(base_.steps, static_cast<int>(rep.round_sizes.size()));
  std::vector<int> order(cands.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return orderable(rep.outcomes[a].predicted) <
           orderable(rep.outcomes[b].predicted);
  });
  std::vector<int> survivors(order.begin(),
                             order.begin() + rep.round_sizes.front());
  for (std::size_t r = 0; r < rep.round_sizes.size(); ++r) {
    if (opts_.progress) {
      std::fprintf(stderr, "tune: round %zu/%zu — %zu candidates at %d steps\n",
                   r + 1, rep.round_sizes.size(), survivors.size(),
                   rep.round_steps[r]);
    }
    std::vector<exp::ScenarioSpec> specs;
    specs.reserve(survivors.size());
    for (const int idx : survivors) {
      auto s = rep.outcomes[idx].cand.apply(base_);
      s.steps = rep.round_steps[r];
      specs.push_back(std::move(s));
    }
    const auto results = exp::run_sweep(specs, sweep);
    rep.sim_runs += static_cast<int>(results.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      auto& o = rep.outcomes[survivors[i]];
      o.rounds_survived = static_cast<int>(r) + 1;
      o.steps_simulated = rep.round_steps[r];
      if (results[i].crashed) {
        o.simulated = kNaN;
        o.note = results[i].note;
      } else {
        o.simulated = objective_of(opts_.objective, results[i], P);
      }
    }
    std::stable_sort(survivors.begin(), survivors.end(), [&](int a, int b) {
      const auto &oa = rep.outcomes[a], &ob = rep.outcomes[b];
      if (orderable(oa.simulated) != orderable(ob.simulated)) {
        return orderable(oa.simulated) < orderable(ob.simulated);
      }
      return orderable(oa.predicted) < orderable(ob.predicted);
    });
    if (r + 1 < rep.round_sizes.size()) {
      survivors.resize(static_cast<std::size_t>(rep.round_sizes[r + 1]));
    }
  }
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    rep.outcomes[survivors[i]].final_rank = static_cast<int>(i) + 1;
  }
  const auto& best = rep.outcomes[survivors.front()];
  if (std::isfinite(best.simulated) &&
      best.simulated < rep.default_objective) {
    rep.chosen = survivors.front();
  }
  rep.ok = true;
  return rep;
}

const CandidateOutcome* TuneReport::chosen_outcome() const {
  if (chosen < 0 || static_cast<std::size_t>(chosen) >= outcomes.size()) {
    return nullptr;
  }
  return &outcomes[static_cast<std::size_t>(chosen)];
}

double TuneReport::improvement() const {
  const auto* o = chosen_outcome();
  if (!o || default_objective <= 0) return 0;
  return (default_objective - o->simulated) / default_objective;
}

// ----------------------------------------------------------- artifacts ----

std::vector<exp::ScenarioResult> report_rows(const TuneReport& rep) {
  std::vector<exp::ScenarioResult> rows;
  rows.reserve(rep.outcomes.size() + 1);
  exp::ScenarioResult d;
  d.label = "default";
  d.put("predicted_s", kNaN);  // the default is measured, never predicted
  d.put("simulated_s", rep.default_objective);
  // The probe runs at full fidelity — the same step count as the last round.
  d.put("steps_simulated", rep.round_steps.empty() ? 0 : rep.round_steps.back());
  d.put("rounds_survived", kNaN);
  d.put("final_rank", kNaN);
  d.put("chosen", rep.chosen < 0 ? 1 : 0);
  rows.push_back(std::move(d));
  for (std::size_t i = 0; i < rep.outcomes.size(); ++i) {
    const auto& o = rep.outcomes[i];
    exp::ScenarioResult r;
    r.label = o.cand.token();
    r.note = o.note;
    r.put("predicted_s", o.predicted);
    r.put("simulated_s", o.simulated);
    r.put("steps_simulated", o.steps_simulated);
    r.put("rounds_survived", o.rounds_survived);
    r.put("final_rank", o.final_rank >= 0 ? o.final_rank : kNaN);
    r.put("chosen", static_cast<int>(i) == rep.chosen ? 1 : 0);
    rows.push_back(std::move(r));
  }
  return rows;
}

int run_tune(const std::string& name, const exp::ScenarioSpec& base,
             const SearchSpace& space, const TuneLabOptions& opts) {
  const Tuner tuner(base, space, opts.tune);
  const auto rep = tuner.run();
  if (!rep.ok) {
    std::fprintf(stderr, "tune: %s: %s\n", name.c_str(), rep.note.c_str());
    return 2;
  }

  const char* objname = rep.objective == Objective::kEndToEnd
                            ? "end-to-end time"
                            : "producer stall";
  std::printf("tune: %s — objective %s, %zu-candidate grid, budget %d runs\n",
              name.c_str(), objname, rep.grid_size, opts.tune.budget);
  std::printf("probe: default config %s %.3f s (end-to-end %.2f s)\n", objname,
              rep.default_objective, rep.default_end_to_end);
  std::printf("%s%s\n", model::summary(rep.calib).c_str(),
              rep.calib_from_trace ? "  (fit on the probe trace)" : "");
  std::string ladder;
  for (std::size_t r = 0; r < rep.round_sizes.size(); ++r) {
    if (r) ladder += " -> ";
    ladder += std::to_string(rep.round_sizes[r]) + "@" +
              std::to_string(rep.round_steps[r]) + "st";
  }
  std::printf("halving: %s (runs spent: %d of the %zu an exhaustive sweep "
              "needs)\n",
              ladder.c_str(), rep.sim_runs, rep.grid_size);

  // Final standings: every candidate that survived to the last round.
  std::printf("\n%4s %-44s %12s %12s %10s\n", "rank", "candidate",
              "predicted(s)", "simulated(s)", "vs default");
  std::vector<const CandidateOutcome*> finals;
  for (const auto& o : rep.outcomes) {
    if (o.final_rank >= 1) finals.push_back(&o);
  }
  std::sort(finals.begin(), finals.end(),
            [](const CandidateOutcome* a, const CandidateOutcome* b) {
              return a->final_rank < b->final_rank;
            });
  for (const auto* o : finals) {
    const double vs = rep.default_objective > 0
                          ? (o->simulated - rep.default_objective) /
                                rep.default_objective * 100.0
                          : 0.0;
    std::printf("%4d %-44s %12.3f %12.3f %9.1f%%\n", o->final_rank,
                o->cand.token().c_str(), o->predicted, o->simulated, vs);
  }

  if (const auto* o = rep.chosen_outcome()) {
    std::printf("\nchosen: %s — %s %.3f s vs default %.3f s (%.1f%% better)\n",
                o->cand.token().c_str(), objname, o->simulated,
                rep.default_objective, rep.improvement() * 100.0);
  } else {
    std::printf("\nchosen: default configuration (no candidate beat %.3f s)\n",
                rep.default_objective);
  }

  if (opts.write_artifacts) {
    std::error_code ec;
    std::filesystem::create_directories(opts.artifacts_dir, ec);
    const std::string stem = opts.artifacts_dir + "/" + name;
    const auto rows = report_rows(rep);
    const bool csv_ok = exp::write_file(stem + ".tune.csv", exp::to_csv(rows));
    const bool json_ok =
        exp::write_file(stem + ".tune.json", exp::to_json(rows));
    if (!csv_ok || !json_ok) {
      std::fprintf(stderr, "error: failed to write artifacts under %s\n",
                   opts.artifacts_dir.c_str());
      return 1;
    }
    std::printf("\nartifacts: %s.tune.csv, %s.tune.json\n", stem.c_str(),
                stem.c_str());
  }
  return 0;
}

}  // namespace zipper::opt
