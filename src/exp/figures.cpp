// The registry: every paper figure and ablation as a declarative scenario
// set plus a presenter that renders the same narrative tables the original
// bench/fig* harnesses printed (same printf formats, same paper-value
// columns), so pre- and post-refactor outputs diff cleanly.
#include "exp/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "common/stats.hpp"
#include "exp/artifacts.hpp"
#include "exp/lab.hpp"
#include "exp/partition.hpp"
#include "opt/tuner.hpp"
#include "trace/recorder.hpp"

namespace zipper::exp {

using transports::Method;

const ScenarioResult* FigureContext::find(const std::string& label) const {
  for (const auto& r : results) {
    if (r.label == label) return &r;
  }
  return nullptr;
}

namespace {

// ------------------------------------------------------------ shared UI ----

void title(const std::string& what, const std::string& paper_context) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("%s\n", paper_context.c_str());
  std::printf("================================================================\n");
}

std::string bar(double value, double vmax, int width = 42) {
  const int n = vmax > 0 ? static_cast<int>(value / vmax * width + 0.5) : 0;
  return std::string(static_cast<std::size_t>(std::min(n, width)), '#');
}

void print_phase_summary(const workflow::Cluster& cl, int producers, int steps) {
  const auto& rec = cl.recorder;
  const double inv = 1.0 / producers;
  using trace::Cat;
  std::printf("\nper-producer phase totals over %d steps (averaged):\n", steps);
  const Cat cats[] = {Cat::kCollision, Cat::kStreaming, Cat::kUpdate, Cat::kPut,
                      Cat::kLock,      Cat::kWaitall,   Cat::kStall,  Cat::kTransfer};
  for (Cat c : cats) {
    const double t = sim::to_seconds(rec.total(c)) * inv;
    if (t > 1e-6) {
      std::printf("  %-12s %8.3f s  (%6.3f s/step)\n",
                  std::string(trace::cat_name(c)).c_str(), t, t / steps);
    }
  }
}

void print_gantt_window(const workflow::Cluster& cl,
                        const std::vector<std::int32_t>& ranks, double t0_s,
                        double t1_s) {
  std::printf("\ntrace snapshot [%.2f s, %.2f s], %zu ranks:\n", t0_s, t1_s,
              ranks.size());
  std::printf("%s", trace::render_gantt(cl.recorder, ranks, sim::from_seconds(t0_s),
                                        sim::from_seconds(t1_s), 100)
                        .c_str());
  std::printf("%s\n",
              trace::gantt_legend({trace::Cat::kCollision, trace::Cat::kStreaming,
                                   trace::Cat::kUpdate, trace::Cat::kPut,
                                   trace::Cat::kLock, trace::Cat::kWaitall,
                                   trace::Cat::kStall, trace::Cat::kAnalysis,
                                   trace::Cat::kGet})
                  .c_str());
}

Workload synthetic_workload(int ci) {
  return ci == 0 ? Workload::kSyntheticLinear
                 : ci == 1 ? Workload::kSyntheticNLogN : Workload::kSyntheticN32;
}

const char* synthetic_token(int ci) {
  return ci == 0 ? "linear" : ci == 1 ? "nlogn" : "n32";
}

apps::Complexity synthetic_complexity(int ci) {
  return ci == 0 ? apps::Complexity::kLinear
                 : ci == 1 ? apps::Complexity::kNLogN : apps::Complexity::kN32;
}

// ------------------------------------------------------------------ fig02 ----

std::vector<ScenarioSpec> fig02_scenarios(bool full) {
  ScenarioSpec base;
  base.cluster = "bridges";
  base.workload = Workload::kCfdBridges;
  base.steps = full ? 100 : 25;
  base.producers = full ? 256 : 128;
  base.consumers = base.producers / 2;

  std::vector<ScenarioSpec> out;
  {
    auto s = base;
    s.label = "fig02/sim-only";
    out.push_back(s);
  }
  // MPI-IO shares the file system with other users: three background-load
  // seeds expose the paper's "most variational" behaviour.
  int variant = 0;
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    auto s = base;
    s.method = Method::kMpiIo;
    s.background_load_intensity = 0.2 + 0.2 * variant++;
    s.background_load_seed = seed;
    s.label = "fig02/mpiio/seed" + std::to_string(seed);
    out.push_back(s);
  }
  for (Method m : {Method::kAdiosDataSpaces, Method::kAdiosDimes,
                   Method::kNativeDataSpaces, Method::kNativeDimes,
                   Method::kFlexpath, Method::kDecaf}) {
    auto s = base;
    s.method = m;
    s.label = "fig02/" + transports::method_token(m);
    out.push_back(s);
  }
  return out;
}

void fig02_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  const int steps = base.steps;
  const double step_scale = 100.0 / steps;
  const auto profile = make_profile(base);

  title("Figure 2: CFD workflow end-to-end time, 7 I/O transport libraries",
        "Paper setup (Table 1): 16384x64x256 grid, 256 sim procs / 16 nodes, "
        "128 analysis procs / 8 nodes,\n100 steps, n=4 moment analysis, 400 GB "
        "moved. Bridges: 28-core Haswell, Omni-Path, Lustre.");
  std::printf("This run: %d sim + %d analysis ranks, %d steps "
              "(reported scaled to 100 steps)%s\n\n",
              base.producers, base.consumers, steps,
              ctx.full ? "" : "  [pass --full for the paper-size run]");

  struct Entry {
    std::string label;
    double measured;
    double paper;
  };
  std::vector<Entry> rows;

  rows.push_back({"Simulation-only",
                  ctx.find("fig02/sim-only")->get("end_to_end_s") * step_scale,
                  39.2});
  const double analysis_only =
      steps * sim::to_seconds(profile.analysis_time(
                  2 * profile.bytes_per_rank_per_step)) * step_scale;
  rows.push_back({"Analysis-only", analysis_only, 48.4});

  common::RunningStats mpiio_spread;
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    mpiio_spread.add(
        ctx.find("fig02/mpiio/seed" + std::to_string(seed))->get("end_to_end_s") *
        step_scale);
  }
  rows.push_back({"MPI-IO (mean of 3 seeds)", mpiio_spread.mean(), 281.6});

  const std::vector<std::pair<Method, double>> methods = {
      {Method::kAdiosDataSpaces, 176.9}, {Method::kAdiosDimes, 157.2},
      {Method::kNativeDataSpaces, 140.9}, {Method::kNativeDimes, 104.9},
      {Method::kFlexpath, 96.1},          {Method::kDecaf, 83.4},
  };
  for (const auto& [method, paper] : methods) {
    const auto* r = ctx.find("fig02/" + transports::method_token(method));
    rows.push_back({transports::method_name(method),
                    r->get("end_to_end_s") * step_scale, paper});
  }

  double vmax = 0;
  for (const auto& r : rows) vmax = std::max(vmax, r.measured);
  std::printf("%-26s %12s %12s   %s\n", "method", "measured(s)", "paper(s)",
              "measured profile");
  for (const auto& r : rows) {
    std::printf("%-26s %12.1f %12.1f   |%s\n", r.label.c_str(), r.measured,
                r.paper, bar(r.measured, vmax).c_str());
  }
  std::printf("\nMPI-IO run-to-run spread across seeds: min %.1f s, max %.1f s "
              "(paper: 'longest and most variational')\n",
              mpiio_spread.min(), mpiio_spread.max());

  const double adios_ds = rows[3].measured, native_ds = rows[5].measured;
  const double adios_di = rows[4].measured, native_di = rows[6].measured;
  std::printf("native DataSpaces speedup over ADIOS/DataSpaces: %.2fx (paper 1.3x)\n",
              adios_ds / native_ds);
  std::printf("native DIMES speedup over ADIOS/DIMES:           %.2fx (paper 1.5x)\n",
              adios_di / native_di);

  const transports::TransportParams tp;
  std::printf("\nTable 2 analog (model parameters): staging num_slots native=%d "
              "adios=%d, lock RPC %.1f ms,\nserver ingest %.0f MB/s, ADIOS copy "
              "%.0f MB/s, socket stack %.0f MB/s/host,\nDecaf serialize %.0f MB/s + "
              "links P/4, MPI-IO write/read amplification %.0fx/%.0fx.\n",
              tp.num_slots_native, tp.num_slots_adios,
              tp.lock_service / 1e6, tp.server_memory_bandwidth / 1e6,
              tp.adios_copy_bandwidth / 1e6, tp.socket_stack_bandwidth / 1e6,
              tp.decaf_serialize_bandwidth / 1e6, tp.mpiio_write_amplification,
              tp.mpiio_read_amplification);
}

// ------------------------------------------------------------------ fig03 ----

std::vector<ScenarioSpec> fig03_scenarios(bool /*full*/) {
  ScenarioSpec s;
  s.label = "fig03/overlap";
  s.kind = ScenarioKind::kPipelineSchedule;
  s.schedule_blocks = 6;
  // Two active stages: simulation (1.0 s/step) and a faster analysis
  // (0.6 s/step); the Output/Input stages are instantaneous in this diagram.
  s.schedule_stage_s = {1.0, 0.0, 0.0, 0.6};
  return {s};
}

void fig03_present(const FigureContext& ctx) {
  title("Figure 3: overlapping simulation and analysis time steps",
        "Illustration regenerated from the schedule model: 6 steps, "
        "analysis faster than simulation.");

  const auto& spec = ctx.specs.front();
  const int steps = spec.schedule_blocks;
  const double t_sim = spec.schedule_stage_s[0], t_ana = spec.schedule_stage_s[3];
  double ana_free = 0.0;
  std::printf("%-6s %-22s %-22s\n", "step", "simulation [t0,t1)", "analysis [t0,t1)");
  double ana_end = 0.0;
  for (int k = 0; k < steps; ++k) {
    const double s0 = k * t_sim, s1 = (k + 1) * t_sim;
    const double a0 = std::max(s1, ana_free);
    const double a1 = a0 + t_ana;
    ana_free = a1;
    ana_end = a1;
    std::printf("%-6d [%5.2f, %5.2f)        [%5.2f, %5.2f)\n", k + 1, s0, s1, a0, a1);
  }
  const double span = ana_end;
  // The schedule model must agree with the hand-rolled recurrence above.
  const double model_span = ctx.results.front().get("makespan_integrated");
  std::printf("\nworkflow span = %.2f, pure simulation span = %.2f, "
              "pure analysis total = %.2f\n", span, steps * t_sim, steps * t_ana);
  if (std::abs(span - model_span) > 1e-9) {
    std::printf("WARNING: schedule model disagrees (model span %.2f)\n", model_span);
  }
  std::printf("hidden analysis time = %.2f of %.2f (%.0f%%) -- the analysis is "
              "fully overlapped except the trailing step,\nmatching the "
              "paper's claim that either the simulation or the analysis time "
              "can be totally hidden.\n",
              steps * t_ana - (span - steps * t_sim), steps * t_ana,
              100.0 * (steps * t_ana - (span - steps * t_sim)) / (steps * t_ana));
}

// ------------------------------------------------------- fig04/05/06 traces --

ScenarioSpec cfd_trace_base(bool full) {
  ScenarioSpec s;
  s.cluster = "bridges";
  s.workload = Workload::kCfdBridges;
  s.steps = 10;
  s.producers = full ? 256 : 56;
  s.consumers = s.producers / 2;
  s.record_traces = true;
  return s;
}

std::vector<ScenarioSpec> fig04_scenarios(bool full) {
  auto s = cfd_trace_base(full);
  s.method = Method::kNativeDimes;
  s.label = "fig04/dimes";
  return {s};
}

void fig04_present(const FigureContext& ctx) {
  const auto& spec = ctx.specs.front();
  const auto profile = make_profile(spec);
  const auto* r = ctx.find("fig04/dimes");

  title("Figure 4: native DIMES trace (CFD workflow)",
        "Paper: lock_on_write dominates the PUT; application stall ~ one step "
        "once the circular slot queue (step % num_slots) wraps onto unread data.");

  print_phase_summary(*r->cluster, spec.producers, profile.steps);
  print_gantt_window(*r->cluster, {0, 1, 2, 3}, 2.0, 4.0);

  const double lock_s =
      sim::to_seconds(r->cluster->recorder.total(trace::Cat::kLock)) /
      spec.producers;
  const double step_s = sim::to_seconds(profile.compute_per_step());
  std::printf("\nlock wait per step: %.3f s on top of %.3f s of compute\n",
              lock_s / profile.steps, step_s);
  std::printf("end-to-end: %.1f s for %d steps -> %.2f s/step = %.2fx the "
              "simulation-only step (paper: the slot-recycle stall 'nearly "
              "doubles' the end-to-end time)\n",
              r->get("end_to_end_s"), profile.steps,
              r->get("end_to_end_s") / profile.steps,
              r->get("end_to_end_s") / profile.steps / step_s);
}

std::vector<ScenarioSpec> fig05_scenarios(bool full) {
  auto solo = cfd_trace_base(full);
  solo.label = "fig05/sim-only";
  auto flex = cfd_trace_base(full);
  flex.method = Method::kFlexpath;
  flex.label = "fig05/flexpath";
  return {solo, flex};
}

void fig05_present(const FigureContext& ctx) {
  const auto& spec = ctx.specs.front();
  const auto profile = make_profile(spec);

  title("Figure 5: CFD-only vs Flexpath-based workflow traces",
        "Paper: the orange MPI_Sendrecv stripes (LBM streaming) lengthen "
        "visibly under Flexpath's staging traffic.");

  const double stream_compute =
      profile.steps * sim::to_seconds(profile.t_streaming);
  const auto* solo = ctx.find("fig05/sim-only");
  const auto* flex = ctx.find("fig05/flexpath");
  const double sendrecv_solo =
      (solo->get("halo_s") - stream_compute) / profile.steps;
  const double sendrecv_flex =
      (flex->get("halo_s") - stream_compute) / profile.steps;

  std::printf("\nCFD-only trace:\n");
  print_gantt_window(*solo->cluster, {0, 1}, 1.0, 4.0);
  std::printf("\nFlexpath workflow trace:\n");
  print_gantt_window(*flex->cluster, {0, 1}, 1.0, 4.0);

  std::printf("\npure MPI_Sendrecv per step (streaming phase minus compute):\n");
  std::printf("  CFD-only:  %.4f s/step\n", sendrecv_solo);
  std::printf("  Flexpath:  %.4f s/step  (%.2fx longer; paper: 'takes much "
              "longer, which results in increased end-to-end time')\n",
              sendrecv_flex, sendrecv_flex / std::max(1e-9, sendrecv_solo));
  std::printf("\nsteps completed in the 3 s window: CFD-only %.1f, Flexpath %.1f\n",
              3.0 / (solo->get("end_to_end_s") / profile.steps),
              3.0 / (flex->get("end_to_end_s") / profile.steps));
  std::printf("end-to-end: CFD-only %.1f s, Flexpath workflow %.1f s\n",
              solo->get("end_to_end_s"), flex->get("end_to_end_s"));
}

std::vector<ScenarioSpec> fig06_scenarios(bool full) {
  auto solo = cfd_trace_base(full);
  solo.label = "fig06/sim-only";
  auto decaf = cfd_trace_base(full);
  decaf.method = Method::kDecaf;
  decaf.label = "fig06/decaf";
  return {solo, decaf};
}

void fig06_present(const FigureContext& ctx) {
  const auto& spec = ctx.specs.front();
  const auto profile = make_profile(spec);

  title("Figure 6: CFD-only vs Decaf-based workflow traces",
        "Paper: Decaf's PUT uses a collective MPI_Waitall during which all "
        "simulation processes stall; MPI_Sendrecv also grows.");

  const auto* solo = ctx.find("fig06/sim-only");
  const auto* decaf = ctx.find("fig06/decaf");

  std::printf("\nCFD-only trace (0.9 s window):\n");
  print_gantt_window(*solo->cluster, {0, 1}, 1.0, 1.9);
  std::printf("\nDecaf workflow trace (same window):\n");
  print_gantt_window(*decaf->cluster, {0, 1}, 1.0, 1.9);
  print_phase_summary(*decaf->cluster, spec.producers, profile.steps);

  const double step_solo = solo->get("end_to_end_s") / profile.steps;
  const double step_decaf = decaf->get("end_to_end_s") / profile.steps;
  std::printf("\nsteps per 0.9 s: CFD-only %.1f (paper: 3), Decaf %.1f\n",
              0.9 / step_solo, 0.9 / step_decaf);
  std::printf("MPI_Waitall stall per step per producer: %.3f s (paper: 'all "
              "simulation processes stall' during PUT)\n",
              decaf->get("waitall_s") / profile.steps / spec.producers);
  std::printf("streaming per step: CFD-only %.4f s, Decaf %.4f s (%.2fx)\n",
              solo->get("halo_s") / profile.steps,
              decaf->get("halo_s") / profile.steps,
              decaf->get("halo_s") / std::max(1e-12, solo->get("halo_s")));
}

// ------------------------------------------------------------------ fig11 ----

std::vector<ScenarioSpec> fig11_scenarios(bool /*full*/) {
  ScenarioSpec s;
  s.label = "fig11/pipeline";
  s.kind = ScenarioKind::kPipelineSchedule;
  s.schedule_blocks = 7;
  s.schedule_stage_s = {1.0, 1.0, 1.0, 1.0};
  return {s};
}

void fig11_render(const char* name, const std::vector<model::StageSpan>& sched,
                  double scale) {
  std::printf("\n%s (makespan %.1f):\n", name, model::makespan(sched));
  for (int stage = 0; stage < 4; ++stage) {
    std::string row(static_cast<std::size_t>(model::makespan(sched) * scale) + 1,
                    '.');
    for (const auto& s : sched) {
      if (s.stage != stage) continue;
      for (int c = static_cast<int>(s.t0 * scale);
           c < static_cast<int>(s.t1 * scale); ++c) {
        row[static_cast<std::size_t>(c)] = static_cast<char>('1' + s.block);
      }
    }
    std::printf("  %-8s |%s|\n", model::kStageNames[stage], row.c_str());
  }
}

void fig11_present(const FigureContext& ctx) {
  title("Figure 11: non-integrated vs integrated (pipelined) design",
        "7 data blocks through Compute -> Output -> Input -> Analysis; "
        "digits mark which block occupies each stage.");

  const auto& spec = ctx.specs.front();
  const auto non = model::schedule_non_integrated(spec.schedule_blocks,
                                                  spec.schedule_stage_s.data());
  const auto integ = model::schedule_integrated(spec.schedule_blocks,
                                                spec.schedule_stage_s.data());
  fig11_render("Non-integrated design (upper diagram)", non, 1.0);
  fig11_render("Integrated design (lower diagram)", integ, 1.0);

  std::printf("\nintegrated/non-integrated makespan: %.2fx faster "
              "(asymptotically #stages = 4x)\n",
              ctx.results.front().get("speedup"));
  std::printf("At any instant of the integrated steady state, 4 stages work on "
              "4 distinct (sequentially dependent) blocks.\n");
}

// ------------------------------------------------------------- fig12/fig13 --

std::vector<ScenarioSpec> synthetic_breakdown_scenarios(const char* prefix,
                                                        bool preserve,
                                                        bool full) {
  const int steps = full ? 100 : 20;
  const int P = full ? 1568 : 392;
  std::vector<ScenarioSpec> out;
  for (std::uint64_t mb : {1ull, 8ull}) {
    for (int ci = 0; ci < 3; ++ci) {
      ScenarioSpec s;
      s.cluster = "bridges";
      s.workload = synthetic_workload(ci);
      s.steps = steps;
      s.producers = P;
      s.consumers = P / 2;
      s.method = Method::kZipper;
      s.synthetic_block_bytes = mb * common::MiB;
      s.zipper.block_bytes = mb * common::MiB;
      s.zipper.producer_buffer_blocks = static_cast<int>(64 / mb);
      s.zipper.preserve = preserve;
      s.pfs_osts_base = 24;
      s.pfs_osts_ref_producers = 1568;
      s.with_model = true;
      s.label = std::string(prefix) + "/" + std::to_string(mb) + "MB-" +
                synthetic_token(ci);
      out.push_back(s);
    }
  }
  return out;
}

std::vector<ScenarioSpec> fig12_scenarios(bool full) {
  return synthetic_breakdown_scenarios("fig12", /*preserve=*/false, full);
}

void fig12_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  const int steps = base.steps;
  const double scale = 100.0 / steps;
  const int P = base.producers, Q = base.consumers;

  title("Figure 12: synthetic-application time breakdown, No-Preserve mode",
        "Paper setup: Bridges, 1568 sim + 784 analysis cores, 2 GiB per "
        "producer rank (3,136 GB total), standard-variance analysis.");
  std::printf("This run: %d+%d ranks, %d steps (reported scaled to 100 steps)%s\n\n",
              P, Q, steps, ctx.full ? "" : "  [--full for paper size]");
  std::printf("Table 3 (applications): O(n) linear | O(nlgn) divide&conquer | "
              "O(n^3/2) matrix-like; analysis = standard variance.\n\n");

  struct PaperRow { double sim, xfer, ana, e2e; };
  const std::map<std::pair<int, int>, PaperRow> paper = {
      {{1, 0}, {2.1, 38.2, 23.6, 40.7}},  {{1, 1}, {22.2, 38.2, 23.2, 41.6}},
      {{1, 2}, {64.0, 14.9, 28.9, 69.8}}, {{8, 0}, {1.8, 37.9, 22.2, 38.8}},
      {{8, 1}, {34.6, 37.9, 30.5, 38.7}}, {{8, 2}, {99.1, 3.1, 20.5, 99.1}},
  };

  std::printf("%-22s %10s %10s %10s %12s   %s\n", "config", "sim(s)", "xfer(s)",
              "analysis(s)", "end2end(s)", "paper e2e / max-stage check");
  for (std::uint64_t mb : {1ull, 8ull}) {
    for (int ci = 0; ci < 3; ++ci) {
      const std::string label = "fig12/" + std::to_string(mb) + "MB-" +
                                synthetic_token(ci);
      const auto* r = ctx.find(label);
      const ScenarioSpec* spec = nullptr;
      for (const auto& s : ctx.specs) {
        if (s.label == label) spec = &s;
      }
      const auto profile = make_profile(*spec);
      const double sim_s =
          steps * sim::to_seconds(profile.compute_per_step()) * scale;
      const double xfer_s = r->get("sender_busy_s") / P * scale;
      const double ana_s = r->get("analysis_busy_s") / Q * scale;
      const double e2e = r->get("end_to_end_s") * scale;
      const auto& pr = paper.at({static_cast<int>(mb), ci});
      const double max_stage = std::max({sim_s, xfer_s, ana_s});

      char label_buf[64];
      std::snprintf(label_buf, sizeof label_buf, "%lluMB %s",
                    static_cast<unsigned long long>(mb),
                    std::string(apps::complexity_name(synthetic_complexity(ci)))
                        .c_str());
      std::printf("%-22s %10.1f %10.1f %10.1f %12.1f   paper %.1f | e2e/max = %.2f\n",
                  label_buf, sim_s, xfer_s, ana_s, e2e, pr.e2e, e2e / max_stage);
    }
  }
  std::printf("\nModel check: every e2e/max-stage ratio should be ~1 (paper: "
              "'end-to-end time is always close to the maximum stage time').\n");
}

std::vector<ScenarioSpec> fig13_scenarios(bool full) {
  return synthetic_breakdown_scenarios("fig13", /*preserve=*/true, full);
}

void fig13_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  const int steps = base.steps;
  const double scale = 100.0 / steps;
  const int P = base.producers, Q = base.consumers;

  title("Figure 13: synthetic-application time breakdown, Preserve mode",
        "Paper: storing all computed results dominates: store ~131-140 s "
        "= 3,136 GB / ~24 GB/s Lustre write bandwidth; e2e 139-145 s.");
  std::printf("This run: %d+%d ranks, %d steps (reported scaled to 100 steps)%s\n\n",
              P, Q, steps, ctx.full ? "" : "  [--full for paper size]");

  const double paper_e2e[2][3] = {{139.0, 140.4, 141.8}, {144.8, 144.1, 139.6}};

  std::printf("%-22s %10s %10s %10s %10s %12s   %s\n", "config", "sim(s)",
              "xfer(s)", "store(s)", "analysis(s)", "end2end(s)", "paper e2e");
  int mi = 0;
  for (std::uint64_t mb : {1ull, 8ull}) {
    for (int ci = 0; ci < 3; ++ci) {
      const std::string label = "fig13/" + std::to_string(mb) + "MB-" +
                                synthetic_token(ci);
      const auto* r = ctx.find(label);
      const ScenarioSpec* spec = nullptr;
      for (const auto& s : ctx.specs) {
        if (s.label == label) spec = &s;
      }
      const auto profile = make_profile(*spec);
      const double sim_s =
          steps * sim::to_seconds(profile.compute_per_step()) * scale;
      const double xfer_s = r->get("sender_busy_s") / P * scale;
      const double store_s = r->get("store_busy_s") / Q * scale;
      const double ana_s = r->get("analysis_busy_s") / Q * scale;

      char label_buf[64];
      std::snprintf(label_buf, sizeof label_buf, "%lluMB %s",
                    static_cast<unsigned long long>(mb),
                    std::string(apps::complexity_name(synthetic_complexity(ci)))
                        .c_str());
      std::printf("%-22s %10.1f %10.1f %10.1f %10.1f %12.1f   %.1f\n", label_buf,
                  sim_s, xfer_s, store_s, ana_s, r->get("end_to_end_s") * scale,
                  paper_e2e[mi][ci]);
    }
    ++mi;
  }
  std::printf("\nModel check: e2e tracks the store stage (total bytes / PFS "
              "bandwidth), nearly flat across apps and block sizes.\n");
}

// ------------------------------------------------------------- fig14/fig15 --

const std::vector<int>& concurrent_core_counts(bool full) {
  static const std::vector<int> kFull{84, 168, 336, 588, 1176, 2352};
  static const std::vector<int> kQuick{84, 168, 336, 588};
  return full ? kFull : kQuick;
}

std::vector<ScenarioSpec> concurrent_scenarios(const char* prefix, bool full) {
  const int steps = full ? 100 : 20;
  std::vector<ScenarioSpec> out;
  for (int ci = 0; ci < 3; ++ci) {
    for (int cores : concurrent_core_counts(full)) {
      for (bool concurrent : {false, true}) {
        ScenarioSpec s;
        s.cluster = "bridges";
        s.workload = synthetic_workload(ci);
        s.steps = steps;
        s.producers = cores * 2 / 3;
        s.consumers = cores / 3;
        s.method = Method::kZipper;
        s.synthetic_block_bytes = common::MiB;
        s.zipper.block_bytes = common::MiB;
        s.zipper.producer_buffer_blocks = 32;
        s.zipper.enable_steal = concurrent;
        s.pfs_osts_base = 24;
        s.pfs_osts_ref_producers = 1568;
        s.label = std::string(prefix) + "/" + synthetic_token(ci) + "/c" +
                  std::to_string(cores) + (concurrent ? "/cc" : "/mp");
        out.push_back(s);
      }
    }
  }
  return out;
}

std::vector<ScenarioSpec> fig14_scenarios(bool full) {
  return concurrent_scenarios("fig14", full);
}

double concurrent_sim_s(const FigureContext& ctx, const std::string& label) {
  for (const auto& s : ctx.specs) {
    if (s.label == label) {
      return s.steps * sim::to_seconds(make_profile(s).compute_per_step());
    }
  }
  return 0;
}

void fig14_present(const FigureContext& ctx) {
  const int steps = ctx.specs.front().steps;
  title("Figure 14: concurrent message+file transfer optimization",
        "Weak scaling, 3 synthetic apps; columns = message-passing-only vs "
        "concurrent (work-stealing writer thread).");
  if (!ctx.full)
    std::printf("[quick mode: 84..588 cores, %d steps; --full for 84..2352, 100 steps]\n",
                steps);

  for (int ci = 0; ci < 3; ++ci) {
    std::printf("\n(%c) %s application\n", 'a' + ci,
                std::string(apps::complexity_name(synthetic_complexity(ci)))
                    .c_str());
    std::printf("%7s | %28s | %28s | %8s %8s\n", "cores",
                "message-passing only", "concurrent opt.", "reduct.", "stolen");
    std::printf("%7s | %8s %8s %9s | %8s %8s %9s |\n", "", "sim", "stall",
                "transfer", "sim", "stall", "transfer");
    for (int cores : concurrent_core_counts(ctx.full)) {
      const std::string stem = std::string("fig14/") + synthetic_token(ci) +
                               "/c" + std::to_string(cores);
      const auto* mp = ctx.find(stem + "/mp");
      const auto* cc = ctx.find(stem + "/cc");
      const int P = cores * 2 / 3;
      const double sim_s = concurrent_sim_s(ctx, stem + "/mp");
      const double mp_wall = mp->get("producers_done_s");
      const double cc_wall = cc->get("producers_done_s");
      const double reduction = (mp_wall - cc_wall) / mp_wall * 100.0;
      std::printf("%7d | %8.1f %8.1f %9.1f | %8.1f %8.1f %9.1f | %6.1f%% %6.1f%%\n",
                  cores, sim_s, mp->get("stall_s") / P,
                  mp->get("sender_busy_s") / P, sim_s, cc->get("stall_s") / P,
                  cc->get("sender_busy_s") / P, reduction,
                  cc->get("steal_fraction") * 100.0);
    }
  }
  std::printf(
      "\npaper: (a) wallclock cut 16.1-32.4%%, 47-62%% of blocks stolen; "
      "(b) gains only from 336 cores; (c) no stealing, identical columns.\n");
}

std::vector<ScenarioSpec> fig15_scenarios(bool full) {
  return concurrent_scenarios("fig15", full);
}

void fig15_present(const FigureContext& ctx) {
  const int steps = ctx.specs.front().steps;
  title("Figure 15: XmitWait congestion counters (message-only vs concurrent)",
        "Counter semantics: FLIT-times with data ready but unable to "
        "transmit, charged to the source host (credit backpressure).");
  if (!ctx.full)
    std::printf("[quick mode: 84..588 cores, %d steps; --full for 84..2352, 100 steps]\n",
                steps);

  for (int ci = 0; ci < 3; ++ci) {
    std::printf("\n(%c) %s application\n", 'a' + ci,
                std::string(apps::complexity_name(synthetic_complexity(ci)))
                    .c_str());
    std::printf("%7s %18s %18s %10s\n", "cores", "message-passing", "concurrent",
                "mp/cc");
    for (int cores : concurrent_core_counts(ctx.full)) {
      const std::string stem = std::string("fig15/") + synthetic_token(ci) +
                               "/c" + std::to_string(cores);
      const auto* mp = ctx.find(stem + "/mp");
      const auto* cc = ctx.find(stem + "/cc");
      std::printf("%7d %18.3e %18.3e %10.2f\n", cores, mp->get("xmit_wait"),
                  cc->get("xmit_wait"),
                  mp->get("xmit_wait") / std::max(1.0, cc->get("xmit_wait")));
    }
  }
  std::printf("\npaper: O(n) message-only exceeds concurrent by 13-80%%; "
              "O(n^{3/2}) sits ~3 orders of magnitude lower and is unaffected "
              "by the optimization.\n");
}

// ------------------------------------------------------------- fig16/fig18 --

const std::vector<int>& scaling_core_counts(bool full) {
  static const std::vector<int> kFull{204, 408, 816, 1632, 3264, 6528, 13056};
  static const std::vector<int> kQuick{204, 408, 816, 1632, 3264};
  return full ? kFull : kQuick;
}

struct ScalingSeries {
  const char* display;
  const char* token;
  std::optional<Method> method;
};

const std::vector<ScalingSeries>& scaling_series() {
  static const std::vector<ScalingSeries> kSeries{
      {"MPI-IO", "mpiio", Method::kMpiIo},
      {"Flexpath", "flexpath", Method::kFlexpath},
      {"Decaf", "decaf", Method::kDecaf},
      {"Zipper", "zipper", Method::kZipper},
      {"Simulation-only", "sim-only", std::nullopt},
  };
  return kSeries;
}

std::vector<ScenarioSpec> scaling_scenarios(const char* prefix, Workload w,
                                            std::uint64_t block_bytes,
                                            bool decaf_overflow, int steps,
                                            bool full) {
  std::vector<ScenarioSpec> out;
  for (const auto& series : scaling_series()) {
    for (int cores : scaling_core_counts(full)) {
      ScenarioSpec s;
      s.cluster = "stampede2";
      s.workload = w;
      s.steps = steps;
      s.producers = cores * 2 / 3;
      s.consumers = cores / 3;
      s.method = series.method;
      s.params.decaf_emulate_count_overflow = decaf_overflow;
      s.params.socket_stack_bandwidth = 120e6;  // KNL single-thread sockets
      s.zipper.block_bytes = block_bytes;
      // Weak-scaled Lustre slice (Stampede2's 32 OSTs serve 8704 producers
      // at the paper's largest run).
      s.pfs_osts_base = 32;
      s.pfs_osts_ref_producers = 8704;
      s.label = std::string(prefix) + "/" + series.token + "/c" +
                std::to_string(cores);
      out.push_back(s);
    }
  }
  return out;
}

void print_scaling_table(const FigureContext& ctx, const char* prefix) {
  const auto& cores = scaling_core_counts(ctx.full);
  std::printf("%8s", "cores");
  for (const auto& series : scaling_series())
    std::printf(" %16s", series.display);
  std::printf("\n");
  for (int c : cores) {
    std::printf("%8d", c);
    for (const auto& series : scaling_series()) {
      const auto* r = ctx.find(std::string(prefix) + "/" + series.token + "/c" +
                               std::to_string(c));
      if (!r || r->crashed) {
        std::printf(" %16s", "CRASH(int32)");
      } else {
        std::printf(" %16.1f", r->get("end_to_end_s"));
      }
    }
    std::printf("\n");
  }
}

double scaling_e2e(const FigureContext& ctx, const char* prefix,
                   const char* token, int cores) {
  const auto* r = ctx.find(std::string(prefix) + "/" + token + "/c" +
                           std::to_string(cores));
  return r && !r->crashed ? r->get("end_to_end_s") : 0;
}

bool scaling_crashed(const FigureContext& ctx, const char* prefix,
                     const char* token, int cores) {
  const auto* r = ctx.find(std::string(prefix) + "/" + token + "/c" +
                           std::to_string(cores));
  return !r || r->crashed;
}

std::vector<ScenarioSpec> fig16_scenarios(bool full) {
  return scaling_scenarios("fig16", Workload::kCfdStampede2, common::MiB,
                           /*decaf_overflow=*/true, full ? 20 : 6, full);
}

void fig16_present(const FigureContext& ctx) {
  const int steps = ctx.specs.front().steps;
  title("Figure 16: CFD workflow weak scaling on Stampede2 (KNL)",
        "2/3 simulation + 1/3 analysis cores; 64x64x256 subgrid "
        "(16 MiB/step/rank); Zipper blocks = 1 MiB.");
  std::printf("steps per run: %d%s\n\n", steps,
              ctx.full ? "" : "  [--full runs 20 steps and up to 13,056 cores]");

  print_scaling_table(ctx, "fig16");

  const auto& cores = scaling_core_counts(ctx.full);
  const int last = cores.back();
  std::printf("\nZipper / simulation-only at %d cores: %.2fx (paper: ~1.0x)\n",
              last, scaling_e2e(ctx, "fig16", "zipper", last) /
                        scaling_e2e(ctx, "fig16", "sim-only", last));
  for (std::size_t i = cores.size(); i-- > 0;) {
    if (!scaling_crashed(ctx, "fig16", "decaf", cores[i])) {
      std::printf("Decaf / Zipper at %d cores: %.2fx (paper: 1.4x at 204 -> "
                  "1.7x at scale; crashes at >= 6,528 cores)\n",
                  cores[i], scaling_e2e(ctx, "fig16", "decaf", cores[i]) /
                                scaling_e2e(ctx, "fig16", "zipper", cores[i]));
      break;
    }
  }
  std::printf("Flexpath / Zipper at %d cores: %.2fx (paper: up to 11.5x)\n",
              last, scaling_e2e(ctx, "fig16", "flexpath", last) /
                        scaling_e2e(ctx, "fig16", "zipper", last));
}

std::vector<ScenarioSpec> fig18_scenarios(bool full) {
  return scaling_scenarios("fig18", Workload::kLammpsStampede2,
                           static_cast<std::uint64_t>(1.2 * common::MiB),
                           /*decaf_overflow=*/false, full ? 20 : 5, full);
}

void fig18_present(const FigureContext& ctx) {
  const int steps = ctx.specs.front().steps;
  title("Figure 18: LAMMPS workflow weak scaling on Stampede2 (KNL)",
        "2/3 simulation + 1/3 analysis; ~20 MB/step/rank of atom positions; "
        "Zipper splits each step into 1.2 MB blocks, Decaf ships 20 MB slabs.");
  std::printf("steps per run: %d%s\n\n", steps,
              ctx.full ? "" : "  [--full runs 20 steps and up to 13,056 cores]");

  print_scaling_table(ctx, "fig18");

  const auto& cores = scaling_core_counts(ctx.full);
  const int last = cores.back();
  std::printf("\nZipper / simulation-only at %d cores: %.2fx (paper ~1.0x)\n",
              last, scaling_e2e(ctx, "fig18", "zipper", last) /
                        scaling_e2e(ctx, "fig18", "sim-only", last));
  std::printf("Decaf / Zipper at %d cores: %.2fx (paper: 2.2x at 13,056)\n",
              last, scaling_e2e(ctx, "fig18", "decaf", last) /
                        scaling_e2e(ctx, "fig18", "zipper", last));
  std::printf("Flexpath / Zipper at %d cores: %.2fx (paper: 7.1x)\n",
              last, scaling_e2e(ctx, "fig18", "flexpath", last) /
                        scaling_e2e(ctx, "fig18", "zipper", last));
  for (std::size_t i = 0; i + 1 < cores.size(); ++i) {
    if (cores[i] >= 1632 && !scaling_crashed(ctx, "fig18", "decaf", cores[i]) &&
        !scaling_crashed(ctx, "fig18", "decaf", cores[i + 1])) {
      std::printf("Decaf growth %d -> %d cores: +%.0f%% (paper: +128%% / "
                  "+177%% beyond 1,632)\n",
                  cores[i], cores[i + 1],
                  (scaling_e2e(ctx, "fig18", "decaf", cores[i + 1]) /
                       scaling_e2e(ctx, "fig18", "decaf", cores[i]) -
                   1) *
                      100);
    }
  }
}

// ------------------------------------------------------------- fig17/fig19 --

std::vector<ScenarioSpec> fig17_scenarios(bool full) {
  const int cores = 204;
  std::vector<ScenarioSpec> out;
  for (const char* token : {"zipper", "decaf"}) {
    ScenarioSpec s;
    s.cluster = "stampede2";
    s.workload = Workload::kCfdStampede2;
    s.steps = full ? 20 : 8;
    s.producers = cores * 2 / 3;
    s.consumers = cores / 3;
    s.method = token[0] == 'z' ? Method::kZipper : Method::kDecaf;
    s.zipper.block_bytes = common::MiB;
    s.record_traces = true;
    s.label = std::string("fig17/") + token;
    out.push_back(s);
  }
  return out;
}

void fig17_present(const FigureContext& ctx) {
  const int steps = ctx.specs.front().steps;
  const int cores = 204;
  title("Figure 17: Zipper vs Decaf trace, CFD workflow at 204 cores",
        "Snapshot from the Fig 16 experiment; paper: Zipper fits 3 steps "
        "where Decaf fits 2 plus stalls (1.4x).");

  const auto* zipper = ctx.find("fig17/zipper");
  const auto* decaf = ctx.find("fig17/decaf");

  const double w0 = 2.0, w1 = 2.0 + 4 * 1.3;  // 4 paper-windows wide
  std::printf("\nZipper trace:\n");
  print_gantt_window(*zipper->cluster, {0, 1}, w0, w1);
  std::printf("\nDecaf trace:\n");
  print_gantt_window(*decaf->cluster, {0, 1}, w0, w1);

  const double zipper_step = zipper->get("end_to_end_s") / steps;
  const double decaf_step = decaf->get("end_to_end_s") / steps;
  std::printf("\nsteps per 1.3 s: Zipper %.2f, Decaf %.2f (paper: 3 vs 2)\n",
              1.3 / zipper_step, 1.3 / decaf_step);
  std::printf("Decaf / Zipper end-to-end: %.2fx (paper: ~1.4x at 204 cores)\n",
              decaf->get("end_to_end_s") / zipper->get("end_to_end_s"));
  std::printf("Decaf MPI_Waitall per step per producer: %.3f s\n",
              decaf->get("waitall_s") / steps / (cores * 2 / 3));
}

std::vector<ScenarioSpec> fig19_scenarios(bool full) {
  const int cores = full ? 3264 : 816;
  std::vector<ScenarioSpec> out;
  for (const char* token : {"zipper", "decaf"}) {
    ScenarioSpec s;
    s.cluster = "stampede2";
    s.workload = Workload::kLammpsStampede2;
    s.steps = full ? 10 : 5;
    s.producers = cores * 2 / 3;
    s.consumers = cores / 3;
    s.method = token[0] == 'z' ? Method::kZipper : Method::kDecaf;
    s.zipper.block_bytes = static_cast<std::uint64_t>(1.2 * common::MiB);
    s.record_traces = true;
    s.label = std::string("fig19/") + token;
    out.push_back(s);
  }
  return out;
}

void fig19_present(const FigureContext& ctx) {
  const int steps = ctx.specs.front().steps;
  const int cores = ctx.specs.front().producers * 3 / 2;
  title("Figure 19: Zipper vs Decaf trace, LAMMPS workflow",
        "Paper snapshot: 9.1 s at 13,056 cores; Zipper ~4.4 steps vs Decaf "
        "~2 steps with per-step stalls.");
  std::printf("this run: %d cores, %d steps\n", cores, steps);

  const auto* zipper = ctx.find("fig19/zipper");
  const auto* decaf = ctx.find("fig19/decaf");

  std::printf("\nZipper trace (9.1 s window):\n");
  print_gantt_window(*zipper->cluster, {0, 1}, 1.0, 10.1);
  std::printf("\nDecaf trace (same window):\n");
  print_gantt_window(*decaf->cluster, {0, 1}, 1.0, 10.1);

  const double zipper_step = zipper->get("end_to_end_s") / steps;
  const double decaf_step = decaf->get("end_to_end_s") / steps;
  std::printf("\nsteps per 9.1 s: Zipper %.1f, Decaf %.1f (paper: 4.4 vs 2)\n",
              9.1 / zipper_step, 9.1 / decaf_step);
  std::printf("Decaf / Zipper end-to-end: %.2fx (paper: 2.2x at 13,056 cores)\n",
              decaf->get("end_to_end_s") / zipper->get("end_to_end_s"));
}

// ------------------------------------------------------------- ablations ----

std::vector<ScenarioSpec> ablation_block_size_scenarios(bool full) {
  const int steps = full ? 20 : 8;
  const int cores = full ? 816 : 204;
  ScenarioSpec base;
  base.cluster = "stampede2";
  base.workload = Workload::kCfdStampede2;
  base.steps = steps;
  base.producers = cores * 2 / 3;
  base.consumers = cores / 3;
  base.record_traces = true;  // halo_s comes from the trace recorder

  std::vector<ScenarioSpec> out;
  {
    auto s = base;
    s.label = "ablation-block-size/sim-only";
    out.push_back(s);
  }
  for (std::uint64_t kib : {256ull, 512ull, 1024ull, 2048ull, 4096ull, 8192ull,
                            16384ull}) {
    auto s = base;
    s.method = Method::kZipper;
    s.zipper.block_bytes = kib * common::KiB;
    s.zipper.producer_buffer_blocks =
        std::max(4, static_cast<int>(32768 / kib));
    s.label = "ablation-block-size/b" + std::to_string(kib) + "k";
    out.push_back(s);
  }
  return out;
}

void ablation_block_size_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  const auto profile = make_profile(base);
  title("Ablation: Zipper block size (fine-grain pipelining vs bursts)",
        "CFD workload; smaller blocks pipeline across hops and smooth the "
        "injection; 16 MiB = one block per step (Decaf-like bursts).");

  const double halo_solo = ctx.find("ablation-block-size/sim-only")->get("halo_s");

  std::printf("\n%10s %12s %12s %12s %14s\n", "block", "end2end(s)", "stall(s)",
              "halo infl.", "blocks/step");
  for (std::uint64_t kib : {256ull, 512ull, 1024ull, 2048ull, 4096ull, 8192ull,
                            16384ull}) {
    const auto* r = ctx.find("ablation-block-size/b" + std::to_string(kib) + "k");
    const std::uint64_t block_bytes = kib * common::KiB;
    std::printf("%8lluKB %12.1f %12.2f %11.2fx %14d\n",
                static_cast<unsigned long long>(kib), r->get("end_to_end_s"),
                r->get("stall_s") / base.producers, r->get("halo_s") / halo_solo,
                static_cast<int>((profile.bytes_per_rank_per_step + block_bytes -
                                  1) /
                                 block_bytes));
  }
  std::printf("\nExpected shape: fine blocks keep halo inflation near 1x and "
              "end-to-end near the simulation bound; whole-step blocks "
              "behave like Decaf's bursts.\n");
}

std::vector<ScenarioSpec> ablation_servers_scenarios(bool full) {
  const int steps = full ? 25 : 10;
  const int P = full ? 256 : 64;
  ScenarioSpec base;
  base.cluster = "bridges";
  base.workload = Workload::kCfdBridges;
  base.steps = steps;
  base.producers = P;
  base.consumers = P / 2;

  std::vector<ScenarioSpec> out;
  for (int servers : {P / 32, P / 16, P / 8, P / 4, P / 2}) {
    if (servers < 1) continue;
    auto s = base;
    s.method = Method::kNativeDataSpaces;
    s.servers = servers;
    s.label = "ablation-servers/dataspaces-s" + std::to_string(servers);
    out.push_back(s);
  }
  for (Method m : {Method::kNativeDimes, Method::kZipper}) {
    auto s = base;
    s.method = m;
    s.label = "ablation-servers/" + transports::method_token(m);
    out.push_back(s);
  }
  return out;
}

void ablation_servers_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  const int P = base.producers;
  title("Ablation: dedicated staging servers vs serverless coupling",
        "CFD workload on Bridges; DataSpaces with varying server counts vs "
        "DIMES (serverless puts) vs Zipper (no staging at all).");

  std::printf("\nDataSpaces, server-count sweep:\n");
  std::printf("%10s %12s %14s\n", "servers", "end2end(s)", "lock+query(s)");
  for (int servers : {P / 32, P / 16, P / 8, P / 4, P / 2}) {
    if (servers < 1) continue;
    const auto* r =
        ctx.find("ablation-servers/dataspaces-s" + std::to_string(servers));
    std::printf("%10d %12.1f %14.2f\n", servers, r->get("end_to_end_s"),
                r->get("lock_wait_s") / P);
  }

  std::printf("\nServerless alternatives on the same workload:\n");
  std::printf("%24s %12s\n", "method", "end2end(s)");
  for (Method m : {Method::kNativeDimes, Method::kZipper}) {
    const auto* r = ctx.find("ablation-servers/" + transports::method_token(m));
    std::printf("%24s %12.1f\n", transports::method_name(m).c_str(),
                r->get("end_to_end_s"));
  }
  std::printf("\nExpected shape: DataSpaces improves with more servers but "
              "never reaches the serverless designs; Zipper needs no staging "
              "ranks at all (they are free cores for the applications).\n");
}

std::vector<ScenarioSpec> ablation_steal_scenarios(bool full) {
  const int steps = full ? 50 : 15;
  const int cores = full ? 588 : 168;
  ScenarioSpec base;
  base.cluster = "bridges";
  base.workload = Workload::kSyntheticLinear;
  base.steps = steps;
  base.producers = cores * 2 / 3;
  base.consumers = cores / 3;
  base.method = Method::kZipper;
  base.synthetic_block_bytes = common::MiB;
  base.zipper.block_bytes = common::MiB;
  base.zipper.producer_buffer_blocks = 32;

  std::vector<ScenarioSpec> out;
  for (double hw : {0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0}) {
    auto s = base;
    // The high-water sweep uses the weak-scaled PFS slice (as fig 14 does).
    s.pfs_osts_base = 24;
    s.pfs_osts_ref_producers = 1568;
    s.zipper.high_water = hw;
    char buf[48];
    std::snprintf(buf, sizeof buf, "ablation-steal-threshold/hw%.3g", hw);
    s.label = buf;
    out.push_back(s);
  }
  for (int cap : {4, 8, 16, 32, 64, 128}) {
    auto s = base;
    s.zipper.producer_buffer_blocks = cap;
    s.label = "ablation-steal-threshold/cap" + std::to_string(cap);
    out.push_back(s);
  }
  return out;
}

void ablation_steal_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  const int P = base.producers;
  title("Ablation: work-stealing high-water mark and buffer capacity",
        "O(n) synthetic producer (transfer-bound): the regime where the "
        "concurrent channel matters most (fig 14a).");

  std::printf("\n%12s %12s %12s %12s %14s\n", "high-water", "wallclock(s)",
              "stall(s)", "stolen", "bytes via PFS");
  for (double hw : {0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0}) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "ablation-steal-threshold/hw%.3g", hw);
    const auto* r = ctx.find(buf);
    std::printf("%12.3f %12.1f %12.2f %11.1f%% %11.2f GiB\n", hw,
                r->get("producers_done_s"), r->get("stall_s") / P,
                r->get("steal_fraction") * 100.0,
                r->get("bytes_via_pfs") / common::GiB);
  }

  std::printf("\n%12s %12s %12s\n", "capacity", "wallclock(s)", "stall(s)");
  for (int cap : {4, 8, 16, 32, 64, 128}) {
    const auto* r =
        ctx.find("ablation-steal-threshold/cap" + std::to_string(cap));
    std::printf("%12d %12.1f %12.2f\n", cap, r->get("producers_done_s"),
                r->get("stall_s") / P);
  }
  std::printf("\nExpected shape: wallclock is flat-to-improving as the "
              "threshold drops until PFS contention bites; tiny buffers "
              "stall the producer regardless of stealing.\n");
}

// ------------------------------------------------------- ablation_sched ----

struct SchedVariant {
  const char* token;
  const char* what;
  core::sched::RouteKind route;
  core::sched::SpillKind spill;
  bool enable_spill;
  bool consumer_steal;
  bool adaptive_block;
};

const std::vector<SchedVariant>& sched_variants() {
  using core::sched::RouteKind;
  using core::sched::SpillKind;
  static const std::vector<SchedVariant> kVariants{
      {"static", "paper schedule (contiguous map, no spill)",
       RouteKind::kStatic, SpillKind::kHighWater, false, false, false},
      {"rr", "round-robin routing", RouteKind::kRoundRobin,
       SpillKind::kHighWater, false, false, false},
      {"lq", "least-queued routing", RouteKind::kLeastQueued,
       SpillKind::kHighWater, false, false, false},
      {"csteal", "consumer-side work stealing", RouteKind::kStatic,
       SpillKind::kHighWater, false, true, false},
      {"lq-csteal", "least-queued + consumer stealing",
       RouteKind::kLeastQueued, SpillKind::kHighWater, false, true, false},
      {"spill-hw", "Algorithm-1 high-water spill", RouteKind::kStatic,
       SpillKind::kHighWater, true, false, false},
      {"spill-hyst", "hysteresis spill", RouteKind::kStatic,
       SpillKind::kHysteresis, true, false, false},
      {"spill-adapt", "stall-adaptive spill", RouteKind::kStatic,
       SpillKind::kAdaptive, true, false, false},
      {"ablk", "stall-adaptive block size", RouteKind::kStatic,
       SpillKind::kHighWater, false, false, true},
  };
  return kVariants;
}

std::vector<ScenarioSpec> ablation_sched_scenarios(bool full) {
  // Deliberately imbalanced CFD workflow: P/Q chosen so the static
  // contiguous map gives half the consumers two producers and half only one
  // (the worst the contiguous split can do). Analysis of two producers'
  // output outruns a step's compute, so the doubly-loaded consumers fall
  // behind, credit backpressure reaches their producers, and the static
  // schedule stalls — the regime every non-default policy targets. Small
  // consumer buffers keep the feedback loop tight at quick-mode scale.
  ScenarioSpec base;
  base.cluster = "bridges";
  base.workload = Workload::kCfdBridges;
  base.steps = full ? 25 : 10;
  base.producers = full ? 24 : 6;
  base.consumers = full ? 16 : 4;
  base.method = Method::kZipper;
  base.zipper.block_bytes = common::MiB;
  base.zipper.producer_buffer_blocks = 8;
  base.zipper.consumer_buffer_blocks = 8;
  base.zipper.enable_steal = false;  // isolate scheduling from the PFS channel

  std::vector<ScenarioSpec> out;
  for (const auto& var : sched_variants()) {
    auto s = base;
    s.zipper.sched.route = var.route;
    s.zipper.sched.spill = var.spill;
    s.zipper.enable_steal = var.enable_spill;
    s.zipper.sched.consumer_steal = var.consumer_steal;
    s.zipper.sched.block_size = var.adaptive_block
                                    ? core::sched::BlockSizeKind::kAdaptive
                                    : core::sched::BlockSizeKind::kFixed;
    s.label = std::string("ablation_sched/") + var.token;
    out.push_back(s);
  }
  return out;
}

void ablation_sched_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  const int P = base.producers;
  title("Ablation: pluggable schedules on an imbalanced CFD workflow",
        "Static contiguous routing gives half the consumers 2x the load; "
        "each variant swaps exactly one scheduling decision.");
  std::printf("This run: %d producers -> %d consumers, %d steps%s\n\n",
              base.producers, base.consumers, base.steps,
              ctx.full ? "" : "  [--full for 24 -> 16 ranks, 25 steps]");

  const double stall_static =
      ctx.find("ablation_sched/static")->get("stall_s") / P;
  std::printf("%-12s %12s %12s %10s %9s %10s   %s\n", "variant", "end2end(s)",
              "stall(s)/P", "vs static", "csteals", "PFS GiB", "what changed");
  for (const auto& var : sched_variants()) {
    const auto* r = ctx.find(std::string("ablation_sched/") + var.token);
    const double stall = r->get("stall_s") / P;
    std::printf("%-12s %12.2f %12.3f %9.1f%% %9.0f %10.2f   %s\n", var.token,
                r->get("end_to_end_s"), stall,
                stall_static > 0 ? (stall - stall_static) / stall_static * 100.0
                                 : 0.0,
                r->get("consumer_steals"),
                r->get("bytes_via_pfs") / common::GiB, var.what);
  }
  std::printf(
      "\nExpected shape: load-aware routing (lq) and consumer stealing "
      "(csteal) cut producer stall without touching the PFS;\nthe spill "
      "variants buy the same stall relief with file-system bytes; adaptive "
      "blocks coarsen the split under stall\n(buffers and credit windows are "
      "counted in blocks) to amortize per-block protocol cost.\n");
}

// -------------------------------------------------------- ablation_tune ----

std::vector<ScenarioSpec> ablation_tune_scenarios(bool full) {
  // The tuner's base (and default config): the imbalanced-CFD baseline of
  // ablation_sched — the static contiguous schedule every candidate must
  // beat. One scenario here keeps `list` counts and `analyze` meaningful;
  // the tune itself runs through run_tuned below.
  auto base = ablation_sched_scenarios(full).front();
  base.label = "ablation_tune/default";
  return {base};
}

void ablation_tune_present(const FigureContext& ctx) {
  // Only reachable through paths that bypass run_tuned (e.g. a future
  // presenter-only caller): show the baseline and point at the tuner.
  const auto& r = ctx.results.front();
  title("Ablation: model-guided auto-tuning of the zipper schedule",
        "Baseline below; `zipper_lab run ablation_tune` runs the full "
        "probe -> calibrate -> score -> validate loop.");
  std::printf("default (static schedule): end2end %.2f s, stall/P %.3f s\n",
              r.get("end_to_end_s"),
              r.get("stall_s") / ctx.specs.front().producers);
}

int ablation_tune_run(const FigureDef& fig, const LabOptions& opts) {
  const auto base = ablation_tune_scenarios(opts.full).front();
  opt::SearchSpace space;
  // Policy axes at their defaults; one numeric axis (block size around the
  // base 1 MiB) exercises the analytic pruning on a 144-candidate grid.
  space.block_bytes = {base.zipper.block_bytes / 2, base.zipper.block_bytes,
                       base.zipper.block_bytes * 2};
  opt::TuneLabOptions topts;
  topts.tune.objective = opt::Objective::kProducerStall;
  topts.tune.budget = 16;
  topts.tune.jobs = opts.jobs;
  topts.tune.progress = opts.progress;
  topts.write_artifacts = opts.write_artifacts;
  topts.artifacts_dir = opts.artifacts_dir;
  return opt::run_tune(fig.name, base, space, topts);
}

// ------------------------------------------------------- ablation_adapt ----

struct ChaosAxis {
  const char* token;
  const char* what;
  core::chaos::ChaosSpec spec;
};

std::vector<ChaosAxis> chaos_axes(bool full) {
  // One fixed seed: ablation_adapt replays bit-for-bit (and -j1 == -j4).
  core::chaos::ChaosSpec calm;
  calm.seed = 1805;

  auto straggler = calm;
  straggler.straggler = {1, 6.0};

  auto fault = calm;
  fault.fault = {2, 8.0, full ? 2.0 : 0.8};

  auto burst = calm;
  burst.burst = {0.8, full ? 2.0 : 1.0};

  auto drift = calm;
  drift.drift = {3.0, 6.0};

  return {
      {"calm", "no injected chaos (control)", calm},
      {"straggler", "one consumer 6x slower for the whole run", straggler},
      {"fault", "two transient 8x slowdowns with recovery", fault},
      {"burst", "bursty background PFS traffic at 0.8 intensity", burst},
      {"drift", "producer compute phases drift up to 3x", drift},
  };
}

std::vector<ScenarioSpec> ablation_adapt_scenarios(bool full) {
  // Same deliberately imbalanced CFD base as ablation_sched. `tuned` pins
  // the schedule the PR-5 tuner picks for the *calm* regime (least-queued
  // routing + consumer stealing, no spill); `adapt` starts from the paper
  // default and lets opt::AdaptiveController re-tune live off streaming
  // trace windows. Chaos makes the calm-tuned answer stale — the question
  // each axis asks is whether online escalation recovers the difference.
  const auto base = ablation_sched_scenarios(full).front();

  std::vector<ScenarioSpec> out;
  for (const auto& ax : chaos_axes(full)) {
    auto tuned = base;
    tuned.zipper.sched.route = core::sched::RouteKind::kLeastQueued;
    tuned.zipper.sched.consumer_steal = true;
    tuned.chaos = ax.spec;
    tuned.label = std::string("ablation_adapt/") + ax.token + "/tuned";
    out.push_back(tuned);

    auto adapt = base;
    adapt.chaos = ax.spec;
    adapt.adaptive_control = true;
    adapt.label = std::string("ablation_adapt/") + ax.token + "/adapt";
    out.push_back(adapt);
  }
  return out;
}

void ablation_adapt_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  const int P = base.producers;
  title("Ablation: online adaptive control under injected chaos",
        "Each axis perturbs the imbalanced CFD run; `tuned` keeps the "
        "calm-regime static winner (lq+csteal), `adapt` re-tunes live.");
  std::printf("This run: %d producers -> %d consumers, %d steps, chaos seed "
              "%llu%s\n\n",
              base.producers, base.consumers, base.steps,
              static_cast<unsigned long long>(base.chaos.seed),
              ctx.full ? "" : "  [--full for 24 -> 16 ranks, 25 steps]");

  std::printf("%-10s %-7s %11s %11s %8s %8s %7s %8s   %s\n", "axis",
              "variant", "end2end(s)", "stall(s)/P", "actions", "retries",
              "spills", "PFS GiB", "axis meaning");
  for (const auto& ax : chaos_axes(ctx.full)) {
    const auto* tuned =
        ctx.find(std::string("ablation_adapt/") + ax.token + "/tuned");
    const auto* adapt =
        ctx.find(std::string("ablation_adapt/") + ax.token + "/adapt");
    for (const auto* r : {tuned, adapt}) {
      std::printf("%-10s %-7s %11.2f %11.3f %8.0f %8.0f %7.0f %8.2f   %s\n",
                  ax.token, r == tuned ? "tuned" : "adapt",
                  r->get("end_to_end_s"), r->get("stall_s") / P,
                  r->get("control_actions"), r->get("put_retries"),
                  r->get("blocks_spilled_slow"),
                  r->get("bytes_via_pfs") / common::GiB,
                  r == tuned ? ax.what : "");
    }
    const double ts = tuned->get("stall_s"), as = adapt->get("stall_s");
    const double te = tuned->get("end_to_end_s"), ae = adapt->get("end_to_end_s");
    std::printf("%-10s %-7s %10.1f%% %10.1f%%   (adapt vs tuned; negative = "
                "adapt wins)\n",
                "", "delta", te > 0 ? (ae - te) / te * 100.0 : 0.0,
                ts > 0 ? (as - ts) / ts * 100.0 : 0.0);
  }
  std::printf(
      "\nExpected shape: `adapt` pays a short escalation lag when calm but "
      "matches the tuned schedule's steady state;\nunder straggler/fault "
      "pressure the controller climbs the ladder to spill (and coarser "
      "blocks), beating the spill-less\nstatic-tuned schedule on producer "
      "stall or end-to-end on at least one axis.\n");
}

// ------------------------------------------------- hybrid pipeline base ----

ScenarioSpec hybrid_base(bool full) {
  // Balanced CFD workflow with deep buffers and the spill channel off: the
  // measured run tracks the §4.4 per-edge equations instead of spill
  // dynamics. Enough steps that the pipeline fill/drain tail the max-form
  // model ignores amortizes away, keeping the with_model columns (and
  // `zipper_lab analyze`'s calibrated predictions) inside the PR-4 error
  // band even for sim-bound variants.
  ScenarioSpec base;
  base.cluster = "bridges";
  base.workload = Workload::kCfdBridges;
  base.steps = full ? 50 : 24;
  base.producers = full ? 24 : 6;
  base.consumers = full ? 16 : 4;
  base.method = Method::kZipper;
  base.zipper.block_bytes = common::MiB;
  base.zipper.producer_buffer_blocks = 64;
  base.zipper.consumer_buffer_blocks = 64;
  base.zipper.enable_steal = false;
  base.with_model = true;
  return base;
}

// ------------------------------------------------------- hybrid_staging ----

std::vector<ScenarioSpec> hybrid_staging_scenarios(bool full) {
  auto base = hybrid_base(full);
  base.zipper.preserve = true;  // the chain ends in a store stage

  std::vector<ScenarioSpec> out;
  {
    auto s = base;
    s.label = "hybrid_staging/legacy";
    out.push_back(s);
  }
  {
    // sim -> reduce -> analyze -> store on dedicated staging nodes, with the
    // reduce -> analyze hop forced through the Decaf-style staged transport
    // (credit window 1, no stealing).
    auto s = base;
    s.pipeline = workflow::make_chain(3);
    s.pipeline.edges[1].method = workflow::EdgeMethod::kStaged;
    s.label = "hybrid_staging/staged";
    out.push_back(s);
  }
  {
    // The same chain with every downstream stage colocated on its upstream
    // consumers' hosts (shared-memory edges, no staging allocation).
    auto s = base;
    s.pipeline = workflow::make_chain(3, 1, 1.0, /*staging=*/false);
    s.label = "hybrid_staging/colocated";
    out.push_back(s);
  }
  return out;
}

void hybrid_staging_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  const int P = base.producers;
  title("Hybrid in-transit pipeline: staged vs colocated 4-stage chains",
        "sim -> reduce -> analyze -> store; `staged` runs the chain on "
        "dedicated staging nodes, `colocated` shares the upstream hosts.");
  std::printf("This run: %d producers, %d first-stage consumers, %d steps%s\n\n",
              base.producers, base.consumers, base.steps,
              ctx.full ? "" : "  [--full for 24 -> 16 ranks, 25 steps]");
  std::printf("%-11s %11s %9s %9s %6s %11s %11s   %s\n", "variant",
              "end2end(s)", "model(s)", "err", "edges", "e0 stall/P",
              "store(s)", "dominant");
  for (std::size_t i = 0; i < ctx.results.size(); ++i) {
    const auto& r = ctx.results[i];
    const int edges = static_cast<int>(r.get("pipeline_edges", 1.0));
    const bool piped = r.get("pipeline_edges", 0.0) > 0;
    const double e0_stall = piped ? r.get("e0_stall_s") : r.get("stall_s");
    const double store =
        piped ? r.get("e" + std::to_string(edges - 1) + "_store_busy_s")
              : r.get("store_busy_s");
    const std::string dom =
        piped ? "edge " + std::to_string(
                              static_cast<int>(r.get("model_dominant_edge")))
              : "single coupling";
    const char* tok = std::strrchr(r.label.c_str(), '/');
    std::printf("%-11s %11.2f %9.2f %8.1f%% %6d %11.3f %11.2f   %s\n",
                tok ? tok + 1 : r.label.c_str(), r.get("end_to_end_s"),
                r.get("model_end_to_end_s"), r.get("model_rel_error") * 100.0,
                edges, e0_stall / P, store, dom.c_str());
  }
  std::printf(
      "\nExpected shape: both chains land near the legacy coupling (the "
      "extra hops pipeline behind the bottleneck edge);\nthe staged variant "
      "pays its window-1 hop only when that edge dominates, and colocation "
      "turns interior hops into\nfast shared-memory edges. The per-edge "
      "model names the bottleneck edge each variant is bound by.\n");
}

// --------------------------------------------------------- fanin_reduce ----

std::vector<ScenarioSpec> fanin_reduce_scenarios(bool full) {
  auto base = hybrid_base(full);
  base.zipper.preserve = false;  // isolate the fan-in from the PFS

  std::vector<ScenarioSpec> out;
  for (const int fan : {1, 2, 4}) {
    auto s = base;
    s.pipeline = workflow::make_chain(2, fan);
    s.label = "fanin_reduce/fan" + std::to_string(fan);
    out.push_back(s);
  }
  {
    // The rescue scenario: the same 4-way fan-in with 2x reduction on the
    // reduce -> analyze edge, buying back the throughput the collapsed
    // analyze stage lost.
    auto s = base;
    s.pipeline = workflow::make_chain(2, 4, 2.0);
    s.label = "fanin_reduce/fan4-cx2";
    out.push_back(s);
  }
  return out;
}

void fanin_reduce_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  title("Fan-in reduce: collapsing the analysis stage behind a reduction",
        "sim -> reduce -> analyze; each fan divides the analyze stage's "
        "ranks, concentrating its load until that edge dominates.");
  std::printf("This run: %d producers, %d reduce ranks, %d steps%s\n\n",
              base.producers, base.consumers, base.steps,
              ctx.full ? "" : "  [--full for 24 -> 16 ranks, 25 steps]");
  std::printf("%-9s %11s %9s %9s %8s %12s   %s\n", "variant", "end2end(s)",
              "model(s)", "err", "analyze", "e1 busy(s)", "dominant");
  for (std::size_t i = 0; i < ctx.results.size(); ++i) {
    const auto& spec = ctx.specs[i];
    const auto& r = ctx.results[i];
    const auto ranks = spec.pipeline.resolved_ranks(
        spec.producers, std::max(1, spec.effective_consumers()));
    const char* tok = std::strrchr(r.label.c_str(), '/');
    std::printf("%-9s %11.2f %9.2f %8.1f%% %8d %12.2f   edge %d\n",
                tok ? tok + 1 : r.label.c_str(), r.get("end_to_end_s"),
                r.get("model_end_to_end_s"), r.get("model_rel_error") * 100.0,
                ranks.back(), r.get("e1_analysis_busy_s"),
                static_cast<int>(r.get("model_dominant_edge")));
  }
  std::printf(
      "\nExpected shape: fan 1 is bound by the first edge; deeper fan-in "
      "concentrates analysis on fewer ranks until the\nreduce -> analyze "
      "edge dominates and end-to-end grows. Compressing that edge (fan4-cx2) "
      "claws the loss back\nwithout giving up the 4-way collapse.\n");
}

// ---------------------------------------------------- ablation_compress ----

std::vector<ScenarioSpec> ablation_compress_scenarios(bool full) {
  auto base = hybrid_base(full);
  base.zipper.preserve = false;

  std::vector<ScenarioSpec> out;
  for (const double cx : {1.0, 2.0, 4.0, 8.0}) {
    auto s = base;
    s.pipeline = workflow::make_chain(2, 2, cx);
    char buf[48];  // room for any %g, so the label is never cut
    std::snprintf(buf, sizeof buf, "ablation_compress/cx%g", cx);
    s.label = buf;
    out.push_back(s);
  }
  return out;
}

void ablation_compress_present(const FigureContext& ctx) {
  const auto& base = ctx.specs.front();
  title("Ablation: per-edge compression on a 2-way fan-in chain",
        "sim -> reduce -> analyze at fan 2; the reduce stage emits 1/cx of "
        "its input bytes on the second edge.");
  std::printf("This run: %d producers, %d reduce ranks, %d steps%s\n\n",
              base.producers, base.consumers, base.steps,
              ctx.full ? "" : "  [--full for 24 -> 16 ranks, 25 steps]");
  std::printf("%-6s %11s %9s %9s %12s %12s   %s\n", "cx", "end2end(s)",
              "model(s)", "err", "e1 GiB", "e1 busy(s)", "dominant");
  for (std::size_t i = 0; i < ctx.results.size(); ++i) {
    const auto& r = ctx.results[i];
    const char* tok = std::strrchr(r.label.c_str(), '/');
    std::printf("%-6s %11.2f %9.2f %8.1f%% %12.2f %12.2f   edge %d\n",
                tok ? tok + 1 : r.label.c_str(), r.get("end_to_end_s"),
                r.get("model_end_to_end_s"), r.get("model_rel_error") * 100.0,
                r.get("e1_bytes_via_network") / common::GiB,
                r.get("e1_analysis_busy_s"),
                static_cast<int>(r.get("model_dominant_edge")));
  }
  std::printf(
      "\nExpected shape: second-edge wire bytes scale as 1/cx and its "
      "analysis time with them; once the halved-rank analyze\nstage drains "
      "faster than the first edge feeds it, the dominant edge flips to edge "
      "0 and further compression is free.\n");
}

// ------------------------------------------------------------ scaling_xl ----

const std::vector<int>& scaling_xl_core_counts(bool full) {
  // Quick mode overlaps fig16's mid-range; --full (the nightly run) extends
  // the curve past 10^5 total ranks — the regime the paper's Stampede2
  // allocation could not reach. Counts are chosen leaf-aligned for the
  // partitioner: quick points fit one 48-host leaf (3264 = 48 hosts x 68
  // cores), full points are 9792k with k even so every 4-shard cut lands on
  // a leaf boundary (9792 = 2 leaves of producers + 1 of consumers).
  static const std::vector<int> kQuick{816, 1632, 3264};
  static const std::vector<int> kFull{39168, 78336, 117504};
  return full ? kFull : kQuick;
}

std::vector<ScenarioSpec> scaling_xl_scenarios(bool full) {
  std::vector<ScenarioSpec> out;
  for (int cores : scaling_xl_core_counts(full)) {
    ScenarioSpec s;
    s.cluster = "stampede2";
    s.workload = Workload::kCfdStampede2;
    s.steps = full ? 4 : 3;
    s.producers = cores * 2 / 3;
    s.consumers = cores / 3;
    s.method = Method::kZipper;
    s.params.socket_stack_bandwidth = 120e6;  // KNL single-thread sockets
    s.zipper.block_bytes = common::MiB;
    // The two deliberate deviations from fig16 that make the rank graph
    // fully decomposable (exp/partition.hpp): no writer spill (the shared
    // PFS would couple every shard) and no producer halo ring.
    s.zipper.enable_steal = false;
    s.halo_neighbors = 0;
    s.pfs_osts_base = 32;
    s.pfs_osts_ref_producers = 8704;
    s.label = "scaling_xl/zipper/c" + std::to_string(cores);
    out.push_back(s);
  }
  return out;
}

void scaling_xl_present(const FigureContext& ctx) {
  // Reached only by paths that bypass run_tuned (e.g. `analyze`): show the
  // end-to-end curve; the sequential-vs-sharded audit lives in the driver.
  title("Extension: CFD weak scaling to 10^5+ ranks (sharded DES)",
        "fig16's Zipper series without spill/halo coupling; `zipper_lab run "
        "scaling_xl --sim-threads N` audits sharded == sequential.");
  std::printf("%8s %12s %12s\n", "cores", "end2end(s)", "put(s)");
  for (const auto& r : ctx.results) {
    const char* tok = std::strrchr(r.label.c_str(), 'c');
    std::printf("%8s %12.2f %12.2f\n", tok ? tok + 1 : r.label.c_str(),
                r.get("end_to_end_s"), r.get("put_s"));
  }
}

/// Strips the host-dependent shard_* diagnostic columns so a sharded result
/// can be byte-compared against (and archived as) the sequential layout.
ScenarioResult strip_shard_columns(const ScenarioResult& r) {
  ScenarioResult out = r;
  out.metrics.erase(
      std::remove_if(out.metrics.begin(), out.metrics.end(),
                     [](const std::pair<std::string, double>& kv) {
                       return kv.first.rfind("shard_", 0) == 0;
                     }),
      out.metrics.end());
  return out;
}

int scaling_xl_run(const FigureDef& fig, const LabOptions& opts) {
  const auto specs = scaling_xl_scenarios(opts.full);
  // Honor --sim-threads; default to 4 shard workers so the audit always
  // exercises a real multi-shard run even without the flag.
  const int threads = opts.sim_threads > 1 ? opts.sim_threads : 4;

  title("Extension: CFD weak scaling to 10^5+ ranks (sharded DES)",
        "Each row runs twice — sequential, then sharded across " +
            std::to_string(threads) +
            " worker threads — and the artifacts must match byte-for-byte.");
  std::printf("%8s %7s %12s %11s %11s %8s %6s   %s\n", "cores", "shards",
              "events", "seq Mev/s", "shd Mev/s", "speedup", "eff", "identical");

  using clock = std::chrono::steady_clock;
  std::vector<ScenarioResult> results;
  bool all_identical = true;
  for (const auto& base : specs) {
    const auto plan = plan_shards(base, threads);
    if (!plan.sharded()) {
      std::printf("%8d %7s   partitioner fell back: %s\n",
                  base.producers + base.effective_consumers(), "-",
                  plan.fallback_reason.c_str());
      all_identical = false;
      continue;
    }

    auto seq_spec = base;
    const auto t0 = clock::now();
    const auto seq = run_scenario(seq_spec);
    const double seq_wall = std::chrono::duration<double>(clock::now() - t0).count();

    auto shd_spec = base;
    shd_spec.sim_threads = threads;
    shd_spec.shard_metrics = true;
    const auto t1 = clock::now();
    const auto shd = run_scenario(shd_spec);
    const double shd_wall = std::chrono::duration<double>(clock::now() - t1).count();

    const auto stripped = strip_shard_columns(shd);
    const bool identical = !seq.crashed && !shd.crashed &&
                           seq.error.empty() && shd.error.empty() &&
                           seq.metrics == stripped.metrics;
    all_identical = all_identical && identical;

    const double events = shd.get("shard_events");
    const double speedup = shd_wall > 0 ? seq_wall / shd_wall : 0;
    std::printf("%8d %7d %12.0f %11.2f %11.2f %7.2fx %5.0f%%   %s\n",
                base.producers + base.effective_consumers(),
                static_cast<int>(shd.get("shard_count")), events,
                seq_wall > 0 ? events / seq_wall / 1e6 : 0,
                shd_wall > 0 ? events / shd_wall / 1e6 : 0, speedup,
                plan.threads > 0 ? speedup / plan.threads * 100.0 : 0,
                identical ? "yes" : "NO — DIVERGED");

    // Archive the sharded run (minus diagnostics): proving it writes the
    // sequential artifact is the figure's whole claim.
    results.push_back(stripped);
  }

  if (opts.write_artifacts && !results.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.artifacts_dir, ec);
    const std::string stem = opts.artifacts_dir + "/" + fig.name;
    const bool csv_ok = write_file(stem + ".csv", to_csv(results));
    const bool json_ok = write_file(stem + ".json", to_json(results));
    if (!csv_ok || !json_ok) {
      std::fprintf(stderr, "error: failed to write artifacts under %s\n",
                   opts.artifacts_dir.c_str());
      return 1;
    }
    std::printf("\nartifacts: %s.csv, %s.json (from the sharded run)\n",
                stem.c_str(), stem.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "scaling_xl: sharded run diverged from sequential (or the "
                 "partitioner fell back) — see rows above\n");
    return 1;
  }
  std::printf("\nsharded == sequential for every row (byte-compared over "
              "%zu metric columns)\n",
              results.empty() ? 0 : results.front().metrics.size());
  return 0;
}

}  // namespace

// ------------------------------------------------------------- registry ----

const std::vector<FigureDef>& registry() {
  static const std::vector<FigureDef> kRegistry{
      {"fig02", "Figure 2",
       "CFD end-to-end time across the 7 transport libraries",
       "full ordering MPI-IO slowest -> Decaf fastest; native/ADIOS speedups "
       "~1.5x; MPI-IO most variable across seeds",
       fig02_scenarios, fig02_present},
      {"fig03", "Figure 3", "Overlap of simulation and analysis time steps",
       "analysis fully hidden except the trailing step",
       fig03_scenarios, fig03_present},
      {"fig04", "Figure 4", "Native DIMES trace: slot-wrap lock stall",
       "lock_on_write dominates the PUT; slot recycle stalls ~one full step",
       fig04_scenarios, fig04_present},
      {"fig05", "Figure 5", "CFD-only vs Flexpath traces: MPI_Sendrecv inflation",
       "streaming sendrecv lengthens visibly under staging traffic",
       fig05_scenarios, fig05_present},
      {"fig06", "Figure 6", "CFD-only vs Decaf traces: collective Waitall stall",
       "Decaf adds a per-step MPI_Waitall stall; ~3 vs ~2 steps per 0.9 s",
       fig06_scenarios, fig06_present},
      {"fig11", "Figure 11", "Non-integrated vs integrated pipeline schedules",
       "integrated makespan 2.8x shorter on 7 blocks (asymptotically 4x)",
       fig11_scenarios, fig11_present},
      {"fig12", "Figure 12", "Synthetic breakdown, No-Preserve mode",
       "e2e ~ max(sim, transfer, analysis); dominant stage flips with "
       "producer complexity",
       fig12_scenarios, fig12_present},
      {"fig13", "Figure 13", "Synthetic breakdown, Preserve mode",
       "store stage (bytes / PFS bandwidth) dominates, flat across apps",
       fig13_scenarios, fig13_present},
      {"fig14", "Figure 14", "Concurrent message+file transfer optimization",
       "O(n): 16-32% wallclock cut, ~half the blocks stolen; O(n^3/2): no "
       "stealing, identical columns",
       fig14_scenarios, fig14_present},
      {"fig15", "Figure 15", "XmitWait congestion counters",
       "message-only exceeds concurrent by 13-80% for O(n); O(n^3/2) three "
       "orders of magnitude lower",
       fig15_scenarios, fig15_present},
      {"fig16", "Figure 16", "CFD weak scaling on Stampede2",
       "Zipper ~= simulation-only; Decaf 1.4-1.7x, crashes (int32) at 6,528+; "
       "Flexpath ~11.5x; MPI-IO does not scale",
       fig16_scenarios, fig16_present},
      {"fig17", "Figure 17", "Zipper vs Decaf CFD trace at 204 cores",
       "Zipper fits 3 steps where Decaf fits 2 plus stalls",
       fig17_scenarios, fig17_present},
      {"fig18", "Figure 18", "LAMMPS weak scaling on Stampede2",
       "Zipper tracks simulation-only; Decaf degrades beyond 1,632 cores to "
       "2.2x; Flexpath ~7.1x",
       fig18_scenarios, fig18_present},
      {"fig19", "Figure 19", "Zipper vs Decaf LAMMPS trace",
       "Zipper ~4.4 steps per 9.1 s window vs Decaf ~2 with per-step stalls",
       fig19_scenarios, fig19_present},
      {"ablation-block-size", "Ablation",
       "Zipper block size: fine-grain pipelining vs whole-step bursts",
       "fine blocks keep halo inflation ~1x; 16 MiB blocks behave like "
       "Decaf's bursts",
       ablation_block_size_scenarios, ablation_block_size_present},
      {"ablation-servers", "Ablation",
       "Dedicated staging servers vs serverless coupling",
       "DataSpaces improves with servers but never reaches DIMES/Zipper",
       ablation_servers_scenarios, ablation_servers_present},
      {"ablation-steal-threshold", "Ablation",
       "Work-stealing high-water mark and buffer capacity",
       "wallclock flat-to-improving as threshold drops until PFS contention "
       "bites; tiny buffers always stall",
       ablation_steal_scenarios, ablation_steal_present},
      {"ablation_sched", "Ablation",
       "Pluggable schedules (routing / spill / consumer stealing) on an "
       "imbalanced workflow",
       "least-queued routing and consumer stealing cut producer stall vs the "
       "static contiguous schedule, without spending PFS bytes",
       ablation_sched_scenarios, ablation_sched_present},
      {"ablation_tune", "Ablation",
       "Model-guided auto-tuner over the schedule space of ablation_sched",
       "the tuner's chosen config cuts producer stall >= 10% vs the static "
       "default while spending <= half an exhaustive sweep's runs",
       ablation_tune_scenarios, ablation_tune_present, ablation_tune_run},
      {"ablation_adapt", "Ablation",
       "Online adaptive control vs a static-tuned schedule under chaos axes",
       "adapt matches the calm-tuned schedule when nothing goes wrong and "
       "beats it on at least one chaos axis by escalating to spill",
       ablation_adapt_scenarios, ablation_adapt_present},
      {"hybrid_staging", "Hybrid",
       "In-transit 4-stage chain (sim -> reduce -> analyze -> store): staged "
       "vs colocated placement",
       "both chains land near the legacy coupling; the per-edge model names "
       "the bottleneck edge each variant is bound by",
       hybrid_staging_scenarios, hybrid_staging_present},
      {"fanin_reduce", "Hybrid",
       "Fan-in reduce chain: analyze-stage rank collapse vs edge compression",
       "deeper fan-in shifts the dominant edge to reduce -> analyze and grows "
       "end-to-end; 2x compression at fan 4 claws the loss back",
       fanin_reduce_scenarios, fanin_reduce_present},
      {"ablation_compress", "Ablation",
       "Per-edge compression sweep on a 2-way fan-in chain",
       "second-edge bytes and analysis time scale as 1/cx; the dominant edge "
       "flips to edge 0 once the collapsed stage outruns its feed",
       ablation_compress_scenarios, ablation_compress_present},
      {"scaling_xl", "Extension",
       "CFD weak scaling past 10^5 ranks on the sharded parallel DES",
       "sharded artifacts byte-identical to sequential at every core count; "
       "events/s scales with shard worker threads",
       scaling_xl_scenarios, scaling_xl_present, scaling_xl_run},
  };
  return kRegistry;
}

const FigureDef* find_figure(const std::string& name) {
  for (const auto& f : registry()) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

}  // namespace zipper::exp
