// The scenario lab: sweep-grid expansion, artifact writers, the registry,
// and the determinism contract that makes parallel sweeps safe — a sweep at
// jobs=4 must produce byte-identical per-scenario results to jobs=1.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#include "exp/analyze.hpp"
#include "exp/artifacts.hpp"
#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "exp/lab.hpp"
#include "exp/registry.hpp"
#include "workflow/pipeline.hpp"

using namespace zipper;
using namespace zipper::exp;
using transports::Method;

namespace {

SweepGrid small_grid() {
  SweepGrid g;
  g.label_prefix = "t";
  g.base.cluster = "bridges";
  g.base.workload = Workload::kSyntheticLinear;
  g.base.steps = 2;
  g.base.method = Method::kZipper;
  g.base.zipper.block_bytes = common::MiB;
  g.base.zipper.producer_buffer_blocks = 8;
  return g;
}

}  // namespace

// ------------------------------------------------------------------- grid --

TEST(SweepGrid, NoAxesExpandsToBase) {
  SweepGrid g = small_grid();
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].label, "t");
  EXPECT_EQ(specs[0].steps, 2);
  EXPECT_EQ(g.size(), 1u);
}

TEST(SweepGrid, CartesianProductOverThreeAxes) {
  SweepGrid g = small_grid();
  g.methods = {Method::kZipper, Method::kDecaf, std::nullopt};
  g.cores = {84, 168};
  g.block_kib = {256, 1024};
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 12u);
  EXPECT_EQ(g.size(), 12u);

  // Labels are unique and self-describing.
  std::set<std::string> labels;
  for (const auto& s : specs) labels.insert(s.label);
  EXPECT_EQ(labels.size(), specs.size());
  EXPECT_TRUE(labels.count("t/zipper/c84/b256k"));
  EXPECT_TRUE(labels.count("t/sim-only/c168/b1024k"));

  // Row-major order: methods outermost, blocks innermost.
  EXPECT_EQ(specs[0].label, "t/zipper/c84/b256k");
  EXPECT_EQ(specs[1].label, "t/zipper/c84/b1024k");
  EXPECT_EQ(specs[2].label, "t/zipper/c168/b256k");

  // Axis values land in the spec fields.
  for (const auto& s : specs) {
    if (s.label.find("/c84/") != std::string::npos) {
      EXPECT_EQ(s.producers, 56);  // 84 * 2/3
      EXPECT_EQ(s.consumers, 28);
    }
    if (s.label.find("b1024k") != std::string::npos) {
      EXPECT_EQ(s.zipper.block_bytes, 1024 * common::KiB);
    }
    if (s.label.find("sim-only") != std::string::npos) {
      EXPECT_FALSE(s.method.has_value());
    }
  }
}

TEST(SweepGrid, SeedAxisReplicatesScenario) {
  SweepGrid g = small_grid();
  g.base.background_load_intensity = 0.4;
  g.seeds = {7, 8, 9};
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(specs[i].background_load_seed, 7 + i);
    EXPECT_EQ(specs[i].label, "t/seed" + std::to_string(7 + i));
    // Everything but the seed is identical replication.
    EXPECT_EQ(specs[i].steps, specs[0].steps);
    EXPECT_EQ(specs[i].producers, specs[0].producers);
    EXPECT_EQ(specs[i].background_load_intensity, 0.4);
  }
}

TEST(SweepGrid, PreserveAndStealAxes) {
  SweepGrid g = small_grid();
  g.steal_thresholds = {0.25, 0.75};
  g.preserve = {0, 1};
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_DOUBLE_EQ(specs[0].zipper.high_water, 0.25);
  EXPECT_FALSE(specs[0].zipper.preserve);
  EXPECT_TRUE(specs[1].zipper.preserve);
  EXPECT_EQ(specs[3].label, "t/hw0.75/preserve");
}

TEST(SweepGrid, CoresAndRanksAreMutuallyExclusive) {
  SweepGrid g = small_grid();
  g.cores = {84};
  g.ranks = {{8, 4}};
  EXPECT_THROW(g.expand(), std::invalid_argument);
  EXPECT_THROW(g.size(), std::invalid_argument);
}

TEST(SweepGrid, ExplicitRanksAxis) {
  SweepGrid g = small_grid();
  g.ranks = {{8, 4}, {16, 2}};
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[1].producers, 16);
  EXPECT_EQ(specs[1].consumers, 2);
  EXPECT_EQ(specs[1].label, "t/p16q2");
}

// -------------------------------------------------------------- scenarios --

TEST(Scenario, PipelineScheduleMatchesFig11) {
  ScenarioSpec s;
  s.label = "sched";
  s.kind = ScenarioKind::kPipelineSchedule;
  s.schedule_blocks = 7;
  s.schedule_stage_s = {1.0, 1.0, 1.0, 1.0};
  const auto r = run_scenario(s);
  EXPECT_FALSE(r.crashed);
  EXPECT_DOUBLE_EQ(r.get("makespan_non_integrated"), 28.0);
  EXPECT_DOUBLE_EQ(r.get("makespan_integrated"), 10.0);
  EXPECT_NEAR(r.get("speedup"), 2.8, 1e-12);
}

TEST(Scenario, ModelInputMatchesSpec) {
  ScenarioSpec s;
  s.cluster = "bridges";
  s.workload = Workload::kSyntheticLinear;
  s.steps = 4;
  s.producers = 8;
  s.consumers = 4;
  s.zipper.block_bytes = common::MiB;
  const auto in = model_input_for(s);
  EXPECT_EQ(in.producers, 8);
  EXPECT_EQ(in.consumers, 4);
  EXPECT_EQ(in.total_bytes, 8ull * 4 * 20 * common::MiB);
  EXPECT_EQ(in.block_bytes, common::MiB);
  EXPECT_GT(in.tc_s, 0);
  EXPECT_GT(in.tm_s, 0);
  EXPECT_GT(in.ta_s, 0);
}

TEST(Scenario, UnknownClusterThrows) {
  ScenarioSpec s;
  s.cluster = "summit";
  EXPECT_THROW(make_cluster_spec(s), std::invalid_argument);
}

TEST(Scenario, SimOnlyDropsConsumerRanks) {
  ScenarioSpec s;
  s.cluster = "bridges";
  s.workload = Workload::kSyntheticLinear;
  s.steps = 1;
  s.producers = 4;
  s.consumers = 2;
  const auto r = run_scenario(s);
  EXPECT_FALSE(r.crashed);
  EXPECT_EQ(r.get("consumers"), 0);
  EXPECT_GT(r.get("end_to_end_s"), 0);
}

// ------------------------------------------------------------ determinism --

TEST(SweepEngine, ParallelSweepIsByteIdenticalToSerial) {
  SweepGrid g = small_grid();
  g.methods = {Method::kZipper, std::nullopt};
  g.cores = {12, 24};
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 4u);

  SweepOptions serial;
  serial.jobs = 1;
  const auto r1 = run_sweep(specs, serial);

  SweepOptions parallel;
  parallel.jobs = 4;
  const auto r4 = run_sweep(specs, parallel);

  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].label, r4[i].label);
    EXPECT_EQ(r1[i].crashed, r4[i].crashed);
    ASSERT_EQ(r1[i].metrics.size(), r4[i].metrics.size()) << r1[i].label;
    for (std::size_t k = 0; k < r1[i].metrics.size(); ++k) {
      EXPECT_EQ(r1[i].metrics[k].first, r4[i].metrics[k].first);
      // Bitwise equality, not a tolerance: the DES is deterministic and the
      // engine must not perturb it.
      EXPECT_EQ(r1[i].metrics[k].second, r4[i].metrics[k].second)
          << r1[i].label << " / " << r1[i].metrics[k].first;
    }
  }

  // The serialized artifacts are the contract consumers see.
  EXPECT_EQ(to_csv(r1), to_csv(r4));
  EXPECT_EQ(to_json(r1), to_json(r4));
}

TEST(SweepEngine, RepeatedRunsAreIdentical) {
  SweepGrid g = small_grid();
  g.cores = {12};
  const auto specs = g.expand();
  const auto a = run_sweep(specs, {});
  const auto b = run_sweep(specs, {});
  EXPECT_EQ(to_csv(a), to_csv(b));
}

TEST(SweepEngine, ProgressCallbackCoversEveryScenario) {
  SweepGrid g = small_grid();
  g.cores = {12, 24};
  const auto specs = g.expand();
  std::set<std::string> seen;
  std::size_t max_done = 0;
  SweepOptions opts;
  opts.jobs = 2;
  opts.on_done = [&](const ScenarioSpec& spec, const ScenarioResult&,
                     std::size_t done, std::size_t total) {
    seen.insert(spec.label);
    max_done = std::max(max_done, done);
    EXPECT_EQ(total, specs.size());
  };
  run_sweep(specs, opts);
  EXPECT_EQ(seen.size(), specs.size());
  EXPECT_EQ(max_done, specs.size());
}

TEST(SweepEngine, ThrowingScenarioReportsCrashNotAbort) {
  ScenarioSpec bad;
  bad.label = "bad";
  bad.cluster = "summit";  // make_cluster_spec throws
  const auto rs = run_sweep({bad}, {});
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_TRUE(rs[0].crashed);
  EXPECT_NE(rs[0].note.find("summit"), std::string::npos);
}

TEST(SweepEngine, PartialFailureKeepsOtherRowsAndCsvSchema) {
  // One mid-sweep scenario throws (a multi-stage pipeline on a non-Zipper
  // transport is rejected by run_scenario); the surviving rows still emit
  // full metrics and the CSV schema stays stable — same metric columns,
  // plus the `error` column exactly because a row carries an error.
  SweepGrid g = small_grid();
  auto specs = g.expand();
  ASSERT_EQ(specs.size(), 1u);
  specs.push_back(specs[0]);
  specs.push_back(specs[0]);
  specs[0].label = "t/ok0";
  specs[1].label = "t/bad";
  specs[1].method = Method::kDecaf;
  specs[1].pipeline = workflow::make_chain(2);
  specs[2].label = "t/ok1";

  SweepOptions opts;
  opts.jobs = 2;
  const auto rs = run_sweep(specs, opts);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_FALSE(rs[0].crashed);
  EXPECT_TRUE(rs[0].has("end_to_end_s"));
  EXPECT_TRUE(rs[1].crashed);
  EXPECT_NE(rs[1].error.find("--method zipper"), std::string::npos);
  EXPECT_FALSE(rs[2].crashed);
  EXPECT_TRUE(rs[2].has("end_to_end_s"));
  // The crash is per-row: the survivors match a sweep that never saw the
  // bad scenario.
  const auto clean = run_sweep({specs[0], specs[2]}, {});
  EXPECT_EQ(to_csv({rs[0], rs[2]}), to_csv(clean));

  const auto csv = to_csv(rs);
  const auto clean_csv = to_csv(clean);
  auto header = csv.substr(0, csv.find('\n'));
  const auto clean_header = clean_csv.substr(0, clean_csv.find('\n'));
  // `error` slots in after the fixed columns; the metric union is unchanged.
  const auto pos = header.find(",error");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(header.erase(pos, 6), clean_header);
  EXPECT_NE(csv.find("--method zipper"), std::string::npos);
}

// -------------------------------------------------------------- artifacts --

TEST(Artifacts, CsvUnionColumnsAndEscaping) {
  ScenarioResult a;
  a.label = "a,1";  // forces quoting
  a.put("x", 1);
  a.put("y", 2.5);
  ScenarioResult b;
  b.label = "b";
  b.put("y", 3);
  b.put("z", 4);
  const auto csv = to_csv({a, b});
  EXPECT_EQ(csv,
            "label,crashed,note,x,y,z\n"
            "\"a,1\",0,,1,2.5,\n"
            "b,0,,,3,4\n");
}

TEST(Artifacts, JsonShape) {
  ScenarioResult a;
  a.label = "s\"1";
  a.crashed = true;
  a.note = "boom";
  a.put("v", 7);
  const auto json = to_json({a});
  EXPECT_NE(json.find("\"label\": \"s\\\"1\""), std::string::npos);
  EXPECT_NE(json.find("\"crashed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"v\": 7"), std::string::npos);
}

TEST(Artifacts, DoublesRoundTrip) {
  ScenarioResult a;
  a.label = "r";
  a.put("pi", 3.141592653589793);
  const auto csv = to_csv({a});
  EXPECT_NE(csv.find("3.141592653589793"), std::string::npos);
}

TEST(Artifacts, NonFiniteMetricsAreEmptyCsvCellsAndJsonNull) {
  ScenarioResult a;
  a.label = "n";
  a.put("err", std::numeric_limits<double>::quiet_NaN());
  a.put("ok", 1);
  // A NaN (e.g. a broken calibration's relative error) must not print as a
  // number: the CSV cell stays empty, the JSON value is null.
  EXPECT_EQ(to_csv({a}),
            "label,crashed,note,err,ok\n"
            "n,0,,,1\n");
  EXPECT_NE(to_json({a}).find("\"err\": null"), std::string::npos);
}

// --------------------------------------------------------------- registry --

TEST(Registry, EveryFigureHasScenariosWithUniqueLabels) {
  ASSERT_FALSE(registry().empty());
  std::set<std::string> names;
  for (const auto& fig : registry()) {
    EXPECT_TRUE(names.insert(fig.name).second) << "duplicate " << fig.name;
    EXPECT_FALSE(fig.title.empty());
    EXPECT_FALSE(fig.expect.empty());
    for (bool full : {false, true}) {
      const auto specs = fig.scenarios(full);
      EXPECT_FALSE(specs.empty()) << fig.name;
      std::set<std::string> labels;
      for (const auto& s : specs) {
        EXPECT_TRUE(labels.insert(s.label).second)
            << fig.name << " duplicate label " << s.label;
        // Labels namespace under the figure so artifact rows are greppable.
        EXPECT_EQ(s.label.rfind(fig.name + "/", 0), 0u)
            << fig.name << " label " << s.label;
      }
    }
  }
}

TEST(Registry, FindFigure) {
  EXPECT_NE(find_figure("fig02"), nullptr);
  EXPECT_NE(find_figure("ablation-servers"), nullptr);
  EXPECT_EQ(find_figure("fig99"), nullptr);
}

TEST(Registry, PaperFiguresAreAllRegistered) {
  for (const char* name : {"fig02", "fig03", "fig04", "fig05", "fig06", "fig11",
                           "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
                           "fig18", "fig19"}) {
    EXPECT_NE(find_figure(name), nullptr) << name;
  }
}

// ---------------------------------------------------------------- parsing --

TEST(Parsing, MethodTokensRoundTrip) {
  for (Method m : transports::all_methods()) {
    const auto parsed = transports::parse_method(transports::method_token(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_EQ(transports::parse_method("MPI-IO"), Method::kMpiIo);
  EXPECT_FALSE(transports::parse_method("carrier-pigeon").has_value());
}

TEST(Parsing, WorkloadTokensRoundTrip) {
  for (Workload w : {Workload::kCfdBridges, Workload::kCfdStampede2,
                     Workload::kLammpsStampede2, Workload::kSyntheticLinear,
                     Workload::kSyntheticNLogN, Workload::kSyntheticN32}) {
    const auto parsed = parse_workload(workload_token(w));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, w);
  }
  EXPECT_FALSE(parse_workload("spectral-em").has_value());
}

TEST(Parsing, ClusterByName) {
  ASSERT_TRUE(workflow::ClusterSpec::by_name("bridges").has_value());
  EXPECT_EQ(workflow::ClusterSpec::by_name("Stampede2")->name, "Stampede2");
  EXPECT_FALSE(workflow::ClusterSpec::by_name("frontier").has_value());
}

TEST(Parsing, JobsRejectsTrailingJunkAndGarbage) {
  int jobs = -1;
  EXPECT_TRUE(parse_jobs("4", &jobs));
  EXPECT_EQ(jobs, 4);
  EXPECT_FALSE(parse_jobs("foo", &jobs));
  EXPECT_FALSE(parse_jobs("2x", &jobs));  // atoi would have said 2
  EXPECT_FALSE(parse_jobs("", &jobs));
  EXPECT_FALSE(parse_jobs("4.5", &jobs));
  // Out-of-int-range values must not wrap through the int truncation
  // (-4294967294 would otherwise come out as jobs=2).
  EXPECT_FALSE(parse_jobs("-4294967294", &jobs));
  EXPECT_FALSE(parse_jobs("4294967298", &jobs));
}

// ---------------------------------------------------------------- analyze --

TEST(Analyze, ObserveRequiresTracedZipperWorkflow) {
  ScenarioSpec spec;
  spec.workload = Workload::kSyntheticLinear;
  spec.producers = 4;
  spec.consumers = 2;
  ScenarioResult r;
  model::TraceObservation obs;
  EXPECT_FALSE(observe(spec, r, &obs));  // no method at all

  spec.method = Method::kDecaf;
  EXPECT_FALSE(observe(spec, r, &obs));  // not the Zipper runtime

  spec.method = Method::kZipper;
  EXPECT_FALSE(observe(spec, r, &obs));  // no sender_busy_s metric

  r.put("sender_busy_s", 3.0);
  r.put("analysis_busy_s", 2.0);
  ASSERT_TRUE(observe(spec, r, &obs));
  EXPECT_EQ(obs.producers, 4);
  EXPECT_EQ(obs.consumers, 2);
  EXPECT_DOUBLE_EQ(obs.transfer_total_s, 3.0);
  EXPECT_GT(obs.total_bytes, 0u);

  r.crashed = true;
  EXPECT_FALSE(observe(spec, r, &obs));
}

TEST(Analyze, PipelineWritesTraceAndCalibratedArtifacts) {
  ScenarioSpec base;
  base.cluster = "bridges";
  base.workload = Workload::kSyntheticLinear;
  base.steps = 2;
  base.producers = 8;
  base.consumers = 4;
  base.method = Method::kZipper;
  base.zipper.block_bytes = common::MiB;
  base.zipper.producer_buffer_blocks = 8;

  std::vector<ScenarioSpec> specs;
  for (int steps : {2, 3}) {
    auto s = base;
    s.steps = steps;
    s.label = "smoke/steps" + std::to_string(steps);
    specs.push_back(s);
  }

  const auto dir = std::filesystem::temp_directory_path() /
                   ("zipper_analyze_test_" + std::to_string(::getpid()));
  AnalyzeOptions opts;
  opts.artifacts_dir = dir.string();
  opts.table_ranks = 2;
  EXPECT_EQ(analyze_scenarios("smoke", specs, opts), 0);

  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream f(p);
    EXPECT_TRUE(f.good()) << p;
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
  };
  const std::string trace = slurp(dir / "smoke.trace.json");
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("smoke/steps2"), std::string::npos);
  EXPECT_NE(trace.find("smoke/steps3"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  const std::string csv = slurp(dir / "smoke.analysis.csv");
  EXPECT_NE(csv.find("attr_stall_s"), std::string::npos);
  EXPECT_NE(csv.find("calib_rel_err"), std::string::npos);
  EXPECT_NE(csv.find("calib_end_to_end_s"), std::string::npos);
  const std::string json = slurp(dir / "smoke.analysis.json");
  EXPECT_NE(json.find("\"calib_rel_err\""), std::string::npos);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Analyze, CalibrationPredictsTheCalibrationScenarioItself) {
  // Fit on one traced scenario and predict the same scenario: the model's
  // Tt2s must land within pipeline-fill distance of the measured time.
  ScenarioSpec spec;
  spec.cluster = "bridges";
  spec.workload = Workload::kSyntheticLinear;
  spec.steps = 3;
  spec.producers = 8;
  spec.consumers = 4;
  spec.method = Method::kZipper;
  spec.zipper.block_bytes = common::MiB;
  spec.zipper.producer_buffer_blocks = 8;
  spec.record_traces = true;
  spec.label = "roundtrip";

  const auto r = run_scenario(spec);
  ASSERT_FALSE(r.crashed);
  model::TraceObservation obs;
  ASSERT_TRUE(observe(spec, r, &obs));
  const auto calib = model::fit(obs);
  ASSERT_TRUE(calib.valid);
  const auto in = model::calibrated_input(
      calib, obs.total_bytes, spec.zipper.block_bytes, obs.producers,
      obs.consumers, spec.zipper.preserve);
  const auto pred = model::predict(in);
  const double err = model::relative_error(r.get("end_to_end_s"), pred);
  ASSERT_TRUE(std::isfinite(err));
  EXPECT_LT(std::abs(err), 0.35) << "measured " << r.get("end_to_end_s")
                                 << " predicted " << pred.t_end_to_end;
}
