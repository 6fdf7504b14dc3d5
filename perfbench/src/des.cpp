// des_figures: the quick-mode scenario sets of fig12, fig14 and
// hybrid_staging, run serially through exp::run_scenario on one pinned
// thread. Each pass is checked against the repository's golden digests.
#include <unistd.h>

#include <exception>
#include <map>

#include "exp/artifacts.hpp"
#include "exp/registry.hpp"
#include "exp/scenario.hpp"
#include "oracles.hpp"
#include "workflow/cluster.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace exp = zipper::exp;
using zipper::trace::Cat;

constexpr const char* kFigures[] = {"fig12", "fig14", "hybrid_staging"};
constexpr std::size_t kNumFigures = std::size(kFigures);
// No pass starts after this, so a slow host still exits well within 180 s.
constexpr double kLastPassStartS = 100;

struct Scenario {
  std::size_t fig;
  exp::ScenarioSpec spec;
};

std::vector<Scenario> expand(const std::vector<std::size_t>& figs) {
  std::vector<Scenario> out;
  for (std::size_t f : figs) {
    for (auto& s : exp::find_figure(kFigures[f])->scenarios(false)) {
      out.push_back(Scenario{f, std::move(s)});
    }
  }
  return out;
}

struct Pass {
  std::vector<double> seconds;  // per scenario, in expansion order
  std::uint64_t events = 0;     // DES events dispatched (count_events only)
  std::uint64_t failed = 0;     // scenarios of figures that missed the oracle
  std::string error;
};

/// One serial pass over every scenario. With `golden`, each figure's CSV is
/// checked against its pinned digest; with `count_events`, scenarios keep
/// their cluster so the kernel's dispatch count can be read back.
Pass run_pass(const std::vector<Scenario>& sc,
              const std::map<std::string, std::string>* golden,
              bool count_events, zipper::trace::Recorder* rec,
              const Tracer& t) {
  Pass p;
  std::vector<std::vector<exp::ScenarioResult>> by_fig(kNumFigures);
  for (const Scenario& s : sc) {
    exp::ScenarioSpec spec = s.spec;
    if (count_events) spec.record_traces = true;
    const std::int64_t t0 = now_ns();
    exp::ScenarioResult res;
    try {
      Span span(rec, t, static_cast<int>(s.fig), Cat::kCompute);
      res = exp::run_scenario(spec);
    } catch (const std::exception& e) {
      ++p.failed;
      if (p.error.empty()) p.error = spec.label + ": " + e.what();
      continue;
    }
    p.seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (res.cluster) p.events += res.cluster->sim.events_dispatched();
    res.cluster.reset();
    by_fig[s.fig].push_back(std::move(res));
  }
  for (std::size_t f = 0; golden && f < kNumFigures; ++f) {
    if (by_fig[f].empty()) continue;
    const std::string err =
        check_figure(*golden, kFigures[f], exp::to_csv(by_fig[f]));
    if (!err.empty()) {
      p.failed += by_fig[f].size();
      if (p.error.empty()) p.error = err;
    }
  }
  return p;
}

/// Per-scenario median over passes: one host episode only moves the
/// scenarios it overlapped, and only if it hit most passes.
std::vector<double> scenario_medians(const std::vector<Pass>& passes) {
  std::vector<double> out;
  for (std::size_t i = 0; i < passes.front().seconds.size(); ++i) {
    std::vector<double> v;
    for (const Pass& p : passes) {
      if (i < p.seconds.size()) v.push_back(p.seconds[i]);
    }
    out.push_back(median(v));
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

Result run_des_figures(const Args& a, Tracer& t) {
  Result r;
  const auto golden = load_golden(a.golden);
  if (golden.empty()) {
    r.attempted = r.failed = 1;
    r.fail("no golden digests in " + a.golden);
    return r;
  }

  // Set-up: spec expansion plus one untimed warm-up scenario.
  zipper::trace::Recorder* setup_rec = t.row("setup");
  std::vector<double> setup;
  std::vector<Scenario> sc;
  for (int k = 0; k < kSetups; ++k) {
    Span span(setup_rec, t, 0, Cat::kCompute);
    const std::int64_t t0 = now_ns();
    sc = expand({0, 1, 2});
    exp::run_scenario(sc.front().spec);
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  log_sample("setup seconds", setup);

  const std::int64_t start = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  auto passes_until = [&](double until_s, std::size_t min_passes,
                          zipper::trace::Recorder* rec) {
    std::vector<Pass> ps;
    while (ps.size() < min_passes ||
           (elapsed() < until_s && elapsed() < kLastPassStartS)) {
      ps.push_back(run_pass(sc, &golden, false, rec, t));
    }
    return ps;
  };
  auto account = [&](const std::vector<Pass>& ps) {
    for (const Pass& p : ps) {
      r.attempted += sc.size();
      r.failed += p.failed;
      if (!p.error.empty()) r.fail(p.error);
    }
  };

  if (!a.trace) {
    const auto passes = passes_until(a.seconds, 3, nullptr);
    account(passes);
    const auto m = scenario_medians(passes);
    std::vector<double> pass_s;
    for (const Pass& p : passes) pass_s.push_back(sum(p.seconds));
    log_sample("pass seconds", pass_s);
    r.put("setup_s", median(setup), "s");
    r.put("throughput_per_s", static_cast<double>(m.size()) / sum(m), "1/s");
    // Latency is the time to regenerate one figure. Per-scenario times are
    // too uneven for percentiles: the middle of their sorted list has a gap
    // (83 -> 135 ms), so the p50 jumped by 24% between runs.
    std::vector<double> figure_s(kNumFigures, 0);
    for (std::size_t i = 0; i < m.size(); ++i) figure_s[sc[i].fig] += m[i];
    r.put("latency_p50_ms", percentile(figure_s, 50) * 1e3, "ms");
    r.put("latency_p90_ms", percentile(figure_s, 90) * 1e3, "ms");
    r.put("peak_rss_mb", peak_rss_mb(::getpid()), "MB");
    return r;
  }

  // Traced: untraced then traced passes on the same process, for the
  // overhead share; main() adds the DES layer metrics through probe_des().
  const auto plain = passes_until(a.seconds / 2, 1, nullptr);
  account(plain);
  const auto traced = passes_until(a.seconds, 1, t.row("exp::run_scenario"));
  account(traced);
  r.put("bench.trace_overhead_share",
        1.0 - sum(scenario_medians(plain)) / sum(scenario_medians(traced)),
        "share");
  return r;
}

void probe_des(Result& r, const Args& a, Tracer& t) {
  // One pass over the des_figures set keeping each cluster, for the exact
  // event count (record_traces adds CSV columns, so this pass has no digest
  // to match), then one checked pass that is timed and counts allocations.
  const auto golden = load_golden(a.golden);
  const auto sc = expand({0, 1, 2});
  const Pass counted = run_pass(sc, nullptr, true, nullptr, t);
  const std::uint64_t allocs0 = allocs(kSelf);
  set_counting(true);
  const Pass timed =
      run_pass(sc, &golden, false, t.row("probe.exp::run_scenario"), t);
  set_counting(false);
  if (!counted.error.empty()) r.fail("DES probe: " + counted.error);
  if (!timed.error.empty()) r.fail("DES probe: " + timed.error);
  const double events = static_cast<double>(counted.events);
  r.put("sim.events", events, "count");
  r.put("sim.ns_per_event", sum(timed.seconds) * 1e9 / events, "ns");
  r.put("des.allocs_per_event",
        static_cast<double>(allocs(kSelf) - allocs0) / events, "count");
}

}  // namespace perfbench
