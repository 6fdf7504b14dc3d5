// The benchmark driver: one workload per process (so peak RSS and allocator
// state never leak between workloads), pinned to fixed CPUs, printing one
// JSON result line. Usually started through perfbench/run.py, which builds
// it first:
//
//   perfbench --workload <des_figures|svc_stream|svc_sessions|rt_inproc>
//             --seed N --seconds S --trace <0|1>
//             [--work-dir DIR] [--golden tools/golden_quick.sha256]
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr const char* kEndToEnd[] = {"setup_s", "throughput_per_s",
                                     "latency_p50_ms", "latency_p90_ms",
                                     "peak_rss_mb"};

// Per-layer metrics of the service sides, which only the svc_* workloads
// have; elsewhere they read 0 (no client, no daemon, no session).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kServiceLayer[] = {
    {"client.syscalls_per_block", "count"},
    {"daemon.syscalls_per_block", "count"},
    {"client.ctx_switches_per_block", "count"},
    {"daemon.ctx_switches_per_block", "count"},
    {"client.allocs_per_block", "count"},
    {"daemon.allocs_per_block", "count"},
    {"client.busy_share", "share"},
    {"daemon.busy_share", "share"},
    {"svc.sessions_failed", "count"},
    {"svc.blocks_from_disk", "count"},
    {"svc.put_retries", "count"}};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <des_figures|svc_stream|svc_sessions|"
               "rt_inproc> --seed N --seconds S --trace <0|1> "
               "[--work-dir DIR] [--golden PATH]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (a.seconds <= 0) return false;
    } else if (k == "--trace") {
      a.trace = std::string(v) == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--golden") {
      a.golden = v;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage(argv[0]);
  const bool des = a.workload == "des_figures";
  const bool stream = a.workload == "svc_stream";
  const bool sessions = a.workload == "svc_sessions";
  const bool rt = a.workload == "rt_inproc";
  if (!des && !stream && !sessions && !rt) return usage(argv[0]);

  // One malloc arena. With glibc's per-thread arenas, peak RSS depended on
  // which arena each new runtime thread drew: 39-54 MB between identical
  // rt_inproc runs, against 29.4-29.8 MB with one arena at the same
  // throughput.
  ::mallopt(M_ARENA_MAX, 1);
  counters_init();
  // Fixed CPUs: the highest allowed one for the benchmark, the next one down
  // for the daemon.
  const std::vector<int> cpus = allowed_cpus();
  Cpus pinned;
  if (!cpus.empty()) {
    pinned.bench = {cpus.back()};
    pinned.daemon = {cpus[cpus.size() >= 2 ? cpus.size() - 2 : 0]};
    // rt_inproc has no daemon; its three application threads and the
    // pool's service threads share the two CPUs.
    if (rt) pinned.bench = {pinned.daemon.front(), cpus.back()};
    pin(0, pinned.bench);
  }

  Tracer t(a.trace);
  Result r;
  try {
    std::filesystem::create_directories(a.work_dir);
    if (des) r = run_des_figures(a, t);
    if (stream || sessions) r = run_svc(a, pinned, t, stream);
    if (rt) r = run_rt_inproc(a, t);
    if (a.trace && r.correct) {
      if (!r.has("sim.events")) probe_des(r, a, t);
      if (!r.has("frame.encode_ns")) probe_wire(r, 64u << 10, t);
      if (!r.has("rt.write_us_p50")) probe_rt(r, a, t);
      for (const LayerMetric& m : kServiceLayer) {
        if (!r.has(m.name)) r.put(m.name, 0, m.unit);
      }
    }
  } catch (const std::exception& e) {
    r.fail(e.what());
  }
  if (a.trace) t.write(a.work_dir + "/" + a.workload + ".trace.json");
  if (!a.trace) {
    for (const char* m : kEndToEnd) {
      if (!r.has(m)) r.fail(std::string("missing metric ") + m);
    }
  }
  if (r.attempted == 0) r.attempted = 1;
  if (!r.correct) std::fprintf(stderr, "perfbench: FAILED: %s\n", r.error.c_str());
  std::printf("%s\n", r.json().c_str());
  return r.correct ? 0 : 1;
}
