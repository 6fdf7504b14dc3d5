// zipper_lab — the scenario lab CLI.
//
//   zipper_lab list [--names]            registered figures and ablations
//   zipper_lab run <name...> [--full] [-j N] [--no-artifacts]
//                                        reproduce paper figures; writes
//                                        CSV/JSON artifacts per figure
//                  [--sim-threads N]     shard the virtual-time DES (byte-
//                                        identical artifacts at any N)
//                  [--rt]                threaded-executor smoke: a scaled-
//                                        down cut of the figure's Zipper
//                                        scenario on the real runtime
//                  [--net]               real-socket smoke: the same cut as
//                                        an in-process zipperd + client
//                                        coupling over localhost TCP
//   zipper_lab sweep [axis flags] [-j N] run a custom experiment grid the
//                                        paper never shipped
//   zipper_lab analyze <name...|axis flags>
//                                        performance-analysis pipeline: runs
//                                        the scenarios traced, prints per-rank
//                                        stall attribution, fits the §4.4
//                                        model from the traces, and writes
//                                        Chrome-trace + analysis artifacts
//   zipper_lab tune <name...> [--objective=e2e|stall] [--budget=N]
//                                        model-guided auto-tuner: probes the
//                                        figure's first Zipper scenario,
//                                        calibrates the model, scores the
//                                        schedule-knob grid analytically, and
//                                        validates the top candidates with
//                                        successive-halving DES runs; writes
//                                        <name>.tune.{csv,json}
//
// Sweep axes (comma-separated lists; each optional):
//   --method=zipper,decaf,flexpath,mpiio,dataspaces,dimes,
//            adios-dataspaces,adios-dimes,sim-only
//   --workload=cfd-bridges|cfd-stampede2|lammps|synthetic-{linear,nlogn,n32}
//   --cores=204,408        (2/3 producers + 1/3 consumers)
//   --producers=N --consumers=M   (explicit split; conflicts with --cores)
//   --steps=8,20           --block-kib=256,1024
//   --steal=0.25,0.5       (writer high-water threshold)
//   --preserve=0,1         --seeds=11,22,33
//   --route=static,rr,lq   (block->consumer routing policy)
//   --spill=hw,hyst,adapt  (writer spill policy)
//   --consumer-steal=0,1   (idle consumers pull from overloaded peers)
//   --adaptive-block=0,1   (stall-adaptive block sizing)
//   --straggler=1x4        (chaos: <count> consumers <factor>x slower)
//   --fault=2x8@0.5        (chaos: <events> transient <factor>x slowdowns,
//                           ~<seconds> each, with recovery)
//   --burst=0.7,0.7@2      (chaos: bursty PFS interference <intensity>[@<period_s>])
//   --drift=3,3@6          (chaos: compute phases drift <factor>[@<period_steps>])
//   --adapt=0,1            (attach the online adaptive controller)
//   --stages=1,2,3         (pipeline chain depth; 1 = the single hop)
//   --fan=1,2,4            (pipeline fan-in divisor per derived stage)
//   --compress=1,2,8       (pipeline per-edge compression, edges >= 1)
//   --staging=0,1          (pipeline interior stages: staging nodes vs colocated)
// Scalars: --cluster=bridges|stampede2, --servers=N, --chaos-seed=N,
//   --low-water=0.25 (hysteresis stop fraction), --steal-min=N,
//   --bg-intensity=0.4 (shared-PFS interference, pairs with --seeds),
//   --model (emit model::predict comparison columns), --trace
// Output: -j N, --csv=FILE, --json=FILE, --quiet, --label=PREFIX
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/chaos/chaos.hpp"
#include "core/rt/runtime.hpp"
#include "core/sched/sched.hpp"
#include "core/zipper/net_service.hpp"
#include "exp/analyze.hpp"
#include "opt/tuner.hpp"
#include "exp/artifacts.hpp"
#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "exp/lab.hpp"
#include "exp/registry.hpp"
#include "workflow/cluster.hpp"

using namespace zipper;
using namespace zipper::exp;

namespace {

int usage(int code) {
  std::printf(
      "zipper_lab — declarative scenario lab for the zipper reproduction\n"
      "\n"
      "  zipper_lab list [--names]\n"
      "  zipper_lab run <figure...> [--full] [-j N] [--sim-threads N]\n"
      "                 [--rt] [--net]\n"
      "                 [--no-artifacts] [--artifacts-dir=DIR] [--progress]\n"
      "  zipper_lab sweep [axis flags] [-j N] [--csv=F] [--json=F] [--quiet]\n"
      "  zipper_lab analyze <figure...|axis flags> [--full] [-j N]\n"
      "                 [--ranks=N] [--artifacts-dir=DIR] [--no-artifacts]\n"
      "  zipper_lab tune <figure...> [--objective=e2e|stall] [--budget=N]\n"
      "                 [--rounds=N] [--block-kib=a,b] [--steal=a,b]\n"
      "                 [--servers=a,b] [--full] [-j N] [--progress]\n"
      "                 [--artifacts-dir=DIR] [--no-artifacts]\n"
      "\n"
      "Run `zipper_lab list` for the registered figures; see docs/figures.md\n"
      "for the figure-by-figure map and README.md for sweep examples.\n");
  return code;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool flag_value(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// Every sweep flag, kept next to the parser below so a typoed flag can be
// rejected with the full menu instead of a bare "unknown flag".
constexpr const char* kSweepAxisHelp[] = {
    "--method=zipper,decaf,...   I/O transport (or sim-only)",
    "--workload=cfd-bridges|cfd-stampede2|lammps|synthetic-{linear,nlogn,n32}",
    "--cores=204,408             total cores, 2/3 producers + 1/3 consumers",
    "--producers=N --consumers=M explicit rank split (conflicts with --cores)",
    "--steps=8,20                simulation steps",
    "--block-kib=256,1024        Zipper block size",
    "--steal=0.25,0.5            writer high-water threshold",
    "--preserve=0,1              Preserve mode",
    "--route=static,rr,lq        block->consumer routing policy",
    "--spill=hw,hyst,adapt       writer spill policy",
    "--consumer-steal=0,1        idle consumers pull from overloaded peers",
    "--adaptive-block=0,1        stall-adaptive block sizing",
    "--seeds=11,22,33            background-load replication seeds",
    "--straggler=1x4             chaos: <count> consumers <factor>x slower",
    "--fault=2x8@0.5             chaos: <events> transient <factor>x slowdowns, ~<seconds> each",
    "--burst=0.7,0.7@2           chaos: bursty PFS interference <intensity>[@<period_s>]",
    "--drift=3,3@6               chaos: compute drift <factor>[@<period_steps>]",
    "--adapt=0,1                 attach the online adaptive controller",
    "--stages=1,2,3              pipeline chain depth (1 = the single hop)",
    "--fan=1,2,4                 pipeline fan-in divisor per derived stage",
    "--compress=1,2,8            pipeline per-edge compression (edges >= 1)",
    "--staging=0,1               pipeline interior stages: staging nodes (1) or colocated (0)",
    "--sim-threads=1,2,4         sharded-DES worker threads (shard_* columns; results byte-identical)",
};
constexpr const char* kSweepScalarHelp[] = {
    "--cluster=bridges|stampede2", "--servers=N",
    "--low-water=0.25 (hysteresis stop fraction)",
    "--steal-min=N (min victim queue depth for consumer stealing)",
    "--chaos-seed=N (chaos-engine seed; the chaos axes replay bit-for-bit)",
    "--bg-intensity=0.4", "--label=PREFIX", "--model", "--trace",
    "--csv=FILE", "--json=FILE", "-j N", "--quiet",
};

int unknown_sweep_flag(const std::string& arg) {
  std::fprintf(stderr, "sweep: unknown flag '%s'\n\nvalid axes:\n", arg.c_str());
  for (const char* h : kSweepAxisHelp) std::fprintf(stderr, "  %s\n", h);
  std::fprintf(stderr, "scalars/output:\n");
  for (const char* h : kSweepScalarHelp) std::fprintf(stderr, "  %s\n", h);
  return 2;
}

int cmd_list(int argc, char** argv) {
  bool names_only = false;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--names") names_only = true;
  }
  if (names_only) {
    for (const auto& fig : registry()) std::printf("%s\n", fig.name.c_str());
    return 0;
  }
  std::printf("%-26s %-10s %-4s %s\n", "name", "paper", "runs", "what it shows");
  for (const auto& fig : registry()) {
    std::printf("%-26s %-10s %4zu %s\n", fig.name.c_str(), fig.paper.c_str(),
                fig.scenarios(false).size(), fig.title.c_str());
    std::printf("%-26s %-10s %4s   expect: %s\n", "", "", "", fig.expect.c_str());
  }
  std::printf("\n%zu figures registered. `zipper_lab run <name>` reproduces "
              "one; `zipper_lab sweep` goes beyond the paper.\n",
              registry().size());
  return 0;
}

// Every `run` flag, kept next to the parser below so a typoed flag or a bad
// value is rejected eagerly with the full menu — the same error style the
// sweep axes use — instead of a bare "unknown flag".
constexpr const char* kRunFlagHelp[] = {
    "--full                      full-scale scenario set (paper-scale ranks)",
    "--rt                        embedded-runtime smoke: run a scaled-down cut",
    "                            of the figure's first Zipper scenario on",
    "                            core/rt (app threads + one epoll loop thread)",
    "--net                       real-socket smoke: the same scaled-down cut",
    "                            as an in-process zipperd + client coupling",
    "                            over localhost TCP (EpollExecutor runtime)",
    "--sim-threads N             sharded virtual-time DES worker threads",
    "                            (artifacts byte-identical at any value)",
    "-j N                        scenario-level parallelism",
    "--no-artifacts              skip the CSV/JSON artifact files",
    "--artifacts-dir=DIR         artifact output directory",
    "--progress                  live per-scenario progress lines",
};

int bad_run_flag(const char* why, const std::string& arg) {
  std::fprintf(stderr, "run: %s '%s'\n\nvalid run flags:\n", why, arg.c_str());
  for (const char* h : kRunFlagHelp) std::fprintf(stderr, "  %s\n", h);
  return 2;
}

/// `run <figure> --rt`: a scaled-down cut of the figure's first Zipper
/// scenario on the real threaded runtime — same unified body the DES runs
/// execute, its services on one EpollExecutor loop thread and the
/// application on producer/consumer threads. Real spill files;
/// verifies exactly-once delivery and prints the unified endpoint counters.
int run_figure_rt_smoke(const FigureDef& fig) {
  const auto specs = fig.scenarios(false);
  const ScenarioSpec* base = nullptr;
  for (const auto& s : specs) {
    if (s.kind == ScenarioKind::kWorkflow && s.method &&
        *s.method == transports::Method::kZipper) {
      base = &s;
      break;
    }
  }
  if (!base) {
    std::fprintf(stderr,
                 "run: figure '%s' has no Zipper workflow scenario to run "
                 "with --rt\n",
                 fig.name.c_str());
    return 2;
  }
  const int P = std::clamp(base->producers, 1, 8);
  const int Q = std::clamp(base->effective_consumers(), 1, 4);
  const int steps = std::clamp(base->steps, 1, 4);
  constexpr int kBlocksPerStep = 4;
  const std::size_t block_bytes = static_cast<std::size_t>(
      std::min<std::uint64_t>(base->zipper.block_bytes, 256 * 1024));

  core::rt::Config cfg;
  cfg.enable_steal = base->zipper.enable_steal;
  cfg.high_water = base->zipper.high_water;
  cfg.producer_buffer_blocks = 4;
  cfg.network_bandwidth = 100e6;  // throttled so the dual channel engages
  core::rt::Runtime rt(P, Q, cfg);

  std::vector<std::thread> workers;
  for (int p = 0; p < P; ++p) {
    workers.emplace_back([&rt, p, steps, block_bytes] {
      std::vector<std::byte> payload(block_bytes,
                                     static_cast<std::byte>(p & 0xFF));
      for (int s = 0; s < steps; ++s)
        for (int b = 0; b < kBlocksPerStep; ++b)
          rt.producer(p).write(core::BlockId{s, p, b}, payload);
      rt.producer(p).finish();
    });
  }
  std::mutex m;
  std::uint64_t delivered = 0, bytes = 0;
  for (int c = 0; c < Q; ++c) {
    workers.emplace_back([&rt, &m, &delivered, &bytes, c] {
      while (auto block = rt.consumer(c).read()) {
        std::lock_guard<std::mutex> lock(m);
        ++delivered;
        bytes += block->payload.size();
      }
    });
  }
  for (auto& t : workers) t.join();

  std::uint64_t sent = 0, stolen = 0, stall_ns = 0;
  for (int p = 0; p < P; ++p) {
    const auto s = rt.producer(p).stats();
    sent += s.blocks_sent;
    stolen += s.blocks_stolen;
    stall_ns += s.stall_ns;
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(P) * steps * kBlocksPerStep;
  std::printf(
      "%s --rt: %d producers -> %d consumers, %llu blocks "
      "(%llu via network, %llu stolen to disk), %.1f MiB, stall %.2f ms\n",
      fig.name.c_str(), P, Q, static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(stolen),
      static_cast<double>(bytes) / (1024.0 * 1024.0),
      static_cast<double>(stall_ns) / 1e6);
  if (delivered != expected) {
    std::fprintf(stderr, "run: --rt delivered %llu of %llu blocks\n",
                 static_cast<unsigned long long>(delivered),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  return 0;
}

/// `run <figure> --net`: the same scaled-down cut as --rt, but as a real
/// TCP coupling — an in-process zipperd on a background thread, the client
/// load driver on this one, blocks crossing a localhost socket as frames.
/// Verifies exactly-once delivery end to end (the --net acceptance check).
int run_figure_net_smoke(const FigureDef& fig) {
  const auto specs = fig.scenarios(false);
  const ScenarioSpec* base = nullptr;
  for (const auto& s : specs) {
    if (s.kind == ScenarioKind::kWorkflow && s.method &&
        *s.method == transports::Method::kZipper) {
      base = &s;
      break;
    }
  }
  if (!base) {
    std::fprintf(stderr,
                 "run: figure '%s' has no Zipper workflow scenario to run "
                 "with --net\n",
                 fig.name.c_str());
    return 2;
  }
  namespace net = core::zbody::net;
  constexpr int kBlocksPerStep = 4;
  net::ClientOptions copts;
  copts.sessions = 2;
  copts.concurrency = 2;
  copts.spec.producers =
      static_cast<std::uint32_t>(std::clamp(base->producers, 1, 8));
  copts.spec.consumers =
      static_cast<std::uint32_t>(std::clamp(base->effective_consumers(), 1, 4));
  copts.spec.steps = static_cast<std::uint32_t>(std::clamp(base->steps, 1, 4));
  copts.spec.block_bytes =
      std::min<std::uint64_t>(base->zipper.block_bytes, 256 * 1024);
  copts.spec.step_bytes = copts.spec.block_bytes * kBlocksPerStep;
  copts.spec.enable_steal = base->zipper.enable_steal;
  copts.spec.high_water = base->zipper.high_water;

  net::ServerOptions sopts;  // port 0: kernel-assigned, flake-proof
  net::ZipperdServer server(std::move(sopts));
  copts.port = server.port();
  std::thread daemon([&server] { server.run(); });
  const net::ClientResult res = net::run_client_load(copts);
  server.request_stop();
  daemon.join();

  std::printf(
      "%s --net: %u producers -> %u consumers over 127.0.0.1:%u, "
      "%llu sessions, %llu blocks (%llu net, %llu disk), "
      "p50 %.3f ms, p99 %.3f ms\n",
      fig.name.c_str(), copts.spec.producers, copts.spec.consumers,
      static_cast<unsigned>(copts.port),
      static_cast<unsigned long long>(res.sessions_ok),
      static_cast<unsigned long long>(res.blocks_analyzed),
      static_cast<unsigned long long>(res.blocks_from_network),
      static_cast<unsigned long long>(res.blocks_from_disk),
      static_cast<double>(res.latency_p50_ns()) / 1e6,
      static_cast<double>(res.latency_p99_ns()) / 1e6);
  if (!res.all_ok() || !res.exactly_once()) {
    std::fprintf(stderr, "run: --net delivered %llu of %llu blocks (%s)\n",
                 static_cast<unsigned long long>(res.blocks_analyzed),
                 static_cast<unsigned long long>(res.blocks_expected),
                 res.errors.empty() ? "no error detail"
                                    : res.errors.front().c_str());
    return 1;
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  LabOptions opts;
  opts.write_artifacts = true;
  bool rt = false;
  bool net_smoke = false;
  bool sim_threads_given = false;
  std::vector<std::string> names;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (arg == "--full") {
      opts.full = true;
    } else if (arg == "--rt") {
      rt = true;
    } else if (arg == "--net") {
      net_smoke = true;
    } else if (arg == "--no-artifacts") {
      opts.write_artifacts = false;
    } else if (flag_value(arg, "--artifacts-dir", &v)) {
      opts.artifacts_dir = v;
    } else if (arg == "-j" && i + 1 < argc) {
      if (!parse_jobs(argv[++i], &opts.jobs)) {
        return bad_run_flag("invalid -j value", argv[i]);
      }
    } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
      if (!parse_jobs(arg.c_str() + 2, &opts.jobs)) {
        return bad_run_flag("invalid -j value", arg.c_str() + 2);
      }
    } else if (arg == "--sim-threads" && i + 1 < argc) {
      if (!parse_jobs(argv[++i], &opts.sim_threads)) {
        return bad_run_flag("invalid --sim-threads value", argv[i]);
      }
      sim_threads_given = true;
    } else if (flag_value(arg, "--sim-threads", &v)) {
      if (!parse_jobs(v.c_str(), &opts.sim_threads)) {
        return bad_run_flag("invalid --sim-threads value", v);
      }
      sim_threads_given = true;
    } else if (arg == "--progress") {
      opts.progress = true;
    } else if (arg == "all") {
      for (const auto& fig : registry()) names.push_back(fig.name);
    } else if (!arg.empty() && arg[0] == '-') {
      return bad_run_flag("unknown flag", arg);
    } else {
      names.push_back(arg);
    }
  }
  // Runtime selection is validated eagerly, before anything runs: --rt picks
  // the threaded executor, --sim-threads shards the virtual-time executor —
  // one run cannot use both clocks.
  if (rt && sim_threads_given) {
    std::fprintf(stderr,
                 "run: --rt (threaded executor, real time) contradicts "
                 "--sim-threads (sharded virtual-time DES); pick one "
                 "runtime\n");
    return 2;
  }
  if (net_smoke && rt) {
    std::fprintf(stderr,
                 "run: --net (epoll executor, real sockets) contradicts "
                 "--rt (threaded executor); pick one runtime\n");
    return 2;
  }
  if (net_smoke && sim_threads_given) {
    std::fprintf(stderr,
                 "run: --net (epoll executor, real sockets) contradicts "
                 "--sim-threads (sharded virtual-time DES); pick one "
                 "runtime\n");
    return 2;
  }
  if (rt && opts.full) {
    std::fprintf(stderr,
                 "run: --rt is a scaled-down threaded smoke; --full scales "
                 "are virtual-time only (drop one of the flags)\n");
    return 2;
  }
  if (net_smoke && opts.full) {
    std::fprintf(stderr,
                 "run: --net is a scaled-down real-socket smoke; --full "
                 "scales are virtual-time only (drop one of the flags)\n");
    return 2;
  }
  if (names.empty()) {
    std::fprintf(stderr, "run: no figure named; try `zipper_lab list`\n");
    return 2;
  }
  if (opts.jobs < 1) opts.jobs = 1;
  if (opts.sim_threads < 1) opts.sim_threads = 1;
  for (const auto& name : names) {
    const FigureDef* fig = find_figure(name);
    if (!fig) {
      std::fprintf(stderr, "unknown figure '%s'; try `zipper_lab list`\n",
                   name.c_str());
      return 2;
    }
    const int rc = net_smoke ? run_figure_net_smoke(*fig)
                   : rt      ? run_figure_rt_smoke(*fig)
                             : run_figure(*fig, opts);
    if (rc != 0) return rc;
  }
  return 0;
}

// Everything the sweep-flag parser can set, shared by `sweep` (which runs
// the grid and prints the result table) and `analyze` (which runs the grid
// through the performance-analysis pipeline).
struct SweepCli {
  SweepGrid grid;
  int jobs = 1;
  bool quiet = false;
  bool with_model = false;
  bool explicit_ranks = false;
  bool non_job_flag_seen = false;  // any flag other than -j consumed
  std::string csv_path, json_path;

  SweepCli() {
    grid.base.steps = 8;
    grid.base.producers = 136;  // 204 cores at the 2:1 split
    grid.base.consumers = 68;
    grid.base.method = transports::Method::kZipper;
  }
};

/// Cross-flag validation shared by every command that parses sweep flags.
/// Returns 0 when consistent, 2 (after reporting) otherwise.
int check_sweep_conflicts(const SweepCli& cli, const char* cmd) {
  if (cli.explicit_ranks && !cli.grid.cores.empty()) {
    // The --cores axis would silently overwrite the explicit split.
    std::fprintf(stderr,
                 "%s: --producers/--consumers conflict with --cores; "
                 "use one or the other\n",
                 cmd);
    return 2;
  }
  return 0;
}

/// Parses the sweep flag at argv[*i] (consuming argv[*i + 1] for "-j N").
/// Returns 0 when consumed, 1 when argv[*i] is not a sweep flag, 2 on a
/// malformed value (already reported to stderr).
int parse_one_sweep_flag(int argc, char** argv, int* i, SweepCli* cli) {
  SweepGrid& grid = cli->grid;
  const std::string arg = argv[*i];
  std::string v;
  cli->non_job_flag_seen = cli->non_job_flag_seen || arg.rfind("-j", 0) != 0;
  {
    if (flag_value(arg, "--method", &v)) {
      for (const auto& tok : split_csv(v)) {
        if (tok == "sim-only" || tok == "none") {
          grid.methods.push_back(std::nullopt);
          continue;
        }
        const auto m = transports::parse_method(tok);
        if (!m) {
          std::fprintf(stderr, "unknown method '%s'\n", tok.c_str());
          return 2;
        }
        grid.methods.push_back(*m);
      }
    } else if (flag_value(arg, "--workload", &v)) {
      for (const auto& tok : split_csv(v)) {
        const auto w = parse_workload(tok);
        if (!w) {
          std::fprintf(stderr, "unknown workload '%s'\n", tok.c_str());
          return 2;
        }
        grid.workloads.push_back(*w);
      }
    } else if (flag_value(arg, "--cores", &v)) {
      for (const auto& tok : split_csv(v)) grid.cores.push_back(std::atoi(tok.c_str()));
    } else if (flag_value(arg, "--producers", &v)) {
      grid.base.producers = std::atoi(v.c_str());
      cli->explicit_ranks = true;
    } else if (flag_value(arg, "--consumers", &v)) {
      grid.base.consumers = std::atoi(v.c_str());
      cli->explicit_ranks = true;
    } else if (flag_value(arg, "--servers", &v)) {
      grid.base.servers = std::atoi(v.c_str());
    } else if (flag_value(arg, "--steps", &v)) {
      for (const auto& tok : split_csv(v)) grid.steps.push_back(std::atoi(tok.c_str()));
    } else if (flag_value(arg, "--sim-threads", &v)) {
      for (const auto& tok : split_csv(v)) {
        const int t = std::atoi(tok.c_str());
        if (t < 1) {
          std::fprintf(stderr, "invalid --sim-threads value '%s'\n", tok.c_str());
          return 2;
        }
        grid.sim_threads.push_back(t);
      }
    } else if (flag_value(arg, "--block-kib", &v)) {
      for (const auto& tok : split_csv(v)) {
        grid.block_kib.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      }
    } else if (flag_value(arg, "--steal", &v)) {
      for (const auto& tok : split_csv(v)) {
        grid.steal_thresholds.push_back(std::atof(tok.c_str()));
      }
    } else if (flag_value(arg, "--preserve", &v)) {
      for (const auto& tok : split_csv(v)) grid.preserve.push_back(std::atoi(tok.c_str()));
    } else if (flag_value(arg, "--route", &v)) {
      for (const auto& tok : split_csv(v)) {
        const auto r = core::sched::parse_route(tok);
        if (!r) {
          std::fprintf(stderr,
                       "unknown route policy '%s' (valid: static, rr, lq)\n",
                       tok.c_str());
          return 2;
        }
        grid.routes.push_back(*r);
      }
    } else if (flag_value(arg, "--spill", &v)) {
      for (const auto& tok : split_csv(v)) {
        const auto s = core::sched::parse_spill(tok);
        if (!s) {
          std::fprintf(stderr,
                       "unknown spill policy '%s' (valid: hw, hyst, adapt)\n",
                       tok.c_str());
          return 2;
        }
        grid.spills.push_back(*s);
      }
    } else if (flag_value(arg, "--consumer-steal", &v)) {
      for (const auto& tok : split_csv(v)) {
        grid.consumer_steal.push_back(std::atoi(tok.c_str()));
      }
    } else if (flag_value(arg, "--adaptive-block", &v)) {
      for (const auto& tok : split_csv(v)) {
        grid.adaptive_block.push_back(std::atoi(tok.c_str()));
      }
    } else if (flag_value(arg, "--straggler", &v)) {
      for (const auto& tok : split_csv(v)) {
        const auto s = core::chaos::parse_straggler(tok);
        if (!s) {
          std::fprintf(stderr,
                       "invalid straggler spec '%s' (grammar: "
                       "<count>x<factor>, e.g. 1x4; factor > 1; or off)\n",
                       tok.c_str());
          return 2;
        }
        grid.stragglers.push_back(*s);
      }
    } else if (flag_value(arg, "--fault", &v)) {
      for (const auto& tok : split_csv(v)) {
        const auto f = core::chaos::parse_fault(tok);
        if (!f) {
          std::fprintf(stderr,
                       "invalid fault spec '%s' (grammar: "
                       "<events>x<factor>@<seconds>, e.g. 2x8@0.5; factor > 1; "
                       "or off)\n",
                       tok.c_str());
          return 2;
        }
        grid.faults.push_back(*f);
      }
    } else if (flag_value(arg, "--burst", &v)) {
      for (const auto& tok : split_csv(v)) {
        const auto b = core::chaos::parse_burst(tok);
        if (!b) {
          std::fprintf(stderr,
                       "invalid burst spec '%s' (grammar: "
                       "<intensity>[@<period_s>], e.g. 0.7 or 0.7@2; "
                       "intensity in (0, 1]; or off)\n",
                       tok.c_str());
          return 2;
        }
        grid.bursts.push_back(*b);
      }
    } else if (flag_value(arg, "--drift", &v)) {
      for (const auto& tok : split_csv(v)) {
        const auto d = core::chaos::parse_drift(tok);
        if (!d) {
          std::fprintf(stderr,
                       "invalid drift spec '%s' (grammar: "
                       "<factor>[@<period_steps>], e.g. 3 or 3@6; factor > 1; "
                       "or off)\n",
                       tok.c_str());
          return 2;
        }
        grid.drifts.push_back(*d);
      }
    } else if (flag_value(arg, "--adapt", &v)) {
      for (const auto& tok : split_csv(v)) {
        grid.adaptive_control.push_back(std::atoi(tok.c_str()));
      }
    } else if (flag_value(arg, "--stages", &v)) {
      for (const auto& tok : split_csv(v)) {
        const int d = std::atoi(tok.c_str());
        if (d < 1) {
          std::fprintf(stderr,
                       "invalid --stages value '%s' (chain depth >= 1; 1 is "
                       "the single hop)\n",
                       tok.c_str());
          return 2;
        }
        grid.pipeline_stages.push_back(d);
      }
    } else if (flag_value(arg, "--fan", &v)) {
      for (const auto& tok : split_csv(v)) {
        const int f = std::atoi(tok.c_str());
        if (f < 1) {
          std::fprintf(stderr, "invalid --fan value '%s' (fan-in >= 1)\n",
                       tok.c_str());
          return 2;
        }
        grid.pipeline_fan.push_back(f);
      }
    } else if (flag_value(arg, "--compress", &v)) {
      for (const auto& tok : split_csv(v)) {
        const double c = std::atof(tok.c_str());
        if (!(c > 0)) {
          std::fprintf(stderr,
                       "invalid --compress value '%s' (compression factor "
                       "> 0, e.g. 2 halves the forwarded bytes)\n",
                       tok.c_str());
          return 2;
        }
        grid.pipeline_compress.push_back(c);
      }
    } else if (flag_value(arg, "--staging", &v)) {
      for (const auto& tok : split_csv(v)) {
        if (tok != "0" && tok != "1") {
          std::fprintf(stderr,
                       "invalid --staging value '%s' (0 = colocated helper "
                       "ranks, 1 = dedicated staging nodes)\n",
                       tok.c_str());
          return 2;
        }
        grid.pipeline_staging.push_back(tok == "1" ? 1 : 0);
      }
    } else if (flag_value(arg, "--chaos-seed", &v)) {
      grid.base.chaos.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag_value(arg, "--low-water", &v)) {
      grid.base.zipper.sched.low_water = std::atof(v.c_str());
    } else if (flag_value(arg, "--steal-min", &v)) {
      grid.base.zipper.sched.steal_min_queue =
          static_cast<std::size_t>(std::strtoull(v.c_str(), nullptr, 10));
    } else if (flag_value(arg, "--seeds", &v)) {
      for (const auto& tok : split_csv(v)) {
        grid.seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      }
    } else if (flag_value(arg, "--cluster", &v)) {
      if (!workflow::ClusterSpec::by_name(v)) {
        std::string known;
        for (const auto& n : workflow::ClusterSpec::known_names()) {
          known += known.empty() ? n : ", " + n;
        }
        std::fprintf(stderr, "unknown cluster '%s' (known clusters: %s)\n",
                     v.c_str(), known.c_str());
        return 2;
      }
      grid.base.cluster = v;
    } else if (flag_value(arg, "--bg-intensity", &v)) {
      grid.base.background_load_intensity = std::atof(v.c_str());
    } else if (flag_value(arg, "--label", &v)) {
      grid.label_prefix = v;
    } else if (arg == "--model") {
      cli->with_model = true;
    } else if (arg == "--trace") {
      grid.base.record_traces = true;
    } else if (flag_value(arg, "--csv", &v)) {
      cli->csv_path = v;
    } else if (flag_value(arg, "--json", &v)) {
      cli->json_path = v;
    } else if (arg == "-j" && *i + 1 < argc) {
      if (!parse_jobs(argv[++*i], &cli->jobs)) {
        std::fprintf(stderr, "invalid -j value '%s'\n", argv[*i]);
        return 2;
      }
    } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
      if (!parse_jobs(arg.c_str() + 2, &cli->jobs)) {
        std::fprintf(stderr, "invalid -j value '%s'\n", arg.c_str() + 2);
        return 2;
      }
    } else if (arg == "--quiet") {
      cli->quiet = true;
    } else {
      return 1;
    }
  }
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  SweepCli cli;
  for (int i = 2; i < argc; ++i) {
    const int rc = parse_one_sweep_flag(argc, argv, &i, &cli);
    if (rc == 2) return 2;
    if (rc == 1) return unknown_sweep_flag(argv[i]);
  }
  SweepGrid& grid = cli.grid;
  int jobs = cli.jobs;
  if (jobs < 1) jobs = 1;
  if (const int rc = check_sweep_conflicts(cli, "sweep")) return rc;
  grid.base.with_model = cli.with_model;

  auto specs = grid.expand();
  std::printf("sweep: %zu scenarios, %d thread%s\n", specs.size(), jobs,
              jobs == 1 ? "" : "s");

  SweepOptions sweep_opts;
  sweep_opts.jobs = jobs;
  if (!cli.quiet) {
    sweep_opts.on_done = [](const ScenarioSpec& spec, const ScenarioResult& r,
                            std::size_t done, std::size_t total) {
      std::fprintf(stderr, "[%zu/%zu] %-48s %s\n", done, total,
                   spec.label.c_str(),
                   r.crashed ? ("CRASH: " + r.note).c_str() : "");
    };
  }
  const auto results = run_sweep(specs, sweep_opts);

  // Compact result table: the metrics every scenario has.
  std::printf("\n%-48s %12s %12s %10s", "label", "end2end(s)", "stall(s)",
              "xmitwait");
  if (cli.with_model) std::printf(" %12s %9s", "model(s)", "err");
  std::printf("\n");
  for (const auto& r : results) {
    if (r.crashed) {
      std::printf("%-48s %12s   %s\n", r.label.c_str(), "CRASH", r.note.c_str());
      continue;
    }
    std::printf("%-48s %12.2f %12.2f %10.2e", r.label.c_str(),
                r.get("end_to_end_s"), r.get("stall_s"), r.get("xmit_wait"));
    if (cli.with_model && r.has("model_end_to_end_s")) {
      std::printf(" %12.2f %8.1f%%", r.get("model_end_to_end_s"),
                  r.get("model_rel_error") * 100.0);
    }
    std::printf("\n");
  }

  if (!cli.csv_path.empty()) {
    if (!write_file(cli.csv_path, to_csv(results))) {
      std::fprintf(stderr, "error: cannot write %s\n", cli.csv_path.c_str());
      return 1;
    }
    std::printf("\ncsv: %s\n", cli.csv_path.c_str());
  }
  if (!cli.json_path.empty()) {
    if (!write_file(cli.json_path, to_json(results))) {
      std::fprintf(stderr, "error: cannot write %s\n", cli.json_path.c_str());
      return 1;
    }
    std::printf("json: %s\n", cli.json_path.c_str());
  }
  return 0;
}

// ------------------------------------------------------------- analyze ----

int cmd_analyze(int argc, char** argv) {
  AnalyzeOptions opts;
  std::vector<std::string> names;
  SweepCli cli;
  cli.quiet = true;  // analyze prints its own tables

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (arg == "--full") {
      opts.full = true;
    } else if (arg == "--no-artifacts") {
      opts.write_artifacts = false;
    } else if (flag_value(arg, "--artifacts-dir", &v)) {
      opts.artifacts_dir = v;
    } else if (flag_value(arg, "--ranks", &v)) {
      int n = 0;
      if (!parse_jobs(v.c_str(), &n) || n < 1) {
        std::fprintf(stderr, "invalid --ranks value '%s'\n", v.c_str());
        return 2;
      }
      opts.table_ranks = static_cast<std::size_t>(n);
    } else if (arg == "--progress") {
      opts.progress = true;
    } else if (!arg.empty() && arg[0] != '-') {
      names.push_back(arg);
    } else {
      const int rc = parse_one_sweep_flag(argc, argv, &i, &cli);
      if (rc == 2) return 2;
      if (rc == 1) return unknown_sweep_flag(argv[i]);
    }
  }
  opts.jobs = cli.jobs < 1 ? 1 : cli.jobs;
  if (names.empty() && !cli.non_job_flag_seen) {
    // Nothing to analyze: fail fast instead of silently launching the
    // default sweep grid (136 traced ranks).
    std::fprintf(stderr,
                 "analyze: no figure or sweep axes given; try `zipper_lab "
                 "list` for figures or `zipper_lab help` for axis flags\n");
    return 2;
  }
  if (!names.empty() && cli.non_job_flag_seen) {
    std::fprintf(stderr,
                 "analyze: pass either figure names or sweep axis flags, "
                 "not both\n");
    return 2;
  }
  if (!cli.csv_path.empty() || !cli.json_path.empty() || cli.with_model) {
    std::fprintf(stderr,
                 "analyze: --csv/--json/--model are not applicable; the "
                 "pipeline always writes <name>.analysis.{csv,json} (use "
                 "--artifacts-dir) and always fits the model\n");
    return 2;
  }

  if (!names.empty()) {
    for (const auto& name : names) {
      const FigureDef* fig = find_figure(name);
      if (!fig) {
        std::fprintf(stderr, "unknown figure '%s'; try `zipper_lab list`\n",
                     name.c_str());
        return 2;
      }
      const int rc = analyze_figure(*fig, opts);
      if (rc != 0) return rc;
    }
    return 0;
  }

  // Grid mode: the sweep axes define the scenario set, analyzed under the
  // --label prefix (default "sweep").
  if (const int rc = check_sweep_conflicts(cli, "analyze")) return rc;
  return analyze_scenarios(cli.grid.label_prefix, cli.grid.expand(), opts);
}

// ---------------------------------------------------------------- tune ----

int cmd_tune(int argc, char** argv) {
  opt::TuneLabOptions opts;
  opt::SearchSpace space;
  bool full = false;
  bool progress = false;
  std::vector<std::string> names;
  // Accepts both `--flag=value` and `--flag value` for the tune knobs (the
  // latter reads the next argv slot, like `-j N`).
  const auto value_of = [&](const std::string& arg, const char* name,
                            int* i, std::string* v) {
    if (flag_value(arg, name, v)) return true;
    if (arg == name && *i + 1 < argc) {
      *v = argv[++*i];
      return true;
    }
    return false;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (arg == "--full") {
      full = true;
    } else if (arg == "--no-artifacts") {
      opts.write_artifacts = false;
    } else if (flag_value(arg, "--artifacts-dir", &v)) {
      opts.artifacts_dir = v;
    } else if (value_of(arg, "--objective", &i, &v)) {
      const auto o = opt::parse_objective(v);
      if (!o) {
        std::fprintf(stderr,
                     "unknown objective '%s' (valid: e2e, stall)\n", v.c_str());
        return 2;
      }
      opts.tune.objective = *o;
    } else if (value_of(arg, "--budget", &i, &v)) {
      int n = 0;
      if (!parse_jobs(v.c_str(), &n) || n < 2) {
        std::fprintf(stderr,
                     "invalid --budget value '%s' (need an integer >= 2)\n",
                     v.c_str());
        return 2;
      }
      opts.tune.budget = n;
    } else if (value_of(arg, "--rounds", &i, &v)) {
      int n = 0;
      if (!parse_jobs(v.c_str(), &n) || n < 1) {
        std::fprintf(stderr,
                     "invalid --rounds value '%s' (need an integer >= 1)\n",
                     v.c_str());
        return 2;
      }
      opts.tune.rounds = n;
    } else if (value_of(arg, "--block-kib", &i, &v)) {
      for (const auto& tok : split_csv(v)) {
        int kib = 0;
        if (!parse_jobs(tok.c_str(), &kib) || kib < 1) {
          std::fprintf(stderr,
                       "invalid --block-kib value '%s' (need an integer >= 1)\n",
                       tok.c_str());
          return 2;
        }
        space.block_bytes.push_back(static_cast<std::uint64_t>(kib) * 1024);
      }
    } else if (value_of(arg, "--steal", &i, &v)) {
      for (const auto& tok : split_csv(v)) {
        char* end = nullptr;
        const double hw = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0' || !(hw >= 0.0 && hw <= 1.0)) {
          std::fprintf(stderr,
                       "invalid --steal value '%s' (need a fraction in "
                       "[0, 1])\n",
                       tok.c_str());
          return 2;
        }
        space.high_water.push_back(hw);
      }
    } else if (value_of(arg, "--servers", &i, &v)) {
      for (const auto& tok : split_csv(v)) {
        int srv = 0;
        if (!parse_jobs(tok.c_str(), &srv) || srv < 0) {
          std::fprintf(stderr,
                       "invalid --servers value '%s' (need an integer >= 0)\n",
                       tok.c_str());
          return 2;
        }
        space.servers.push_back(srv);
      }
    } else if (arg == "-j" && i + 1 < argc) {
      if (!parse_jobs(argv[++i], &opts.tune.jobs)) {
        std::fprintf(stderr, "invalid -j value '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
      if (!parse_jobs(arg.c_str() + 2, &opts.tune.jobs)) {
        std::fprintf(stderr, "invalid -j value '%s'\n", arg.c_str() + 2);
        return 2;
      }
    } else if (arg == "--progress") {
      progress = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "tune: unknown flag '%s'\n", arg.c_str());
      return usage(2);
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "tune: no figure named; try `zipper_lab list`\n");
    return 2;
  }
  if (opts.tune.jobs < 1) opts.tune.jobs = 1;
  opts.tune.progress = progress;

  for (const auto& name : names) {
    const FigureDef* fig = find_figure(name);
    if (!fig) {
      std::fprintf(stderr, "unknown figure '%s'; try `zipper_lab list`\n",
                   name.c_str());
      return 2;
    }
    // The tuner's base is the figure's first Zipper workflow scenario — the
    // configuration the figure treats as its baseline.
    const auto specs = fig->scenarios(full);
    const ScenarioSpec* base = nullptr;
    for (const auto& s : specs) {
      if (s.kind == ScenarioKind::kWorkflow && s.method &&
          *s.method == transports::Method::kZipper) {
        base = &s;
        break;
      }
    }
    if (!base) {
      std::fprintf(stderr,
                   "tune: figure '%s' has no Zipper workflow scenario to "
                   "tune\n",
                   name.c_str());
      return 2;
    }
    const int rc = opt::run_tune(fig->name, *base, space, opts);
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(2);
  const std::string cmd = argv[1];
  if (cmd == "list") return cmd_list(argc, argv);
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "sweep") return cmd_sweep(argc, argv);
  if (cmd == "analyze") return cmd_analyze(argc, argv);
  if (cmd == "tune") return cmd_tune(argc, argv);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(0);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return usage(2);
}
