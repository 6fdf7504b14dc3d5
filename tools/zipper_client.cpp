// zipper_client — the load driver for zipperd: runs N coupling sessions
// (at most C concurrently) against a daemon, verifies exactly-once delivery
// per session, and prints sessions/s plus p50/p99 block latency.
//
//   zipper_client (--port N | --port-file PATH) [--sessions N]
//                 [--concurrency N] [--producers N] [--consumers N]
//                 [--steps N] [--block-bytes N] [--step-bytes N]
//                 [--route static|rr|lq] [--consumer-steal]
//                 [--fault TOKEN] [--chaos-seed N] [--horizon S]
//                 [--adapt] [--spill-root PATH] [--json]
//
// Exit status is 0 only if every session verified: summary ok, analyzed
// block count equal to producers x steps x blocks-per-step, no wire errors.
// CI's service job asserts on exactly this.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/sched/sched.hpp"
#include "core/zipper/net_service.hpp"
#include "opt/adaptive.hpp"
#include "parse_number.hpp"

namespace {

namespace net = zipper::core::zbody::net;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--port N | --port-file PATH) [--sessions N]\n"
               "  [--concurrency N] [--producers N] [--consumers N]"
               " [--steps N]\n"
               "  [--block-bytes N] [--step-bytes N] [--route static|rr|lq]\n"
               "  [--consumer-steal] [--fault TOKEN] [--chaos-seed N]\n"
               "  [--horizon S] [--adapt] [--spill-root PATH] [--json]\n",
               argv0);
  return 2;
}

int read_port_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return -1;
  int port = -1;
  if (std::fscanf(f, "%d", &port) != 1) port = -1;
  std::fclose(f);
  return port;
}

}  // namespace

int main(int argc, char** argv) {
  net::ClientOptions opts;
  bool json = false;
  bool adapt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--port" && has_next) {
      if (!parse_number(argv[++i], opts.port)) return usage(argv[0]);
    } else if (a == "--port-file" && has_next) {
      const int p = read_port_file(argv[++i]);
      if (p <= 0 || p > 65535) {
        std::fprintf(stderr, "zipper_client: bad port file %s\n", argv[i]);
        return 2;
      }
      opts.port = static_cast<std::uint16_t>(p);
    } else if (a == "--sessions" && has_next) {
      if (!parse_number(argv[++i], opts.sessions)) return usage(argv[0]);
    } else if (a == "--concurrency" && has_next) {
      if (!parse_number(argv[++i], opts.concurrency)) return usage(argv[0]);
    } else if (a == "--producers" && has_next) {
      if (!parse_number(argv[++i], opts.spec.producers)) return usage(argv[0]);
    } else if (a == "--consumers" && has_next) {
      if (!parse_number(argv[++i], opts.spec.consumers)) return usage(argv[0]);
    } else if (a == "--steps" && has_next) {
      if (!parse_number(argv[++i], opts.spec.steps)) return usage(argv[0]);
    } else if (a == "--block-bytes" && has_next) {
      if (!parse_number(argv[++i], opts.spec.block_bytes)) {
        return usage(argv[0]);
      }
    } else if (a == "--step-bytes" && has_next) {
      if (!parse_number(argv[++i], opts.spec.step_bytes)) return usage(argv[0]);
    } else if (a == "--route" && has_next) {
      const auto r = zipper::core::sched::parse_route(argv[++i]);
      if (!r) return usage(argv[0]);
      opts.spec.route_kind = static_cast<std::uint8_t>(*r);
    } else if (a == "--consumer-steal") {
      opts.spec.consumer_steal = true;
    } else if (a == "--fault" && has_next) {
      opts.spec.fault = argv[++i];
    } else if (a == "--chaos-seed" && has_next) {
      if (!parse_number(argv[++i], opts.spec.chaos_seed)) return usage(argv[0]);
    } else if (a == "--horizon" && has_next) {
      if (!parse_number(argv[++i], opts.spec.horizon_s)) return usage(argv[0]);
    } else if (a == "--adapt") {
      adapt = true;
    } else if (a == "--spill-root" && has_next) {
      opts.spill_root = argv[++i];
    } else if (a == "--json") {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.port == 0) return usage(argv[0]);
  if (adapt) {
    opts.make_controller = [bb = opts.spec.block_bytes]() {
      auto ctl = std::make_shared<zipper::opt::AdaptiveController>(
          zipper::opt::AdaptiveOptions{.base_block_bytes = bb});
      return [ctl](const zipper::core::chaos::ControlSnapshot& s) {
        return ctl->on_window(s);
      };
    };
  }

  const net::ClientResult res = net::run_client_load(opts);

  if (json) {
    std::printf(
        "{\"sessions_ok\": %llu, \"sessions_failed\": %llu, "
        "\"blocks_expected\": %llu, \"blocks_analyzed\": %llu, "
        "\"blocks_from_network\": %llu, \"blocks_from_disk\": %llu, "
        "\"put_retries\": %llu, \"blocks_spilled_slow\": %llu, "
        "\"duration_s\": %.6f, \"sessions_per_s\": %.2f, "
        "\"latency_p50_ns\": %llu, \"latency_p99_ns\": %llu}\n",
        static_cast<unsigned long long>(res.sessions_ok),
        static_cast<unsigned long long>(res.sessions_failed),
        static_cast<unsigned long long>(res.blocks_expected),
        static_cast<unsigned long long>(res.blocks_analyzed),
        static_cast<unsigned long long>(res.blocks_from_network),
        static_cast<unsigned long long>(res.blocks_from_disk),
        static_cast<unsigned long long>(res.put_retries),
        static_cast<unsigned long long>(res.blocks_spilled_slow),
        res.duration_s, res.sessions_per_s(),
        static_cast<unsigned long long>(res.latency_p50_ns()),
        static_cast<unsigned long long>(res.latency_p99_ns()));
  } else {
    std::printf("sessions      %llu ok, %llu failed\n",
                static_cast<unsigned long long>(res.sessions_ok),
                static_cast<unsigned long long>(res.sessions_failed));
    std::printf("blocks        %llu analyzed / %llu expected "
                "(%llu net, %llu disk)\n",
                static_cast<unsigned long long>(res.blocks_analyzed),
                static_cast<unsigned long long>(res.blocks_expected),
                static_cast<unsigned long long>(res.blocks_from_network),
                static_cast<unsigned long long>(res.blocks_from_disk));
    std::printf("resilience    %llu put retries, %llu spill-degraded\n",
                static_cast<unsigned long long>(res.put_retries),
                static_cast<unsigned long long>(res.blocks_spilled_slow));
    std::printf("throughput    %.2f sessions/s over %.3f s\n",
                res.sessions_per_s(), res.duration_s);
    std::printf("latency       p50 %.3f ms, p99 %.3f ms (%zu samples)\n",
                static_cast<double>(res.latency_p50_ns()) / 1e6,
                static_cast<double>(res.latency_p99_ns()) / 1e6,
                res.latency_ns.size());
  }
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "zipper_client: %s\n", e.c_str());
  }

  const bool ok = res.all_ok() && res.exactly_once() &&
                  res.sessions_ok == opts.sessions;
  return ok ? 0 : 1;
}
