// zipperd — the coupling daemon: accepts TCP sessions on localhost and runs
// the consumer half of ZipperBody<NetBinding> for each (docs/service.md).
//
//   zipperd [--port N] [--ready-file PATH] [--data-dir PATH]
//           [--chaos-stall] [--analysis-ns N] [--chaos-service-ns N]
//           [--quiet]
//
// Startup protocol for CI (no sleeps): the listener binds before main()
// touches anything else, so by the time --ready-file appears (written
// atomically, containing the bound port) the daemon is accepting. Port 0
// asks the kernel for a free port — the only flake-proof choice when jobs
// share a runner. SIGTERM/SIGINT drain active sessions and exit 0.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/zipper/net_service.hpp"
#include "parse_number.hpp"

namespace {

using zipper::core::zbody::net::ServerOptions;
using zipper::core::zbody::net::ZipperdServer;

ZipperdServer* g_server = nullptr;

void on_signal(int) {
  if (g_server) g_server->request_stop();  // an eventfd write: signal-safe
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--ready-file PATH] [--data-dir PATH]\n"
               "          [--chaos-stall] [--analysis-ns N]"
               " [--chaos-service-ns N] [--quiet]\n",
               argv0);
  return 2;
}

bool write_ready_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions opts;
  opts.log = stderr;
  std::string ready_file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--port" && has_next) {
      if (!parse_number(argv[++i], opts.port)) return usage(argv[0]);
    } else if (a == "--ready-file" && has_next) {
      ready_file = argv[++i];
    } else if (a == "--data-dir" && has_next) {
      opts.data_dir = argv[++i];
    } else if (a == "--chaos-stall") {
      opts.chaos_stall = true;
    } else if (a == "--analysis-ns" && has_next) {
      if (!parse_number(argv[++i], opts.analysis_ns_per_block)) {
        return usage(argv[0]);
      }
    } else if (a == "--chaos-service-ns" && has_next) {
      if (!parse_number(argv[++i], opts.chaos_block_service_ns)) {
        return usage(argv[0]);
      }
    } else if (a == "--quiet") {
      opts.log = nullptr;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    ZipperdServer server(std::move(opts));
    g_server = &server;
    struct sigaction sa{};
    sa.sa_handler = on_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    if (!ready_file.empty() &&
        !write_ready_file(ready_file, server.port())) {
      std::fprintf(stderr, "zipperd: cannot write ready file %s: %s\n",
                   ready_file.c_str(), std::strerror(errno));
      return 1;
    }
    server.run();
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zipperd: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
