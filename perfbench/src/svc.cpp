// svc_stream and svc_sessions: run_client_load in this process against a
// ZipperdServer in a forked child, each pinned to its own CPU. The two
// workloads share the daemon and the wire code; svc_stream is dominated by
// the per-block path, svc_sessions by per-session set-up and teardown.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "common/checksum.hpp"
#include "core/zipper/net_frame.hpp"
#include "core/zipper/net_service.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace znet = zipper::core::zbody::net;
using zipper::trace::Cat;

constexpr double kLastBatchStartS = 100;

struct Geometry {
  std::uint64_t sessions;     // per batch; concurrency is min(4, sessions)
  std::uint32_t steps;
  std::uint64_t step_bytes;   // per producer
  std::uint64_t block_bytes;
  std::uint64_t warmup_sessions;
  std::uint32_t warmup_steps;
};

// 4 sessions x 2 producers x 50 steps x 1 MiB in 64 KiB blocks: 6400 blocks
// a batch, so session set-up is negligible next to the per-block path.
constexpr Geometry kStream{4, 50, 1u << 20, 64u << 10, 4, 8};
// BENCH_net.json's short session: 1 step of 16 KiB in 8 KiB blocks.
constexpr Geometry kSessions{4000, 1, 16u << 10, 8u << 10, 400, 1};
constexpr std::uint64_t kConcurrency = 4;

znet::ZipperdServer* g_server = nullptr;

void on_sigterm(int) {
  if (g_server) g_server->request_stop();
}

/// A ZipperdServer in a forked child: ready once it reports its bound port.
/// The destructor kills and reaps a daemon that was not stopped cleanly.
class Daemon {
 public:
  Daemon(const Cpus& cpus, const std::string& data_dir) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::close(fds[0]);
      serve(fds[1], data_dir);
    }
    ::close(fds[1]);
    pin(pid_, cpus.daemon);
    const bool ok = ::read(fds[0], &port_, sizeof(port_)) == sizeof(port_);
    ::close(fds[0]);
    if (!ok || port_ == 0) throw std::runtime_error("daemon never became ready");
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// SIGTERM, then the drain's wait status.
  int stop() {
    int status = 0;
    ::kill(pid_, SIGTERM);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  [[noreturn]] static void serve(int port_fd, const std::string& data_dir) {
    count_as_daemon();
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    try {
      znet::ServerOptions opts;
      opts.data_dir = data_dir;
      znet::ZipperdServer server(std::move(opts));
      g_server = &server;
      struct sigaction sa{};
      sa.sa_handler = on_sigterm;
      ::sigaction(SIGTERM, &sa, nullptr);
      ::signal(SIGPIPE, SIG_IGN);
      const std::uint16_t port = server.port();
      if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) ::_exit(3);
      ::close(port_fd);
      server.run();
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(0);
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

znet::ClientOptions client_options(const Geometry& g, std::uint16_t port,
                                   const std::string& spill_root,
                                   bool warmup) {
  znet::ClientOptions co;
  co.port = port;
  co.sessions = warmup ? g.warmup_sessions : g.sessions;
  co.concurrency = std::min(kConcurrency, co.sessions);
  co.spill_root = spill_root;
  co.spec.producers = 2;
  co.spec.consumers = 1;
  co.spec.steps = warmup ? g.warmup_steps : g.steps;
  co.spec.step_bytes = g.step_bytes;
  co.spec.block_bytes = g.block_bytes;
  co.spec.enable_steal = false;
  co.spec.preserve = false;
  return co;
}

SvcBatch to_batch(const znet::ClientOptions& co, const znet::ClientResult& c) {
  SvcBatch b;
  b.sessions = co.sessions;
  b.sessions_ok = c.sessions_ok;
  b.sessions_failed = c.sessions_failed;
  b.blocks_expected = c.blocks_expected;
  b.blocks_analyzed = c.blocks_analyzed;
  b.blocks_from_disk = c.blocks_from_disk;
  b.put_retries = c.put_retries;
  if (!c.errors.empty()) b.first_error = c.errors.front();
  return b;
}

/// Process-level counters of both sides, read between batches.
struct Snapshot {
  std::int64_t wall_ns;
  std::uint64_t syscalls[2];
  std::uint64_t allocs[2];
  std::uint64_t ctx[2];
  double cpu_s[2];

  static Snapshot take(pid_t daemon) {
    Snapshot s{};
    s.wall_ns = now_ns();
    const pid_t pids[2] = {::getpid(), daemon};
    for (int i = 0; i < 2; ++i) {
      s.syscalls[i] = perfbench::syscalls(static_cast<Slot>(i));
      s.allocs[i] = perfbench::allocs(static_cast<Slot>(i));
      s.ctx[i] = ctx_switches(pids[i]);
      s.cpu_s[i] = cpu_seconds(pids[i]);
    }
    return s;
  }
};

}  // namespace

Result run_svc(const Args& a, const Cpus& cpus, Tracer& t, bool stream) {
  const Geometry& g = stream ? kStream : kSessions;
  const std::string spill_root = a.work_dir + "/spill";
  const std::string data_dir = a.work_dir + "/daemon";
  std::filesystem::create_directories(spill_root);
  std::filesystem::create_directories(data_dir);
  ::signal(SIGPIPE, SIG_IGN);
  Result r;

  // Set-up: fork the daemon through readiness and run a warm-up load, which
  // builds the client loop. All but the last daemon are drained and checked.
  zipper::trace::Recorder* setup_rec = t.row("setup");
  std::vector<double> setup;
  std::unique_ptr<Daemon> d;
  for (int k = 0; k < kSetups; ++k) {
    if (d) {
      const std::string err = check_daemon_exit(d->stop());
      if (!err.empty()) r.fail(err);
    }
    Span span(setup_rec, t, 0, Cat::kServerQuery);
    const std::int64_t t0 = now_ns();
    d = std::make_unique<Daemon>(cpus, data_dir);
    const auto co = client_options(g, d->port(), spill_root, true);
    const std::string err = check_svc_batch(to_batch(co, znet::run_client_load(co)));
    if (!err.empty()) r.fail("warm-up: " + err);
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  log_sample("setup seconds", setup);

  const auto co = client_options(g, d->port(), spill_root, false);
  const std::int64_t start = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  std::uint64_t from_disk = 0, retries = 0;
  // Per-batch samples only: pooling every block's latency grew a vector
  // with the run, and its capacity doublings showed in peak_rss_mb.
  struct Batches {
    std::vector<double> rates;
    std::vector<double> p50_ms, p90_ms;  // per-block latency of the batch
    std::vector<double> wall_ms;
  };
  auto batches_until = [&](double until_s, std::size_t min_batches,
                           zipper::trace::Recorder* rec, std::uint64_t& blocks) {
    Batches out;
    while (out.rates.size() < min_batches ||
           (elapsed() < until_s && elapsed() < kLastBatchStartS)) {
      znet::ClientResult c;
      {
        Span span(rec, t, 0, Cat::kTransfer);
        c = znet::run_client_load(co);
      }
      const SvcBatch b = to_batch(co, c);
      r.attempted += b.sessions;
      r.failed += b.sessions - std::min(b.sessions, b.sessions_ok);
      from_disk += b.blocks_from_disk;
      retries += b.put_retries;
      blocks += b.blocks_analyzed;
      if (const std::string err = check_svc_batch(b); !err.empty()) r.fail(err);
      out.rates.push_back(
          static_cast<double>(stream ? c.blocks_analyzed : c.sessions_ok) /
          c.duration_s);
      out.wall_ms.push_back(c.duration_s * 1e3);
      out.p50_ms.push_back(static_cast<double>(c.latency_percentile_ns(0.5)) / 1e6);
      out.p90_ms.push_back(static_cast<double>(c.latency_percentile_ns(0.9)) / 1e6);
    }
    return out;
  };

  std::uint64_t blocks = 0;
  if (!a.trace) {
    const Batches bs = batches_until(a.seconds, 3, nullptr, blocks);
    log_sample("batch throughput", bs.rates);
    const double rss = peak_rss_mb(::getpid()) + peak_rss_mb(d->pid());
    if (const std::string err = check_daemon_exit(d->stop()); !err.empty()) {
      r.fail(err);
    }
    r.put("setup_s", median(setup), "s");
    r.put("throughput_per_s", median(bs.rates), "1/s");
    if (stream) {
      // Every session of a batch starts together and runs to the end, so a
      // batch's wall time is the time to couple one session.
      r.put("latency_p50_ms", percentile(bs.wall_ms, 50), "ms");
      r.put("latency_p90_ms", percentile(bs.wall_ms, 90), "ms");
    } else {
      r.put("latency_p50_ms", median(bs.p50_ms), "ms");
      r.put("latency_p90_ms", median(bs.p90_ms), "ms");
    }
    r.put("peak_rss_mb", rss, "MB");
  } else {
    const Batches plain = batches_until(a.seconds / 2, 1, nullptr, blocks);
    blocks = 0;
    const Snapshot s0 = Snapshot::take(d->pid());
    set_counting(true);
    const Batches traced =
        batches_until(a.seconds, 1, t.row("net::run_client_load"), blocks);
    set_counting(false);
    const Snapshot s1 = Snapshot::take(d->pid());
    if (const std::string err = check_daemon_exit(d->stop()); !err.empty()) {
      r.fail(err);
    }
    const double nb = static_cast<double>(blocks);
    const double wall = static_cast<double>(s1.wall_ns - s0.wall_ns) / 1e9;
    const char* side[2] = {"client", "daemon"};
    for (int i = 0; i < 2; ++i) {
      const std::string p = side[i];
      r.put(p + ".syscalls_per_block",
            static_cast<double>(s1.syscalls[i] - s0.syscalls[i]) / nb, "count");
      r.put(p + ".ctx_switches_per_block",
            static_cast<double>(s1.ctx[i] - s0.ctx[i]) / nb, "count");
      r.put(p + ".allocs_per_block",
            static_cast<double>(s1.allocs[i] - s0.allocs[i]) / nb, "count");
      r.put(p + ".busy_share", (s1.cpu_s[i] - s0.cpu_s[i]) / wall, "share");
    }
    r.put("svc.sessions_failed", static_cast<double>(r.failed), "count");
    r.put("svc.blocks_from_disk", static_cast<double>(from_disk), "count");
    r.put("svc.put_retries", static_cast<double>(retries), "count");
    r.put("bench.trace_overhead_share", 1.0 - median(traced.rates) / median(plain.rates),
          "share");
  }
  d.reset();
  std::error_code ec;
  std::filesystem::remove_all(spill_root, ec);
  std::filesystem::remove_all(data_dir, ec);
  if (a.trace) probe_wire(r, g.block_bytes, t);
  return r;
}

void probe_wire(Result& r, std::uint64_t block_bytes, Tracer& t) {
  znet::WireMixed m;
  m.has_block = true;
  m.block.bytes = block_bytes;
  m.payload.resize(block_bytes);
  for (std::size_t i = 0; i < m.payload.size(); ++i) {
    m.payload[i] = static_cast<std::byte>((i * 131 + 7) & 0xFF);
  }
  // ~32 MiB per round, median of 5 rounds.
  const std::size_t reps = std::max<std::size_t>(16, (32u << 20) / block_bytes);
  std::vector<double> enc, dec, sum;
  std::uint64_t sink = 0;
  zipper::trace::Recorder* rec = t.row("probe.net_frame");
  for (int round = 0; round < 5; ++round) {
    std::vector<std::byte> frame;
    std::int64_t t0 = now_ns();
    {
      Span span(rec, t, 0, Cat::kPut);
      for (std::size_t i = 0; i < reps; ++i) {
        frame = znet::encode_mixed(m);
        sink += frame.size();
      }
    }
    enc.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(reps));
    t0 = now_ns();
    {
      Span span(rec, t, 1, Cat::kGet);
      for (std::size_t i = 0; i < reps; ++i) {
        znet::FrameDecoder fd;
        fd.feed(frame.data(), frame.size());
        const auto f = fd.next();
        sink += znet::decode_mixed(f->body).payload.size();
      }
    }
    dec.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(reps));
    t0 = now_ns();
    {
      Span span(rec, t, 2, Cat::kCompute);
      for (std::size_t i = 0; i < reps; ++i) {
        m.payload[i % block_bytes] ^= std::byte{1};  // keep each sum live
        sink += zipper::common::fnv1a(m.payload);
      }
    }
    sum.push_back(static_cast<double>(now_ns() - t0) /
                  static_cast<double>(reps) /
                  (static_cast<double>(block_bytes) / 1024.0));
  }
  if (sink == 0) std::fprintf(stderr, "unreachable\n");
  r.put("frame.encode_ns", median(enc), "ns");
  r.put("frame.decode_ns", median(dec), "ns");
  r.put("checksum.ns_per_kib", median(sum), "ns");
}

}  // namespace perfbench
