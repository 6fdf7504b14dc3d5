// The zipperd session layer: a TCP daemon hosting the consumer half of
// ZipperBody<NetBinding>, and the client load driver hosting the producer
// half. Both sides share one epoll loop per process (docs/service.md).
//
//   ZipperdServer — binds a localhost listener (port 0 = kernel-assigned; the
//   bound port is known as soon as the constructor returns, which is how CI
//   readiness files avoid sleep-based startup). run() drives the loop until
//   request_stop() — an eventfd write, safe from other threads and from
//   signal handlers — after which the listener closes, active session
//   sockets are shut down, and every session unwinds through the normal
//   end-of-stream path before run() returns.
//
//   Each accepted connection carries coupling sessions back to back. A
//   session starts with a Hello carrying the SessionSpec, which
//   parameterizes a per-session NetEnv + ZipperBody (sched policy, chaos
//   engine, spill directory). A demux coroutine feeds decoded mixed frames
//   into per-consumer channels until every consumer has its end-of-stream
//   markers; Q consumer_run coroutines drain them; a summary frame closes the
//   session with exactly-once accounting and block-latency samples. The
//   session is torn down once its summary is written, and the connection
//   waits for the next Hello; EOF there ends it cleanly. Frame errors are
//   session-fatal, never daemon-fatal, and a failed session closes its
//   connection (docs/service.md, "Session lifecycle").
//
//   run_client_load — runs `sessions` sessions on at most `concurrency`
//   workers, each keeping one connection and running its sessions over it
//   one after another (reconnecting after a failed session). Each session
//   runs the full producer pipeline (put path, resilience ladder with real
//   spill files, finalize, summary verification) on one epoll loop. Returns
//   aggregate throughput/latency plus per-ladder-rung counters, which is
//   what bench/net_service.cpp and the CI smoke assert against.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/chaos/chaos.hpp"
#include "core/exec/epoll.hpp"
#include "core/zipper/net_binding.hpp"
#include "core/zipper/net_frame.hpp"

namespace zipper::core::zbody::net {

// ----------------------------------------------------------------- server --

struct ServerOptions {
  std::uint16_t port = 0;  // 0: kernel-assigned, read back via port()
  /// Preserve-mode output root; sessions write under <data_dir>/s<id>/.
  std::filesystem::path data_dir;
  /// Honor session fault windows with *real* read stalls: while a window is
  /// open the session demux stops reading its socket, so TCP backpressure
  /// reaches the client's senders and trips the resilience ladder for real.
  bool chaos_stall = false;
  /// Extra per-block service time charged while a consumer is chaos-slowed.
  std::uint64_t chaos_block_service_ns = 0;
  /// Flat per-block analysis cost (0 = analyze at wire speed).
  std::uint64_t analysis_ns_per_block = 0;
  /// Diagnostic log sink (e.g. stderr); nullptr = quiet.
  std::FILE* log = nullptr;
  /// Test hook: observed from the analyze path of every session, in loop
  /// order (the differential suite checks per-(producer,consumer) FIFO).
  std::function<void(std::uint64_t session, int c, const BlockHeader& h)>
      on_analyzed;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  /// Hellos that passed validation; each one ran a session.
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_ok = 0;
  std::uint64_t sessions_failed = 0;
  std::uint64_t blocks_analyzed = 0;
};

class ZipperdServer {
 public:
  /// Binds and listens (throws std::system_error on failure); port() is
  /// valid from here on, before run() is entered. Sets the process's heap
  /// policy on first use, like run_client_load (docs/service.md).
  explicit ZipperdServer(ServerOptions opts);
  ~ZipperdServer();
  ZipperdServer(const ZipperdServer&) = delete;
  ZipperdServer& operator=(const ZipperdServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Drives the epoll loop; returns after request_stop() once every session
  /// has unwound. Rethrows a root coroutine's exception (a daemon bug —
  /// session-level failures are contained and reported per-session).
  void run();

  /// Requests shutdown. Thread-safe and async-signal-safe (eventfd write).
  void request_stop() noexcept;

  /// Valid once run() returned (same thread) or after joining the thread
  /// that ran it.
  const ServerStats& stats() const noexcept { return stats_; }

 private:
  struct Session;

  sim::Task acceptor_main();
  sim::Task stop_watch_main();
  sim::Task session_main(int fd);
  sim::Task run_session(int fd, FrameDecoder& dec, SessionSpec hello,
                        bool& keep);
  sim::Task demux_main(Session* s, FrameDecoder& dec);
  sim::Task consumer_wrap(Session* s, int c);
  void log_line(const std::string& line);

  ServerOptions opts_;
  exec::EpollExecutor ex_;
  int listen_fd_ = -1;
  int stop_fd_ = -1;  // eventfd
  std::uint16_t port_ = 0;
  bool stopping_ = false;
  /// Accepted connections, registered by the acceptor and erased when they
  /// close; the stop drain shuts each one down.
  std::unordered_set<int> active_fds_;
  ServerStats stats_;
};

// ----------------------------------------------------------------- client --

struct ClientOptions {
  std::uint16_t port = 0;  // daemon port (required)
  std::uint64_t sessions = 1;
  std::uint64_t concurrency = 1;
  /// Template spec; session_id, spill_dir and live_control are filled per
  /// session.
  SessionSpec spec;
  /// Root for per-session spill directories (the shared "PFS").
  std::filesystem::path spill_root;
  /// Optional per-session adaptive controller factory (the opt layer plugs
  /// in here; core carries only the std::function seam).
  std::function<
      std::function<chaos::ControlAction(const chaos::ControlSnapshot&)>()>
      make_controller;
  sim::Time control_interval = 50 * sim::kMillisecond;
};

struct ClientResult {
  std::uint64_t sessions_ok = 0;
  std::uint64_t sessions_failed = 0;
  std::uint64_t blocks_expected = 0;
  std::uint64_t blocks_analyzed = 0;
  std::uint64_t blocks_from_network = 0;
  std::uint64_t blocks_from_disk = 0;
  std::uint64_t put_retries = 0;
  std::uint64_t blocks_spilled_slow = 0;
  double duration_s = 0;
  /// Pooled per-block latency samples (send -> analyze), ns.
  std::vector<std::uint64_t> latency_ns;
  /// First few session error strings, for diagnostics.
  std::vector<std::string> errors;

  bool all_ok() const noexcept { return sessions_failed == 0; }
  bool exactly_once() const noexcept {
    return blocks_analyzed == blocks_expected;
  }
  double sessions_per_s() const noexcept {
    return duration_s > 0 ? static_cast<double>(sessions_ok) / duration_s : 0;
  }
  std::uint64_t latency_p50_ns() const { return latency_percentile_ns(0.50); }
  std::uint64_t latency_p99_ns() const { return latency_percentile_ns(0.99); }
  std::uint64_t latency_percentile_ns(double q) const;
};

/// Runs the whole load on the calling thread's own epoll loop; returns when
/// every session finished (each either verified ok or recorded as failed —
/// connection errors and broken wires fail the one session, never throw,
/// and the worker's next session connects again).
/// On first use in a process it sets glibc's trim and mmap thresholds so
/// freed block buffers stay in the heap (docs/service.md, "Measurement").
ClientResult run_client_load(const ClientOptions& opts);

}  // namespace zipper::core::zbody::net
