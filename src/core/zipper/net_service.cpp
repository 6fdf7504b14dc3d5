#include "core/zipper/net_service.hpp"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <system_error>
#include <utility>

#include "core/exec/exec.hpp"
#include "core/zipper/body.hpp"

namespace zipper::core::zbody::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Sanity bounds on a handshake before any per-session state is allocated;
/// a hostile or buggy client fails its own session, not the daemon.
std::string validate_spec(const SessionSpec& s) {
  if (s.producers > 256 || s.consumers > 256) return "too many ranks";
  if (s.steps > 1'000'000) return "too many steps";
  if (s.block_bytes > (16u << 20)) return "block_bytes too large";
  if (s.step_bytes > (256u << 20)) return "step_bytes too large";
  if (s.route_kind > 2) return "unknown route kind";
  if (s.spill_dir.empty()) return "empty spill_dir";
  return {};
}

/// Both ends rebuild identical policy state from the handshake — the wire
/// analog of both executors reading one ScenarioSpec.
BodyConfig body_config_from(const SessionSpec& spec) {
  BodyConfig bc;
  bc.block_bytes = spec.block_bytes;
  bc.producer_buffer_blocks = static_cast<int>(spec.producer_buffer_blocks);
  bc.high_water = spec.high_water;
  bc.enable_steal = spec.enable_steal;
  bc.preserve = spec.preserve;
  bc.consumer_buffer_blocks = static_cast<int>(spec.consumer_buffer_blocks);
  bc.sched.route = static_cast<sched::RouteKind>(spec.route_kind);
  bc.sched.consumer_steal = spec.consumer_steal;
  return bc;
}

/// Trace-rank convention shared by both ends: producers are ranks 0..P-1,
/// consumers P..P+Q-1.
Placement placement_from(const SessionSpec& spec) {
  const int P = static_cast<int>(spec.producers);
  return Placement{.producers = P,
                   .consumers = static_cast<int>(spec.consumers),
                   .first_consumer_rank = P,
                   .step_bytes = spec.step_bytes,
                   .peer_live_control = spec.live_control};
}

std::shared_ptr<const chaos::ChaosEngine> chaos_from(const SessionSpec& spec) {
  if (spec.fault.empty() || spec.fault == "off") return nullptr;
  const auto f = chaos::parse_fault(spec.fault);
  if (!f || !f->enabled()) return nullptr;
  chaos::ChaosSpec cs;
  cs.seed = spec.chaos_seed;
  cs.fault = *f;
  return std::make_shared<chaos::ChaosEngine>(
      cs, static_cast<int>(spec.producers), static_cast<int>(spec.consumers),
      spec.horizon_s);
}

/// Both service loops free and allocate block buffers at line rate. glibc
/// returns the top of the heap to the kernel whenever a few hundred KiB of
/// it is free, and the next allocations fault those pages in again; how
/// often that happens depends on the order frees land in, so identical
/// 64 KiB-block runs swung up to 2x in throughput. A service process keeps
/// its freed heap pages instead, at the cost of peak RSS: a page once
/// touched stays resident. Fixing the trim threshold also fixes the mmap
/// threshold, so it is raised above every per-session buffer (a
/// FrameDecoder holds up to kReadBytes plus one frame) to keep those off
/// mmap/munmap.
void keep_freed_heap() {
  static std::once_flag once;
  std::call_once(once, [] {
    ::mallopt(M_TRIM_THRESHOLD, 256 << 20);
    ::mallopt(M_MMAP_THRESHOLD, 4 << 20);
  });
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Bytes one recv() asks for: more than a 64 KiB block's frame, so a read
/// usually ends inside the second frame and the next read completes it.
constexpr std::size_t kReadBytes = 128 * 1024;

/// Reads until one complete frame is decoded. Returns an error string on
/// socket error / frame error / cancel, and leaves both `out` and `err`
/// empty on EOF at a frame boundary (a peer that closed between sessions);
/// EOF mid-frame is "connection closed". The decoder keeps any bytes beyond
/// the frame (the client may pipeline mixed frames after the hello).
sim::Task read_one_frame(exec::EpollExecutor& ex, int fd, FrameDecoder& dec,
                         std::optional<Frame>& out, std::string& err) {
  for (;;) {
    try {
      out = dec.next();
    } catch (const FrameError& e) {
      err = e.what();
      co_return;
    }
    if (out) co_return;
    const std::span<std::byte> space = dec.prepare(kReadBytes);
    const ssize_t n = ::recv(fd, space.data(), space.size(), 0);
    if (n > 0) {
      dec.commit(static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      if (dec.pending_bytes() > 0) err = "connection closed";
      co_return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!co_await ex.wait_readable(fd)) {
        err = "cancelled";
        co_return;
      }
      continue;
    }
    if (errno == EINTR) continue;
    err = std::string("recv: ") + std::strerror(errno);
    co_return;
  }
}

}  // namespace

// ------------------------------------------------------------------ server --

/// Everything one session owns. Lives in run_session's frame: the demux and
/// consumer coroutines hold raw pointers, and run_session awaits their
/// latches before the frame (and this struct) is destroyed.
struct ZipperdServer::Session {
  Session(exec::EpollExecutor& ex, int fd_, SessionSpec spec_)
      : fd(fd_),
        spec(std::move(spec_)),
        consumers_done(ex, spec.consumers),
        demux_done(ex, 1) {}

  int fd;
  SessionSpec spec;
  std::shared_ptr<const chaos::ChaosEngine> chaos;
  std::unique_ptr<NetEnv> env;
  std::unique_ptr<ZipperBody<NetBinding>> body;
  exec::EpLatch consumers_done;
  exec::EpLatch demux_done;
  /// send-timestamp per in-flight network block (latency at analyze time).
  std::map<BlockId, std::uint64_t> sent_ns;
  std::set<BlockId> seen;  // exactly-once: every analyzed id, once
  bool duplicate = false;
  std::uint64_t analyzed = 0;
  std::vector<std::uint64_t> latency;
  std::string error;
  /// Per consumer, the end-of-stream markers its receiver still waits for,
  /// and their sum. At zero the session's input is complete: the demux
  /// stops reading and leaves later bytes to the connection.
  std::vector<int> ends_left;
  int ends_pending = 0;
};

ZipperdServer::ZipperdServer(ServerOptions opts) : opts_(std::move(opts)) {
  keep_freed_heap();
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("bind");
  }
  if (::listen(listen_fd_, 1024) < 0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("eventfd");
  }
  if (opts_.data_dir.empty()) {
    opts_.data_dir = std::filesystem::temp_directory_path() /
                     ("zipperd_" + std::to_string(::getpid()));
  }
}

ZipperdServer::~ZipperdServer() {
  // Abandoned session sockets (run() aborted by a daemon bug) are closed
  // here; the executor member's destructor then frees their frames.
  for (int fd : active_fds_) ::close(fd);
  if (stop_fd_ >= 0) ::close(stop_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ZipperdServer::request_stop() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(stop_fd_, &one, sizeof(one));
}

void ZipperdServer::log_line(const std::string& line) {
  if (!opts_.log) return;
  std::fprintf(opts_.log, "zipperd: %s\n", line.c_str());
  std::fflush(opts_.log);
}

void ZipperdServer::run() {
  ex_.spawn(stop_watch_main());
  ex_.spawn(acceptor_main());
  log_line("listening on 127.0.0.1:" + std::to_string(port_));
  ex_.run();
  log_line("stopped: " + std::to_string(stats_.sessions_ok) + " ok, " +
           std::to_string(stats_.sessions_failed) + " failed, " +
           std::to_string(stats_.blocks_analyzed) + " blocks, " +
           std::to_string(stats_.sessions_accepted) + " sessions over " +
           std::to_string(stats_.connections_accepted) + " connections");
}

sim::Task ZipperdServer::stop_watch_main() {
  (void)co_await ex_.wait_readable(stop_fd_);
  stopping_ = true;
  log_line("stop requested, draining " +
           std::to_string(active_fds_.size()) + " connection(s)");
  ex_.cancel_fd(listen_fd_);
  // Half-close every active connection: a session's demux reads EOF and the
  // body unwinds through the normal end-of-stream path, a connection between
  // sessions reads EOF where the next Hello would be, and run() returns once
  // the last root finishes.
  for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
}

sim::Task ZipperdServer::acceptor_main() {
  for (;;) {
    const int cfd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd >= 0) {
      // A drain that already ran would never shut this fd down, and its
      // connection would wait for a hello forever.
      if (stopping_) {
        ::close(cfd);
        co_return;
      }
      // Registered before the session's first resume: a stop handled
      // earlier in this loop turn still shuts it down.
      active_fds_.insert(cfd);
      ++stats_.connections_accepted;
      set_nodelay(cfd);
      ex_.spawn(session_main(cfd));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!co_await ex_.wait_readable(listen_fd_) || stopping_) co_return;
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    // Transient exhaustion (EMFILE/ENFILE/ENOBUFS): back off and keep
    // serving the sessions we already have.
    log_line(std::string("accept: ") + std::strerror(errno));
    co_await ex_.sleep_until(ex_.now() + 10 * sim::kMillisecond);
  }
}

sim::Task ZipperdServer::session_main(int fd) {
  // Sessions run on the connection back to back: Hello, the session, its
  // Summary, then the next Hello. The decoder belongs to the connection, so
  // bytes buffered behind a frame carry over to whoever reads next.
  FrameDecoder dec;
  for (bool first = true;; first = false) {
    std::optional<Frame> hello;
    std::string err;
    co_await read_one_frame(ex_, fd, dec, hello, err);
    if (!hello && err.empty()) {
      if (!first) break;  // the client closed between sessions
      err = "connection closed";
    }
    SessionSpec spec;
    if (err.empty()) {
      if (hello->type != FrameType::kHello) {
        err = first ? "first frame is not a hello"
                    : "frame after the summary is not a hello";
      } else {
        try {
          spec = decode_hello(hello->body);
          err = validate_spec(spec);
        } catch (const FrameError& e) {
          err = e.what();
        }
      }
    }
    if (!err.empty()) {
      log_line("session rejected: " + err);
      ++stats_.sessions_failed;
      break;
    }
    ++stats_.sessions_accepted;
    bool keep = false;
    co_await run_session(fd, dec, std::move(spec), keep);
    if (!keep) break;
  }
  active_fds_.erase(fd);
  ex_.cancel_fd(fd);
  ::close(fd);
}

sim::Task ZipperdServer::run_session(int fd, FrameDecoder& dec,
                                     SessionSpec hello, bool& keep) {
  Session s(ex_, fd, std::move(hello));
  const SessionSpec& spec = s.spec;
  const int Q = static_cast<int>(spec.consumers);
  s.chaos = chaos_from(spec);

  LoopEnvConfig ec;
  ec.spill_dir = spec.spill_dir;
  ec.preserve = spec.preserve;
  ec.preserve_dir = opts_.data_dir / ("s" + std::to_string(spec.session_id));
  ec.net_channel_blocks = spec.consumer_buffer_blocks;
  ec.chaos_block_service_ns = opts_.chaos_block_service_ns;
  ec.analysis_ns_per_block = opts_.analysis_ns_per_block;
  if (spec.preserve) {
    std::error_code fec;
    std::filesystem::create_directories(ec.preserve_dir, fec);
    if (fec) s.error = "preserve dir: " + fec.message();
  }
  s.env = std::make_unique<NetEnv>(ex_, ec, Q);
  s.env->attach_wire(fd);

  BodyConfig bc = body_config_from(spec);
  bc.chaos = s.chaos;
  Session* sp = &s;
  bc.on_analyzed = [this, sp](int c, const BlockHeader& h) {
    if (!sp->seen.insert(h.id).second) sp->duplicate = true;
    ++sp->analyzed;
    ++stats_.blocks_analyzed;
    const auto it = sp->sent_ns.find(h.id);
    if (it != sp->sent_ns.end()) {
      const auto now =
          static_cast<std::uint64_t>(exec::EpollExecutor::raw_now());
      if (now > it->second &&
          sp->latency.size() < SessionSummary::kMaxSamples) {
        sp->latency.push_back(now - it->second);
      }
      sp->sent_ns.erase(it);
    }
    if (opts_.on_analyzed) opts_.on_analyzed(sp->spec.session_id, c, h);
  };
  s.body = std::make_unique<ZipperBody<NetBinding>>(*s.env, bc,
                                                    placement_from(spec));
  s.ends_left.reserve(static_cast<std::size_t>(Q));
  for (int c = 0; c < Q; ++c) {
    s.ends_left.push_back(s.body->expected_end_markers(c));
    s.ends_pending += s.ends_left.back();
  }

  ex_.spawn(demux_main(&s, dec));
  for (int c = 0; c < Q; ++c) ex_.spawn(consumer_wrap(&s, c));
  co_await s.consumers_done.wait();
  for (int c = 0; c < Q; ++c) co_await s.body->wait_consumer_services(c);

  SessionSummary sum;
  sum.session_id = spec.session_id;
  sum.blocks_analyzed = s.analyzed;
  for (int c = 0; c < Q; ++c) {
    const exec::RankStats cs = s.body->consumer_stats(c);
    sum.blocks_from_network += cs.blocks_from_network;
    sum.blocks_from_disk += cs.blocks_from_disk;
    sum.blocks_preserved += cs.blocks_preserved;
  }
  sum.latency_ns = std::move(s.latency);
  if (s.error.empty() && !s.env->io_error().empty()) {
    s.error = s.env->io_error();
  }
  if (s.error.empty() && s.duplicate) s.error = "duplicate block analyzed";
  if (s.error.empty() && s.analyzed != spec.expected_blocks()) {
    s.error = "analyzed " + std::to_string(s.analyzed) + " of " +
              std::to_string(spec.expected_blocks()) + " blocks";
  }
  sum.ok = s.error.empty();
  sum.error = s.error;
  co_await s.env->write_frame(encode_summary(sum));

  // The connection carries the next session only after a clean one whose
  // demux stopped at the end of its input. Otherwise it closes: the demux,
  // possibly still parked on the socket or on a consumer queue, reads EOF
  // and finishes; the client's pending Summary read still gets its bytes.
  keep = sum.ok && s.ends_pending == 0 && s.env->wire_error().empty();
  if (!keep) {
    s.env->close_transport();
    ::shutdown(fd, SHUT_RDWR);
  }
  co_await s.demux_done.wait();
  // Returning tears the session down while the client reads its Summary.
  if (sum.ok) {
    ++stats_.sessions_ok;
  } else {
    ++stats_.sessions_failed;
    log_line("session " + std::to_string(spec.session_id) +
             " failed: " + s.error);
  }
}

sim::Task ZipperdServer::demux_main(Session* s, FrameDecoder& dec) {
  std::string err;
  bool eof = false;
  const int Q = static_cast<int>(s->spec.consumers);
  while (err.empty() && !eof && s->ends_pending > 0) {
    // Deliver the complete frames already buffered, up to the session's last.
    while (s->ends_pending > 0) {
      std::optional<FrameView> f;
      try {
        f = dec.next_view();
      } catch (const FrameError& e) {
        err = e.what();
        break;
      }
      if (!f) break;
      if (f->type != FrameType::kMixed) {
        err = "unexpected frame type mid-session";
        break;
      }
      WireMixed w;
      try {
        w = decode_mixed(f->body);
      } catch (const FrameError& e) {
        err = e.what();
        break;
      }
      if (w.consumer < 0 || w.consumer >= Q) {
        err = "mixed frame for unknown consumer";
        break;
      }
      if (w.has_block) s->sent_ns[w.block.id] = w.sent_raw_ns;
      NetEnv::MixedT m;
      m.has_block = w.has_block;
      m.done = w.done;
      m.producer = w.producer;
      m.ids_on_disk = std::move(w.ids_on_disk);
      if (w.has_block) {
        auto blk = std::make_shared<Block>();
        blk->header = w.block;
        blk->payload = std::move(w.payload);
        m.item.h = w.block;
        m.item.payload = std::move(blk);
      }
      // Channel backpressure: a full consumer parks the demux here, which
      // stops socket reads, which stalls the client's senders — the same
      // coupling the DES models, now through a real TCP window.
      co_await s->env->deliver_mixed(w.consumer, std::move(m));
      int& left = s->ends_left[static_cast<std::size_t>(w.consumer)];
      if (w.done && left > 0) {
        --left;
        --s->ends_pending;
      }
      // The consumer analyzes this block before the frames behind it are
      // decoded, so a burst read in one recv() does not queue every block
      // behind the whole burst.
      co_await ex_.yield();
    }
    if (!err.empty() || s->ends_pending == 0) break;

    // Chaos fault windows injected for real: while any window is open this
    // session reads nothing, so the client's puts time out and walk the
    // retry/backoff/spill ladder against genuine socket stalls.
    if (opts_.chaos_stall && s->chaos) {
      for (;;) {
        const double now_s = s->env->now_s();
        double until = 0;
        for (const chaos::FaultWindow& w : s->chaos->fault_windows()) {
          if (w.t0_s <= now_s && now_s < w.t1_s) until = std::max(until, w.t1_s);
        }
        if (until <= now_s) break;
        co_await s->env->sleep(
            static_cast<sim::Time>((until - now_s) * 1e9));
      }
    }

    const std::span<std::byte> space = dec.prepare(kReadBytes);
    const ssize_t n = ::recv(s->fd, space.data(), space.size(), 0);
    if (n > 0) {
      dec.commit(static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!co_await ex_.wait_readable(s->fd)) err = "cancelled";
      continue;
    }
    if (errno == EINTR) continue;
    err = std::string("recv: ") + std::strerror(errno);
  }
  if (err.empty() && eof && dec.pending_bytes() > 0) {
    // Peer reset (or vanished) mid-block: the bytes of a partial frame are
    // sitting in the decoder with no continuation coming.
    err = "peer closed mid-frame (" +
          std::to_string(dec.pending_bytes()) + " bytes pending)";
  }
  if (!err.empty() && s->error.empty()) s->error = err;
  // End of input: close the consumer queues so the body unwinds through its
  // end-of-stream path whether the session completed or died.
  s->env->close_transport();
  s->demux_done.count_down();
}

sim::Task ZipperdServer::consumer_wrap(Session* s, int c) {
  try {
    co_await s->body->consumer_run(c);
  } catch (const std::exception& e) {
    if (s->error.empty()) {
      s->error = "consumer " + std::to_string(c) + ": " + e.what();
    }
    s->env->close_transport();
  }
  s->consumers_done.count_down();
}

// ------------------------------------------------------------------ client --

namespace {

struct ClientState {
  const ClientOptions* opts;
  std::filesystem::path spill_root;
  std::uint64_t next_session = 0;
  ClientResult res;
};

constexpr std::size_t kMaxPooledSamples = 1u << 18;

void pool_latency(ClientResult& res, const std::vector<std::uint64_t>& add) {
  for (std::uint64_t v : add) {
    if (res.latency_ns.size() >= kMaxPooledSamples) return;
    res.latency_ns.push_back(v);
  }
}

void session_failed(ClientState& st, std::uint64_t sid,
                    const std::string& why) {
  ++st.res.sessions_failed;
  if (st.res.errors.size() < 8) {
    st.res.errors.push_back("session " + std::to_string(sid) + ": " + why);
  }
}

std::byte fill_byte(const BlockId& id) {
  return static_cast<std::byte>(
      (id.step * 131 + id.producer * 31 + id.index * 7) & 0xFF);
}

/// A client worker's connection to the daemon. Sessions run on it back to
/// back; the decoder belongs to the connection, as on the daemon side.
struct ClientConn {
  int fd = -1;
  FrameDecoder dec;
};

sim::Task connect_daemon(exec::EpollExecutor& ex, std::uint16_t port,
                         ClientConn& conn, std::string& err) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    err = std::string("socket: ") + std::strerror(errno);
    co_return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EINPROGRESS) {
      if (!co_await ex.wait_writable(fd)) {
        err = "connect cancelled";
      } else {
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
        if (soerr != 0) err = std::string("connect: ") + std::strerror(soerr);
      }
    } else {
      err = std::string("connect: ") + std::strerror(errno);
    }
  }
  if (!err.empty()) {
    ex.cancel_fd(fd);
    ::close(fd);
    co_return;
  }
  set_nodelay(fd);
  conn.fd = fd;
  conn.dec = FrameDecoder{};
}

void close_conn(exec::EpollExecutor& ex, ClientConn& conn) {
  if (conn.fd < 0) return;
  ex.cancel_fd(conn.fd);
  ::close(conn.fd);
  conn.fd = -1;
}

/// Runs session `sid` on `conn`; `err` stays empty if it verified ok.
sim::Task client_session(exec::EpollExecutor& ex, ClientState& st,
                         std::uint64_t sid, ClientConn& conn,
                         std::string& err) {
  SessionSpec spec = st.opts->spec;
  spec.session_id = sid;
  spec.live_control = static_cast<bool>(st.opts->make_controller);
  const std::filesystem::path sdir =
      st.spill_root / ("s" + std::to_string(::getpid()) + "_" +
                       std::to_string(sid));
  // The env creates the directory on its first spill; the daemon only reads
  // it for blocks that were spilled, so none need exist before then.
  spec.spill_dir = sdir.string();

  const int P = static_cast<int>(spec.producers);
  const int Q = static_cast<int>(spec.consumers);
  LoopEnvConfig ec;
  ec.spill_dir = sdir;
  NetEnv env(ex, ec, Q);
  env.attach_wire(conn.fd);
  BodyConfig bc = body_config_from(spec);
  bc.chaos = chaos_from(spec);
  if (st.opts->make_controller) {
    bc.controller = st.opts->make_controller();
    bc.control_interval = st.opts->control_interval;
  }
  ZipperBody<NetBinding> body(env, bc, placement_from(spec));

  co_await env.write_frame(encode_hello(spec));
  for (int p = 0; p < P; ++p) body.spawn_producer_services(p);
  if (bc.controller) body.spawn_control();

  const int nb = spec.blocks_per_step();
  for (std::uint32_t step = 0;
       step < spec.steps && env.wire_error().empty(); ++step) {
    for (int p = 0; p < P; ++p) {
      for (int b = 0; b < nb; ++b) {
        NetEnv::ItemT it;
        it.h.id = BlockId{static_cast<std::int32_t>(step), p, b};
        it.h.offset = static_cast<std::uint64_t>(b) * spec.block_bytes;
        it.h.bytes = (b == nb - 1)
                         ? spec.step_bytes -
                               static_cast<std::uint64_t>(nb - 1) *
                                   spec.block_bytes
                         : spec.block_bytes;
        auto blk = std::make_shared<Block>();
        blk->header = it.h;
        blk->payload.assign(it.h.bytes, fill_byte(it.h.id));
        it.payload = std::move(blk);
        co_await body.put_header(p, std::move(it));
      }
    }
  }
  for (int p = 0; p < P; ++p) co_await body.producer_finalize(p);
  for (int p = 0; p < P; ++p) co_await body.wait_sender_done(p);
  if (bc.controller) {
    // Cut the in-flight control tick short and wait for control_main to
    // return, so the body outlives its last snapshot.
    env.stop_control();
    co_await body.wait_control_done();
  }

  SessionSummary sum;
  if (env.wire_error().empty()) {
    std::optional<Frame> f;
    co_await read_one_frame(ex, conn.fd, conn.dec, f, err);
    if (err.empty() && !f) err = "connection closed";
    if (err.empty()) {
      if (f->type != FrameType::kSummary) {
        err = "expected summary frame";
      } else {
        try {
          sum = decode_summary(f->body);
        } catch (const FrameError& e) {
          err = e.what();
        }
      }
    }
  } else {
    err = env.wire_error();
  }

  // The client's own spill failure is the root cause of the daemon's
  // failed fetch, so it is reported first.
  if (err.empty() && !env.io_error().empty()) err = env.io_error();
  if (err.empty() && !sum.ok) {
    err = sum.error.empty() ? "daemon reported failure" : sum.error;
  }
  if (err.empty() && sum.blocks_analyzed != spec.expected_blocks()) {
    err = "daemon analyzed " + std::to_string(sum.blocks_analyzed) + " of " +
          std::to_string(spec.expected_blocks());
  }
  // A summary means the daemon's last fetch is done; without one the
  // session has failed either way.
  if (env.made_spill_dir()) {
    std::error_code fec;
    std::filesystem::remove_all(sdir, fec);
  }

  const exec::AggregateStats ag = body.aggregate();
  st.res.put_retries += ag.put_retries;
  st.res.blocks_spilled_slow += ag.blocks_spilled_slow;
  st.res.blocks_analyzed += sum.blocks_analyzed;
  st.res.blocks_from_network += sum.blocks_from_network;
  st.res.blocks_from_disk += sum.blocks_from_disk;
  pool_latency(st.res, sum.latency_ns);
}

/// One connection, sessions over it back to back. A failed session closes
/// the connection (its wire state is unknown); the next session reconnects.
sim::Task client_worker(exec::EpollExecutor& ex, ClientState& st) {
  ClientConn conn;
  while (st.next_session < st.opts->sessions) {
    const std::uint64_t sid = st.next_session++;
    std::string err;
    if (conn.fd < 0) co_await connect_daemon(ex, st.opts->port, conn, err);
    if (err.empty()) co_await client_session(ex, st, sid, conn, err);
    if (err.empty()) {
      ++st.res.sessions_ok;
      continue;
    }
    session_failed(st, sid, err);
    close_conn(ex, conn);
  }
  close_conn(ex, conn);
}

}  // namespace

std::uint64_t ClientResult::latency_percentile_ns(double q) const {
  if (latency_ns.empty()) return 0;
  std::vector<std::uint64_t> v = latency_ns;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

ClientResult run_client_load(const ClientOptions& opts) {
  keep_freed_heap();
  exec::EpollExecutor ex;
  ClientState st;
  st.opts = &opts;
  st.spill_root = opts.spill_root;
  if (st.spill_root.empty()) {
    st.spill_root = std::filesystem::temp_directory_path() /
                    ("zipper_client_" + std::to_string(::getpid()));
  }
  std::error_code fec;
  std::filesystem::create_directories(st.spill_root, fec);

  const std::uint64_t workers =
      std::max<std::uint64_t>(1, std::min(opts.concurrency, opts.sessions));
  for (std::uint64_t w = 0; w < workers; ++w) {
    ex.spawn(client_worker(ex, st));
  }
  const sim::Time t0 = exec::EpollExecutor::raw_now();
  ex.run();
  st.res.duration_s =
      static_cast<double>(exec::EpollExecutor::raw_now() - t0) / 1e9;
  st.res.blocks_expected = opts.sessions * opts.spec.expected_blocks();
  return st.res;
}

}  // namespace zipper::core::zbody::net
