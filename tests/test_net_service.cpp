// Differential suite for the real-I/O backend (docs/service.md): the same
// unified zipper body that runs on the VirtualTimeExecutor is bound to the
// EpollExecutor and driven across a real localhost socket by an in-process
// zipperd + client pair. The streaming invariants must agree:
//
//   * exactly-once — both executors analyze exactly the same block-id set;
//   * per-(producer,consumer) FIFO — production order survives the DES event
//     loop and the length-prefixed TCP frame stream alike;
//   * conservation — analyzed == network + disk on both sides of the wire.
//
// Plus the frame-codec edge cases (truncated header, oversized length,
// byte-by-byte split reads, in-place reads at every split point, checksum
// corruption, protocol version), scatter-gather writes under a tiny send
// buffer, the chaos ladder against a live daemon (fault window ->
// retry/backoff -> degrade to the shared spill directory), peer resets
// mid-block, shutdown racing an accept, the lazily created spill directory,
// sessions back to back on one connection (the frame rules between them,
// reconnecting after a failure, a stop between sessions), and the
// EpollExecutor contract (timer ordering, channel backpressure, deadlock
// detection, the epoll interest model, timerfd re-arming, bounded loop
// passes, primitives that allocate nothing when built).
//
// Flake-proofing contract for CI: every server here binds port 0 and the
// client reads the kernel-assigned port back from the server object — no
// fixed ports, no startup sleeps (the listener is live when the constructor
// returns).
#include <gtest/gtest.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/profiles.hpp"
#include "common/units.hpp"
#include "core/exec/epoll.hpp"
#include "core/zipper/net_frame.hpp"
#include "core/zipper/net_service.hpp"
#include "workflow/runner.hpp"
#include "workflow/pipeline_coupling.hpp"

// Every operator new on a thread bumps its counter, so a test can count the
// allocations a piece of code makes.
namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// Out of line, so that the compiler does not pair an inlined free() with a
// pointer it saw come from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fs = std::filesystem;
using namespace zipper;
using common::KiB;
using core::BlockHeader;
using core::BlockId;
// Alias is `znet` (not `net`) to dodge the ambiguity with zipper::net
// (net/fabric.hpp) under `using namespace zipper`.
namespace znet = core::zbody::net;
namespace exec = core::exec;

namespace {

// Shared geometry, identical on both executors (non-divisible step size so
// the last block of every step is short).
constexpr int kP = 4;
constexpr int kQ = 2;
constexpr int kSteps = 3;
constexpr std::uint64_t kBlockBytes = 64 * KiB;
constexpr std::uint64_t kStepBytes = 5 * 64 * KiB + 32 * KiB;
constexpr int kBlocksPerStep = 6;
constexpr std::uint64_t kExpectedBlocks =
    static_cast<std::uint64_t>(kP) * kSteps * kBlocksPerStep;

std::set<BlockId> expected_ids(int steps = kSteps) {
  std::set<BlockId> ids;
  for (int s = 0; s < steps; ++s)
    for (int p = 0; p < kP; ++p)
      for (int b = 0; b < kBlocksPerStep; ++b) ids.insert(BlockId{s, p, b});
  return ids;
}

// Per-(consumer,producer) analyze order, for the FIFO property.
using OrderLog = std::map<std::pair<int, int>, std::vector<BlockId>>;

void expect_fifo(const OrderLog& order, const char* executor) {
  for (const auto& [key, seq] : order) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LT(seq[i - 1], seq[i])
          << executor << ": consumer " << key.first << " saw producer "
          << key.second << "'s blocks out of order: "
          << seq[i - 1].to_string() << " before " << seq[i].to_string();
    }
  }
}

// ---------------------------------------------------------- virtual time ----

struct VtOutcome {
  std::set<BlockId> analyzed;
  OrderLog order;
  std::uint64_t analyzed_count = 0;
};

VtOutcome run_virtual() {
  apps::WorkloadProfile prof;
  prof.name = "net-diff";
  prof.steps = kSteps;
  prof.bytes_per_rank_per_step = kStepBytes;
  prof.t_collision = sim::from_seconds(0.01);
  prof.t_update = sim::from_seconds(0.01);
  prof.analysis_ns_per_byte = 1.0;

  core::zbody::VtConfig z;
  z.block_bytes = kBlockBytes;
  z.producer_buffer_blocks = 8;
  // Stealing legitimately reorders via the disk path (test_exec pins that
  // down); FIFO is only a contract with it off, so the differential runs
  // steal-free on both executors.
  z.enable_steal = false;

  VtOutcome out;
  z.on_analyzed = [&out](int c, const BlockHeader& h) {
    out.analyzed.insert(h.id);
    out.order[{c, h.id.producer}].push_back(h.id);
    ++out.analyzed_count;
  };
  workflow::Cluster cluster(workflow::ClusterSpec::bridges(),
                            workflow::Layout{kP, kQ, 0});
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, workflow::make_chain(1));
  workflow::run_workflow(cluster, prof, &coupling);
  return out;
}

// -------------------------------------------------------------- loopback ----

struct NetOutcome {
  znet::ClientResult res;
  znet::ServerStats sstats;
  // Keyed (session, consumer, producer): sessions multiplex one daemon.
  std::map<std::tuple<std::uint64_t, int, int>, std::vector<BlockId>> order;
  std::map<std::uint64_t, std::set<BlockId>> analyzed;  // per session
};

struct NetCase {
  std::uint64_t sessions = 1;
  std::uint64_t concurrency = 1;
  std::string fault;
  std::uint64_t chaos_seed = 0;
  double horizon_s = 1.0;
  bool chaos_stall = false;
  bool enable_steal = false;
  std::uint64_t analysis_ns = 0;
  std::uint32_t steps = kSteps;
  fs::path spill_root;  // empty: the client's default
};

NetOutcome run_net(const NetCase& tc) {
  znet::ServerOptions so;
  so.chaos_stall = tc.chaos_stall;
  so.analysis_ns_per_block = tc.analysis_ns;
  NetOutcome out;
  // Single-writer: the hook runs on the server thread only, and the test
  // reads after join() — the join is the synchronization point.
  so.on_analyzed = [&out](std::uint64_t session, int c, const BlockHeader& h) {
    out.order[{session, c, h.id.producer}].push_back(h.id);
    out.analyzed[session].insert(h.id);
  };
  znet::ZipperdServer server(std::move(so));

  znet::ClientOptions co;
  co.port = server.port();
  co.sessions = tc.sessions;
  co.concurrency = tc.concurrency;
  co.spec.producers = kP;
  co.spec.consumers = kQ;
  co.spec.steps = tc.steps;
  co.spec.block_bytes = kBlockBytes;
  co.spec.step_bytes = kStepBytes;
  co.spec.fault = tc.fault;
  co.spec.chaos_seed = tc.chaos_seed;
  co.spec.horizon_s = tc.horizon_s;
  co.spec.enable_steal = tc.enable_steal;
  co.spill_root = tc.spill_root;

  std::thread daemon([&server] { server.run(); });
  out.res = znet::run_client_load(co);
  server.request_stop();
  daemon.join();
  out.sstats = server.stats();
  return out;
}

// A raw client for malformed-wire tests: connect (blocking socket), send
// exactly `bytes`, then hard-close.
void raw_send_and_close(std::uint16_t port, const std::vector<std::byte>& bytes,
                        bool rst) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  if (rst) {
    // SO_LINGER 0: close sends RST instead of FIN — a peer reset mid-block.
    linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  ::close(fd);
}

znet::SessionSpec small_spec(std::uint64_t id, const fs::path& spill) {
  znet::SessionSpec spec;
  spec.session_id = id;
  spec.producers = 2;
  spec.consumers = 2;
  spec.steps = 2;
  spec.block_bytes = 4 * KiB;
  spec.step_bytes = 8 * KiB;
  spec.spill_dir = spill.string();
  return spec;
}

/// An in-process daemon on its own thread, stopped and joined on scope exit
/// so that a failed ASSERT cannot leave the thread running.
struct LiveDaemon {
  explicit LiveDaemon(znet::ServerOptions so = {})
      : server(std::move(so)), thread([this] { server.run(); }) {}
  ~LiveDaemon() { stop(); }
  void stop() {
    if (!thread.joinable()) return;
    server.request_stop();
    thread.join();
  }
  const znet::ServerStats& stats() const { return server.stats(); }

  znet::ZipperdServer server;
  std::thread thread;
};

/// A blocking client socket for raw-wire tests; reads time out after five
/// seconds, so a daemon that never answers fails the test instead of
/// hanging it.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void raw_send(int fd, const std::vector<std::byte>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

/// The next frame from a raw socket; std::nullopt on EOF, error or timeout.
std::optional<znet::Frame> raw_read_frame(int fd, znet::FrameDecoder& dec) {
  for (;;) {
    if (auto f = dec.next()) return f;
    std::byte buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    dec.feed(buf, static_cast<std::size_t>(n));
  }
}

/// True once the daemon has closed `fd` within the read timeout: EOF, or a
/// reset if it closed with bytes of ours still unread.
bool raw_sees_close(int fd) {
  char c;
  const ssize_t n = ::recv(fd, &c, 1, 0);
  return n == 0 || (n < 0 && errno == ECONNRESET);
}

/// Every frame a one-producer, one-consumer client sends for `spec`: the
/// Hello, one mixed frame per block, and the end-of-stream marker.
std::vector<std::byte> one_producer_session(const znet::SessionSpec& spec) {
  std::vector<std::byte> out = znet::encode_hello(spec);
  const int nb = spec.blocks_per_step();
  for (std::uint32_t step = 0; step < spec.steps; ++step) {
    for (int b = 0; b < nb; ++b) {
      znet::WireMixed m;
      m.has_block = true;
      m.producer = 0;
      m.block.id = BlockId{static_cast<std::int32_t>(step), 0, b};
      m.block.bytes = spec.block_bytes;
      m.payload.assign(spec.block_bytes, std::byte{0x5A});
      const auto frame = znet::encode_mixed(m);
      out.insert(out.end(), frame.begin(), frame.end());
    }
  }
  znet::WireMixed end;
  end.done = true;
  end.producer = 0;
  const auto frame = znet::encode_mixed(end);
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

/// A 1x1 session of two 4 KiB blocks, for the raw-wire tests.
znet::SessionSpec raw_spec(std::uint64_t id) {
  znet::SessionSpec spec = small_spec(id, "/tmp/zipper_raw_spill");
  spec.producers = 1;
  spec.consumers = 1;
  spec.steps = 1;
  return spec;
}

/// Reads one Summary frame off a raw connection.
std::optional<znet::SessionSummary> raw_read_summary(int fd,
                                                     znet::FrameDecoder& dec) {
  const auto f = raw_read_frame(fd, dec);
  if (!f || f->type != znet::FrameType::kSummary) return std::nullopt;
  return znet::decode_summary(f->body);
}

/// A fresh, empty per-test directory under the system temp dir.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       (name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

void send_byte(int fd) {
  const char c = 'x';
  EXPECT_EQ(1, ::send(fd, &c, 1, MSG_NOSIGNAL));
}

/// Reads whatever is buffered on a non-blocking socket; returns the count.
int drain(int fd) {
  char buf[64];
  int total = 0;
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    total += static_cast<int>(n);
  }
  return total;
}

/// Loop-side watchdog for the interest-model tests: a coroutine parked on
/// an fd whose epoll registration was lost never wakes, so unless `done` is
/// set within two seconds this cancels `fd` and the waiter resumes with
/// `false` instead of hanging the test.
sim::Task io_watchdog(exec::EpollExecutor& ex, const bool& done, int fd) {
  const sim::Time until = ex.now() + 2 * sim::kSecond;
  while (!done && ex.now() < until) {
    co_await ex.sleep_until(ex.now() + sim::kMillisecond);
  }
  if (!done) ex.cancel_fd(fd);
}

/// The resilience-ladder geometry with real socket stalls, so blocks take
/// the degraded path through the lazily created spill directory.
NetCase spilling_case(const fs::path& spill_root) {
  NetCase tc;
  tc.steps = 20;
  tc.fault = "3x8@0.3";
  tc.enable_steal = true;
  tc.chaos_seed = 5;
  tc.horizon_s = 0.02;
  tc.analysis_ns = 1'500'000;
  tc.chaos_stall = true;
  tc.spill_root = spill_root;
  return tc;
}

}  // namespace

// ------------------------------------------------------------ frame codec ----

TEST(NetFrameCodec, HelloRoundTrip) {
  znet::SessionSpec spec = small_spec(42, "/tmp/spill_rt");
  spec.fault = "2x8@0.5";
  spec.chaos_seed = 7;
  spec.route_kind = 2;
  spec.consumer_steal = true;
  spec.high_water = 0.75;
  znet::FrameDecoder dec;
  const auto wire = znet::encode_hello(spec);
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, znet::FrameType::kHello);
  const znet::SessionSpec back = znet::decode_hello(f->body);
  EXPECT_EQ(back.session_id, 42u);
  EXPECT_EQ(back.producers, 2u);
  EXPECT_EQ(back.fault, "2x8@0.5");
  EXPECT_EQ(back.route_kind, 2);
  EXPECT_TRUE(back.consumer_steal);
  EXPECT_DOUBLE_EQ(back.high_water, 0.75);
  EXPECT_EQ(back.spill_dir, "/tmp/spill_rt");
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(NetFrameCodec, MixedRoundTripWithPayloadAndSpillIds) {
  znet::WireMixed m;
  m.has_block = true;
  m.producer = 3;
  m.consumer = 1;
  m.sent_raw_ns = 123456789;
  m.block.id = BlockId{5, 3, 2};
  m.block.bytes = 100;
  m.payload.resize(100);
  for (int i = 0; i < 100; ++i) m.payload[i] = static_cast<std::byte>(i);
  BlockHeader spilled;
  spilled.id = BlockId{5, 3, 1};
  spilled.on_disk = true;
  m.ids_on_disk.push_back(spilled);

  znet::FrameDecoder dec;
  const auto wire = znet::encode_mixed(m);
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, znet::FrameType::kMixed);
  const znet::WireMixed back = znet::decode_mixed(f->body);
  EXPECT_EQ(back.block.id, m.block.id);
  EXPECT_EQ(back.payload, m.payload);
  ASSERT_EQ(back.ids_on_disk.size(), 1u);
  EXPECT_EQ(back.ids_on_disk[0].id, spilled.id);
  EXPECT_TRUE(back.ids_on_disk[0].on_disk);
  EXPECT_EQ(back.sent_raw_ns, 123456789u);
}

TEST(NetFrameCodec, SummaryRoundTrip) {
  znet::SessionSummary s;
  s.session_id = 9;
  s.ok = true;
  s.blocks_analyzed = 48;
  s.blocks_from_network = 40;
  s.blocks_from_disk = 8;
  s.latency_ns = {100, 200, 300};
  znet::FrameDecoder dec;
  const auto wire = znet::encode_summary(s);
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  const znet::SessionSummary back = znet::decode_summary(f->body);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.blocks_analyzed, 48u);
  EXPECT_EQ(back.blocks_from_disk, 8u);
  EXPECT_EQ(back.latency_ns, (std::vector<std::uint64_t>{100, 200, 300}));
}

TEST(NetFrameCodec, TruncatedHeaderWaitsForMoreBytes) {
  znet::FrameDecoder dec;
  const std::byte partial[3] = {std::byte{10}, std::byte{0}, std::byte{0}};
  dec.feed(partial, 3);
  EXPECT_FALSE(dec.next().has_value());  // 4-byte length not complete yet
  EXPECT_EQ(dec.pending_bytes(), 3u);
}

TEST(NetFrameCodec, OversizedLengthThrows) {
  znet::FrameDecoder dec;
  std::vector<std::byte> hdr(5);
  const std::uint32_t huge = znet::kMaxFrameBytes + 1;
  std::memcpy(hdr.data(), &huge, 4);
  hdr[4] = std::byte{2};
  dec.feed(hdr.data(), hdr.size());
  EXPECT_THROW(dec.next(), znet::FrameError);
}

TEST(NetFrameCodec, ZeroLengthAndUnknownTypeThrow) {
  {
    znet::FrameDecoder dec;
    const std::byte zero[5] = {};
    dec.feed(zero, 5);
    EXPECT_THROW(dec.next(), znet::FrameError);
  }
  {
    znet::FrameDecoder dec;
    std::vector<std::byte> f(5);
    const std::uint32_t len = 1;
    std::memcpy(f.data(), &len, 4);
    f[4] = std::byte{9};  // no such frame type
    dec.feed(f.data(), f.size());
    EXPECT_THROW(dec.next(), znet::FrameError);
  }
}

TEST(NetFrameCodec, SplitReadsAcrossWakeupsReassemble) {
  // Three frames, fed one byte at a time — the worst epoll fragmentation.
  std::vector<std::byte> stream;
  const auto hello = znet::encode_hello(small_spec(1, "/tmp/x"));
  znet::WireMixed m;
  m.done = true;
  m.producer = 0;
  const auto mixed = znet::encode_mixed(m);
  znet::SessionSummary s;
  s.ok = true;
  const auto summary = znet::encode_summary(s);
  stream.insert(stream.end(), hello.begin(), hello.end());
  stream.insert(stream.end(), mixed.begin(), mixed.end());
  stream.insert(stream.end(), summary.begin(), summary.end());

  znet::FrameDecoder dec;
  std::vector<znet::Frame> frames;
  for (const std::byte b : stream) {
    dec.feed(&b, 1);
    while (auto f = dec.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, znet::FrameType::kHello);
  EXPECT_EQ(frames[1].type, znet::FrameType::kMixed);
  EXPECT_EQ(frames[2].type, znet::FrameType::kSummary);
  EXPECT_TRUE(znet::decode_mixed(frames[1].body).done);
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(NetFrameCodec, TruncatedBodyAndTrailingBytesThrow) {
  const auto wire = znet::encode_hello(small_spec(1, "/tmp/x"));
  // Body cut short: drop the last byte of the hello body.
  {
    std::vector<std::byte> body(wire.begin() + 5, wire.end() - 1);
    EXPECT_THROW(znet::decode_hello(body), znet::FrameError);
  }
  // Trailing garbage after a well-formed body.
  {
    std::vector<std::byte> body(wire.begin() + 5, wire.end());
    body.push_back(std::byte{0xAA});
    EXPECT_THROW(znet::decode_hello(body), znet::FrameError);
  }
}

TEST(NetFrameCodec, CorruptPayloadFailsChecksum) {
  znet::WireMixed m;
  m.has_block = true;
  m.block.id = BlockId{0, 0, 0};
  m.block.bytes = 64;
  m.payload.assign(64, std::byte{0x5A});
  auto wire = znet::encode_mixed(m);
  wire[wire.size() - 1] ^= std::byte{0xFF};  // flip a payload bit on the wire
  znet::FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW(znet::decode_mixed(f->body), znet::FrameError);
}

TEST(NetFrameCodec, MixedFrameIsHeadThenPayload) {
  znet::WireMixed m;
  m.has_block = true;
  m.producer = 1;
  m.consumer = 0;
  m.sent_raw_ns = 42;
  m.block.id = BlockId{2, 1, 0};
  m.block.bytes = 1000;
  m.payload.resize(1000);
  for (std::size_t i = 0; i < m.payload.size(); ++i) {
    m.payload[i] = static_cast<std::byte>(i * 7);
  }
  BlockHeader spilled;
  spilled.id = BlockId{1, 1, 3};
  spilled.on_disk = true;
  m.ids_on_disk.push_back(spilled);
  for (const bool has_block : {true, false}) {
    m.has_block = has_block;
    std::vector<std::byte> sg = znet::encode_mixed_head(m, m.payload);
    if (has_block) sg.insert(sg.end(), m.payload.begin(), m.payload.end());
    EXPECT_EQ(znet::encode_mixed(m), sg) << "has_block " << has_block;
  }
}

TEST(NetFrameCodec, PrepareCommitAtEverySplitPointDecodesLikeFeed) {
  std::vector<std::byte> stream;
  std::vector<std::size_t> starts;  // offset of each frame in the stream
  auto append = [&](const std::vector<std::byte>& f) {
    starts.push_back(stream.size());
    stream.insert(stream.end(), f.begin(), f.end());
  };
  append(znet::encode_hello(small_spec(3, "/tmp/x")));
  znet::WireMixed m;
  m.has_block = true;
  m.block.id = BlockId{0, 1, 2};
  m.block.bytes = 3000;
  m.payload.resize(3000);
  for (std::size_t i = 0; i < m.payload.size(); ++i) {
    m.payload[i] = static_cast<std::byte>(i * 13 + 1);
  }
  append(znet::encode_mixed(m));
  znet::WireMixed done;
  done.done = true;
  append(znet::encode_mixed(done));
  znet::SessionSummary sum;
  sum.latency_ns = {7, 8, 9};
  append(znet::encode_summary(sum));
  starts.push_back(stream.size());

  std::vector<znet::Frame> want;
  {
    znet::FrameDecoder dec;
    dec.feed(stream.data(), stream.size());
    while (auto f = dec.next()) want.push_back(std::move(*f));
  }
  ASSERT_EQ(want.size(), 4u);

  // Receives stream[from, to) the way the daemon does, in as many reads as
  // prepare() allows, and pops every frame that completes.
  auto receive = [&stream](znet::FrameDecoder& dec, std::size_t from,
                           std::size_t to, std::vector<znet::Frame>& got) {
    while (from < to) {
      const std::span<std::byte> space = dec.prepare(to - from);
      ASSERT_FALSE(space.empty());
      std::memcpy(space.data(), stream.data() + from, space.size());
      dec.commit(space.size());
      from += space.size();
      while (auto v = dec.next_view()) {
        got.push_back({v->type, {v->body.begin(), v->body.end()}});
      }
    }
  };
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    znet::FrameDecoder dec;
    std::vector<znet::Frame> got;
    receive(dec, 0, split, got);
    // Once a frame's length is buffered, no read may run past its end.
    const auto frame_end = std::upper_bound(starts.begin(), starts.end(), split);
    if (frame_end != starts.end() && split >= *(frame_end - 1) + 4) {
      EXPECT_EQ(dec.prepare(1 << 20).size(), *frame_end - split)
          << "split " << split;
    }
    receive(dec, split, stream.size(), got);
    ASSERT_EQ(got.size(), want.size()) << "split " << split;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].type, want[i].type) << "split " << split;
      EXPECT_EQ(got[i].body, want[i].body) << "split " << split;
    }
    EXPECT_EQ(dec.pending_bytes(), 0u);
  }
}

TEST(NetFrameCodec, Zpl2HelloIsRejected) {
  // ZPL2 daemons served one session per connection; a ZPL2 peer must fail
  // at its first Hello, not at its second session.
  auto wire = znet::encode_hello(small_spec(1, "/tmp/x"));
  const std::uint32_t zpl2 = 0x5A50'4C32;  // "ZPL2", little-endian on wire
  for (int i = 0; i < 4; ++i) {
    wire[5 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((zpl2 >> (8 * i)) & 0xFF);
  }
  znet::FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW((void)znet::decode_hello(f->body), znet::FrameError);
}

TEST(NetFrameCodec, PreviousProtocolHelloIsRejected) {
  auto wire = znet::encode_hello(small_spec(1, "/tmp/x"));
  const std::uint32_t zpl1 = 0x5A50'4C31;  // "ZPL1", little-endian on wire
  for (int i = 0; i < 4; ++i) {
    wire[5 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((zpl1 >> (8 * i)) & 0xFF);
  }
  znet::FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  try {
    (void)znet::decode_hello(f->body);
    FAIL() << "a ZPL1 hello was accepted";
  } catch (const znet::FrameError& e) {
    EXPECT_STREQ(e.what(), "bad hello magic");
  }
}

TEST(NetBinding, ScatterGatherFramesSurviveATinySendBuffer) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv));
  const int small = 4096;
  ASSERT_EQ(0, ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small,
                            sizeof(small)));
  int sndbuf = 0;
  socklen_t len = sizeof(sndbuf);
  ::getsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, &len);

  // Two frames from two concurrent senders: each must arrive whole and in
  // one piece even though every sendmsg() writes only part of it.
  std::vector<znet::WireMixed> ms(2);
  std::vector<std::byte> want;
  for (std::size_t k = 0; k < ms.size(); ++k) {
    ms[k].has_block = true;
    ms[k].producer = static_cast<std::int32_t>(k);
    ms[k].block.id = BlockId{0, static_cast<std::int32_t>(k), 0};
    ms[k].block.bytes = 64 * KiB + 3;
    ms[k].payload.resize(ms[k].block.bytes);
    for (std::size_t i = 0; i < ms[k].payload.size(); ++i) {
      ms[k].payload[i] = static_cast<std::byte>(i * 31 + k);
    }
    const auto frame = znet::encode_mixed(ms[k]);
    want.insert(want.end(), frame.begin(), frame.end());
  }
  ASSERT_LT(static_cast<std::size_t>(sndbuf), want.size() / 4)
      << "send buffer too large to force short writes";

  exec::EpollExecutor ex;
  core::zbody::NetEnv env(ex, core::zbody::LoopEnvConfig{}, 1);
  env.attach_wire(sv[0]);
  for (const znet::WireMixed& m : ms) {
    ex.spawn(env.write_frame(znet::encode_mixed_head(m, m.payload), m.payload));
  }
  std::vector<std::byte> got;
  auto slow_reader = [&]() -> sim::Task {
    std::byte buf[777];
    while (got.size() < want.size()) {
      const ssize_t n = ::recv(sv[1], buf, sizeof(buf), 0);
      if (n > 0) {
        got.insert(got.end(), buf, buf + n);
        co_await ex.yield();
      } else if (n < 0 && errno == EAGAIN) {
        if (!co_await ex.wait_readable(sv[1])) break;
      } else {
        break;
      }
    }
    // A writer still parked here sent bytes beyond its frames; wake it so
    // the failure shows as a wire error instead of a hang.
    ex.cancel_fd(sv[0]);
  };
  ex.spawn(slow_reader());
  ex.run();
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_TRUE(env.wire_error().empty()) << env.wire_error();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want) << "scatter-gather frames differ from encode_mixed";
}

// -------------------------------------------------- epoll executor contract --

TEST(EpollExecutor, TimersFireInDeadlineOrder) {
  exec::EpollExecutor ex;
  std::vector<int> order;
  auto sleeper = [&](int tag, sim::Time d) -> sim::Task {
    co_await ex.sleep_until(ex.now() + d);
    order.push_back(tag);
  };
  ex.spawn(sleeper(3, 6 * sim::kMillisecond));
  ex.spawn(sleeper(1, 1 * sim::kMillisecond));
  ex.spawn(sleeper(2, 3 * sim::kMillisecond));
  ex.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EpollExecutor, WakeEarlyEndsOneSleepAndItsTimerResumesNothing) {
  exec::EpollExecutor ex;
  std::vector<int> order;
  sim::Task long_sleep = [](exec::EpollExecutor& x, std::vector<int>& o)
      -> sim::Task {
    co_await x.sleep_until(x.now() + 10 * sim::kSecond);
    o.push_back(1);
  }(ex, order);
  const std::coroutine_handle<> h = long_sleep.handle();
  ex.spawn(std::move(long_sleep));
  auto short_sleep = [&]() -> sim::Task {
    co_await ex.sleep_until(ex.now() + 2 * sim::kMillisecond);
    order.push_back(2);
  };
  auto waker = [&]() -> sim::Task {
    co_await ex.yield();  // both sleepers are parked by now
    EXPECT_TRUE(ex.wake_early(h));
    EXPECT_FALSE(ex.wake_early(h));  // no longer in a sleep
  };
  ex.spawn(short_sleep());
  ex.spawn(waker());
  const auto t0 = std::chrono::steady_clock::now();
  ex.run();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  // Woken early it runs first; the other timer still fires at its deadline.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EpollExecutor, ChannelBackpressuresAndCloseWakes) {
  exec::EpollExecutor ex;
  exec::EpChannel<int> ch(ex, 1);
  std::vector<int> got;
  bool second_send_parked = false;
  auto producer = [&]() -> sim::Task {
    co_await ch.send(1);
    second_send_parked = true;  // runs before the parked send resumes
    co_await ch.send(2);        // parks: capacity 1, no receiver yet
    second_send_parked = false;
    ch.close();
  };
  auto consumer = [&]() -> sim::Task {
    co_await ex.sleep_until(ex.now() + sim::kMillisecond);
    EXPECT_TRUE(second_send_parked);
    while (auto v = co_await ch.recv()) got.push_back(*v);
  };
  ex.spawn(producer());
  ex.spawn(consumer());
  ex.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(EpollExecutor, LatchReleasesAllWaiters) {
  exec::EpollExecutor ex;
  exec::EpLatch latch(ex, 2);
  int released = 0;
  auto waiter = [&]() -> sim::Task {
    co_await latch.wait();
    ++released;
  };
  auto counter = [&]() -> sim::Task {
    co_await ex.yield();
    latch.count_down();
    co_await ex.yield();
    latch.count_down();
  };
  ex.spawn(waiter());
  ex.spawn(waiter());
  ex.spawn(counter());
  ex.run();
  EXPECT_EQ(released, 2);
}

TEST(EpollExecutor, DeadlockedLoopThrowsInsteadOfHanging) {
  exec::EpollExecutor ex;
  exec::EpChannel<int> ch(ex);
  auto stuck = [&]() -> sim::Task {
    (void)co_await ch.recv();  // nothing will ever send or close
  };
  ex.spawn(stuck());
  EXPECT_THROW(ex.run(), std::runtime_error);
}

TEST(EpollExecutor, FdStaysWaitableAcrossRewaitsAndUnwantedReadiness) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv));
  exec::EpollExecutor ex;
  bool done = false;
  int got = 0;
  std::uint64_t ctl_after_rewaits = 0;
  auto send_later = [&]() -> sim::Task {
    co_await ex.sleep_until(ex.now() + sim::kMillisecond);
    send_byte(sv[1]);
  };
  auto reader = [&]() -> sim::Task {
    // Woken, then parked again on the same direction: the registration
    // outlives each wake, so only the first wait reaches epoll_ctl.
    for (int k = 0; k < 3; ++k) {
      ex.spawn(send_later());
      if (!co_await ex.wait_readable(sv[0])) co_return;
      got += drain(sv[0]);
    }
    ctl_after_rewaits = ex.counters().epoll_ctl;
    // Readiness that lands while nobody waits: the loop drops the
    // registration, and the next wait must register the fd again.
    send_byte(sv[1]);
    co_await ex.sleep_until(ex.now() + 5 * sim::kMillisecond);
    if (!co_await ex.wait_readable(sv[0])) co_return;
    got += drain(sv[0]);
    done = true;
  };
  ex.spawn(reader());
  ex.spawn(io_watchdog(ex, done, sv[0]));
  ex.run();
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_TRUE(done) << "a wait after unwanted readiness never woke";
  EXPECT_EQ(got, 4);
  EXPECT_EQ(ctl_after_rewaits, 1u)
      << "parking again on a registered direction made epoll_ctl calls";
  EXPECT_EQ(ex.counters().epoll_ctl, 3u)
      << "expected ADD, DEL on the unwanted readiness, ADD on the next wait";
}

TEST(EpollExecutor, ReusedFdNumberIsWaitableAfterCancelAndClose) {
  int a[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, a));
  const int num = a[0];
  exec::EpollExecutor ex;
  // Woken once and never parked again: the registration stays behind.
  auto once = [&]() -> sim::Task {
    send_byte(a[1]);
    (void)co_await ex.wait_readable(a[0]);
  };
  ex.spawn(once());
  ex.run();
  ex.cancel_fd(a[0]);
  ::close(a[0]);
  ::close(a[1]);

  int b[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, b));
  if (b[0] != num) {
    ASSERT_EQ(num, ::dup2(b[0], num));
    ::close(b[0]);
    b[0] = num;
  }
  bool done = false;
  auto send_later = [&]() -> sim::Task {
    co_await ex.sleep_until(ex.now() + sim::kMillisecond);
    send_byte(b[1]);
  };
  auto reader = [&]() -> sim::Task {
    ex.spawn(send_later());
    done = co_await ex.wait_readable(b[0]);
  };
  ex.spawn(reader());
  ex.spawn(io_watchdog(ex, done, b[0]));
  ex.run();
  ex.cancel_fd(b[0]);
  ::close(b[0]);
  ::close(b[1]);
  EXPECT_TRUE(done) << "a stale registration hid the reused fd from epoll";
}

TEST(EpollExecutor, DeadlockIsDetectedWhileIdleSocketsStayRegistered) {
  // Two registrations nobody waits on: one readable, one idle. Every root
  // is parked on a channel, so nothing can wake them and run() must throw
  // at once instead of blocking in epoll_wait on the idle socket.
  int busy[2];
  int idle[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, busy));
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, idle));
  exec::EpollExecutor ex;
  exec::EpChannel<int> ch(ex);
  auto stuck = [&](int fd, int peer, bool drain_it) -> sim::Task {
    send_byte(peer);
    (void)co_await ex.wait_readable(fd);
    if (drain_it) drain(fd);
    (void)co_await ch.recv();  // nothing will ever send or close
  };
  ex.spawn(stuck(busy[0], busy[1], false));
  ex.spawn(stuck(idle[0], idle[1], true));

  // If run() does block, wake it from outside after two seconds so the
  // failure shows as an assertion instead of a hang.
  std::mutex m;
  std::condition_variable cv;
  bool finished = false;
  bool fired = false;
  std::thread watchdog([&] {
    std::unique_lock lk(m);
    if (!cv.wait_for(lk, std::chrono::seconds(2), [&] { return finished; })) {
      fired = true;
      send_byte(idle[1]);
    }
  });
  EXPECT_THROW(ex.run(), std::runtime_error);
  {
    std::lock_guard lk(m);
    finished = true;
  }
  cv.notify_one();
  watchdog.join();
  EXPECT_FALSE(fired) << "run() blocked on a registration nobody waits on";
  for (int fd : {busy[0], busy[1], idle[0], idle[1]}) ::close(fd);
}

TEST(EpollExecutor, TimerfdIsSetOnlyWhenTheEarliestDeadlineChanges) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv));
  exec::EpollExecutor ex;
  bool slept = false;
  auto sleeper = [&]() -> sim::Task {
    co_await ex.sleep_until(ex.now() + 20 * sim::kMillisecond);
    slept = true;
  };
  // Loop turns that wake on an fd leave the pending deadline unchanged.
  int rounds = 0;
  auto pinger = [&]() -> sim::Task {
    for (; rounds < 5; ++rounds) {
      send_byte(sv[1]);
      if (!co_await ex.wait_readable(sv[0])) co_return;
      drain(sv[0]);
    }
  };
  ex.spawn(sleeper());
  ex.spawn(pinger());
  ex.run();
  ex.cancel_fd(sv[0]);
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_TRUE(slept);
  EXPECT_EQ(rounds, 5);
  EXPECT_EQ(ex.counters().timerfd_settime, 1u)
      << "the timerfd was re-armed on turns where its deadline did not move";
}

TEST(EpollExecutor, WakeChainsDoNotStarveFdsOrPileUpFinishedRoots) {
  // Two coroutines ping-pong through channels, each resume waking the other,
  // so the ready queue never empties until they finish. A third waits on an
  // eventfd that is readable before run() starts: it must wake while the
  // ping-pong is still going, and the short roots spawned from inside the
  // chain must be swept as they finish.
  constexpr int kRounds = 100'000;
  exec::EpollExecutor ex;
  exec::EpChannel<int> to_pong(ex, 1);
  exec::EpChannel<int> to_ping(ex, 1);
  const int efd = ::eventfd(1, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  int rounds = 0;
  int rounds_at_wake = -1;
  std::size_t max_roots = 0;
  auto short_root = []() -> sim::Task { co_return; };
  auto ping = [&]() -> sim::Task {
    for (; rounds < kRounds; ++rounds) {
      ex.spawn(short_root());
      max_roots = std::max(max_roots, ex.roots_alive());
      co_await to_pong.send(rounds);
      (void)co_await to_ping.recv();
    }
    to_pong.close();
  };
  auto pong = [&]() -> sim::Task {
    while (auto v = co_await to_pong.recv()) co_await to_ping.send(*v);
  };
  auto waiter = [&]() -> sim::Task {
    if (co_await ex.wait_readable(efd)) rounds_at_wake = rounds;
    ex.cancel_fd(efd);
  };
  ex.spawn(waiter());
  ex.spawn(ping());
  ex.spawn(pong());
  ex.run();
  ::close(efd);
  EXPECT_EQ(rounds, kRounds);
  EXPECT_GE(rounds_at_wake, 0);
  EXPECT_LT(rounds_at_wake, kRounds / 100)
      << "the eventfd waiter woke only after the wake chain ended";
  EXPECT_LT(max_roots, 1000u) << "finished roots were not swept mid-chain";
}

TEST(EpollExecutor, PrimitivesAllocateNothingWhenConstructed) {
  // A session builds dozens of these; none may allocate before it is used.
  exec::EpollExecutor ex;
  const std::uint64_t before = t_allocations;
  {
    exec::EpMutex m(ex);
    exec::EpCondVar cv(ex);
    exec::EpLatch latch(ex, 2);
    exec::EpChannel<int> bounded(ex, 32);
    exec::EpChannel<core::zbody::NetEnv::MixedT> unbounded(ex);
    EXPECT_EQ(t_allocations - before, 0u);
  }
  // Parking and waking go through the awaiters, not the heap: once the
  // roots are spawned, a contended lock, a condvar wait and a latch wait
  // allocate only the frame of the one cv.wait() call.
  exec::EpMutex m(ex);
  exec::EpCondVar cv(ex);
  exec::EpLatch latch(ex, 1);
  bool ready = false;
  auto holder = [&]() -> sim::Task {
    co_await m.lock();
    co_await ex.yield();
    m.unlock();
  };
  auto contender = [&]() -> sim::Task {
    co_await m.lock();
    while (!ready) co_await cv.wait(m);
    m.unlock();
    latch.count_down();
  };
  auto notifier = [&]() -> sim::Task {
    co_await ex.yield();
    co_await ex.yield();
    ready = true;
    cv.notify_all();
  };
  auto latch_waiter = [&]() -> sim::Task { co_await latch.wait(); };
  ex.spawn(holder());
  ex.spawn(contender());
  ex.spawn(notifier());
  ex.spawn(latch_waiter());
  const std::uint64_t before_run = t_allocations;
  ex.run();
  EXPECT_EQ(t_allocations - before_run, 1u);
  EXPECT_EQ(latch.pending(), 0);
}

// ------------------------------------------------------- loopback coupling --

TEST(NetService, ExactlyOnceFifoConservationDifferentialVsVirtualTime) {
  const VtOutcome vt = run_virtual();
  NetCase tc;
  tc.sessions = 2;
  tc.concurrency = 2;
  const NetOutcome nt = run_net(tc);

  // Virtual-time side of the differential.
  const std::set<BlockId> expected = expected_ids();
  EXPECT_EQ(vt.analyzed, expected);
  EXPECT_EQ(vt.analyzed_count, kExpectedBlocks) << "VT: exactly once";
  expect_fifo(vt.order, "virtual-time");

  // Real-socket side: same invariants, per multiplexed session.
  ASSERT_EQ(nt.res.sessions_ok, 2u) << (nt.res.errors.empty()
                                            ? "no error detail"
                                            : nt.res.errors.front());
  EXPECT_EQ(nt.res.sessions_failed, 0u);
  ASSERT_EQ(nt.analyzed.size(), 2u);
  for (const auto& [session, ids] : nt.analyzed) {
    EXPECT_EQ(ids, expected) << "epoll session " << session
                             << ": analyzed set differs from virtual time";
  }
  EXPECT_EQ(nt.res.blocks_analyzed, 2 * kExpectedBlocks);
  EXPECT_EQ(nt.res.blocks_from_network + nt.res.blocks_from_disk,
            nt.res.blocks_analyzed)
      << "every block arrives via exactly one of the two channels";
  OrderLog flat;
  for (const auto& [key, seq] : nt.order) {
    auto& dst = flat[{static_cast<int>(std::get<0>(key)) * 100 +
                          std::get<1>(key),
                      std::get<2>(key)}];
    dst.insert(dst.end(), seq.begin(), seq.end());
  }
  expect_fifo(flat, "epoll");
  EXPECT_EQ(nt.sstats.sessions_ok, 2u);
  EXPECT_EQ(nt.sstats.blocks_analyzed, 2 * kExpectedBlocks);
}

TEST(NetService, ChaosFaultWindowsWalkTheResilienceLadder) {
  NetCase tc;
  tc.steps = 20;
  tc.fault = "3x8@0.3";
  tc.enable_steal = true;
  tc.chaos_seed = 5;
  tc.horizon_s = 0.02;  // windows open while the senders are still streaming
  tc.analysis_ns = 1'500'000;
  const NetOutcome nt = run_net(tc);
  ASSERT_EQ(nt.res.sessions_ok, 1u) << (nt.res.errors.empty()
                                            ? "no error detail"
                                            : nt.res.errors.front());
  // Exactly-once must hold through the degraded path: every block the ladder
  // pushed to the shared spill directory was fetched by the daemon's reader.
  EXPECT_EQ(nt.res.blocks_analyzed, nt.res.blocks_expected);
  EXPECT_GT(nt.res.put_retries + nt.res.blocks_spilled_slow +
                nt.res.blocks_from_disk,
            0u)
      << "fault windows never engaged the retry/degrade ladder";
}

TEST(NetService, ChaosSocketStallsKeepExactlyOnce) {
  // Real injected stalls: the daemon stops reading during fault windows, so
  // degradation comes from genuine TCP backpressure, not a modeled timeout.
  NetCase tc;
  tc.steps = 20;
  tc.fault = "2x8@0.15";
  tc.enable_steal = true;
  tc.chaos_seed = 11;
  tc.horizon_s = 0.05;
  tc.chaos_stall = true;
  tc.analysis_ns = 500'000;
  const NetOutcome nt = run_net(tc);
  ASSERT_EQ(nt.res.sessions_ok, 1u) << (nt.res.errors.empty()
                                            ? "no error detail"
                                            : nt.res.errors.front());
  EXPECT_EQ(nt.res.blocks_analyzed, nt.res.blocks_expected);
}

TEST(NetService, SessionsThatNeverSpillCreateNoSpillDirectory) {
  // perfbench's svc_sessions geometry: one step of 16 KiB in 8 KiB blocks.
  const fs::path root = fresh_dir("zipper_lazy_spill");
  znet::ServerOptions so;
  // Runs on the daemon thread while the owning client session is live; the
  // test reads both counters after join().
  std::uint64_t checks = 0;
  std::uint64_t entries_seen = 0;
  so.on_analyzed = [&](std::uint64_t, int, const BlockHeader&) {
    ++checks;
    std::error_code ec;
    for (fs::directory_iterator it(root, ec), end; !ec && it != end;
         it.increment(ec)) {
      ++entries_seen;
    }
  };
  znet::ZipperdServer server(std::move(so));
  std::thread daemon([&server] { server.run(); });

  znet::ClientOptions co;
  co.port = server.port();
  co.sessions = 50;
  co.concurrency = 4;
  co.spill_root = root;
  co.spec.producers = 2;
  co.spec.consumers = 1;
  co.spec.steps = 1;
  co.spec.step_bytes = 16 * KiB;
  co.spec.block_bytes = 8 * KiB;
  const znet::ClientResult res = znet::run_client_load(co);
  server.request_stop();
  daemon.join();

  EXPECT_EQ(res.sessions_ok, 50u) << (res.errors.empty() ? "no error detail"
                                                         : res.errors.front());
  EXPECT_EQ(res.blocks_from_disk, 0u);
  EXPECT_EQ(checks, res.blocks_expected);
  EXPECT_EQ(entries_seen, 0u)
      << "a session that never spilled created its spill directory";
  EXPECT_TRUE(fs::is_empty(root)) << "a session directory was left behind";
  fs::remove_all(root);
}

TEST(NetService, SpillingSessionCreatesAndRemovesItsSpillDirectory) {
  const NetCase tc = spilling_case(fresh_dir("zipper_spill_ladder"));
  const NetOutcome nt = run_net(tc);
  ASSERT_EQ(nt.res.sessions_ok, 1u) << (nt.res.errors.empty()
                                            ? "no error detail"
                                            : nt.res.errors.front());
  EXPECT_EQ(nt.res.blocks_analyzed, nt.res.blocks_expected);
  EXPECT_EQ(nt.res.blocks_from_network + nt.res.blocks_from_disk,
            nt.res.blocks_analyzed);
  ASSERT_EQ(nt.analyzed.size(), 1u);
  EXPECT_EQ(nt.analyzed.begin()->second, expected_ids(20))
      << "exactly once through the spill path";
  EXPECT_GT(nt.res.blocks_from_disk, 0u) << "nothing took the spill path";
  EXPECT_TRUE(fs::is_empty(tc.spill_root))
      << "the session's spill directory was left behind";
  fs::remove_all(tc.spill_root);
}

TEST(NetService, SpillDirectoryThatCannotBeCreatedFailsTheSession) {
  // The same spilling run with spill_root under a regular file: the first
  // spill cannot create the session directory, and that session fails with
  // the spill-dir error rather than the daemon's failed fetch.
  const fs::path dir = fresh_dir("zipper_spill_blocked");
  fs::create_directories(dir);
  const fs::path file = dir / "not_a_dir";
  { std::ofstream(file) << "x"; }
  const NetOutcome nt = run_net(spilling_case(file / "spill"));
  EXPECT_EQ(nt.res.sessions_ok, 0u);
  ASSERT_EQ(nt.res.sessions_failed, 1u);
  ASSERT_FALSE(nt.res.errors.empty());
  EXPECT_NE(nt.res.errors.front().find("spill dir: "), std::string::npos)
      << nt.res.errors.front();
  fs::remove_all(dir);
}

namespace {

/// Exits 0 when a 2 MiB allocation comes from the heap rather than a
/// mapping of its own, and freeing it gives no heap pages back.
[[noreturn]] void exit_zero_if_freed_heap_is_kept() {
  const struct mallinfo2 before = ::mallinfo2();
  void* p = std::malloc(2 << 20);
  static_cast<volatile char*>(p)[0] = 1;  // keeps the pair from being elided
  const struct mallinfo2 held = ::mallinfo2();
  std::free(p);
  const struct mallinfo2 after = ::mallinfo2();
  std::_Exit(held.hblks == before.hblks && after.arena >= held.arena ? 0 : 1);
}

}  // namespace

TEST(NetServiceDeathTest, ServiceEntryPointsKeepFreedHeapPages) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator replaces glibc malloc";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "the sanitizer's allocator replaces glibc malloc";
#endif
#endif
  // The heap policy is process-wide and set once, so each entry point is
  // checked in a freshly executed child that has not run any other test.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        znet::ZipperdServer server{znet::ServerOptions{}};
        exit_zero_if_freed_heap_is_kept();
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(
      {
        // A port nothing listens on: the one session fails at connect.
        const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        ::bind(probe, reinterpret_cast<sockaddr*>(&addr), len);
        ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len);
        ::close(probe);
        znet::ClientOptions co;
        co.port = ntohs(addr.sin_port);
        co.spill_root = fresh_dir("zipper_heap_policy");
        (void)znet::run_client_load(co);
        fs::remove_all(co.spill_root);
        exit_zero_if_freed_heap_is_kept();
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(NetService, PeerResetMidBlockFailsOneSessionNotTheDaemon) {
  znet::ServerOptions so;
  znet::ZipperdServer server(std::move(so));
  const std::uint16_t port = server.port();
  std::thread daemon([&server] { server.run(); });

  // A session that dies mid-frame: valid hello, then the first 12 bytes of a
  // mixed frame, then RST.
  {
    znet::WireMixed m;
    m.has_block = true;
    m.block.id = BlockId{0, 0, 0};
    m.block.bytes = 4 * KiB;
    m.payload.assign(4 * KiB, std::byte{0x11});
    const auto mixed = znet::encode_mixed(m);
    auto bytes = znet::encode_hello(small_spec(77, "/tmp/zipper_reset_spill"));
    bytes.insert(bytes.end(), mixed.begin(), mixed.begin() + 12);
    raw_send_and_close(port, bytes, /*rst=*/true);
  }
  // A stray connection that is not even speaking the protocol.
  {
    std::vector<std::byte> garbage(64, std::byte{0x42});
    raw_send_and_close(port, garbage, /*rst=*/false);
  }

  // The daemon must still serve a full session afterwards.
  znet::ClientOptions co;
  co.port = port;
  co.spec.producers = 2;
  co.spec.consumers = 2;
  co.spec.steps = 2;
  co.spec.block_bytes = 16 * KiB;
  co.spec.step_bytes = 64 * KiB;
  const znet::ClientResult res = znet::run_client_load(co);
  EXPECT_EQ(res.sessions_ok, 1u) << (res.errors.empty()
                                         ? "no error detail"
                                         : res.errors.front());
  EXPECT_EQ(res.blocks_analyzed, res.blocks_expected);

  server.request_stop();
  daemon.join();
  EXPECT_EQ(server.stats().sessions_ok, 1u);
  EXPECT_EQ(server.stats().sessions_failed, 2u)
      << "both malformed sessions recorded as failed, daemon kept serving";
}

TEST(NetService, StopDrainsIdleConnectionsPromptly) {
  znet::ZipperdServer server(znet::ServerOptions{});
  std::thread daemon([&server] { server.run(); });
  // An idle connection that never sends a hello must not wedge shutdown.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  server.request_stop();
  daemon.join();  // hangs here (until the CI timeout) if drain is broken
  ::close(fd);
  SUCCEED();
}

TEST(NetService, StopInTheSameLoopTurnAsAnAcceptDrainsThatSession) {
  // The first analyzed block parks the daemon's loop thread inside the hook.
  // Meanwhile a second connection completes in the kernel's accept queue and
  // the stop request lands on the eventfd, so the next epoll_wait reports
  // both in one turn, listener first: the acceptor accepts, then the drain
  // runs before the new session's first resume. That session must still be
  // shut down, or it waits for a hello forever and run() never returns.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  bool first = true;
  znet::ServerOptions so;
  so.on_analyzed = [&](std::uint64_t, int, const BlockHeader&) {
    if (!first) return;
    first = false;
    parked.set_value();
    released.wait();
  };
  znet::ZipperdServer server(std::move(so));
  std::thread daemon([&server] { server.run(); });

  std::thread client([port = server.port()] {
    znet::ClientOptions co;
    co.port = port;
    co.spec.producers = 1;
    co.spec.consumers = 1;
    co.spec.steps = 4;
    co.spec.block_bytes = 4 * KiB;
    co.spec.step_bytes = 8 * KiB;
    (void)znet::run_client_load(co);  // fails: the daemon stops under it
  });
  parked.get_future().wait();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  server.request_stop();
  release.set_value();
  daemon.join();  // hangs here if the session accepted in that turn leaks
  client.join();
  ::close(fd);
  EXPECT_EQ(server.stats().connections_accepted, 2u)
      << "the stop was handled before the accept: ordering not forced";
}

// ------------------------------------------------- sessions on a connection --

TEST(NetService, SessionsRunBackToBackOnOneConnectionPerWorker) {
  NetCase tc;
  tc.sessions = 20;
  tc.concurrency = 2;
  tc.steps = 1;
  const NetOutcome nt = run_net(tc);
  ASSERT_EQ(nt.res.sessions_ok, 20u) << (nt.res.errors.empty()
                                             ? "no error detail"
                                             : nt.res.errors.front());
  EXPECT_EQ(nt.res.blocks_analyzed, nt.res.blocks_expected);
  ASSERT_EQ(nt.analyzed.size(), 20u);
  for (const auto& [session, ids] : nt.analyzed) {
    EXPECT_EQ(ids, expected_ids(1)) << "session " << session;
  }
  EXPECT_EQ(nt.sstats.sessions_ok, 20u);
  EXPECT_EQ(nt.sstats.sessions_accepted, 20u);
  EXPECT_EQ(nt.sstats.connections_accepted, 2u)
      << "a worker opened more than one connection";
}

TEST(NetService, RawClientRunsTwoSessionsOnOneConnection) {
  LiveDaemon d;
  const int fd = raw_connect(d.server.port());
  ASSERT_GE(fd, 0);
  znet::FrameDecoder dec;
  for (std::uint64_t id : {7u, 8u}) {
    raw_send(fd, one_producer_session(raw_spec(id)));
    const auto sum = raw_read_summary(fd, dec);
    ASSERT_TRUE(sum.has_value()) << "no summary for session " << id;
    EXPECT_TRUE(sum->ok) << sum->error;
    EXPECT_EQ(sum->session_id, id);
    EXPECT_EQ(sum->blocks_analyzed, 2u);
  }
  ::close(fd);
  d.stop();
  EXPECT_EQ(d.stats().sessions_ok, 2u);
  EXPECT_EQ(d.stats().sessions_failed, 0u);
  EXPECT_EQ(d.stats().connections_accepted, 1u);
}

TEST(NetService, MixedFrameAfterTheSummaryFailsAndClosesTheConnection) {
  LiveDaemon d;
  const int fd = raw_connect(d.server.port());
  ASSERT_GE(fd, 0);
  znet::FrameDecoder dec;
  raw_send(fd, one_producer_session(raw_spec(1)));
  const auto sum = raw_read_summary(fd, dec);
  ASSERT_TRUE(sum.has_value());
  EXPECT_TRUE(sum->ok) << sum->error;
  znet::WireMixed stray;
  stray.done = true;
  raw_send(fd, znet::encode_mixed(stray));
  EXPECT_TRUE(raw_sees_close(fd)) << "the connection stayed open";
  ::close(fd);
  d.stop();
  EXPECT_EQ(d.stats().sessions_ok, 1u);
  EXPECT_EQ(d.stats().sessions_failed, 1u);
  EXPECT_EQ(d.stats().sessions_accepted, 1u);
}

TEST(NetService, SecondHelloBeforeTheSummaryFailsTheSession) {
  LiveDaemon d;
  const int fd = raw_connect(d.server.port());
  ASSERT_GE(fd, 0);
  // Session 1's Hello and first block, then session 2's whole stream.
  const auto first = one_producer_session(raw_spec(1));
  const auto hello = znet::encode_hello(raw_spec(1));
  std::vector<std::byte> bytes(first.begin(),
                               first.begin() +
                                   static_cast<std::ptrdiff_t>(hello.size()));
  const auto second = one_producer_session(raw_spec(2));
  bytes.insert(bytes.end(), second.begin(), second.end());
  raw_send(fd, bytes);
  znet::FrameDecoder dec;
  const auto sum = raw_read_summary(fd, dec);
  ASSERT_TRUE(sum.has_value());
  EXPECT_FALSE(sum->ok);
  EXPECT_EQ(sum->session_id, 1u);
  EXPECT_NE(sum->error.find("unexpected frame type"), std::string::npos)
      << sum->error;
  EXPECT_TRUE(raw_sees_close(fd)) << "the connection stayed open";
  ::close(fd);
  d.stop();
  EXPECT_EQ(d.stats().sessions_ok, 0u);
  EXPECT_EQ(d.stats().sessions_failed, 1u);
}

TEST(NetService, FailedSessionClosesItsConnectionAndTheNextReconnects) {
  znet::ServerOptions so;
  // Session 1's consumer throws on its first block; the daemon fails that
  // session and keeps serving.
  so.on_analyzed = [](std::uint64_t session, int, const BlockHeader&) {
    if (session == 1) throw std::runtime_error("injected analysis failure");
  };
  LiveDaemon d(std::move(so));
  znet::ClientOptions co;
  co.port = d.server.port();
  co.sessions = 3;
  co.concurrency = 1;
  co.spec = raw_spec(0);
  co.spill_root = fresh_dir("zipper_reconnect");
  const znet::ClientResult res = znet::run_client_load(co);
  d.stop();
  fs::remove_all(co.spill_root);
  EXPECT_EQ(res.sessions_ok, 2u);
  ASSERT_EQ(res.sessions_failed, 1u);
  EXPECT_EQ(res.errors.front().rfind("session 1: ", 0), 0u)
      << res.errors.front();
  EXPECT_EQ(d.stats().sessions_ok, 2u);
  EXPECT_EQ(d.stats().sessions_failed, 1u);
  EXPECT_EQ(d.stats().connections_accepted, 2u)
      << "the failed session's connection was reused, or session 2 did not "
         "reconnect";
}

TEST(NetService, StopWhileAConnectionSitsBetweenSessionsDrainsCleanly) {
  LiveDaemon d;
  const int fd = raw_connect(d.server.port());
  ASSERT_GE(fd, 0);
  znet::FrameDecoder dec;
  raw_send(fd, one_producer_session(raw_spec(1)));
  const auto sum = raw_read_summary(fd, dec);
  ASSERT_TRUE(sum.has_value());
  EXPECT_TRUE(sum->ok) << sum->error;
  // The connection now waits for a next Hello that never comes.
  d.stop();  // hangs here if the idle connection is not drained
  EXPECT_TRUE(raw_sees_close(fd));
  ::close(fd);
  EXPECT_EQ(d.stats().sessions_ok, 1u);
  EXPECT_EQ(d.stats().sessions_failed, 0u)
      << "EOF between sessions was counted as a failed session";
}

TEST(NetService, StoppingTheControllerDoesNotWaitOutItsInterval) {
  // The session ends its control loop as soon as its blocks are sent: the
  // stop cuts the in-flight tick short instead of sleeping past it.
  LiveDaemon d;
  znet::ClientOptions co;
  co.port = d.server.port();
  co.spec = small_spec(0, "");
  co.spec.steps = 1;
  co.spill_root = fresh_dir("zipper_control_stop");
  co.make_controller = [] {
    return [](const core::chaos::ControlSnapshot&) {
      return core::chaos::ControlAction{};
    };
  };
  co.control_interval = sim::kSecond;
  const auto t0 = std::chrono::steady_clock::now();
  const znet::ClientResult res = znet::run_client_load(co);
  const auto took = std::chrono::steady_clock::now() - t0;
  d.stop();
  fs::remove_all(co.spill_root);
  EXPECT_EQ(res.sessions_ok, 1u) << (res.errors.empty() ? "no error detail"
                                                        : res.errors.front());
  EXPECT_LT(took, std::chrono::milliseconds(500));
}

TEST(NetService, AdaptiveClientSessionsShareAConnection) {
  // A client-side controller ends every consumer's stream from every
  // producer, even on a pinned route; the daemon must expect exactly those
  // markers or the extra ones spill into the next session on the connection.
  LiveDaemon d;
  znet::ClientOptions co;
  co.port = d.server.port();
  co.sessions = 4;
  co.concurrency = 1;
  co.spec = small_spec(0, "");
  co.spill_root = fresh_dir("zipper_adaptive_reuse");
  co.make_controller = [] {
    return [](const core::chaos::ControlSnapshot&) {
      return core::chaos::ControlAction{};
    };
  };
  co.control_interval = sim::kMillisecond;
  const znet::ClientResult res = znet::run_client_load(co);
  d.stop();
  fs::remove_all(co.spill_root);
  EXPECT_EQ(res.sessions_ok, 4u) << (res.errors.empty() ? "no error detail"
                                                        : res.errors.front());
  EXPECT_EQ(res.blocks_analyzed, res.blocks_expected);
  EXPECT_EQ(d.stats().connections_accepted, 1u);
}
