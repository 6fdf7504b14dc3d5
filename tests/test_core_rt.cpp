// Tests for the real (threaded) Zipper runtime: end-to-end delivery and
// integrity over both channels, work-stealing behaviour, Preserve mode
// durability, termination, stress; the cross-thread wake paths between its
// one loop thread and the application's threads; and file operations kept
// off that loop.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/exec/epoll.hpp"
#include "core/exec/mt_sync.hpp"
#include "core/rt/runtime.hpp"
#include "core/zipper/rt_binding.hpp"
#include "trace/timeline.hpp"

namespace fs = std::filesystem;
using namespace zipper::core;
using namespace zipper::core::rt;

namespace {

struct TempDirs {
  fs::path spill, preserve;
  TempDirs() {
    const auto base = fs::temp_directory_path() /
                      ("zipper_test_" + std::to_string(::getpid()) + "_" +
                       std::to_string(counter()++));
    spill = base / "spill";
    preserve = base / "preserve";
    fs::create_directories(spill);
    fs::create_directories(preserve);
  }
  ~TempDirs() {
    std::error_code ec;
    fs::remove_all(spill.parent_path(), ec);
  }
  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
};

std::vector<std::byte> make_payload(std::uint64_t seed, std::size_t n) {
  std::vector<std::byte> out(n);
  zipper::common::Xoshiro256 rng(seed);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xFF);
  return out;
}

/// Spins until `pred` holds or `limit` passes; returns pred().
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds limit =
                               std::chrono::milliseconds(10'000)) {
  const auto end = std::chrono::steady_clock::now() + limit;
  while (!pred() && std::chrono::steady_clock::now() < end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

std::size_t threads_in_process() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator("/proc/self/task")) ++n;
  return n;
}

Config base_config(const TempDirs& dirs) {
  Config cfg;
  cfg.spill_dir = dirs.spill;
  cfg.preserve_dir = dirs.preserve;
  cfg.producer_buffer_blocks = 8;
  cfg.high_water = 0.5;
  return cfg;
}

}  // namespace

TEST(RtRuntime, SingleBlockRoundTrip) {
  TempDirs dirs;
  Runtime rt(1, 1, base_config(dirs));
  const auto payload = make_payload(1, 4096);
  rt.producer(0).write(BlockId{0, 0, 0}, payload);
  rt.producer(0).finish();
  auto block = rt.consumer(0).read();
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->header.id, (BlockId{0, 0, 0}));
  EXPECT_EQ(block->payload, payload);
  EXPECT_EQ(rt.consumer(0).read(), nullptr);  // end of stream
}

TEST(RtRuntime, PayloadIntegrityManyBlocks) {
  TempDirs dirs;
  Runtime rt(1, 1, base_config(dirs));
  std::map<BlockId, std::uint64_t> checksums;
  for (int s = 0; s < 5; ++s) {
    for (int b = 0; b < 10; ++b) {
      const BlockId id{s, 0, b};
      auto payload = make_payload(static_cast<std::uint64_t>(s * 100 + b), 8192);
      checksums[id] = zipper::common::fnv1a(payload);
      rt.producer(0).write(id, payload);
    }
  }
  rt.producer(0).finish();
  int received = 0;
  while (auto block = rt.consumer(0).read()) {
    ASSERT_TRUE(checksums.contains(block->header.id));
    EXPECT_EQ(zipper::common::fnv1a(block->payload), checksums[block->header.id])
        << "corrupt payload for " << block->header.id.to_string();
    ++received;
  }
  EXPECT_EQ(received, 50);
}

TEST(RtRuntime, EveryBlockDeliveredExactlyOnceMultiProducerMultiConsumer) {
  TempDirs dirs;
  const int P = 4, Q = 2, steps = 6, blocks = 8;
  Runtime rt(P, Q, base_config(dirs));

  std::vector<std::thread> producers;
  for (int p = 0; p < P; ++p) {
    producers.emplace_back([&, p] {
      auto payload = make_payload(static_cast<std::uint64_t>(p), 2048);
      for (int s = 0; s < steps; ++s) {
        for (int b = 0; b < blocks; ++b) {
          rt.producer(p).write(BlockId{s, p, b}, payload);
        }
      }
      rt.producer(p).finish();
    });
  }

  std::mutex m;
  std::map<std::string, int> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < Q; ++c) {
    consumers.emplace_back([&, c] {
      while (auto block = rt.consumer(c).read()) {
        std::lock_guard lk(m);
        ++seen[block->header.id.to_string()];
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(seen.size(), static_cast<std::size_t>(P * steps * blocks));
  for (const auto& [id, n] : seen) EXPECT_EQ(n, 1) << id << " delivered " << n << "x";
}

TEST(RtRuntime, StealActivatesUnderBackpressure) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.producer_buffer_blocks = 4;
  cfg.high_water = 0.5;
  cfg.network_bandwidth = 2e6;  // 2 MB/s: sender is deliberately slow
  Runtime rt(1, 1, cfg);

  const auto payload = make_payload(7, 64 * 1024);
  std::thread consumer([&] {
    while (rt.consumer(0).read()) {
    }
  });
  for (int b = 0; b < 40; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
  rt.producer(0).finish();
  consumer.join();

  const auto ps = rt.producer(0).stats();
  EXPECT_EQ(ps.blocks_written, 40u);
  EXPECT_GT(ps.blocks_stolen, 0u) << "writer thread never stole despite backpressure";
  EXPECT_EQ(ps.blocks_sent + ps.blocks_stolen, 40u);
  const auto cs = rt.consumer(0).stats();
  EXPECT_EQ(cs.blocks_from_disk, ps.blocks_stolen);
  EXPECT_EQ(cs.blocks_read, 40u);
}

TEST(RtRuntime, StealDisabledSendsEverythingViaNetwork) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.enable_steal = false;
  cfg.network_bandwidth = 5e6;
  Runtime rt(1, 1, cfg);
  const auto payload = make_payload(3, 32 * 1024);
  std::thread consumer([&] {
    while (rt.consumer(0).read()) {
    }
  });
  for (int b = 0; b < 20; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
  rt.producer(0).finish();
  consumer.join();
  EXPECT_EQ(rt.producer(0).stats().blocks_stolen, 0u);
  EXPECT_EQ(rt.producer(0).stats().blocks_sent, 20u);
}

TEST(RtRuntime, DualChannelReducesProducerStall) {
  // The paper's headline producer-side effect: with a slow network and a
  // bounded buffer, enabling the writer thread must cut write() stall time.
  auto run = [](bool steal) {
    TempDirs dirs;
    Config cfg;
    cfg.spill_dir = dirs.spill;
    cfg.producer_buffer_blocks = 4;
    cfg.high_water = 0.5;
    cfg.enable_steal = steal;
    cfg.network_bandwidth = 4e6;
    Runtime rt(1, 1, cfg);
    std::thread consumer([&] {
      while (rt.consumer(0).read()) {
      }
    });
    const auto payload = make_payload(11, 64 * 1024);
    for (int b = 0; b < 32; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
    const auto stall = rt.producer(0).stats().stall_ns;
    rt.producer(0).finish();
    consumer.join();
    return stall;
  };
  const auto stall_without = run(false);
  const auto stall_with = run(true);
  EXPECT_LT(static_cast<double>(stall_with),
            0.8 * static_cast<double>(stall_without))
      << "work stealing failed to reduce producer stall ("
      << stall_with / 1e6 << "ms vs " << stall_without / 1e6 << "ms)";
}

TEST(RtRuntime, PreserveModePersistsEveryBlock) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.mode = Mode::kPreserve;
  cfg.network_bandwidth = 8e6;  // force some blocks over both channels
  cfg.producer_buffer_blocks = 4;
  const int total = 24;
  {
    Runtime rt(1, 1, cfg);
    std::thread consumer([&] {
      while (rt.consumer(0).read()) {
      }
    });
    const auto payload = make_payload(5, 32 * 1024);
    for (int b = 0; b < total; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
    rt.producer(0).finish();
    consumer.join();
    rt.wait_idle();
    EXPECT_EQ(rt.consumer(0).stats().blocks_preserved, static_cast<std::uint64_t>(total));
  }
  // Every block must exist in the preserve dir, with full payload.
  int files = 0;
  for (const auto& e : fs::directory_iterator(dirs.preserve)) {
    EXPECT_EQ(fs::file_size(e.path()), 32u * 1024u);
    ++files;
  }
  EXPECT_EQ(files, total);
}

TEST(RtRuntime, NoPreserveLeavesNoSpillFilesBehind) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.network_bandwidth = 4e6;
  cfg.producer_buffer_blocks = 4;
  {
    Runtime rt(1, 1, cfg);
    std::thread consumer([&] {
      while (rt.consumer(0).read()) {
      }
    });
    const auto payload = make_payload(9, 64 * 1024);
    for (int b = 0; b < 24; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
    rt.producer(0).finish();
    consumer.join();
    EXPECT_GT(rt.producer(0).stats().blocks_stolen, 0u);  // spill happened
  }
  EXPECT_TRUE(fs::is_empty(dirs.spill)) << "spill files leaked in No-Preserve mode";
}

TEST(RtRuntime, DefaultConfigRuntimesSpillIntoTheirOwnDirectories) {
  // Spill files are named by BlockId alone. Two Runtimes left to pick their
  // own spill directory stream the same BlockIds at once; each must deliver
  // its own blocks exactly once, with its own bytes, and remove the
  // directory it made.
  Config cfg;
  cfg.producer_buffer_blocks = 4;
  cfg.network_bandwidth = 4e6;  // slow network: blocks take both channels
  constexpr int kBlocks = 24;
  fs::path spill_dirs[2];
  {
    Runtime rts[2] = {Runtime(1, 1, cfg), Runtime(1, 1, cfg)};
    spill_dirs[0] = rts[0].config().spill_dir;
    spill_dirs[1] = rts[1].config().spill_dir;
    EXPECT_NE(spill_dirs[0], spill_dirs[1]);

    std::map<BlockId, int> seen[2];
    bool intact[2] = {true, true};
    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&rts, r] {
        for (int b = 0; b < kBlocks; ++b) {
          const auto seed = static_cast<std::uint64_t>(1000 * r + b);
          rts[r].producer(0).write(BlockId{0, 0, b},
                                   make_payload(seed, 64 * 1024));
        }
        rts[r].producer(0).finish();
      });
      threads.emplace_back([&rts, &seen, &intact, r] {
        while (auto block = rts[r].consumer(0).read()) {
          const auto seed =
              static_cast<std::uint64_t>(1000 * r + block->header.id.index);
          if (block->payload != make_payload(seed, 64 * 1024)) intact[r] = false;
          ++seen[r][block->header.id];
        }
      });
    }
    for (auto& t : threads) t.join();

    for (int r = 0; r < 2; ++r) {
      EXPECT_GT(rts[r].producer(0).stats().blocks_stolen, 0u)
          << "runtime " << r << " never spilled";
      EXPECT_TRUE(intact[r]) << "runtime " << r << " read another's bytes";
      EXPECT_EQ(seen[r].size(), static_cast<std::size_t>(kBlocks))
          << "runtime " << r;
      for (const auto& [id, n] : seen[r]) {
        EXPECT_EQ(n, 1) << "runtime " << r << ": " << id.to_string();
      }
    }
  }
  EXPECT_FALSE(fs::exists(spill_dirs[0]));
  EXPECT_FALSE(fs::exists(spill_dirs[1]));
}

TEST(RtRuntime, BlockMetadataSurvivesBothChannels) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.network_bandwidth = 4e6;
  cfg.producer_buffer_blocks = 4;
  Runtime rt(1, 1, cfg);
  std::thread producer([&] {
    const auto payload = make_payload(2, 16 * 1024);
    for (int b = 0; b < 16; ++b) {
      rt.producer(0).write(BlockId{7, 0, b}, payload, /*offset=*/b * 16384ull);
    }
    rt.producer(0).finish();
  });
  std::map<int, std::uint64_t> offsets;
  while (auto block = rt.consumer(0).read()) {
    EXPECT_EQ(block->header.id.step, 7);
    offsets[block->header.id.index] = block->header.offset;
  }
  producer.join();
  ASSERT_EQ(offsets.size(), 16u);
  for (int b = 0; b < 16; ++b) EXPECT_EQ(offsets[b], b * 16384ull);
}

TEST(RtRuntime, DestructorHandlesAbandonedConsumers) {
  // A consumer that never reads must not deadlock the destructor.
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.consumer_buffer_blocks = 2;
  cfg.net_channel_blocks = 2;
  Runtime rt(1, 1, cfg);
  const auto payload = make_payload(4, 1024);
  for (int b = 0; b < 4; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
  // No finish(), no reads: destructor must shut everything down cleanly.
}

TEST(RtRuntime, StressRandomSizesManyThreads) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.producer_buffer_blocks = 6;
  cfg.network_bandwidth = 50e6;
  const int P = 6, Q = 3;
  Runtime rt(P, Q, cfg);

  std::atomic<std::uint64_t> bytes_written{0}, bytes_read{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < P; ++p) {
    threads.emplace_back([&, p] {
      zipper::common::Xoshiro256 rng(static_cast<std::uint64_t>(p) + 99);
      for (int s = 0; s < 8; ++s) {
        for (int b = 0; b < 6; ++b) {
          const std::size_t n = 512 + rng.below(32 * 1024);
          auto payload = make_payload(rng(), n);
          bytes_written += n;
          rt.producer(p).write(BlockId{s, p, b}, payload);
        }
      }
      rt.producer(p).finish();
    });
  }
  for (int c = 0; c < Q; ++c) {
    threads.emplace_back([&, c] {
      while (auto block = rt.consumer(c).read()) {
        bytes_read += block->payload.size();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bytes_read.load(), bytes_written.load());
}

TEST(RtRuntime, RealSpansGiveThreadedRunsPerSpanNesting) {
  // The unified body records genuine [t0, t1] spans on the threaded
  // executor's monotonic clock — not one synthetic counter-derived span per
  // rank anchored at t = 0. Producers trace on ranks 0..P-1, consumers on
  // P..P+Q-1, the same layout the DES workflow uses.
  TempDirs dirs;
  auto cfg = base_config(dirs);
  cfg.producer_buffer_blocks = 2;  // tiny buffer: force stall + steal
  cfg.network_bandwidth = 4e6;     // slow network: blocks take both channels
  zipper::trace::Recorder rec;
  cfg.recorder = &rec;
  const int P = 2, Q = 1;
  Runtime rt(P, Q, cfg);

  std::vector<std::thread> threads;
  for (int p = 0; p < P; ++p) {
    threads.emplace_back([&, p] {
      for (int b = 0; b < 16; ++b) {
        rt.producer(p).write(BlockId{0, p, b}, make_payload(7, 64 * 1024));
      }
      rt.producer(p).finish();
    });
  }
  std::uint64_t read_blocks = 0;
  threads.emplace_back([&] {
    while (auto block = rt.consumer(0).read()) ++read_blocks;
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(read_blocks, 32u);

  using zipper::trace::Cat;
  // Per-span granularity: every network send is its own kTransfer span on
  // the producer's rank, every spill fetch its own kRead span on the
  // consumer's — span *counts* match the per-endpoint counters one-to-one.
  std::uint64_t sent = 0, fetched = 0;
  std::map<std::pair<std::int32_t, Cat>, std::uint64_t> span_count;
  for (const auto& s : rec.spans()) {
    EXPECT_GT(s.t1, s.t0);
    ++span_count[{s.rank, s.cat}];
  }
  for (int p = 0; p < P; ++p) sent += rt.producer(p).stats().blocks_sent;
  fetched = rt.consumer(0).stats().blocks_from_disk;
  EXPECT_GT(fetched, 0u) << "network never throttled; steal path untested";
  const std::uint64_t transfer_spans =
      span_count[std::pair<std::int32_t, Cat>{0, Cat::kTransfer}] +
      span_count[std::pair<std::int32_t, Cat>{1, Cat::kTransfer}];
  const std::uint64_t read_spans =
      span_count[std::pair<std::int32_t, Cat>{P, Cat::kRead}];
  EXPECT_EQ(transfer_spans, sent);
  EXPECT_EQ(read_spans, fetched);

  // Stall span totals equal the stall counters exactly: both sides of the
  // unified stats are derived from the same timed wait.
  for (int p = 0; p < P; ++p) {
    EXPECT_EQ(static_cast<std::uint64_t>(rec.total(Cat::kStall, p)),
              rt.producer(p).stats().stall_ns);
  }

  // True nesting along a real time axis: spans on one producer rank start at
  // distinct times (synthetic spans all began at t = 0), and the analyzer
  // decomposes them per category like any DES trace.
  std::set<zipper::sim::Time> starts;
  for (const auto& s : rec.spans()) {
    if (s.rank == 0) starts.insert(s.t0);
  }
  EXPECT_GT(starts.size(), 1u) << "spans collapsed onto one synthetic anchor";

  const auto attr = zipper::trace::analyze(rec);
  ASSERT_FALSE(attr.ranks.empty());
  EXPECT_GT(attr.t_end, 0);
  std::uint64_t ranks_seen = 0;
  for (const auto& ra : attr.ranks) {
    ranks_seen |= 1ull << ra.rank;
    EXPECT_GT(ra.busy, 0);
  }
  // Producer and consumer ranks both show up in one attribution.
  EXPECT_TRUE(ranks_seen & 1ull) << "producer rank 0 missing from trace";
  EXPECT_TRUE(ranks_seen & (1ull << P)) << "consumer rank missing from trace";
}

// ------------------------------------------------- loop <-> app wake paths --

TEST(RtRuntime, ConstructingARuntimeAddsExactlyOneThread) {
  // Every service is a coroutine on the runtime's one loop thread, however
  // many endpoints there are; destruction joins it.
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.controller = [](const zipper::core::chaos::ControlSnapshot&) {
    return zipper::core::chaos::ControlAction{};
  };
  const std::size_t before = threads_in_process();
  {
    Runtime rt(4, 3, cfg);
    EXPECT_EQ(threads_in_process(), before + 1);
    for (int p = 0; p < 4; ++p) rt.producer(p).finish();
    for (int c = 0; c < 3; ++c) {
      while (rt.consumer(c).read()) {
      }
    }
  }
  EXPECT_EQ(threads_in_process(), before);
}

TEST(RtRuntime, ProducerBlockedOnAFullBufferIsWokenByTheLoop) {
  // Fill every buffer on the path until write() blocks the producer thread
  // in the producer buffer's condvar; then drain from this thread. Only the
  // sender coroutine on the loop taking a block can release the producer.
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.enable_steal = false;
  cfg.producer_buffer_blocks = 2;
  cfg.net_channel_blocks = 2;
  cfg.consumer_buffer_blocks = 2;
  auto* rt = new Runtime(1, 1, cfg);  // leaked if the producer wedges
  const int kBlocks = 64;
  auto* written = new std::atomic<int>{0};
  std::thread producer([rt, written] {
    const auto payload = make_payload(3, 1024);
    for (int b = 0; b < kBlocks; ++b) {
      rt->producer(0).write(BlockId{0, 0, b}, payload);
      written->fetch_add(1);
    }
    rt->producer(0).finish();
  });
  // Blocked: the count stops short of kBlocks and stays there.
  const bool blocked = eventually([&] {
    const int n = written->load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return n == written->load() && n < kBlocks;
  });
  auto* read = new std::atomic<int>{0};
  auto* reader_done = new std::atomic<bool>{false};
  std::thread consumer([rt, read, reader_done] {
    while (rt->consumer(0).read()) read->fetch_add(1);
    reader_done->store(true);
  });
  if (!eventually([&] { return reader_done->load(); })) {
    producer.detach();  // leak the wedged runtime rather than crash the suite
    consumer.detach();
    FAIL() << "producer stayed parked at " << written->load() << " of "
           << kBlocks;
  }
  producer.join();
  consumer.join();
  EXPECT_TRUE(blocked) << "the producer never blocked on the full path";
  EXPECT_EQ(read->load(), kBlocks);
  EXPECT_GT(rt->producer(0).stats().stall_ns, 0u);
  delete rt;
  delete written;
  delete read;
  delete reader_done;
}

TEST(RtRuntime, ControllerTicksOnTheLoopAndStopsWithTheRuntime) {
  // The control loop sleeps on a loop timer; the destructor, on another
  // thread, must end that sleep early (a 1 h interval would hang it).
  TempDirs dirs;
  Config cfg = base_config(dirs);
  std::atomic<int> ticks{0};
  cfg.controller = [&](const zipper::core::chaos::ControlSnapshot&) {
    ticks.fetch_add(1);
    return zipper::core::chaos::ControlAction{};
  };
  cfg.control_interval = 2 * zipper::sim::kMillisecond;
  {
    Runtime rt(1, 1, cfg);
    EXPECT_TRUE(eventually([&] { return ticks.load() >= 3; }));
    cfg.control_interval = 3600 * zipper::sim::kSecond;
  }
  {
    Runtime rt(1, 1, cfg);  // first tick is an hour away
  }
}

namespace {

namespace ex = zipper::core::exec;

/// One round of the loop-wake race. A coroutine parks on a latch; a second
/// one keeps the loop from deciding to block until this thread has counted
/// the latch down (or 1 s passed: the two threads may share a CPU and take
/// turns in scheduler slices). `before_block` posts inside that spell,
/// where only the loop's re-check of posted_ after raising parked_ sees the
/// post; otherwise the post comes 2 ms later, to a loop blocked in
/// epoll_wait, and must write the eventfd. Returns false if the loop never
/// finished.
bool post_wakes_loop(bool before_block) {
  auto* loop = new ex::EpollExecutor;
  loop->enable_post();
  auto* latch = new ex::MtLatch(*loop, 1);
  auto* stage = new std::atomic<int>{0};  // 1: loop busy; 2: posted
  auto* finished = new std::atomic<bool>{false};
  loop->spawn([](ex::MtLatch& l) -> zipper::sim::Task {
    co_await l.wait();
  }(*latch));
  loop->spawn([](std::atomic<int>& st) -> zipper::sim::Task {
    st.store(1);
    const auto limit =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (st.load() != 2 && std::chrono::steady_clock::now() < limit) {
    }
    co_return;
  }(*stage));
  std::thread t([loop, finished] {
    loop->run();
    finished->store(true);
  });
  while (stage->load() != 1) std::this_thread::yield();
  if (!before_block) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  latch->count_down();
  stage->store(2);
  if (!eventually([&] { return finished->load(); })) {
    t.detach();  // leak the wedged loop rather than crash the suite
    return false;
  }
  t.join();
  delete latch;
  delete loop;
  delete stage;
  delete finished;
  return true;
}

}  // namespace

TEST(RtLoopWake, PostFromAnAppThreadWakesALoopParkedInEpollWait) {
  for (int round = 0; round < 40; ++round) {
    const bool before_block = round % 2 == 0;
    ASSERT_TRUE(post_wakes_loop(before_block))
        << "lost wake-up in round " << round << " (post "
        << (before_block ? "before the loop blocked)" : "to a blocked loop)");
  }
}

TEST(RtLoopWake, AppThreadBlockedOnAFullChannelIsReleasedByTheLoop) {
  ex::EpollExecutor loop;
  loop.enable_post();
  ex::MtChannel<int> ch(loop, 1);
  ex::MtLatch go(loop, 1);
  std::vector<int> got;
  loop.spawn([](ex::MtChannel<int>& c, ex::MtLatch& g,
                std::vector<int>& out) -> zipper::sim::Task {
    co_await g.wait();  // let the app thread fill the channel and block
    while (auto v = co_await c.recv()) out.push_back(*v);
  }(ch, go, got));
  std::thread t([&loop] { loop.run(); });
  std::thread sender([&] {
    ex::run_inline([](ex::MtChannel<int>& c) -> zipper::sim::Task {
      for (int i = 0; i < 100; ++i) co_await c.send(i);
    }(ch));
    ch.close();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  go.count_down();
  sender.join();
  t.join();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(RtEnv, BlockingFileOperationLeavesTheLoopRunning) {
  // file_io() blocks an I/O thread, not the loop: the operation below waits
  // for a flag that only another loop coroutine, woken by a timer, sets. Run
  // on the loop, it would wait out its 5 s limit and see no flag.
  zbody::RtEnv env(zbody::LoopEnvConfig{}, 1);
  std::atomic<bool> flag{false};
  bool saw_flag = false;
  env.spawn([](zbody::RtEnv& e, std::atomic<bool>& f,
               bool& saw) -> zipper::sim::Task {
    co_await e.file_io([&f] {
      eventually([&f] { return f.load(); }, std::chrono::milliseconds(5000));
    });
    saw = f.load();
  }(env, flag, saw_flag));
  env.spawn([](zbody::RtEnv& e, std::atomic<bool>& f) -> zipper::sim::Task {
    co_await e.sleep(zipper::sim::kMillisecond);
    f.store(true);
  }(env, flag));
  env.start();
  env.stop_control();
  env.join();
  EXPECT_TRUE(saw_flag);
}
