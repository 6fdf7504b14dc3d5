// Google-benchmark micro benches for the building blocks: the DES engine's
// event throughput, the real producer buffer, the block policy, the fabric
// transfer path, zipperd's per-block wire path (checksum, frame encode and
// decode), and the real computational kernels (LBM step, MD step,
// moment/MSD analysis).
#include <benchmark/benchmark.h>
#include <sys/uio.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "apps/analysis/moments.hpp"
#include "apps/analysis/msd.hpp"
#include "apps/lbm/lbm_solver.hpp"
#include "apps/md/lj_md.hpp"
#include "apps/synthetic.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/exec/epoll.hpp"
#include "core/exec/mt_sync.hpp"
#include "core/exec/virtual_time.hpp"
#include "core/zipper/net_frame.hpp"
#include "net/fabric.hpp"
#include "sim/channel.hpp"
#include "sim/latch.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

using namespace zipper;

// ----------------------------------------------------------- DES engine ----

static void BM_SimEventThroughput(benchmark::State& state) {
  const int n_processes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < n_processes; ++i) {
      s.spawn([](sim::Simulation& sim) -> sim::Task {
        for (int k = 0; k < 100; ++k) co_await sim.delay(10);
      }(s));
    }
    s.run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * n_processes * 100);
}
BENCHMARK(BM_SimEventThroughput)->Arg(64)->Arg(1024)->Arg(8192);

// Mixed-horizon schedule: half the processes use short (in-ring) delays, half
// use long (overflow-heap) delays, exercising both tiers of the event queue.
static void BM_SimEventThroughputFarHorizon(benchmark::State& state) {
  const int n_processes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < n_processes; ++i) {
      s.spawn([](sim::Simulation& sim, sim::Time d) -> sim::Task {
        for (int k = 0; k < 100; ++k) co_await sim.delay(d);
      }(s, i % 2 ? 10 : 100000));
    }
    s.run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * n_processes * 100);
}
BENCHMARK(BM_SimEventThroughputFarHorizon)->Arg(1024);

// --------------------------------------------------- sharded DES engine ----

// Four decomposed shards of the BM_SimEventThroughput workload, free-running
// on 1/2/4 worker threads. UseRealTime: worker threads do the dispatching, so
// main-thread CPU time would be meaningless. On a single hardware core the
// >1x scaling comes from the smaller per-shard event queues, not parallelism.
static void BM_ShardedEventThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kShards = 4, kProcs = 256, kLoops = 100;
  for (auto _ : state) {
    sim::ShardedSimulation d(kShards, sim::ShardedConfig{threads, 0});
    for (int s = 0; s < kShards; ++s) {
      auto& sh = d.shard(s);
      for (int i = 0; i < kProcs; ++i) {
        sh.spawn([](sim::Simulation& sim) -> sim::Task {
          for (int k = 0; k < kLoops; ++k) co_await sim.delay(10);
        }(sh));
      }
    }
    const auto stats = d.run_free();
    benchmark::DoNotOptimize(stats.events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kShards * kProcs * kLoops);
}
BENCHMARK(BM_ShardedEventThroughput)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Cross-shard mailbox + window-barrier overhead: a token ring posts one
// message per shard per window for many rounds (windowed mode). Items are
// delivered messages, so this prices a full round: run_until to the window
// edge, barrier, merge-sort of the mailboxes, spawn_at injection. The
// outbox/merge vectors are the per-shard mailbox arena — cleared with
// capacity retained each round, so steady-state rounds do not allocate.
static void BM_ShardedCrossShardWindow(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kShards = 4;
  constexpr int kHops = 512;
  constexpr sim::Time kL = 64;
  struct Hop {
    sim::ShardedSimulation* d;
    int left;
    void operator()(int at, sim::Time t) const {
      if (left <= 0) return;
      Hop next{d, left - 1};
      const int to = (at + 1) % kShards;
      d->post(at, to, t + kL, [next, to, t2 = t + kL] { next(to, t2); });
    }
  };
  for (auto _ : state) {
    sim::ShardedSimulation d(kShards, sim::ShardedConfig{threads, kL});
    for (int s = 0; s < kShards; ++s) {
      Hop h{&d, kHops};
      d.post(s, s, kL, [h, s] { h(s, kL); });
    }
    const auto stats = d.run();
    benchmark::DoNotOptimize(stats.messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kShards * kHops);
}
BENCHMARK(BM_ShardedCrossShardWindow)->Arg(1)->Arg(4)->UseRealTime();

// Request/reply round trips between a client and a server coroutine over a
// ping and a pong channel. After the first round, every transfer in either
// direction finds its peer parked, so each round is two park/wake handoffs
// through the scheduler — the waiter-list and wakeup cost end to end.
static void BM_ChannelPingPong(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  constexpr int kRounds = 100;
  struct Duo {
    sim::Channel<int> ping, pong;
    explicit Duo(sim::Simulation& s) : ping(s), pong(s) {}
  };
  for (auto _ : state) {
    sim::Simulation s;
    std::vector<std::unique_ptr<Duo>> duos;
    for (int i = 0; i < pairs; ++i) duos.push_back(std::make_unique<Duo>(s));
    for (int i = 0; i < pairs; ++i) {
      Duo& d = *duos[static_cast<std::size_t>(i)];
      s.spawn([](Duo& du) -> sim::Task {  // client
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.send(k);
          co_await du.pong.recv();
        }
      }(d));
      s.spawn([](Duo& du) -> sim::Task {  // server
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.recv();
          co_await du.pong.send(k);
        }
      }(d));
    }
    s.run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * pairs * kRounds);
}
BENCHMARK(BM_ChannelPingPong)->Arg(64)->Arg(1024);

// The same request/reply shape through the unified execution layer
// (core/exec), one bench per executor. The virtual variant must match the
// raw-kernel ping-pong above — the VirtualTimeExecutor veneer is required to
// be zero-cost, so any gap here is a regression in the unified channel path
// feeding the DES kernel. The threaded variant prices the real park/wake
// handoff (mutex + condvar) the RunInCoro awaitables pay per transfer.
static void BM_ExecChannelPingPongVirtual(benchmark::State& state) {
  constexpr int kPairs = 64;
  constexpr int kRounds = 100;
  struct Duo {
    sim::Channel<int> ping, pong;
    explicit Duo(sim::Simulation& s) : ping(s), pong(s) {}
  };
  for (auto _ : state) {
    sim::Simulation s;
    core::exec::VirtualTimeExecutor ex(s);
    std::vector<std::unique_ptr<Duo>> duos;
    for (int i = 0; i < kPairs; ++i) duos.push_back(std::make_unique<Duo>(ex));
    for (int i = 0; i < kPairs; ++i) {
      Duo& d = *duos[static_cast<std::size_t>(i)];
      ex.spawn([](Duo& du) -> sim::Task {  // client
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.send(k);
          co_await du.pong.recv();
        }
      }(d));
      ex.spawn([](Duo& du) -> sim::Task {  // server
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.recv();
          co_await du.pong.send(k);
        }
      }(d));
    }
    s.run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * kPairs * kRounds);
}
BENCHMARK(BM_ExecChannelPingPongVirtual)->Name("BM_ExecChannelPingPong/virtual");

// The same shape once more on the EpollExecutor (core/exec/epoll), the
// real-I/O loop behind zipperd. EpChannel transfers are pure scheduler
// handoffs -- no fd is touched -- so this prices the epoll loop's ready-ring
// and channel bookkeeping per park/wake against the DES kernel's, which is
// the per-block overhead every daemon session pays between the socket and
// the consumer coroutine. Guarded by tools/check_bench_regression.py via
// its BENCH_sim.json entry.
static void BM_EpollChannelPingPong(benchmark::State& state) {
  constexpr int kPairs = 64;
  constexpr int kRounds = 100;
  using core::exec::EpChannel;
  using core::exec::EpollExecutor;
  struct Duo {
    EpChannel<int> ping, pong;
    explicit Duo(EpollExecutor& e) : ping(e), pong(e) {}
  };
  for (auto _ : state) {
    EpollExecutor ex;
    std::vector<std::unique_ptr<Duo>> duos;
    for (int i = 0; i < kPairs; ++i) duos.push_back(std::make_unique<Duo>(ex));
    for (int i = 0; i < kPairs; ++i) {
      Duo& d = *duos[static_cast<std::size_t>(i)];
      ex.spawn([](Duo& du) -> sim::Task {  // client
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.send(k);
          co_await du.pong.recv();
        }
      }(d));
      ex.spawn([](Duo& du) -> sim::Task {  // server
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.recv();
          co_await du.pong.send(k);
        }
      }(d));
    }
    ex.run();
  }
  state.SetItemsProcessed(state.iterations() * kPairs * kRounds);
}
BENCHMARK(BM_EpollChannelPingPong);

// The application<->loop handoff of the embedded rt::Runtime: the bench
// thread, inside run_inline() as ProducerEndpoint::write and
// ConsumerEndpoint::read are, plays request/reply against a coroutine on an
// EpollExecutor loop thread over two one-slot MtChannels. Every transfer finds
// its peer parked, so each round trip is one post() to the loop (an eventfd
// write when the loop sleeps) and one futex wake of the application thread:
// the cross-thread cost rt_inproc's per-block time breaks down into.
static void BM_EpollChannelPingPongCrossThread(benchmark::State& state) {
  constexpr int kRounds = 4096;
  using core::exec::EpollExecutor;
  using core::exec::MtChannel;
  for (auto _ : state) {
    EpollExecutor ex;
    ex.enable_post();
    MtChannel<int> ping(ex, 1), pong(ex, 1);
    ex.spawn([](MtChannel<int>& in, MtChannel<int>& out) -> sim::Task {
      for (int k = 0; k < kRounds; ++k) {
        const auto v = co_await in.recv();
        co_await out.send(*v);
      }
    }(ping, pong));
    std::thread loop([&ex] { ex.run(); });
    core::exec::run_inline(
        [](MtChannel<int>& out, MtChannel<int>& in) -> sim::Task {
          for (int k = 0; k < kRounds; ++k) {
            co_await out.send(k);
            benchmark::DoNotOptimize(co_await in.recv());
          }
        }(ping, pong));
    loop.join();
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
// UseRealTime: half of every round trip runs on the loop thread.
BENCHMARK(BM_EpollChannelPingPongCrossThread)
    ->Name("BM_EpollChannelPingPong/cross_thread")
    ->UseRealTime();

// Bounded-channel backpressure: senders park on a full buffer and are promoted
// one slot at a time — stresses the sender waiter list and buffer slots.
static void BM_ChannelBoundedBackpressure(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  constexpr int kPerSender = 50;
  for (auto _ : state) {
    sim::Simulation s;
    sim::Channel<int> ch(s, 4);
    for (int i = 0; i < senders; ++i) {
      s.spawn([](sim::Channel<int>& c) -> sim::Task {
        for (int k = 0; k < kPerSender; ++k) co_await c.send(k);
      }(ch));
    }
    s.spawn([](sim::Channel<int>& c, int total) -> sim::Task {
      for (int k = 0; k < total; ++k) co_await c.recv();
    }(ch, senders * kPerSender));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * senders * kPerSender);
}
BENCHMARK(BM_ChannelBoundedBackpressure)->Arg(64)->Arg(512);

// when_all over a wide fan-out: stresses Latch wakeups and spawn scheduling.
static void BM_LatchFanOut(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    std::vector<sim::Task> tasks;
    tasks.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      tasks.push_back([](sim::Simulation& sim, sim::Time d) -> sim::Task {
        co_await sim.delay(d);
      }(s, i % 97));
    }
    s.spawn(sim::when_all(s, std::move(tasks)));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_LatchFanOut)->Arg(4096);

static void BM_FabricTransfer(benchmark::State& state) {
  const int messages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    net::FabricConfig cfg;
    cfg.num_hosts = 64;
    cfg.hosts_per_leaf = 16;
    net::Fabric f(s, cfg);
    for (int i = 0; i < messages; ++i) {
      s.spawn(f.transfer(i % 32, 32 + i % 32, 1 << 20));
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_FabricTransfer)->Arg(256)->Arg(4096);

// ------------------------------------------------------------ wire path ----
// One zipperd kMixed block, layer by layer, without the syscalls. Items are
// payload bytes, so M items/s reads as MB/s.

namespace {

core::zbody::net::WireMixed wire_block(std::size_t bytes) {
  core::zbody::net::WireMixed m;
  m.has_block = true;
  m.block.id = core::BlockId{3, 1, 2};
  m.block.bytes = bytes;
  m.payload.resize(bytes);
  common::Xoshiro256 rng(11);
  for (std::byte& b : m.payload) b = static_cast<std::byte>(rng() & 0xFF);
  return m;
}

}  // namespace

static void BM_ChecksumFnv1a(benchmark::State& state) {
  const auto m = wire_block(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(common::fnv1a(m.payload));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChecksumFnv1a)->Name("BM_Checksum/fnv1a")->Arg(64 << 10);

static void BM_ChecksumXxh64(benchmark::State& state) {
  const auto m = wire_block(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(common::xxh64(m.payload));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChecksumXxh64)->Name("BM_Checksum/xxh64")->Arg(64 << 10);

// The client's user-space work per block: encode the frame head (checksum
// included) and point an iovec pair at head and payload for sendmsg().
static void BM_FrameEncode(benchmark::State& state) {
  const auto m = wire_block(static_cast<std::size_t>(state.range(0)));
  const std::span<const std::byte> payload = m.payload;
  for (auto _ : state) {
    std::vector<std::byte> head =
        core::zbody::net::encode_mixed_head(m, payload);
    iovec iov[2] = {{head.data(), head.size()},
                    {const_cast<std::byte*>(payload.data()), payload.size()}};
    benchmark::DoNotOptimize(iov);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameEncode)->Arg(64 << 10);

// The daemon's work per block: receive into the decoder's buffer (memcpy
// standing in for recv()'s kernel copy), pop the frame as a view, verify
// and copy the payload out.
static void BM_FrameDecode(benchmark::State& state) {
  const auto frame = core::zbody::net::encode_mixed(
      wire_block(static_cast<std::size_t>(state.range(0))));
  core::zbody::net::FrameDecoder dec;
  for (auto _ : state) {
    std::size_t got = 0;
    while (got < frame.size()) {
      const std::span<std::byte> space = dec.prepare(frame.size() - got);
      std::memcpy(space.data(), frame.data() + got, space.size());
      dec.commit(space.size());
      got += space.size();
    }
    const auto view = dec.next_view();
    auto m = core::zbody::net::decode_mixed(view->body);
    benchmark::DoNotOptimize(m.payload.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameDecode)->Arg(64 << 10);

// -------------------------------------------------------------- kernels ----

static void BM_LbmStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  apps::lbm::Solver solver({n, n, n}, {0.8, {1e-6, 0, 0}});
  for (auto _ : state) {
    solver.step();
    benchmark::DoNotOptimize(solver.rho().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(solver.dims().cells()));
}
BENCHMARK(BM_LbmStep)->Arg(16)->Arg(32);

static void BM_MdStep(benchmark::State& state) {
  apps::md::MdParams p;
  p.cells_per_side = static_cast<int>(state.range(0));
  apps::md::LjMd md(p);
  for (auto _ : state) {
    md.step();
    benchmark::DoNotOptimize(md.positions().data());
  }
  state.SetItemsProcessed(state.iterations() * md.num_atoms());
}
BENCHMARK(BM_MdStep)->Arg(4)->Arg(6);

static void BM_MomentAnalysis(benchmark::State& state) {
  std::vector<double> data(static_cast<std::size_t>(state.range(0)));
  common::Xoshiro256 rng(1);
  for (double& x : data) x = rng.uniform();
  for (auto _ : state) {
    apps::analysis::MomentAccumulator acc(4);
    acc.add_span(data);
    benchmark::DoNotOptimize(acc.kurtosis());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size() * sizeof(double)));
}
BENCHMARK(BM_MomentAnalysis)->Arg(1 << 16)->Arg(1 << 20);

static void BM_MsdAnalysis(benchmark::State& state) {
  std::vector<double> now(static_cast<std::size_t>(state.range(0)) * 3);
  std::vector<double> ref(now.size());
  common::Xoshiro256 rng(2);
  for (std::size_t i = 0; i < now.size(); ++i) {
    ref[i] = rng.uniform();
    now[i] = ref[i] + rng.uniform(-0.5, 0.5);
  }
  for (auto _ : state) {
    apps::analysis::MsdAccumulator acc;
    acc.add_block(now, ref);
    benchmark::DoNotOptimize(acc.value());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MsdAnalysis)->Arg(1 << 14)->Arg(1 << 18);

static void BM_SyntheticProducer(benchmark::State& state) {
  std::vector<double> block(static_cast<std::size_t>(state.range(1)));
  const auto c = static_cast<apps::Complexity>(state.range(0));
  std::uint64_t seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::generate_block(c, block, seed++));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size() * sizeof(double)));
}
BENCHMARK(BM_SyntheticProducer)
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16})
    ->Args({2, 1 << 14});

BENCHMARK_MAIN();
