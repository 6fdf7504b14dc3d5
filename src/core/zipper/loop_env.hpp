// What the two environments on an EpollExecutor loop share: RtEnv
// (rt_binding.hpp, the embedded runtime) and NetEnv (net_binding.hpp,
// zipperd and its clients). LoopEnv is the loop's clock and timers, real
// trace spans, the per-consumer net channels, chaos service time, the
// controller tick that stopping ends early, and the spill / Preserve files.
// Each env supplies file_io(fn), which decides where a blocking file
// operation runs and what its errors do.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "core/exec/epoll.hpp"
#include "core/zipper/body.hpp"

namespace zipper::core::zbody {

/// Knobs of both loop environments.
struct LoopEnvConfig {
  std::filesystem::path spill_dir;     // shared with a peer process (net)
  std::filesystem::path preserve_dir;  // consumer-side output location
  bool preserve = false;
  /// RtEnv's in-process network: bytes/s shared by all senders, 0 = off.
  /// A net session's network is the real socket.
  double network_bandwidth = 0.0;
  std::size_t net_channel_blocks = 64;  // per-consumer in-flight bound
  std::uint64_t chaos_block_service_ns = 0;
  std::uint64_t analysis_ns_per_block = 0;  // consumer_run's analysis time
  trace::Recorder* recorder = nullptr;      // optional real-span sink
};

/// RAII trace span on a loop's monotonic clock, recorded through the env's
/// record_span(); inert without a recorder.
template <class Env>
class LoopSpan {
 public:
  LoopSpan(Env* env, int rank, trace::Cat cat)
      : env_(env), rank_(rank), cat_(cat), t0_(env ? env->now() : 0) {}
  LoopSpan(const LoopSpan&) = delete;
  LoopSpan& operator=(const LoopSpan&) = delete;
  ~LoopSpan() {
    if (env_) env_->record_span(rank_, cat_, t0_, env_->now());
  }

 private:
  Env* env_;  // null without a recorder
  int rank_;
  trace::Cat cat_;
  sim::Time t0_;
};

namespace loopfs {

inline std::filesystem::path spill_path(const std::filesystem::path& dir,
                                        const BlockId& id) {
  return dir / ("blk_" + id.to_string() + ".bin");
}

inline std::filesystem::path preserve_path(const std::filesystem::path& dir,
                                           const BlockId& id) {
  return dir / ("out_" + id.to_string() + ".bin");
}

inline void write_file(const std::filesystem::path& p,
                       std::span<const std::byte> bytes) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  if (!f) {
    throw std::runtime_error("Zipper: cannot open spill file " + p.string());
  }
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("Zipper: short write to " + p.string());
}

inline std::vector<std::byte> read_file(const std::filesystem::path& p,
                                        std::uint64_t expected) {
  std::ifstream f(p, std::ios::binary);
  if (!f) {
    throw std::runtime_error("Zipper: cannot open spill file " + p.string());
  }
  std::vector<std::byte> out(expected);
  f.read(reinterpret_cast<char*>(out.data()),
         static_cast<std::streamsize>(expected));
  if (static_cast<std::uint64_t>(f.gcount()) != expected) {
    throw std::runtime_error("Zipper: short read from " + p.string());
  }
  return out;
}

}  // namespace loopfs

/// The effect operations both loop environments implement alike. `B::Env`
/// derives from it and provides file_io() and nap().
template <class B>
class LoopEnv {
 public:
  using ItemT = Item<B>;
  using MixedT = Mixed<B>;

  exec::EpollExecutor& prim() noexcept { return *ex_; }
  sim::Time now() const noexcept { return ex_->now(); }
  /// Chaos window clock: seconds since this env was constructed. A net
  /// session's client and daemon construct theirs a connect-handshake apart,
  /// well inside the windows' subsecond placement jitter.
  double now_s() const noexcept { return sim::to_seconds(now() - et0_); }
  void spawn(sim::Task t) { ex_->spawn(std::move(t)); }
  auto sleep(sim::Time d) { return ex_->sleep_until(ex_->now() + d); }

  LoopSpan<typename B::Env> span(int rank, trace::Cat cat) {
    return {cfg_.recorder ? &self() : nullptr, rank, cat};
  }
  /// Takes a lock: application threads record spans too (RtBinding).
  void record_span(int rank, trace::Cat cat, sim::Time t0, sim::Time t1) {
    if (!cfg_.recorder) return;
    std::lock_guard lk(rec_m_);
    cfg_.recorder->record(rank, cat, t0, t1);
  }

  void charge_backoff_wait(int, sim::Time) noexcept {}

  sim::Task recv_mixed(int c, std::optional<MixedT>& out) {
    out = co_await nets_[static_cast<std::size_t>(c)]->recv();
  }

  /// Straggler / fault injection: a chaos-slowed consumer serves each
  /// received block that much extra service time, for real (a loop timer).
  sim::Task receive_block(int, std::uint64_t, int, double slow) {
    if (cfg_.chaos_block_service_ns > 0 && slow > 1.0) {
      co_await sleep(static_cast<sim::Time>(
          static_cast<double>(cfg_.chaos_block_service_ns) * (slow - 1.0)));
    }
  }

  /// The first spill creates cfg_.spill_dir, so a run that never spills
  /// does no filesystem work at all.
  sim::Task spill_write(int, const ItemT& it) {
    co_await self().file_io([&] {
      if (!made_spill_dir_) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.spill_dir, ec);
        if (ec) throw std::runtime_error("spill dir: " + ec.message());
        made_spill_dir_ = true;
      }
      write_item(loopfs::spill_path(cfg_.spill_dir, it.h.id), it);
    });
  }

  /// Reads a spilled block back. Under Preserve it is already on disk, so
  /// its file moves to its final home (the output service skips on_disk
  /// blocks); otherwise the file is removed.
  sim::Task fetch_spill(int, const BlockHeader& h, ItemT& out) {
    auto block = std::make_shared<Block>();
    block->header = h;
    co_await self().file_io([&] {
      const auto src = loopfs::spill_path(cfg_.spill_dir, h.id);
      block->payload = loopfs::read_file(src, h.bytes);
      if (cfg_.preserve) {
        std::filesystem::rename(
            src, loopfs::preserve_path(cfg_.preserve_dir, h.id));
      } else {
        std::filesystem::remove(src);
      }
    });
    // A failed read that file_io() recorded instead of throwing.
    if (block->payload.size() != h.bytes) {
      block->payload.assign(h.bytes, std::byte{0});
    }
    out.h = h;
    out.payload = std::move(block);
  }

  sim::Task preserve_open(int) { co_return; }

  sim::Task preserve_write(int, const ItemT& it) {
    co_await self().file_io([&] {
      write_item(loopfs::preserve_path(cfg_.preserve_dir, it.h.id), it);
    });
  }

  sim::Time analysis_cost(std::uint64_t) const noexcept {
    return static_cast<sim::Time>(cfg_.analysis_ns_per_block);
  }

  /// A consumer's look at its own buffer between steal probes, then the
  /// env's nap() if it was empty.
  sim::Task idle_recv(typename B::template Channel<ItemT>& buf,
                      std::optional<ItemT>& out) {
    out = buf.try_recv();
    if (!out) co_await self().nap();
  }
  sim::Task drain_nap() { co_await self().nap(); }

  /// One controller interval on a loop timer, cut short by end_control();
  /// `alive` is false once stopped.
  sim::Task control_tick(sim::Time interval, bool& alive) {
    if (!stopped_) co_await ex_->sleep_until(ex_->now() + interval, &tick_h_);
    alive = !stopped_;
  }

  /// Emergency teardown: unblocks receivers (and senders parked on a full
  /// net channel) so every service can finish.
  void close_transport() {
    for (auto& n : nets_) {
      if (!n->closed()) n->close();
    }
  }

 protected:
  static constexpr sim::Time kStealPoll = 500 * sim::kMicrosecond;

  LoopEnv(exec::EpollExecutor& ex, LoopEnvConfig cfg, int num_consumers)
      : ex_(&ex), cfg_(std::move(cfg)) {
    nets_.reserve(static_cast<std::size_t>(num_consumers));
    for (int c = 0; c < num_consumers; ++c) {
      nets_.push_back(std::make_unique<typename B::template Channel<MixedT>>(
          ex, cfg_.net_channel_blocks));
    }
  }

  /// Loop-only: ends the control loop, waking a tick that is in progress.
  void end_control() {
    stopped_ = true;
    if (tick_h_) ex_->wake_early(std::exchange(tick_h_, {}));
  }

  exec::EpollExecutor* ex_;
  LoopEnvConfig cfg_;
  std::vector<std::unique_ptr<typename B::template Channel<MixedT>>> nets_;
  std::atomic<bool> made_spill_dir_{false};

 private:
  typename B::Env& self() { return static_cast<typename B::Env&>(*this); }

  /// Writes the block's bytes, or zeros for an item without a payload.
  static void write_item(const std::filesystem::path& p, const ItemT& it) {
    if (it.payload) {
      loopfs::write_file(p, it.payload->payload);
    } else {
      loopfs::write_file(p, std::vector<std::byte>(it.h.bytes));
    }
  }

  sim::Time et0_ = ex_->now();
  std::mutex rec_m_;
  bool stopped_ = false;
  std::coroutine_handle<> tick_h_;  // control_tick parked in its sleep
};

}  // namespace zipper::core::zbody
