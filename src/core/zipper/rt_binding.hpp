// Threaded binding: runs ZipperBody for an embedded rt::Runtime. Every body
// service is a suspending coroutine on one EpollExecutor loop thread; the
// application's threads call in through run_inline() and block in the Mt*
// primitives (core/exec/mt_sync.hpp) only on a full or empty buffer. The
// network is an in-process channel (throttled by a token bucket whose waits
// are loop timers), the file system a spill directory of real files, written
// and read on the env's I/O threads so a disk operation never stalls the
// loop. Spans are real [t0, t1] intervals on the loop's monotonic clock.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/exec/epoll.hpp"
#include "core/exec/mt_sync.hpp"
#include "core/zipper/body.hpp"
#include "core/zipper/loop_env.hpp"

namespace zipper::core::zbody {

class RtEnv;

struct RtBinding {
  using Task = sim::Task;
  using Time = sim::Time;
  using Ctx = exec::EpollExecutor;
  using Mutex = exec::MtMutex;
  using CondVar = exec::MtCondVar;
  using Latch = exec::MtLatch;
  template <typename T>
  using Channel = exec::MtChannel<T>;
  /// Real blocks carry their bytes; shared ownership enforces the Preserve
  /// guarantee (a block is freed only once analyzed *and* persisted).
  using Payload = std::shared_ptr<Block>;
  using Span = LoopSpan<RtEnv>;
  using Env = RtEnv;
  /// An application thread may stop calling read() mid-run; drain-mode
  /// stealing takes closed peers' leftovers at any depth.
  static constexpr bool kConsumersMayAbandon = true;
};

namespace rtdetail {

/// Base-from-member: the loop RtEnv owns exists before LoopEnv is built
/// on it.
struct OwnedLoop {
  exec::EpollExecutor loop;
};

}  // namespace rtdetail

/// Effect operations against the real machine: per-consumer net channels
/// (the "low-latency HPC network"), a spill directory (the "parallel file
/// system"), loop timers for the throttle and chaos service inflation. Owns
/// the loop and its thread: spawn the services, then start().
class RtEnv : private rtdetail::OwnedLoop, public LoopEnv<RtBinding> {
 public:
  RtEnv(LoopEnvConfig cfg, int num_consumers)
      : LoopEnv(loop, std::move(cfg), num_consumers),
        stop_(loop, 1), io_jobs_(loop) {
    loop.enable_post();
  }
  ~RtEnv() { join(); }

  /// Starts the loop thread; it runs until every spawned service finished
  /// and stop_control() was called.
  void start() {
    spawn(watch_stop());
    loop_thread_ = std::thread([this] { loop.run(); });
  }
  /// Waits for the loop thread, then for the I/O threads. Every service must
  /// be unblockable by now (its channels closed, its producer finalized,
  /// control stopped).
  void join() {
    if (loop_thread_.joinable()) loop_thread_.join();
    io_jobs_.close();
    for (std::thread& t : io_threads_) t.join();
    io_threads_.clear();
  }

  /// Under a network_bandwidth, a block leaves the shared link (a loop
  /// timer) once every block booked on it before has.
  sim::Task send_mixed(int, int c, MixedT msg) {
    if (const double rate = cfg_.network_bandwidth; rate > 0) {
      link_free_ = std::max(link_free_, now()) +
                   static_cast<sim::Time>(
                       static_cast<double>(msg.item.h.bytes) / rate * 1e9);
      co_await loop.sleep_until(link_free_);
    }
    co_await nets_[static_cast<std::size_t>(c)]->send(std::move(msg));
  }

  sim::Task send_done(int, int c, MixedT msg) {
    co_await nets_[static_cast<std::size_t>(c)]->send(std::move(msg));
  }

  /// Runs a blocking file operation on an I/O thread (started by the first
  /// one), so the loop's other coroutines, the senders above all, keep
  /// running meanwhile. Rethrows what `fn` threw.
  sim::Task file_io(std::function<void()> fn) {
    if (io_threads_.empty()) {
      for (int i = 0; i < kIoThreads; ++i) {
        io_threads_.emplace_back([this] { io_main(); });
      }
    }
    exec::MtLatch done(loop, 1);
    std::exception_ptr error;
    co_await io_jobs_.send([&] {
      try {
        fn();
      } catch (...) {
        error = std::current_exception();
      }
      done.count_down();
    });
    co_await done.wait();
    if (error) std::rethrow_exception(error);
  }

  /// A stealing consumer's poll interval. consumer_next runs on the
  /// application thread inside read(), so this sleeps that thread, never
  /// the loop.
  sim::Task nap() {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kStealPoll));
    co_return;
  }

  /// Thread-safe; the first call ends the control loop (control_tick).
  void stop_control() {
    if (!stop_requested_.exchange(true)) stop_.count_down();
  }

 private:
  /// Two, so a spill write and a spill read or Preserve write overlap. On a
  /// spilling 2-to-1 run, one I/O thread reached ~75% of the blocks/s of a
  /// thread per file-touching service; two and four reached all of it.
  static constexpr int kIoThreads = 2;

  /// Loop-side half of stop_control(): a root on the loop waits for the
  /// cross-thread latch and ends the tick there.
  sim::Task watch_stop() {
    co_await stop_.wait();
    end_control();
  }

  /// An I/O thread: runs file_io() jobs until join() closes the queue.
  void io_main() {
    std::optional<std::function<void()>> job;
    auto next = [&]() -> sim::Task { job = co_await io_jobs_.recv(); };
    for (exec::run_inline(next()); job; exec::run_inline(next())) (*job)();
  }

  sim::Time link_free_ = 0;  // loop-only: every sender runs on the loop
  exec::MtLatch stop_;  // counted down once by stop_control()
  std::atomic<bool> stop_requested_{false};
  exec::MtChannel<std::function<void()>> io_jobs_;
  std::vector<std::thread> io_threads_;  // started by the first file_io()
  std::thread loop_thread_;
};

extern template class ZipperBody<RtBinding>;

}  // namespace zipper::core::zbody
