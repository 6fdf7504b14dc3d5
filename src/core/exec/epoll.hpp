// EpollExecutor: the unified-execution adapter over a real event loop.
//
// Both real-time executor styles run here (docs/runtime.md): a single-threaded
// epoll loop whose awaitables *genuinely suspend*, like the virtual-time
// executor's. A coroutine that would block parks its handle on a waitlist (fd
// readiness, timer heap, or a primitive's queue) and the loop resumes it when
// the event fires, so one OS thread multiplexes thousands of concurrent
// coupling sessions (zipperd) or every service of an embedded rt::Runtime.
//
// Contract surface (core/exec):
//   spawn(Task)        — detach a root coroutine; the executor owns its frame
//   now()              — CLOCK_MONOTONIC ns since construction (sim::Time)
//   sleep_until(t)     — suspending timer parked on a min-heap + timerfd;
//                        wake_early(h) ends one before its deadline
//   yield()            — re-enqueue at the back of the ready queue
// plus the I/O primitives the net binding is built from:
//   wait_readable(fd) / wait_writable(fd) — suspend until epoll readiness;
//   resume with `false` after cancel_fd() (used for shutdown wake-ups).
//
// Interest model: a direction an fd was waited on stays registered in the
// epoll set after its waiter wakes, so a coroutine that parks again on the
// direction it was just woken for (the common recv/EAGAIN loop) costs no
// epoll_ctl. The registration narrows only when readiness arrives that no
// waiter wants, or on cancel_fd(). The set is level-triggered on purpose:
// readiness that lands while nobody waits is reported again on the next
// epoll_wait instead of being lost, so a waiter that parks after it still
// wakes (an edge-triggered loop must re-check the fd itself before parking).
// Because registrations outlive their waiters, cancel_fd() before close() is
// required for EVERY fd ever waited on: closing first leaves a stale entry,
// and a new fd that reuses the number would never be registered.
//
// The timerfd is re-armed only when the earliest deadline changes, so a loop
// without timers makes no timerfd_settime calls.
//
// Bounded passes: one loop pass resumes ready coroutines FIFO, at most
// kResumesPerPass of them or as many as were ready when it started, if more.
// Wake chains (a resume that schedules another) run within a pass up to that
// budget; then epoll is polled, with a zero timeout while ready work remains.
// Finished roots are swept before the loop blocks, and while work remains
// once per as many resumes as there are roots. A chain of coroutines that
// keep waking each other therefore cannot keep fds, timers and the stop
// eventfd from being serviced, nor let finished roots pile up; and with
// thousands of sessions ready, epoll is polled once per round of them, not
// every 61 resumes (docs/service.md, "Measurement", has the numbers).
//
// Threading: the loop, the Ep* primitives, and every spawned coroutine run on
// the thread that calls run(); none of that is thread-safe. The one
// thread-safe entry is post(h), opened by enable_post(): a remote queue that
// the loop drains once per pass, plus an eventfd that a poster writes only
// when the loop is parked in epoll_wait or about to park. A loop that never
// enabled posting (zipperd) pays neither a lock nor a syscall for it. The
// thread-safe primitives built on post() live in mt_sync.hpp. Other wake-ups
// from outside (SIGTERM reaching the zipperd loop) go through an eventfd
// watched with wait_readable(), since a write() is async-signal-safe.
#pragma once

#include <atomic>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ring_buffer.hpp"
#include "sim/event_queue.hpp"  // sim::IntrusiveFifo
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace zipper::core::exec {

class EpollExecutor {
 public:
  EpollExecutor();
  ~EpollExecutor();
  EpollExecutor(const EpollExecutor&) = delete;
  EpollExecutor& operator=(const EpollExecutor&) = delete;

  /// Monotonic ns since construction — the executor's sim::Time axis.
  sim::Time now() const noexcept { return raw_now() - t0_; }

  /// Absolute CLOCK_MONOTONIC ns. System-wide on Linux, so two processes on
  /// one host can timestamp a block at send and measure latency at analyze.
  static sim::Time raw_now() noexcept;

  /// Detaches `t` as a root coroutine owned by this executor; first resume
  /// happens on the next loop turn. Root exceptions rethrow out of run().
  void spawn(sim::Task t);

  /// Resumes `h` on the next loop turn. The primitive layer's wake path;
  /// must be called from the loop thread.
  void schedule(std::coroutine_handle<> h) { ready_.push_back(h); }

  /// Lets other threads hand coroutines to this loop through post(): creates
  /// the wake eventfd, and turns off run()'s check for roots parked with
  /// nothing to wake them, since a post may still come. Call before run().
  void enable_post();

  /// Thread-safe: resumes `h` on the loop, within the pass after the one
  /// that is running. From the loop thread itself this is schedule(h); from
  /// any other thread it needs enable_post().
  void post(std::coroutine_handle<> h);

  /// True on the thread inside this executor's run().
  bool in_loop() const noexcept { return running_ == this; }

  struct SleepAwaiter {
    EpollExecutor* ex;
    sim::Time deadline;
    std::coroutine_handle<>* parked;  // if set, holds the sleeper's handle
    bool await_ready() const noexcept { return deadline <= ex->now(); }
    void await_suspend(std::coroutine_handle<> h) {
      if (parked) *parked = h;
      ex->push_timer(deadline, h);
    }
    void await_resume() const noexcept {
      if (parked) *parked = {};
    }
  };
  /// `parked`, if given, holds the sleeping handle for wake_early() until
  /// the sleep ends.
  SleepAwaiter sleep_until(sim::Time t,
                           std::coroutine_handle<>* parked = nullptr) noexcept {
    return {this, t, parked};
  }

  /// Ends the sleep_until() that `h` is parked in: `h` resumes on the next
  /// loop turn and its timer fires nothing. Returns false, and does nothing,
  /// when `h` is not parked in a sleep (its timer already fired).
  bool wake_early(std::coroutine_handle<> h);

  struct YieldAwaiter {
    EpollExecutor* ex;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { ex->schedule(h); }
    void await_resume() const noexcept {}
  };
  YieldAwaiter yield() noexcept { return {this}; }

  // ------------------------------------------------------- fd readiness ----
  // Callers follow the non-blocking idiom: attempt the syscall first and
  // await only on EAGAIN. await_resume() is `true` on readiness and `false`
  // when the wait was torn down via cancel_fd().

  struct IoAwaiter {
    EpollExecutor* ex;
    int fd;
    bool write;
    bool ok = true;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { ex->arm_io(this, h); }
    bool await_resume() const noexcept { return ok; }
  };
  IoAwaiter wait_readable(int fd) noexcept { return {this, fd, false}; }
  IoAwaiter wait_writable(int fd) noexcept { return {this, fd, true}; }

  /// Wakes any coroutine parked on `fd` with a `false` result and drops the
  /// fd from the epoll set. Call before close()ing any fd that was ever
  /// waited on, even if nothing waits on it now.
  void cancel_fd(int fd);

  /// Runs the loop until every root coroutine finished. A root exception
  /// aborts the loop and rethrows (remaining roots are destroyed by ~).
  void run();

  std::size_t roots_alive() const noexcept { return roots_.size(); }

  /// Event-loop bookkeeping syscalls made so far; the interest and timer
  /// models above are what keep these low.
  struct LoopCounters {
    std::uint64_t epoll_ctl = 0;
    std::uint64_t timerfd_settime = 0;
  };
  const LoopCounters& counters() const noexcept { return counters_; }

 private:
  struct TimerEntry {
    sim::Time deadline;
    std::uint64_t seq;  // FIFO among equal deadlines
    std::coroutine_handle<> h;
    bool operator>(const TimerEntry& o) const noexcept {
      return deadline != o.deadline ? deadline > o.deadline : seq > o.seq;
    }
  };
  struct FdWait {
    IoAwaiter* reader = nullptr;
    IoAwaiter* writer = nullptr;
    std::coroutine_handle<> reader_h{};
    std::coroutine_handle<> writer_h{};
    std::uint32_t events = 0;  // registered in the epoll set; never 0 once
                               // arm_io returns (an entry with none is erased)
  };

  void push_timer(sim::Time deadline, std::coroutine_handle<> h);
  void arm_io(IoAwaiter* aw, std::coroutine_handle<> h);
  /// Re-registers `fd` with `events`; 0 drops it from the set and the map.
  void set_interest(int fd, FdWait& w, std::uint32_t events);
  void dispatch_fd(int fd, std::uint32_t events);
  void arm_timer();
  void expire_timers();
  void sweep_finished_roots();
  /// Moves posted handles into the ready queue.
  void take_posted();
  /// Runs one bounded pass; returns the number of resumes.
  std::size_t drain_ready();

  /// Least resume budget of a loop pass; see the header comment. 61 is the
  /// interval at which Tokio's scheduler polls its I/O driver.
  static constexpr std::size_t kResumesPerPass = 61;

  int epfd_ = -1;
  int timerfd_ = -1;
  sim::Time t0_ = 0;
  common::RingBuffer<std::coroutine_handle<>> ready_;
  // Min-heap on (deadline, seq) under std::greater. An entry whose sleeper
  // was woken early keeps its place with a null handle: at its deadline it
  // wakes the loop once and resumes nothing.
  std::vector<TimerEntry> timers_;
  std::uint64_t timer_seq_ = 0;
  sim::Time armed_deadline_ = -1;  // what the timerfd holds; -1 = disarmed
  std::unordered_map<int, FdWait> fd_waits_;
  /// Coroutines parked in wait_readable/wait_writable. Registrations outlive
  /// their waiters, so fd_waits_ being non-empty does not mean a root can
  /// still be woken; this count does.
  std::size_t fd_waiters_ = 0;
  LoopCounters counters_;
  std::vector<sim::Task::Handle> roots_;

  // Cross-thread posting (inert until enable_post()). A poster appends under
  // post_m_, raises posted_, and writes wake_fd_ only if it then reads
  // parked_ set; the loop sets parked_ before it re-reads posted_ and blocks.
  // Both sides store, then load, seq_cst, so at least one of them sees the
  // other: either the loop does not block or the poster wakes it.
  inline static thread_local const EpollExecutor* running_ = nullptr;
  int wake_fd_ = -1;
  std::mutex post_m_;
  std::vector<std::coroutine_handle<>> posted_queue_;  // guarded by post_m_
  std::vector<std::coroutine_handle<>> posted_taken_;  // loop-only swap buffer
  std::atomic<bool> posted_{false};
  std::atomic<bool> parked_{false};
  std::atomic<bool> wake_sent_{false};  // wake_fd_ written, not yet read
};

// ---------------------------------------------------------- primitives ----
// Suspending single-threaded analogs of the sim primitives: waiters park
// their handles and the wake path goes through EpollExecutor::schedule().
// No internal locking — everything runs on the loop thread. As with the sim
// primitives, a waiter is an intrusive node in its own awaiter (which lives
// in the suspended coroutine's frame), so constructing a primitive and
// parking on it allocate nothing; only a channel's value buffer does, on its
// first buffered value.

class EpMutex {
 public:
  explicit EpMutex(EpollExecutor& ex) : ex_(&ex) {}
  EpMutex(const EpMutex&) = delete;
  EpMutex& operator=(const EpMutex&) = delete;

  struct LockAwaiter {
    EpMutex* m;
    std::coroutine_handle<> h{};
    LockAwaiter* next_waiter = nullptr;
    bool await_ready() {
      if (!m->locked_) {
        m->locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> hh) {
      h = hh;
      m->waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };

  /// co_await lock(); ownership transfers FIFO on unlock().
  LockAwaiter lock() { return LockAwaiter{this}; }

  void unlock() {
    assert(locked_ && "unlock of unlocked EpMutex");
    // Ownership passes directly to the first waiter; locked_ stays true.
    if (LockAwaiter* w = waiters_.pop_front()) {
      ex_->schedule(w->h);
    } else {
      locked_ = false;
    }
  }

 private:
  EpollExecutor* ex_;
  bool locked_ = false;
  sim::IntrusiveFifo<LockAwaiter> waiters_;
};

class EpCondVar {
 public:
  explicit EpCondVar(EpollExecutor& ex) : ex_(&ex) {}
  EpCondVar(const EpCondVar&) = delete;
  EpCondVar& operator=(const EpCondVar&) = delete;

  /// Atomically releases `m`, parks, and re-acquires `m` before returning —
  /// same Task-shaped wait as SimCondVar (callers run predicate loops).
  sim::Task wait(EpMutex& m) {
    m.unlock();
    co_await Park{this};
    co_await m.lock();
  }

  void notify_one() {
    if (Park* w = waiters_.pop_front()) ex_->schedule(w->h);
  }

  void notify_all() {
    while (Park* w = waiters_.pop_front()) ex_->schedule(w->h);
  }

 private:
  struct Park {
    EpCondVar* cv;
    std::coroutine_handle<> h{};
    Park* next_waiter = nullptr;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> hh) {
      h = hh;
      cv->waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };

  EpollExecutor* ex_;
  sim::IntrusiveFifo<Park> waiters_;
};

class EpLatch {
 public:
  EpLatch(EpollExecutor& ex, std::int64_t count) : ex_(&ex), count_(count) {}
  EpLatch(const EpLatch&) = delete;
  EpLatch& operator=(const EpLatch&) = delete;

  struct WaitAwaiter {
    EpLatch* l;
    std::coroutine_handle<> h{};
    WaitAwaiter* next_waiter = nullptr;
    bool await_ready() const noexcept { return l->count_ == 0; }
    void await_suspend(std::coroutine_handle<> hh) {
      h = hh;
      l->waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };

  void count_down(std::int64_t n = 1) {
    assert(count_ >= n && "latch underflow");
    count_ -= n;
    if (count_ == 0) {
      while (WaitAwaiter* w = waiters_.pop_front()) ex_->schedule(w->h);
    }
  }

  WaitAwaiter wait() { return WaitAwaiter{this}; }

  std::int64_t pending() const noexcept { return count_; }

 private:
  EpollExecutor* ex_;
  std::int64_t count_;
  sim::IntrusiveFifo<WaitAwaiter> waiters_;
};

/// Suspending channel with sim::Channel semantics on the epoll loop: bounded
/// senders park on backpressure, receivers park when empty, close() wakes
/// everyone (parked sends report failure), direct handoff to a parked
/// receiver preserves FIFO among senders and receivers.
template <typename T>
class EpChannel {
 public:
  /// capacity == 0 means unbounded.
  explicit EpChannel(EpollExecutor& ex, std::size_t capacity = 0)
      : ex_(&ex), capacity_(capacity) {}
  EpChannel(const EpChannel&) = delete;
  EpChannel& operator=(const EpChannel&) = delete;

  struct RecvAwaiter {
    EpChannel* ch;
    std::optional<T> slot;
    bool closed_signal = false;
    std::coroutine_handle<> h{};
    RecvAwaiter* next_waiter = nullptr;

    bool await_ready() {
      if (!ch->buffer_.empty()) {
        slot = ch->buffer_.take_front();
        ch->promote_waiting_sender();
        return true;
      }
      if (ch->closed_) {
        closed_signal = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> hh) {
      h = hh;
      ch->recv_waiters_.push_back(this);
    }
    std::optional<T> await_resume() {
      if (closed_signal) return std::nullopt;
      return std::move(slot);
    }
  };

  struct SendAwaiter {
    EpChannel* ch;
    T value;
    bool delivered = true;
    std::coroutine_handle<> h{};
    SendAwaiter* next_waiter = nullptr;

    bool await_ready() {
      assert(!ch->closed_ && "send on closed channel");
      if (RecvAwaiter* r = ch->recv_waiters_.pop_front()) {
        r->slot = std::move(value);
        ch->ex_->schedule(r->h);
        return true;
      }
      if (ch->capacity_ == 0 || ch->buffer_.size() < ch->capacity_) {
        ch->buffer_.push_back(std::move(value));
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> hh) {
      h = hh;
      ch->send_waiters_.push_back(this);
    }
    /// True if delivered (or buffered); false if closed while parked.
    bool await_resume() const noexcept { return delivered; }
  };

  SendAwaiter send(T value) { return SendAwaiter{this, std::move(value)}; }
  RecvAwaiter recv() { return RecvAwaiter{this, std::nullopt}; }

  std::optional<T> try_recv() {
    if (buffer_.empty()) return std::nullopt;
    T v = buffer_.take_front();
    promote_waiting_sender();
    return v;
  }

  void close() {
    closed_ = true;
    if (buffer_.empty()) {
      while (RecvAwaiter* r = recv_waiters_.pop_front()) {
        r->closed_signal = true;
        ex_->schedule(r->h);
      }
    }
    while (SendAwaiter* s = send_waiters_.pop_front()) {
      s->delivered = false;
      ex_->schedule(s->h);
    }
  }

  std::size_t size() const noexcept { return buffer_.size(); }
  bool empty() const noexcept { return buffer_.empty(); }
  bool closed() const noexcept { return closed_; }

 private:
  void promote_waiting_sender() {
    SendAwaiter* s = send_waiters_.pop_front();
    if (!s) return;
    buffer_.push_back(std::move(s->value));
    ex_->schedule(s->h);
  }

  EpollExecutor* ex_;
  std::size_t capacity_;
  bool closed_ = false;
  /// Grows on the first buffered value, not at construction.
  common::RingBuffer<T> buffer_;
  sim::IntrusiveFifo<RecvAwaiter> recv_waiters_;
  sim::IntrusiveFifo<SendAwaiter> send_waiters_;
};

}  // namespace zipper::core::exec
