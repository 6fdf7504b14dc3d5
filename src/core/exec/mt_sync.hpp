// Thread-safe awaitable primitives shared by an epoll loop's coroutines and
// application threads: RtBinding's (core/zipper/rt_binding.hpp).
//
// MtCondVar, MtLatch and MtChannel wait in one of two ways (MtAwaiter):
//   * a coroutine on the loop (EpollExecutor::in_loop()) parks its handle,
//     and the waker resumes it through EpollExecutor::post();
//   * an application thread inside run_inline() blocks in await_ready() on a
//     futex word in its own waiter node until the waker releases it.
// So an application call completes on its own thread whenever the buffer has
// room or data, and only a side that is parked is woken. MtMutex is a plain
// lock on both sides (see the class).
//
// Each primitive's state sits behind one std::mutex (a condvar's behind the
// MtMutex of its waiters). Latches and channels collect waiters under it and
// wake them once it is released; a condvar notify wakes under the notifier's
// lock (deferring those wakes to the unlock showed no gain). A waiter is
// an intrusive node in its own awaiter (in the parked coroutine's frame or on
// the blocked thread's stack), so parking allocates nothing.
#pragma once

#include <atomic>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>

#include "common/ring_buffer.hpp"
#include "core/exec/epoll.hpp"
#include "sim/event_queue.hpp"  // sim::IntrusiveFifo
#include "sim/task.hpp"

namespace zipper::core::exec {

/// Runs a coroutine to completion synchronously on the calling thread — the
/// bridge from an application thread (Zipper.write / Zipper.read) into the
/// awaitable body. The Mt* primitives block such a thread instead of
/// suspending it, so the coroutine never leaves the thread. Never call it on
/// a loop thread: it would block every coroutine of that loop.
void run_inline(sim::Task t);

/// One party parked on an Mt* primitive.
struct MtWaiter {
  std::coroutine_handle<> h;  // a parked loop coroutine; null for a thread
  MtWaiter* next_waiter = nullptr;

  /// Blocks the calling application thread until wake().
  void block() noexcept;
  /// Resumes the coroutine on `ex`'s loop, or releases the blocked thread.
  /// The node may be gone as soon as the waiter runs again.
  void wake(EpollExecutor& ex) noexcept;

 private:
  // 0: not woken; 1: woken; 2: the thread sleeps on this futex word.
  std::atomic<std::uint32_t> state_{0};
};

using MtWaitList = sim::IntrusiveFifo<MtWaiter>;

inline void wake_all(MtWaitList& list, EpollExecutor& ex) noexcept {
  while (MtWaiter* w = list.pop_front()) w->wake(ex);
}

/// The two ways to wait, shared by every Mt* awaiter. `D::park(h)` either
/// completes the operation at once (false) or queues the awaiter with `h`
/// to be woken (true); a thread parks with a null `h` and blocks.
template <class D>
struct MtAwaiter : MtWaiter {
  bool await_ready() {
    D& d = static_cast<D&>(*this);
    if (d.executor().in_loop()) return false;
    if (d.park({})) block();
    return true;
  }
  bool await_suspend(std::coroutine_handle<> hh) {
    return static_cast<D&>(*this).park(hh);
  }
};

/// A std::mutex behind the awaitable surface. The body never suspends
/// inside a critical section (a condvar wait releases the lock first), so a
/// loop coroutine that finds the lock held blocks the loop for the rest of an
/// application thread's short section instead of parking. Parking was tried
/// and measured worse: unlock then hands the lock to the parked side, and the
/// next locker queues behind a thread or loop that is still waking up, which
/// serialized every block of rt_inproc on two wake-ups.
class MtMutex {
 public:
  explicit MtMutex(EpollExecutor&) {}
  MtMutex(const MtMutex&) = delete;
  MtMutex& operator=(const MtMutex&) = delete;

  struct LockAwaiter {
    std::mutex* m;
    bool await_ready() const {
      m->lock();
      return true;
    }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
  };

  LockAwaiter lock() { return LockAwaiter{&m_}; }

  void unlock() { m_.unlock(); }

 private:
  friend class MtCondVar;

  std::mutex m_;
};

/// Condition variable over MtMutex. Waits and notifies all happen with the
/// waiters' mutex held (the body always does), which guards the wait list.
class MtCondVar {
 public:
  explicit MtCondVar(EpollExecutor& ex) : ex_(&ex) {}
  MtCondVar(const MtCondVar&) = delete;
  MtCondVar& operator=(const MtCondVar&) = delete;

  struct WaitAwaiter : MtAwaiter<WaitAwaiter> {
    MtCondVar* cv;
    MtMutex* mu;
    EpollExecutor& executor() const noexcept { return *cv->ex_; }
    bool park(std::coroutine_handle<> hh) {
      h = hh;
      cv->waiters_.push_back(this);
      mu->unlock();
      return true;
    }
    void await_resume() { mu->m_.lock(); }
  };

  /// Releases `m`, parks, and returns holding `m` again. Wakes only on a
  /// notify, but another party may run first: callers loop on a predicate.
  WaitAwaiter wait(MtMutex& m) { return WaitAwaiter{{}, this, &m}; }

  void notify_one() {
    if (MtWaiter* w = waiters_.pop_front()) w->wake(*ex_);
  }

  void notify_all() { wake_all(waiters_, *ex_); }

 private:
  EpollExecutor* ex_;
  MtWaitList waiters_;  // guarded by the waiters' MtMutex
};

class MtLatch {
 public:
  MtLatch(EpollExecutor& ex, std::int64_t count) : ex_(&ex), count_(count) {}
  MtLatch(const MtLatch&) = delete;
  MtLatch& operator=(const MtLatch&) = delete;

  struct WaitAwaiter : MtAwaiter<WaitAwaiter> {
    MtLatch* l;
    EpollExecutor& executor() const noexcept { return *l->ex_; }
    bool park(std::coroutine_handle<> hh) {
      std::lock_guard lk(l->m_);
      if (l->count_ == 0) return false;
      h = hh;
      l->waiters_.push_back(this);
      return true;
    }
    void await_resume() const noexcept {}
  };

  /// Reads nothing of the latch once its lock is released: a waiter that
  /// finds the count at zero may destroy the latch right then.
  void count_down(std::int64_t n = 1) {
    EpollExecutor& ex = *ex_;
    MtWaitList woken;
    {
      std::lock_guard lk(m_);
      assert(count_ >= n && "latch underflow");
      count_ -= n;
      if (count_ == 0) woken = std::exchange(waiters_, {});
    }
    wake_all(woken, ex);
  }

  WaitAwaiter wait() { return WaitAwaiter{{}, this}; }

 private:
  EpollExecutor* ex_;
  std::mutex m_;
  std::int64_t count_;
  MtWaitList waiters_;
};

/// Bounded MPMC channel with sim::Channel semantics, except that a sender
/// parked on a full buffer waits for a batch of room (refill_at()): senders
/// park on a full buffer, receivers on an empty one, a value goes straight to
/// a parked receiver, and close() wakes everyone. Unlike EpChannel, a send on
/// a closed channel is not an error: it reports `false`, which is how the
/// runtime's teardown unwinds senders nobody drains anymore.
template <typename T>
class MtChannel {
 public:
  /// capacity == 0 means unbounded.
  explicit MtChannel(EpollExecutor& ex, std::size_t capacity = 0)
      : ex_(&ex), capacity_(capacity) {}
  MtChannel(const MtChannel&) = delete;
  MtChannel& operator=(const MtChannel&) = delete;

  struct RecvAwaiter : MtAwaiter<RecvAwaiter> {
    MtChannel* ch;
    std::optional<T> slot;  // stays empty when woken by close()

    EpollExecutor& executor() const noexcept { return *ch->ex_; }
    bool park(std::coroutine_handle<> hh) {
      std::unique_lock lk(ch->m_);
      if (ch->buffer_.empty() && !ch->closed_) {
        this->h = hh;
        ch->recv_waiters_.push_back(this);
        return true;
      }
      MtWaitList senders;
      ch->take_locked(slot, senders);
      lk.unlock();
      wake_all(senders, *ch->ex_);
      return false;
    }
    std::optional<T> await_resume() { return std::move(slot); }
  };

  struct SendAwaiter : MtAwaiter<SendAwaiter> {
    MtChannel* ch;
    T value;
    bool delivered = true;

    EpollExecutor& executor() const noexcept { return *ch->ex_; }
    bool park(std::coroutine_handle<> hh) {
      std::unique_lock lk(ch->m_);
      if (ch->full_locked()) {
        this->h = hh;
        ch->send_waiters_.push_back(this);
        return true;
      }
      MtWaiter* receiver = ch->put_locked(*this);
      lk.unlock();
      if (receiver) receiver->wake(*ch->ex_);
      return false;
    }
    /// True if delivered (or buffered); false if the channel was closed.
    bool await_resume() const noexcept { return delivered; }
  };

  SendAwaiter send(T value) { return SendAwaiter{{}, this, std::move(value)}; }
  RecvAwaiter recv() { return RecvAwaiter{{}, this, std::nullopt}; }

  std::optional<T> try_recv() {
    std::optional<T> out;
    std::unique_lock lk(m_);
    if (buffer_.empty()) return out;
    MtWaitList senders;
    take_locked(out, senders);
    lk.unlock();
    wake_all(senders, *ex_);
    return out;
  }

  /// Wakes every parked receiver (empty-handed) and sender (`false`).
  void close() {
    MtWaitList woken;
    {
      std::lock_guard lk(m_);
      closed_ = true;
      // Receivers park only on an empty buffer, so all of them get nothing.
      woken = std::exchange(recv_waiters_, {});
      while (MtWaiter* s = send_waiters_.pop_front()) {
        static_cast<SendAwaiter*>(s)->delivered = false;
        woken.push_back(s);
      }
    }
    wake_all(woken, *ex_);
  }

  std::size_t size() {
    std::lock_guard lk(m_);
    return buffer_.size();
  }
  bool empty() { return size() == 0; }
  bool closed() {
    std::lock_guard lk(m_);
    return closed_;
  }

 private:
  bool full_locked() const noexcept {
    return !closed_ && recv_waiters_.empty() && capacity_ != 0 &&
           buffer_.size() >= capacity_;
  }

  /// Under m_, on a channel that is not full: hands `s`'s value to a parked
  /// receiver (returned, to be woken once m_ is released) or buffers it; on
  /// a closed channel, drops it.
  MtWaiter* put_locked(SendAwaiter& s) {
    if (closed_) {
      s.delivered = false;
      return nullptr;
    }
    if (MtWaiter* r = recv_waiters_.pop_front()) {
      static_cast<RecvAwaiter*>(r)->slot = std::move(s.value);
      return r;
    }
    buffer_.push_back(std::move(s.value));
    return nullptr;
  }

  /// Under m_, on a non-empty buffer (or a closed, drained one): takes the
  /// front value. Senders parked on a full buffer get in only once it has
  /// drained to refill_at(); their values then fill the free slots and they
  /// join `woken`, to be woken once m_ is released.
  void take_locked(std::optional<T>& out, MtWaitList& woken) {
    if (buffer_.empty()) return;
    out = buffer_.take_front();
    if (send_waiters_.empty() || buffer_.size() > refill_at()) return;
    while (buffer_.size() < capacity_) {
      MtWaiter* s = send_waiters_.pop_front();
      if (!s) break;
      buffer_.push_back(std::move(static_cast<SendAwaiter*>(s)->value));
      woken.push_back(s);
    }
  }

  /// An eighth of the capacity free (one slot below 8 slots): each wake of a
  /// parked sender then moves a batch instead of one value. On rt_inproc,
  /// waking a sender per value raised the producers' median 1 MiB step time
  /// from ~0.42 to ~0.56 ms (two sets of alternating runs agreed); half the
  /// capacity batched more but doubled their p90 step time.
  std::size_t refill_at() const noexcept { return capacity_ - capacity_ / 8; }

  EpollExecutor* ex_;
  std::size_t capacity_;
  std::mutex m_;
  bool closed_ = false;
  /// Grows on the first buffered value, not at construction.
  common::RingBuffer<T> buffer_;
  MtWaitList recv_waiters_;
  MtWaitList send_waiters_;
};

}  // namespace zipper::core::exec
