#include "core/exec/epoll.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

namespace zipper::core::exec {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

sim::Time EpollExecutor::raw_now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<sim::Time>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

EpollExecutor::EpollExecutor() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw_errno("epoll_create1");
  timerfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timerfd_ < 0) throw_errno("timerfd_create");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = timerfd_;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, timerfd_, &ev) < 0) {
    throw_errno("epoll_ctl(timerfd)");
  }
  t0_ = raw_now();
}

EpollExecutor::~EpollExecutor() {
  // Destroy leftover root frames (suspended coroutines abandoned by an
  // exception or an early teardown). Parked waitlist entries in channels and
  // fd records reference these frames but are never resumed again; frame
  // destruction recursively frees nested child frames via their awaiters.
  for (auto h : roots_) h.destroy();
  roots_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (timerfd_ >= 0) ::close(timerfd_);
  if (epfd_ >= 0) ::close(epfd_);
}

void EpollExecutor::spawn(sim::Task t) {
  sim::Task::Handle h = t.release();
  if (!h) return;
  roots_.push_back(h);
  schedule(h);
}

void EpollExecutor::enable_post() {
  if (wake_fd_ >= 0) return;
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(wake eventfd)");
  }
}

void EpollExecutor::post(std::coroutine_handle<> h) {
  if (in_loop()) {
    schedule(h);
    return;
  }
  assert(wake_fd_ >= 0 && "post() from another thread needs enable_post()");
  {
    std::lock_guard lk(post_m_);
    posted_queue_.push_back(h);
  }
  posted_.store(true);
  if (parked_.load() && !wake_sent_.exchange(true)) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
  }
}

void EpollExecutor::take_posted() {
  if (!posted_.load(std::memory_order_relaxed)) return;
  // Cleared before the swap: a post that lands after it raises the flag
  // again, so nothing is left behind unflagged.
  posted_.store(false);
  {
    std::lock_guard lk(post_m_);
    posted_taken_.swap(posted_queue_);
  }
  for (std::coroutine_handle<> h : posted_taken_) schedule(h);
  posted_taken_.clear();
}

void EpollExecutor::arm_io(IoAwaiter* aw, std::coroutine_handle<> h) {
  FdWait& w = fd_waits_.try_emplace(aw->fd).first->second;
  const std::uint32_t want =
      w.events | (aw->write ? EPOLLOUT : EPOLLIN | EPOLLRDHUP);
  if (want != w.events) set_interest(aw->fd, w, want);
  if (aw->write) {
    assert(!w.writer && "two coroutines awaiting writability of one fd");
    w.writer = aw;
    w.writer_h = h;
  } else {
    assert(!w.reader && "two coroutines awaiting readability of one fd");
    w.reader = aw;
    w.reader_h = h;
  }
  ++fd_waiters_;
}

void EpollExecutor::set_interest(int fd, FdWait& w, std::uint32_t events) {
  ++counters_.epoll_ctl;
  if (events == 0) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    fd_waits_.erase(fd);
    return;
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, w.events ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev) <
      0) {
    if (w.events == 0) fd_waits_.erase(fd);
    throw_errno("epoll_ctl");
  }
  w.events = events;
}

void EpollExecutor::dispatch_fd(int fd, std::uint32_t events) {
  auto it = fd_waits_.find(fd);
  if (it == fd_waits_.end()) return;
  FdWait& w = it->second;
  // Errors and hangups wake both directions: the parked coroutine retries
  // its non-blocking syscall and observes the failure itself. A woken
  // direction stays registered for the waiter's next park; one that fired
  // with nobody waiting is dropped, or level-triggered epoll would report
  // it again on every turn.
  const bool err = events & (EPOLLERR | EPOLLHUP);
  std::uint32_t keep = w.events;
  if (err || (events & (EPOLLIN | EPOLLRDHUP))) {
    if (w.reader) {
      schedule(w.reader_h);
      w.reader = nullptr;
      w.reader_h = {};
      --fd_waiters_;
    } else {
      keep &= ~(EPOLLIN | EPOLLRDHUP);
    }
  }
  if (err || (events & EPOLLOUT)) {
    if (w.writer) {
      schedule(w.writer_h);
      w.writer = nullptr;
      w.writer_h = {};
      --fd_waiters_;
    } else {
      keep &= ~EPOLLOUT;
    }
  }
  if (keep != w.events) set_interest(fd, w, keep);
}

void EpollExecutor::cancel_fd(int fd) {
  auto it = fd_waits_.find(fd);
  if (it == fd_waits_.end()) return;
  FdWait& w = it->second;
  if (w.reader) {
    w.reader->ok = false;
    schedule(w.reader_h);
    --fd_waiters_;
  }
  if (w.writer) {
    w.writer->ok = false;
    schedule(w.writer_h);
    --fd_waiters_;
  }
  set_interest(fd, w, 0);
}

void EpollExecutor::push_timer(sim::Time deadline, std::coroutine_handle<> h) {
  timers_.push_back(TimerEntry{deadline, timer_seq_++, h});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
}

bool EpollExecutor::wake_early(std::coroutine_handle<> h) {
  for (TimerEntry& e : timers_) {
    if (e.h != h) continue;
    e.h = nullptr;  // same key, so the heap order holds
    schedule(h);
    return true;
  }
  return false;
}

void EpollExecutor::expire_timers() {
  const sim::Time t = now();
  while (!timers_.empty() && timers_.front().deadline <= t) {
    if (timers_.front().h) schedule(timers_.front().h);
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
    timers_.pop_back();
  }
}

void EpollExecutor::sweep_finished_roots() {
  std::size_t kept = 0;
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    sim::Task::Handle h = roots_[i];
    if (!h.done()) {
      roots_[kept++] = h;
      continue;
    }
    if (!first_error && h.promise().exception) {
      first_error = h.promise().exception;
    }
    h.destroy();
  }
  roots_.resize(kept);
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t EpollExecutor::drain_ready() {
  // One bounded pass: resumes scheduled during it (wake chains) run in the
  // same pass until the cap, and a yield() re-enqueues behind them — FIFO
  // fairness. With more coroutines ready than the cap, the pass runs each of
  // them once before epoll is polled again.
  const std::size_t budget = std::max(kResumesPerPass, ready_.size());
  std::size_t n = 0;
  for (; n < budget && !ready_.empty(); ++n) {
    ready_.take_front().resume();
  }
  return n;
}

void EpollExecutor::arm_timer() {
  // Timer deadlines are absolute CLOCK_MONOTONIC via TFD_TIMER_ABSTIME, so
  // ns-granular sleeps don't round through epoll_wait's millisecond timeout.
  const sim::Time want = timers_.empty() ? -1 : timers_.front().deadline;
  if (want == armed_deadline_) return;
  itimerspec its{};
  if (want >= 0) {
    const sim::Time abs = want + t0_;
    its.it_value.tv_sec = abs / 1'000'000'000;
    its.it_value.tv_nsec = abs % 1'000'000'000;
    // A deadline of exactly 0 would disarm; bump to the smallest future.
    if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) {
      its.it_value.tv_nsec = 1;
    }
  }
  ++counters_.timerfd_settime;
  if (::timerfd_settime(timerfd_, TFD_TIMER_ABSTIME, &its, nullptr) < 0) {
    throw_errno("timerfd_settime");
  }
  armed_deadline_ = want;
}

void EpollExecutor::run() {
  constexpr int kMaxEvents = 128;
  epoll_event evs[kMaxEvents];
  std::size_t unswept = 0;  // resumes since the last sweep
  const EpollExecutor* outer = std::exchange(running_, this);
  struct Restore {
    const EpollExecutor* outer;
    ~Restore() { running_ = outer; }
  } restore{outer};
  while (true) {
    if (wake_fd_ >= 0) take_posted();
    unswept += drain_ready();
    // A sweep walks every root. Before the loop blocks it always runs; while
    // ready work remains it runs once per as many resumes as there are roots,
    // which keeps its cost per resume constant with thousands of sessions
    // and finished roots at most as many as live ones.
    if (ready_.empty() || unswept >= roots_.size()) {
      sweep_finished_roots();
      unswept = 0;
      if (roots_.empty()) return;
    }

    // Poll epoll without blocking while ready work remains; otherwise park
    // until an fd or the nearest timer fires.
    bool more = !ready_.empty();
    if (!more && timers_.empty() && fd_waiters_ == 0 && wake_fd_ < 0) {
      throw std::runtime_error(
          "EpollExecutor: deadlock — " + std::to_string(roots_.size()) +
          " root coroutine(s) parked with no timer or fd to wake them");
    }
    arm_timer();

    if (!more && wake_fd_ >= 0) {
      parked_.store(true);
      more = posted_.load();  // a post raced the decision to block
    }
    int n = ::epoll_wait(epfd_, evs, kMaxEvents, more ? 0 : -1);
    if (wake_fd_ >= 0) parked_.store(false, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == wake_fd_) {
        std::uint64_t count = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &count, sizeof(count));
        wake_sent_.store(false);
        continue;
      }
      if (evs[i].data.fd == timerfd_) {
        std::uint64_t ticks = 0;
        [[maybe_unused]] ssize_t r =
            ::read(timerfd_, &ticks, sizeof(ticks));  // value unused
        armed_deadline_ = -1;  // an expired timerfd holds no deadline
        continue;
      }
      dispatch_fd(evs[i].data.fd, evs[i].events);
    }
    expire_timers();
  }
}

}  // namespace zipper::core::exec
