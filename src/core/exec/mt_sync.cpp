#include "core/exec/mt_sync.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <exception>

namespace zipper::core::exec {

namespace {

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));

void futex(std::atomic<std::uint32_t>* word, int op, std::uint32_t val) noexcept {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, val,
            nullptr, nullptr, 0);
}

}  // namespace

void MtWaiter::block() noexcept {
  std::uint32_t s = 0;
  if (!state_.compare_exchange_strong(s, 2, std::memory_order_acquire)) {
    return;  // woken before it slept
  }
  do {
    futex(&state_, FUTEX_WAIT_PRIVATE, 2);
  } while (state_.load(std::memory_order_acquire) == 2);
}

void MtWaiter::wake(EpollExecutor& ex) noexcept {
  if (h) {
    ex.post(h);
    return;
  }
  // Once the exchange lands the thread may return and pop this node off its
  // stack; the futex wake after it only names the address, and a wake on a
  // word nobody sleeps on is a no-op.
  if (state_.exchange(1, std::memory_order_release) == 2) {
    futex(&state_, FUTEX_WAKE_PRIVATE, 1);
  }
}

void run_inline(sim::Task t) {
  sim::Task::Handle h = t.release();
  if (!h) return;
  h.resume();
  assert(h.done() && "run_inline task suspended instead of blocking");
  std::exception_ptr e = h.promise().exception;
  h.destroy();
  if (e) std::rethrow_exception(e);
}

}  // namespace zipper::core::exec
