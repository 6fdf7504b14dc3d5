// sim::Task's await protocol, built at -O0 (see CMakeLists.txt): without
// optimisation the compiler does not turn symmetric transfer into a tail
// call, so a resume chain that relied on one would leave a stack frame behind
// per await and overflow the stack here.
#include <gtest/gtest.h>

#include <coroutine>
#include <stdexcept>
#include <utility>

#include "sim/task.hpp"

using zipper::sim::Task;

namespace {

Task finish_now(int& n) {
  ++n;
  co_return;
}

Task await_many(int turns, int& n) {
  for (int i = 0; i < turns; ++i) co_await finish_now(n);
}

/// Parks its coroutine in `*slot` until the test resumes it by hand.
struct Park {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { *slot = h; }
  void await_resume() const noexcept {}
};

Task park_then_finish(std::coroutine_handle<>& slot, int& n) {
  co_await Park{&slot};
  ++n;
}

Task await_parking(int turns, std::coroutine_handle<>& slot, int& n) {
  for (int i = 0; i < turns; ++i) co_await park_then_finish(slot, n);
}

Task throw_now() {
  throw std::runtime_error("child failed");
  co_return;
}

Task catch_child(bool& caught) {
  try {
    co_await throw_now();
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

}  // namespace

TEST(SimTask, MillionChildrenThatNeverSuspendRunInConstantStack) {
  int n = 0;
  Task t = await_many(1'000'000, n);
  t.handle().resume();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(n, 1'000'000);
}

TEST(SimTask, ChildThatSuspendsResumesItsParentWhenItFinishes) {
  std::coroutine_handle<> slot;
  int n = 0;
  Task t = await_parking(3, slot, n);
  t.handle().resume();
  for (int turn = 0; turn < 3; ++turn) {
    ASSERT_FALSE(t.done());
    ASSERT_TRUE(slot);
    EXPECT_EQ(n, turn);
    std::exchange(slot, {}).resume();
  }
  EXPECT_TRUE(t.done());
  EXPECT_EQ(n, 3);
}

TEST(SimTask, ExceptionFromAChildThatNeverSuspendedReachesTheParent) {
  bool caught = false;
  Task t = catch_child(caught);
  t.handle().resume();
  EXPECT_TRUE(t.done());
  EXPECT_TRUE(caught);
}
