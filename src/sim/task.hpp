// Coroutine task type for simulated processes.
//
// A `Task` is an eager-free (initially suspended) coroutine. There are two
// ways to run one:
//   * `co_await child_task()` from another Task: runs the child inline, on the
//     parent's stack. A child that finishes without suspending lets the parent
//     continue without suspending either (await_suspend returns false), so a
//     loop over such children uses constant stack whether or not the compiler
//     turns symmetric transfer into a tail call (it does not at -O0 or under
//     ASan). A child that suspends suspends the parent too, and resumes it
//     through symmetric transfer when it finishes. The awaiting expression
//     owns the child frame.
//   * `Simulation::spawn(std::move(task))`: detaches the task as a root
//     simulated process; the Simulation owns the frame and schedules its first
//     resume at the current simulated time.
//
// Exceptions thrown inside a Task are captured and re-thrown at the awaiter
// (for child tasks) or out of Simulation::run() (for root tasks).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace zipper::sim {

class Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation;  // resumed when this task finishes
    std::exception_ptr exception;
    // True while the awaiting parent is still inside Awaiter::await_suspend,
    // which resumes this child inline: finishing then must return to that
    // call, not resume the parent a second time. A plain flag suffices
    // because a coroutine is only ever resumed on the thread that runs its
    // event loop (or its run_inline caller), never concurrently with its
    // parent's await_suspend.
    bool started_inline = false;

    Task get_return_object() { return Task{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        const promise_type& p = h.promise();
        if (p.started_inline || !p.continuation) return std::noop_coroutine();
        return p.continuation;
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Task() { destroy(); }

  bool valid() const noexcept { return handle_ != nullptr; }
  bool done() const noexcept { return handle_ && handle_.done(); }
  Handle handle() const noexcept { return handle_; }

  /// Releases ownership of the coroutine frame (used by Simulation::spawn).
  Handle release() noexcept { return std::exchange(handle_, nullptr); }

  /// Awaiting a Task starts it and suspends the awaiter until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle child;
      bool await_ready() const noexcept { return !child || child.done(); }
      /// Runs the child now. Returns false (the parent goes on without
      /// suspending) when it finished; true when it suspended, in which case
      /// its final suspend resumes the parent.
      bool await_suspend(std::coroutine_handle<> parent) noexcept {
        promise_type& p = child.promise();
        p.continuation = parent;
        p.started_inline = true;
        child.resume();
        if (child.done()) return false;
        p.started_inline = false;
        return true;
      }
      void await_resume() const {
        if (child && child.promise().exception) {
          std::rethrow_exception(child.promise().exception);
        }
      }
      ~Awaiter() {
        if (child) child.destroy();
      }
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;
      explicit Awaiter(Handle h) noexcept : child(h) {}
    };
    return Awaiter{release()};
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_;
};

}  // namespace zipper::sim
