// Outside-in measurement for the benchmark: process counters read from /proc
// and getrusage, an allocation counter (global operator new) and syscall
// counters (link-time --wrap shims) that the benchmark process shares with
// the daemon it forks, CPU pinning, and the run's metric report and spans.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

// --------------------------------------------------------------- counters --

/// Slot 0 counts the benchmark process, slot 1 the forked daemon.
enum Slot { kSelf = 0, kDaemon = 1 };

/// Maps the shared counter page; call once, before any fork.
void counters_init();
/// In a forked daemon child: count into kDaemon from now on.
void count_as_daemon();
/// Counting is off by default, so untraced runs pay one relaxed load per
/// allocation or syscall. The flag is shared with the daemon.
void set_counting(bool on);
std::uint64_t allocs(Slot s);
std::uint64_t syscalls(Slot s);

// ------------------------------------------------------------------ /proc --

std::int64_t now_ns();                // CLOCK_MONOTONIC
double cpu_seconds(pid_t pid);        // user + system, all threads
std::uint64_t ctx_switches(pid_t pid);  // voluntary + involuntary, all threads
double peak_rss_mb(pid_t pid);        // VmHWM
int thread_count(pid_t pid);          // Threads

std::vector<int> allowed_cpus();
/// sched_setaffinity on another process or thread (0 = caller); false when
/// the kernel refused.
bool pin(pid_t pid, const std::vector<int>& cpus);

// ----------------------------------------------------------------- report --

/// p-th percentile (0..100), interpolating between closest ranks; 0 for an
/// empty sample.
using zipper::common::percentile;
inline double median(std::span<const double> v) { return percentile(v, 50); }

/// One stderr line: count, min, quartiles and max of a within-run sample,
/// to tell within-run noise from run-to-run noise.
void log_sample(const char* what, const std::vector<double>& v);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void put(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  /// Records the first oracle failure; a failed run reports no metrics.
  void fail(const std::string& why);
  /// The JSON object the benchmark prints as its last stdout line.
  std::string json() const;
};

// ------------------------------------------------------------------ spans --

/// In-memory spans around each call the benchmark makes into a layer, kept in
/// the repository's trace::Recorder and written once at exit as Chrome-trace
/// JSON. A Recorder is not thread-safe, so each thread takes its own row.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(now_ns()) {}
  bool on() const noexcept { return on_; }
  /// A fresh recorder for `layer` (one Chrome-trace process); nullptr when
  /// tracing is off. Take rows before starting the threads that use them.
  zipper::trace::Recorder* row(const std::string& layer);
  std::int64_t epoch() const noexcept { return epoch_; }
  bool write(const std::string& path) const;

 private:
  bool on_;
  std::int64_t epoch_;
  std::deque<std::pair<std::string, zipper::trace::Recorder>> rows_;
};

/// RAII span on a Tracer row; a no-op on a null row.
class Span {
 public:
  Span(zipper::trace::Recorder* rec, const Tracer& t, int rank,
       zipper::trace::Cat cat)
      : rec_(rec), epoch_(t.epoch()), rank_(rank), cat_(cat),
        t0_(rec ? now_ns() : 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (rec_) rec_->record(rank_, cat_, t0_ - epoch_, now_ns() - epoch_);
  }

 private:
  zipper::trace::Recorder* rec_;
  std::int64_t epoch_;
  int rank_;
  zipper::trace::Cat cat_;
  std::int64_t t0_;
};

// ------------------------------------------------------------ invocation --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  // spill files and the trace JSON
  std::string golden = "tools/golden_quick.sha256";
};

}  // namespace perfbench
