#include "probes.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "trace/timeline.hpp"

namespace perfbench {

// --------------------------------------------------------------- counters --

namespace {

struct alignas(64) Cell {
  std::atomic<std::uint64_t> n{0};
};

struct SharedCounters {
  alignas(64) std::atomic<bool> counting{false};
  Cell allocs[2];
  Cell syscalls[2];
};

// Static fallback until counters_init() maps the shared page, so allocations
// during static initialisation have somewhere to go.
SharedCounters g_fallback;
SharedCounters* g_counters = &g_fallback;
int g_slot = kSelf;

inline void count(Cell* cells) noexcept {
  SharedCounters* c = g_counters;
  if (c->counting.load(std::memory_order_relaxed)) {
    cells[g_slot].n.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void count_alloc() noexcept { count(g_counters->allocs); }
inline void count_syscall() noexcept { count(g_counters->syscalls); }

}  // namespace

void counters_init() {
  void* p = ::mmap(nullptr, sizeof(SharedCounters), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return;  // keep the process-private fallback
  g_counters = new (p) SharedCounters();
}

void count_as_daemon() { g_slot = kDaemon; }

void set_counting(bool on) {
  g_counters->counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocs(Slot s) {
  return g_counters->allocs[s].n.load(std::memory_order_relaxed);
}

std::uint64_t syscalls(Slot s) {
  return g_counters->syscalls[s].n.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------------ /proc --

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double cpu_seconds(pid_t pid) {
  clockid_t clk = CLOCK_PROCESS_CPUTIME_ID;
  if (pid != ::getpid() && ::clock_getcpuclockid(pid, &clk) != 0) return 0;
  timespec ts{};
  if (::clock_gettime(clk, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

/// Sum of the named "Key:  value" fields of one /proc status file.
std::uint64_t status_fields(const std::string& path,
                            std::initializer_list<const char*> keys) {
  std::ifstream in(path);
  std::string line;
  std::uint64_t sum = 0;
  while (std::getline(in, line)) {
    for (const char* k : keys) {
      const std::string key = std::string(k) + ":";
      if (line.rfind(key, 0) == 0) {
        sum += std::strtoull(line.c_str() + key.size(), nullptr, 10);
      }
    }
  }
  return sum;
}

}  // namespace

std::uint64_t ctx_switches(pid_t pid) {
  if (pid == ::getpid()) {
    // getrusage keeps the counts of threads that already exited.
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  }
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::uint64_t sum = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      sum += status_fields(dir + "/" + e->d_name + "/status",
                           {"voluntary_ctxt_switches",
                            "nonvoluntary_ctxt_switches"});
    }
    ::closedir(d);
  }
  return sum;
}

double peak_rss_mb(pid_t pid) {
  return static_cast<double>(status_fields(
             "/proc/" + std::to_string(pid) + "/status", {"VmHWM"})) /
         1024.0;
}

int thread_count(pid_t pid) {
  return static_cast<int>(
      status_fields("/proc/" + std::to_string(pid) + "/status", {"Threads"}));
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  return out;
}

bool pin(pid_t pid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(pid, sizeof(set), &set) == 0;
}

// ----------------------------------------------------------------- report --

void log_sample(const char* what, const std::vector<double>& v) {
  if (v.empty()) return;
  std::fprintf(stderr, "perfbench: %s: n=%zu min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n",
               what, v.size(), percentile(v, 0), percentile(v, 25),
               percentile(v, 50), percentile(v, 75), percentile(v, 100));
}

void Result::put(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

bool Result::has(const std::string& name) const {
  return std::any_of(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Result::fail(const std::string& why) {
  if (correct) error = why;
  correct = false;
}

std::string Result::json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  if (correct) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char num[64];
      const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
      std::snprintf(num, sizeof(num), "%.17g", v);
      o << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << num << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
  }
  o << "}}";
  return o.str();
}

// ------------------------------------------------------------------ spans --

zipper::trace::Recorder* Tracer::row(const std::string& layer) {
  if (!on_) return nullptr;
  rows_.emplace_back(layer, zipper::trace::Recorder(true));
  return &rows_.back().second;
}

bool Tracer::write(const std::string& path) const {
  zipper::trace::ChromeTrace chrome;
  int pid = 0;
  for (const auto& [name, rec] : rows_) chrome.add_process(pid++, name, rec);
  std::ofstream out(path);
  out << chrome.json();
  return static_cast<bool>(out);
}

}  // namespace perfbench

// ------------------------------------------------- allocation counting ------

void* operator new(std::size_t n) {
  perfbench::count_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  perfbench::count_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t al) {
  perfbench::count_alloc();
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (::posix_memalign(&p, a, n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ------------------------------------------------------ syscall counting ----
// Linked with -Wl,--wrap=<fn> (CMakeLists.txt): every call the library makes
// to these lands here first.

extern "C" {

#define PERFBENCH_WRAP(ret, fn, params, args) \
  ret __real_##fn params;                     \
  ret __wrap_##fn params {                    \
    perfbench::count_syscall();               \
    return __real_##fn args;                  \
  }

PERFBENCH_WRAP(ssize_t, send, (int fd, const void* b, size_t n, int f), (fd, b, n, f))
PERFBENCH_WRAP(ssize_t, recv, (int fd, void* b, size_t n, int f), (fd, b, n, f))
PERFBENCH_WRAP(ssize_t, read, (int fd, void* b, size_t n), (fd, b, n))
PERFBENCH_WRAP(ssize_t, write, (int fd, const void* b, size_t n), (fd, b, n))
PERFBENCH_WRAP(ssize_t, readv, (int fd, const struct iovec* v, int n), (fd, v, n))
PERFBENCH_WRAP(ssize_t, writev, (int fd, const struct iovec* v, int n), (fd, v, n))
PERFBENCH_WRAP(ssize_t, sendmsg, (int fd, const struct msghdr* m, int f), (fd, m, f))
PERFBENCH_WRAP(ssize_t, recvmsg, (int fd, struct msghdr* m, int f), (fd, m, f))
PERFBENCH_WRAP(int, accept, (int fd, struct sockaddr* a, socklen_t* l), (fd, a, l))
PERFBENCH_WRAP(int, accept4, (int fd, struct sockaddr* a, socklen_t* l, int f), (fd, a, l, f))
PERFBENCH_WRAP(int, connect, (int fd, const struct sockaddr* a, socklen_t l), (fd, a, l))
PERFBENCH_WRAP(int, epoll_wait, (int fd, struct epoll_event* e, int n, int t), (fd, e, n, t))
PERFBENCH_WRAP(int, epoll_pwait,
               (int fd, struct epoll_event* e, int n, int t, const sigset_t* s),
               (fd, e, n, t, s))
PERFBENCH_WRAP(int, epoll_ctl, (int fd, int op, int t, struct epoll_event* e), (fd, op, t, e))
PERFBENCH_WRAP(int, timerfd_settime,
               (int fd, int f, const struct itimerspec* n, struct itimerspec* o),
               (fd, f, n, o))
PERFBENCH_WRAP(int, socket, (int d, int t, int p), (d, t, p))
PERFBENCH_WRAP(int, setsockopt, (int fd, int l, int n, const void* v, socklen_t len),
               (fd, l, n, v, len))
PERFBENCH_WRAP(int, getsockopt, (int fd, int l, int n, void* v, socklen_t* len),
               (fd, l, n, v, len))
PERFBENCH_WRAP(int, close, (int fd), (fd))
PERFBENCH_WRAP(int, shutdown, (int fd, int how), (fd, how))

#undef PERFBENCH_WRAP
}
