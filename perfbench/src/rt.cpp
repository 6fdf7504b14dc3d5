// rt_inproc: an embedded rt::Runtime coupling 2 producer threads to 1
// consumer thread with 64 KiB blocks, unthrottled and with stealing off, so
// every block crosses ThreadPoolExecutor/RtBinding's in-process channel.
// Payloads come from a pool generated from the seed; the consumer checks
// each block's checksum and the exactly-once ledger.
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "core/rt/runtime.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace rt = zipper::core::rt;
using zipper::core::BlockId;
using zipper::trace::Cat;

constexpr int kProducers = 2;
constexpr std::size_t kBlockBytes = 64u << 10;
constexpr std::uint64_t kBlocksPerStep = 16;  // 1 MiB steps
constexpr std::size_t kPoolSize = 32;         // 2 MiB of distinct payloads
// Consumer-side timing batch. Shorter batches catch the pipeline in one of
// its modes (buffers full or draining) and their median flips between modes.
constexpr std::int64_t kBatchNs = 500'000'000;
constexpr std::uint64_t kWarmupBlocks = 2048;  // per producer, per set-up

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Pool {
  std::uint64_t seed;
  std::vector<std::vector<std::byte>> bufs;
  std::vector<std::uint64_t> sums;

  explicit Pool(std::uint64_t s) : seed(s) {
    std::uint64_t x = splitmix(s);
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      std::vector<std::byte> b(kBlockBytes);
      for (std::size_t j = 0; j < kBlockBytes; j += 8) {
        x = splitmix(x);
        std::memcpy(b.data() + j, &x, 8);
      }
      sums.push_back(payload_sum(b));
      bufs.push_back(std::move(b));
    }
  }
  std::size_t index(int producer, std::uint64_t seq) const {
    return splitmix(seed ^ (static_cast<std::uint64_t>(producer) << 48) ^ seq) %
           kPoolSize;
  }
};

struct Stream {
  std::vector<std::uint64_t> written;
  std::vector<double> step_ms;      // producer time per 1 MiB step
  std::vector<double> batch_rates;  // consumer blocks/s per batch
  std::vector<double> write_us, read_us;  // per call, traced only
  std::uint64_t stall_ns = 0, wait_ns = 0;
  double wall_s = 0;
  int threads_peak = 0;
  std::uint64_t failed = 0;
  std::string error;
};

/// Streams until `seconds` pass or every producer wrote `max_blocks`.
Stream stream(const Pool& pool, const std::string& spill_dir, double seconds,
              std::uint64_t max_blocks, bool traced, Tracer& t) {
  rt::Config cfg;
  cfg.enable_steal = false;
  cfg.network_bandwidth = 0;
  cfg.mode = rt::Mode::kNoPreserve;
  cfg.spill_dir = spill_dir;
  cfg.block_bytes = kBlockBytes;
  rt::Runtime zipper(kProducers, 1, cfg);

  Stream s;
  s.written.assign(kProducers, 0);
  // Deques grow in small chunks as the run goes; a vector's capacity
  // doublings showed in peak_rss_mb.
  std::vector<std::deque<double>> step_ms(kProducers);
  std::vector<std::vector<double>> write_us(kProducers);
  std::vector<zipper::trace::Recorder*> rows;
  for (int p = 0; p < kProducers; ++p) rows.push_back(t.row("rt.write p" + std::to_string(p)));
  zipper::trace::Recorder* read_row = t.row("rt.read");
  std::atomic<bool> stop{false};
  std::atomic<int> producers_done{0};
  DeliveryLedger ledger(kProducers);
  // An exception must not escape a thread; the first one fails the stream.
  std::mutex error_mu;
  std::string thread_error;
  auto guarded = [&](const char* who, auto&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      const std::lock_guard lock(error_mu);
      if (thread_error.empty()) thread_error = std::string(who) + ": " + e.what();
    }
  };

  const std::int64_t t0 = now_ns();
  std::thread consumer([&] {
    guarded("consumer", [&] {
      std::uint64_t n = 0, batch_n0 = 0;
      std::int64_t batch_t0 = now_ns();
      for (;;) {
        std::shared_ptr<const zipper::core::Block> b;
        {
          const std::int64_t c0 = traced ? now_ns() : 0;
          Span span(n % kBlocksPerStep == 0 ? read_row : nullptr, t, 0, Cat::kGet);
          b = zipper.consumer(0).read();
          if (traced) s.read_us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
        }
        if (!b) break;
        const BlockId& id = b->header.id;
        const std::uint64_t seq =
            static_cast<std::uint64_t>(id.step) * kBlocksPerStep +
            static_cast<std::uint64_t>(id.index);
        const bool ok =
            id.producer >= 0 && id.producer < kProducers &&
            b->payload.size() == kBlockBytes &&
            payload_sum(b->payload) == pool.sums[pool.index(id.producer, seq)];
        ledger.record(id.producer, seq, ok);
        ++n;
        if (n % 64 == 0) {
          const std::int64_t now = now_ns();
          if (now - batch_t0 >= kBatchNs) {
            s.batch_rates.push_back(static_cast<double>(n - batch_n0) * 1e9 /
                                    static_cast<double>(now - batch_t0));
            batch_t0 = now;
            batch_n0 = n;
          }
        }
      }
    });
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto& ep = zipper.producer(p);
      std::uint64_t seq = 0;
      guarded("producer", [&] {
        std::int64_t step_t0 = now_ns();
        while (seq < max_blocks && !stop.load(std::memory_order_relaxed)) {
          const BlockId id{static_cast<std::int32_t>(seq / kBlocksPerStep), p,
                           static_cast<std::int32_t>(seq % kBlocksPerStep)};
          {
            const std::int64_t c0 = traced ? now_ns() : 0;
            Span span(seq % kBlocksPerStep == 0 ? rows[p] : nullptr, t, p, Cat::kPut);
            ep.write(id, pool.bufs[pool.index(p, seq)]);
            if (traced) {
              write_us[p].push_back(static_cast<double>(now_ns() - c0) / 1e3);
            }
          }
          if (++seq % kBlocksPerStep == 0) {
            const std::int64_t now = now_ns();
            step_ms[p].push_back(static_cast<double>(now - step_t0) / 1e6);
            step_t0 = now;
          }
        }
      });
      s.written[static_cast<std::size_t>(p)] = seq;
      producers_done.fetch_add(1);
      guarded("producer finish", [&] { ep.finish(); });
    });
  }
  // The main thread only keeps time and samples the thread count.
  while (now_ns() - t0 < static_cast<std::int64_t>(seconds * 1e9)) {
    if (traced) s.threads_peak = std::max(s.threads_peak, thread_count(::getpid()));
    if (producers_done.load() == kProducers) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(traced ? 5 : 20));
  }
  stop = true;
  for (auto& th : producers) th.join();
  consumer.join();
  s.wall_s = static_cast<double>(now_ns() - t0) / 1e9;

  for (int p = 0; p < kProducers; ++p) {
    s.stall_ns += zipper.producer(p).stats().stall_ns;
    s.step_ms.insert(s.step_ms.end(), step_ms[p].begin(), step_ms[p].end());
    s.write_us.insert(s.write_us.end(), write_us[p].begin(), write_us[p].end());
  }
  s.wait_ns = zipper.consumer(0).stats().wait_ns;
  s.error = thread_error.empty() ? ledger.verify(s.written) : thread_error;
  s.failed = ledger.failed(s.written);
  return s;
}

std::uint64_t total(const std::vector<std::uint64_t>& v) {
  std::uint64_t n = 0;
  for (auto x : v) n += x;
  return n;
}

/// Traced stream: the per-layer numbers of the runtime.
void put_layer(Result& r, const Stream& s, std::uint64_t ctx,
               std::uint64_t nallocs) {
  const double blocks = static_cast<double>(total(s.written));
  r.put("rt.write_us_p50", percentile(s.write_us, 50), "us");
  r.put("rt.read_us_p50", percentile(s.read_us, 50), "us");
  r.put("rt.producer_stall_share",
        static_cast<double>(s.stall_ns) / (kProducers * s.wall_s * 1e9), "share");
  r.put("rt.consumer_wait_share",
        static_cast<double>(s.wait_ns) / (s.wall_s * 1e9), "share");
  r.put("rt.ctx_switches_per_block", static_cast<double>(ctx) / blocks, "count");
  r.put("rt.threads_peak", s.threads_peak, "count");
  r.put("rt.allocs_per_block", static_cast<double>(nallocs) / blocks, "count");
}

Stream traced_stream(const Pool& pool, const std::string& spill, double seconds,
                     Tracer& t, std::uint64_t& ctx, std::uint64_t& nallocs) {
  const std::uint64_t ctx0 = ctx_switches(::getpid());
  const std::uint64_t a0 = allocs(kSelf);
  set_counting(true);
  Stream s = stream(pool, spill, seconds, UINT64_MAX, true, t);
  set_counting(false);
  ctx = ctx_switches(::getpid()) - ctx0;
  nallocs = allocs(kSelf) - a0;
  return s;
}

}  // namespace

Result run_rt_inproc(const Args& a, Tracer& t) {
  Result r;
  const std::string spill = a.work_dir + "/rt_spill";
  const Pool pool(a.seed);
  auto account = [&](const Stream& s) {
    r.attempted += total(s.written);
    r.failed += s.failed;
    if (!s.error.empty()) r.fail(s.error);
  };

  // Set-up: construct a Runtime, stream a warm-up through it, tear it down.
  Tracer quiet(false);
  zipper::trace::Recorder* setup_rec = t.row("setup");
  std::vector<double> setup;
  for (int k = 0; k < kSetups; ++k) {
    Span span(setup_rec, t, 0, Cat::kCompute);
    const std::int64_t t0 = now_ns();
    account(stream(pool, spill, 60, kWarmupBlocks, false, quiet));
    setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  log_sample("setup seconds", setup);

  if (!a.trace) {
    const Stream s = stream(pool, spill, a.seconds, UINT64_MAX, false, quiet);
    account(s);
    log_sample("batch throughput", s.batch_rates);
    r.put("setup_s", median(setup), "s");
    r.put("throughput_per_s", median(s.batch_rates), "1/s");
    r.put("latency_p50_ms", percentile(s.step_ms, 50), "ms");
    r.put("latency_p90_ms", percentile(s.step_ms, 90), "ms");
    r.put("peak_rss_mb", peak_rss_mb(::getpid()), "MB");
  } else {
    const Stream plain = stream(pool, spill, a.seconds / 2, UINT64_MAX, false, quiet);
    account(plain);
    std::uint64_t ctx = 0, nallocs = 0;
    const Stream s = traced_stream(pool, spill, a.seconds / 2, t, ctx, nallocs);
    account(s);
    put_layer(r, s, ctx, nallocs);
    r.put("bench.trace_overhead_share",
          1.0 - median(s.batch_rates) / median(plain.batch_rates), "share");
  }
  std::error_code ec;
  std::filesystem::remove_all(spill, ec);
  return r;
}

void probe_rt(Result& r, const Args& a, Tracer& t) {
  const std::string spill = a.work_dir + "/rt_spill";
  std::uint64_t ctx = 0, nallocs = 0;
  const Stream s = traced_stream(Pool(a.seed), spill, 0.5, t, ctx, nallocs);
  if (!s.error.empty()) r.fail("rt probe: " + s.error);
  put_layer(r, s, ctx, nallocs);
  std::error_code ec;
  std::filesystem::remove_all(spill, ec);
}

}  // namespace perfbench
