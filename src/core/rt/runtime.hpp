// The Zipper runtime — real multi-threaded implementation.
//
// This is the embeddable library form of the paper's contribution: it couples
// a group of producer endpoints (simulation threads/ranks) with a group of
// consumer endpoints (analysis threads/ranks), below the application layer:
//
//   producer side (per endpoint, Fig 8):   consumer side (per endpoint, Fig 9):
//     producer buffer                         receiver coroutine
//     sender coroutine --(mixed messages)-->  consumer buffer
//     writer coroutine --(spill files)---->   reader coroutine
//                                             output coroutine (Preserve mode)
//
// Since the coroutine-native unification this is a thin facade: the
// application logic lives in core/zipper/ZipperBody — the same body the
// discrete-event runtime instantiates — bound here through RtEnv to one
// core/exec EpollExecutor loop on a thread of its own. Every service above
// is a coroutine on that loop; the application's threads call write() and
// read() and block only on a full or empty buffer (core/exec/mt_sync.hpp), so
// a Runtime adds one thread, plus two I/O threads for spill and Preserve
// files once the first file operation runs. The "low-latency HPC network"
// is an in-process message channel (optionally throttled to a configurable
// bandwidth so the dual-channel behaviour can be observed on one machine),
// and the "parallel file system" is a spill directory on the real file
// system. Mixed messages carry one data block plus the IDs of blocks the
// writer spilled to disk, exactly as in the paper; the consumer's reader
// fetches those from the spill directory.
//
// API (paper §4.1):  producer(i).write(id, data, bytes)  /  consumer(j).read().
//
// Modes: kPreserve keeps every block on disk under `preserve_dir` (a block is
// freed only once analyzed *and* persisted — enforced by shared ownership);
// kNoPreserve deletes spill files after consumption.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/block.hpp"
#include "core/chaos/chaos.hpp"
#include "core/exec/exec.hpp"
#include "core/sched/sched.hpp"
#include "sim/time.hpp"
#include "trace/recorder.hpp"

namespace zipper::core::zbody {
struct RtBinding;
class RtEnv;
template <class B>
class ZipperBody;
}  // namespace zipper::core::zbody

namespace zipper::core::rt {

enum class Mode { kNoPreserve, kPreserve };

struct Config {
  std::size_t producer_buffer_blocks = 16;
  double high_water = 0.5;
  bool enable_steal = true;  // dual-channel (message + file) transfer
  Mode mode = Mode::kNoPreserve;
  /// Stands in for the parallel file system. Empty: a directory of this
  /// Runtime's own under the system temp dir, removed with the Runtime.
  std::filesystem::path spill_dir;
  /// Preserve-mode output location. Empty: a directory of this Runtime's own
  /// under the system temp dir (config() names it), kept after the Runtime.
  std::filesystem::path preserve_dir;
  /// Simulated network bandwidth in bytes/s shared by all sender threads;
  /// 0 = unthrottled. Lets single-machine demos reproduce producer stalls.
  double network_bandwidth = 0.0;
  std::size_t net_channel_blocks = 64;       // per-consumer in-flight bound
  std::size_t consumer_buffer_blocks = 256;  // per-consumer buffered blocks

  /// Scheduling-policy selection (routing, spill rule, consumer stealing).
  /// Defaults reproduce the original hard-coded schedule exactly.
  sched::SchedConfig sched;
  /// Advisory base block size for suggested_block_bytes() (the application
  /// chooses its own write() sizes; the BlockSizer adapts around this).
  std::uint64_t block_bytes = 1 << 20;

  /// Chaos injection (core/chaos): when chaos.any(), the runtime builds a
  /// seeded ChaosEngine over `chaos_horizon_s` of wall time. Consumers hit
  /// by the straggler/fault axes serve each received block
  /// `chaos_block_service_ns x (slowdown - 1)` slower (a timer on the
  /// runtime's loop); drift is app-driven via Runtime::chaos(). Defaults
  /// leave the schedule untouched.
  chaos::ChaosSpec chaos;
  std::uint64_t chaos_block_service_ns = 0;  // base per-block service time
  double chaos_horizon_s = 10.0;             // fault windows spread over this

  /// Resilience ladder for puts routed to a faulted consumer: exponential
  /// backoff starting at put_retry_backoff, up to max_put_retries attempts,
  /// then degrade the block to the spill channel.
  int max_put_retries = 3;
  sim::Time put_retry_backoff = 20 * sim::kMillisecond;

  /// Optional real-span trace sink: the shared body records genuine
  /// [t0, t1] spans (stall/transfer/steal/read/analysis/store) on the
  /// executor's monotonic clock — producers get trace ranks 0..P-1,
  /// consumers P..P+Q-1. Must outlive the Runtime. Null = no tracing.
  trace::Recorder* recorder = nullptr;

  /// Online re-tuning: when set, a control coroutine snapshots the streaming
  /// counters every control_interval (wall time) and applies the returned
  /// knob changes live — the same AdaptiveController contract the
  /// discrete-event runtime honours.
  std::function<chaos::ControlAction(const chaos::ControlSnapshot&)> controller;
  sim::Time control_interval = 250 * sim::kMillisecond;
};

/// Per-endpoint counters — the unified exec-layer struct shared with the
/// discrete-event runtime (producer endpoints populate the producer-side
/// fields, consumer endpoints the consumer-side ones).
using ProducerStats = exec::RankStats;
using ConsumerStats = exec::RankStats;

class Runtime;

/// Producer-side endpoint: one per simulation thread/rank.
class ProducerEndpoint {
 public:
  ProducerEndpoint() = default;

  /// Zipper.write(block_id, data, block_size): copies `data` into the
  /// producer buffer; may stall while the buffer is full.
  void write(BlockId id, std::span<const std::byte> data,
             std::uint64_t offset = 0);
  /// Signals end-of-stream for this producer; drains its sender and writer
  /// services, then flushes the end-of-stream control message.
  void finish();

  /// The BlockSizer's advice for the next write() granularity, fed this
  /// producer's observed stall: the configured base size under kFixed,
  /// stall-adaptive under kAdaptive. Call once per step.
  std::uint64_t suggested_block_bytes();

  ProducerStats stats() const;

 private:
  friend class Runtime;
  Runtime* rt_ = nullptr;
  int index_ = -1;
  bool finished_ = false;
};

/// Consumer-side endpoint: one per analysis thread/rank.
class ConsumerEndpoint {
 public:
  ConsumerEndpoint() = default;

  /// Zipper.read(): the next available block (dataflow-driven, any order),
  /// or nullptr once the stream ended. Blocks while nothing is available
  /// yet. With sched.consumer_steal enabled, an idle consumer pulls whole
  /// ready blocks from the deepest-queued peer, and its stream ends only
  /// once *every* consumer's buffer has drained.
  std::shared_ptr<const Block> read();

  ConsumerStats stats() const;

 private:
  friend class Runtime;
  Runtime* rt_ = nullptr;
  int index_ = -1;
  bool ended_ = false;
};

class Runtime {
 public:
  Runtime(int num_producers, int num_consumers, Config config);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  ProducerEndpoint& producer(int i) { return producers_[static_cast<std::size_t>(i)]; }
  ConsumerEndpoint& consumer(int i) { return consumers_[static_cast<std::size_t>(i)]; }
  int num_producers() const noexcept { return static_cast<int>(producers_.size()); }
  int num_consumers() const noexcept { return static_cast<int>(consumers_.size()); }
  const Config& config() const noexcept { return config_; }

  /// Blocks until all producers finished and all consumers drained.
  void wait_idle();

  /// The chaos oracle driving this runtime's injection, or null when
  /// config.chaos is empty. Applications use it for the drift axis
  /// (compute_multiplier) so workload and runtime share one seeded engine.
  const chaos::ChaosEngine* chaos() const noexcept;

 private:
  friend class ProducerEndpoint;
  friend class ConsumerEndpoint;

  Config config_;
  bool owns_spill_dir_ = false;  // named by the runtime, removed with it
  std::shared_ptr<const chaos::ChaosEngine> chaos_;
  std::unique_ptr<zbody::RtEnv> env_;
  std::unique_ptr<zbody::ZipperBody<zbody::RtBinding>> body_;
  std::vector<ProducerEndpoint> producers_;
  std::vector<ConsumerEndpoint> consumers_;
};

}  // namespace zipper::core::rt
