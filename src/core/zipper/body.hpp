// The Zipper application body, written exactly once.
//
// Everything the paper calls "the runtime" — the producer put path, the
// sender with its resilience ladder (timeout -> retry/backoff -> degrade to
// spill), the writer-thread work stealing of Algorithm 1, the mixed-message
// receiver, the spill reader, Preserve-mode output, consumer-side work
// stealing, and the online AdaptiveController loop — lives in this one
// class template, parameterized only by an executor binding (core/exec).
//
//   ZipperBody<VtBinding>  runs on the deterministic DES kernel, one
//                          instance per pipeline edge owned by
//                          workflow::PipelineCoupling (the golden figure
//                          digests pin its event schedule byte-for-byte);
//   ZipperBody<RtBinding>  runs its services as coroutines on one
//                          EpollExecutor loop, with thread-safe channels the
//                          application's threads block on, real spill files
//                          and a monotonic clock;
//   ZipperBody<NetBinding> runs on the same loop over real sockets (zipperd).
//
// core/sched and core/chaos are consulted from here and only here; the
// code that builds an instance (PipelineCoupling, rt::Runtime, the zipperd
// session layer) contains no policy.
//
// The template is explicitly instantiated in body.cpp — the single
// translation unit both executors consult (the binding headers declare the
// instantiations extern).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/ring_buffer.hpp"
#include "core/block.hpp"
#include "core/chaos/chaos.hpp"
#include "core/exec/exec.hpp"
#include "core/policy.hpp"
#include "core/sched/sched.hpp"
#include "sim/time.hpp"
#include "trace/recorder.hpp"

namespace zipper::core::zbody {

/// The wire tags of the mixed-message protocol (virtual-time transport).
inline constexpr int kZipperTag = 7000;
inline constexpr int kZipperAckTag = 7001;

/// Executor-independent knobs, declared once for every executor. Transport
/// costs (the virtual-time rates and credit window) and directories are
/// binding-environment concerns: VtConfig extends this struct with them, the
/// real-time bindings take theirs in LoopEnvConfig.
struct BodyConfig {
  std::uint64_t block_bytes = 1 << 20;
  int producer_buffer_blocks = 32;
  /// Spill threshold (fraction of the producer buffer) and the dual channel's
  /// on/off switch, whichever SpillPolicy `sched` selects.
  double high_water = 0.5;
  bool enable_steal = true;  // concurrent message+file transfer optimization
  bool preserve = false;
  int consumer_buffer_blocks = 256;
  /// Routing, spill rule, block sizing and consumer-side stealing; the
  /// defaults reproduce the paper's schedule decision for decision.
  sched::SchedConfig sched;

  /// Chaos oracle; consulted only from this body. Consumer-side service times
  /// scale by its straggler/fault multipliers, and a put routed to a consumer
  /// inside a fault window times out, backs off exponentially from
  /// put_retry_backoff up to max_put_retries times, then degrades the block
  /// to the file channel. Null by default: the schedule is unchanged.
  std::shared_ptr<const chaos::ChaosEngine> chaos;
  int max_put_retries = 3;
  sim::Time put_retry_backoff = 20 * sim::kMillisecond;

  /// Online re-tuning: every control_interval the body snapshots its
  /// streaming counters and applies the returned knob changes live. A
  /// controller switches end-of-stream bookkeeping to the unpinned protocol,
  /// so the route may change mid-run.
  std::function<chaos::ControlAction(const chaos::ControlSnapshot&)> controller;
  sim::Time control_interval = 250 * sim::kMillisecond;

  /// Test/diagnostic hooks, called synchronously (in deterministic DES order
  /// under virtual time): right before consumer c analyzes a block, stolen
  /// ones included, and right after the analysis finished (the point where
  /// a downstream pipeline stage may pick the result up).
  std::function<void(int c, const BlockHeader&)> on_analyzed;
  std::function<void(int c, const BlockHeader&)> on_output;
};

/// Where one body instance sits. Whoever builds the instance derives these
/// from its layout; they are never user knobs.
struct Placement {
  int producers = 1;
  int consumers = 1;
  /// Trace/world rank of producer 0 and consumer 0.
  int first_producer_rank = 0;
  int first_consumer_rank = 0;
  /// Bytes one producer emits per workload step (drives the step-put split;
  /// 0 where the application chooses its own write() sizes).
  std::uint64_t step_bytes = 0;
  /// The producers run a controller in another process (a net daemon's
  /// body): end-of-stream bookkeeping uses the unpinned protocol a local
  /// controller would, so every consumer hears from every producer.
  bool peer_live_control = false;
};

/// One block inside the body: its self-describing header plus whatever the
/// binding attaches (nothing under virtual time, the real bytes under
/// threads).
template <class B>
struct Item {
  BlockHeader h;
  typename B::Payload payload;
};

/// The paper's mixed message: at most one data block plus the IDs of blocks
/// the writer spilled to the file system, or an end-of-stream marker.
template <class B>
struct Mixed {
  bool has_block = false;
  Item<B> item;
  std::vector<BlockHeader> ids_on_disk;
  bool done = false;
  int producer = -1;  // producer trace/world rank (ack destination)
};

namespace detail {

/// Aggregate counters as relaxed atomics: under RtBinding both the loop and
/// the application threads update them; under virtual time the
/// single-threaded event loop touches them in deterministic order.
struct AtomicAggregate {
  std::atomic<sim::Time> producer_stall{0}, sender_busy{0}, writer_busy{0},
      analysis_busy{0}, store_busy{0};
  std::atomic<std::uint64_t> blocks_total{0}, blocks_stolen{0},
      blocks_consumer_stolen{0}, blocks_analyzed{0}, bytes_via_network{0},
      bytes_via_pfs{0}, put_retries{0}, blocks_spilled_slow{0},
      control_actions{0};

  exec::AggregateStats snapshot() const {
    const auto r = std::memory_order_relaxed;
    exec::AggregateStats out;
    out.producer_stall = producer_stall.load(r);
    out.sender_busy = sender_busy.load(r);
    out.writer_busy = writer_busy.load(r);
    out.analysis_busy = analysis_busy.load(r);
    out.store_busy = store_busy.load(r);
    out.blocks_total = blocks_total.load(r);
    out.blocks_stolen = blocks_stolen.load(r);
    out.blocks_consumer_stolen = blocks_consumer_stolen.load(r);
    out.blocks_analyzed = blocks_analyzed.load(r);
    out.bytes_via_network = bytes_via_network.load(r);
    out.bytes_via_pfs = bytes_via_pfs.load(r);
    out.put_retries = put_retries.load(r);
    out.blocks_spilled_slow = blocks_spilled_slow.load(r);
    out.control_actions = control_actions.load(r);
    return out;
  }
};

struct AtomicRankStats {
  std::atomic<std::uint64_t> blocks_written{0}, blocks_sent{0},
      blocks_stolen{0}, stall_ns{0}, blocks_from_network{0},
      blocks_from_disk{0}, blocks_read{0}, blocks_preserved{0},
      blocks_stolen_from_peers{0}, wait_ns{0};

  exec::RankStats snapshot() const {
    const auto r = std::memory_order_relaxed;
    exec::RankStats s;
    s.blocks_written = blocks_written.load(r);
    s.blocks_sent = blocks_sent.load(r);
    s.blocks_stolen = blocks_stolen.load(r);
    s.stall_ns = stall_ns.load(r);
    s.blocks_from_network = blocks_from_network.load(r);
    s.blocks_from_disk = blocks_from_disk.load(r);
    s.blocks_read = blocks_read.load(r);
    s.blocks_preserved = blocks_preserved.load(r);
    s.blocks_stolen_from_peers = blocks_stolen_from_peers.load(r);
    s.wait_ns = wait_ns.load(r);
    return s;
  }
};

}  // namespace detail

template <class B>
class ZipperBody {
 public:
  using Task = typename B::Task;
  using Time = typename B::Time;
  using Env = typename B::Env;
  using ItemT = Item<B>;
  using MixedT = Mixed<B>;

  ZipperBody(Env& env, BodyConfig cfg, const Placement& at);
  ~ZipperBody();
  ZipperBody(const ZipperBody&) = delete;
  ZipperBody& operator=(const ZipperBody&) = delete;

  // -- service spawning (the owner decides when) ----------------------------
  void spawn_producer_services(int p);
  void spawn_consumer_services(int c);
  void spawn_control();

  // -- producer side --------------------------------------------------------
  /// Pushes one prepared block into producer p's buffer: stall accounting,
  /// push, writer wake (Zipper.write's tail on both executors).
  Task put_header(int p, ItemT it);
  /// Whole-step put: consults the BlockSizer once, splits, pushes.
  Task producer_put(int p, int step);
  /// Fine-grain put of a single block of a step (block-granular workloads,
  /// where production interleaves with compute). With num_blocks ==
  /// blocks_per_step() the step splits into config-sized blocks with the
  /// remainder in the last one; any other count splits the step's bytes
  /// evenly across num_blocks blocks.
  Task producer_put_block(int p, int step, int block, int num_blocks);
  /// End-of-stream: the sender drains, joins the writer, flushes done msgs.
  Task producer_finalize(int p);
  /// Completes once producer p's sender has flushed its done messages.
  Task wait_sender_done(int p);
  /// The BlockSizer's advice for the next put granularity.
  std::uint64_t suggested_block_bytes(int p);

  // -- consumer side --------------------------------------------------------
  /// Acquires the next block for consumer c (own buffer, steal, or drain),
  /// runs the pre-analysis protocol (outstanding-count, hooks, Preserve
  /// enqueue). Leaves `out` empty at end-of-stream.
  Task consumer_next(int c, std::optional<ItemT>& out);
  /// Full consumer process: services + acquire/analyze loop (the virtual
  /// time driver; the threaded facade pulls consumer_next from read()).
  Task consumer_run(int c);
  /// Closes consumer c's Preserve queue (threaded end-of-stream path).
  void close_consumer_output(int c);
  /// Completes when consumer c's receiver/reader/output services finished.
  Task wait_consumer_services(int c);
  /// End-of-stream messages consumer c's receiver waits for.
  int expected_end_markers(int c) const;

  // -- shutdown (threaded facade) -------------------------------------------
  /// Unblocks every consumer-side stage (emergency teardown).
  void emergency_close_consumers();
  /// Completes once control_main returned (after the env's stop_control()).
  Task wait_control_done();

  // -- observability --------------------------------------------------------
  exec::AggregateStats aggregate() const { return agg_.snapshot(); }
  exec::RankStats producer_stats(int p) const {
    return prank_stats_[static_cast<std::size_t>(p)].snapshot();
  }
  exec::RankStats consumer_stats(int c) const {
    return crank_stats_[static_cast<std::size_t>(c)].snapshot();
  }
  int blocks_per_step() const noexcept { return blocks_per_step_; }
  int producers() const noexcept { return at_.producers; }
  int consumers() const noexcept { return at_.consumers; }

 private:
  struct Producer;
  struct Consumer;

  Task sender_main(int p);
  Task writer_main(int p);
  Task spill_slow(int p, ItemT it, int c);
  Task receiver_main(int c);
  Task reader_main(int c);
  Task output_main(int c);
  Task control_main();
  Task apply_action(chaos::ControlAction act);

  std::optional<std::pair<ItemT, int>> try_steal(int thief);
  bool all_consumer_buffers_drained() const;

  /// Routing under live control re-reads the (atomic) route kind; without a
  /// controller the decision is the construction-time policy, unchanged.
  int route_for(const BlockId& id) const;
  bool consumer_stealing() const noexcept {
    return consumer_steal_.load(std::memory_order_relaxed);
  }

  int producer_rank(int p) const noexcept { return at_.first_producer_rank + p; }
  int consumer_rank(int c) const noexcept { return at_.first_consumer_rank + c; }

  static std::vector<BlockHeader> take_spilled(Producer& pm, int c);
  static void add_spilled(Producer& pm, int c, const BlockHeader& h);

  Env* env_;
  BodyConfig cfg_;
  Placement at_;
  int blocks_per_step_;
  sched::SchedContext ctx_;
  sched::RoutePolicy route_;
  std::vector<std::unique_ptr<Producer>> producers_;
  std::vector<std::unique_ptr<Consumer>> consumers_;
  detail::AtomicAggregate agg_;
  std::unique_ptr<detail::AtomicRankStats[]> prank_stats_;
  std::unique_ptr<detail::AtomicRankStats[]> crank_stats_;
  // Live re-tuning state (all inert without a controller).
  bool live_control_ = false;
  std::atomic<bool> spill_on_{true};
  std::atomic<bool> consumer_steal_{false};
  std::atomic<std::uint64_t> live_block_bytes_{0};
  std::atomic<sched::RouteKind> route_kind_;
  typename B::Latch control_done_;  // counted down as control_main returns
};

}  // namespace zipper::core::zbody
