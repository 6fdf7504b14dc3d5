// The pluggable scheduling layer of the Zipper runtime.
//
// Every scheduling decision the runtime makes is factored into one of three
// policies, written once here and consulted by the one ZipperBody on every
// executor — extending the "written once, tested once" contract of
// core/policy.hpp from the Algorithm-1 constants to the whole schedule:
//
//   * RoutePolicy  — which consumer analyzes a block. kStatic is the paper's
//     contiguous `consumer_of` map; kRoundRobin spreads a producer's blocks
//     across all consumers; kLeastQueued routes each block to the consumer
//     with the fewest outstanding (routed-but-unanalyzed) blocks.
//   * SpillPolicy  — when the writer thread steals a block to the PFS.
//     kHighWater is Algorithm 1's single threshold; kHysteresis arms above a
//     high-water mark and keeps draining until a low-water mark so the writer
//     works in bursts instead of flapping around one threshold; kAdaptive
//     moves the threshold itself, lowering it whenever the producer's
//     observed stall grows and raising it back after a calm spell.
//   * BlockSizer   — the block size used to split a step. kFixed is the
//     configured size; kAdaptive doubles it (up to a ceiling) when fresh
//     producer stall is observed and halves it back after calm steps: the
//     producer buffer, sender credit window, and consumer buffer are all
//     counted in blocks, so a stalled producer buys itself buffered bytes
//     and fewer protocol round-trips by coarsening the split.
//
// A SchedContext carries the tiny amount of shared runtime state the
// policies consult (per-consumer outstanding-block counts, per-producer
// cumulative stall). Counters are atomics so the threaded runtime can update
// them lock-free; in the single-threaded DES they are touched in a
// deterministic order, preserving the (time, seq) determinism contract.
//
// Default selections (static route, high-water spill, fixed blocks, no
// consumer stealing) reproduce the pre-refactor schedule decision-for-
// decision: with defaults every figure's output is byte-identical.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/block.hpp"
#include "core/policy.hpp"

namespace zipper::core::sched {

enum class RouteKind { kStatic, kRoundRobin, kLeastQueued };
enum class SpillKind { kHighWater, kHysteresis, kAdaptive };
enum class BlockSizeKind { kFixed, kAdaptive };

/// Stable CLI/label tokens: "static", "rr", "lq".
std::string route_token(RouteKind k);
/// Tokens: "hw", "hyst", "adapt".
std::string spill_token(SpillKind k);
/// Tokens: "fixed", "adaptive".
std::string block_size_token(BlockSizeKind k);

/// Inverses of the token functions; also accept the long names
/// ("round-robin", "least-queued", "high-water", "hysteresis", "adaptive").
std::optional<RouteKind> parse_route(const std::string& token);
std::optional<SpillKind> parse_spill(const std::string& token);
std::optional<BlockSizeKind> parse_block_size(const std::string& token);

/// Policy selection plus the knobs the non-default policies need. The
/// high-water fraction and the spill on/off switch live next to it in
/// zbody::BodyConfig (and rt::Config).
struct SchedConfig {
  RouteKind route = RouteKind::kStatic;
  SpillKind spill = SpillKind::kHighWater;
  BlockSizeKind block_size = BlockSizeKind::kFixed;
  /// Consumer-side work stealing: an idle consumer pulls whole ready blocks
  /// from the deepest-queued peer. Off by default (the paper's schedule).
  bool consumer_steal = false;

  double low_water = 0.25;        // kHysteresis: stop draining at this fraction
  int spill_recovery_checks = 8;  // kAdaptive: calm checks before raising the bar
  std::size_t steal_min_queue = 4;       // steal only from peers this deep
  int block_size_max_multiple = 8;       // kAdaptive sizer ceiling, x base size
};

/// Per-body-instance shared state the policies consult. One per ZipperBody,
/// updated at the same protocol points on every executor (route time,
/// analysis time, producer stall).
class SchedContext {
 public:
  SchedContext(int num_producers, int num_consumers);

  int producers() const noexcept { return P_; }
  int consumers() const noexcept { return Q_; }

  /// A block was routed to consumer `c` (network send or spill).
  void on_routed(int c) noexcept;
  /// A block routed to consumer `c` was analyzed (possibly by a thief).
  void on_analyzed(int c) noexcept;
  long long queued(int c) const noexcept;
  /// Consumer with the fewest outstanding blocks; ties to the lowest index.
  int least_queued() const noexcept;

  void add_stall(int p, std::uint64_t ns) noexcept;
  std::uint64_t stall_ns(int p) const noexcept;

  /// Aggregates the online controller snapshots from (sum over producers /
  /// max over consumers). Same atomics the policies read — no extra state.
  std::uint64_t total_stall_ns() const noexcept;
  long long max_queued() const noexcept;

 private:
  int P_, Q_;
  std::vector<std::atomic<long long>> queued_;
  std::vector<std::atomic<std::uint64_t>> stall_;
};

/// Which consumer analyzes a block. Stateless; safe to share across
/// producers and threads.
class RoutePolicy {
 public:
  RoutePolicy(const SchedConfig& cfg, int num_producers, int num_consumers);

  int consumer_for(const BlockId& id, const SchedContext& ctx) const;

  /// True when every block of a producer lands on one consumer (the static
  /// contiguous map with P >= Q) — the property the single-done-message
  /// optimization of the mixed-message protocol relies on.
  bool pinned() const noexcept;
  /// The consumers producer `p` may ever route a block to (end-of-stream
  /// control messages go to each of these).
  std::vector<int> consumers_fed_by(int p) const;
  /// How many producers consumer `c` must see end-of-stream from.
  int expected_producers(int c) const;

  RouteKind kind() const noexcept { return kind_; }

 private:
  RouteKind kind_;
  int P_, Q_;
};

/// When the writer (spill) thread steals a block from the producer buffer.
/// Stateful — construct one per producer. Generalizes StealPolicy, which
/// still carries the capacity / high-water / enabled knobs.
class SpillPolicy {
 public:
  SpillPolicy(const SchedConfig& cfg, StealPolicy base);

  std::size_t capacity() const noexcept { return base_.capacity; }
  bool enabled() const noexcept { return base_.enabled; }

  /// The spill decision. Mutating (hysteresis arm/disarm, adaptive threshold
  /// movement); the writer calls it under the producer-buffer lock.
  bool should_spill(std::size_t buffer_size, std::uint64_t producer_stall_ns);

  /// Non-mutating, conservative wake hint for the producer-side push: may
  /// the writer possibly want to spill at this buffer size? Exact for
  /// kHighWater (so the default wake pattern is unchanged); a superset for
  /// the stateful kinds, whose writer re-checks should_spill() on wake.
  bool wake_writer(std::size_t buffer_size) const;

  SpillKind kind() const noexcept { return kind_; }

 private:
  SpillKind kind_;
  StealPolicy base_;
  std::size_t lo_threshold_;
  std::size_t min_threshold_;
  int recovery_checks_;
  // kHysteresis
  bool draining_ = false;
  // kAdaptive
  std::size_t adaptive_threshold_;
  std::uint64_t stall_seen_ = 0;
  int calm_checks_ = 0;
};

/// The block size used to split a producer's step. Stateful — one per
/// producer; consulted once per step with the producer's cumulative stall.
class BlockSizer {
 public:
  BlockSizer(const SchedConfig& cfg, std::uint64_t base_block_bytes);

  std::uint64_t next_block_bytes(std::uint64_t producer_stall_ns);

  BlockSizeKind kind() const noexcept { return kind_; }

 private:
  BlockSizeKind kind_;
  std::uint64_t base_, max_, current_;
  std::uint64_t stall_seen_ = 0;
  int calm_steps_ = 0;
};

}  // namespace zipper::core::sched
