// The zipperd wire protocol: length-prefixed block frames over TCP.
//
// Every frame is  [u32 length][u8 type][body...]  with `length` counting the
// type byte plus the body, little-endian fixed-width integers throughout.
// Three frame types carry a coupling session:
//
//   kHello    client -> daemon, once per session: the serialized
//             ScenarioSpec subset (ranks, block geometry, sched policy,
//             chaos fault axis, spill directory) that parameterizes the
//             per-session ZipperBody. Starts with a magic word ("ZPL3", the
//             protocol version) so a stray connection or an older peer is
//             rejected before any state is allocated. A connection carries
//             sessions back to back: the next Hello follows the previous
//             session's Summary.
//   kMixed    client -> daemon: the paper's mixed message — at most one data
//             block (header + XXH64 checksum + payload bytes) plus the IDs of
//             blocks the writer degraded to the shared spill directory, or
//             an end-of-stream marker. Carries the raw CLOCK_MONOTONIC send
//             timestamp so the daemon can measure block latency at analyze
//             time (the clock is system-wide on one host). The payload is
//             the frame's tail, so a sender writes it straight from the
//             block with scatter-gather: encode_mixed_head() builds every
//             byte before it, and the two go out in one sendmsg().
//   kSummary  daemon -> client, once per session: exactly-once accounting (analyzed /
//             network / disk block counts), block-latency samples, and an
//             error string when the session died early.
//
// The FrameDecoder is incremental: bytes go in either by feed() or, without
// a copy, by recv()ing into prepare() and commit()ing the count — split reads
// across epoll wakeups reassemble transparently. next_view() yields complete
// frames as views into the decoder's buffer; decode_mixed() then copies the
// payload once, into the block. Oversized lengths and truncated bodies throw
// FrameError (the session-fatal error class; the daemon drops the one session
// and keeps serving).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/block.hpp"

namespace zipper::core::zbody::net {

inline constexpr std::uint32_t kHelloMagic = 0x5A50'4C33;  // "ZPL3"
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kMixed = 2,
  kSummary = 3,
};

class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what) : std::runtime_error(what) {}
};

/// The ScenarioSpec subset a session handshake carries — enough to rebuild
/// identical BodyConfig / RoutePolicy / ChaosEngine state on both ends.
struct SessionSpec {
  std::uint64_t session_id = 0;
  std::uint32_t producers = 1;
  std::uint32_t consumers = 1;
  std::uint32_t steps = 1;
  std::uint64_t block_bytes = 64 * 1024;
  std::uint64_t step_bytes = 256 * 1024;
  // Per-session sched policy (the values sched::SchedConfig consumes).
  std::uint8_t route_kind = 0;  // sched::RouteKind enum value
  bool consumer_steal = false;
  bool enable_steal = true;
  bool preserve = false;
  std::uint32_t producer_buffer_blocks = 8;
  std::uint32_t consumer_buffer_blocks = 32;
  double high_water = 0.5;
  // Chaos fault axis (token grammar of core/chaos) + the window horizon.
  std::uint64_t chaos_seed = 0;
  std::string fault;  // "" or "off" disables
  double horizon_s = 1.0;
  // Shared "PFS" directory for this session's spill/preserve files.
  std::string spill_dir;
  // The producer side runs a live controller, so every producer ends the
  // stream of every consumer (Placement::peer_live_control on the daemon).
  bool live_control = false;

  int blocks_per_step() const {
    return static_cast<int>((step_bytes + block_bytes - 1) / block_bytes);
  }
  std::uint64_t expected_blocks() const {
    return static_cast<std::uint64_t>(producers) * steps *
           static_cast<std::uint64_t>(blocks_per_step());
  }
};

/// Mixed<NetBinding> on the wire (block payload inline, spilled IDs by
/// reference into the shared spill directory).
struct WireMixed {
  bool has_block = false;
  bool done = false;
  std::int32_t producer = -1;  // producer trace rank (Placement convention)
  std::int32_t consumer = 0;   // destination consumer index
  BlockHeader block{};
  std::vector<BlockHeader> ids_on_disk;
  std::uint64_t sent_raw_ns = 0;  // CLOCK_MONOTONIC at serialization
  std::vector<std::byte> payload;
};

struct SessionSummary {
  std::uint64_t session_id = 0;
  bool ok = false;
  std::uint64_t blocks_analyzed = 0;
  std::uint64_t blocks_from_network = 0;
  std::uint64_t blocks_from_disk = 0;
  std::uint64_t blocks_preserved = 0;
  std::vector<std::uint64_t> latency_ns;  // per-block, capped at kMaxSamples
  std::string error;

  static constexpr std::size_t kMaxSamples = 512;
};

std::vector<std::byte> encode_hello(const SessionSpec& spec);
std::vector<std::byte> encode_summary(const SessionSummary& s);

/// Every byte of a kMixed frame up to its payload: length prefix, type,
/// fields, the payload's XXH64 and its length. `payload` (ignored unless
/// m.has_block) is what follows on the wire — m.payload is not read, so a
/// sender can checksum and then send a block's bytes where they lie.
std::vector<std::byte> encode_mixed_head(const WireMixed& m,
                                         std::span<const std::byte> payload);
/// The whole kMixed frame: encode_mixed_head(m, m.payload) + m.payload.
std::vector<std::byte> encode_mixed(const WireMixed& m);

SessionSpec decode_hello(std::span<const std::byte> body);
/// Verifies the payload's checksum and copies it into the result.
WireMixed decode_mixed(std::span<const std::byte> body);
SessionSummary decode_summary(std::span<const std::byte> body);

struct Frame {
  FrameType type;
  std::vector<std::byte> body;
};

/// A complete frame inside FrameDecoder's buffer; `body` stays valid until
/// the decoder's next feed() or prepare().
struct FrameView {
  FrameType type;
  std::span<const std::byte> body;
};

class FrameDecoder {
 public:
  /// Appends raw received bytes; frames may arrive in any fragmentation.
  void feed(const std::byte* data, std::size_t n);

  /// Writable space for the next read, at most `n` bytes and never past the
  /// end of a frame whose length is already buffered. Reads that stop at a
  /// frame boundary let the buffer empty, and an empty buffer restarts at
  /// offset 0 without moving a byte; the buffer holds at most one read plus
  /// one partial frame. recv() into it, then commit() the count.
  /// Invalidates views from next_view().
  std::span<std::byte> prepare(std::size_t n);
  /// Marks the first `n` bytes of the last prepare()d span as received.
  void commit(std::size_t n) noexcept { end_ += n; }

  /// Pops the next complete frame as a view into the buffer, std::nullopt
  /// if more bytes are needed. Throws FrameError on an oversized length or
  /// an unknown frame type.
  std::optional<FrameView> next_view();
  /// next_view() with the body copied out.
  std::optional<Frame> next();

  /// Bytes buffered mid-frame; nonzero at EOF means a truncated frame.
  std::size_t pending_bytes() const noexcept { return end_ - pos_; }

 private:
  /// Guarantees `n` writable bytes at end_: resets an empty buffer, moves a
  /// pending partial frame to the front, grows (uninitialized) if needed.
  void reserve(std::size_t n);

  std::unique_ptr<std::byte[]> buf_;
  std::size_t cap_ = 0;
  std::size_t pos_ = 0;  // start of the first unconsumed frame
  std::size_t end_ = 0;  // end of the received bytes
  std::size_t max_frame_ = 0;  // largest frame popped so far
};

}  // namespace zipper::core::zbody::net
