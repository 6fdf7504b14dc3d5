#include "core/zipper/net_frame.hpp"

#include <algorithm>
#include <cstring>

#include "common/checksum.hpp"

namespace zipper::core::zbody::net {

namespace {

// ------------------------------------------------------------- encoding ----

void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
}

void put_i32(std::vector<std::byte>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::byte>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::vector<std::byte>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  out.insert(out.end(), p, p + s.size());
}

void put_header(std::vector<std::byte>& out, const BlockHeader& h) {
  put_i32(out, h.id.step);
  put_i32(out, h.id.producer);
  put_i32(out, h.id.index);
  put_u64(out, h.offset);
  put_u64(out, h.bytes);
  put_u8(out, h.on_disk ? 1 : 0);
}

// ------------------------------------------------------------- decoding ----

std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Bounds-checked read cursor; any overrun is a malformed (truncated) frame.
struct Cursor {
  const std::byte* p;
  std::size_t n;
  std::size_t pos = 0;

  void need(std::size_t k) const {
    if (pos + k > n) throw FrameError("truncated frame body");
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(p[pos++]);
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = load_u32(p + pos);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (len > kMaxFrameBytes) throw FrameError("oversized string field");
    need(len);
    std::string s(reinterpret_cast<const char*>(p + pos), len);
    pos += len;
    return s;
  }
  BlockHeader header() {
    BlockHeader h;
    h.id.step = i32();
    h.id.producer = i32();
    h.id.index = i32();
    h.offset = u64();
    h.bytes = u64();
    h.on_disk = u8() != 0;
    return h;
  }
  void done() const {
    if (pos != n) throw FrameError("trailing bytes in frame body");
  }
};

std::vector<std::byte> finish(FrameType type, std::vector<std::byte> body) {
  std::vector<std::byte> out;
  out.reserve(5 + body.size());
  put_u32(out, static_cast<std::uint32_t>(body.size() + 1));
  put_u8(out, static_cast<std::uint8_t>(type));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// has_block, done, producer, consumer, sent_raw_ns, ids_on_disk count.
constexpr std::size_t kMixedFixedBytes = 1 + 1 + 4 + 4 + 8 + 4;
// BlockHeader: step, producer, index, offset, bytes, on_disk.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8 + 1;
// The block's header, payload checksum and payload length.
constexpr std::size_t kBlockTrailerBytes = kHeaderBytes + 8 + 4;

/// Bytes of a kMixed frame before its payload, length prefix included.
std::size_t mixed_head_bytes(const WireMixed& m) {
  return 5 + kMixedFixedBytes + kHeaderBytes * m.ids_on_disk.size() +
         (m.has_block ? kBlockTrailerBytes : 0);
}

/// Appends the kMixed frame up to (not including) its payload bytes.
void put_mixed_head(std::vector<std::byte>& out, const WireMixed& m,
                    std::span<const std::byte> payload) {
  if (!m.has_block) payload = {};
  put_u32(out,
          static_cast<std::uint32_t>(mixed_head_bytes(m) - 4 + payload.size()));
  put_u8(out, static_cast<std::uint8_t>(FrameType::kMixed));
  put_u8(out, m.has_block ? 1 : 0);
  put_u8(out, m.done ? 1 : 0);
  put_i32(out, m.producer);
  put_i32(out, m.consumer);
  put_u64(out, m.sent_raw_ns);
  put_u32(out, static_cast<std::uint32_t>(m.ids_on_disk.size()));
  for (const BlockHeader& h : m.ids_on_disk) put_header(out, h);
  if (m.has_block) {
    put_header(out, m.block);
    put_u64(out, common::xxh64(payload));
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
  }
}

}  // namespace

std::vector<std::byte> encode_hello(const SessionSpec& spec) {
  std::vector<std::byte> b;
  put_u32(b, kHelloMagic);
  put_u64(b, spec.session_id);
  put_u32(b, spec.producers);
  put_u32(b, spec.consumers);
  put_u32(b, spec.steps);
  put_u64(b, spec.block_bytes);
  put_u64(b, spec.step_bytes);
  put_u8(b, spec.route_kind);
  put_u8(b, spec.consumer_steal ? 1 : 0);
  put_u8(b, spec.enable_steal ? 1 : 0);
  put_u8(b, spec.preserve ? 1 : 0);
  put_u32(b, spec.producer_buffer_blocks);
  put_u32(b, spec.consumer_buffer_blocks);
  put_f64(b, spec.high_water);
  put_u64(b, spec.chaos_seed);
  put_string(b, spec.fault);
  put_f64(b, spec.horizon_s);
  put_string(b, spec.spill_dir);
  put_u8(b, spec.live_control ? 1 : 0);
  return finish(FrameType::kHello, std::move(b));
}

SessionSpec decode_hello(std::span<const std::byte> body) {
  Cursor c{body.data(), body.size()};
  if (c.u32() != kHelloMagic) throw FrameError("bad hello magic");
  SessionSpec s;
  s.session_id = c.u64();
  s.producers = c.u32();
  s.consumers = c.u32();
  s.steps = c.u32();
  s.block_bytes = c.u64();
  s.step_bytes = c.u64();
  s.route_kind = c.u8();
  s.consumer_steal = c.u8() != 0;
  s.enable_steal = c.u8() != 0;
  s.preserve = c.u8() != 0;
  s.producer_buffer_blocks = c.u32();
  s.consumer_buffer_blocks = c.u32();
  s.high_water = c.f64();
  s.chaos_seed = c.u64();
  s.fault = c.str();
  s.horizon_s = c.f64();
  s.spill_dir = c.str();
  s.live_control = c.u8() != 0;
  c.done();
  if (s.producers == 0 || s.consumers == 0 || s.steps == 0 ||
      s.block_bytes == 0 || s.step_bytes == 0) {
    throw FrameError("hello with zero-sized session geometry");
  }
  return s;
}

std::vector<std::byte> encode_mixed_head(const WireMixed& m,
                                         std::span<const std::byte> payload) {
  std::vector<std::byte> out;
  out.reserve(mixed_head_bytes(m));
  put_mixed_head(out, m, payload);
  return out;
}

std::vector<std::byte> encode_mixed(const WireMixed& m) {
  std::vector<std::byte> out;
  out.reserve(mixed_head_bytes(m) + (m.has_block ? m.payload.size() : 0));
  put_mixed_head(out, m, m.payload);
  if (m.has_block) out.insert(out.end(), m.payload.begin(), m.payload.end());
  return out;
}

WireMixed decode_mixed(std::span<const std::byte> body) {
  Cursor c{body.data(), body.size()};
  WireMixed m;
  m.has_block = c.u8() != 0;
  m.done = c.u8() != 0;
  m.producer = c.i32();
  m.consumer = c.i32();
  m.sent_raw_ns = c.u64();
  const std::uint32_t nids = c.u32();
  if (nids > kMaxFrameBytes / kHeaderBytes) {
    throw FrameError("oversized spill-id list");
  }
  m.ids_on_disk.reserve(nids);
  for (std::uint32_t i = 0; i < nids; ++i) m.ids_on_disk.push_back(c.header());
  if (m.has_block) {
    m.block = c.header();
    const std::uint64_t sum = c.u64();
    const std::uint32_t len = c.u32();
    if (len > kMaxFrameBytes) throw FrameError("oversized block payload");
    c.need(len);
    const std::span<const std::byte> payload = body.subspan(c.pos, len);
    if (common::xxh64(payload) != sum) {
      throw FrameError("block payload checksum mismatch");
    }
    m.payload.assign(payload.begin(), payload.end());
    c.pos += len;
  }
  c.done();
  return m;
}

std::vector<std::byte> encode_summary(const SessionSummary& s) {
  std::vector<std::byte> b;
  put_u64(b, s.session_id);
  put_u8(b, s.ok ? 1 : 0);
  put_u64(b, s.blocks_analyzed);
  put_u64(b, s.blocks_from_network);
  put_u64(b, s.blocks_from_disk);
  put_u64(b, s.blocks_preserved);
  put_u32(b, static_cast<std::uint32_t>(s.latency_ns.size()));
  for (std::uint64_t v : s.latency_ns) put_u64(b, v);
  put_string(b, s.error);
  return finish(FrameType::kSummary, std::move(b));
}

SessionSummary decode_summary(std::span<const std::byte> body) {
  Cursor c{body.data(), body.size()};
  SessionSummary s;
  s.session_id = c.u64();
  s.ok = c.u8() != 0;
  s.blocks_analyzed = c.u64();
  s.blocks_from_network = c.u64();
  s.blocks_from_disk = c.u64();
  s.blocks_preserved = c.u64();
  const std::uint32_t n = c.u32();
  if (n > kMaxFrameBytes / 8) throw FrameError("oversized latency list");
  s.latency_ns.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) s.latency_ns.push_back(c.u64());
  s.error = c.str();
  c.done();
  return s;
}

void FrameDecoder::reserve(std::size_t n) {
  if (pos_ == end_) pos_ = end_ = 0;
  if (cap_ - end_ >= n) return;
  const std::size_t pending = end_ - pos_;
  if (cap_ - pending >= n) {
    std::memmove(buf_.get(), buf_.get() + pos_, pending);
  } else {
    // Grows by at least half so byte-wise feeds stay amortized O(1); new
    // bytes are not zero-filled, recv() or feed() overwrites them.
    const std::size_t cap = std::max(pending + n, cap_ + cap_ / 2);
    auto grown = std::make_unique_for_overwrite<std::byte[]>(cap);
    if (pending > 0) std::memcpy(grown.get(), buf_.get() + pos_, pending);
    buf_ = std::move(grown);
    cap_ = cap;
  }
  pos_ = 0;
  end_ = pending;
}

void FrameDecoder::feed(const std::byte* data, std::size_t n) {
  if (n == 0) return;
  reserve(n);
  std::memcpy(buf_.get() + end_, data, n);
  end_ += n;
}

std::span<std::byte> FrameDecoder::prepare(std::size_t n) {
  const std::size_t pending = end_ - pos_;
  std::size_t room = n + max_frame_;
  if (pending >= 4) {
    const std::size_t frame = 4 + std::size_t{load_u32(buf_.get() + pos_)};
    if (frame > pending && frame <= 4 + std::size_t{kMaxFrameBytes}) {
      // Stop this read at the frame's end: the buffer then drains to empty.
      n = std::min(n, frame - pending);
      room = frame - pending;
    }
  }
  // Room for a whole frame past a read that ends mid-frame, so the read that
  // completes it never has to move the partial frame to the front.
  reserve(room);
  return {buf_.get() + end_, n};
}

std::optional<FrameView> FrameDecoder::next_view() {
  const std::size_t avail = end_ - pos_;
  if (avail < 4) return std::nullopt;
  const std::uint32_t len = load_u32(buf_.get() + pos_);
  if (len == 0) throw FrameError("zero-length frame");
  if (len > kMaxFrameBytes) {
    throw FrameError("oversized frame length " + std::to_string(len));
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  const auto type = static_cast<std::uint8_t>(buf_[pos_ + 4]);
  if (type < 1 || type > 3) {
    throw FrameError("unknown frame type " + std::to_string(type));
  }
  FrameView v{static_cast<FrameType>(type), {buf_.get() + pos_ + 5, len - 1}};
  pos_ += 4 + std::size_t{len};
  max_frame_ = std::max(max_frame_, 4 + std::size_t{len});
  return v;
}

std::optional<Frame> FrameDecoder::next() {
  const std::optional<FrameView> v = next_view();
  if (!v) return std::nullopt;
  return Frame{v->type, {v->body.begin(), v->body.end()}};
}

}  // namespace zipper::core::zbody::net
