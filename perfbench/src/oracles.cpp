#include "oracles.hpp"

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

// ----------------------------------------------------------------- sha256 --

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress(std::array<std::uint32_t, 8>& h, const unsigned char* blk) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{blk[4 * i]} << 24) |
           (std::uint32_t{blk[4 * i + 1]} << 16) |
           (std::uint32_t{blk[4 * i + 2]} << 8) | std::uint32_t{blk[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4], f = h[5],
                g = h[6], k = h[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 = k + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + kK[static_cast<std::size_t>(i)] + w[i];
    const std::uint32_t t2 =
        (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
    k = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += k;
}

}  // namespace

std::string sha256_hex(std::string_view data) {
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  const std::uint64_t bits = static_cast<std::uint64_t>(n) * 8;
  for (; n >= 64; n -= 64, p += 64) compress(h, p);
  unsigned char tail[128] = {};
  std::memcpy(tail, p, n);
  tail[n] = 0x80;
  const std::size_t len = n + 9 <= 64 ? 64 : 128;
  for (int i = 0; i < 8; ++i) {
    tail[len - 1 - static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(bits >> (8 * i));
  }
  for (std::size_t off = 0; off < len; off += 64) compress(h, tail + off);
  char hex[65];
  for (int i = 0; i < 8; ++i) {
    std::snprintf(hex + 8 * i, 9, "%08x", h[static_cast<std::size_t>(i)]);
  }
  return std::string(hex, 64);
}

// ------------------------------------------------------------ des_figures --

std::map<std::string, std::string> load_golden(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string sha, name;
    if (!(ls >> sha >> name)) continue;
    if (name.size() > 4 && name.ends_with(".csv")) {
      name.resize(name.size() - 4);
    }
    out[name] = sha;
  }
  return out;
}

std::string figure_digest(const std::string& fig, const std::string& csv) {
  std::string blob = fig + ".csv";
  blob.push_back('\0');
  blob += csv;
  return sha256_hex(blob);
}

std::string check_figure(const std::map<std::string, std::string>& golden,
                         const std::string& fig, const std::string& csv) {
  const auto it = golden.find(fig);
  if (it == golden.end()) return fig + ": no golden digest";
  const std::string got = figure_digest(fig, csv);
  if (got != it->second) {
    return fig + ".csv digest " + got + " != golden " + it->second;
  }
  return {};
}

// ------------------------------------------------------------------ svc_* --

std::string check_svc_batch(const SvcBatch& b) {
  if (b.sessions_failed != 0) {
    return std::to_string(b.sessions_failed) + " failed sessions" +
           (b.first_error.empty() ? "" : ": " + b.first_error);
  }
  if (b.sessions_ok != b.sessions) {
    return std::to_string(b.sessions_ok) + " of " + std::to_string(b.sessions) +
           " sessions verified";
  }
  if (b.blocks_analyzed != b.blocks_expected) {
    return "analyzed " + std::to_string(b.blocks_analyzed) + " of " +
           std::to_string(b.blocks_expected) + " blocks";
  }
  if (b.blocks_from_disk != 0) {
    return std::to_string(b.blocks_from_disk) + " blocks left the network path";
  }
  if (b.put_retries != 0) {
    return std::to_string(b.put_retries) + " put retries without a fault";
  }
  return {};
}

std::string check_daemon_exit(int wait_status) {
  if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0) return {};
  if (WIFSIGNALED(wait_status)) {
    return "daemon killed by signal " + std::to_string(WTERMSIG(wait_status));
  }
  return "daemon exit status " + std::to_string(WEXITSTATUS(wait_status));
}

// -------------------------------------------------------------- rt_inproc --

std::uint64_t payload_sum(std::span<const std::byte> bytes) {
  std::uint64_t sum = 0;
  std::uint64_t pos = 0;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8, ++pos) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, sizeof(w));
    sum += w ^ (pos * 0x9E3779B97F4A7C15ull);
  }
  for (; i < bytes.size(); ++i, ++pos) {
    sum += static_cast<std::uint64_t>(bytes[i]) ^ (pos * 0x9E3779B97F4A7C15ull);
  }
  return sum;
}

DeliveryLedger::DeliveryLedger(int producers)
    : seen_(static_cast<std::size_t>(producers)) {}

void DeliveryLedger::record(int producer, std::uint64_t seq, bool payload_ok) {
  if (producer < 0 || static_cast<std::size_t>(producer) >= seen_.size()) {
    ++bad_producers_;
    return;
  }
  auto& s = seen_[static_cast<std::size_t>(producer)];
  if (seq >= s.size()) s.resize(seq + 1, 0);
  if (s[seq] < 255) ++s[seq];
  if (!payload_ok) ++bad_payloads_;
}

std::uint64_t DeliveryLedger::failed(
    const std::vector<std::uint64_t>& written) const {
  std::uint64_t bad = bad_payloads_ + bad_producers_;
  for (std::size_t p = 0; p < seen_.size(); ++p) {
    const std::uint64_t n = p < written.size() ? written[p] : 0;
    const auto& s = seen_[p];
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i < n ? s[i] != 1 : s[i] != 0) ++bad;
    }
    if (s.size() < n) bad += n - s.size();  // never read at all
  }
  return bad;
}

std::string DeliveryLedger::verify(
    const std::vector<std::uint64_t>& written) const {
  if (written.size() != seen_.size()) return "producer count mismatch";
  if (bad_producers_ != 0) return "blocks from unknown producers";
  if (bad_payloads_ != 0) {
    return std::to_string(bad_payloads_) + " blocks with a bad payload checksum";
  }
  for (std::size_t p = 0; p < seen_.size(); ++p) {
    const auto& s = seen_[p];
    for (std::size_t i = 0; i < std::max<std::size_t>(s.size(), written[p]); ++i) {
      const unsigned got = i < s.size() ? s[i] : 0;
      const unsigned want = i < written[p] ? 1 : 0;
      if (got != want) {
        return "producer " + std::to_string(p) + " block " + std::to_string(i) +
               " read " + std::to_string(got) + " times, expected " +
               std::to_string(want);
      }
    }
  }
  return {};
}

}  // namespace perfbench
