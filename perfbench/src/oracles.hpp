// Correctness oracles of the benchmark. Each one is a pure function of what a
// workload observed, so tests/oracle_test.cpp can feed it a corrupted result
// and watch it fail. Every check returns "" when the result is correct and a
// reason otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------- des_figures --

std::string sha256_hex(std::string_view data);

/// fig name -> hex digest, from tools/golden_quick.sha256 ("<hex>  <fig>.csv").
std::map<std::string, std::string> load_golden(const std::string& path);

/// The golden recipe of tools/check_golden.py for a one-CSV figure:
/// sha256("<fig>.csv" "\0" + csv).
std::string figure_digest(const std::string& fig, const std::string& csv);

std::string check_figure(const std::map<std::string, std::string>& golden,
                         const std::string& fig, const std::string& csv);

// -------------------------------------------------------------- svc_* ------

/// What one run_client_load batch reported.
struct SvcBatch {
  std::uint64_t sessions = 0;
  std::uint64_t sessions_ok = 0;
  std::uint64_t sessions_failed = 0;
  std::uint64_t blocks_expected = 0;
  std::uint64_t blocks_analyzed = 0;
  std::uint64_t blocks_from_disk = 0;
  std::uint64_t put_retries = 0;
  std::string first_error;
};

/// Exactly-once delivery, no failed session, and no block that left the
/// network path (stealing is off and no fault is injected).
std::string check_svc_batch(const SvcBatch& b);

/// The daemon must drain and exit 0 after SIGTERM (waitpid status).
std::string check_daemon_exit(int wait_status);

// -------------------------------------------------------------- rt_inproc --

/// Payload checksum the consumer recomputes for every block: a wrapping sum
/// of 64-bit words mixed with their position, so a flipped or moved byte
/// changes it, at a cost well below the runtime's per-block work.
std::uint64_t payload_sum(std::span<const std::byte> bytes);

/// Exactly-once ledger over (producer, sequence) block ids.
class DeliveryLedger {
 public:
  explicit DeliveryLedger(int producers);

  /// One block handed to the consumer; `payload_ok` is the checksum result.
  void record(int producer, std::uint64_t seq, bool payload_ok);

  /// Checks every id in [0, written[p]) was read exactly once with a good
  /// payload and nothing else was read.
  std::string verify(const std::vector<std::uint64_t>& written) const;

  /// Ids that were missing, duplicated, unexpected or corrupt at verify().
  std::uint64_t failed(const std::vector<std::uint64_t>& written) const;

 private:
  // Per producer, per seq. A deque grows in small chunks, so the ledger's
  // memory tracks the blocks read instead of jumping at capacity doublings.
  std::vector<std::deque<std::uint8_t>> seen_;
  std::uint64_t bad_payloads_ = 0;
  std::uint64_t bad_producers_ = 0;
};

}  // namespace perfbench
