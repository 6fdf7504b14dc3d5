// Each correctness oracle of the benchmark must reject a corrupted result:
// a flipped CSV byte, a dropped block, a duplicated id, a corrupt payload,
// a failed session and a daemon that did not drain cleanly.
//
//   ctest --test-dir <build dir>      or      python3 perfbench/run.py --test
#include <sys/wait.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "oracles.hpp"

namespace {

int g_failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

void sha256_matches_reference_vectors() {
  using perfbench::sha256_hex;
  expect(sha256_hex("") ==
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "sha256 of the empty string");
  expect(sha256_hex("abc") ==
             "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
         "sha256 of \"abc\"");
  expect(sha256_hex(std::string(1000, 'a')) ==
             "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3",
         "sha256 across several blocks");
}

void figure_oracle_rejects_flipped_csv_byte() {
  const std::string csv = "label,crashed,note,e2e_s\nlinear,0,,12.5\n";
  const std::map<std::string, std::string> golden = {
      {"fig12", perfbench::figure_digest("fig12", csv)}};
  expect(perfbench::check_figure(golden, "fig12", csv).empty(),
         "figure oracle accepts the pinned CSV");
  std::string flipped = csv;
  flipped[flipped.size() - 3] ^= 0x01;
  expect(!perfbench::check_figure(golden, "fig12", flipped).empty(),
         "figure oracle rejects a flipped CSV byte");
  expect(!perfbench::check_figure(golden, "fig14", csv).empty(),
         "figure oracle rejects a figure with no digest");
}

perfbench::SvcBatch good_batch() {
  perfbench::SvcBatch b;
  b.sessions = b.sessions_ok = 4;
  b.blocks_expected = b.blocks_analyzed = 6400;
  return b;
}

void svc_oracle_rejects_failures() {
  expect(perfbench::check_svc_batch(good_batch()).empty(),
         "svc oracle accepts an exactly-once batch");
  auto dropped = good_batch();
  dropped.blocks_analyzed -= 1;
  expect(!perfbench::check_svc_batch(dropped).empty(),
         "svc oracle rejects a dropped block");
  auto failed = good_batch();
  failed.sessions_ok = 3;
  failed.sessions_failed = 1;
  failed.first_error = "session 2: connection closed";
  expect(!perfbench::check_svc_batch(failed).empty(),
         "svc oracle rejects a failed session");
  auto disk = good_batch();
  disk.blocks_from_disk = 1;
  expect(!perfbench::check_svc_batch(disk).empty(),
         "svc oracle rejects a block that left the network path");
  expect(perfbench::check_daemon_exit(0).empty(),
         "daemon oracle accepts exit 0");
  expect(!perfbench::check_daemon_exit(1 << 8).empty(),
         "daemon oracle rejects exit 1");
  expect(!perfbench::check_daemon_exit(9).empty(),
         "daemon oracle rejects death by SIGKILL");
}

void ledger_rejects_lost_duplicated_and_corrupt_blocks() {
  const std::vector<std::uint64_t> written = {3, 2};
  auto fill = [](perfbench::DeliveryLedger& l) {
    for (std::uint64_t i = 0; i < 3; ++i) l.record(0, i, true);
    for (std::uint64_t i = 0; i < 2; ++i) l.record(1, i, true);
  };
  perfbench::DeliveryLedger ok(2);
  fill(ok);
  expect(ok.verify(written).empty() && ok.failed(written) == 0,
         "ledger accepts exactly-once delivery");

  perfbench::DeliveryLedger dropped(2);
  for (std::uint64_t i = 0; i < 3; ++i) dropped.record(0, i, true);
  dropped.record(1, 1, true);
  expect(!dropped.verify(written).empty() && dropped.failed(written) == 1,
         "ledger rejects a dropped block");

  perfbench::DeliveryLedger dup(2);
  fill(dup);
  dup.record(1, 0, true);
  expect(!dup.verify(written).empty() && dup.failed(written) == 1,
         "ledger rejects a duplicated id");

  perfbench::DeliveryLedger extra(2);
  fill(extra);
  extra.record(0, 7, true);
  expect(!extra.verify(written).empty(), "ledger rejects an id never written");

  std::vector<std::byte> payload(4096, std::byte{0x5a});
  const std::uint64_t sum = perfbench::payload_sum(payload);
  payload[1234] ^= std::byte{0x10};
  const bool still_ok = perfbench::payload_sum(payload) == sum;
  perfbench::DeliveryLedger corrupt(2);
  for (std::uint64_t i = 0; i < 3; ++i) corrupt.record(0, i, i != 1 || still_ok);
  for (std::uint64_t i = 0; i < 2; ++i) corrupt.record(1, i, true);
  expect(!still_ok && !corrupt.verify(written).empty(),
         "payload checksum and ledger reject a flipped payload byte");
}

}  // namespace

int main() {
  sha256_matches_reference_vectors();
  figure_oracle_rejects_flipped_csv_byte();
  svc_oracle_rejects_failures();
  ledger_rejects_lost_duplicated_and_corrupt_blocks();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
