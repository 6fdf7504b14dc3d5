// Striped parallel file system model (Lustre-like).
//
// Files are striped round-robin over `num_osts` object storage targets; each
// OST is a FIFO bandwidth Resource. Every data RPC also traverses the fabric
// from the client to the I/O gateway host the OST hangs off (class kIo), so
// file traffic and message traffic share NIC/switch bandwidth — Bridges and
// Stampede2 have no I/O-traffic segregation, which is why the paper's
// concurrent-transfer optimization is throttled yet still effective.
//
// A metadata server Resource serializes opens/creates/stats — the cost behind
// MPI-IO's "poll until the producer's file appears" coupling.
//
// Only extents are tracked (the DES never stores payload bytes); the real
// threaded runtime in core/rt uses actual files instead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "net/fabric.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace zipper::pfs {

struct PfsConfig {
  int num_osts = 24;
  double ost_bandwidth = 1.0e9;       // bytes/s each (24 OSTs ~ 24 GB/s aggregate)
  std::uint64_t stripe_size = common::MiB;
  sim::Time metadata_latency = 50'000;  // 50 us per metadata op
  int num_io_gateways = 4;              // fabric hosts serving OST traffic
  int first_gateway_host = 0;           // set by the cluster builder
};

using FileId = std::uint32_t;

struct FileInfo {
  std::string name;
  std::uint64_t size = 0;  // highest written offset + length
};

class ParallelFileSystem {
 public:
  ParallelFileSystem(sim::Simulation& sim, net::Fabric& fabric, const PfsConfig& cfg);

  /// Creates (or truncates) a file; costs one metadata op.
  sim::Task create(int client_host, const std::string& name, FileId& out_id);

  /// Metadata existence probe (the MPI-IO consumer's polling primitive).
  /// Sets `exists`; costs one metadata op plus a small fabric RTT.
  sim::Task stat(int client_host, const std::string& name, bool& exists,
                 std::uint64_t& size);

  /// Writes `bytes` at `offset`: striped over OSTs, chunks issued
  /// concurrently, each chunk moving client -> gateway -> OST.
  /// `service_multiplier` scales the OST-side service time (> 1 models
  /// shared-file extent-lock ping-pong and fragmented writes, e.g. N-to-1
  /// MPI-IO without collective aggregation); the fabric moves real bytes.
  sim::Task write(int client_host, FileId file, std::uint64_t offset,
                  std::uint64_t bytes, double service_multiplier = 1.0);

  /// Reads `bytes` at `offset` (OST -> gateway -> client).
  sim::Task read(int client_host, FileId file, std::uint64_t offset,
                 std::uint64_t bytes, double service_multiplier = 1.0);

  /// Synchronous registry lookups (no simulated cost) for internal use.
  bool exists_now(const std::string& name) const;
  std::uint64_t size_now(FileId file) const;
  FileId id_of(const std::string& name) const;

  /// Injects background OST traffic forever (other users of the shared file
  /// system); drives the MPI-IO variance the paper observed. Spawn on the
  /// Simulation. `intensity` in [0,1] is the long-run fraction of aggregate
  /// OST bandwidth consumed.
  sim::Task background_load(double intensity, std::uint64_t seed);

  /// Bursty variant of background_load for the chaos `--burst` axis:
  /// duty-cycled ON/OFF interference with cycle length `period_s`. During
  /// the ON half-cycle every OST runs at ~2x `intensity`; during the OFF
  /// half-cycle the PFS is quiet — same long-run average as the steady
  /// load, but with the synchronized bandwidth cliffs production file
  /// systems actually exhibit.
  sim::Task bursty_load(double intensity, double period_s, std::uint64_t seed);

  const PfsConfig& config() const noexcept { return cfg_; }
  std::uint64_t total_bytes_written() const noexcept { return bytes_written_; }
  std::uint64_t total_bytes_read() const noexcept { return bytes_read_; }
  std::size_t num_files() const noexcept { return files_.size(); }
  const sim::Resource& ost(int i) const { return *osts_[i]; }

 private:
  int gateway_of_ost(int ost) const {
    return cfg_.first_gateway_host + ost % cfg_.num_io_gateways;
  }
  sim::Task write_chunk(int client_host, int ost, std::uint64_t bytes,
                        double service_multiplier);
  sim::Task read_chunk(int client_host, int ost, std::uint64_t bytes,
                       double service_multiplier);
  sim::Task io_chunks(int client_host, FileId file, std::uint64_t offset,
                      std::uint64_t bytes, bool is_write,
                      double service_multiplier);

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  PfsConfig cfg_;
  std::unique_ptr<sim::Resource> metadata_;
  std::vector<std::unique_ptr<sim::Resource>> osts_;
  std::vector<FileInfo> files_;
  std::unordered_map<std::string, FileId> by_name_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace zipper::pfs
