// Virtual-time binding: runs ZipperBody on the deterministic DES kernel.
//
// The primitives ARE the sim primitives and every effect operation expands to
// exactly the awaiter sequence the historical core/dsim runtime issued, so
// the instantiation preserves the (time, seq) event schedule bit-for-bit —
// including under `--sim-threads N`, where each shard's Simulation gets its
// own VtEnv.
#pragma once

#include <any>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/profiles.hpp"
#include "core/exec/virtual_time.hpp"
#include "core/zipper/body.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"
#include "sim/channel.hpp"
#include "sim/latch.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace zipper::core::zbody {

class VtEnv;

struct VtBinding {
  using Task = sim::Task;
  using Time = sim::Time;
  using Ctx = sim::Simulation;
  using Mutex = sim::SimMutex;
  using CondVar = sim::SimCondVar;
  using Latch = sim::Latch;
  template <typename T>
  using Channel = sim::Channel<T>;
  /// Virtual blocks carry no bytes — headers fully describe the transfer.
  struct Payload {};
  using Span = trace::ScopedSpan;
  using Env = VtEnv;
  /// Virtual-time consumers are simulated processes that always drain.
  static constexpr bool kConsumersMayAbandon = false;
};

/// The old SimZipperConfig knobs that price the software paths (per-rank
/// calibrated rates, credit window) plus the instance's world placement.
struct VtEnvConfig {
  double sender_bandwidth = 140e6;   // sender-thread pack+send rate
  double writer_bandwidth = 40e6;    // spill packing rate
  double receiver_bandwidth = 110e6; // consumer-side unpack/match rate
  double reader_bandwidth = 200e6;   // consumer-side PFS fetch processing
  int sender_window = 4;             // credit-based flow control
  std::string file_tag = "z";        // PFS-name prefix for spill/preserve
  int first_producer_rank = 0;
  int first_consumer_rank = 0;
};

/// Effect operations against the simulated cluster: mpi::World transport,
/// pfs::ParallelFileSystem files, trace::Recorder spans, WorkloadProfile
/// analysis costs.
class VtEnv {
 public:
  using ItemT = Item<VtBinding>;
  using MixedT = Mixed<VtBinding>;

  VtEnv(sim::Simulation& sim, mpi::World& world, pfs::ParallelFileSystem& fs,
        trace::Recorder& rec, const apps::WorkloadProfile& profile,
        VtEnvConfig cfg, int num_producers, int num_consumers)
      : ex_(sim), world_(&world), fs_(&fs), rec_(&rec), profile_(profile),
        cfg_(std::move(cfg)),
        in_flight_(static_cast<std::size_t>(num_producers), 0),
        preserve_fid_(static_cast<std::size_t>(num_consumers), 0),
        preserve_offset_(static_cast<std::size_t>(num_consumers), 0) {}

  sim::Simulation& prim() noexcept { return ex_.simulation(); }
  sim::Time now() const noexcept { return ex_.now(); }
  double now_s() const noexcept { return sim::to_seconds(ex_.now()); }
  void spawn(sim::Task t) { ex_.spawn(std::move(t)); }
  auto sleep(sim::Time d) { return ex_.simulation().delay(d); }

  trace::ScopedSpan span(int rank, trace::Cat cat) {
    return trace::ScopedSpan(*rec_, ex_.simulation(), rank, cat);
  }
  void record_span(int rank, trace::Cat cat, sim::Time t0, sim::Time t1) {
    rec_->record(rank, cat, t0, t1);
  }

  /// Retry backoff is transmit stall on the producer's host, charged like any
  /// congestion-control wait.
  void charge_backoff_wait(int p, sim::Time dt) {
    world_->fabric().charge_xmit_wait(world_->host_of(producer_rank(p)), dt);
  }

  /// Credit-windowed block transfer: wait for acks while the window is full
  /// (charging the wait as transmit stall), pay the sender's software cost,
  /// inject into the fabric.
  sim::Task send_mixed(int p, int c, MixedT msg) {
    const std::uint64_t bytes = msg.item.h.bytes;
    const int prank = producer_rank(p);
    int& in_flight = in_flight_[static_cast<std::size_t>(p)];
    if (in_flight >= cfg_.sender_window) {
      const sim::Time w0 = ex_.now();
      while (in_flight >= cfg_.sender_window) {
        mpi::Envelope ack;
        co_await world_->recv(prank, mpi::kAnySource, kZipperAckTag, ack);
        --in_flight;
      }
      world_->fabric().charge_xmit_wait(world_->host_of(prank),
                                        ex_.now() - w0);
    }
    co_await ex_.simulation().delay(cost(bytes, cfg_.sender_bandwidth));
    co_await world_->send(prank, consumer_rank(c), kZipperTag, bytes,
                          std::any{std::move(msg)});
    ++in_flight;
  }

  sim::Task send_done(int p, int c, MixedT msg) {
    co_await world_->send(producer_rank(p), consumer_rank(c), kZipperTag, 64,
                          std::any{std::move(msg)});
  }

  sim::Task recv_mixed(int c, std::optional<MixedT>& out) {
    mpi::Envelope env;
    co_await world_->recv(consumer_rank(c), mpi::kAnySource, kZipperTag, env);
    out = std::any_cast<MixedT>(std::move(env.payload));
  }

  /// Consumer-side receive processing + the flow-control ack back to the
  /// sender. `slow` multiplies the service cost (1.0 without chaos; the
  /// multiply round-trips exactly, so the no-chaos schedule is unchanged).
  sim::Task receive_block(int c, std::uint64_t bytes, int producer,
                          double slow) {
    sim::Time d = cost(bytes, cfg_.receiver_bandwidth);
    d = static_cast<sim::Time>(static_cast<double>(d) * slow);
    co_await ex_.simulation().delay(d);
    world_->isend(consumer_rank(c), producer, kZipperAckTag, 32);
  }

  sim::Task spill_write(int p, const ItemT& it) {
    co_await ex_.simulation().delay(cost(it.h.bytes, cfg_.writer_bandwidth));
    pfs::FileId fid = 0;
    const int host = world_->host_of(producer_rank(p));
    co_await fs_->create(host, spill_name(it.h.id), fid);
    co_await fs_->write(host, fid, 0, it.h.bytes);
  }

  sim::Task fetch_spill(int c, const BlockHeader& h, ItemT& out) {
    co_await fs_->read(world_->host_of(consumer_rank(c)),
                       fs_->id_of(spill_name(h.id)), 0, h.bytes);
    co_await ex_.simulation().delay(cost(h.bytes, cfg_.reader_bandwidth));
    out.h = h;
  }

  sim::Task preserve_open(int c) {
    pfs::FileId fid = 0;
    const int host = world_->host_of(consumer_rank(c));
    co_await fs_->create(host, cfg_.file_tag + "preserve_c" + std::to_string(c),
                         fid);
    preserve_fid_[static_cast<std::size_t>(c)] = fid;
  }

  sim::Task preserve_write(int c, const ItemT& it) {
    const int host = world_->host_of(consumer_rank(c));
    co_await fs_->write(host, preserve_fid_[static_cast<std::size_t>(c)],
                        preserve_offset_[static_cast<std::size_t>(c)],
                        it.h.bytes);
    preserve_offset_[static_cast<std::size_t>(c)] += it.h.bytes;
  }

  sim::Task control_tick(sim::Time interval, bool& alive) {
    co_await ex_.simulation().delay(interval);
    alive = true;  // runs until the workflow halts the simulation
  }

  sim::Time analysis_cost(std::uint64_t bytes) const {
    return profile_.analysis_time(bytes);
  }

  /// Steal-poll nap; the buffer is untouched (virtual-time consumers poll on
  /// simulated time, there is no timed channel wait in the DES kernel).
  sim::Task idle_recv(sim::Channel<ItemT>&, std::optional<ItemT>&) {
    co_await ex_.simulation().delay(kStealPoll);
  }
  sim::Task drain_nap() { co_await ex_.simulation().delay(kStealPoll); }

  void stop_control() noexcept {}
  void close_transport() noexcept {}

 private:
  /// Nap length between steal probes while idle: short against any realistic
  /// per-block analysis time, so a freshly overloaded peer is noticed fast.
  static constexpr sim::Time kStealPoll = 200 * sim::kMicrosecond;

  int producer_rank(int p) const noexcept {
    return cfg_.first_producer_rank + p;
  }
  int consumer_rank(int c) const noexcept {
    return cfg_.first_consumer_rank + c;
  }
  std::string spill_name(const BlockId& id) const {
    return cfg_.file_tag + "spill_" + id.to_string();
  }
  static sim::Time cost(std::uint64_t bytes, double rate) {
    return static_cast<sim::Time>(static_cast<double>(bytes) / rate * 1e9);
  }

  exec::VirtualTimeExecutor ex_;
  mpi::World* world_;
  pfs::ParallelFileSystem* fs_;
  trace::Recorder* rec_;
  apps::WorkloadProfile profile_;
  VtEnvConfig cfg_;
  std::vector<int> in_flight_;  // per-producer unacked blocks (credit window)
  std::vector<pfs::FileId> preserve_fid_;
  std::vector<std::uint64_t> preserve_offset_;
};

extern template class ZipperBody<VtBinding>;

}  // namespace zipper::core::zbody
