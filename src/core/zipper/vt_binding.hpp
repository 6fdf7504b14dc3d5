// Virtual-time binding: runs ZipperBody on the deterministic DES kernel —
// the paper-scale experiments (up to 13,056 simulated cores).
//
// The primitives ARE the sim primitives, so a run is a pure function of its
// config: the same (time, seq) event schedule every time, including under
// `--sim-threads N`, where each shard's Simulation gets its own VtEnv.
// workflow::PipelineCoupling owns one VtEnv + ZipperBody<VtBinding> per
// pipeline edge. Costs come from two places:
//   * the cluster model (fabric ports, PFS OSTs) — contention, congestion;
//   * calibrated per-rank software rates (VtConfig) representing the
//     runtime's packing/copy/protocol work, fitted to the paper's measured
//     transfer stages.
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

/// The DES edition's knobs: the body's, plus what prices its software paths.
struct VtConfig : BodyConfig {
  // Per-rank software-path rates (bytes/s), calibrated to the paper's Fig 12
  // stage times (see EXPERIMENTS.md): a fast producer's transfer stage is
  // bound by the consumer-side receive processing (~110 MB/s per analysis
  // rank serving 2 producers => ~38 s for 2 GiB/rank), while a slow producer
  // sees only its own sender cost (~140 MB/s => ~15 s).
  double sender_bandwidth = 140e6;   // sender-thread pack+send rate
  double writer_bandwidth = 40e6;    // spill packing rate (fig 14 gains)
  double receiver_bandwidth = 110e6; // consumer-side unpack/match rate
  double reader_bandwidth = 200e6;   // consumer-side PFS fetch processing

  // Credit-based flow control: a sender may have at most this many
  // unacknowledged blocks in flight, so consumer-side backpressure reaches
  // the producer (and shows up in its buffer) like real MPI flow control.
  int sender_window = 4;
};

/// Effect operations against the simulated cluster: mpi::World transport,
/// pfs::ParallelFileSystem files, trace::Recorder spans, WorkloadProfile
/// analysis costs. `file_tag` prefixes the instance's spill/preserve file
/// names ("z" => "zspill_…"/"zpreserve_c…"), so instances sharing one PFS
/// never alias each other's files. `cfg` must outlive the env.
class VtEnv {
 public:
  using ItemT = Item<VtBinding>;
  using MixedT = Mixed<VtBinding>;

  VtEnv(sim::Simulation& sim, mpi::World& world, pfs::ParallelFileSystem& fs,
        trace::Recorder& rec, const apps::WorkloadProfile& profile,
        const VtConfig& cfg, const Placement& at, std::string file_tag)
      : ex_(sim), world_(&world), fs_(&fs), rec_(&rec), profile_(profile),
        cfg_(&cfg), first_producer_rank_(at.first_producer_rank),
        first_consumer_rank_(at.first_consumer_rank),
        file_tag_(std::move(file_tag)),
        in_flight_(static_cast<std::size_t>(at.producers), 0),
        preserve_fid_(static_cast<std::size_t>(at.consumers), 0),
        preserve_offset_(static_cast<std::size_t>(at.consumers), 0) {}

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
    if (in_flight >= cfg_->sender_window) {
      const sim::Time w0 = ex_.now();
      while (in_flight >= cfg_->sender_window) {
        mpi::Envelope ack;
        co_await world_->recv(prank, mpi::kAnySource, kZipperAckTag, ack);
        --in_flight;
      }
      world_->fabric().charge_xmit_wait(world_->host_of(prank),
                                        ex_.now() - w0);
    }
    co_await ex_.simulation().delay(cost(bytes, cfg_->sender_bandwidth));
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
    sim::Time d = cost(bytes, cfg_->receiver_bandwidth);
    d = static_cast<sim::Time>(static_cast<double>(d) * slow);
    co_await ex_.simulation().delay(d);
    world_->isend(consumer_rank(c), producer, kZipperAckTag, 32);
  }

  sim::Task spill_write(int p, const ItemT& it) {
    co_await ex_.simulation().delay(cost(it.h.bytes, cfg_->writer_bandwidth));
    pfs::FileId fid = 0;
    const int host = world_->host_of(producer_rank(p));
    co_await fs_->create(host, spill_name(it.h.id), fid);
    co_await fs_->write(host, fid, 0, it.h.bytes);
  }

  sim::Task fetch_spill(int c, const BlockHeader& h, ItemT& out) {
    co_await fs_->read(world_->host_of(consumer_rank(c)),
                       fs_->id_of(spill_name(h.id)), 0, h.bytes);
    co_await ex_.simulation().delay(cost(h.bytes, cfg_->reader_bandwidth));
    out.h = h;
  }

  sim::Task preserve_open(int c) {
    pfs::FileId fid = 0;
    const int host = world_->host_of(consumer_rank(c));
    co_await fs_->create(host, file_tag_ + "preserve_c" + std::to_string(c),
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
    return first_producer_rank_ + p;
  }
  int consumer_rank(int c) const noexcept {
    return first_consumer_rank_ + c;
  }
  std::string spill_name(const BlockId& id) const {
    return file_tag_ + "spill_" + id.to_string();
  }
  static sim::Time cost(std::uint64_t bytes, double rate) {
    return static_cast<sim::Time>(static_cast<double>(bytes) / rate * 1e9);
  }

  exec::VirtualTimeExecutor ex_;
  mpi::World* world_;
  pfs::ParallelFileSystem* fs_;
  trace::Recorder* rec_;
  apps::WorkloadProfile profile_;
  const VtConfig* cfg_;
  int first_producer_rank_;
  int first_consumer_rank_;
  std::string file_tag_;
  std::vector<int> in_flight_;  // per-producer unacked blocks (credit window)
  std::vector<pfs::FileId> preserve_fid_;
  std::vector<std::uint64_t> preserve_offset_;
};

extern template class ZipperBody<VtBinding>;

}  // namespace zipper::core::zbody
