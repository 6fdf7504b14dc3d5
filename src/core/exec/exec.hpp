// The unified execution layer: one awaitable contract, two executors.
//
// The zipper application body (core/zipper/body.hpp) is written exactly once
// against this contract and instantiated per executor *binding*:
//
//   * VirtualTimeExecutor (virtual_time.hpp) adapts the deterministic DES
//     kernel (sim::Simulation's two-tier bucketed queue). Awaitables are the
//     sim primitives, so a run is one deterministic (time, seq) event
//     sequence — the golden-digest byte-identity oracle pins it down.
//   * EpollExecutor (epoll.hpp) is a real-time event loop on one thread with
//     a monotonic clock. Its awaitables genuinely suspend: a parked coroutine
//     costs a handle on a waitlist, not a thread. Two bindings run on it:
//     NetBinding (zipperd and its clients, single-threaded Ep* primitives)
//     and RtBinding (the embedded rt::Runtime, whose Mt* primitives in
//     mt_sync.hpp also let application threads block on them from outside
//     the loop; the loop takes their wake-ups through post()).
//
// An executor binding `B` provides:
//   B::Task                 coroutine task type (sim::Task works for both)
//   B::Time                 clock type, ns (sim::Time for both)
//   B::Ctx                  primitive-construction context (Simulation& /
//                           EpollExecutor&)
//   B::Mutex / B::CondVar / B::Latch     awaitable sync primitives
//   B::Channel<T>           bounded MPMC channel (awaitable send/recv)
//   B::Payload              per-block payload (empty under virtual time,
//                           shared_ptr<Block> in real time)
//   B::Span                 RAII trace span on the binding's clock
//   B::Env                  the environment: spawn/now/sleep plus the
//                           transport + file-system effect operations
//   B::kConsumersMayAbandon whether an external application thread can stop
//                           draining a consumer mid-run (RtBinding: yes)
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace zipper::core::exec {

/// Per-endpoint counters shared by both executors. One struct for producers
/// and consumers (each side leaves the other's fields at zero), so
/// calibration and the timeline layer see identical fields either way —
/// this removes the old rt-only `wait_ns` asymmetry.
struct RankStats {
  // Producer-side.
  std::uint64_t blocks_written = 0;  // accepted via write()/put
  std::uint64_t blocks_sent = 0;     // via the network path
  std::uint64_t blocks_stolen = 0;   // via the file path (writer steal)
  std::uint64_t stall_ns = 0;        // put blocked on a full buffer
  // Consumer-side.
  std::uint64_t blocks_from_network = 0;
  std::uint64_t blocks_from_disk = 0;
  std::uint64_t blocks_read = 0;       // handed to the analysis loop
  std::uint64_t blocks_preserved = 0;  // persisted (output path or reader)
  std::uint64_t blocks_stolen_from_peers = 0;  // consumer-side work stealing
  std::uint64_t wait_ns = 0;  // blocked waiting for the next block
};

/// Whole-instance aggregate counters of one ZipperBody, the input of the
/// workflow metric formulas (workflow::zipper_metrics). Times are on the
/// binding's clock: simulated ns under virtual time, monotonic ns in real
/// time.
struct AggregateStats {
  sim::Time producer_stall = 0;  // put blocked on a full buffer
  sim::Time sender_busy = 0;     // data-transfer time on sender tasks
  sim::Time writer_busy = 0;     // spill time on writer tasks
  sim::Time analysis_busy = 0;
  sim::Time store_busy = 0;      // Preserve-mode output writes
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_stolen = 0;           // spilled to the PFS (writer path)
  std::uint64_t blocks_consumer_stolen = 0;  // pulled by an idle peer consumer
  std::uint64_t blocks_analyzed = 0;
  std::uint64_t bytes_via_network = 0;
  std::uint64_t bytes_via_pfs = 0;
  // Chaos-resilience counters (zero unless a ChaosEngine / controller runs).
  std::uint64_t put_retries = 0;          // backoff attempts on faulted puts
  std::uint64_t blocks_spilled_slow = 0;  // degraded to PFS after retries
  std::uint64_t control_actions = 0;      // knob changes applied live
};

}  // namespace zipper::core::exec
