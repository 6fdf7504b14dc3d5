// VirtualTimeExecutor: the unified-execution adapter over the deterministic
// DES kernel.
//
// This is deliberately a zero-cost veneer: the primitive aliases ARE the sim
// primitives, and the executor converts implicitly to sim::Simulation& so
// they construct straight off it. Code written against the exec contract
// therefore compiles to exactly the same awaiter/event sequence as code
// written directly against sim::Simulation — preserving the (time, seq)
// determinism contract and the sharded mode (a shard's executor simply wraps
// that shard's Simulation).
#pragma once

#include "sim/channel.hpp"
#include "sim/latch.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace zipper::core::exec {

class VirtualTimeExecutor {
 public:
  explicit VirtualTimeExecutor(sim::Simulation& sim) : sim_(&sim) {}

  sim::Time now() const noexcept { return sim_->now(); }
  void spawn(sim::Task t) { sim_->spawn(std::move(t)); }
  auto sleep_until(sim::Time t) noexcept { return sim_->delay(t - sim_->now()); }
  auto yield() noexcept { return sim_->delay(0); }

  sim::Simulation& simulation() noexcept { return *sim_; }
  operator sim::Simulation&() noexcept { return *sim_; }

 private:
  sim::Simulation* sim_;
};

}  // namespace zipper::core::exec
