// The coupling interface every I/O transport implements.
//
// The workflow runner drives the same producer/consumer processes regardless
// of transport; a Coupling supplies what happens at each step's data output
// (producer_step), at end-of-stream (producer_finalize), and on the analysis
// side (consumer_run). spawn_services() starts any auxiliary processes the
// transport needs — staging servers, Decaf link ranks, Zipper sender/writer
// threads.
#pragma once

#include <map>
#include <string>

#include "sim/task.hpp"

namespace zipper::workflow {

class Coupling {
 public:
  virtual ~Coupling() = default;

  virtual std::string name() const = 0;

  /// Starts auxiliary service processes. Called once before rank processes.
  virtual void spawn_services() {}

  /// Producer rank p hands over step `step`'s output (called right after the
  /// step's compute phases).
  virtual sim::Task producer_step(int p, int step) = 0;

  /// Fine-grain variant for block-granular workloads: the runner interleaves
  /// per-block compute with per-block puts. Step-granular transports (the
  /// norm for the baselines) flush the whole step on the last block.
  virtual sim::Task producer_block(int p, int step, int block, int num_blocks) {
    if (block == num_blocks - 1) co_await producer_step(p, step);
  }

  /// How many blocks per step producer_block should be driven with.
  virtual int producer_blocks_per_step() const { return 1; }

  /// Producer rank p is done; flush and signal end-of-stream downstream.
  virtual sim::Task producer_finalize(int /*p*/) { co_return; }

  /// The whole consumer process c: obtain data, analyze, terminate once all
  /// upstream producers finished.
  virtual sim::Task consumer_run(int c) = 0;

  /// Transport-specific metrics for the benches (blocks stolen, lock time…).
  virtual std::map<std::string, double> metrics() const { return {}; }
};

}  // namespace zipper::workflow
