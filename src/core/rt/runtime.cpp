#include "core/rt/runtime.hpp"

#include <unistd.h>

#include <atomic>
#include <cassert>
#include <optional>
#include <string>
#include <utility>

#include "core/exec/mt_sync.hpp"
#include "core/zipper/rt_binding.hpp"

namespace zipper::core::rt {

namespace fs = std::filesystem;

using ItemT = zbody::Item<zbody::RtBinding>;

// ---------------------------------------------------------------- endpoints --

void ProducerEndpoint::write(BlockId id, std::span<const std::byte> data,
                             std::uint64_t offset) {
  auto block = std::make_shared<Block>();
  block->header = BlockHeader{id, offset, data.size(), false};
  block->payload.assign(data.begin(), data.end());
  const BlockHeader h = block->header;
  exec::run_inline(rt_->body_->put_header(index_, ItemT{h, std::move(block)}));
}

void ProducerEndpoint::finish() {
  assert(!finished_ && "finish() called twice");
  finished_ = true;
  exec::run_inline(rt_->body_->producer_finalize(index_));
  // Block until the sender drained the buffer, joined the writer, and flushed
  // the end-of-stream control messages — the contract finish() always had.
  exec::run_inline(rt_->body_->wait_sender_done(index_));
}

std::uint64_t ProducerEndpoint::suggested_block_bytes() {
  return rt_->body_->suggested_block_bytes(index_);
}

ProducerStats ProducerEndpoint::stats() const {
  return rt_->body_->producer_stats(index_);
}

std::shared_ptr<const Block> ConsumerEndpoint::read() {
  if (ended_) return nullptr;
  std::optional<ItemT> out;
  exec::run_inline(rt_->body_->consumer_next(index_, out));
  if (!out) {
    ended_ = true;
    rt_->body_->close_consumer_output(index_);
    return nullptr;
  }
  return std::move(out->payload);
}

ConsumerStats ConsumerEndpoint::stats() const {
  return rt_->body_->consumer_stats(index_);
}

// ------------------------------------------------------------------ runtime --

namespace {

/// A directory under the system temp dir that no other Runtime, in this
/// process or another, resolves to: spill and preserve files are named by
/// BlockId alone, so Runtimes sharing a directory would read (and delete)
/// each other's blocks.
fs::path private_temp_dir(const char* stem) {
  static std::atomic<unsigned> next{0};
  return fs::temp_directory_path() /
         (std::string(stem) + "_" + std::to_string(::getpid()) + "_" +
          std::to_string(next.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

Runtime::Runtime(int num_producers, int num_consumers, Config config)
    : config_(std::move(config)) {
  assert(num_producers > 0 && num_consumers > 0);
  if (config_.spill_dir.empty()) {
    config_.spill_dir = private_temp_dir("zipper_spill");
    owns_spill_dir_ = true;
  }
  if (config_.mode == Mode::kPreserve) {
    if (config_.preserve_dir.empty()) {
      config_.preserve_dir = private_temp_dir("zipper_preserve");
    }
    fs::create_directories(config_.preserve_dir);
  }
  if (config_.chaos.any()) {
    chaos_ = std::make_shared<chaos::ChaosEngine>(
        config_.chaos, num_producers, num_consumers, config_.chaos_horizon_s);
  }

  zbody::LoopEnvConfig ec;
  ec.spill_dir = config_.spill_dir;
  ec.preserve_dir = config_.preserve_dir;
  ec.preserve = config_.mode == Mode::kPreserve;
  ec.network_bandwidth = config_.network_bandwidth;
  ec.net_channel_blocks = config_.net_channel_blocks;
  ec.chaos_block_service_ns = config_.chaos_block_service_ns;
  ec.recorder = config_.recorder;
  env_ = std::make_unique<zbody::RtEnv>(std::move(ec), num_consumers);

  zbody::BodyConfig bc;
  bc.block_bytes = config_.block_bytes;
  bc.producer_buffer_blocks = static_cast<int>(config_.producer_buffer_blocks);
  bc.high_water = config_.high_water;
  bc.enable_steal = config_.enable_steal;
  bc.preserve = config_.mode == Mode::kPreserve;
  bc.consumer_buffer_blocks = static_cast<int>(config_.consumer_buffer_blocks);
  bc.sched = config_.sched;
  bc.chaos = chaos_;
  bc.max_put_retries = config_.max_put_retries;
  bc.put_retry_backoff = config_.put_retry_backoff;
  bc.controller = config_.controller;
  bc.control_interval = config_.control_interval;
  // Trace-rank convention: producers are ranks 0..P-1, consumers P..P+Q-1;
  // the application chooses its own write() sizes (no step split).
  body_ = std::make_unique<zbody::ZipperBody<zbody::RtBinding>>(
      *env_, std::move(bc),
      zbody::Placement{.producers = num_producers,
                       .consumers = num_consumers,
                       .first_consumer_rank = num_producers});

  consumers_.resize(static_cast<std::size_t>(num_consumers));
  for (int c = 0; c < num_consumers; ++c) {
    consumers_[static_cast<std::size_t>(c)].rt_ = this;
    consumers_[static_cast<std::size_t>(c)].index_ = c;
    body_->spawn_consumer_services(c);
  }
  producers_.resize(static_cast<std::size_t>(num_producers));
  for (int p = 0; p < num_producers; ++p) {
    producers_[static_cast<std::size_t>(p)].rt_ = this;
    producers_[static_cast<std::size_t>(p)].index_ = p;
    body_->spawn_producer_services(p);
  }
  body_->spawn_control();
  env_->start();
}

const chaos::ChaosEngine* Runtime::chaos() const noexcept {
  return chaos_.get();
}

void Runtime::wait_idle() {
  for (int c = 0; c < num_consumers(); ++c) {
    exec::run_inline(body_->wait_consumer_services(c));
  }
}

Runtime::~Runtime() {
  // Emergency teardown must leave no service coroutine parked, or the loop
  // would never run out of roots and the join below would hang. Close the
  // transport first so an unfinished producer's sender cannot wedge on a net
  // channel no consumer drains anymore (a send on a closed channel fails
  // silently).
  env_->close_transport();
  for (auto& pe : producers_) {
    if (!pe.finished_) {
      exec::run_inline(body_->producer_finalize(pe.index_));
      exec::run_inline(body_->wait_sender_done(pe.index_));
    }
  }
  env_->stop_control();
  // Unblock every consumer-side stage (a consumer abandoned mid-stream could
  // otherwise leave its reader parked on a full buffer), then join the loop
  // thread while the body the coroutines reference is still alive.
  body_->emergency_close_consumers();
  env_->join();
  if (owns_spill_dir_) {
    std::error_code ec;
    fs::remove_all(config_.spill_dir, ec);
  }
}

}  // namespace zipper::core::rt
