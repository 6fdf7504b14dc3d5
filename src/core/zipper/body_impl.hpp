// Definitions for ZipperBody<B>. Included only by body.cpp (the explicit-
// instantiation translation unit) — application code includes body.hpp plus
// a binding header and links against the prebuilt instantiations.
//
// Under the virtual-time binding every co_await here is one step of the DES
// event schedule, which the golden figure digests pin byte-for-byte. When editing, keep the order of
// scheduling operations (lock/wait/notify/channel/env calls) intact; counter
// updates are schedule-neutral and may move freely between them.
#pragma once

#include "core/zipper/body.hpp"

namespace zipper::core::zbody {

// ----------------------------------------------------------- member structs --

/// Coroutine analog of the paper's producer side (Fig 8): bounded buffer,
/// sender service, work-stealing writer service — same Algorithm-1 policy on
/// both executors, consulted through the pluggable sched layer.
template <class B>
struct ZipperBody<B>::Producer {
  Producer(typename B::Ctx& x, const sched::SchedConfig& sc, StealPolicy base,
           std::uint64_t block_bytes)
      : spill(sc, base), sizer(sc, block_bytes), q(base.capacity), m(x),
        not_full(x), not_empty(x), above_threshold(x),
        writer_done(x, base.enabled ? 1 : 0), sender_done(x, 1) {}

  sched::SpillPolicy spill;
  sched::BlockSizer sizer;
  common::RingBuffer<ItemT> q;
  bool closed = false;
  typename B::Mutex m;  // protects q/closed across suspension points
  typename B::CondVar not_full, not_empty, above_threshold;
  typename B::Latch writer_done;
  typename B::Latch sender_done;  // sender flushed its done messages
  // Spilled headers per consumer, drained into mixed messages. Only the
  // producer's services touch it: DES events or coroutines of one loop,
  // which never interleave inside these sections, so it needs no lock.
  std::map<int, std::vector<BlockHeader>> spilled;
};

template <class B>
struct ZipperBody<B>::Consumer {
  Consumer(typename B::Ctx& x, int buffer_cap, int services)
      : buffer(x, static_cast<std::size_t>(buffer_cap)), reader_q(x, 0),
        output_q(x, 0), output_done(x, 1), services_done(x, services) {}

  typename B::template Channel<ItemT> buffer;          // the consumer buffer
  typename B::template Channel<BlockHeader> reader_q;  // block IDs on disk
  typename B::template Channel<ItemT> output_q;  // Preserve persistence queue
  typename B::Latch output_done;
  typename B::Latch services_done;  // receiver + reader (+ output) finished
  int expected_producers = 0;
};

// ------------------------------------------------------------- construction --

template <class B>
ZipperBody<B>::ZipperBody(Env& env, BodyConfig cfg, const Placement& at)
    : env_(&env), cfg_(std::move(cfg)), at_(at),
      blocks_per_step_(static_cast<int>(
          (at.step_bytes + cfg_.block_bytes - 1) / cfg_.block_bytes)),
      ctx_(at.producers, at.consumers),
      route_(cfg_.sched, at.producers, at.consumers),
      prank_stats_(
          new detail::AtomicRankStats[static_cast<std::size_t>(at.producers)]),
      crank_stats_(
          new detail::AtomicRankStats[static_cast<std::size_t>(at.consumers)]),
      live_control_(static_cast<bool>(cfg_.controller)),
      spill_on_(cfg_.enable_steal),
      consumer_steal_(cfg_.sched.consumer_steal),
      route_kind_(cfg_.sched.route),
      control_done_(env.prim(), live_control_ ? 1 : 0) {
  // With a live controller the spill channel may be switched on mid-run, so
  // the writers exist (and the SpillPolicy is armed) even when the run starts
  // with spilling off; spill_on_ gates them until then.
  const StealPolicy base{static_cast<std::size_t>(cfg_.producer_buffer_blocks),
                         cfg_.high_water, cfg_.enable_steal || live_control_};
  for (int p = 0; p < at_.producers; ++p) {
    producers_.push_back(std::make_unique<Producer>(env_->prim(), cfg_.sched,
                                                    base, cfg_.block_bytes));
  }
  for (int c = 0; c < at_.consumers; ++c) {
    auto cons = std::make_unique<Consumer>(env_->prim(),
                                           cfg_.consumer_buffer_blocks,
                                           2 + (cfg_.preserve ? 1 : 0));
    // A controller may re-route mid-run, so end-of-stream bookkeeping must
    // use the unpinned protocol: every consumer hears from every producer.
    cons->expected_producers = live_control_ || at_.peer_live_control
                                   ? at_.producers
                                   : route_.expected_producers(c);
    consumers_.push_back(std::move(cons));
  }
}

template <class B>
ZipperBody<B>::~ZipperBody() = default;

template <class B>
void ZipperBody<B>::spawn_producer_services(int p) {
  env_->spawn(sender_main(p));
  if (cfg_.enable_steal || live_control_) env_->spawn(writer_main(p));
}

template <class B>
void ZipperBody<B>::spawn_consumer_services(int c) {
  Consumer& cm = *consumers_[static_cast<std::size_t>(c)];
  env_->spawn(receiver_main(c));
  env_->spawn(reader_main(c));
  if (cfg_.preserve) {
    env_->spawn(output_main(c));
  } else {
    cm.output_done.count_down();
  }
}

template <class B>
void ZipperBody<B>::spawn_control() {
  if (live_control_) env_->spawn(control_main());
}

// ------------------------------------------------------------ routing state --

template <class B>
int ZipperBody<B>::route_for(const BlockId& id) const {
  if (!live_control_) return route_.consumer_for(id, ctx_);
  sched::SchedConfig sc = cfg_.sched;
  sc.route = route_kind_.load(std::memory_order_relaxed);
  return sched::RoutePolicy(sc, at_.producers, at_.consumers)
      .consumer_for(id, ctx_);
}

template <class B>
std::vector<BlockHeader> ZipperBody<B>::take_spilled(Producer& pm, int c) {
  auto it = pm.spilled.find(c);
  if (it == pm.spilled.end()) return {};
  auto out = std::move(it->second);
  pm.spilled.erase(it);
  return out;
}

template <class B>
void ZipperBody<B>::add_spilled(Producer& pm, int c, const BlockHeader& h) {
  pm.spilled[c].push_back(h);
}

// ----------------------------------------------------------- producer side --

template <class B>
typename B::Task ZipperBody<B>::put_header(int p, ItemT it) {
  Producer& pm = *producers_[static_cast<std::size_t>(p)];
  detail::AtomicRankStats& rs = prank_stats_[static_cast<std::size_t>(p)];
  co_await pm.m.lock();
  if (pm.q.size() >= pm.spill.capacity()) {
    const Time t0 = env_->now();
    while (pm.q.size() >= pm.spill.capacity()) co_await pm.not_full.wait(pm.m);
    const Time dt = env_->now() - t0;
    agg_.producer_stall.fetch_add(dt, std::memory_order_relaxed);
    ctx_.add_stall(p, static_cast<std::uint64_t>(dt));
    rs.stall_ns.fetch_add(static_cast<std::uint64_t>(dt),
                          std::memory_order_relaxed);
    // t0 + dt, not a fresh now(): keeps span totals and the stall counter
    // exactly equal on the real clock (identical under virtual time).
    env_->record_span(producer_rank(p), trace::Cat::kStall, t0, t0 + dt);
  }
  pm.q.push_back(std::move(it));
  agg_.blocks_total.fetch_add(1, std::memory_order_relaxed);
  rs.blocks_written.fetch_add(1, std::memory_order_relaxed);
  pm.not_empty.notify_one();
  if (pm.spill.wake_writer(pm.q.size())) pm.above_threshold.notify_one();
  pm.m.unlock();
}

template <class B>
typename B::Task ZipperBody<B>::producer_put_block(int p, int step, int b,
                                                   int num_blocks) {
  assert(num_blocks > 0 && b < num_blocks);
  BlockHeader h;
  h.id = BlockId{step, p, b};
  if (num_blocks == blocks_per_step_) {
    // The runtime's own split: config-sized blocks, remainder in the last.
    h.offset = static_cast<std::uint64_t>(b) * cfg_.block_bytes;
    h.bytes = (b == num_blocks - 1)
                  ? at_.step_bytes -
                        static_cast<std::uint64_t>(num_blocks - 1) * cfg_.block_bytes
                  : cfg_.block_bytes;
  } else {
    // Caller-chosen granularity: proportional split total*k/n boundaries,
    // which balances to within one byte and cannot underflow the remainder
    // however num_blocks relates to the step's bytes.
    const std::uint64_t total = at_.step_bytes;
    const std::uint64_t nb = static_cast<std::uint64_t>(num_blocks);
    const std::uint64_t i = static_cast<std::uint64_t>(b);
    h.offset = total * i / nb;
    h.bytes = total * (i + 1) / nb - h.offset;
  }
  return put_header(p, ItemT{h, {}});
}

template <class B>
typename B::Task ZipperBody<B>::producer_put(int p, int step) {
  Producer& pm = *producers_[static_cast<std::size_t>(p)];
  // One BlockSizer consultation per step: the whole-step put is the path
  // where the runtime itself chooses the split granularity. A live
  // controller override (if any) takes precedence over the sizer.
  const std::uint64_t live = live_block_bytes_.load(std::memory_order_relaxed);
  const std::uint64_t bsz =
      live ? live : pm.sizer.next_block_bytes(ctx_.stall_ns(p));
  const int nb = static_cast<int>((at_.step_bytes + bsz - 1) / bsz);
  for (int b = 0; b < nb; ++b) {
    BlockHeader h;
    h.id = BlockId{step, p, b};
    h.offset = static_cast<std::uint64_t>(b) * bsz;
    h.bytes = (b == nb - 1)
                  ? at_.step_bytes - static_cast<std::uint64_t>(nb - 1) * bsz
                  : bsz;
    co_await put_header(p, ItemT{h, {}});
  }
}

template <class B>
typename B::Task ZipperBody<B>::producer_finalize(int p) {
  Producer& pm = *producers_[static_cast<std::size_t>(p)];
  co_await pm.m.lock();
  pm.closed = true;
  pm.not_empty.notify_all();
  pm.above_threshold.notify_all();
  pm.m.unlock();
  // The sender service drains the queue, joins the writer, and emits the
  // final control messages; nothing further to do on the put path.
}

template <class B>
typename B::Task ZipperBody<B>::wait_sender_done(int p) {
  Producer& pm = *producers_[static_cast<std::size_t>(p)];
  co_await pm.sender_done.wait();
}

template <class B>
std::uint64_t ZipperBody<B>::suggested_block_bytes(int p) {
  Producer& pm = *producers_[static_cast<std::size_t>(p)];
  return pm.sizer.next_block_bytes(ctx_.stall_ns(p));
}

template <class B>
typename B::Task ZipperBody<B>::sender_main(int p) {
  Producer& pm = *producers_[static_cast<std::size_t>(p)];
  detail::AtomicRankStats& rs = prank_stats_[static_cast<std::size_t>(p)];
  while (true) {
    co_await pm.m.lock();
    while (pm.q.empty() && !pm.closed) co_await pm.not_empty.wait(pm.m);
    if (pm.q.empty() && pm.closed) {
      pm.m.unlock();
      break;
    }
    ItemT it = pm.q.take_front();
    pm.not_full.notify_one();
    pm.m.unlock();

    const int c = route_for(it.h.id);
    // Resilience path: a put addressed to a consumer inside a fault window
    // times out. Back off exponentially and retry; if the fault outlasts
    // the retry budget, declare the consumer slow and degrade the block to
    // the file-system channel so the producer keeps streaming.
    if (cfg_.chaos && cfg_.chaos->fault_active(c, env_->now_s())) {
      bool degraded = true;
      Time backoff = cfg_.put_retry_backoff;
      const Time w0 = env_->now();
      for (int attempt = 0; attempt < cfg_.max_put_retries; ++attempt) {
        agg_.put_retries.fetch_add(1, std::memory_order_relaxed);
        co_await env_->sleep(backoff);
        backoff *= 2;
        if (!cfg_.chaos->fault_active(c, env_->now_s())) {
          degraded = false;  // consumer recovered inside the retry budget
          break;
        }
      }
      // Backoff is transmit stall (data ready, peer won't take it), charged
      // like any congestion-control wait.
      env_->charge_backoff_wait(p, env_->now() - w0);
      if (degraded) {
        co_await spill_slow(p, std::move(it), c);
        continue;
      }
    }
    ctx_.on_routed(c);
    MixedT msg;
    msg.has_block = true;
    msg.producer = producer_rank(p);
    msg.ids_on_disk = take_spilled(pm, c);
    const std::uint64_t bytes = it.h.bytes;
    msg.item = std::move(it);
    {
      auto span = env_->span(producer_rank(p), trace::Cat::kTransfer);
      const Time t0 = env_->now();
      co_await env_->send_mixed(p, c, std::move(msg));
      agg_.sender_busy.fetch_add(env_->now() - t0, std::memory_order_relaxed);
      agg_.bytes_via_network.fetch_add(bytes, std::memory_order_relaxed);
      rs.blocks_sent.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Wait for the writer to finish its in-flight spill before flushing the
  // final spilled-ID lists.
  co_await pm.writer_done.wait();
  std::vector<int> fed;
  if (live_control_) {
    // Unpinned protocol (route may have changed mid-run): every consumer
    // hears end-of-stream from every producer.
    fed.resize(static_cast<std::size_t>(at_.consumers));
    for (int c = 0; c < at_.consumers; ++c) {
      fed[static_cast<std::size_t>(c)] = c;
    }
  } else {
    fed = route_.consumers_fed_by(p);
  }
  for (int c : fed) {
    MixedT msg;
    msg.done = true;
    msg.producer = producer_rank(p);
    msg.ids_on_disk = take_spilled(pm, c);
    co_await env_->send_done(p, c, std::move(msg));
  }
  pm.sender_done.count_down();
}

template <class B>
typename B::Task ZipperBody<B>::writer_main(int p) {
  Producer& pm = *producers_[static_cast<std::size_t>(p)];
  detail::AtomicRankStats& rs = prank_stats_[static_cast<std::size_t>(p)];
  while (true) {
    co_await pm.m.lock();
    while (!pm.closed &&
           !(spill_on_.load(std::memory_order_relaxed) &&
             pm.spill.should_spill(pm.q.size(), ctx_.stall_ns(p)))) {
      co_await pm.above_threshold.wait(pm.m);
    }
    if (pm.closed) {
      pm.m.unlock();
      break;
    }
    ItemT it = pm.q.take_front();  // Algorithm 1: steal the first block
    pm.not_full.notify_one();
    pm.m.unlock();

    {
      auto span = env_->span(producer_rank(p), trace::Cat::kSteal);
      const Time t0 = env_->now();
      co_await env_->spill_write(p, it);
      agg_.writer_busy.fetch_add(env_->now() - t0, std::memory_order_relaxed);
      agg_.bytes_via_pfs.fetch_add(it.h.bytes, std::memory_order_relaxed);
    }
    agg_.blocks_stolen.fetch_add(1, std::memory_order_relaxed);
    rs.blocks_stolen.fetch_add(1, std::memory_order_relaxed);
    it.h.on_disk = true;
    const int c = route_for(it.h.id);
    ctx_.on_routed(c);
    add_spilled(pm, c, it.h);
  }
  pm.writer_done.count_down();
}

template <class B>
typename B::Task ZipperBody<B>::spill_slow(int p, ItemT it, int c) {
  Producer& pm = *producers_[static_cast<std::size_t>(p)];
  {
    auto span = env_->span(producer_rank(p), trace::Cat::kSteal);
    const Time t0 = env_->now();
    co_await env_->spill_write(p, it);
    agg_.writer_busy.fetch_add(env_->now() - t0, std::memory_order_relaxed);
    agg_.bytes_via_pfs.fetch_add(it.h.bytes, std::memory_order_relaxed);
  }
  agg_.blocks_spilled_slow.fetch_add(1, std::memory_order_relaxed);
  it.h.on_disk = true;
  ctx_.on_routed(c);
  add_spilled(pm, c, it.h);
}

// ------------------------------------------------------- online controller --

template <class B>
typename B::Task ZipperBody<B>::control_main() {
  std::uint64_t last_stall = 0;
  std::uint64_t last_analyzed = 0;
  // Runs until stopped: externally (virtual time — the workflow's finish
  // watcher halts the simulation) or via the env's stop flag (threads).
  while (true) {
    bool alive = false;
    co_await env_->control_tick(cfg_.control_interval, alive);
    if (!alive) break;
    chaos::ControlSnapshot snap;
    snap.now_s = env_->now_s();
    snap.window_s = sim::to_seconds(cfg_.control_interval);
    const std::uint64_t stall = ctx_.total_stall_ns();
    snap.stall_s = static_cast<double>(stall - last_stall) / 1e9;
    last_stall = stall;
    snap.stall_fraction =
        snap.stall_s / (snap.window_s * static_cast<double>(at_.producers));
    snap.max_queued = ctx_.max_queued();
    const std::uint64_t analyzed =
        agg_.blocks_analyzed.load(std::memory_order_relaxed);
    snap.blocks_analyzed = analyzed - last_analyzed;
    last_analyzed = analyzed;
    const chaos::ControlAction act = cfg_.controller(snap);
    if (act.any()) co_await apply_action(act);
  }
  control_done_.count_down();
}

template <class B>
typename B::Task ZipperBody<B>::wait_control_done() {
  co_await control_done_.wait();
}

template <class B>
typename B::Task ZipperBody<B>::apply_action(chaos::ControlAction act) {
  agg_.control_actions.fetch_add(1, std::memory_order_relaxed);
  if (act.route && *act.route != route_kind_.load(std::memory_order_relaxed)) {
    route_kind_.store(*act.route, std::memory_order_relaxed);
  }
  if (act.consumer_steal) {
    consumer_steal_.store(*act.consumer_steal, std::memory_order_relaxed);
  }
  if (act.block_bytes) {
    live_block_bytes_.store(*act.block_bytes, std::memory_order_relaxed);
  }
  if (act.spill && *act.spill != spill_on_.load(std::memory_order_relaxed)) {
    spill_on_.store(*act.spill, std::memory_order_relaxed);
    if (*act.spill) {
      // Stalled producers pushed their last block before parking, so no
      // fresh push will ring the wake bell — ring it here.
      for (auto& pm : producers_) {
        co_await pm->m.lock();
        pm->above_threshold.notify_all();
        pm->m.unlock();
      }
    }
  }
}

// ----------------------------------------------------------- consumer side --

template <class B>
typename B::Task ZipperBody<B>::receiver_main(int c) {
  Consumer& cm = *consumers_[static_cast<std::size_t>(c)];
  detail::AtomicRankStats& rs = crank_stats_[static_cast<std::size_t>(c)];
  int done = 0;
  while (done < cm.expected_producers) {
    std::optional<MixedT> msg;
    co_await env_->recv_mixed(c, msg);
    if (!msg) break;  // transport closed (threaded shutdown)
    for (const BlockHeader& h : msg->ids_on_disk) co_await cm.reader_q.send(h);
    if (msg->has_block) {
      // Straggler / fault injection lands here: the consumer-side unpack and
      // match work is what a slow rank serves slowly.
      const double slow =
          cfg_.chaos ? cfg_.chaos->consumer_slowdown(c, env_->now_s()) : 1.0;
      co_await env_->receive_block(c, msg->item.h.bytes, msg->producer, slow);
      rs.blocks_from_network.fetch_add(1, std::memory_order_relaxed);
      co_await cm.buffer.send(std::move(msg->item));
    }
    if (msg->done) ++done;
  }
  cm.reader_q.close();
  cm.services_done.count_down();
}

template <class B>
typename B::Task ZipperBody<B>::reader_main(int c) {
  Consumer& cm = *consumers_[static_cast<std::size_t>(c)];
  detail::AtomicRankStats& rs = crank_stats_[static_cast<std::size_t>(c)];
  while (true) {
    auto h = co_await cm.reader_q.recv();
    if (!h) break;
    {
      auto span = env_->span(consumer_rank(c), trace::Cat::kRead);
      ItemT it;
      co_await env_->fetch_spill(c, *h, it);
      it.h.on_disk = true;
      rs.blocks_from_disk.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.preserve) {
        // Disk-path blocks are persisted by the fetch itself (the spill file
        // moves to its final home), not by the output service.
        rs.blocks_preserved.fetch_add(1, std::memory_order_relaxed);
      }
      co_await cm.buffer.send(std::move(it));
    }
  }
  cm.buffer.close();
  cm.services_done.count_down();
}

template <class B>
typename B::Task ZipperBody<B>::output_main(int c) {
  Consumer& cm = *consumers_[static_cast<std::size_t>(c)];
  detail::AtomicRankStats& rs = crank_stats_[static_cast<std::size_t>(c)];
  co_await env_->preserve_open(c);
  while (true) {
    auto it = co_await cm.output_q.recv();
    if (!it) break;
    {
      auto span = env_->span(consumer_rank(c), trace::Cat::kStore);
      const Time t0 = env_->now();
      co_await env_->preserve_write(c, *it);
      agg_.store_busy.fetch_add(env_->now() - t0, std::memory_order_relaxed);
    }
    rs.blocks_preserved.fetch_add(1, std::memory_order_relaxed);
  }
  cm.output_done.count_down();
  cm.services_done.count_down();
}

template <class B>
std::optional<std::pair<typename ZipperBody<B>::ItemT, int>>
ZipperBody<B>::try_steal(int thief) {
  int victim = -1;
  std::size_t deepest = 0;
  for (int v = 0; v < at_.consumers; ++v) {
    if (v == thief) continue;
    const std::size_t n = consumers_[static_cast<std::size_t>(v)]->buffer.size();
    if (n >= cfg_.sched.steal_min_queue && n > deepest) {
      deepest = n;
      victim = v;
    }
  }
  if (victim < 0) return std::nullopt;
  auto it = consumers_[static_cast<std::size_t>(victim)]->buffer.try_recv();
  if (!it) return std::nullopt;
  return std::make_pair(std::move(*it), victim);
}

template <class B>
bool ZipperBody<B>::all_consumer_buffers_drained() const {
  for (const auto& cm : consumers_) {
    if (!cm->buffer.closed() || !cm->buffer.empty()) return false;
  }
  return true;
}

template <class B>
typename B::Task ZipperBody<B>::consumer_next(int c, std::optional<ItemT>& out) {
  Consumer& cm = *consumers_[static_cast<std::size_t>(c)];
  detail::AtomicRankStats& rs = crank_stats_[static_cast<std::size_t>(c)];
  const Time w0 = env_->now();
  while (true) {
    // Re-read each iteration: the online controller may flip stealing on
    // mid-run (a no-op re-read on the default path).
    const bool stealing = consumer_stealing() && at_.consumers > 1;
    std::optional<ItemT> it;
    int routed_to = c;  // consumer whose outstanding count this block holds
    bool ended = false;
    if (!stealing) {
      it = co_await cm.buffer.recv();
      if (!it) ended = true;
    } else if (auto own = cm.buffer.try_recv()) {
      it = std::move(*own);
    } else if (auto stolen = try_steal(c)) {
      // An idle consumer pulls a whole ready block from the deepest peer.
      // Blocks are self-describing (§4.2), so delivery re-sequences cleanly:
      // the thief analyzes and (in Preserve mode) persists it as its own.
      it = std::move(stolen->first);
      routed_to = stolen->second;
      agg_.blocks_consumer_stolen.fetch_add(1, std::memory_order_relaxed);
      rs.blocks_stolen_from_peers.fetch_add(1, std::memory_order_relaxed);
    } else if (cm.buffer.closed()) {
      // Own stream drained: stay on as a thief until every peer drained too.
      if (all_consumer_buffers_drained()) {
        ended = true;
      } else {
        if constexpr (B::kConsumersMayAbandon) {
          // Drain mode: a peer whose buffer is also closed can never grow
          // past the steal threshold again, so take its leftovers at any
          // depth — without this, a peer abandoned mid-drain (its
          // application thread died or stopped reading) would strand every
          // thief in the nap loop forever.
          for (int v = 0; v < at_.consumers && !it; ++v) {
            if (v == c) continue;
            auto& vm = *consumers_[static_cast<std::size_t>(v)];
            if (!vm.buffer.closed() || vm.buffer.empty()) continue;
            if (auto stolen2 = vm.buffer.try_recv()) {
              it = std::move(*stolen2);
              routed_to = v;
              agg_.blocks_consumer_stolen.fetch_add(1,
                                                    std::memory_order_relaxed);
              rs.blocks_stolen_from_peers.fetch_add(1,
                                                    std::memory_order_relaxed);
            }
          }
        }
        if (!it) {
          co_await env_->drain_nap();
          continue;
        }
      }
    } else {
      co_await env_->idle_recv(cm.buffer, it);
      if (!it) continue;
    }
    if (ended) break;
    rs.wait_ns.fetch_add(static_cast<std::uint64_t>(env_->now() - w0),
                         std::memory_order_relaxed);
    ctx_.on_analyzed(routed_to);
    if (cfg_.on_analyzed) cfg_.on_analyzed(c, it->h);
    if (cfg_.preserve && !it->h.on_disk) co_await cm.output_q.send(*it);
    rs.blocks_read.fetch_add(1, std::memory_order_relaxed);
    out = std::move(it);
    co_return;
  }
}

template <class B>
typename B::Task ZipperBody<B>::consumer_run(int c) {
  Consumer& cm = *consumers_[static_cast<std::size_t>(c)];
  spawn_consumer_services(c);
  while (true) {
    std::optional<ItemT> it;
    co_await consumer_next(c, it);
    if (!it) break;
    {
      auto span = env_->span(consumer_rank(c), trace::Cat::kAnalysis);
      const Time t0 = env_->now();
      Time at = env_->analysis_cost(it->h.bytes);
      if (cfg_.chaos) {
        at = static_cast<Time>(
            static_cast<double>(at) *
            cfg_.chaos->consumer_slowdown(c, env_->now_s()));
      }
      co_await env_->sleep(at);
      agg_.analysis_busy.fetch_add(env_->now() - t0, std::memory_order_relaxed);
    }
    agg_.blocks_analyzed.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.on_output) cfg_.on_output(c, it->h);
  }
  cm.output_q.close();
  co_await cm.output_done.wait();
}

template <class B>
void ZipperBody<B>::close_consumer_output(int c) {
  consumers_[static_cast<std::size_t>(c)]->output_q.close();
}

template <class B>
typename B::Task ZipperBody<B>::wait_consumer_services(int c) {
  Consumer& cm = *consumers_[static_cast<std::size_t>(c)];
  co_await cm.services_done.wait();
}

template <class B>
int ZipperBody<B>::expected_end_markers(int c) const {
  return consumers_[static_cast<std::size_t>(c)]->expected_producers;
}

template <class B>
void ZipperBody<B>::emergency_close_consumers() {
  for (auto& cm : consumers_) {
    cm->buffer.close();
    cm->reader_q.close();
    cm->output_q.close();
  }
}

}  // namespace zipper::core::zbody
