// Network binding: runs ZipperBody over real sockets on the EpollExecutor.
//
// The third instantiation (after VtBinding and RtBinding): producers live in
// the client process, consumers in the zipperd daemon, and every mixed
// message crosses a localhost TCP connection as a length-prefixed frame
// (net_frame.hpp). One NetEnv instance serves one side of one session:
//
//   * client role — attach_wire() hands it the connected socket; send_mixed/
//     send_done encode a frame head and write head + block payload with one
//     scatter-gather sendmsg() through the epoll loop, so the payload is
//     never copied in user space (short writes advance the iovec and park on
//     wait_writable). The spill path writes real files
//     into the session's shared spill directory — the "PFS" the daemon's
//     reader fetches degraded blocks from, so the resilience ladder's
//     exactly-once guarantee holds across processes. The directory is
//     created by the first spill, so a session that never spills does no
//     filesystem work at all.
//   * daemon role — the session demux decodes frames and deliver_mixed()s
//     them into per-consumer EpChannels; recv_mixed is a channel recv. EOF
//     or a frame error closes the queues and the body unwinds exactly like
//     the threaded shutdown path.
//
// A hard socket error on the client marks the wire broken and turns further
// sends into no-ops instead of throwing: the body's senders finish, the
// session layer sees wire_error() and reports the failure — one dead session
// cannot take down a load driver multiplexing thousands.
//
// Everything runs on one epoll loop thread, file operations included: the
// Ep* primitives take no lock.
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/exec/epoll.hpp"
#include "core/zipper/body.hpp"
#include "core/zipper/loop_env.hpp"
#include "core/zipper/net_frame.hpp"

namespace zipper::core::zbody {

class NetEnv;

struct NetBinding {
  using Task = sim::Task;
  using Time = sim::Time;
  using Ctx = exec::EpollExecutor;
  using Mutex = exec::EpMutex;
  using CondVar = exec::EpCondVar;
  using Latch = exec::EpLatch;
  template <typename T>
  using Channel = exec::EpChannel<T>;
  /// Real blocks carry their bytes across the wire.
  using Payload = std::shared_ptr<Block>;
  using Span = LoopSpan<NetEnv>;
  using Env = NetEnv;
  /// Daemon consumers are loop coroutines that always drain.
  static constexpr bool kConsumersMayAbandon = false;
};

class NetEnv : public LoopEnv<NetBinding> {
 public:
  NetEnv(exec::EpollExecutor& ex, LoopEnvConfig cfg, int num_consumers)
      : LoopEnv(ex, std::move(cfg), num_consumers), wire_m_(ex) {}

  // ------------------------------------------------------- client role ----

  /// Hands the env the connected (non-blocking) socket. The env never owns
  /// or closes the fd — the session layer does.
  void attach_wire(int fd) noexcept { wire_fd_ = fd; }

  /// Non-empty once a send hit a hard socket error; sends are no-ops after.
  const std::string& wire_error() const noexcept { return wire_error_; }

  /// `msg` lives in this coroutine's frame until the frame is written, and
  /// with it the Block whose payload the write reads in place.
  sim::Task send_mixed(int p, int c, MixedT msg) {
    net::WireMixed w;
    w.has_block = msg.has_block;
    w.done = msg.done;
    w.producer = msg.producer;
    w.consumer = c;
    w.block = msg.item.h;
    w.ids_on_disk = std::move(msg.ids_on_disk);
    w.sent_raw_ns =
        static_cast<std::uint64_t>(exec::EpollExecutor::raw_now());
    std::span<const std::byte> payload;
    if (msg.has_block && msg.item.payload) {
      payload = msg.item.payload->payload;
    }
    (void)p;
    co_await write_frame(net::encode_mixed_head(w, payload), payload);
  }

  sim::Task send_done(int p, int c, MixedT msg) {
    return send_mixed(p, c, std::move(msg));
  }

  /// Writes one whole frame — `head` then `tail`, which the caller keeps
  /// alive until this completes — serialized against concurrent senders so
  /// frames never interleave on the wire. Short writes park on epoll
  /// writability — this is where real TCP backpressure (including
  /// chaos-injected daemon read stalls) reaches the producer side.
  sim::Task write_frame(std::vector<std::byte> head,
                        std::span<const std::byte> tail = {}) {
    if (wire_fd_ < 0 || !wire_error_.empty()) co_return;
    co_await wire_m_.lock();
    iovec iov[2] = {{head.data(), head.size()},
                    {const_cast<std::byte*>(tail.data()), tail.size()}};
    std::size_t first = 0;
    const std::size_t count = tail.empty() ? 1 : 2;
    while (first < count && wire_error_.empty()) {
      msghdr mh{};
      mh.msg_iov = iov + first;
      mh.msg_iovlen = count - first;
      const ssize_t n = ::sendmsg(wire_fd_, &mh, MSG_NOSIGNAL);
      if (n >= 0) {
        // Drop the fully written iovecs, trim the partially written one.
        auto left = static_cast<std::size_t>(n);
        while (first < count && left >= iov[first].iov_len) {
          left -= iov[first].iov_len;
          ++first;
        }
        if (first < count) {
          iov[first].iov_base =
              static_cast<std::byte*>(iov[first].iov_base) + left;
          iov[first].iov_len -= left;
        }
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!co_await ex_->wait_writable(wire_fd_)) {
          wire_error_ = "wire cancelled";
        }
        continue;
      }
      if (errno == EINTR) continue;
      wire_error_ = std::string("sendmsg: ") + std::strerror(errno);
    }
    wire_m_.unlock();
  }

  // ------------------------------------------------------- daemon role ----

  /// Demux -> consumer queue, with channel backpressure (a full consumer
  /// stalls the session demux, which stalls the client's TCP stream). After
  /// close_transport() the message is dropped: the session is unwinding.
  sim::Task deliver_mixed(int c, MixedT msg) {
    exec::EpChannel<MixedT>& net = *nets_[static_cast<std::size_t>(c)];
    if (!net.closed()) co_await net.send(std::move(msg));
  }

  // --------------------------------------------------------- spill/PFS ----

  /// Non-empty once a spill/preserve file operation failed.
  const std::string& io_error() const noexcept { return io_error_; }

  /// True once a spill created cfg_.spill_dir; its owner removes it.
  bool made_spill_dir() const noexcept { return made_spill_dir_; }

  /// Runs a file operation inline on the loop. Its errors are
  /// session-fatal, not process-fatal: they mark io_error() (the session
  /// layer reports the failure in its summary) instead of throwing out of a
  /// body service coroutine and killing the whole daemon.
  sim::Task file_io(const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      if (io_error_.empty()) io_error_ = e.what();
    }
    co_return;
  }

  // ------------------------------------------------------- misc contract ----

  /// A stealing consumer's poll interval: a loop timer.
  auto nap() { return sleep(kStealPoll); }

  void stop_control() { end_control(); }

 private:
  exec::EpMutex wire_m_;
  int wire_fd_ = -1;
  std::string wire_error_;
  std::string io_error_;
};

extern template class ZipperBody<NetBinding>;

}  // namespace zipper::core::zbody
