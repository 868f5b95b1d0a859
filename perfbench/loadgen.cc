#include "loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "net/protocol.h"
#include "net/socket_io.h"
#include "stats.h"
#include "tracing.h"

namespace wnrs {
namespace perfbench {

std::vector<std::string> EncodeFrames(
    const std::vector<serve::WhyNotRequest>& requests) {
  std::vector<std::string> frames;
  frames.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    frames.push_back(net::EncodeRequestFrame(i + 1, requests[i]));
  }
  return frames;
}

namespace {

/// Decodes one response frame into its request's outcome.
void Record(const std::string& payload, int64_t recv_ns, PhaseRun* run) {
  auto decoded = net::DecodeResponsePayload(payload);
  if (!decoded.ok()) return;
  const uint64_t id = decoded.value().request_id;
  if (id == 0 || id > run->outcomes.size()) return;
  Outcome& out = run->outcomes[id - 1];
  const serve::WhyNotResponse& response = decoded.value().response;
  out.recv_ns = recv_ns;
  out.code = response.status.code();
  out.queue_wait_us = static_cast<uint32_t>(response.queue_wait.count());
  out.shared_batch = response.shared_batch;
  out.frame_bytes =
      static_cast<uint32_t>(net::kFrameHeaderSize + payload.size());
  if (run->keep[id - 1] != 0) {
    run->kept[id - 1] = std::move(decoded).value().response;
  }
}

/// Asks the kernel to acknowledge what arrives on `fd` at once. The server
/// leaves Nagle's algorithm on for its accepted sockets, so a response
/// waits for the acknowledgement of the previous one; with the default
/// delayed acknowledgement that wait is the gap to the client's next
/// request on the connection, and latency would measure the send schedule
/// instead of the server. Linux drops the mode again on its own, so the
/// receiver re-arms it after every frame.
void QuickAck(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

/// One thread drains every connection until each reaches EOF.
void ReceiveLoop(std::vector<int> fds, PhaseRun* run) {
  std::vector<pollfd> polled;
  for (const int fd : fds) polled.push_back({fd, POLLIN, 0});
  while (!polled.empty()) {
    if (::poll(polled.data(), polled.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (size_t i = 0; i < polled.size();) {
      if (polled[i].revents == 0) {
        ++i;
        continue;
      }
      // A readable socket holds the start of a frame (or EOF); the server
      // writes whole frames, so reading the rest blocks only briefly.
      auto frame = net::ReadFrame(polled[i].fd);
      const int64_t recv_ns = NowNs();
      if (!frame.ok() || !frame.value().has_value()) {
        polled.erase(polled.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      QuickAck(polled[i].fd);
      Record(frame.value()->second, recv_ns, run);
      polled[i].revents = 0;
      ++i;
    }
  }
}

}  // namespace

void RunOpenLoop(uint16_t port, size_t connections, PhaseRun* run,
                 size_t begin, size_t end) {
  const size_t n = run->frames.size();
  end = std::min(end, n);
  if (run->outcomes.size() != n) run->outcomes.assign(n, Outcome{});
  if (run->kept.size() != n) run->kept.assign(n, serve::WhyNotResponse{});
  if (run->keep.size() != n) run->keep.assign(n, 0);
  for (size_t i = begin; i < end; ++i) {
    run->outcomes[i] = Outcome{};
    run->kept[i] = serve::WhyNotResponse{};
  }
  std::vector<int> fds;
  for (size_t c = 0; c < connections; ++c) {
    auto fd = net::TcpConnect("127.0.0.1", port);
    if (!fd.ok()) {
      for (const int open_fd : fds) net::CloseFd(open_fd);
      return;
    }
    QuickAck(fd.value());
    fds.push_back(fd.value());
  }
  std::thread receiver([fds, run] { ReceiveLoop(fds, run); });
  const double interval_ns = 1e9 / run->rate_qps;
  // A short lead so the first sends are not late by the thread start-up.
  const int64_t start_ns = NowNs() + 5'000'000;
  if (begin == 0) {
    run->start_ns = start_ns;
    run->elapsed_ns = 0;
  }
  const auto epoch = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(start_ns));
  for (size_t i = begin; i < end; ++i) {
    const int64_t offset =
        static_cast<int64_t>(static_cast<double>(i - begin) * interval_ns);
    run->outcomes[i].sched_ns = start_ns + offset;
    std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(offset));
    run->outcomes[i].send_ns = NowNs();
    // Hashed, not round-robin: a connection must not see only some kinds.
    const int fd = fds[SplitMix64(i) % fds.size()];
    if (!net::SendAll(fd, run->frames[i]).ok()) run->outcomes[i].send_ns = 0;
  }
  // Half-close: the server answers everything owed, then closes, which
  // ends the receiver on a clean EOF per connection.
  for (const int fd : fds) net::ShutdownWrite(fd);
  receiver.join();
  for (const int fd : fds) net::CloseFd(fd);
  run->end_ns = NowNs();
  run->elapsed_ns += run->end_ns - start_ns;
}

Tally Count(const PhaseRun& run) {
  Tally t;
  for (const Outcome& o : run.outcomes) {
    ++t.attempted;
    if (o.send_ns == 0) {
      ++t.io;
    } else if (o.recv_ns == 0) {
      ++t.missing;
    } else if (o.code == StatusCode::kOk) {
      ++t.ok;
    } else if (o.code == StatusCode::kDeadlineExceeded) {
      ++t.deadline;
    } else if (o.code == StatusCode::kResourceExhausted) {
      ++t.admission;
    } else {
      ++t.error;
    }
  }
  return t;
}

std::vector<double> OkLatenciesMs(const PhaseRun& run, int kind) {
  std::vector<double> out;
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const Outcome& o = run.outcomes[i];
    if (o.recv_ns == 0 || o.code != StatusCode::kOk) continue;
    if (kind >= 0 && static_cast<int>(run.requests[i].kind) != kind) continue;
    out.push_back(static_cast<double>(o.recv_ns - o.sched_ns) / 1e6);
  }
  return out;
}

std::vector<double> LatenessMs(const PhaseRun& run) {
  std::vector<double> out;
  for (const Outcome& o : run.outcomes) {
    if (o.send_ns != 0) {
      out.push_back(static_cast<double>(o.send_ns - o.sched_ns) / 1e6);
    }
  }
  return out;
}

}  // namespace perfbench
}  // namespace wnrs
