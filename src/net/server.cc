#include "net/server.h"

#include <sys/socket.h>

#include <cerrno>
#include <utility>

#include "net/socket_io.h"
#include "net/wire.h"

namespace wnrs {
namespace net {

namespace {

/// Best-effort request id of an undecodable request payload: the id is
/// the first field, so it usually survives whatever corrupted the rest.
uint64_t SalvageRequestId(std::string_view payload) {
  WireReader r(payload);
  uint64_t id = 0;
  if (!r.U64(&id)) return 0;
  return id;
}

serve::WhyNotResponse MalformedResponse(std::string message) {
  serve::WhyNotResponse response;
  response.status = Status::InvalidArgument(std::move(message));
  return response;
}

}  // namespace

Result<std::unique_ptr<WnrsServer>> WnrsServer::Start(
    const WhyNotEngine* engine, ServerOptions options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("WnrsServer needs an engine");
  }
  return Start(std::make_shared<const serve::EngineBackend>(engine),
               std::move(options));
}

Result<std::unique_ptr<WnrsServer>> WnrsServer::Start(
    std::shared_ptr<const serve::QueryBackend> backend,
    ServerOptions options) {
  if (backend == nullptr) {
    return Status::InvalidArgument("WnrsServer needs a backend");
  }
  auto listen_fd =
      TcpListen(options.host, options.port, options.listen_backlog);
  if (!listen_fd.ok()) return listen_fd.status();
  auto port = LocalPort(listen_fd.value());
  if (!port.ok()) {
    CloseFd(listen_fd.value());
    return port.status();
  }
  return std::make_unique<WnrsServer>(PrivateTag{}, std::move(backend),
                                      std::move(options), listen_fd.value(),
                                      port.value());
}

WnrsServer::WnrsServer(PrivateTag,
                       std::shared_ptr<const serve::QueryBackend> backend,
                       ServerOptions options, int listen_fd, uint16_t port)
    : options_(std::move(options)),
      listen_fd_(listen_fd),
      port_(port),
      scheduler_(std::make_unique<serve::RequestScheduler>(
          std::move(backend), options_.scheduler)) {
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

WnrsServer::~WnrsServer() { Stop(); }

ServerStats WnrsServer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void WnrsServer::Stop() {
  // Serialize whole Stops: before this lock a racing second caller
  // returned early on the `stopped_` check and could destroy the server
  // while the first was still joining threads. Now a later caller blocks
  // until teardown is complete, so "Stop returned" always means "all
  // server threads are gone".
  MutexLock stop_lock(stop_mu_);
  {
    MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Unblock accept(); the acceptor exits on the resulting error.
  ShutdownFd(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  // Shut the scheduler down first so every in-flight future is fulfilled
  // (Unavailable for still-queued requests). Then half-close each
  // connection: SHUT_RD ends the reader with a clean EOF while the write
  // side stays open, so the writer still flushes every pending response —
  // an admitted request always gets its answer, even across Stop.
  scheduler_->Shutdown();
  // Claim the connection list under mu_ (splice keeps every element at
  // its address — reader/writer threads hold Connection pointers), then
  // join outside the lock so flushing writers can still take mu_ for
  // their stats updates.
  std::list<Connection> conns;
  {
    MutexLock lock(mu_);
    conns.splice(conns.begin(), connections_);
  }
  for (Connection& conn : conns) ShutdownRead(conn.fd);
  for (Connection& conn : conns) {
    if (conn.reader.joinable()) conn.reader.join();
    if (conn.writer.joinable()) conn.writer.join();
    CloseFd(conn.fd);
  }
  CloseFd(listen_fd_);
}

void WnrsServer::AcceptLoop() {
  while (true) {
    int fd;
    do {
      fd = ::accept(listen_fd_, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return;  // Stop() shut the listener down (or fatal error).
    SetNoDelay(fd);
    MutexLock lock(mu_);
    if (stopped_) {
      CloseFd(fd);
      return;
    }
    ++stats_.connections_accepted;
    connections_.emplace_back();
    Connection* conn = &connections_.back();
    conn->fd = fd;
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    conn->writer = std::thread([this, conn] { WriterLoop(conn); });
  }
}

void WnrsServer::ReaderLoop(Connection* conn) {
  while (true) {
    auto frame = ReadFrame(conn->fd);
    uint64_t salvaged_id = 0;
    std::optional<RequestFrame> request;
    Status error = Status::Ok();
    if (frame.ok() && !frame.value().has_value()) break;  // clean EOF
    if (!frame.ok()) {
      error = frame.status();
    } else if (frame.value()->first.type != FrameType::kRequest) {
      error = Status::InvalidArgument("expected a request frame");
    } else {
      const std::string& payload = frame.value()->second;
      auto decoded = DecodeRequestPayload(payload);
      if (decoded.ok()) {
        request = std::move(decoded).value();
      } else {
        error = decoded.status();
        salvaged_id = SalvageRequestId(payload);
      }
    }
    {
      MutexLock lock(mu_);
      ++stats_.frames_received;
      if (!error.ok()) ++stats_.decode_errors;
    }
    MutexLock lock(conn->mu);
    if (request.has_value()) {
      const uint64_t id = request->request_id;
      conn->inflight.emplace_back(
          id, scheduler_->Submit(std::move(request->request)));
      conn->cv.NotifyOne();
      continue;
    }
    // Framing is broken: answer (when anything is known to answer to) and
    // stop reading this connection.
    std::promise<serve::WhyNotResponse> failed;
    failed.set_value(MalformedResponse(error.message()));
    conn->inflight.emplace_back(salvaged_id, failed.get_future());
    conn->cv.NotifyOne();
    break;
  }
  {
    MutexLock lock(conn->mu);
    conn->reader_done = true;
  }
  conn->cv.NotifyOne();
}

void WnrsServer::WriterLoop(Connection* conn) {
  while (true) {
    std::pair<uint64_t, std::future<serve::WhyNotResponse>> next;
    {
      MutexLock lock(conn->mu);
      while (conn->inflight.empty() && !conn->reader_done) {
        conn->cv.Wait(conn->mu);
      }
      if (conn->inflight.empty()) break;  // reader done and all flushed
      next = std::move(conn->inflight.front());
      conn->inflight.pop_front();
    }
    // Always fulfilled: the scheduler guarantees every future resolves
    // (Shutdown included), so this wait cannot hang Stop().
    const serve::WhyNotResponse response = next.second.get();
    if (!SendAll(conn->fd, EncodeResponseFrame(next.first, response)).ok()) {
      break;  // peer gone; reader will see the shutdown too
    }
    MutexLock lock(mu_);
    ++stats_.responses_sent;
  }
  // The writer is the last user of the socket: once every pending
  // response is flushed (the reader having stopped on EOF or a framing
  // error), close both directions so the peer sees EOF.
  ShutdownFd(conn->fd);
}

}  // namespace net
}  // namespace wnrs
