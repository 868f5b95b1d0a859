#include "net/socket_io.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "net/wire.h"

namespace wnrs {
namespace net {

namespace {

Status Errno(const char* what) {
  // system_category().message() instead of strerror(): reader/writer
  // threads report errors concurrently and strerror's static buffer is
  // not thread-safe (clang-tidy concurrency-mt-unsafe).
  return Status::IoError(std::string(what) + ": " +
                         std::system_category().message(errno));
}

Result<sockaddr_in> MakeAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = HostToNetU16(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

Result<int> TcpListen(const std::string& host, uint16_t port, int backlog) {
  auto addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const auto& sa = addr.value();
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    Status s = Errno("bind");
    CloseFd(fd);
    return s;
  }
  if (::listen(fd, backlog) != 0) {
    Status s = Errno("listen");
    CloseFd(fd);
    return s;
  }
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return NetToHostU16(addr.sin_port);
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<int> TcpConnect(const std::string& host, uint16_t port) {
  auto addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  SetNoDelay(fd);
  const auto& sa = addr.value();
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    Status s = Errno("connect");
    CloseFd(fd);
    return s;
  }
  return fd;
}

Status SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

RecvStatus RecvAll(int fd, void* buf, size_t len) {
  size_t got = 0;
  auto* bytes = static_cast<char*>(buf);
  while (got < len) {
    const ssize_t n = ::recv(fd, bytes + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return RecvStatus::kError;
    }
    if (n == 0) return got == 0 ? RecvStatus::kEof : RecvStatus::kError;
    got += static_cast<size_t>(n);
  }
  return RecvStatus::kOk;
}

Result<std::optional<std::pair<FrameHeader, std::string>>> ReadFrame(int fd) {
  char header_bytes[kFrameHeaderSize];
  switch (RecvAll(fd, header_bytes, sizeof(header_bytes))) {
    case RecvStatus::kEof:
      return std::optional<std::pair<FrameHeader, std::string>>();
    case RecvStatus::kError:
      return Status::IoError("torn read in frame header");
    case RecvStatus::kOk:
      break;
  }
  auto header = DecodeFrameHeader(header_bytes, sizeof(header_bytes));
  if (!header.ok()) return header.status();
  std::string payload(header.value().payload_len, '\0');
  if (!payload.empty() &&
      RecvAll(fd, payload.data(), payload.size()) != RecvStatus::kOk) {
    return Status::IoError("torn read in frame payload");
  }
  return std::optional<std::pair<FrameHeader, std::string>>(
      std::in_place, header.value(), std::move(payload));
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void ShutdownRead(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RD);
}

void ShutdownWrite(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_WR);
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace net
}  // namespace wnrs
