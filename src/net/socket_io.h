#ifndef WNRS_NET_SOCKET_IO_H_
#define WNRS_NET_SOCKET_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "net/protocol.h"

namespace wnrs {
namespace net {

/// Thin blocking-TCP helpers shared by WnrsServer and WnrsClient: plain
/// POSIX sockets, no library dependency. All functions return Status /
/// Result instead of aborting; EINTR is retried internally.

/// Creates a listening TCP socket bound to host:port (port 0 picks an
/// ephemeral port; read it back with LocalPort). Returns the fd.
Result<int> TcpListen(const std::string& host, uint16_t port, int backlog);

/// The locally bound port of a socket fd.
Result<uint16_t> LocalPort(int fd);

/// Disables Nagle's algorithm on a connected socket: frames are small
/// and latency-measured, so each one leaves at once instead of waiting
/// for the peer's (possibly delayed) ACK of the previous one. Both ends
/// of every wire connection set it; ignores errors.
void SetNoDelay(int fd);

/// Connects to host:port (with SetNoDelay); returns the fd.
Result<int> TcpConnect(const std::string& host, uint16_t port);

/// Writes all of `data`, looping over partial sends. SIGPIPE is
/// suppressed (MSG_NOSIGNAL); a closed peer surfaces as IoError.
Status SendAll(int fd, std::string_view data);

/// Outcome of a blocking read of an exact byte count.
enum class RecvStatus {
  kOk,    ///< All bytes read.
  kEof,   ///< Clean close before the first byte.
  kError, ///< Socket error, or close mid-object (torn read).
};

/// Reads exactly `len` bytes into `buf`.
RecvStatus RecvAll(int fd, void* buf, size_t len);

/// Reads one complete frame (header + payload). Returns nullopt on clean
/// EOF at a frame boundary; fails on torn reads and on header validation
/// errors (bad magic/version/oversized length).
Result<std::optional<std::pair<FrameHeader, std::string>>> ReadFrame(int fd);

/// shutdown(2) both directions — unblocks any thread parked in recv/send
/// on this fd (used by Stop paths); ignores errors.
void ShutdownFd(int fd);

/// shutdown(2) the read side only: a parked recv returns EOF while
/// writes still flush — how WnrsServer::Stop stops intake but still
/// delivers the responses of already-admitted requests.
void ShutdownRead(int fd);

/// shutdown(2) the write side only: the peer sees EOF but this end can
/// still recv — how a pipelining client says "no more requests" and then
/// drains every outstanding response (see WnrsClient::FinishSending).
void ShutdownWrite(int fd);

/// close(2), ignoring errors and -1.
void CloseFd(int fd);

}  // namespace net
}  // namespace wnrs

#endif  // WNRS_NET_SOCKET_IO_H_
