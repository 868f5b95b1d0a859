#ifndef WNRS_PERFBENCH_LOADGEN_H_
#define WNRS_PERFBENCH_LOADGEN_H_

// Open-loop load over loopback TCP. One sender (the calling thread) paces
// pre-encoded request frames along a fixed schedule and spreads them over
// the connections by a hash of the request index; one receiver thread
// polls every connection and decodes the answers. Latency runs from each
// request's scheduled send time, so a late sender and a growing queue both
// show.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/api.h"

namespace wnrs {
namespace perfbench {

/// What the client saw for one request.
struct Outcome {
  int64_t sched_ns = 0;
  int64_t send_ns = 0;  ///< 0 = never sent.
  int64_t recv_ns = 0;  ///< 0 = no response (missing).
  StatusCode code = StatusCode::kOk;
  uint32_t queue_wait_us = 0;
  bool shared_batch = false;
  uint32_t frame_bytes = 0;
};

/// One phase: per-request outcomes plus the frames that were sent.
struct PhaseRun {
  std::string name;
  double rate_qps = 0.0;
  std::vector<serve::WhyNotRequest> requests;
  std::vector<std::string> frames;  ///< Encoded request frames.
  std::vector<Outcome> outcomes;
  /// Decoded answers for the requests marked in `keep`.
  std::vector<serve::WhyNotResponse> kept;
  std::vector<uint8_t> keep;
  /// Start of the first send and end of the last receive.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Time the phase ran, summed over its chunks.
  int64_t elapsed_ns = 0;
};

/// Tallies of a phase, in the failure classes the benchmark reports.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t deadline = 0;
  uint64_t admission = 0;
  uint64_t error = 0;
  uint64_t io = 0;
  uint64_t missing = 0;
  uint64_t failed() const { return attempted - ok; }
};

/// Encodes `requests` into frames with request id = index + 1.
std::vector<std::string> EncodeFrames(
    const std::vector<serve::WhyNotRequest>& requests);

/// Runs frames [begin, end) of `run` open loop at `run->rate_qps` over
/// `connections` connections to 127.0.0.1:`port`; fills their outcomes and
/// kept answers. A phase may run in several chunks, in order; its schedule
/// restarts with each. If a connection cannot be opened nothing is sent,
/// and every request of the chunk counts as an I/O failure.
void RunOpenLoop(uint16_t port, size_t connections, PhaseRun* run,
                 size_t begin = 0, size_t end = SIZE_MAX);

Tally Count(const PhaseRun& run);

/// Latencies (ms, scheduled send to receipt) of OK answers, in send order;
/// `kind` < 0 selects every kind.
std::vector<double> OkLatenciesMs(const PhaseRun& run, int kind = -1);

/// Generator lateness (ms, actual minus scheduled send) of every send.
std::vector<double> LatenessMs(const PhaseRun& run);

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_LOADGEN_H_
