// Open-loop load harness for the wnrs binary protocol (tools/wnrs_server).
//
// Unlike the closed-loop serve bench (bench_serve_throughput), senders here
// pace requests by wall clock at a fixed offered rate regardless of when
// responses come back, so queueing delay shows up as latency instead of
// silently throttling the workload (no coordinated omission: latency is
// measured from each request's *scheduled* send time). Each connection runs
// a sender/reader thread pair over one pipelined WnrsClient.
//
// Default sweep (no --rate):
//   calibrate  closed-loop capacity estimate (depth-1 Call per connection)
//   steady     open loop at 0.5x the calibrated capacity
//   overload   open loop at 4x the calibrated capacity — the interesting
//              one: admission control + deadlines must shed the excess
//              without letting the latency of accepted requests collapse
//   slo-budget pseudo-record whose p99_us counter is the latency budget
//              derived from the calibration (8x the worst admitted queue
//              wait over one scheduler worker per core);
//              check_bench_regression.py gates the overload p99
//              against it, and overload goodput against steady goodput
//
// Flags:
//   --connect <host:port>  load an external wnrs_server (it must serve the
//                          same generated dataset, i.e. --generate <n>:<seed>
//                          matching this binary's --n/--seed)
//   --rate <qps>           single fixed-rate "fixed" config instead of the
//                          calibrated sweep (calibration still runs)
//   --connections <n>      client connections (default 2)
//   --duration-ms <ms>     per-config duration (default 800 short / 4000)
//   --timeout-ms <ms>      per-request relative deadline (default 200;
//                          0 disables)
//   --max-queue <n>        admission depth of the self-spawned server, and
//                          the queue term of the slo budget (default 64)
//   --n <n>                generated dataset size (default 2000 short / 10000)
//   --seed <s>             dataset/workload seed (default 5)
//   --short --json <path>  as in every bench binary

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "net/client.h"
#include "net/server.h"

namespace wnrs {
namespace bench {
namespace {

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = self-spawn an in-process server
  double rate = 0.0;  // fixed offered rate; 0 = calibrated sweep
  size_t connections = 2;
  size_t duration_ms = 0;  // 0 = mode default
  size_t timeout_ms = 200;
  size_t max_queue = 64;
  size_t dataset_n = 0;  // 0 = mode default
  uint64_t seed = 5;
  bool short_mode = false;
  std::string json_path;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--connect <host:port>] [--rate <qps>]\n"
               "         [--connections <n>] [--duration-ms <ms>]\n"
               "         [--timeout-ms <ms>] [--max-queue <n>] [--n <n>]\n"
               "         [--seed <s>] [--short] [--json <path>]\n",
               argv0);
  return 2;
}

bool ParseLoadgenArgs(int argc, char** argv, LoadgenOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--short") {
      opts->short_mode = true;
    } else if (arg == "--connect" && has_value) {
      const std::string spec = argv[++i];
      const size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0) return false;
      opts->host = spec.substr(0, colon);
      opts->port = static_cast<uint16_t>(
          std::strtoul(spec.c_str() + colon + 1, nullptr, 10));
      if (opts->port == 0) return false;
    } else if (arg == "--rate" && has_value) {
      opts->rate = std::strtod(argv[++i], nullptr);
    } else if (arg == "--connections" && has_value) {
      opts->connections = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--duration-ms" && has_value) {
      opts->duration_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--timeout-ms" && has_value) {
      opts->timeout_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--max-queue" && has_value) {
      opts->max_queue = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--n" && has_value) {
      opts->dataset_n = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && has_value) {
      opts->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--json" && has_value) {
      opts->json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (opts->connections == 0) opts->connections = 1;
  if (opts->duration_ms == 0) opts->duration_ms = opts->short_mode ? 800 : 4000;
  if (opts->dataset_n == 0) opts->dataset_n = opts->short_mode ? 2000 : 10000;
  return true;
}

/// Per-connection tallies; merged across connections per config.
struct ConnResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t deadline_miss = 0;
  uint64_t admission_reject = 0;
  uint64_t other_error = 0;
  uint64_t io_errors = 0;
  std::vector<uint64_t> latencies_us;  // OK responses only
};

void Accumulate(ConnResult* into, ConnResult&& from) {
  into->sent += from.sent;
  into->ok += from.ok;
  into->deadline_miss += from.deadline_miss;
  into->admission_reject += from.admission_reject;
  into->other_error += from.other_error;
  into->io_errors += from.io_errors;
  into->latencies_us.insert(into->latencies_us.end(),
                            from.latencies_us.begin(),
                            from.latencies_us.end());
}

void Record(ConnResult* result, const Status& status, uint64_t latency_us) {
  switch (status.code()) {
    case StatusCode::kOk:
      ++result->ok;
      result->latencies_us.push_back(latency_us);
      break;
    case StatusCode::kDeadlineExceeded:
      ++result->deadline_miss;
      break;
    case StatusCode::kResourceExhausted:
      ++result->admission_reject;
      break;
    default:
      ++result->other_error;
      break;
  }
}

/// The serve bench's mixed request stream, with one twist: the kinds that
/// ignore the why-not customer get their query point jittered so not every
/// frame lands in the scheduler's same-q batching fast path (the workload
/// has only ~15 distinct points). The Modify* kinds keep the exact (q, c)
/// pair because their validity depends on c being a why-not customer of q.
serve::WhyNotRequest MakeLoadRequest(
    const std::vector<WhyNotWorkloadQuery>& workload, size_t i,
    size_t timeout_ms, std::mt19937_64* rng) {
  static constexpr serve::RequestKind kKinds[] = {
      serve::RequestKind::kReverseSkyline,
      serve::RequestKind::kModifyWhyNot,
      serve::RequestKind::kModifyBoth,
      serve::RequestKind::kSafeRegion,
  };
  const WhyNotWorkloadQuery& wq = workload[i % workload.size()];
  serve::WhyNotRequest request;
  request.kind = kKinds[i % (sizeof(kKinds) / sizeof(kKinds[0]))];
  request.q = wq.q;
  request.c = wq.why_not_index;
  if (request.kind == serve::RequestKind::kReverseSkyline ||
      request.kind == serve::RequestKind::kSafeRegion) {
    std::uniform_real_distribution<double> jitter(0.98, 1.02);
    for (size_t d = 0; d < request.q.dims(); ++d) request.q[d] *= jitter(*rng);
  }
  if (timeout_ms > 0) {
    request.timeout = std::chrono::milliseconds(timeout_ms);
  }
  return request;
}

/// Closed-loop calibration: depth-1 Call per connection until `stop_at`.
ConnResult ClosedLoopConn(const LoadgenOptions& opts, uint16_t port,
                          const std::vector<WhyNotWorkloadQuery>& workload,
                          size_t conn_index,
                          std::chrono::steady_clock::time_point stop_at) {
  ConnResult result;
  auto client = net::WnrsClient::Connect(opts.host, port);
  if (!client.ok()) {
    result.io_errors = 1;
    return result;
  }
  std::mt19937_64 rng(opts.seed * 1000003 + conn_index);
  size_t i = conn_index;  // offset so connections don't run in lockstep
  while (std::chrono::steady_clock::now() < stop_at) {
    const auto begin = std::chrono::steady_clock::now();
    auto response = client.value()->Call(
        MakeLoadRequest(workload, i, opts.timeout_ms, &rng));
    ++result.sent;
    i += opts.connections;
    if (!response.ok()) {
      ++result.io_errors;
      break;
    }
    const uint64_t us =
        static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                  std::chrono::steady_clock::now() - begin)
                                  .count());
    Record(&result, response.value().status, us);
  }
  return result;
}

/// One open-loop connection: the sender paces sends along a fixed schedule
/// (catching up without re-planning when it falls behind), the reader drains
/// responses until the server's EOF after FinishSending. Latency is measured
/// from the scheduled send time, so sender lag and queueing both count.
ConnResult OpenLoopConn(const LoadgenOptions& opts, uint16_t port,
                        const std::vector<WhyNotWorkloadQuery>& workload,
                        size_t conn_index, double rate_per_conn,
                        std::chrono::milliseconds duration) {
  ConnResult result;
  auto client = net::WnrsClient::Connect(opts.host, port);
  if (!client.ok()) {
    result.io_errors = 1;
    return result;
  }
  const size_t n_sends = static_cast<size_t>(
      rate_per_conn * std::chrono::duration<double>(duration).count());
  if (n_sends == 0) return result;
  const double interval_us = 1e6 / rate_per_conn;
  std::vector<std::chrono::steady_clock::time_point> scheduled(n_sends);
  const auto start =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < n_sends; ++i) {
    scheduled[i] = start + std::chrono::microseconds(
                               static_cast<uint64_t>(i * interval_us));
  }

  uint64_t responses = 0;
  std::thread reader([&result, &responses, &scheduled, &client, n_sends] {
    while (true) {
      auto frame = client.value()->Receive();
      if (!frame.ok()) break;  // server EOF after the last owed response
      const auto recv_time = std::chrono::steady_clock::now();
      ++responses;
      const uint64_t id = frame.value().request_id;
      if (id == 0 || id > n_sends) {
        ++result.other_error;
        continue;
      }
      const uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              recv_time - scheduled[id - 1])
              .count());
      Record(&result, frame.value().response.status, us);
    }
  });

  std::mt19937_64 rng(opts.seed * 1000003 + conn_index);
  uint64_t sent = 0;
  for (size_t i = 0; i < n_sends; ++i) {
    std::this_thread::sleep_until(scheduled[i]);
    const Status status = client.value()->Send(
        i + 1, MakeLoadRequest(workload, conn_index + i * opts.connections,
                               opts.timeout_ms, &rng));
    if (!status.ok()) {
      ++result.io_errors;
      break;
    }
    ++sent;
  }
  client.value()->FinishSending();
  reader.join();
  result.sent = sent;
  // Every sent request is owed exactly one response; a shortfall means the
  // connection died under us.
  if (responses < sent) result.io_errors += sent - responses;
  return result;
}

/// One finished configuration, ready for JSON/console output.
struct LoadRecord {
  std::string config;
  double wall_ms = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

uint64_t Percentile(const std::vector<uint64_t>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(p / 100.0 * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

LoadRecord Summarize(const std::string& config, double offered_qps,
                     double wall_ms, ConnResult&& total) {
  std::sort(total.latencies_us.begin(), total.latencies_us.end());
  double mean_us = 0.0;
  for (const uint64_t us : total.latencies_us) {
    mean_us += static_cast<double>(us);
  }
  if (!total.latencies_us.empty()) {
    mean_us /= static_cast<double>(total.latencies_us.size());
  }
  const double wall_s = wall_ms / 1e3;
  LoadRecord record;
  record.config = config;
  record.wall_ms = wall_ms;
  record.counters = {
      {"offered_qps", offered_qps},
      {"sent", static_cast<double>(total.sent)},
      {"ok", static_cast<double>(total.ok)},
      {"goodput_qps",
       wall_s > 0.0 ? static_cast<double>(total.ok) / wall_s : 0.0},
      {"p50_us", static_cast<double>(Percentile(total.latencies_us, 50))},
      {"p95_us", static_cast<double>(Percentile(total.latencies_us, 95))},
      {"p99_us", static_cast<double>(Percentile(total.latencies_us, 99))},
      {"mean_us", mean_us},
      {"deadline_misses", static_cast<double>(total.deadline_miss)},
      {"admission_rejects", static_cast<double>(total.admission_reject)},
      {"errors", static_cast<double>(total.other_error + total.io_errors)},
  };
  return record;
}

double Counter(const LoadRecord& record, const char* name) {
  for (const auto& [key, value] : record.counters) {
    if (key == name) return value;
  }
  return 0.0;
}

/// Runs one config across all connections; `open_rate` 0 means closed loop.
LoadRecord RunConfig(const LoadgenOptions& opts, uint16_t port,
                     const std::vector<WhyNotWorkloadQuery>& workload,
                     const std::string& config, double open_rate) {
  const std::chrono::milliseconds duration(opts.duration_ms);
  WallTimer timer;
  std::vector<ConnResult> per_conn(opts.connections);
  std::vector<std::thread> threads;
  threads.reserve(opts.connections);
  const auto stop_at = std::chrono::steady_clock::now() + duration;
  for (size_t conn = 0; conn < opts.connections; ++conn) {
    threads.emplace_back([&, conn] {
      per_conn[conn] =
          open_rate > 0.0
              ? OpenLoopConn(opts, port, workload, conn,
                             open_rate / static_cast<double>(opts.connections),
                             duration)
              : ClosedLoopConn(opts, port, workload, conn, stop_at);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = timer.ElapsedMillis();
  ConnResult total;
  for (ConnResult& partial : per_conn) Accumulate(&total, std::move(partial));
  return Summarize(config, open_rate, wall_ms, std::move(total));
}

void PrintRecord(const LoadRecord& record) {
  std::fprintf(
      stderr,
      "%-10s offered %8.1f qps  goodput %8.1f qps  p50/p95/p99 "
      "%6.0f/%6.0f/%6.0f us  miss %.0f  reject %.0f  err %.0f\n",
      record.config.c_str(), Counter(record, "offered_qps"),
      Counter(record, "goodput_qps"), Counter(record, "p50_us"),
      Counter(record, "p95_us"), Counter(record, "p99_us"),
      Counter(record, "deadline_misses"), Counter(record, "admission_rejects"),
      Counter(record, "errors"));
}

bool WriteJson(const LoadgenOptions& opts,
               const std::vector<LoadRecord>& records) {
  std::string out = "{\n";
  out += StrFormat("  \"bench\": \"loadgen\",\n  \"short_mode\": %s,\n",
                   opts.short_mode ? "true" : "false");
  out += "  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const LoadRecord& record = records[i];
    out += StrFormat("    {\"config\": \"%s\", \"wall_ms\": %.3f",
                     record.config.c_str(), record.wall_ms);
    out += ", \"counters\": {";
    for (size_t c = 0; c < record.counters.size(); ++c) {
      out += StrFormat("%s\"%s\": %.3f", c == 0 ? "" : ", ",
                       record.counters[c].first.c_str(),
                       record.counters[c].second);
    }
    out += StrFormat("}}%s\n", i + 1 < records.size() ? "," : "");
  }
  out += "  ]\n}\n";
  std::ofstream file(opts.json_path, std::ios::trunc);
  file << out;
  return file.good();
}

int Run(int argc, char** argv) {
  LoadgenOptions opts;
  if (!ParseLoadgenArgs(argc, argv, &opts)) return Usage(argv[0]);

  // The dataset/engine pair is always built locally: it sources the query
  // workload, and in self-spawn mode it is also the served engine.
  WhyNotEngineOptions engine_options;
  auto engine = std::make_unique<WhyNotEngine>(
      GenerateCarDb(opts.dataset_n, opts.seed), engine_options);
  const std::vector<WhyNotWorkloadQuery> workload =
      MakeWorkload(*engine, 20000, opts.seed + 1);
  if (workload.empty()) {
    std::fprintf(stderr, "loadgen: workload sampling found no queries\n");
    return 1;
  }

  std::unique_ptr<net::WnrsServer> server;
  uint16_t port = opts.port;
  if (port == 0) {
    net::ServerOptions server_options;
    server_options.scheduler.max_queue_depth = opts.max_queue;
    auto started = net::WnrsServer::Start(engine.get(), server_options);
    if (!started.ok()) {
      std::fprintf(stderr, "loadgen: cannot self-spawn server: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(started).value();
    port = server->port();
    std::fprintf(stderr, "loadgen: self-spawned server on port %u\n",
                 static_cast<unsigned>(port));
  }

  std::vector<LoadRecord> records;
  records.push_back(RunConfig(opts, port, workload, "calibrate", 0.0));
  PrintRecord(records.back());
  const double capacity =
      std::max(10.0, Counter(records.back(), "goodput_qps"));
  const double calib_mean_us = Counter(records.back(), "mean_us");

  if (opts.rate > 0.0) {
    records.push_back(RunConfig(opts, port, workload, "fixed", opts.rate));
    PrintRecord(records.back());
  } else {
    records.push_back(
        RunConfig(opts, port, workload, "steady", 0.5 * capacity));
    PrintRecord(records.back());
    records.push_back(
        RunConfig(opts, port, workload, "overload", 4.0 * capacity));
    PrintRecord(records.back());
    // The latency budget the overload p99 is gated against: 8x the worst
    // admitted queue wait. A full admission queue of mean-cost requests
    // drains over one scheduler worker per core, so that wait is
    // max_queue x mean / workers (the server is assumed to run on a host
    // like this one, as in the serve-loadtest job). A server that stops
    // shedding (admission control or deadline checks regressed), or that
    // stops answering on every worker, blows straight through it.
    const double worst_wait_us =
        calib_mean_us * static_cast<double>(opts.max_queue) /
        static_cast<double>(ThreadPool::HardwareConcurrency());
    LoadRecord budget;
    budget.config = "slo-budget";
    budget.counters = {{"p99_us", std::max(10'000.0, 8.0 * worst_wait_us)}};
    std::fprintf(stderr, "slo-budget p99_us %.0f\n",
                 Counter(budget, "p99_us"));
    records.push_back(std::move(budget));
  }

  if (!opts.json_path.empty() && !WriteJson(opts, records)) {
    std::fprintf(stderr, "loadgen: cannot write %s\n", opts.json_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace wnrs

int main(int argc, char** argv) { return wnrs::bench::Run(argc, argv); }
