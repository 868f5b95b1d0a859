// End-to-end loopback tests for WnrsServer/WnrsClient: answers received
// over the wire must be bit-identical to direct engine calls for all
// seven request kinds, scheduler statuses (deadline miss, admission
// reject, shutdown) must map onto wire responses, pipelining must answer
// in order, and malformed frames must produce an error response followed
// by a clean close — never a crash.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "net/client.h"
#include "net/socket_io.h"
#include "net/wire.h"

namespace wnrs {
namespace net {
namespace {

using serve::RequestKind;
using serve::WhyNotRequest;
using serve::WhyNotResponse;

WhyNotEngine MakeEngine(size_t n = 150, uint64_t seed = 5) {
  WhyNotEngineOptions options;
  options.num_threads = 1;
  return WhyNotEngine(GenerateCarDb(n, seed), options);
}

WhyNotRequest MakeRequest(RequestKind kind, const Point& q, size_t c = 0) {
  WhyNotRequest request;
  request.kind = kind;
  request.q = q;
  request.c = c;
  return request;
}

/// Bounded wait for a server-side condition driven by a client-side
/// send (the network makes an in-process handshake impossible).
template <typename Pred>
void AwaitOrFail(Pred pred, const char* what) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ExpectCandidatesEqual(const std::vector<Candidate>& a,
                           const std::vector<Candidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point, b[i].point);  // exact: doubles travel bit-cast
    EXPECT_EQ(a[i].cost, b[i].cost);
  }
}

TEST(NetServerTest, LoopbackAnswersMatchDirectEngineForAllKinds) {
  WhyNotEngine engine = MakeEngine();
  engine.PrecomputeApproxDsls(4);
  auto server = WnrsServer::Start(&engine);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = WnrsClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const Point q = engine.products().points[3];
  const size_t c = 11;

  auto r = client.value()->Call(MakeRequest(RequestKind::kReverseSkyline, q));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().status.ok()) << r.value().status.ToString();
  EXPECT_TRUE(r.value().completed);
  EXPECT_EQ(r.value().reverse_skyline(), engine.ReverseSkyline(q));

  r = client.value()->Call(MakeRequest(RequestKind::kExplain, q, c));
  ASSERT_TRUE(r.ok() && r.value().status.ok());
  const WhyNotExplanation explain = engine.Explain(c, q);
  EXPECT_EQ(r.value().explanation().culprits, explain.culprits);
  EXPECT_EQ(r.value().explanation().frontier, explain.frontier);

  r = client.value()->Call(MakeRequest(RequestKind::kModifyWhyNot, q, c));
  ASSERT_TRUE(r.ok() && r.value().status.ok());
  const MwpResult mwp = engine.ModifyWhyNot(c, q);
  EXPECT_EQ(r.value().mwp().culprits, mwp.culprits);
  ExpectCandidatesEqual(r.value().mwp().candidates, mwp.candidates);

  r = client.value()->Call(MakeRequest(RequestKind::kModifyQuery, q, c));
  ASSERT_TRUE(r.ok() && r.value().status.ok());
  const MqpResult mqp = engine.ModifyQuery(c, q);
  EXPECT_EQ(r.value().mqp().culprits, mqp.culprits);
  ExpectCandidatesEqual(r.value().mqp().candidates, mqp.candidates);

  r = client.value()->Call(MakeRequest(RequestKind::kSafeRegion, q));
  ASSERT_TRUE(r.ok() && r.value().status.ok());
  ASSERT_NE(r.value().safe_region(), nullptr);
  const SafeRegionResult direct_sr = engine.SafeRegion(q);
  ASSERT_EQ(r.value().safe_region()->region.size(), direct_sr.region.size());
  for (size_t i = 0; i < direct_sr.region.size(); ++i) {
    EXPECT_EQ(r.value().safe_region()->region.rects()[i],
              direct_sr.region.rects()[i]);
  }
  EXPECT_EQ(r.value().safe_region()->truncated, direct_sr.truncated);

  r = client.value()->Call(MakeRequest(RequestKind::kModifyBoth, q, c));
  ASSERT_TRUE(r.ok() && r.value().status.ok());
  const MwqResult mwq = engine.ModifyBoth(c, q);
  EXPECT_EQ(r.value().mwq().overlap, mwq.overlap);
  EXPECT_EQ(r.value().mwq().best_cost, mwq.best_cost);
  ExpectCandidatesEqual(r.value().mwq().query_candidates,
                        mwq.query_candidates);
  ExpectCandidatesEqual(r.value().mwq().why_not_candidates,
                        mwq.why_not_candidates);

  r = client.value()->Call(MakeRequest(RequestKind::kModifyBothApprox, q, c));
  ASSERT_TRUE(r.ok() && r.value().status.ok());
  const MwqResult approx = engine.ModifyBothApprox(c, q);
  EXPECT_EQ(r.value().mwq().best_cost, approx.best_cost);
  ExpectCandidatesEqual(r.value().mwq().query_candidates,
                        approx.query_candidates);

  // The writer counts a response only after its send returns, which can
  // be after the client has read it. Stop joins every writer, so the
  // counts are final once it returns.
  server.value()->Stop();
  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.frames_received, 7u);
  EXPECT_EQ(stats.responses_sent, 7u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

TEST(NetServerTest, EngineErrorsTravelAsStatusNotCrash) {
  WhyNotEngine engine = MakeEngine();
  auto server = WnrsServer::Start(&engine);
  ASSERT_TRUE(server.ok());
  auto client = WnrsClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  const Point q = engine.products().points[0];

  // Out-of-range customer index.
  auto r = client.value()->Call(
      MakeRequest(RequestKind::kModifyWhyNot, q, engine.customers().size()));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.value().payload_tag(), WhyNotResponse::kNoPayload);
  EXPECT_FALSE(r.value().status.message().empty());

  // Approx MWQ without the precomputed store.
  r = client.value()->Call(MakeRequest(RequestKind::kModifyBothApprox, q, 4));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().status.code(), StatusCode::kFailedPrecondition);
}

TEST(NetServerTest, DeadlineMissMapsOntoWireStatus) {
  WhyNotEngine engine = MakeEngine();
  auto server = WnrsServer::Start(&engine);
  ASSERT_TRUE(server.ok());
  auto client = WnrsClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());

  // A zero relative timeout is expired the moment Submit resolves it.
  WhyNotRequest request =
      MakeRequest(RequestKind::kModifyBoth, engine.products().points[0], 7);
  request.timeout = std::chrono::microseconds(0);
  auto r = client.value()->Call(request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(r.value().completed);
  EXPECT_EQ(r.value().payload_tag(), WhyNotResponse::kNoPayload);
  EXPECT_EQ(server.value()->scheduler().stats().deadline_misses, 1u);
}

TEST(NetServerTest, AdmissionRejectMapsOntoWireStatus) {
  WhyNotEngine engine = MakeEngine();
  ServerOptions options;
  options.scheduler.start_paused = true;
  options.scheduler.max_queue_depth = 1;
  auto server = WnrsServer::Start(&engine, options);
  ASSERT_TRUE(server.ok());
  auto client = WnrsClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  const Point q = engine.products().points[0];

  // First request fills the paused queue...
  ASSERT_TRUE(
      client.value()->Send(1, MakeRequest(RequestKind::kReverseSkyline, q))
          .ok());
  AwaitOrFail([&] { return server.value()->scheduler().queue_depth() == 1; },
              "first request never reached the scheduler queue");
  // ...so the second is rejected by admission control at Submit.
  ASSERT_TRUE(
      client.value()->Send(2, MakeRequest(RequestKind::kSafeRegion, q)).ok());
  AwaitOrFail(
      [&] {
        return server.value()->scheduler().stats().admission_rejects == 1;
      },
      "second request was never rejected");
  server.value()->scheduler().Resume();

  // One connection answers in submission order: ok first, reject second.
  auto r1 = client.value()->Receive();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value().request_id, 1u);
  EXPECT_TRUE(r1.value().response.status.ok());
  auto r2 = client.value()->Receive();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2.value().request_id, 2u);
  EXPECT_EQ(r2.value().response.status.code(), StatusCode::kResourceExhausted);
}

TEST(NetServerTest, PipelinedRequestsAnswerInOrder) {
  WhyNotEngine engine = MakeEngine();
  auto server = WnrsServer::Start(&engine);
  ASSERT_TRUE(server.ok());
  auto client = WnrsClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());

  constexpr uint64_t kRequests = 20;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    const Point q = engine.products().points[id % 5];
    ASSERT_TRUE(
        client.value()
            ->Send(id, MakeRequest(RequestKind::kReverseSkyline, q))
            .ok());
  }
  for (uint64_t id = 1; id <= kRequests; ++id) {
    auto r = client.value()->Receive();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().request_id, id);
    EXPECT_TRUE(r.value().response.status.ok());
  }
}

TEST(NetServerTest, MalformedPayloadGetsErrorResponseThenClose) {
  WhyNotEngine engine = MakeEngine();
  auto server = WnrsServer::Start(&engine);
  ASSERT_TRUE(server.ok());
  auto fd = TcpConnect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(fd.ok());

  // Valid header, garbage payload whose first 8 bytes still carry an id.
  std::string frame;
  WireWriter w(&frame);
  w.U32(kWireMagic);
  w.U8(kWireVersion);
  w.U8(static_cast<uint8_t>(FrameType::kRequest));
  w.U16(0);
  w.U32(12);
  w.U64(77);  // salvageable request id
  w.U32(0xDEADBEEFu);
  ASSERT_TRUE(SendAll(fd.value(), frame).ok());

  auto response = ReadFrame(fd.value());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response.value().has_value());
  auto decoded = DecodeResponsePayload(response.value()->second);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().request_id, 77u);
  EXPECT_EQ(decoded.value().response.status.code(),
            StatusCode::kInvalidArgument);

  // After a framing error the server closes the connection.
  auto eof = ReadFrame(fd.value());
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value().has_value());
  CloseFd(fd.value());
  EXPECT_EQ(server.value()->stats().decode_errors, 1u);
}

TEST(NetServerTest, BadMagicClosesConnection) {
  WhyNotEngine engine = MakeEngine();
  auto server = WnrsServer::Start(&engine);
  ASSERT_TRUE(server.ok());
  auto fd = TcpConnect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(fd.ok());

  std::string junk(kFrameHeaderSize, '\x5A');
  ASSERT_TRUE(SendAll(fd.value(), junk).ok());
  // The error response (id 0) arrives, then EOF.
  auto response = ReadFrame(fd.value());
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().has_value());
  auto decoded = DecodeResponsePayload(response.value()->second);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, 0u);
  EXPECT_FALSE(decoded.value().response.status.ok());
  auto eof = ReadFrame(fd.value());
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value().has_value());
  CloseFd(fd.value());
}

TEST(NetServerTest, StopStillAnswersAdmittedRequests) {
  WhyNotEngine engine = MakeEngine();
  ServerOptions options;
  options.scheduler.start_paused = true;
  auto server = WnrsServer::Start(&engine, options);
  ASSERT_TRUE(server.ok());
  auto client = WnrsClient::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.value()
                  ->Send(5, MakeRequest(RequestKind::kReverseSkyline,
                                        engine.products().points[0]))
                  .ok());
  AwaitOrFail([&] { return server.value()->scheduler().queue_depth() == 1; },
              "request never reached the scheduler queue");
  // Stop with the scheduler still paused: the queued request resolves
  // Unavailable and its response is flushed before the socket closes.
  server.value()->Stop();

  auto r = client.value()->Receive();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().request_id, 5u);
  EXPECT_EQ(r.value().response.status.code(), StatusCode::kUnavailable);
  // Next read sees the close.
  EXPECT_FALSE(client.value()->Receive().ok());
}

// Pinned regression: Stop must be safe to call from several threads at
// once, with live connections mid-request. Before stop_mu_ serialized
// it, a racing second caller saw stopped_ already set and returned
// while the first was still joining reader/writer threads — callers
// could then destroy the server under its own live threads — and the
// shutdown walk iterated connections_ without mu_ against AcceptLoop's
// emplace_back. Every caller must return only after the teardown is
// fully complete.
TEST(NetServerTest, ConcurrentStopJoinsEverythingExactlyOnce) {
  for (int round = 0; round < 10; ++round) {
    WhyNotEngine engine = MakeEngine(60, 7);
    auto server = WnrsServer::Start(&engine);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    const uint16_t port = server.value()->port();

    // Live connections with pipelined in-flight requests so Stop races
    // real reader/writer traffic, not idle sockets.
    constexpr size_t kClients = 3;
    std::vector<std::unique_ptr<WnrsClient>> clients;
    for (size_t i = 0; i < kClients; ++i) {
      auto client = WnrsClient::Connect("127.0.0.1", port);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (uint64_t id = 0; id < 3; ++id) {
        ASSERT_TRUE(
            (*client)
                ->Send(id, MakeRequest(RequestKind::kReverseSkyline,
                                       engine.products().points[i]))
                .ok());
      }
      clients.push_back(std::move(*client));
    }

    constexpr int kStoppers = 4;
    std::atomic<int> ready{0};
    std::vector<std::thread> stoppers;
    stoppers.reserve(kStoppers);
    for (int t = 0; t < kStoppers; ++t) {
      stoppers.emplace_back([&] {
        // Spin barrier: all callers enter Stop together.
        ++ready;
        while (ready.load() < kStoppers) {
        }
        server.value()->Stop();
      });
    }
    for (std::thread& th : stoppers) th.join();

    // Every Stop returned only after full teardown: the listener is
    // closed (fresh connects refuse) and each connection was shut down
    // cleanly, so draining a client ends in a definite close, not a hang.
    EXPECT_FALSE(WnrsClient::Connect("127.0.0.1", port).ok());
    for (std::unique_ptr<WnrsClient>& client : clients) {
      while (client->Receive().ok()) {
      }
    }
    // Stop after Stop is a no-op (also exercised by the destructor).
    server.value()->Stop();
  }
}

TEST(NetServerTest, MultipleConnectionsServeConcurrently) {
  WhyNotEngine engine = MakeEngine();
  auto server = WnrsServer::Start(&engine);
  ASSERT_TRUE(server.ok());

  constexpr size_t kClients = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = WnrsClient::Connect("127.0.0.1", server.value()->port());
      ASSERT_TRUE(client.ok());
      const Point q = engine.products().points[t];
      const std::vector<size_t> expected = engine.ReverseSkyline(q);
      for (int i = 0; i < 5; ++i) {
        auto r =
            client.value()->Call(MakeRequest(RequestKind::kReverseSkyline, q));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_TRUE(r.value().status.ok());
        EXPECT_EQ(r.value().reverse_skyline(), expected);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Read the counters only once Stop has joined every writer (see
  // LoopbackAnswersMatchDirectEngineForAllKinds).
  server.value()->Stop();
  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.responses_sent, kClients * 5);
}

}  // namespace
}  // namespace net
}  // namespace wnrs
