// Tests for the binary wire protocol: seeded randomized round-trips for
// every request kind and payload alternative (bit-identical doubles),
// plus adversarial decoding — truncation at every byte boundary,
// oversized lengths, bad magic/version, and seeded garbage — which must
// fail with a Status, never abort or over-allocate.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/wire.h"

namespace wnrs {
namespace net {
namespace {

using serve::RequestKind;
using serve::WhyNotRequest;
using serve::WhyNotResponse;

Point RandomPoint(Rng& rng, size_t dims) {
  std::vector<double> coords(dims);
  for (auto& c : coords) c = rng.NextDouble(-1e6, 1e6);
  return Point(std::move(coords));
}

std::vector<Candidate> RandomCandidates(Rng& rng, size_t count, size_t dims) {
  std::vector<Candidate> candidates(count);
  for (auto& c : candidates) {
    c.point = RandomPoint(rng, dims);
    c.cost = rng.NextDouble(0.0, 1e3);
  }
  return candidates;
}

std::vector<RStarTree::Id> RandomIds(Rng& rng, size_t count) {
  std::vector<RStarTree::Id> ids(count);
  for (auto& id : ids) id = static_cast<RStarTree::Id>(rng.NextUint64(1u << 20));
  return ids;
}

WhyNotRequest RandomRequest(Rng& rng) {
  WhyNotRequest request;
  request.kind = static_cast<RequestKind>(rng.NextUint64(serve::kNumRequestKinds));
  request.q = RandomPoint(rng, 1 + rng.NextUint64(5));
  request.c = rng.NextUint64(1000);
  request.semantics = rng.NextBool() ? Semantics::kStrict : Semantics::kBoundary;
  if (rng.NextBool()) {
    request.timeout = std::chrono::microseconds(rng.NextUint64(10'000'000));
  }
  request.priority = static_cast<int32_t>(rng.NextUint64(201)) - 100;
  return request;
}

void ExpectRequestsEqual(const WhyNotRequest& a, const WhyNotRequest& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.q, b.q);  // exact coordinate equality: doubles are bit-cast
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.semantics, b.semantics);
  EXPECT_EQ(a.timeout, b.timeout);
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_FALSE(b.deadline.has_value());  // never crosses the wire
}

void ExpectCandidatesEqual(const std::vector<Candidate>& a,
                           const std::vector<Candidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point, b[i].point);
    EXPECT_EQ(a[i].cost, b[i].cost);
  }
}

WhyNotResponse RandomResponseEnvelope(Rng& rng) {
  WhyNotResponse response;
  response.kind = static_cast<RequestKind>(rng.NextUint64(serve::kNumRequestKinds));
  response.status = rng.NextBool()
                        ? Status::Ok()
                        : Status::DeadlineExceeded("expired in queue");
  response.completed = rng.NextBool();
  response.shared_batch = rng.NextBool();
  response.queue_wait = std::chrono::microseconds(rng.NextUint64(1'000'000));
  return response;
}

void ExpectEnvelopesEqual(const WhyNotResponse& a, const WhyNotResponse& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.status.code(), b.status.code());
  if (!a.status.ok()) {
    EXPECT_EQ(a.status.message(), b.status.message());
  }
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shared_batch, b.shared_batch);
  EXPECT_EQ(a.queue_wait, b.queue_wait);
  EXPECT_EQ(a.payload_tag(), b.payload_tag());
}

/// Round-trips a response and returns the decoded copy (checking the
/// envelope and id along the way).
WhyNotResponse RoundTrip(uint64_t id, const WhyNotResponse& response) {
  const std::string frame = EncodeResponseFrame(id, response);
  auto header = DecodeFrameHeader(frame.data(), frame.size());
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header.value().type, FrameType::kResponse);
  EXPECT_EQ(header.value().payload_len, frame.size() - kFrameHeaderSize);
  auto decoded = DecodeResponsePayload(
      std::string_view(frame).substr(kFrameHeaderSize));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().request_id, id);
  ExpectEnvelopesEqual(response, decoded.value().response);
  return std::move(decoded).value().response;
}

TEST(NetProtocolTest, RequestRoundTripAllKinds) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const uint64_t id = rng.NextUint64();
    const WhyNotRequest request = RandomRequest(rng);
    const std::string frame = EncodeRequestFrame(id, request);

    auto header = DecodeFrameHeader(frame.data(), frame.size());
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_EQ(header.value().type, FrameType::kRequest);
    ASSERT_EQ(header.value().payload_len, frame.size() - kFrameHeaderSize);

    auto decoded = DecodeRequestPayload(
        std::string_view(frame).substr(kFrameHeaderSize));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().request_id, id);
    ExpectRequestsEqual(request, decoded.value().request);
  }
}

TEST(NetProtocolTest, RequestRoundTripSpecialDoubles) {
  WhyNotRequest request;
  request.kind = RequestKind::kReverseSkyline;
  request.q = Point({0.0, -0.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::denorm_min(),
                     std::nextafter(1.0, 2.0)});
  const std::string frame = EncodeRequestFrame(7, request);
  auto decoded =
      DecodeRequestPayload(std::string_view(frame).substr(kFrameHeaderSize));
  ASSERT_TRUE(decoded.ok());
  const Point& q = decoded.value().request.q;
  ASSERT_EQ(q.dims(), 5u);
  for (size_t i = 0; i < q.dims(); ++i) {
    // Bit-level equality, stricter than operator== (distinguishes -0.0).
    EXPECT_EQ(std::signbit(q[i]), std::signbit(request.q[i]));
    EXPECT_EQ(q[i], request.q[i]);
  }
}

TEST(NetProtocolTest, ResponseRoundTripEveryPayloadAlternative) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const size_t dims = 1 + rng.NextUint64(4);

    {
      WhyNotResponse r = RandomResponseEnvelope(rng);
      r.payload = std::monostate{};
      RoundTrip(rng.NextUint64(), r);
    }
    {
      WhyNotResponse r = RandomResponseEnvelope(rng);
      std::vector<size_t> rsl(rng.NextUint64(20));
      for (auto& v : rsl) v = rng.NextUint64(10'000);
      r.payload = rsl;
      const WhyNotResponse back = RoundTrip(rng.NextUint64(), r);
      EXPECT_EQ(back.reverse_skyline(), rsl);
    }
    {
      WhyNotResponse r = RandomResponseEnvelope(rng);
      WhyNotExplanation e;
      e.already_member = rng.NextBool();
      e.culprits = RandomIds(rng, rng.NextUint64(20));
      e.frontier = RandomIds(rng, rng.NextUint64(10));
      r.payload = e;
      const WhyNotResponse back = RoundTrip(rng.NextUint64(), r);
      EXPECT_EQ(back.explanation().already_member, e.already_member);
      EXPECT_EQ(back.explanation().culprits, e.culprits);
      EXPECT_EQ(back.explanation().frontier, e.frontier);
    }
    {
      WhyNotResponse r = RandomResponseEnvelope(rng);
      MwpResult m;
      m.already_member = rng.NextBool();
      m.culprits = RandomIds(rng, rng.NextUint64(20));
      m.candidates = RandomCandidates(rng, rng.NextUint64(10), dims);
      r.payload = m;
      const WhyNotResponse back = RoundTrip(rng.NextUint64(), r);
      EXPECT_EQ(back.mwp().culprits, m.culprits);
      ExpectCandidatesEqual(back.mwp().candidates, m.candidates);
    }
    {
      WhyNotResponse r = RandomResponseEnvelope(rng);
      MqpResult m;
      m.already_member = rng.NextBool();
      m.culprits = RandomIds(rng, rng.NextUint64(20));
      m.candidates = RandomCandidates(rng, rng.NextUint64(10), dims);
      r.payload = m;
      const WhyNotResponse back = RoundTrip(rng.NextUint64(), r);
      EXPECT_EQ(back.mqp().culprits, m.culprits);
      ExpectCandidatesEqual(back.mqp().candidates, m.candidates);
    }
    {
      WhyNotResponse r = RandomResponseEnvelope(rng);
      auto sr = std::make_shared<SafeRegionResult>();
      sr->customers_processed = rng.NextUint64(500);
      sr->truncated = rng.NextBool();
      std::vector<Rectangle> rects;
      for (size_t k = rng.NextUint64(8); k > 0; --k) {
        const Point lo = RandomPoint(rng, dims);
        std::vector<double> hi(dims);
        for (size_t d = 0; d < dims; ++d) {
          hi[d] = lo[d] + rng.NextDouble(0.0, 10.0);
        }
        rects.emplace_back(lo, Point(std::move(hi)));
      }
      sr->region = RectRegion(rects);
      r.payload = std::shared_ptr<const SafeRegionResult>(sr);
      const WhyNotResponse back = RoundTrip(rng.NextUint64(), r);
      ASSERT_NE(back.safe_region(), nullptr);
      EXPECT_EQ(back.safe_region()->customers_processed,
                sr->customers_processed);
      EXPECT_EQ(back.safe_region()->truncated, sr->truncated);
      ASSERT_EQ(back.safe_region()->region.size(), sr->region.size());
      for (size_t k = 0; k < sr->region.size(); ++k) {
        EXPECT_EQ(back.safe_region()->region.rects()[k],
                  sr->region.rects()[k]);
      }
    }
    {
      WhyNotResponse r = RandomResponseEnvelope(rng);
      MwqResult m;
      m.already_member = rng.NextBool();
      m.overlap = rng.NextBool();
      m.query_candidates = RandomCandidates(rng, rng.NextUint64(8), dims);
      m.why_not_candidates = RandomCandidates(rng, rng.NextUint64(8), dims);
      m.best_cost = rng.NextDouble(0.0, 100.0);
      r.payload = m;
      const WhyNotResponse back = RoundTrip(rng.NextUint64(), r);
      EXPECT_EQ(back.mwq().overlap, m.overlap);
      EXPECT_EQ(back.mwq().best_cost, m.best_cost);
      ExpectCandidatesEqual(back.mwq().query_candidates, m.query_candidates);
      ExpectCandidatesEqual(back.mwq().why_not_candidates,
                            m.why_not_candidates);
    }
  }
}

TEST(NetProtocolTest, NullSafeRegionPointerRoundTrips) {
  WhyNotResponse r;
  r.payload.emplace<std::shared_ptr<const SafeRegionResult>>();
  ASSERT_EQ(r.payload_tag(), WhyNotResponse::kSafeRegionPayload);
  const WhyNotResponse back = RoundTrip(1, r);
  EXPECT_EQ(back.payload_tag(), WhyNotResponse::kSafeRegionPayload);
  EXPECT_EQ(back.safe_region(), nullptr);
}

TEST(NetProtocolTest, HeaderRejectsBadMagicVersionTypeAndLength) {
  WhyNotRequest request;
  request.q = Point({1.0, 2.0});
  std::string frame = EncodeRequestFrame(1, request);

  EXPECT_FALSE(DecodeFrameHeader(frame.data(), kFrameHeaderSize - 1).ok());

  std::string bad = frame;
  bad[0] ^= 0x01;  // magic
  EXPECT_FALSE(DecodeFrameHeader(bad.data(), bad.size()).ok());

  bad = frame;
  bad[4] = static_cast<char>(kWireVersion + 1);
  EXPECT_FALSE(DecodeFrameHeader(bad.data(), bad.size()).ok());

  bad = frame;
  bad[5] = 9;  // unknown frame type
  EXPECT_FALSE(DecodeFrameHeader(bad.data(), bad.size()).ok());

  // Oversized declared payload length.
  bad = frame;
  {
    std::string len;
    WireWriter w(&len);
    w.U32(kMaxFramePayload + 1);
    bad.replace(kFrameHeaderSize - 4, 4, len);
  }
  EXPECT_FALSE(DecodeFrameHeader(bad.data(), bad.size()).ok());
}

TEST(NetProtocolTest, TruncationAtEveryLengthFailsCleanly) {
  Rng rng(11);
  const WhyNotRequest request = RandomRequest(rng);
  const std::string req_frame = EncodeRequestFrame(3, request);
  const std::string_view req_payload =
      std::string_view(req_frame).substr(kFrameHeaderSize);
  for (size_t len = 0; len < req_payload.size(); ++len) {
    EXPECT_FALSE(DecodeRequestPayload(req_payload.substr(0, len)).ok())
        << "request truncated to " << len << " decoded";
  }

  WhyNotResponse response = RandomResponseEnvelope(rng);
  MwqResult m;
  m.query_candidates = RandomCandidates(rng, 3, 2);
  m.why_not_candidates = RandomCandidates(rng, 2, 2);
  m.best_cost = 1.5;
  response.payload = m;
  const std::string resp_frame = EncodeResponseFrame(3, response);
  const std::string_view resp_payload =
      std::string_view(resp_frame).substr(kFrameHeaderSize);
  for (size_t len = 0; len < resp_payload.size(); ++len) {
    EXPECT_FALSE(DecodeResponsePayload(resp_payload.substr(0, len)).ok())
        << "response truncated to " << len << " decoded";
  }
}

TEST(NetProtocolTest, TrailingGarbageIsRejected) {
  Rng rng(13);
  const std::string req_frame = EncodeRequestFrame(5, RandomRequest(rng));
  std::string req_payload(std::string_view(req_frame).substr(kFrameHeaderSize));
  req_payload.push_back('\0');
  EXPECT_FALSE(DecodeRequestPayload(req_payload).ok());

  const std::string resp_frame =
      EncodeResponseFrame(5, RandomResponseEnvelope(rng));
  std::string resp_payload(
      std::string_view(resp_frame).substr(kFrameHeaderSize));
  resp_payload.push_back('\0');
  EXPECT_FALSE(DecodeResponsePayload(resp_payload).ok());
}

TEST(NetProtocolTest, GarbagePayloadsNeverCrashOrOverAllocate) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    std::string garbage(rng.NextUint64(64), '\0');
    for (auto& b : garbage) b = static_cast<char>(rng.NextUint64(256));
    // Decoders must return (ok or error) without aborting; results with
    // giant declared counts must have been rejected before allocation.
    (void)DecodeRequestPayload(garbage);
    (void)DecodeResponsePayload(garbage);
  }
  // A corrupt count field: header of a valid response, then a payload
  // claiming 2^32-1 reverse-skyline entries with no bytes behind it.
  std::string payload;
  WireWriter w(&payload);
  w.U64(1);                       // request id
  w.U8(0);                        // kind
  w.U8(0);                        // status: ok
  w.U8(1);                        // completed
  w.U8(0);                        // shared_batch
  w.U8(WhyNotResponse::kReverseSkylinePayload);
  w.U64(0);                       // queue wait
  w.Bytes("");                    // status message
  w.U32(0xFFFFFFFFu);             // absurd element count
  EXPECT_FALSE(DecodeResponsePayload(payload).ok());
}

TEST(NetProtocolTest, UnknownEnumIdsAreRejected) {
  EXPECT_EQ(serve::RequestKindFromWire(serve::kNumRequestKinds),
            std::nullopt);
  EXPECT_EQ(serve::StatusCodeFromWire(200), std::nullopt);
  EXPECT_EQ(serve::SemanticsFromWire(2), std::nullopt);

  // A frame carrying an unknown kind id decodes to an error, not a guess.
  Rng rng(19);
  const std::string frame = EncodeRequestFrame(9, RandomRequest(rng));
  std::string payload(std::string_view(frame).substr(kFrameHeaderSize));
  payload[8] = static_cast<char>(serve::kNumRequestKinds);  // kind byte
  EXPECT_FALSE(DecodeRequestPayload(payload).ok());
}

}  // namespace
}  // namespace net
}  // namespace wnrs
