// hds-admin-v1 request/response channel: chunking, loopback server/client,
// error envelopes, timeout behavior.
#include "net/admin.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "obs/json.h"

namespace hds::net {
namespace {

TEST(AdminProto, EmptyPayloadStillYieldsOneChunk) {
  const std::vector<std::string> frames = admin_response_datagrams(7, "");
  ASSERT_EQ(frames.size(), 1u);
  const obs::Json j = obs::Json::parse(frames[0]);
  EXPECT_EQ(j.string_or("schema", ""), kAdminSchema);
  EXPECT_EQ(j.number_or("req", 0), 7.0);
  EXPECT_EQ(j.number_or("chunks", 0), 1.0);
  EXPECT_EQ(j.string_or("body", "x"), "");
}

TEST(AdminProto, LargePayloadSplitsAndConcatenatesInChunkOrder) {
  std::string payload;
  for (std::size_t i = 0; payload.size() < kAdminChunkBytes * 2 + 100; ++i) {
    payload += "line " + std::to_string(i) + "\n";
  }
  const std::vector<std::string> frames = admin_response_datagrams(3, payload);
  ASSERT_EQ(frames.size(), 3u);
  std::string rebuilt;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const obs::Json j = obs::Json::parse(frames[i]);
    EXPECT_EQ(j.number_or("chunk", 99), static_cast<double>(i));
    EXPECT_EQ(j.number_or("chunks", 0), 3.0);
    rebuilt += j.string_or("body", "");
  }
  EXPECT_EQ(rebuilt, payload);
}

TEST(AdminLoopback, ServerAnswersAndClientReassembles) {
  AdminServer server;
  server.start(UdpEndpoint{"127.0.0.1", 0},
               [](const std::string& verb, const obs::Json& req) {
                 // Echo enough to prove both arguments arrive intact.
                 return verb + ":" + std::to_string(static_cast<int>(req.number_or("req", -1) > 0));
               });
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  AdminClient client;
  const auto body = client.request(UdpEndpoint{"127.0.0.1", server.port()}, "STATUS", 3000);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, "STATUS:1");
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(AdminLoopback, MultiChunkPayloadRoundTrips) {
  std::string big;
  while (big.size() < kAdminChunkBytes * 2 + 17) big += "0123456789abcdef";
  AdminServer server;
  server.start(UdpEndpoint{"127.0.0.1", 0},
               [&](const std::string&, const obs::Json&) { return big; });
  AdminClient client;
  const auto body = client.request(UdpEndpoint{"127.0.0.1", server.port()}, "STATS", 5000);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, big);
}

TEST(AdminLoopback, HandlerExceptionBecomesAnErrorResponse) {
  AdminServer server;
  server.start(UdpEndpoint{"127.0.0.1", 0}, [](const std::string& verb, const obs::Json&) {
    throw std::runtime_error("unknown verb " + verb);
    return std::string{};
  });
  AdminClient client;
  const auto body = client.request(UdpEndpoint{"127.0.0.1", server.port()}, "NOPE", 3000);
  EXPECT_FALSE(body.has_value());
  EXPECT_NE(client.last_error().find("unknown verb NOPE"), std::string::npos);
}

TEST(AdminLoopback, SequentialRequestsReuseOneClient) {
  AdminServer server;
  server.start(UdpEndpoint{"127.0.0.1", 0}, [](const std::string& verb, const obs::Json&) {
    return "ok:" + verb;
  });
  AdminClient client;
  const UdpEndpoint ep{"127.0.0.1", server.port()};
  for (int i = 0; i < 5; ++i) {
    const auto body = client.request(ep, "V" + std::to_string(i), 3000);
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(*body, "ok:V" + std::to_string(i));
  }
}

// Chunk-loss hardening: the first transmission of every chunk is dropped by
// a deterministic hook, so the client only completes via retransmits. The
// response cache must answer the re-asks with IDENTICAL chunks — the
// handler deliberately returns a different payload every call, so any
// re-invocation would change the chunk count and wedge (or tear) the
// client's cross-retry accumulation.
TEST(AdminLoopback, ChunkLossConvergesViaRetriesWithoutRerunningHandler) {
  std::string big;
  while (big.size() < kAdminChunkBytes * 2 + 1) big += "payload-slice ";
  std::atomic<int> calls{0};
  // Drop the first time each (req, chunk index) goes out; retransmitted
  // datagrams (second ask onward) pass. Declared before the server, whose
  // thread runs the hook until the server is destroyed.
  std::mutex mu;
  std::set<std::pair<std::uint64_t, std::size_t>> sent_once;
  AdminServer server;
  server.set_drop_hook([&](std::uint64_t req, std::size_t index) {
    std::lock_guard lk(mu);
    return sent_once.insert({req, index}).second;  // newly seen -> drop
  });
  server.start(UdpEndpoint{"127.0.0.1", 0}, [&](const std::string& verb, const obs::Json&) {
    // A moving payload, like live STATS: every invocation differs in size.
    const int c = calls.fetch_add(1) + 1;
    return verb + "#" + std::to_string(c) + ":" + big + std::string(static_cast<size_t>(c), 'x');
  });
  AdminClient client;
  const UdpEndpoint ep{"127.0.0.1", server.port()};
  for (const char* verb : {"STATUS", "STATS"}) {
    const int before = calls.load();
    const auto body = client.request(ep, verb, 8000, 150);
    ASSERT_TRUE(body.has_value()) << verb << ": " << client.last_error();
    // Reassembly is the cached incarnation, untorn.
    EXPECT_EQ(*body, std::string(verb) + "#" + std::to_string(before + 1) + ":" + big +
                         std::string(static_cast<size_t>(before + 1), 'x'));
    EXPECT_EQ(calls.load(), before + 1) << "re-asks must hit the response cache";
  }
  EXPECT_EQ(server.handler_calls(), 2u);
}

// Loss on the request path too: every datagram of the first two complete
// responses vanishes, and only the third ask is answered. The client keeps
// retransmitting inside its deadline and still converges.
TEST(AdminLoopback, FullResponseLossRecoversOnLaterRetry) {
  std::atomic<int> asks{0};
  AdminServer server;
  server.set_drop_hook([&](std::uint64_t, std::size_t index) {
    if (index == 0) ++asks;          // first datagram marks one full answer
    return asks.load() <= 2;         // swallow the first two answers whole
  });
  server.start(UdpEndpoint{"127.0.0.1", 0},
               [](const std::string&, const obs::Json&) { return std::string("stable"); });
  AdminClient client;
  const auto body = client.request(UdpEndpoint{"127.0.0.1", server.port()}, "STATUS", 8000, 100);
  ASSERT_TRUE(body.has_value()) << client.last_error();
  EXPECT_EQ(*body, "stable");
  EXPECT_GE(asks.load(), 3);
  EXPECT_EQ(server.handler_calls(), 1u) << "retries served from cache";
}

TEST(AdminLoopback, TimeoutOnSilentEndpointReturnsNullopt) {
  // Bind a socket that never answers, so the port is taken but mute.
  UdpSocket silent;
  silent.open(UdpEndpoint{"127.0.0.1", 0});
  AdminClient client;
  const auto body =
      client.request(UdpEndpoint{"127.0.0.1", silent.local_port()}, "STATUS", 300, 100);
  EXPECT_FALSE(body.has_value());
  EXPECT_FALSE(client.last_error().empty());
}

}  // namespace
}  // namespace hds::net
