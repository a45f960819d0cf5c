// The HTTP helpers and the search routes, exercised over real loopback
// sockets against AsyncHttpServer. Server mechanics (keep-alive, caps,
// admission control, batching, drain) live in async_server_test.

#include "server/http_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "common/clock.h"
#include "server/async_http_server.h"
#include "server/search_handler.h"
#include "service/search_service.h"
#include "shard/shard_set.h"

namespace rtsi::server {
namespace {

std::string Get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(UrlDecodeTest, DecodesEscapesAndPlus) {
  EXPECT_EQ(UrlDecode("hello+world"), "hello world");
  EXPECT_EQ(UrlDecode("a%20b%2Fc"), "a b/c");
  EXPECT_EQ(UrlDecode("100%"), "100%");  // Trailing % passes through.
  EXPECT_EQ(UrlDecode(""), "");
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
}

// Sends raw bytes, half-closes the write side, reads the full response.
std::string SendRaw(int port, const std::string& data) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  (void)!::write(fd, data.data(), data.size());
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

class SearchRoutesTest : public ::testing::Test {
 protected:
  SearchRoutesTest()
      : service_(MakeConfig(), &clock_), server_(ServerConfig{}) {
    RegisterSearchRoutes(server_, service_, clock_);
    EXPECT_TRUE(server_.Start(0).ok());
    service_.IngestWindow(1, {"quantum", "physics", "lecture"});
    service_.IngestWindow(2, {"football", "goal", "stadium"});
    clock_.Advance(kMicrosPerMinute);
  }

  static service::SearchServiceConfig MakeConfig() {
    service::SearchServiceConfig config;
    config.ingestion.acoustic_path = service::AcousticPath::kDirect;
    config.ingestion.transcriber.word_error_rate = 0.0;
    return config;
  }

  int port() const { return server_.port(); }

  SimulatedClock clock_;
  service::SearchService service_;
  AsyncHttpServer server_;
};

TEST_F(SearchRoutesTest, SearchReturnsMatchingStream) {
  const std::string response =
      Get(port(), "/search?q=quantum+physics");
  EXPECT_NE(response.find("\"stream\":1"), std::string::npos);
  EXPECT_EQ(response.find("\"stream\":2"), std::string::npos);
}

TEST_F(SearchRoutesTest, SearchWithoutQueryIs400) {
  const std::string response = Get(port(), "/search");
  EXPECT_NE(response.find("400"), std::string::npos);
}

// The status code of a raw HTTP response ("HTTP/1.x NNN ..."), or -1.
int StatusCode(const std::string& response) {
  if (response.rfind("HTTP/1.", 0) != 0 || response.size() < 12) return -1;
  return std::atoi(response.substr(9, 3).c_str());
}

TEST_F(SearchRoutesTest, KOutsideOneToMaxIs400) {
  for (const char* route : {"/search", "/live"}) {
    for (const char* k : {"abc", "0", "-3", "1001", "1500000000",
                          "30000000000", "", "10x", "%205"}) {
      const std::string response =
          Get(port(), std::string(route) + "?q=quantum&k=" + k);
      EXPECT_EQ(StatusCode(response), 400) << route << " k=" << k;
      EXPECT_NE(response.find("\"error\""), std::string::npos)
          << route << " k=" << k;
    }
  }
}

TEST_F(SearchRoutesTest, PopDeltaAndIngestLiveOutOfRangeAre400) {
  for (const char* delta : {"4294967297", "30000000000", "7abc", "0", "-5",
                            "", "abc", "%207"}) {
    const std::string response =
        Get(port(), std::string("/pop?stream=1&delta=") + delta);
    EXPECT_EQ(StatusCode(response), 400) << "delta=" << delta;
    EXPECT_NE(response.find("\"error\""), std::string::npos)
        << "delta=" << delta;
  }
  for (const char* live : {"2", "-1", "1x", "4294967297", "", "yes"}) {
    const std::string response =
        Get(port(), std::string("/ingest?stream=9&words=zeppelin&live=") +
                        live);
    EXPECT_EQ(StatusCode(response), 400) << "live=" << live;
    EXPECT_NE(response.find("\"error\""), std::string::npos)
        << "live=" << live;
  }
  // Nothing from the rejected requests was indexed.
  EXPECT_EQ(Get(port(), "/search?q=zeppelin").find("\"stream\":9"),
            std::string::npos);
  EXPECT_EQ(StatusCode(Get(port(), "/pop?stream=1&delta=2147483647")), 200);
  EXPECT_EQ(StatusCode(Get(port(), "/ingest?stream=9&words=zeppelin&live=0")),
            200);
}

// A stream id is the whole parameter as a decimal uint64: no letters, no
// sign, no trailing bytes, no overflow. A lenient parse (strtoull) would
// act on stream 0 for "abc", 18446744073709551615 for "-1" and 7 for "7x".
TEST_F(SearchRoutesTest, MalformedStreamIdsAre400) {
  for (const char* stream : {"abc", "-1", "7x", "%2B7", "%207", "",
                             "18446744073709551616", "0x10"}) {
    const std::string id = stream;
    for (const std::string& target :
         {"/ingest?words=marimba&stream=" + id, "/finish?stream=" + id,
          "/pop?delta=5&stream=" + id}) {
      const std::string response = Get(port(), target);
      EXPECT_EQ(StatusCode(response), 400) << target;
      EXPECT_NE(response.find("\"error\""), std::string::npos) << target;
    }
    if (id.empty()) continue;
    const std::string body = id + " marimba\n";
    const std::string response = SendRaw(
        port(), "POST /ingest HTTP/1.0\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);
    EXPECT_EQ(StatusCode(response), 400) << "body stream " << id;
  }
  // Nothing from the rejected requests was indexed.
  EXPECT_EQ(Get(port(), "/search?q=marimba").find("\"stream\""),
            std::string::npos);
  // The largest id is accepted.
  EXPECT_EQ(StatusCode(Get(port(),
                           "/ingest?words=marimba&stream=18446744073709551615")),
            200);
  EXPECT_EQ(StatusCode(Get(port(), "/finish?stream=18446744073709551615")),
            200);
  EXPECT_NE(Get(port(), "/search?q=marimba")
                .find("\"stream\":18446744073709551615"),
            std::string::npos);
}

TEST_F(SearchRoutesTest, KAtBoundsIs200) {
  ASSERT_EQ(kMaxK, 1000);
  for (const char* route : {"/search", "/live"}) {
    for (const char* k : {"1", "1000"}) {
      const std::string response =
          Get(port(), std::string(route) + "?q=quantum&k=" + k);
      EXPECT_EQ(StatusCode(response), 200) << route << " k=" << k;
      EXPECT_NE(response.find("\"stream\":1"), std::string::npos)
          << route << " k=" << k;
    }
    // An absent k means 10.
    EXPECT_EQ(StatusCode(Get(port(), std::string(route) + "?q=quantum")),
              200);
  }
}

TEST_F(SearchRoutesTest, IngestThenSearchRoundTrip) {
  Get(port(), "/ingest?stream=7&words=volcano+eruption+alert");
  const std::string response = Get(port(), "/search?q=volcano");
  EXPECT_NE(response.find("\"stream\":7"), std::string::npos);
}

TEST_F(SearchRoutesTest, IngestPostBodyIndexesOneWindowPerLine) {
  const std::string body = "21 solar eclipse timelapse\n22 meteor shower\n";
  const std::string response = SendRaw(
      port(), "POST /ingest HTTP/1.0\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(Get(port(), "/search?q=eclipse").find("\"stream\":21"),
            std::string::npos);
  EXPECT_NE(Get(port(), "/search?q=meteor").find("\"stream\":22"),
            std::string::npos);
}

TEST_F(SearchRoutesTest, IngestBadBodyLineIs400) {
  const std::string body = "31\n";  // A stream id with no words.
  const std::string response = SendRaw(
      port(), "POST /ingest HTTP/1.0\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_F(SearchRoutesTest, LiveFilterExcludesFinished) {
  Get(port(), "/finish?stream=1");
  const std::string live = Get(port(), "/live?q=quantum");
  EXPECT_EQ(live.find("\"stream\":1"), std::string::npos);
  const std::string all = Get(port(), "/search?q=quantum");
  EXPECT_NE(all.find("\"stream\":1"), std::string::npos);
}

TEST_F(SearchRoutesTest, PopUpdatesRanking) {
  Get(port(), "/ingest?stream=3&words=football+highlights");
  Get(port(), "/pop?stream=3&delta=100000");
  const std::string response = Get(port(), "/search?q=football&k=1");
  EXPECT_NE(response.find("\"stream\":3"), std::string::npos);
}

TEST_F(SearchRoutesTest, StatsReportsCounts) {
  const std::string response = Get(port(), "/stats");
  EXPECT_NE(response.find("\"text_postings\""), std::string::npos);
  EXPECT_NE(response.find("\"streams\":2"), std::string::npos);
  // Shard-aware stats: the per-shard array and the server queue block.
  EXPECT_NE(response.find("\"num_shards\":1"), std::string::npos);
  EXPECT_NE(response.find("\"shards\":[{\"shard\":0"), std::string::npos);
  EXPECT_NE(response.find("\"view_epoch\""), std::string::npos);
  EXPECT_NE(response.find("\"arena_bytes\""), std::string::npos);
  EXPECT_NE(response.find("\"queue\":{\"pending\""), std::string::npos);
}

// With several shards, "text_levels" is the deepest shard's level count,
// as "text_runs" and "merges" beside it cover every shard.
TEST(SearchRoutesShardedTest, StatsTextLevelsIsMaxOverShards) {
  SimulatedClock clock;
  service::SearchServiceConfig config;
  config.ingestion.acoustic_path = service::AcousticPath::kDirect;
  config.ingestion.transcriber.word_error_rate = 0.0;
  config.index.lsm.delta = 16;
  config.shards = 2;
  service::SearchService service(config, &clock);
  AsyncHttpServer server{ServerConfig{}};
  RegisterSearchRoutes(server, service, clock);
  ASSERT_TRUE(server.Start(0).ok());

  // Shard 0 gets one window, shard 1 enough to cascade several levels.
  const std::vector<std::string> words = {
      "quantum", "physics", "lecture", "football", "goal",    "stadium",
      "music",   "concert", "guitar",  "weather", "storm",   "forecast"};
  StreamId shard0_stream = 0;
  while (shard::ShardForStream(shard0_stream, 2) != 0) ++shard0_stream;
  ASSERT_TRUE(service.IngestWindow(shard0_stream, {"quantum"}).ok());
  int shard1_windows = 0;
  for (StreamId stream = 0; shard1_windows < 120; ++stream) {
    if (shard::ShardForStream(stream, 2) != 1) continue;
    std::vector<std::string> window;
    for (std::size_t i = 0; i < 4; ++i) {
      window.push_back(words[(stream + i * 5) % words.size()] +
                       std::to_string(stream % 7));
    }
    ASSERT_TRUE(service.IngestWindow(stream, window).ok());
    ++shard1_windows;
    clock.Advance(kMicrosPerSecond);
  }
  const auto pinned = service.PinIndices();
  pinned->text->WaitForMerges();
  const std::size_t shard0_levels =
      pinned->text->shard_index(0).tree().num_levels();
  const std::size_t shard1_levels =
      pinned->text->shard_index(1).tree().num_levels();
  ASSERT_GT(shard1_levels, shard0_levels) << "shards did not diverge";

  const std::string response = Get(server.port(), "/stats");
  EXPECT_NE(response.find("\"num_shards\":2"), std::string::npos);
  EXPECT_NE(response.find("\"text_levels\":" +
                          std::to_string(shard1_levels) + ","),
            std::string::npos)
      << response;
}

TEST_F(SearchRoutesTest, IndexPageIsHtml) {
  const std::string response = Get(port(), "/");
  EXPECT_NE(response.find("text/html"), std::string::npos);
  EXPECT_NE(response.find("RTSI"), std::string::npos);
}

}  // namespace
}  // namespace rtsi::server
