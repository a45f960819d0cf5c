// The epoll front-end over real loopback sockets: keep-alive and
// pipelining, query decoding and 404s, request caps (400/413), truncated
// requests (400), admission control (503 + Retry-After), insert
// batching, and the Stop drain contract.
//
// Timing-sensitive behaviors are made deterministic with a "gate" route
// whose handler blocks on a condition variable the test controls: with
// one worker thread, the gate pins the worker while the test arranges
// the exact queue state it wants to observe.

#include "server/async_http_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/http_server.h"

namespace rtsi::server {
namespace {

/// A raw loopback client that can hold a keep-alive connection open and
/// read responses one at a time (framed by Content-Length).
struct Client {
  int fd = -1;
  std::string buf;

  explicit Client(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Send(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool Get(const std::string& target, bool keep_alive = true) {
    return Send("GET " + target + " HTTP/1.1\r\n" +
                (keep_alive ? "" : "Connection: close\r\n") + "\r\n");
  }

  /// Blocks until one full response is buffered; empty string on EOF or
  /// error before a complete response arrived.
  std::string ReadResponse() {
    while (true) {
      const std::size_t head_end = buf.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        std::size_t body_len = 0;
        const std::size_t cl = buf.find("Content-Length: ");
        if (cl != std::string::npos && cl < head_end) {
          body_len = static_cast<std::size_t>(
              std::strtoull(buf.c_str() + cl + 16, nullptr, 10));
        }
        const std::size_t total = head_end + 4 + body_len;
        if (buf.size() >= total) {
          std::string response = buf.substr(0, total);
          buf.erase(0, total);
          return response;
        }
      }
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) return {};
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }
};

/// Blocks handler threads until the test opens the gate.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

void AwaitQueue(AsyncHttpServer& server,
                const std::function<bool(const ServerQueueStats&)>& pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred(server.QueueStats())) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "queue never reached the expected state";
}

TEST(AsyncHttpServerTest, ServesKeepAliveAndPipelinedRequests) {
  ServerConfig config;
  AsyncHttpServer server(config);
  server.Route("/echo", [](const HttpRequest& request) {
    auto it = request.query.find("msg");
    return HttpResponse{200, "text/plain",
                        it == request.query.end() ? "none" : it->second};
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  Client client(server.port());
  ASSERT_GE(client.fd, 0);
  // Two sequential requests on one connection (keep-alive)...
  ASSERT_TRUE(client.Get("/echo?msg=first"));
  EXPECT_NE(client.ReadResponse().find("first"), std::string::npos);
  ASSERT_TRUE(client.Get("/echo?msg=second"));
  EXPECT_NE(client.ReadResponse().find("second"), std::string::npos);
  // ...then two pipelined in one write.
  ASSERT_TRUE(client.Send(
      "GET /echo?msg=third HTTP/1.1\r\n\r\n"
      "GET /echo?msg=fourth HTTP/1.1\r\n\r\n"));
  EXPECT_NE(client.ReadResponse().find("third"), std::string::npos);
  EXPECT_NE(client.ReadResponse().find("fourth"), std::string::npos);
  EXPECT_GE(server.requests_served(), 4u);

  const std::string missing_response = [&] {
    Client other(server.port());
    other.Get("/nope");
    return other.ReadResponse();
  }();
  EXPECT_NE(missing_response.find("404"), std::string::npos);
  server.Stop();
}

TEST(AsyncHttpServerTest, DecodesQueryParamsAnd404s) {
  AsyncHttpServer server(ServerConfig{});
  server.Route("/echo", [](const HttpRequest& request) {
    auto it = request.query.find("msg");
    return HttpResponse{200, "text/plain",
                        it == request.query.end() ? "none" : it->second};
  });
  ASSERT_TRUE(server.Start(0).ok());

  Client client(server.port());
  ASSERT_TRUE(client.Get("/echo?msg=hello+there%21"));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("hello there!"), std::string::npos);
  ASSERT_TRUE(client.Get("/nope"));
  EXPECT_NE(client.ReadResponse().find("404 Not Found"), std::string::npos);
  EXPECT_GE(server.requests_served(), 2u);
  server.Stop();
}

TEST(AsyncHttpServerTest, PostBodyReachesHandler) {
  ServerConfig config;
  AsyncHttpServer server(config);
  server.Route("/upload", [](const HttpRequest& request) {
    return HttpResponse{200, "text/plain",
                        "got:" + request.body + ":" + request.method};
  });
  ASSERT_TRUE(server.Start(0).ok());

  Client client(server.port());
  const std::string body = "1 hello world\n2 another line\n";
  ASSERT_TRUE(client.Send("POST /upload HTTP/1.1\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("got:" + body + ":POST"), std::string::npos);
  server.Stop();
}

TEST(AsyncHttpServerTest, OversizedHeadGets400) {
  ServerConfig config;
  config.max_head_bytes = 128;
  AsyncHttpServer server(config);
  server.Route("/", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(server.Start(0).ok());

  Client client(server.port());
  ASSERT_TRUE(client.Get("/" + std::string(500, 'x')));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("400"), std::string::npos);
  // The connection is cut after the error: the next read sees EOF.
  EXPECT_TRUE(client.ReadResponse().empty());
  server.Stop();
}

TEST(AsyncHttpServerTest, OversizedBodyGets413) {
  ServerConfig config;
  config.max_body_bytes = 64;
  AsyncHttpServer server(config);
  ASSERT_TRUE(server.Start(0).ok());

  Client client(server.port());
  // The Content-Length alone triggers the cap — no body bytes needed.
  ASSERT_TRUE(client.Send("POST /upload HTTP/1.1\r\nContent-Length: 100000"
                          "\r\n\r\n"));
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("413"), std::string::npos);
  server.Stop();
}

TEST(AsyncHttpServerTest, TruncatedRequestGets400) {
  AsyncHttpServer server(ServerConfig{});
  ASSERT_TRUE(server.Start(0).ok());

  // The head never terminates and the client half-closes mid-request:
  // the request can never complete, so it is answered 400, then closed.
  Client client(server.port());
  ASSERT_TRUE(client.Send("GET /partial HTT"));
  ::shutdown(client.fd, SHUT_WR);
  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(response.find("truncated request"), std::string::npos);
  EXPECT_TRUE(client.ReadResponse().empty());

  // A clean half-close between requests still closes without a reply.
  Client idle(server.port());
  ::shutdown(idle.fd, SHUT_WR);
  EXPECT_TRUE(idle.ReadResponse().empty());
  server.Stop();
}

TEST(AsyncHttpServerTest, AdmissionControlShedsWith503AndRecovers) {
  Gate gate;
  ServerConfig config;
  config.workers = 1;
  config.max_pending = 2;
  AsyncHttpServer server(config);
  server.Route("/gate", [&gate](const HttpRequest&) {
    gate.Wait();
    return HttpResponse{200, "text/plain", "through"};
  });
  ASSERT_TRUE(server.Start(0).ok());

  // One request pinned in the worker, two filling the queue...
  Client c1(server.port()), c2(server.port()), c3(server.port());
  ASSERT_TRUE(c1.Get("/gate"));
  AwaitQueue(server, [](const ServerQueueStats& s) {
    return s.in_flight == 1;
  });
  ASSERT_TRUE(c2.Get("/gate"));
  ASSERT_TRUE(c3.Get("/gate"));
  AwaitQueue(server, [](const ServerQueueStats& s) {
    return s.pending == 2;
  });
  EXPECT_EQ(server.QueueStats().pending_by_path.at("/gate"), 2u);

  // ...so the next two are shed immediately with an actionable 503, by
  // the network thread, while the worker is still blocked.
  Client c4(server.port()), c5(server.port());
  ASSERT_TRUE(c4.Get("/gate"));
  ASSERT_TRUE(c5.Get("/gate"));
  for (Client* shed_client : {&c4, &c5}) {
    const std::string response = shed_client->ReadResponse();
    EXPECT_NE(response.find("503"), std::string::npos);
    EXPECT_NE(response.find("Retry-After: 1"), std::string::npos);
    EXPECT_NE(response.find("overloaded"), std::string::npos);
  }
  EXPECT_EQ(server.QueueStats().shed, 2u);
  EXPECT_EQ(server.QueueStats().accepted, 3u);

  // A shed connection stays usable, and admitted requests complete once
  // the overload clears.
  gate.Open();
  EXPECT_NE(c1.ReadResponse().find("through"), std::string::npos);
  EXPECT_NE(c2.ReadResponse().find("through"), std::string::npos);
  EXPECT_NE(c3.ReadResponse().find("through"), std::string::npos);
  ASSERT_TRUE(c4.Get("/gate"));
  EXPECT_NE(c4.ReadResponse().find("through"), std::string::npos);
  server.Stop();
}

TEST(AsyncHttpServerTest, BatchRouteCoalescesQueuedRequests) {
  Gate gate;
  std::mutex sizes_mu;
  std::vector<std::size_t> batch_sizes;
  ServerConfig config;
  config.workers = 1;
  config.max_batch = 8;
  AsyncHttpServer server(config);
  server.Route("/gate", [&gate](const HttpRequest&) {
    gate.Wait();
    return HttpResponse{200, "text/plain", "through"};
  });
  server.RouteBatch(
      "/batch", [&](const std::vector<HttpRequest>& requests) {
        {
          std::lock_guard<std::mutex> lock(sizes_mu);
          batch_sizes.push_back(requests.size());
        }
        std::vector<HttpResponse> responses;
        for (const HttpRequest& request : requests) {
          responses.emplace_back(200, "text/plain",
                                 "batched:" +
                                     request.query.find("id")->second);
        }
        return responses;
      });
  ASSERT_TRUE(server.Start(0).ok());

  // Pin the worker, then queue four /batch requests behind it.
  Client gatekeeper(server.port());
  ASSERT_TRUE(gatekeeper.Get("/gate"));
  AwaitQueue(server, [](const ServerQueueStats& s) {
    return s.in_flight == 1;
  });
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(server.port()));
    ASSERT_TRUE(clients.back()->Get("/batch?id=" + std::to_string(i)));
  }
  AwaitQueue(server, [](const ServerQueueStats& s) {
    return s.pending == 4;
  });

  // Releasing the worker drains all four as ONE handler call.
  gate.Open();
  EXPECT_NE(gatekeeper.ReadResponse().find("through"), std::string::npos);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(
        clients[i]->ReadResponse().find("batched:" + std::to_string(i)),
        std::string::npos)
        << "client " << i;
  }
  {
    std::lock_guard<std::mutex> lock(sizes_mu);
    ASSERT_EQ(batch_sizes.size(), 1u);
    EXPECT_EQ(batch_sizes[0], 4u);
  }
  const auto stats = server.QueueStats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, 4u);
  server.Stop();
}

TEST(AsyncHttpServerTest, StopDrainsInFlightRequestBeforeReturning) {
  Gate gate;
  ServerConfig config;
  config.workers = 1;
  AsyncHttpServer server(config);
  server.Route("/gate", [&gate](const HttpRequest&) {
    gate.Wait();
    return HttpResponse{200, "text/plain", "drained-ok"};
  });
  ASSERT_TRUE(server.Start(0).ok());

  Client client(server.port());
  ASSERT_TRUE(client.Get("/gate"));
  AwaitQueue(server, [](const ServerQueueStats& s) {
    return s.in_flight == 1;
  });

  // Stop must block until the in-flight request finished AND its response
  // was flushed to the socket.
  std::thread stopper([&server] { server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  stopper.join();

  const std::string response = client.ReadResponse();
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("drained-ok"), std::string::npos);
  // Draining closes the connection even though the request asked for
  // keep-alive.
  EXPECT_TRUE(client.ReadResponse().empty());
}

TEST(AsyncHttpServerTest, StopIsIdempotent) {
  ServerConfig config;
  AsyncHttpServer server(config);
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  server.Stop();
  SUCCEED();
}

TEST(AsyncHttpServerTest, ManyConnectionsManyRequests) {
  ServerConfig config;
  config.workers = 2;
  AsyncHttpServer server(config);
  std::atomic<int> handled{0};
  server.Route("/count", [&handled](const HttpRequest&) {
    return HttpResponse{200, "text/plain",
                        std::to_string(handled.fetch_add(1))};
  });
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        if (!client.Get("/count")) return;
        const std::string response = client.ReadResponse();
        if (response.find("200 OK") != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsEach);
  EXPECT_EQ(handled.load(), kClients * kRequestsEach);
  server.Stop();
}

}  // namespace
}  // namespace rtsi::server
