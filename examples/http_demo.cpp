// HTTP demo server: the paper's future-work "demonstration with a user
// friendly interface". Preloads a few shows, then serves search over
// HTTP on localhost.
//
//   $ ./http_demo [port]          (default 8080; 0 = ephemeral)
//   $ curl 'localhost:8080/search?q=football'
//   $ curl 'localhost:8080/ingest?stream=9&words=breaking+news+storm'
//   $ curl 'localhost:8080/live?q=news'
//   $ curl 'localhost:8080/stats'
//
// With RTSI_DEMO_SELFTEST=1 the binary starts on an ephemeral port,
// issues a few requests against itself and exits (used by automation).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/clock.h"
#include "server/async_http_server.h"
#include "server/search_handler.h"
#include "service/search_service.h"

namespace {

using namespace rtsi;

std::string LocalGet(int port, const std::string& target) {
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

}  // namespace

int main(int argc, char** argv) {
  const bool selftest = std::getenv("RTSI_DEMO_SELFTEST") != nullptr;
  const int port = selftest ? 0 : (argc > 1 ? std::atoi(argv[1]) : 8080);

  SimulatedClock clock;
  service::SearchServiceConfig config;
  config.ingestion.acoustic_path = service::AcousticPath::kDirect;
  service::SearchService search_service(config, &clock);

  // Preload a few shows so the demo answers immediately.
  search_service.IngestWindow(1, {"morning", "news", "politics", "economy"});
  search_service.IngestWindow(2, {"football", "match", "goal", "stadium"});
  search_service.IngestWindow(3, {"smooth", "jazz", "saxophone", "night"});
  search_service.UpdatePopularity(2, 5000);
  clock.Advance(kMicrosPerMinute);

  server::AsyncHttpServer http{server::ServerConfig{}};
  server::RegisterSearchRoutes(http, search_service, clock);
  const Status status = http.Start(port);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("RTSI demo server listening on http://127.0.0.1:%d/\n",
              http.port());

  if (selftest) {
    const std::string search = LocalGet(http.port(), "/search?q=football");
    const std::string stats = LocalGet(http.port(), "/stats");
    const std::string ingest = LocalGet(
        http.port(), "/ingest?stream=9&words=breaking+storm+warning");
    const std::string search2 = LocalGet(http.port(), "/search?q=storm");
    std::printf("selftest /search: %s", search.c_str());
    std::printf("selftest /stats: %s", stats.c_str());
    std::printf("selftest /ingest: %s", ingest.c_str());
    std::printf("selftest /search storm: %s", search2.c_str());
    http.Stop();
    const bool ok = search.find("\"stream\":2") != std::string::npos &&
                    stats.find("text_postings") != std::string::npos &&
                    search2.find("\"stream\":9") != std::string::npos;
    std::printf("selftest %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
  }

  std::printf("press Enter to stop.\n");
  (void)std::getchar();
  http.Stop();
  return 0;
}
