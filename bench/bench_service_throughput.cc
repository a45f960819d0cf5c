// Service front-end throughput: AsyncHttpServer over 1/2/4-shard
// deployments of the same corpus, driven by open-loop HTTP load over
// real loopback sockets.
//
// Each configuration serves the SAME pre-loaded index state (identical
// sequential ingest through the full pipeline), so after the load phase
// a fixed audit query set must return byte-identical /search responses
// from every shard count — the end-to-end form of the scatter-gather
// bit-identity contract (DESIGN.md §6i). The bench exits nonzero if any
// configuration's audit checksum diverges.
//
// Reported per configuration: completed-request throughput, p50/p99
// latency, 503s shed by admission control, and the direct-path ingest
// rate.
//
// A second block measures concurrent ingest on the path the server runs:
// 1/2/4 writer threads (the HTTP server above runs 2 workers) x 1/2/4
// shards, each writer calling SearchService::IngestBatch with one stream's
// windows per call, as the /ingest route hands a coalesced batch to the
// service. Each cell is repeated and reported as median and quartiles,
// so a difference between shard counts can be read against the spread.
//
// Writes BENCH_service_throughput.json (with the host's core count);
// runs under `ctest -L bench-smoke` at RTSI_BENCH_SCALE=0.01.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/latency_stats.h"
#include "server/async_http_server.h"
#include "server/search_handler.h"
#include "service/search_service.h"
#include "workload/corpus.h"
#include "workload/report.h"

namespace {

using namespace rtsi;

/// One keep-alive loopback connection; reconnects when the server closes
/// it (a Connection: close response, e.g. while the server drains).
class BenchClient {
 public:
  explicit BenchClient(int port) : port_(port) {}
  ~BenchClient() { Close(); }

  /// Returns the full response, or empty on connection failure.
  std::string Get(const std::string& target) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (fd_ < 0 && !Connect()) return {};
      const std::string request = "GET " + target + " HTTP/1.1\r\n\r\n";
      if (!SendAll(request)) {
        Close();  // Server closed the keep-alive socket; reconnect once.
        continue;
      }
      const std::string response = ReadResponse();
      if (!response.empty()) return response;
      Close();
    }
    return {};
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  bool SendAll(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::string ReadResponse() {
    while (true) {
      const std::size_t head_end = buf_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        std::size_t body_len = 0;
        const std::size_t cl = buf_.find("Content-Length: ");
        if (cl != std::string::npos && cl < head_end) {
          body_len = static_cast<std::size_t>(
              std::strtoull(buf_.c_str() + cl + 16, nullptr, 10));
        }
        const std::size_t total = head_end + 4 + body_len;
        if (buf_.size() >= total) {
          std::string response = buf_.substr(0, total);
          buf_.erase(0, total);
          if (response.find("Connection: close") != std::string::npos) {
            Close();
            buf_.clear();
          }
          return response;
        }
      }
      char chunk[8192];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int port_;
  int fd_ = -1;
  std::string buf_;
};

std::uint64_t Fnv1a(const std::string& data, std::uint64_t hash) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct RunResult {
  int shards = 0;
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t errors = 0;
  double seconds = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double ingest_rate = 0.0;
  std::uint64_t checksum = 0;
};

service::SearchServiceConfig ServiceConfig(int shards) {
  service::SearchServiceConfig config;
  config.ingestion.acoustic_path = service::AcousticPath::kDirect;
  config.shards = shards;
  return config;
}

/// The fixed audit query set: two-word queries drawn deterministically
/// from the corpus, identical for every configuration.
std::vector<std::string> AuditQueries(const workload::SyntheticCorpus& corpus,
                                      std::size_t num_streams, int n) {
  Rng rng(7);
  std::vector<std::string> queries;
  for (int i = 0; i < n; ++i) {
    const StreamId target = rng.NextUint64(num_streams);
    const auto words = corpus.WindowWords(target, 0);
    queries.push_back(words[rng.NextUint64(words.size())] + "+" +
                      words[rng.NextUint64(words.size())]);
  }
  return queries;
}

RunResult RunConfig(int shards,
                    const workload::SyntheticCorpus& corpus,
                    std::size_t num_streams,
                    const std::vector<std::string>& load_queries,
                    const std::vector<std::string>& audit_queries,
                    int client_threads, double gap_micros) {
  RunResult result;
  result.shards = shards;

  // Identical sequential pre-load through the full pipeline: every
  // configuration indexes the same corpus in the same op order, so the
  // served state is the same regardless of shard count.
  SimulatedClock clock;
  service::SearchService service(ServiceConfig(shards), &clock);
  Stopwatch ingest_watch;
  std::size_t windows = 0;
  for (StreamId s = 0; s < num_streams; ++s) {
    const int n = corpus.NumWindows(s);
    for (int w = 0; w < n; ++w) {
      service.IngestWindow(s, corpus.WindowWords(s, w), w + 1 < n);
      ++windows;
    }
    service.FinishStream(s);
    clock.Advance(kMicrosPerSecond);
  }
  result.ingest_rate = windows / (ingest_watch.ElapsedMicros() / 1e6);

  server::ServerConfig server_config;
  server_config.workers = 2;
  server_config.max_pending = 64;  // Small enough to shed under bursts.
  server::AsyncHttpServer http(server_config);
  server::RegisterSearchRoutes(http, service, clock);
  if (!http.Start(0).ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return result;
  }

  // Open-loop load: each client thread fires its slice of the query list
  // on a fixed arrival schedule (no coordinated omission — a request
  // that is due goes out even if the previous one was slow). The first
  // 25% are a burst to exercise admission control.
  LatencyStats latency;
  std::mutex latency_mu;
  std::atomic<std::size_t> ok{0}, shed{0}, errors{0};
  std::vector<std::thread> clients;
  Stopwatch load_watch;
  for (int t = 0; t < client_threads; ++t) {
    clients.emplace_back([&, t] {
      BenchClient client(http.port());
      const auto start = std::chrono::steady_clock::now();
      std::size_t sent = 0;
      for (std::size_t i = t; i < load_queries.size();
           i += static_cast<std::size_t>(client_threads)) {
        const bool burst = sent < load_queries.size() /
                                      static_cast<std::size_t>(
                                          client_threads) / 4;
        if (!burst) {
          const auto due =
              start + std::chrono::microseconds(static_cast<long long>(
                          gap_micros * static_cast<double>(sent)));
          std::this_thread::sleep_until(due);
        }
        ++sent;
        Stopwatch watch;
        const std::string response =
            client.Get("/search?q=" + load_queries[i] + "&k=10");
        if (response.find("200 OK") != std::string::npos) {
          ok.fetch_add(1);
          std::lock_guard<std::mutex> lock(latency_mu);
          latency.Record(watch.ElapsedMicros());
        } else if (response.find("503") != std::string::npos) {
          shed.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  result.seconds = load_watch.ElapsedMicros() / 1e6;
  result.requests = load_queries.size();
  result.ok = ok.load();
  result.shed = shed.load();
  result.errors = errors.load();
  result.p50 = latency.PercentileMicros(0.50);
  result.p99 = latency.PercentileMicros(0.99);

  // Audit pass, post-quiesce: the load phase was read-only, so every
  // configuration must return byte-identical bodies for the fixed query
  // set. Checksum the bodies (headers carry per-connection keep-alive).
  std::uint64_t checksum = 14695981039346656037ULL;
  BenchClient audit_client(http.port());
  for (const std::string& query : audit_queries) {
    const std::string response =
        audit_client.Get("/search?q=" + query + "&k=10");
    const std::size_t body = response.find("\r\n\r\n");
    checksum = Fnv1a(
        body == std::string::npos ? response : response.substr(body + 4),
        checksum);
  }
  result.checksum = checksum;

  const auto queue = http.QueueStats();
  result.shed = std::max(result.shed, static_cast<std::size_t>(queue.shed));
  http.Stop();
  return result;
}

/// windows/s of each repeat of one (writers, shards) cell.
struct IngestCell {
  int writers = 0;
  int shards = 0;
  std::vector<double> windows_per_sec;
};

constexpr int kIngestRepeats = 5;

/// Ingests `batches` (one stream's windows each, stream ids distinct) into
/// a fresh service of `shards` shards from `writers` threads: writer w
/// sends batches w, w + writers, ... through IngestBatch and finishes each
/// stream after its batch. Returns windows/s.
double RunIngest(int writers, int shards,
                 const std::vector<std::vector<service::IngestOp>>& batches,
                 std::size_t windows) {
  SimulatedClock clock;
  service::SearchService service(ServiceConfig(shards), &clock);
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t b = w; b < batches.size();
           b += static_cast<std::size_t>(writers)) {
        service.IngestBatch(batches[b]);
        service.FinishStream(batches[b].front().stream);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return windows / std::max(watch.ElapsedMicros() / 1e6, 1e-9);
}

/// The value at quantile `q` of `values` (nearest rank below).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * (values.size() - 1))];
}

}  // namespace

int main() {
  const std::size_t num_streams = std::max<std::size_t>(8, bench::Scaled(150));
  const int load_n = static_cast<int>(
      std::max<std::size_t>(40, bench::Scaled(1200)));
  const int audit_n = 32;
  const int client_threads = 4;
  const double gap_micros = 800.0;  // ~1.25k req/s offered per thread slice.

  workload::CorpusConfig corpus_config;
  corpus_config.num_streams = num_streams;
  corpus_config.vocab_size = 10'000;
  corpus_config.words_per_window = 80;
  corpus_config.avg_windows_per_stream = 6;
  corpus_config.min_windows_per_stream = 3;
  const workload::SyntheticCorpus corpus(corpus_config);

  std::vector<std::string> load_queries;
  {
    Rng rng(11);
    for (int i = 0; i < load_n; ++i) {
      const StreamId target = rng.NextUint64(num_streams);
      const auto words = corpus.WindowWords(target, 0);
      load_queries.push_back(words[rng.NextUint64(words.size())] + "+" +
                             words[rng.NextUint64(words.size())]);
    }
  }
  const auto audit_queries = AuditQueries(corpus, num_streams, audit_n);

  std::vector<RunResult> results;
  for (const int shards : {1, 2, 4}) {
    results.push_back(RunConfig(shards, corpus, num_streams, load_queries,
                                audit_queries, client_threads, gap_micros));
  }

  // Concurrent ingest: the corpus's windows, replayed under fresh stream
  // ids until the run is long enough to time.
  const std::size_t ingest_streams =
      std::max<std::size_t>(16, bench::Scaled(600));
  std::vector<std::vector<service::IngestOp>> ingest_batches;
  std::size_t ingest_windows = 0;
  for (StreamId id = 0; id < ingest_streams; ++id) {
    const StreamId source = id % num_streams;
    const int n = corpus.NumWindows(source);
    std::vector<service::IngestOp> batch;
    for (int w = 0; w < n; ++w) {
      batch.push_back({id, corpus.WindowWords(source, w), w + 1 < n});
    }
    ingest_windows += batch.size();
    ingest_batches.push_back(std::move(batch));
  }
  std::vector<IngestCell> ingest;
  for (const int writers : {1, 2, 4}) {
    for (const int shards : {1, 2, 4}) ingest.push_back({writers, shards, {}});
  }
  // Repeats run round-robin over the cells, so drift on the host spreads
  // over every cell instead of landing on one.
  for (int r = 0; r < kIngestRepeats; ++r) {
    for (IngestCell& cell : ingest) {
      cell.windows_per_sec.push_back(RunIngest(
          cell.writers, cell.shards, ingest_batches, ingest_windows));
    }
  }

  workload::ReportTable table(
      "Service front-end throughput (AsyncHttpServer, open-loop /search "
      "load)",
      {"shards", "ok", "shed", "err", "req/s", "p50", "p99"});
  bench::JsonReport report("service_throughput");
  report.Field("scale", bench::Scale())
      .Field("streams", static_cast<double>(num_streams))
      .Field("load_queries", static_cast<double>(load_n))
      .Field("audit_queries", static_cast<double>(audit_n))
      .Field("client_threads", static_cast<double>(client_threads))
      .Field("nproc",
             static_cast<double>(std::thread::hardware_concurrency()))
      .Field("ingest_windows", static_cast<double>(ingest_windows))
      .Field("ingest_repeats", static_cast<double>(kIngestRepeats));

  bool divergent = false;
  for (const RunResult& r : results) {
    if (r.checksum != results.front().checksum) divergent = true;
    table.AddRow(
        {std::to_string(r.shards), std::to_string(r.ok),
         std::to_string(r.shed), std::to_string(r.errors),
         workload::FormatDouble(r.ok / std::max(r.seconds, 1e-9), 0),
         workload::FormatMicros(r.p50), workload::FormatMicros(r.p99)});
    report.AddRow()
        .Field("block", "http_search")
        .Field("shards", static_cast<double>(r.shards))
        .Field("requests", static_cast<double>(r.requests))
        .Field("ok", static_cast<double>(r.ok))
        .Field("shed_503", static_cast<double>(r.shed))
        .Field("errors", static_cast<double>(r.errors))
        .Field("throughput_rps", r.ok / std::max(r.seconds, 1e-9))
        .Field("p50_micros", r.p50)
        .Field("p99_micros", r.p99)
        .Field("ingest_windows_per_sec", r.ingest_rate)
        .Field("audit_checksum", std::to_string(r.checksum));
  }
  report.Field("audit_consistent", divergent ? "false" : "true");
  table.Print();

  workload::ReportTable ingest_table(
      "Concurrent ingest through SearchService::IngestBatch (windows/s, "
      "median and quartiles of " + std::to_string(kIngestRepeats) +
          " runs)",
      {"writers", "shards", "median", "q1", "q3"});
  for (const IngestCell& cell : ingest) {
    const double median = Quantile(cell.windows_per_sec, 0.5);
    const double q1 = Quantile(cell.windows_per_sec, 0.25);
    const double q3 = Quantile(cell.windows_per_sec, 0.75);
    ingest_table.AddRow(
        {std::to_string(cell.writers), std::to_string(cell.shards),
         workload::FormatDouble(median, 0), workload::FormatDouble(q1, 0),
         workload::FormatDouble(q3, 0)});
    report.AddRow()
        .Field("block", "ingest")
        .Field("writers", static_cast<double>(cell.writers))
        .Field("shards", static_cast<double>(cell.shards))
        .Field("windows_per_sec_median", median)
        .Field("windows_per_sec_q1", q1)
        .Field("windows_per_sec_q3", q3);
  }
  ingest_table.Print();
  report.Write("BENCH_service_throughput.json");

  if (divergent) {
    std::fprintf(stderr,
                 "FAIL: /search audit responses diverge across shard "
                 "configurations\n");
    for (const RunResult& r : results) {
      std::fprintf(stderr, "  %d shards: checksum %llu\n", r.shards,
                   static_cast<unsigned long long>(r.checksum));
    }
    return 1;
  }
  std::printf("audit: all %zu configurations byte-identical\n",
              results.size());
  return 0;
}
