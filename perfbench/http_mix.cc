// http_mix: open-loop HTTP traffic against the epoll front-end.
//
// An AsyncHttpServer (constructed directly, default ServerConfig) serves
// RegisterSearchRoutes over a SearchService holding a preloaded ~1k-stream
// archive. One generator thread drives kConnections keep-alive loopback
// connections at a fixed offered rate: ~80% /search, ~15% /ingest (one
// window per request for fresh live streams, /finish at each stream's
// end) and ~5% /pop. Every request is timed from the moment it was due,
// so a stall also delays the requests queued behind it. 503s, transport
// errors and non-200 statuses are failed operations; they enter the
// latency samples at the full run length, never as fast successes.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>

#include "common.h"
#include "server/async_http_server.h"
#include "server/search_handler.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rtsi;

constexpr std::size_t kStreams = 1000;
constexpr std::size_t kPopUpdates = 30'000;
constexpr int kSetupReps = 3;
constexpr int kConnections = 4;
constexpr double kOfferedRate = 900.0;  // Requests per second.
constexpr double kWarmupSeconds = 0.5;
constexpr double kDrainSeconds = 10.0;
constexpr std::size_t kLiveCohort = 16;
constexpr int kK = 10;
constexpr std::size_t kAuditQueries = 500;
constexpr std::size_t kReplaySamples = 2000;
constexpr std::int64_t kQueueSampleNs = 5'000'000;

enum class Kind { kSearch, kIngest, kFinish, kPop };

struct Op {
  Kind kind = Kind::kSearch;
  std::int64_t due_ns = 0;  // Offset from the start of the pass.
  std::string target;
  std::uint64_t rid = 0;    // Request id, 1-based; also sent as &rid=.
  int pinned_conn = -1;     // Ops of one live stream share a connection.
};

/// Per-request handler timings recorded by the decorator, indexed by rid.
struct HandlerLog {
  explicit HandlerLog(std::size_t max_rid) : handler_ns(max_rid + 1, -1) {}
  std::vector<std::int64_t> handler_ns;  // Each slot written by one worker.
  std::mutex mu;
  Samples batch_sizes;                   // Guarded by mu.
};

std::uint64_t RequestId(const server::HttpRequest& request) {
  const auto it = request.query.find("rid");
  return it == request.query.end()
             ? 0
             : std::strtoull(it->second.c_str(), nullptr, 10);
}

/// HttpServerBase decorator: wraps each Route/RouteBatch handler with a
/// timer (a "server.handler" span per request, keyed by its rid) before
/// forwarding it to the real server; everything else forwards unchanged.
class TimedServer : public server::HttpServerBase {
 public:
  TimedServer(server::HttpServerBase& inner, Tracer& tracer, HandlerLog& log)
      : inner_(inner), tracer_(tracer), log_(log) {}

  void Route(const std::string& path, server::HttpHandler handler) override {
    inner_.Route(path, [this, handler](const server::HttpRequest& request) {
      const std::int64_t t0 = NowNanos();
      server::HttpResponse response = handler(request);
      Finish(request, t0, NowNanos());
      return response;
    });
  }

  void RouteBatch(const std::string& path,
                  server::HttpBatchHandler handler) override {
    inner_.RouteBatch(
        path,
        [this, handler](const std::vector<server::HttpRequest>& requests) {
          const std::int64_t t0 = NowNanos();
          auto responses = handler(requests);
          const std::int64_t t1 = NowNanos();
          for (const auto& request : requests) Finish(request, t0, t1);
          std::lock_guard<std::mutex> lock(log_.mu);
          log_.batch_sizes.Add(static_cast<double>(requests.size()));
          return responses;
        });
  }

  Status Start(int port) override { return inner_.Start(port); }
  void Stop() override { inner_.Stop(); }
  int port() const override { return inner_.port(); }
  std::uint64_t requests_served() const override {
    return inner_.requests_served();
  }
  server::ServerQueueStats QueueStats() const override {
    return inner_.QueueStats();
  }

 private:
  void Finish(const server::HttpRequest& request, std::int64_t t0,
              std::int64_t t1) {
    const std::uint64_t rid = RequestId(request);
    tracer_.Record("server.handler", t0, t1, rid);
    if (rid > 0 && rid < log_.handler_ns.size()) log_.handler_ns[rid] = t1 - t0;
  }

  server::HttpServerBase& inner_;
  Tracer& tracer_;
  HandlerLog& log_;
};

/// The op schedule of one pass: fixed rate, deterministic from the seed.
struct Schedule {
  std::vector<Op> ops;
  StreamId stream_limit = 0;  // Every id any op can name is below this.
};

Schedule MakeSchedule(const workload::SyntheticCorpus& corpus,
                      double seconds, StreamId first_live, std::uint64_t seed,
                      std::uint64_t first_rid) {
  Schedule schedule;
  const auto search_queries = ToKeywordQueries(
      MakeTermQueries(65536, corpus.vocab_size(), seed * 31 + 5));
  PopularityPicker picker(kStreams, seed ^ 0x3333ULL);
  Rng rng(seed ^ 0x2222ULL);
  std::vector<StreamId> cohort(kLiveCohort);
  std::vector<int> next_window(kLiveCohort, 0);
  StreamId next_stream = first_live;
  for (auto& s : cohort) s = next_stream++;
  std::size_t cohort_cursor = 0;

  const std::size_t total = static_cast<std::size_t>(
      (kWarmupSeconds + seconds) * kOfferedRate);
  const double gap_ns = 1e9 / kOfferedRate;
  for (std::size_t i = 0; i < total; ++i) {
    Op op;
    op.due_ns = static_cast<std::int64_t>(gap_ns * static_cast<double>(i));
    op.rid = first_rid + i;
    const std::string rid = "&rid=" + std::to_string(op.rid);
    const double roll = rng.NextDouble();
    if (roll < 0.80) {
      op.kind = Kind::kSearch;
      std::string q = search_queries[i % search_queries.size()];
      for (char& c : q) {
        if (c == ' ') c = '+';
      }
      op.target = "/search?q=" + q + "&k=" + std::to_string(kK) + rid;
    } else if (roll < 0.95) {
      const std::size_t slot = cohort_cursor++ % kLiveCohort;
      const StreamId stream = cohort[slot];
      op.pinned_conn = static_cast<int>(stream % kConnections);
      if (next_window[slot] == corpus.NumWindows(stream)) {
        op.kind = Kind::kFinish;
        op.target = "/finish?stream=" + std::to_string(stream) + rid;
        cohort[slot] = next_stream++;
        next_window[slot] = 0;
      } else {
        op.kind = Kind::kIngest;
        std::string words;
        for (const std::string& w :
             corpus.WindowWords(stream, next_window[slot]++)) {
          if (!words.empty()) words.push_back('+');
          words += w;
        }
        op.target = "/ingest?stream=" + std::to_string(stream) +
                    "&words=" + words + rid;
      }
    } else {
      op.kind = Kind::kPop;
      op.target = "/pop?stream=" + std::to_string(picker.Next(rng)) +
                  "&delta=" + std::to_string(1 + rng.NextUint64(100)) + rid;
    }
    schedule.ops.push_back(std::move(op));
  }
  schedule.stream_limit = next_stream;
  return schedule;
}

/// Checks a /search body: {"results":[{"stream":N,"score":X,...},...]}
/// with at most k entries, known ids and non-increasing scores (printed
/// scores are rounded, so ties carry no stream order).
bool SearchBodyOk(const std::string& body, StreamId limit) {
  if (body.rfind("{\"results\":[", 0) != 0) return false;
  int count = 0;
  double prev = 0.0;
  std::size_t pos = 0;
  while ((pos = body.find("{\"stream\":", pos)) != std::string::npos) {
    pos += 10;
    const StreamId stream = std::strtoull(body.c_str() + pos, nullptr, 10);
    const std::size_t at = body.find("\"score\":", pos);
    if (at == std::string::npos) return false;
    const double score = std::strtod(body.c_str() + at + 8, nullptr);
    if (stream >= limit || (count > 0 && score > prev)) return false;
    prev = score;
    ++count;
  }
  return count <= kK;
}

struct Conn {
  int fd = -1;
  std::deque<const Op*> queue;  // Released (due) ops waiting to be sent.
  const Op* current = nullptr;  // In flight.
  std::int64_t sent_ns = 0;
  std::string buf;
};

struct PassResult {
  Samples search_us, ingest_us;     // From due time.
  Samples late_us;                  // Generator scheduling lateness.
  std::vector<std::int64_t> round_trip_ns;  // Indexed by rid - first_rid.
  std::uint64_t attempted = 0, failed = 0, shed = 0, errors = 0;
  std::uint64_t malformed = 0;
  std::uint64_t searches_done = 0;
  std::uint64_t sent_measured = 0;
  std::uint64_t queued_behind = 0;  // Ops that found their conn busy.
  Samples pending;                  // QueueStats().pending samples.
};

bool Connect(Conn& conn, int port) {
  conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (conn.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(conn.fd);
    conn.fd = -1;
    return false;
  }
  const int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void CloseConn(Conn& conn) {
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  conn.buf.clear();
}

bool SendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Extracts one complete response from `buf`: status and body. Returns
/// false while incomplete.
bool TakeResponse(std::string& buf, int& status, std::string& body,
                  bool& close_after) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  std::size_t length = 0;
  const std::size_t cl = buf.find("Content-Length: ");
  if (cl != std::string::npos && cl < head_end) {
    length = std::strtoull(buf.c_str() + cl + 16, nullptr, 10);
  }
  if (buf.size() < head_end + 4 + length) return false;
  status = buf.size() > 12 ? std::atoi(buf.c_str() + 9) : 0;
  close_after = buf.find("Connection: close") < head_end;
  body = buf.substr(head_end + 4, length);
  buf.erase(0, head_end + 4 + length);
  return true;
}

/// Drives one pass of the schedule through `http` (port already bound).
PassResult Drive(const Schedule& schedule, server::HttpServerBase& http,
                 double seconds, bool sample_queue) {
  PassResult result;
  const std::uint64_t first_rid = schedule.ops.front().rid;
  result.round_trip_ns.assign(schedule.ops.size(), -1);
  std::vector<char> direct(schedule.ops.size(), 0);
  std::vector<Conn> conns(kConnections);
  for (Conn& conn : conns) Connect(conn, http.port());

  const std::int64_t start = NowNanos() + 1'000'000;
  const std::int64_t measure_from =
      static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const std::int64_t measure_to =
      measure_from + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t fail_us = static_cast<std::int64_t>(seconds * 1e6);
  auto measured = [&](const Op& op) {
    return op.due_ns >= measure_from && op.due_ns < measure_to;
  };
  auto complete = [&](const Op& op, bool ok, std::int64_t done_ns) {
    if (!measured(op)) return;
    const double us =
        ok ? static_cast<double>(done_ns - (start + op.due_ns)) / 1e3
           : static_cast<double>(fail_us);
    if (op.kind == Kind::kSearch) {
      result.search_us.Add(us);
      if (ok) ++result.searches_done;
    } else if (op.kind == Kind::kIngest) {
      result.ingest_us.Add(us);
    }
    if (!ok) ++result.failed;
  };

  std::size_t next = 0;
  std::size_t outstanding = 0;  // Released but not completed.
  std::int64_t next_sample = start;
  const std::int64_t drain_deadline =
      start + schedule.ops.back().due_ns +
      static_cast<std::int64_t>(kDrainSeconds * 1e9);
  while (next < schedule.ops.size() || outstanding > 0) {
    std::int64_t now = NowNanos();
    if (now > drain_deadline) break;
    // Release every due op to a connection.
    while (next < schedule.ops.size() &&
           start + schedule.ops[next].due_ns <= now) {
      const Op& op = schedule.ops[next++];
      int target = op.pinned_conn;
      if (target < 0) {
        target = 0;
        for (int c = 1; c < kConnections; ++c) {
          const auto load = [&](int i) {
            return conns[i].queue.size() + (conns[i].current ? 1 : 0);
          };
          if (load(c) < load(target)) target = c;
        }
      }
      Conn& conn = conns[target];
      if (conn.current != nullptr || !conn.queue.empty()) {
        ++result.queued_behind;
      } else {
        direct[op.rid - first_rid] = 1;
      }
      conn.queue.push_back(&op);
      ++outstanding;
      if (measured(op)) ++result.attempted;
    }
    // Send on idle connections.
    for (Conn& conn : conns) {
      if (conn.current != nullptr || conn.queue.empty()) continue;
      const Op& op = *conn.queue.front();
      conn.queue.pop_front();
      if (conn.fd < 0 && !Connect(conn, http.port())) {
        complete(op, false, NowNanos());
        ++result.errors;
        --outstanding;
        continue;
      }
      conn.sent_ns = NowNanos();
      if (!SendAll(conn.fd, "GET " + op.target + " HTTP/1.1\r\n\r\n")) {
        CloseConn(conn);
        complete(op, false, NowNanos());
        ++result.errors;
        --outstanding;
        continue;
      }
      if (measured(op)) {
        ++result.sent_measured;
        // Lateness of the generator itself: only ops that found their
        // connection idle (the rest waited for the server, which their
        // latency from due time already shows).
        if (direct[op.rid - first_rid]) {
          result.late_us.Add(
              static_cast<double>(conn.sent_ns - (start + op.due_ns)) / 1e3);
        }
      }
      conn.current = &op;
    }
    if (sample_queue && now >= next_sample) {
      result.pending.Add(static_cast<double>(http.QueueStats().pending));
      next_sample = now + kQueueSampleNs;
    }
    // Wait for responses or the next due op; the last kSpinNs before a due
    // time are spun with zero-timeout polls (see kSpinNs).
    pollfd fds[kConnections];
    int nfds = 0;
    int index[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      if (conns[c].current == nullptr) continue;
      fds[nfds] = pollfd{conns[c].fd, POLLIN, 0};
      index[nfds++] = c;
    }
    now = NowNanos();
    std::int64_t wait_ns = 2'000'000;
    if (next < schedule.ops.size()) {
      wait_ns = std::min(wait_ns,
                         start + schedule.ops[next].due_ns - now - kSpinNs);
    }
    wait_ns = std::max<std::int64_t>(wait_ns, 0);
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds, static_cast<nfds_t>(nfds), &ts, nullptr) <= 0) continue;
    for (int f = 0; f < nfds; ++f) {
      if (fds[f].revents == 0) continue;
      Conn& conn = conns[index[f]];
      char chunk[16384];
      const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        complete(*conn.current, false, NowNanos());
        ++result.errors;
        --outstanding;
        conn.current = nullptr;
        CloseConn(conn);
        continue;
      }
      conn.buf.append(chunk, static_cast<std::size_t>(n));
      int status = 0;
      std::string body;
      bool close_after = false;
      if (!TakeResponse(conn.buf, status, body, close_after)) continue;
      const std::int64_t done = NowNanos();
      const Op& op = *conn.current;
      conn.current = nullptr;
      --outstanding;
      result.round_trip_ns[op.rid - first_rid] = done - conn.sent_ns;
      bool ok = status == 200;
      if (status == 503) ++result.shed;
      if (ok && op.kind == Kind::kSearch &&
          !SearchBodyOk(body, schedule.stream_limit)) {
        ok = false;
        if (measured(op)) ++result.malformed;
      }
      if (!ok && status != 503) ++result.errors;
      complete(op, ok, done);
      if (close_after) CloseConn(conn);
    }
  }
  // Anything still outstanding at the drain deadline failed.
  for (Conn& conn : conns) {
    if (conn.current != nullptr) complete(*conn.current, false, NowNanos());
    for (const Op* op : conn.queue) complete(*op, false, NowNanos());
    CloseConn(conn);
  }
  return result;
}

struct ServedPass {
  PassResult load;
  std::uint64_t shed_total = 0;  // QueueStats().shed at the end.
};

ServedPass Serve(service::SearchService& svc, SimulatedClock& clock,
                 const Schedule& schedule, double seconds, Tracer* tracer,
                 HandlerLog* log, Report& report) {
  ServedPass pass;
  server::AsyncHttpServer async{server::ServerConfig{}};
  std::unique_ptr<TimedServer> timed;
  server::HttpServerBase* http = &async;
  if (tracer != nullptr) {
    timed = std::make_unique<TimedServer>(async, *tracer, *log);
    http = timed.get();
  }
  server::RegisterSearchRoutes(*http, svc, clock);
  const Status started = http->Start(0);
  if (!started.ok()) {
    report.Problem("AsyncHttpServer::Start: " + started.ToString());
    return pass;
  }
  pass.load = Drive(schedule, *http, seconds, tracer != nullptr);
  pass.shed_total = http->QueueStats().shed;
  http->Stop();
  return pass;
}

}  // namespace

void RunHttpMix(const Options& options, Report& report) {
  const workload::SyntheticCorpus corpus(CorpusFor(kStreams, options.seed));
  Archive archive;
  Samples setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    archive = Archive{};
    archive = BuildArchive(corpus, kPopUpdates, options.seed, nullptr);
    setup_s.Add(archive.seconds);
  }
  service::SearchService& svc = *archive.service;

  const Schedule schedule =
      MakeSchedule(corpus, options.seconds, kStreams, options.seed, 1);
  const ServedPass pass =
      Serve(svc, *archive.clock, schedule, options.seconds, nullptr, nullptr,
            report);
  const PassResult& r = pass.load;
  report.Attempted(r.attempted);
  report.Failed(r.failed);
  if (r.malformed > 0) {
    report.Problem(std::to_string(r.malformed) + " malformed /search bodies");
  }
  const double late_p99 = r.late_us.Percentile(0.99);
  if (late_p99 > kMaxGeneratorLateP99Us) {
    report.Problem("generator fell behind: lateness p99 " +
                   FormatDouble(late_p99) + " us");
  }

  // Full-walk audit on the quiesced service.
  const ServiceAudit audit = AuditService(
      svc,
      ToKeywordQueries(MakeTermQueries(kAuditQueries, corpus.vocab_size(),
                                       options.seed * 31 + 6)),
      2 * kK, options.seed, archive.clock->Now(), schedule.stream_limit);
  if (audit.malformed > 0) {
    report.Problem(std::to_string(audit.malformed) +
                   " malformed audit results");
  }

  const SetTotals text = Totals(svc.text_shards());
  const SetTotals sound = Totals(svc.sound_shards());
  const double measured_s = options.seconds;
  const double mismatch_frac =
      static_cast<double>(audit.mismatches) /
      static_cast<double>(kAuditQueries);
  const double failed_frac = static_cast<double>(report.failed()) /
                             static_cast<double>(report.attempted());
  report.EndToEnd("setup_s", setup_s.Percentile(0.5), "s", setup_s.count());
  report.EndToEnd("search_p50_us", r.search_us.Percentile(0.5), "us",
                  r.search_us.count());
  report.Layer("search_p99_us", r.search_us.WindowedPercentile(0.99), "us",
               r.search_us.count());
  report.EndToEnd("search_qps",
                  static_cast<double>(r.searches_done) / measured_s, "1/s");
  report.Layer("ingest_p50_us", r.ingest_us.Percentile(0.5), "us",
               r.ingest_us.count());
  report.Layer("ingest_p99_us", r.ingest_us.WindowedPercentile(0.99), "us",
               r.ingest_us.count());
  report.EndToEnd("index_bytes_per_posting",
                  static_cast<double>(text.memory_bytes + sound.memory_bytes) /
                      static_cast<double>(text.postings + sound.postings),
                  "B");
  report.Info("failed_frac", failed_frac);
  report.Info("topk_mismatch_frac", mismatch_frac);
  report.Info("audit_queries", static_cast<double>(kAuditQueries));
  report.Info("audit_mismatches", static_cast<double>(audit.mismatches));
  report.Info("offered_rps", kOfferedRate);
  report.Info("connections", kConnections);
  report.Info("streams", static_cast<double>(kStreams));
  report.Info("shed_503", static_cast<double>(r.shed));
  report.Info("errors", static_cast<double>(r.errors));
  report.Info("queued_behind_busy_conn", static_cast<double>(r.queued_behind));
  report.Info("late_p99_us", late_p99);
  report.Layer("audit.topk_mismatch_frac", mismatch_frac, "fraction");
  report.Layer("loadgen.failed_frac", failed_frac, "fraction");
  report.Layer("loadgen.late_p99_us", late_p99, "us", r.late_us.count());
  report.Layer("loadgen.achieved_rps",
               static_cast<double>(r.sent_measured) / measured_s, "1/s");
  if (!options.trace) return;

  // Traced pass: the same mix (fresh live streams) through the
  // handler-timing decorator, with the queue depth sampled every 5 ms.
  Tracer tracer;
  const Schedule traced_schedule =
      MakeSchedule(corpus, options.seconds, schedule.stream_limit,
                   options.seed + 1, schedule.ops.size() + 1);
  HandlerLog log(traced_schedule.ops.back().rid);
  const ServedPass traced = Serve(svc, *archive.clock, traced_schedule,
                                  options.seconds, &tracer, &log, report);
  const PassResult& t = traced.load;
  report.Attempted(t.attempted);
  report.Failed(t.failed);
  AddTraceOverhead(report, r.search_us, t.search_us);

  Samples handler_us, outside_us;
  const std::uint64_t first_rid = traced_schedule.ops.front().rid;
  for (const Op& op : traced_schedule.ops) {
    if (op.kind != Kind::kSearch) continue;
    const std::int64_t handler = log.handler_ns[op.rid];
    const std::int64_t round_trip = t.round_trip_ns[op.rid - first_rid];
    if (handler < 0 || round_trip < 0) continue;
    handler_us.Add(static_cast<double>(handler) / 1e3);
    outside_us.Add(static_cast<double>(round_trip - handler) / 1e3);
  }
  report.Layer("server.handler_p50_us", handler_us.Percentile(0.5), "us",
               handler_us.count());
  report.Layer("server.outside_handler_p50_us", outside_us.Percentile(0.5),
               "us", outside_us.count());
  report.Layer("server.outside_handler_p99_us", outside_us.Percentile(0.99),
               "us", outside_us.count());
  report.Layer("server.pending_mean", t.pending.Mean(), "count",
               t.pending.count());
  report.Layer("server.batch_size_mean", log.batch_sizes.Mean(), "count",
               log.batch_sizes.count());
  report.Layer("server.shed", static_cast<double>(traced.shed_total), "count");

  // Service-layer calls on the served state, now quiesced: the query and
  // window processing the handlers ran, replayed span by span.
  const auto replay_queries = ToKeywordQueries(MakeTermQueries(
      kReplaySamples, corpus.vocab_size(), options.seed * 31 + 5));
  Rng replay_rng(options.seed ^ 0x4444ULL);
  for (const std::string& q : replay_queries) {
    Tracer::Scope span(tracer, "service.process_query");
    svc.query_processor().ProcessKeywords(q, replay_rng);
  }
  for (std::size_t i = 0; i < kReplaySamples; ++i) {
    const auto words = corpus.WindowWords(kStreams + i % 64, static_cast<int>(i / 64));
    Tracer::Scope span(tracer, "service.process_window");
    svc.pipeline().ProcessWindow(words, replay_rng);
  }
  const Samples pq = tracer.DurationsMicros("service.process_query");
  const Samples pw = tracer.DurationsMicros("service.process_window");
  report.Layer("service.process_query_p50_us", pq.Percentile(0.5), "us",
               pq.count());
  report.Layer("service.process_window_p50_us", pw.Percentile(0.5), "us",
               pw.count());
  DumpSpans(tracer, options, report);
}

}  // namespace perfbench
