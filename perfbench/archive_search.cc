// archive_search: closed-loop keyword search over a finished archive.
//
// Setup ingests 3k streams through SearchService::IngestWindow and
// FinishStream, which already reaches sealed level 3 in both modalities
// (2k streams reach only level 2) while keeping one build near 12 s, so
// three builds fit in a run. Then it applies a burst of Zipf-skewed
// post-seal popularity updates. The load is two client threads calling
// SearchKeywords(q, 10) back to back. No writes run during the load, so
// lsm, storage and server sit idle.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "exec/sink.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rtsi;

constexpr std::size_t kStreams = 3000;
constexpr std::size_t kPopUpdates = 200'000;
constexpr int kSetupReps = 3;
constexpr int kClients = 2;
constexpr int kK = 10;
constexpr std::size_t kLoadQueries = 100'000;
constexpr std::size_t kWarmupQueries = 500;
constexpr std::size_t kAuditQueries = 1000;

/// Per-client counters of one load phase.
struct ClientResult {
  Samples latency_us;
  std::uint64_t completed = 0;
  std::uint64_t malformed = 0;
  // Traced phase only.
  core::QueryStats stats;          // Summed over both modalities.
  std::uint64_t modality_runs = 0;
  std::uint64_t early_terminations = 0;
  std::uint64_t results = 0;       // Modality results returned.
  std::uint64_t sound_terms = 0;
  Samples slice_qps;  // Totals only: completions/s in each 1-s slice.
};

/// What the traced phase needs to split SearchKeywords into its calls.
struct TracedPath {
  Tracer* tracer = nullptr;
  std::mutex* rng_mu = nullptr;  // The service serializes query processing.
  Rng* rng = nullptr;
  std::atomic<std::uint64_t>* next_request = nullptr;
};

/// One modality's top-`fetch` through BuildPlan + ExecutePlan per shard,
/// gathered like IndexShardSet::Query gathers.
std::vector<core::ScoredStream> TracedModality(
    shard::IndexShardSet& set, const std::vector<TermId>& terms, int fetch,
    Timestamp now, const char* plan_name, const char* execute_name,
    Tracer& tracer, ClientResult& out) {
  std::vector<std::vector<core::ScoredStream>> partials;
  for (int s = 0; s < set.num_shards(); ++s) {
    core::RtsiIndex& index = set.shard_index(s);
    exec::QueryPlan plan;
    {
      Tracer::Scope span(tracer, plan_name);
      plan = index.BuildPlan(terms, fetch, now);
    }
    exec::TopKSink sink(fetch);
    core::QueryStats qs;
    {
      Tracer::Scope span(tracer, execute_name);
      partials.push_back(index.ExecutePlan(plan, sink, &qs));
    }
    exec::FoldStats(out.stats, qs);
    ++out.modality_runs;
    if (qs.terminated_early) ++out.early_terminations;
  }
  auto results = partials.size() == 1 ? std::move(partials.front())
                                      : exec::GatherPartials(partials, fetch);
  out.results += results.size();
  return results;
}

/// SearchService::Fuse, restated: weighted sum per stream, then
/// (score desc, stream asc).
std::vector<service::SearchResult> Fuse(
    const std::vector<core::ScoredStream>& text,
    const std::vector<core::ScoredStream>& sound, int k, double text_weight) {
  std::unordered_map<StreamId, service::SearchResult> fused;
  for (const auto& r : text) {
    fused[r.stream].stream = r.stream;
    fused[r.stream].text_score = r.score;
  }
  for (const auto& r : sound) {
    fused[r.stream].stream = r.stream;
    fused[r.stream].sound_score = r.score;
  }
  std::vector<service::SearchResult> out;
  out.reserve(fused.size());
  for (auto& [stream, result] : fused) {
    result.score = text_weight * result.text_score +
                   (1.0 - text_weight) * result.sound_score;
    out.push_back(result);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.stream < b.stream;
  });
  if (out.size() > static_cast<std::size_t>(k)) out.resize(k);
  return out;
}

std::vector<service::SearchResult> TracedSearch(service::SearchService& svc,
                                                const Clock& clock,
                                                const std::string& query,
                                                const TracedPath& path,
                                                ClientResult& out) {
  Tracer& tracer = *path.tracer;
  Tracer::Scope root(tracer, "search",
                     path.next_request->fetch_add(1) + 1);
  service::ProcessedQuery processed;
  {
    std::lock_guard<std::mutex> lock(*path.rng_mu);
    Tracer::Scope span(tracer, "service.process_query");
    processed = svc.query_processor().ProcessKeywords(query, *path.rng);
  }
  out.sound_terms += processed.sound_terms.size();
  const auto pinned = svc.PinIndices();
  const Timestamp now = clock.Now();
  const auto text =
      TracedModality(*pinned->text, processed.text_terms, 2 * kK, now,
                     "exec.text.plan", "exec.text.execute", tracer, out);
  const auto sound =
      TracedModality(*pinned->sound, processed.sound_terms, 2 * kK, now,
                     "exec.sound.plan", "exec.sound.execute", tracer, out);
  Tracer::Scope span(tracer, "service.fuse");
  return Fuse(text, sound, kK, service::SearchServiceConfig{}.text_weight);
}

/// Runs the closed loop for `seconds`; `path` non-null = traced split.
ClientResult RunLoad(service::SearchService& svc, const Clock& clock,
                     const std::vector<std::string>& queries, double seconds,
                     StreamId stream_limit, const TracedPath* path) {
  std::atomic<int> warmed{0};
  std::atomic<bool> go{false}, stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientResult& out = results[c];
      std::size_t next = c * queries.size() / kClients;
      auto one = [&](bool timed) {
        const std::string& q = queries[next];
        next = (next + 1) % queries.size();
        const std::int64_t t0 = NowNanos();
        // Warm-up queries are never traced.
        const auto r = path == nullptr || !timed
                           ? svc.SearchKeywords(q, kK)
                           : TracedSearch(svc, clock, q, *path, out);
        const std::int64_t t1 = NowNanos();
        if (!timed) return;
        out.latency_us.Add(static_cast<double>(t1 - t0) / 1e3);
        ++out.completed;
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!WellFormed(r, kK, stream_limit)) ++out.malformed;
      };
      for (std::size_t i = 0; i < kWarmupQueries; ++i) one(false);
      out = ClientResult{};
      warmed.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) one(true);
    });
  }
  while (warmed.load() < kClients) std::this_thread::yield();
  // Throughput is sampled per slice, so a host hiccup in one slice moves
  // the median slice rate less than it moves the run's mean rate.
  ClientResult total;
  const int slices = std::max(1, static_cast<int>(std::lround(seconds)));
  std::int64_t slice_start = NowNanos();
  const std::int64_t start = slice_start;
  std::uint64_t slice_first = 0;
  go.store(true);
  for (int i = 1; i <= slices; ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start + static_cast<std::int64_t>(
                                             seconds * 1e9 * i / slices))));
    const std::int64_t now = NowNanos();
    const std::uint64_t done = completed.load();
    total.slice_qps.Add(static_cast<double>(done - slice_first) /
                        (static_cast<double>(now - slice_start) / 1e9));
    slice_start = now;
    slice_first = done;
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  for (const ClientResult& r : results) {
    total.latency_us.Append(r.latency_us);
    total.completed += r.completed;
    total.malformed += r.malformed;
    exec::FoldStats(total.stats, r.stats);
    total.modality_runs += r.modality_runs;
    total.early_terminations += r.early_terminations;
    total.results += r.results;
    total.sound_terms += r.sound_terms;
  }
  return total;
}

}  // namespace

void RunArchiveSearch(const Options& options, Report& report) {
  const workload::SyntheticCorpus corpus(CorpusFor(kStreams, options.seed));
  std::unique_ptr<Tracer> tracer;
  if (options.trace) tracer = std::make_unique<Tracer>();

  // Setup, repeated for a steady setup_s (median); the last build serves.
  // The traced run builds once, split into spans.
  Archive archive;
  Samples setup_s, ingest_us;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    archive = Archive{};  // Free the previous build first.
    archive = BuildArchive(corpus, kPopUpdates, options.seed, tracer.get());
    setup_s.Add(archive.seconds);
    ingest_us.Append(archive.ingest_us);
  }
  service::SearchService& svc = *archive.service;
  report.Attempted(archive.windows);

  const auto queries = ToKeywordQueries(
      MakeTermQueries(kLoadQueries, corpus.vocab_size(), options.seed * 31 + 1));
  const ClientResult load = RunLoad(svc, *archive.clock, queries,
                                    options.seconds, kStreams, nullptr);
  report.Attempted(load.completed);
  report.Failed(load.malformed);
  if (load.malformed > 0) {
    report.Problem(std::to_string(load.malformed) +
                   " malformed SearchKeywords results");
  }

  // Full-walk audit on the quiesced service, at the per-modality depth
  // SearchKeywords fetches (2k).
  const ServiceAudit audit = AuditService(
      svc,
      ToKeywordQueries(MakeTermQueries(kAuditQueries, corpus.vocab_size(),
                                       options.seed * 31 + 2)),
      2 * kK, options.seed, archive.clock->Now(), kStreams);
  if (audit.malformed > 0) {
    report.Problem(std::to_string(audit.malformed) +
                   " malformed audit results");
  }

  const SetTotals text = Totals(svc.text_shards());
  const SetTotals sound = Totals(svc.sound_shards());
  const double postings = static_cast<double>(text.postings + sound.postings);
  const double bytes_per_posting =
      static_cast<double>(text.memory_bytes + sound.memory_bytes) / postings;
  const double mismatch_frac =
      static_cast<double>(audit.mismatches) /
      static_cast<double>(kAuditQueries);
  const double failed_frac = static_cast<double>(report.failed()) /
                             static_cast<double>(report.attempted());

  report.EndToEnd("setup_s", setup_s.Percentile(0.5), "s", setup_s.count());
  report.EndToEnd("search_p50_us", load.latency_us.Percentile(0.5), "us",
                  load.latency_us.count());
  report.Layer("search_p99_us", load.latency_us.WindowedPercentile(0.99),
               "us", load.latency_us.count());
  report.EndToEnd("search_qps", load.slice_qps.Percentile(0.5), "1/s",
                  load.slice_qps.count());
  report.Layer("ingest_p50_us", ingest_us.Percentile(0.5), "us",
               ingest_us.count());
  report.Layer("ingest_p99_us", ingest_us.WindowedPercentile(0.99), "us",
               ingest_us.count());
  report.EndToEnd("index_bytes_per_posting", bytes_per_posting, "B");
  report.Info("failed_frac", failed_frac);
  report.Info("topk_mismatch_frac", mismatch_frac);
  report.Info("audit_queries", static_cast<double>(kAuditQueries));
  report.Info("audit_mismatches", static_cast<double>(audit.mismatches));
  report.Info("streams", static_cast<double>(kStreams));
  report.Info("windows", static_cast<double>(archive.windows));
  report.Info("pop_updates", static_cast<double>(kPopUpdates));
  report.Info("postings", postings);
  report.Info("text_levels", static_cast<double>(text.levels));
  report.Info("sound_levels", static_cast<double>(sound.levels));
  report.Info("clients", kClients);
  if (text.levels < 3 || sound.levels < 3) {
    std::fprintf(stderr,
                 "perfbench: warning: archive has %zu text / %zu sound "
                 "levels (< 3)\n",
                 text.levels, sound.levels);
  }
  report.Layer("audit.topk_mismatch_frac", mismatch_frac, "fraction");
  report.Layer("loadgen.failed_frac", failed_frac, "fraction");

  if (!options.trace) return;

  // Traced phase: the same closed loop, each search split into its calls.
  std::mutex rng_mu;
  Rng rng(options.seed ^ 0x5151ULL);
  std::atomic<std::uint64_t> next_request{0};
  const TracedPath path{tracer.get(), &rng_mu, &rng, &next_request};
  const ClientResult traced = RunLoad(svc, *archive.clock, queries,
                                      options.seconds, kStreams, &path);
  report.Attempted(traced.completed);
  report.Failed(traced.malformed);
  if (traced.malformed > 0) {
    report.Problem(std::to_string(traced.malformed) +
                   " malformed traced search results");
  }
  AddTraceOverhead(report, load.latency_us, traced.latency_us);

  auto percentile_layer = [&](const char* metric, const char* span, double p) {
    const Samples d = tracer->DurationsMicros(span);
    report.Layer(metric, d.Percentile(p), "us", d.count());
  };
  percentile_layer("service.process_query_p50_us", "service.process_query",
                   0.5);
  percentile_layer("service.process_window_p50_us", "service.process_window",
                   0.5);
  for (const char* modality : {"text", "sound"}) {
    const std::string prefix = std::string("exec.") + modality;
    const std::string plan = prefix + ".plan";
    const std::string execute = prefix + ".execute";
    percentile_layer((plan + "_p50_us").c_str(), plan.c_str(), 0.5);
    percentile_layer((execute + "_p50_us").c_str(), execute.c_str(), 0.5);
    percentile_layer((execute + "_p99_us").c_str(), execute.c_str(), 0.99);
  }
  const double n = static_cast<double>(traced.completed);
  const core::QueryStats& qs = traced.stats;
  report.Layer("service.sound_terms_per_query",
               static_cast<double>(traced.sound_terms) / n, "count");
  report.Layer("exec.postings_scanned_per_query",
               static_cast<double>(qs.postings_scanned) / n, "count");
  report.Layer("exec.components_visited_per_query",
               static_cast<double>(qs.components_visited) / n, "count");
  report.Layer("exec.components_pruned_per_query",
               static_cast<double>(qs.components_pruned) / n, "count");
  report.Layer("exec.components_skipped_per_query",
               static_cast<double>(qs.components_skipped) / n, "count");
  report.Layer("exec.bloom_fp_per_query",
               static_cast<double>(qs.bloom_false_positives) / n, "count");
  report.Layer("exec.candidates_screened_per_query",
               static_cast<double>(qs.candidates_screened) / n, "count");
  report.Layer("exec.early_termination_frac",
               static_cast<double>(traced.early_terminations) /
                   static_cast<double>(traced.modality_runs),
               "fraction");
  report.Layer("exec.candidates_scored_per_result",
               static_cast<double>(qs.candidates_scored) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, traced.results)),
               "ratio");
  DumpSpans(*tracer, options, report);
}

}  // namespace perfbench
