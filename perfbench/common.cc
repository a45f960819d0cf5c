#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <sstream>
#include <thread>

#include "trace.h"
#include "workload/query_gen.h"

namespace perfbench {

using namespace rtsi;

void WaitUntil(std::int64_t due_ns) {
  const std::int64_t sleep_to = due_ns - kSpinNs;
  if (NowNanos() < sleep_to) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(sleep_to)));
  }
  while (NowNanos() < due_ns) {
  }
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::WindowedPercentile(double p) const {
  const std::size_t windows = std::max<std::size_t>(1, count() / kTailWindow);
  Samples per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    Samples window;
    const std::size_t begin = w * count() / windows;
    const std::size_t end = (w + 1) * count() / windows;
    window.values_.assign(values_.begin() + begin, values_.begin() + end);
    per_window.Add(window.Percentile(p));
  }
  return per_window.Percentile(0.5);
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, std::size_t samples) {
  end_to_end_[name] = Value{value, unit, samples};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, std::size_t samples) {
  layers_[name] = Value{value, unit, samples};
}

void Report::Info(const std::string& name, double value) {
  info_[name] = FormatDouble(value);
}

void Report::Info(const std::string& name, const std::string& value) {
  info_[name] = Quote(value);
}

void Report::Problem(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  problems_.push_back(what);
}

std::string Report::ToJson(const Options& options) const {
  auto metrics = [](const std::map<std::string, Value>& values) {
    std::ostringstream out;
    out << '{';
    bool first = true;
    for (const auto& [name, v] : values) {
      if (!first) out << ", ";
      first = false;
      out << Quote(name) << ": {\"value\": " << FormatDouble(v.value)
          << ", \"unit\": " << Quote(v.unit);
      if (v.samples > 0) out << ", \"samples\": " << v.samples;
      out << '}';
    }
    out << '}';
    return out.str();
  };
  std::ostringstream out;
  out << "{\"workload\": " << Quote(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"correct\": " << (problems_.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"problems\": [";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    out << (i > 0 ? ", " : "") << Quote(problems_[i]);
  }
  out << "], \"end_to_end\": " << metrics(end_to_end_)
      << ", \"per_layer\": " << metrics(layers_) << ", \"info\": {";
  bool first = true;
  for (const auto& [name, value] : info_) {
    if (!first) out << ", ";
    first = false;
    out << Quote(name) << ": " << value;
  }
  out << "}}";
  return out.str();
}

workload::CorpusConfig CorpusFor(std::size_t num_streams,
                                 std::uint64_t seed) {
  workload::CorpusConfig config;
  config.num_streams = num_streams;
  config.vocab_size = 20'000;
  config.zipf_skew = 1.0;
  config.avg_windows_per_stream = 8;
  config.min_windows_per_stream = 3;
  config.words_per_window = 80;
  config.seed = seed;
  return config;
}

std::vector<std::vector<TermId>> MakeTermQueries(std::size_t count,
                                                 std::size_t vocab_size,
                                                 std::uint64_t seed) {
  workload::QueryGenConfig in_vocab;
  in_vocab.vocab_size = vocab_size;
  in_vocab.zipf_skew = 0.8;
  in_vocab.min_terms = 2;
  in_vocab.max_terms = 2;
  in_vocab.seed = seed;
  workload::QueryGenConfig oov = in_vocab;
  oov.vocab_size = 2 * vocab_size;
  oov.seed = seed ^ 0x00f0f0f0ULL;
  workload::QueryGenerator in_gen(in_vocab);
  workload::QueryGenerator oov_gen(oov);
  std::vector<std::vector<TermId>> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(i % 10 == 9 ? oov_gen.Next() : in_gen.Next());
  }
  return queries;
}

std::vector<std::string> ToKeywordQueries(
    const std::vector<std::vector<TermId>>& queries) {
  std::vector<std::string> out;
  out.reserve(queries.size());
  for (const auto& terms : queries) {
    std::string q;
    for (const TermId term : terms) {
      if (!q.empty()) q.push_back(' ');
      q.push_back('w');
      q += std::to_string(term);
    }
    out.push_back(std::move(q));
  }
  return out;
}

PopularityPicker::PopularityPicker(std::size_t num_streams,
                                   std::uint64_t seed)
    : permutation_(num_streams), dist_(num_streams, 1.0) {
  std::iota(permutation_.begin(), permutation_.end(), StreamId{0});
  Rng rng(seed);
  for (std::size_t i = num_streams; i > 1; --i) {
    std::swap(permutation_[i - 1], permutation_[rng.NextUint64(i)]);
  }
}

StreamId PopularityPicker::Next(Rng& rng) {
  return permutation_[dist_(rng)];
}

namespace {

template <typename Result>
bool WellFormedImpl(const std::vector<Result>& results, int k,
                    StreamId stream_limit) {
  if (results.size() > static_cast<std::size_t>(k)) return false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!std::isfinite(results[i].score)) return false;
    if (results[i].stream >= stream_limit) return false;
    if (i > 0) {
      const Result& prev = results[i - 1];
      const bool ordered =
          prev.score > results[i].score ||
          (prev.score == results[i].score && prev.stream < results[i].stream);
      if (!ordered) return false;
    }
  }
  return true;
}

}  // namespace

bool WellFormed(const std::vector<core::ScoredStream>& results, int k,
                StreamId stream_limit) {
  return WellFormedImpl(results, k, stream_limit);
}

bool WellFormed(const std::vector<service::SearchResult>& results, int k,
                StreamId stream_limit) {
  return WellFormedImpl(results, k, stream_limit);
}

bool SameTopK(const std::vector<core::ScoredStream>& a,
              const std::vector<core::ScoredStream>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].stream != b[i].stream) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

namespace {

TopKLists QueryAll(shard::IndexShardSet& set,
                   const std::vector<std::vector<TermId>>& queries, int k,
                   Timestamp now) {
  TopKLists out;
  out.reserve(queries.size());
  for (const auto& terms : queries) out.push_back(set.Query(terms, k, now));
  return out;
}

}  // namespace

AuditLists RunAudit(shard::IndexShardSet& set,
                    const std::vector<std::vector<TermId>>& queries, int k,
                    Timestamp now) {
  AuditLists lists;
  lists.pruned = QueryAll(set, queries, k, now);
  std::vector<bool> configured(set.num_shards());
  for (int s = 0; s < set.num_shards(); ++s) {
    configured[s] = set.shard_index(s).config().use_bound;
    set.shard_index(s).SetUseBound(false);
  }
  lists.full = QueryAll(set, queries, k, now);
  for (int s = 0; s < set.num_shards(); ++s) {
    set.shard_index(s).SetUseBound(configured[s]);
  }
  return lists;
}

ServiceAudit AuditService(service::SearchService& svc,
                          const std::vector<std::string>& queries, int k,
                          std::uint64_t seed, Timestamp now,
                          StreamId stream_limit) {
  std::vector<std::vector<TermId>> text_terms, sound_terms;
  Rng rng(seed);
  for (const std::string& q : queries) {
    const auto processed = svc.query_processor().ProcessKeywords(q, rng);
    text_terms.push_back(processed.text_terms);
    sound_terms.push_back(processed.sound_terms);
  }
  const AuditLists text = RunAudit(svc.text_shards(), text_terms, k, now);
  const AuditLists sound = RunAudit(svc.sound_shards(), sound_terms, k, now);
  ServiceAudit audit;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!SameTopK(text.pruned[i], text.full[i]) ||
        !SameTopK(sound.pruned[i], sound.full[i])) {
      ++audit.mismatches;
    }
    for (const auto* list :
         {&text.pruned[i], &text.full[i], &sound.pruned[i], &sound.full[i]}) {
      if (!WellFormed(*list, k, stream_limit)) ++audit.malformed;
    }
  }
  return audit;
}

SetTotals Totals(const shard::IndexShardSet& set) {
  SetTotals totals;
  for (int s = 0; s < set.num_shards(); ++s) {
    const core::RtsiIndex& index = set.shard_index(s);
    totals.postings += index.tree().total_postings();
    totals.memory_bytes += index.MemoryBytes();
    totals.levels = std::max(totals.levels, index.tree().RunsPerLevel().size() - 1);
    totals.runs += index.tree().num_runs();
    totals.merges += index.GetMergeStats();
  }
  return totals;
}

Archive BuildArchive(const workload::SyntheticCorpus& corpus,
                     std::size_t pop_updates, std::uint64_t seed,
                     Tracer* tracer) {
  constexpr std::size_t kCohort = 64;
  const std::int64_t start = NowNanos();
  Archive archive;
  archive.clock = std::make_unique<SimulatedClock>();
  const service::SearchServiceConfig config;
  archive.service =
      std::make_unique<service::SearchService>(config, archive.clock.get());
  service::SearchService& svc = *archive.service;
  // The service draws ASR noise from an RNG seeded with config.seed; the
  // traced split replays the same draws in the same order.
  Rng service_rng(config.seed);

  const std::size_t n = corpus.num_streams();
  for (StreamId s = 0; s < n; ++s) {
    svc.UpdatePopularity(s, corpus.InitialPopularity(s));
  }
  for (std::size_t first = 0; first < n; first += kCohort) {
    const std::size_t size = std::min(kCohort, n - first);
    int max_windows = 0;
    for (std::size_t i = 0; i < size; ++i) {
      max_windows = std::max(max_windows, corpus.NumWindows(first + i));
    }
    for (int w = 0; w < max_windows; ++w) {
      for (std::size_t i = 0; i < size; ++i) {
        const StreamId stream = first + i;
        const int windows = corpus.NumWindows(stream);
        if (w >= windows) continue;
        const bool last = w + 1 == windows;
        const auto words = corpus.WindowWords(stream, w);
        const std::int64_t t0 = NowNanos();
        if (tracer == nullptr) {
          const Status status = svc.IngestWindow(stream, words, !last);
          if (!status.ok()) {
            std::fprintf(stderr, "perfbench: IngestWindow: %s\n",
                         status.ToString().c_str());
          }
        } else {
          Tracer::Scope root(*tracer, "service.ingest_window");
          service::WindowArtifacts artifacts;
          {
            Tracer::Scope span(*tracer, "service.process_window");
            artifacts = svc.pipeline().ProcessWindow(words, service_rng);
          }
          const Timestamp now = archive.clock->Now();
          {
            Tracer::Scope span(*tracer, "shard.text.insert");
            svc.text_shards().InsertWindow(stream, now, artifacts.text_terms,
                                           !last);
          }
          {
            Tracer::Scope span(*tracer, "shard.sound.insert");
            svc.sound_shards().InsertWindow(stream, now,
                                            artifacts.sound_terms, !last);
          }
        }
        archive.ingest_us.Add(static_cast<double>(NowNanos() - t0) / 1e3);
        ++archive.windows;
        if (last) svc.FinishStream(stream);
      }
      archive.clock->Advance(60 * kMicrosPerSecond);
    }
  }
  PopularityPicker picker(n, seed ^ 0x9090ULL);
  Rng rng(seed ^ 0x7070ULL);
  for (std::size_t i = 0; i < pop_updates; ++i) {
    svc.UpdatePopularity(picker.Next(rng), 1 + rng.NextUint64(100));
  }
  archive.seconds = static_cast<double>(NowNanos() - start) / 1e9;
  return archive;
}

}  // namespace perfbench
