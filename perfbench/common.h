// Shared pieces of the repository benchmark: options, exact-percentile
// sample sets, the result report, corpus/query inputs derived from the
// seed, output checks and the full-walk audit.

#ifndef RTSI_PERFBENCH_COMMON_H_
#define RTSI_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/search_index.h"
#include "service/search_service.h"
#include "shard/shard_set.h"
#include "workload/corpus.h"

namespace perfbench {

class Tracer;

using rtsi::StreamId;
using rtsi::TermId;
using rtsi::Timestamp;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable index files (removed by the caller).
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string spans_dir;
};

/// An open-loop generator fell behind -- and the run is invalid -- when
/// its own lateness (a due request with nothing blocking its send) reaches
/// this p99.
inline constexpr double kMaxGeneratorLateP99Us = 10000.0;

inline std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Open-loop generators sleep until this close to a due time and spin the
/// rest, so a request leaves when it is due rather than when the scheduler
/// next wakes the thread: a VM's wake-up delay is tens to hundreds of
/// microseconds and moves with host load, and latency from due time would
/// otherwise count it.
inline constexpr std::int64_t kSpinNs = 150'000;

/// Sleeps, then spins, until NowNanos() reaches `due_ns`.
void WaitUntil(std::int64_t due_ns);

/// Raw samples; percentiles are computed exactly (nearest rank) from all
/// of them, never from histogram buckets.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t count() const { return values_.size(); }
  /// Nearest-rank percentile, p in [0, 1]; 0 when empty.
  double Percentile(double p) const;
  /// Tail percentile that one stall cannot swing: the samples (in the
  /// order they were added) are cut into consecutive windows of at least
  /// kTailWindow samples, so each window's p99 has >= 10 samples beyond
  /// it, and the median of the windows' exact percentiles is returned.
  /// With fewer than 2 * kTailWindow samples this is Percentile(p).
  double WindowedPercentile(double p) const;
  static constexpr std::size_t kTailWindow = 1000;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// What one run measured. Printed as one JSON line; run.py selects the
/// end-to-end or the per-layer map by --trace.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                std::size_t samples = 0);
  void Layer(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 0);
  /// Context that is not a metric (sizes, rates, counters).
  void Info(const std::string& name, double value);
  void Info(const std::string& name, const std::string& value);

  /// Records a failed output check; the run is then not correct.
  void Problem(const std::string& what);

  void Attempted(std::uint64_t n) { attempted_ += n; }
  void Failed(std::uint64_t n) { failed_ += n; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  std::string ToJson(const Options& options) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Value> end_to_end_;
  std::map<std::string, Value> layers_;
  std::map<std::string, std::string> info_;  // Pre-rendered JSON values.
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The archive corpus, shaped like the repository benches' default corpus
/// (20k-word Zipf(1.0) vocabulary, ~8 windows of 80 words per stream).
rtsi::workload::CorpusConfig CorpusFor(std::size_t num_streams,
                                       std::uint64_t seed);

/// 2-word Zipf(0.8) queries over the corpus vocabulary; one in ten draws
/// from the doubled ("oov") vocabulary, whose upper half the corpus never
/// produces, so skip-header Bloom filters have work.
std::vector<std::vector<TermId>> MakeTermQueries(std::size_t count,
                                                 std::size_t vocab_size,
                                                 std::uint64_t seed);

/// The same queries as keyword strings ("w<id> w<id>").
std::vector<std::string> ToKeywordQueries(
    const std::vector<std::vector<TermId>>& queries);

/// Zipf-ranked stream picker for popularity updates: rank r maps to a
/// fixed pseudo-random permutation of [0, num_streams), so the hot streams
/// are spread over the archive instead of being the oldest ids.
class PopularityPicker {
 public:
  PopularityPicker(std::size_t num_streams, std::uint64_t seed);
  StreamId Next(rtsi::Rng& rng);

 private:
  std::vector<StreamId> permutation_;
  rtsi::ZipfDistribution dist_;
};

/// Output checks. A top-k list is well formed when it has at most k
/// entries, strictly follows the (score desc, stream asc) order, holds
/// finite scores and only ids below `stream_limit`.
bool WellFormed(const std::vector<rtsi::core::ScoredStream>& results, int k,
                StreamId stream_limit);
bool WellFormed(const std::vector<rtsi::service::SearchResult>& results,
                int k, StreamId stream_limit);

/// Bit-for-bit equality of two top-k lists (ids and score bits).
bool SameTopK(const std::vector<rtsi::core::ScoredStream>& a,
              const std::vector<rtsi::core::ScoredStream>& b);

using TopKLists = std::vector<std::vector<rtsi::core::ScoredStream>>;

/// Runs every query twice on a quiesced set: with the configured pruning,
/// then as the full walk (SetUseBound(false) on every shard; restored
/// afterwards).
struct AuditLists {
  TopKLists pruned;
  TopKLists full;
};
AuditLists RunAudit(rtsi::shard::IndexShardSet& set,
                    const std::vector<std::vector<TermId>>& queries, int k,
                    Timestamp now);

/// The full-walk audit of a quiesced service: each keyword query is
/// processed once (RNG seeded with `seed`), then RunAudit answers it on
/// both modalities. A query mismatches when either modality's pruned and
/// full-walk lists differ.
struct ServiceAudit {
  std::size_t mismatches = 0;
  std::size_t malformed = 0;  // Lists that fail WellFormed.
};
ServiceAudit AuditService(rtsi::service::SearchService& svc,
                          const std::vector<std::string>& queries, int k,
                          std::uint64_t seed, Timestamp now,
                          StreamId stream_limit);

/// Sums over every shard of a set.
struct SetTotals {
  std::size_t postings = 0;
  std::size_t memory_bytes = 0;
  std::size_t levels = 0;  // Max over shards.
  std::size_t runs = 0;
  rtsi::lsm::MergeStats merges;
};
SetTotals Totals(const rtsi::shard::IndexShardSet& set);

std::string FormatDouble(double value);

/// A preloaded, finished archive behind a SearchService at its product
/// defaults (acoustic path kDirect, the default).
struct Archive {
  std::unique_ptr<rtsi::SimulatedClock> clock;
  std::unique_ptr<rtsi::service::SearchService> service;
  Samples ingest_us;  // One IngestWindow latency per window.
  double seconds = 0.0;
  std::size_t windows = 0;
};

/// Builds the archive: initial popularity, then every stream's windows in
/// cohorts of 64 concurrently live streams (one window per stream per
/// simulated minute, FinishStream after each stream's last window), then
/// `pop_updates` Zipf-skewed popularity updates on the sealed archive.
/// With a tracer, each IngestWindow is split into the calls the service
/// makes (IngestionPipeline::ProcessWindow on an RNG seeded like the
/// service's, then each modality's InsertWindow), which indexes the same
/// state span by span.
Archive BuildArchive(const rtsi::workload::SyntheticCorpus& corpus,
                     std::size_t pop_updates, std::uint64_t seed,
                     Tracer* tracer);

}  // namespace perfbench

#endif  // RTSI_PERFBENCH_COMMON_H_
