// The multi-modal live audio search service: two RTSI LSM-trees (text and
// sound) behind one ingestion + query facade (Figure 4 end to end).

#ifndef RTSI_SERVICE_SEARCH_SERVICE_H_
#define RTSI_SERVICE_SEARCH_SERVICE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/atomic_shared_ptr.h"
#include "common/clock.h"
#include "core/config.h"
#include "core/rtsi_index.h"
#include "service/ingestion.h"
#include "service/query_processor.h"
#include "shard/shard_set.h"
#include "text/term_dictionary.h"

namespace rtsi::service {

/// Results returned when a search asks for k <= 0 (and /search's k when
/// the parameter is absent).
inline constexpr int kDefaultK = 10;

struct SearchServiceConfig {
  core::RtsiConfig index;       // Shared by both trees (per shard).
  IngestionConfig ingestion;
  double text_weight = 0.6;     // Fusion: text vs sound modality.
  std::uint64_t seed = 42;
  /// Partitions each modality across this many independent shards
  /// (DESIGN.md §6i). 1 = the classic single-index layout.
  int shards = 1;
};

/// One window of one stream, for batched ingestion (the async server
/// coalesces queued /ingest requests into one IngestBatch call).
struct IngestOp {
  StreamId stream = 0;
  std::vector<std::string> words;
  bool live = true;
};

/// A fused multi-modal result.
struct SearchResult {
  StreamId stream = 0;
  double score = 0.0;       // Fused.
  double text_score = 0.0;
  double sound_score = 0.0;
};

class SearchService {
 public:
  /// Both modality indices, pinned as one unit: a query or ingestion call
  /// loads the pair once and works against a consistent (text, sound)
  /// generation even if a snapshot restore publishes a new pair mid-call.
  /// Each modality is an IndexShardSet — one shard by default, N when
  /// `SearchServiceConfig::shards` asks for a partitioned service.
  struct IndexPair {
    std::shared_ptr<shard::IndexShardSet> text;
    std::shared_ptr<shard::IndexShardSet> sound;
  };

  /// Starts the service's ingest helper thread (DESIGN.md §6), which
  /// stays parked until a window arrives. Requires
  /// config.index.lsm.Check() to pass (asserted in debug builds).
  SearchService(const SearchServiceConfig& config, Clock* clock);
  /// Stops and joins the helper. No call may be in flight.
  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Ingests one ~60 s window of a live stream, given its ground-truth
  /// words (what the broadcaster said). Runs ASR simulation, indexes both
  /// modalities. A window for a deleted stream is dropped by each index
  /// (core::RtsiIndex::InsertWindow). Always returns Ok. The same path as
  /// an IngestBatch of one op.
  Status IngestWindow(StreamId stream, const std::vector<std::string>& words,
                      bool live = true);

  /// Ingests a batch of windows in op order against one pinned pair and
  /// one clock reading. Each window's ASR simulation runs under its own
  /// RNG acquisition, so a batched run draws the same sequence as the same
  /// ops issued one by one — batching changes throughput, not results.
  /// Returns once every window is in both modalities.
  void IngestBatch(const std::vector<IngestOp>& ops);

  void FinishStream(StreamId stream);
  void DeleteStream(StreamId stream);
  void UpdatePopularity(StreamId stream, std::uint64_t delta);

  /// Keyword search across both modalities, fused. k <= 0 means
  /// kDefaultK.
  std::vector<SearchResult> SearchKeywords(const std::string& query, int k);

  /// Voice search: the query is an audio buffer. k <= 0 means kDefaultK.
  std::vector<SearchResult> SearchVoice(const audio::PcmBuffer& pcm, int k);

  /// Renders a spoken query from keywords (for demos and tests of the
  /// voice path). Thread-safe: the shared query RNG is taken under its
  /// lock, like every other entry point that draws from it.
  audio::PcmBuffer SynthesizeQuery(const std::vector<std::string>& words);

  /// Pins the currently published index pair. The returned shared_ptrs
  /// keep both indices alive across any concurrent ReplaceIndices, so
  /// this is the safe way to hold an index beyond one expression.
  std::shared_ptr<const IndexPair> PinIndices() const {
    return indices_.Load();
  }

  // Raw references into the currently published pair, for setup,
  // inspection and tests. Single-threaded-setup contract: the reference
  // is only guaranteed valid while no concurrent ReplaceIndices can run —
  // a restore publishing mid-use would free the index under the caller.
  // Concurrent readers must use PinIndices() instead; the assertion
  // catches the one racy overlap we can observe cheaply.
  shard::IndexShardSet& text_shards() {
    assert(restores_in_flight_.load(std::memory_order_acquire) == 0 &&
           "text_shards(): use PinIndices() when a restore can race");
    return *indices_.Load()->text;
  }
  shard::IndexShardSet& sound_shards() {
    assert(restores_in_flight_.load(std::memory_order_acquire) == 0 &&
           "sound_shards(): use PinIndices() when a restore can race");
    return *indices_.Load()->sound;
  }

  // Legacy single-index accessors: the underlying RtsiIndex of shard 0.
  // Only meaningful when the service runs unsharded (shards == 1) — the
  // snapshot path and the pre-shard tests use these.
  core::RtsiIndex& text_index() { return text_shards().shard_index(0); }
  core::RtsiIndex& sound_index() { return sound_shards().shard_index(0); }

  int num_shards() const { return std::max(1, config_.shards); }

  /// Replaces both indices (snapshot restore path; see
  /// service/service_snapshot.h) by publishing a new pair with one atomic
  /// swap — queries in flight finish against the pair they pinned and the
  /// old indices are freed when the last pin drops. No query fleet stall.
  /// Operations that raced the swap were applied to the replaced pair and
  /// vanish with it, exactly as if they had completed before the restore.
  /// Each restored index is adopted as a single-shard set (restores are a
  /// single-shard operation; see service/service_snapshot.h).
  void ReplaceIndices(std::unique_ptr<core::RtsiIndex> text,
                      std::unique_ptr<core::RtsiIndex> sound);

  text::TermDictionary& text_dictionary() { return text_dict_; }
  text::TermDictionary& sound_dictionary() { return sound_dict_; }
  IngestionPipeline& pipeline() { return *pipeline_; }
  const QueryProcessor& query_processor() const { return *query_processor_; }

 private:
  std::vector<SearchResult> Fuse(
      const std::vector<core::ScoredStream>& text_results,
      const std::vector<core::ScoredStream>& sound_results, int k) const;

  class TextHelper;

  /// The one window path. The caller runs the transcriber and, under the
  /// same RNG acquisition, the sound half's lattice and interning; the
  /// helper runs the text half (intern, count, insert) beside it, or the
  /// caller does when another caller's window holds the helper.
  void IngestOne(const IndexPair& indices, Timestamp now, StreamId stream,
                 const std::vector<std::string>& words, bool live);

  /// Runs the two single-modality queries, one after the other on the
  /// calling thread, against the pinned pair and fuses.
  std::vector<SearchResult> SearchBothModalities(
      const IndexPair& indices, const std::vector<TermId>& text_terms,
      const std::vector<TermId>& sound_terms, int fetch, int k);

  SearchServiceConfig config_;
  Clock* clock_;  // Not owned.
  text::TermDictionary text_dict_;
  text::TermDictionary sound_dict_;
  std::unique_ptr<IngestionPipeline> pipeline_;
  std::unique_ptr<QueryProcessor> query_processor_;
  // Epoch-published: readers pin with one atomic load, ReplaceIndices
  // swaps in a freshly built pair. No reader-writer lock anywhere on the
  // query path.
  AtomicSharedPtr<const IndexPair> indices_;
  std::atomic<int> restores_in_flight_{0};
  // The service RNG feeds ASR simulation for ingestion, query processing
  // and synthesis; entry points can run concurrently, so draws are
  // serialized by rng_mu_ (single-threaded call sequences are unaffected,
  // keeping seeded runs deterministic). A window's interning into both
  // dictionaries also completes under it, so term ids follow draw order.
  std::mutex rng_mu_;
  Rng rng_;
  // Last: its thread uses pipeline_ and must stop before anything else
  // is destroyed.
  std::unique_ptr<TextHelper> text_helper_;
};

}  // namespace rtsi::service

#endif  // RTSI_SERVICE_SEARCH_SERVICE_H_
