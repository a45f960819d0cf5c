// Reusable per-query scratch buffers for the RTSI query path.
//
// The scoring hot path used to allocate a fresh tf vector per candidate
// and rebuild a stream -> tf-vector map per query (Asadi & Lin's
// observation: allocation discipline on the scoring path is what keeps
// real-time tail latency flat). A QueryScratch owns all of those buffers;
// a query leases one from the index's ScratchPool, so steady state runs
// without heap allocation. No thread_local involved: leases make
// ownership explicit and keep the pool usable from any thread.

#ifndef RTSI_CORE_QUERY_SCRATCH_H_
#define RTSI_CORE_QUERY_SCRATCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "exec/traversal.h"
#include "index/posting.h"

namespace rtsi::core {

/// All transient buffers of one query execution. Members keep their
/// capacity across Clear(), so a recycled scratch serves the next query
/// allocation-free.
struct QueryScratch {
  // Per-candidate tf buffer (stride = q.size()), reused across candidates.
  std::vector<TermFreq> tfs;

  // L0 accumulation: stream -> slot, slot-major tf matrix with stride
  // q.size(), and slot -> stream (deterministic insertion order).
  std::unordered_map<StreamId, std::uint32_t> l0_slot;
  std::vector<TermFreq> l0_tf;
  std::vector<StreamId> l0_streams;

  // Phase-1 live-table matches.
  std::vector<StreamId> table_matches;

  // Sealed-component traversal: round buffer and per-component candidate
  // dedup. The dense epoch-stamped filter (seen_stamps/seen_epoch) handles
  // stream ids below its size in O(1) without per-component clearing;
  // component_seen is the overflow set for ids beyond the dense range.
  // Deliberately NOT reset by Clear(): the epoch discipline makes stale
  // stamps harmless and re-zeroing the array per query would defeat it.
  std::vector<index::Posting> round;
  // Per round posting, the query-term index whose list yielded it
  // (parallel to `round`; filled by the term-reporting NextRound).
  std::vector<std::uint32_t> round_terms;
  std::unordered_set<StreamId> component_seen;
  std::vector<std::uint32_t> seen_stamps;
  std::uint32_t seen_epoch = 0;

  // Per-component bound inputs.
  std::vector<exec::PerTermBound> per_term;

  // Admission-screen ingredients from the skip-header summaries:
  // screen_tfidf is component-major with stride q.size(); entry
  // [c * nq + i] bounds the tf-idf mass the terms *other than* i can
  // contribute inside component c. screen_own is the per-component
  // working buffer of own-term maxima.
  std::vector<double> screen_tfidf;
  std::vector<double> screen_own;

  void Clear() {
    tfs.clear();
    l0_slot.clear();
    l0_tf.clear();
    l0_streams.clear();
    table_matches.clear();
    round.clear();
    round_terms.clear();
    component_seen.clear();
    per_term.clear();
    screen_tfidf.clear();
    screen_own.clear();
    // seen_stamps/seen_epoch intentionally survive (see above).
  }
};

/// Per-component stream dedup over a scratch's buffers. A hash-set insert
/// per scanned posting was ~30% of sealed-phase latency; stamping a dense
/// stream-indexed array with a per-component epoch replaces it with one
/// array probe. Ids beyond the dense range (sparse id spaces; streams
/// inserted after the query captured max_stream_id) fall back to the hash
/// set, so correctness never depends on density.
class StreamSeenFilter {
 public:
  /// Sizes the dense range for `max_stream` (capped at kDenseLimit ids =
  /// 16 MiB of stamps, kept across queries by the scratch).
  StreamSeenFilter(QueryScratch& scratch, StreamId max_stream)
      : stamps_(scratch.seen_stamps),
        epoch_(scratch.seen_epoch),
        overflow_(scratch.component_seen) {
    const auto want = static_cast<std::size_t>(
        std::min<StreamId>(max_stream + 1, kDenseLimit));
    if (stamps_.size() < want) stamps_.resize(want, 0);
  }

  /// Starts a new component: all ids become unseen in O(1).
  void NextComponent() {
    if (++epoch_ == 0) {  // Epoch wrap: stale stamps could collide.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
    overflow_.clear();
  }

  /// True the first time `stream` is offered within the current component.
  bool Insert(StreamId stream) {
    if (stream < stamps_.size()) {
      std::uint32_t& stamp = stamps_[static_cast<std::size_t>(stream)];
      if (stamp == epoch_) return false;
      stamp = epoch_;
      return true;
    }
    return overflow_.insert(stream).second;
  }

 private:
  static constexpr StreamId kDenseLimit = StreamId{1} << 22;

  std::vector<std::uint32_t>& stamps_;
  std::uint32_t& epoch_;
  std::unordered_set<StreamId>& overflow_;
};

/// A free-list of QueryScratch instances shared by all queries of one
/// index. Acquire pops a recycled scratch (or creates the first few);
/// Release clears and returns it. Thread-safe; the lock is taken once per
/// query, not per candidate.
class ScratchPool {
 public:
  std::unique_ptr<QueryScratch> Acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        auto scratch = std::move(free_.back());
        free_.pop_back();
        return scratch;
      }
    }
    return std::make_unique<QueryScratch>();
  }

  void Release(std::unique_ptr<QueryScratch> scratch) {
    if (scratch == nullptr) return;
    scratch->Clear();
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<QueryScratch>> free_;
};

/// RAII lease of a scratch from a pool.
class ScratchLease {
 public:
  explicit ScratchLease(ScratchPool& pool)
      : pool_(pool), scratch_(pool.Acquire()) {}
  ~ScratchLease() { pool_.Release(std::move(scratch_)); }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  QueryScratch& operator*() { return *scratch_; }
  QueryScratch* operator->() { return scratch_.get(); }

 private:
  ScratchPool& pool_;
  std::unique_ptr<QueryScratch> scratch_;
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_QUERY_SCRATCH_H_
