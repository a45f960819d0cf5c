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

/// A set of stream ids that empties in O(1). Membership is a stamp in a
/// dense stream-indexed array: a stream is in the set when its stamp
/// equals the current epoch, so Clear() only advances the epoch. A
/// hash-set probe per scanned posting was ~30% of sealed-phase latency;
/// a stamp probe is one array load. Ids beyond the dense range (sparse id
/// spaces; streams inserted after the query sized the set) fall back to a
/// hash set, so correctness never depends on density. The stamps keep
/// their size across queries with the scratch that owns the set.
class StampedStreamSet {
 public:
  /// Grows the dense range to cover ids up to `max_stream` (capped at
  /// kDenseLimit ids = 16 MiB of stamps).
  void Reserve(StreamId max_stream) {
    const auto want = static_cast<std::size_t>(
        std::min<StreamId>(max_stream + 1, kDenseLimit));
    if (stamps_.size() < want) stamps_.resize(want, 0);
  }

  /// Empties the set: every stamp becomes stale in O(1).
  void Clear() {
    if (++epoch_ == 0) {  // Epoch wrap: stale stamps could collide.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
    overflow_.clear();
  }

  /// Adds `stream`; true when it was not yet in the set.
  bool Insert(StreamId stream) {
    if (stream < stamps_.size()) {
      std::uint32_t& stamp = stamps_[static_cast<std::size_t>(stream)];
      if (stamp == epoch_) return false;
      stamp = epoch_;
      return true;
    }
    return overflow_.insert(stream).second;
  }

  bool Contains(StreamId stream) const {
    if (stream < stamps_.size()) {
      return stamps_[static_cast<std::size_t>(stream)] == epoch_;
    }
    return !overflow_.empty() && overflow_.count(stream) > 0;
  }

  /// Testing hook: empties the set by moving the epoch forward to
  /// `epoch` (ignored unless it is ahead), so a test can reach the wrap.
  void AdvanceEpochForTesting(std::uint32_t epoch) {
    if (epoch <= epoch_) return;
    epoch_ = epoch;
    overflow_.clear();
  }

  std::uint32_t epoch() const { return epoch_; }

  static constexpr StreamId kDenseLimit = StreamId{1} << 22;

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 1;  // Stamps start at 0: the set starts empty.
  std::unordered_set<StreamId> overflow_;
};

/// All transient buffers of one query execution. Members keep their
/// capacity across Clear(), so a recycled scratch serves the next query
/// allocation-free.
struct QueryScratch {
  // Slot-major tf matrix of the exact phases (live table, then L0):
  // stream -> slot, the tfs with stride q.size(), and slot -> stream
  // (deterministic first-seen order). Each phase empties it when done.
  std::unordered_map<StreamId, std::uint32_t> slot_of;
  std::vector<TermFreq> slot_tf;
  std::vector<StreamId> slot_streams;

  // Explain's per-candidate tf buffer (stride = q.size()).
  std::vector<TermFreq> tfs;

  // Streams whose exact totals phase 1 or 2 scored: the sealed walk
  // admits none of them, and the L0 phase skips phase 1's.
  StampedStreamSet exact_scored;

  // Sealed-component traversal: round buffer, and per round posting the
  // query-term index whose list yielded it (parallel to `round`).
  std::vector<index::Posting> round;
  std::vector<std::uint32_t> round_terms;
  // Per-component candidate dedup; cleared as each component begins.
  StampedStreamSet component_seen;

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
    slot_of.clear();
    slot_tf.clear();
    slot_streams.clear();
    tfs.clear();
    exact_scored.Clear();
    round.clear();
    round_terms.clear();
    component_seen.Clear();
    per_term.clear();
    screen_tfidf.clear();
    screen_own.clear();
  }
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
