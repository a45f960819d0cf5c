#include "lsm/merge.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/latency_stats.h"

namespace rtsi::lsm {
namespace {

using index::InvertedIndex;
using index::Posting;
using index::TermPostings;

// Merge-transient containers draw from the caller's scratch arena (null
// allocator = global heap), so the per-merge churn recycles through the
// arena free lists.
template <typename T>
using ArenaSet =
    std::unordered_set<T, std::hash<T>, std::equal_to<T>, ArenaAllocator<T>>;

// Memoizes the lazy-deletion predicate: one call per distinct stream per
// merge, no matter how many terms the stream spans. Fires `on_purged` on
// the first deleted verdict for a stream. Owns copies of the functions:
// a cache may outlive the temporary MergeHooks it was built from.
class DeletionCache {
 public:
  DeletionCache(std::function<bool(StreamId)> is_deleted,
                std::function<void(StreamId)> on_purged)
      : is_deleted_(std::move(is_deleted)), on_purged_(std::move(on_purged)) {}

  bool operator()(StreamId stream) {
    if (!is_deleted_) return false;
    auto it = verdicts_.find(stream);
    if (it != verdicts_.end()) return it->second;
    const bool deleted = is_deleted_(stream);
    verdicts_.emplace(stream, deleted);
    if (deleted && on_purged_) on_purged_(stream);
    return deleted;
  }

 private:
  std::function<bool(StreamId)> is_deleted_;
  std::function<void(StreamId)> on_purged_;
  std::unordered_map<StreamId, bool> verdicts_;
};

}  // namespace

std::shared_ptr<InvertedIndex> CombineComponents(
    const std::vector<const InvertedIndex*>& inputs, int out_level,
    bool compress, const MergeHooks& hooks, MergeStats* stats,
    ComponentId out_id, index::FreshnessCeilingPtr out_cell,
    std::vector<StreamId>* surviving, WindowArena* scratch) {
  Stopwatch watch;
  auto merged = std::make_shared<InvertedIndex>(out_level);
  merged->AdoptCeiling(out_id, std::move(out_cell));

  // Every distinct stream with a surviving posting, for the owner's
  // stream bookkeeping.
  ArenaSet<StreamId> streams{ArenaAllocator<StreamId>(scratch)};
  ArenaSet<TermId> seen_terms{ArenaAllocator<TermId>(scratch)};
  DeletionCache deleted(hooks.is_deleted, hooks.on_purged);
  const bool track_streams =
      static_cast<bool>(hooks.on_stream) || surviving != nullptr;

  // One pass per input i, in order: every term first seen at input i is
  // joined with the matching postings of every later input (looked up by
  // View); terms already emitted by an earlier pass are skipped. The
  // surviving postings of a term are appended, in the scratch arena, to
  // one list and sealed: Seal() folds each stream's postings (summed tf,
  // newest frsh, largest pop) and fixes the order, so the output does not
  // depend on the order of the inputs, and it moves the postings to an
  // exact-size heap buffer, so the stored component holds no scratch
  // memory and the arena can be recycled per cascade.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i]->ForEachTerm([&](TermId term, const TermPostings& postings_i) {
      if (i > 0 && seen_terms.count(term) > 0) return;
      seen_terms.insert(term);
      TermPostings out(scratch);
      const auto take = [&](const TermPostings& in) {
        for (const Posting& p : in.entries()) {
          if (deleted(p.stream)) {
            if (stats != nullptr) ++stats->purged_postings;
            continue;
          }
          if (track_streams) streams.insert(p.stream);
          out.Append(p);
        }
        if (stats != nullptr) stats->postings_in += in.size();
      };
      take(postings_i);
      for (std::size_t j = i + 1; j < inputs.size(); ++j) {
        const index::TermPostingsView view_j = inputs[j]->View(term);
        if (view_j) take(*view_j);
      }
      if (out.empty()) return;
      const std::size_t appended = out.size();
      out.Seal();
      if (stats != nullptr) {
        stats->consolidated_postings += appended - out.size();
        stats->postings_out += out.size();
      }
      merged->Put(term, std::move(out));
    });
  }

  // Stream-level bookkeeping for the owner: each surviving stream's
  // residency gains the output's ceiling cell here, *before* the output
  // inherits the inputs' ceilings below and before the swap publishes it.
  // The owner retires the input residencies via `on_settled` after the
  // swap, using the `surviving` list collected here.
  for (const StreamId stream : streams) {
    if (hooks.on_stream) hooks.on_stream(stream, *merged);
    if (surviving != nullptr) surviving->push_back(stream);
  }
  for (const InvertedIndex* input : inputs) {
    merged->BumpCeiling(input->LiveFrshCeiling());
  }

  // Built before compression so the summaries read the plain per-stream
  // aggregates; merge output is consolidated, so the compressed maxima
  // would be identical — this just avoids a decode pass.
  merged->BuildSkipHeader();
  if (compress) merged->CompressAll();
  if (stats != nullptr) {
    ++stats->merges;
    stats->total_micros += watch.ElapsedMicros();
  }
  return merged;
}

}  // namespace rtsi::lsm
