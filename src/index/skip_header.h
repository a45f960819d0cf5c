// Immutable per-component skip header: a split-block Bloom filter over the
// component's TermId set plus a sorted array of per-term bound summaries.
//
// Built exactly once, when a component seals (FreezeL0) or is produced by a
// merge, and never mutated afterwards — the same lifecycle as the component
// itself, so a pinned IndexView can consult headers without synchronization.
// The query planner uses the Bloom filter to prove query terms absent
// (skipping the component outright) and the summaries to compute per-term
// score ceilings without touching the posting maps.
//
// Determinism contract: Build() is a pure function of the (term, summary)
// set, and Serialize() of the built header is byte-identical to Serialize()
// of a Deserialize()d copy. Snapshot restore relies on this: a v3 file with
// no persisted header rebuilds one that matches what a v4 file would have
// carried.

#ifndef RTSI_INDEX_SKIP_HEADER_H_
#define RTSI_INDEX_SKIP_HEADER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace rtsi::index {

/// Per-term bounds captured at seal/merge time.
///
/// `max_tf` is the maximum *aggregated* per-stream term frequency (a
/// sealed list holds one folded posting per stream, summing the tf of all
/// its windows), so it upper-bounds the tf a query traversal can ever
/// accumulate for one stream in this component.
/// `max_frsh` is the frozen snapshot maximum; planners must clamp it with
/// the component's live FreshnessCeiling cell (see exec/traversal.h).
struct TermSummary {
  TermId term = 0;
  float max_pop = 0.0f;     // Max popularity snapshot across postings.
  Timestamp max_frsh = 0;   // Max freshness timestamp (frozen).
  TermFreq max_tf = 0;      // Max aggregated per-stream term frequency.
  std::uint32_t df = 0;     // Distinct streams holding the term.
  std::uint32_t postings = 0;  // Stored posting count (== df once sealed).
};

/// Split-block Bloom filter: one 64-byte cache-line block per probe, eight
/// single-bit probes within the block, ~10 bits per key. False positives
/// only cost a wasted summary lookup; there are no false negatives.
class SplitBlockBloom {
 public:
  static constexpr std::size_t kWordsPerBlock = 8;  // 8 x u64 = 64 bytes.

  SplitBlockBloom() = default;

  /// Sizes the filter for `num_keys` keys. Must be called before Insert.
  void Reset(std::size_t num_keys);

  void Insert(TermId key);

  /// False negatives are impossible; false positives occur at ~1% rate.
  bool MayContain(TermId key) const;

  std::size_t num_blocks() const { return words_.size() / kWordsPerBlock; }
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Restores a filter from serialized words (block count implied).
  void Adopt(std::vector<std::uint64_t> words) { words_ = std::move(words); }

 private:
  std::vector<std::uint64_t> words_;
};

/// The complete immutable header for one sealed component.
class SkipHeader {
 public:
  SkipHeader() = default;

  /// Builds from per-term summaries (any order; sorted internally by term).
  /// Deterministic: equal summary sets produce byte-identical headers.
  static SkipHeader Build(std::vector<TermSummary> summaries);

  /// True if the term may be present (Bloom filter consultation).
  bool MayContain(TermId term) const { return bloom_.MayContain(term); }

  /// Exact lookup (binary search); nullptr when the term is absent — which
  /// after a positive MayContain() means a Bloom false positive.
  const TermSummary* Find(TermId term) const;

  std::size_t num_terms() const { return summaries_.size(); }
  const std::vector<TermSummary>& summaries() const { return summaries_; }

  /// Heap bytes held by this header (charged to MemCategory::kSkipHeader).
  std::size_t MemoryBytes() const;

  /// Deterministic byte encoding (varints + raw little-endian words).
  std::vector<std::uint8_t> Serialize() const;

  /// Decodes Serialize() output. Returns false on malformed input.
  static bool Deserialize(const std::uint8_t* data, std::size_t size,
                          SkipHeader& out);

 private:
  std::vector<TermSummary> summaries_;  // Sorted ascending by term.
  SplitBlockBloom bloom_;
};

}  // namespace rtsi::index

#endif  // RTSI_INDEX_SKIP_HEADER_H_
