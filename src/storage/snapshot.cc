#include "storage/snapshot.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>
#include <vector>

#include "index/compressed_postings.h"
#include "index/skip_header.h"
#include "storage/file_io.h"

namespace rtsi::storage {
namespace {

using core::RtsiConfig;
using core::RtsiIndex;
using index::CompressedTermPostings;
using index::Posting;
using index::StreamInfo;
using index::TermPostings;

// Retired config slots, kept so the layout does not change: each is
// written with the one value the code runs with and ignored on load.
constexpr std::uint64_t kRetiredL0Shards = 16;  // lsm::LsmTree::kL0Shards
constexpr std::uint32_t kRetiredDefaultK = 10;
// Policy slot: 0 = the geometric cascade; older writers also stored
// 1 (full compaction) or 2 (tiered), which load as geometric.
constexpr std::uint32_t kRetiredPolicy = 0;
constexpr std::uint32_t kRetiredPolicyMax = 2;
constexpr std::uint64_t kRetiredTierRuns = 4;

void WriteConfig(SnapshotWriter& writer, const RtsiConfig& config) {
  writer.WriteU64(config.lsm.delta);
  writer.WriteDouble(config.lsm.rho);
  writer.WriteU32(config.lsm.compress ? 1 : 0);
  writer.WriteU64(kRetiredL0Shards);
  writer.WriteDouble(config.weights.pop);
  writer.WriteDouble(config.weights.rel);
  writer.WriteDouble(config.weights.frsh);
  writer.WriteDouble(config.freshness_tau_seconds);
  writer.WriteU32(config.use_bound ? 1 : 0);
  writer.WriteU32(static_cast<std::uint32_t>(config.bound_mode));
  writer.WriteU32(kRetiredDefaultK);
  // v5 added the compaction-policy and tier-runs slots.
  writer.WriteU32(kRetiredPolicy);
  writer.WriteU64(kRetiredTierRuns);
}

// Orders (key, value) entries by their unique key.
template <typename Entries>
void SortByKey(Entries& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

Status ReadConfig(SnapshotReader& reader, RtsiConfig& config) {
  const Status bad = Status::Internal("snapshot: bad config section");
  std::uint64_t delta = 0, retired_shards = 0;
  std::uint32_t compress = 0, use_bound = 0, bound_mode = 0, retired_k = 0;
  if (!reader.ReadU64(delta) || !reader.ReadDouble(config.lsm.rho) ||
      !reader.ReadU32(compress) || !reader.ReadU64(retired_shards) ||
      !reader.ReadDouble(config.weights.pop) ||
      !reader.ReadDouble(config.weights.rel) ||
      !reader.ReadDouble(config.weights.frsh) ||
      !reader.ReadDouble(config.freshness_tau_seconds) ||
      !reader.ReadU32(use_bound) || !reader.ReadU32(bound_mode) ||
      !reader.ReadU32(retired_k)) {
    return bad;
  }
  // A file outside the range the cascade settles in would hang the merge
  // thread, and with it every later freeze.
  config.lsm.delta = delta;
  const Status lsm = config.lsm.Check();
  if (!lsm.ok()) return lsm;
  if (bound_mode > static_cast<std::uint32_t>(core::BoundMode::kGlobalPop)) {
    return bad;
  }
  config.lsm.compress = compress != 0;
  config.use_bound = use_bound != 0;
  config.bound_mode = static_cast<core::BoundMode>(bound_mode);
  if (reader.version() >= 5) {
    std::uint32_t policy = 0;
    std::uint64_t runs_per_tier = 0;
    if (!reader.ReadU32(policy) || !reader.ReadU64(runs_per_tier)) {
      return bad;
    }
    if (policy > kRetiredPolicyMax) return bad;
  }
  return Status::Ok();
}

}  // namespace

Status SaveIndexSnapshot(const RtsiIndex& index, const std::string& path,
                         std::uint64_t journal_epoch) {
  SnapshotWriter writer;
  Status status = writer.Open(path, kSnapshotVersion);
  if (!status.ok()) return status;

  WriteConfig(writer, index.config());
  writer.WriteU64(journal_epoch);

  // The sealed components and the L0 postings this file stores, gathered
  // first: the stream table's count slot is derived from them.
  const auto components = index.tree().SealedSnapshot();
  std::vector<std::pair<TermId, std::vector<Posting>>> l0_terms;
  index.tree().ForEachL0Term([&](TermId term, const TermPostings& postings) {
    const auto entries = postings.entries();
    l0_terms.emplace_back(
        term, std::vector<Posting>(entries.begin(), entries.end()));
  });
  SortByKey(l0_terms);

  // Every hash-keyed section is written in key order, so the file depends
  // only on the index contents: saving a loaded snapshot reproduces it
  // byte for byte.

  // Document frequencies.
  {
    const auto& df = index.doc_freq();
    writer.WriteU64(df.num_documents());
    std::vector<std::pair<TermId, std::uint64_t>> entries;
    df.ForEach([&](TermId term, std::uint64_t count) {
      entries.emplace_back(term, count);
    });
    SortByKey(entries);
    writer.WriteVarint(entries.size());
    for (const auto& [term, count] : entries) {
      writer.WriteVarint(term);
      writer.WriteVarint(count);
    }
  }

  // Stream-info table (including tombstones).
  {
    std::vector<std::pair<StreamId, StreamInfo>> entries;
    index.stream_table().ForEach(
        [&](StreamId stream, const StreamInfo& info) {
          entries.emplace_back(stream, info);
        });
    SortByKey(entries);
    writer.WriteVarint(entries.size());
    // The component_count slot: the loader ignores it, but older binaries
    // read it, so it carries the stream's placement in this file — its
    // residencies among the stored components, plus one if the stored L0
    // holds it.
    std::unordered_set<ComponentId> stored;
    for (const auto& component : components) {
      stored.insert(component->component_id());
    }
    std::unordered_set<StreamId> in_l0;
    for (const auto& [term, postings] : l0_terms) {
      for (const Posting& p : postings) in_l0.insert(p.stream);
    }
    for (const auto& [stream, info] : entries) {
      std::uint64_t placements = in_l0.count(stream);
      for (const ComponentId id : index.stream_table().GetResidency(stream)) {
        placements += stored.count(id);
      }
      writer.WriteVarint(stream);
      writer.WriteVarint(info.pop_count);
      writer.WriteVarint(static_cast<std::uint64_t>(info.frsh));
      writer.WriteVarint(placements);
      writer.WriteU32((info.live ? 1u : 0u) | (info.deleted ? 2u : 0u) |
                      (info.content_seen ? 4u : 0u) |
                      (info.finished ? 8u : 0u));
    }
  }

  // Live-term table.
  {
    std::vector<std::pair<StreamId, std::vector<std::pair<TermId, TermFreq>>>>
        entries;
    index.live_table().ForEachStream(
        [&](StreamId stream,
            const std::unordered_map<TermId, TermFreq>& terms) {
          std::vector<std::pair<TermId, TermFreq>> flat(terms.begin(),
                                                        terms.end());
          SortByKey(flat);
          entries.emplace_back(stream, std::move(flat));
        });
    SortByKey(entries);
    writer.WriteVarint(entries.size());
    for (const auto& [stream, terms] : entries) {
      writer.WriteVarint(stream);
      writer.WriteVarint(terms.size());
      for (const auto& [term, total] : terms) {
        writer.WriteVarint(term);
        writer.WriteVarint(total);
      }
    }
  }

  // Sealed components (always stored compressed).
  {
    writer.WriteVarint(components.size());
    for (const auto& component : components) {
      writer.WriteU32(static_cast<std::uint32_t>(component->level()));
      // Live-freshness ceiling at save time: a valid ceiling for every
      // resident stream's freshness as of the snapshot. The restore path
      // re-registers residencies, so later inserts keep it tight.
      writer.WriteVarint(
          static_cast<std::uint64_t>(component->LiveFrshCeiling()));
      // v4: the immutable skip header, bit-exact. Every tree-owned
      // component carries one; the empty-blob fallback keeps the format
      // well-defined for components built outside the tree lifecycle.
      const index::SkipHeader* header = component->skip_header();
      writer.WriteBlob(header != nullptr ? header->Serialize()
                                         : std::vector<std::uint8_t>{});
      // Only the term ids are sorted; each list is encoded and written in
      // turn, so the save holds one encoded list at a time.
      std::vector<TermId> terms = component->TermIds();
      std::sort(terms.begin(), terms.end());
      writer.WriteVarint(terms.size());
      for (const TermId term : terms) {
        writer.WriteVarint(term);
        writer.WriteBlob(
            CompressedTermPostings::FromPostings(*component->View(term))
                .blob());
      }
    }
  }

  // L0 postings (raw, arrival order).
  {
    writer.WriteVarint(l0_terms.size());
    for (const auto& [term, postings] : l0_terms) {
      writer.WriteVarint(term);
      writer.WriteVarint(postings.size());
      for (const Posting& p : postings) {
        writer.WriteVarint(p.stream);
        std::uint32_t pop_bits;
        std::memcpy(&pop_bits, &p.pop, sizeof(pop_bits));
        writer.WriteU32(pop_bits);
        writer.WriteVarint(static_cast<std::uint64_t>(p.frsh));
        writer.WriteVarint(p.tf);
      }
    }
  }

  return writer.Finish();
}

Result<std::unique_ptr<RtsiIndex>> LoadIndexSnapshot(
    const std::string& path, std::uint64_t* journal_epoch) {
  if (journal_epoch != nullptr) *journal_epoch = 0;
  SnapshotReader reader;
  Status status = reader.Open(path, kMinSnapshotVersion, kSnapshotVersion);
  if (!status.ok()) return status;

  RtsiConfig config;
  status = ReadConfig(reader, config);
  if (!status.ok()) return status;
  if (reader.version() >= 3) {
    std::uint64_t epoch = 0;
    if (!reader.ReadU64(epoch)) {
      return Status::Internal("snapshot: bad journal epoch");
    }
    if (journal_epoch != nullptr) *journal_epoch = epoch;
  }
  auto index = std::make_unique<RtsiIndex>(config);

  // Document frequencies.
  {
    std::uint64_t num_documents = 0, count = 0;
    if (!reader.ReadU64(num_documents) || !reader.ReadVarint(count)) {
      return Status::Internal("snapshot: bad df header");
    }
    index->mutable_doc_freq().SetNumDocuments(num_documents);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t term = 0, df = 0;
      if (!reader.ReadVarint(term) || !reader.ReadVarint(df)) {
        return Status::Internal("snapshot: bad df entry");
      }
      index->mutable_doc_freq().RestoreEntry(static_cast<TermId>(term), df);
    }
  }

  // Stream-info table.
  {
    std::uint64_t count = 0;
    if (!reader.ReadVarint(count)) {
      return Status::Internal("snapshot: bad stream table header");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      // The component_count slot is read and ignored: placement is
      // rebuilt from the restored components and L0 postings.
      std::uint64_t stream = 0, pop = 0, frsh = 0, placements = 0;
      std::uint32_t flags = 0;
      if (!reader.ReadVarint(stream) || !reader.ReadVarint(pop) ||
          !reader.ReadVarint(frsh) || !reader.ReadVarint(placements) ||
          !reader.ReadU32(flags)) {
        return Status::Internal("snapshot: bad stream entry");
      }
      StreamInfo info;
      info.pop_count = pop;
      info.frsh = static_cast<Timestamp>(frsh);
      info.live = (flags & 1u) != 0;
      info.deleted = (flags & 2u) != 0;
      info.content_seen = (flags & 4u) != 0;
      info.finished = (flags & 8u) != 0;
      index->mutable_stream_table().RestoreEntry(stream, info);
    }
  }

  // Live-term table.
  {
    std::uint64_t num_streams = 0;
    if (!reader.ReadVarint(num_streams)) {
      return Status::Internal("snapshot: bad live table header");
    }
    for (std::uint64_t i = 0; i < num_streams; ++i) {
      std::uint64_t stream = 0, num_terms = 0;
      if (!reader.ReadVarint(stream) || !reader.ReadVarint(num_terms)) {
        return Status::Internal("snapshot: bad live table entry");
      }
      for (std::uint64_t t = 0; t < num_terms; ++t) {
        std::uint64_t term = 0, total = 0;
        if (!reader.ReadVarint(term) || !reader.ReadVarint(total)) {
          return Status::Internal("snapshot: bad live term entry");
        }
        index->mutable_live_table().Add(stream, static_cast<TermId>(term),
                                        static_cast<TermFreq>(total));
      }
    }
  }

  // Sealed components.
  {
    std::uint64_t num_components = 0;
    if (!reader.ReadVarint(num_components)) {
      return Status::Internal("snapshot: bad component header");
    }
    std::unordered_set<StreamId> resident;
    for (std::uint64_t c = 0; c < num_components; ++c) {
      std::uint32_t level = 0;
      std::uint64_t ceiling = 0, num_terms = 0;
      // v1 component entries carry no ceiling varint. Leaving `ceiling`
      // at 0 is still sound: the residency re-registration below folds
      // every resident stream's restored live freshness into the fresh
      // cell, which is exactly the coverage the ceiling must provide.
      if (!reader.ReadU32(level) ||
          (reader.version() >= 2 && !reader.ReadVarint(ceiling))) {
        return Status::Internal("snapshot: bad component entry");
      }
      // v4 carries the skip header bit-exact; <= v3 leaves the blob empty
      // and RestoreSealedComponent rebuilds it deterministically from the
      // decoded postings.
      std::vector<std::uint8_t> header_blob;
      if (reader.version() >= 4 && !reader.ReadBlob(header_blob)) {
        return Status::Internal("snapshot: bad skip-header blob");
      }
      if (!reader.ReadVarint(num_terms)) {
        return Status::Internal("snapshot: bad component entry");
      }
      auto component =
          std::make_shared<index::InvertedIndex>(static_cast<int>(level));
      if (!header_blob.empty()) {
        index::SkipHeader header;
        if (!index::SkipHeader::Deserialize(header_blob.data(),
                                            header_blob.size(), header)) {
          return Status::Internal("snapshot: corrupt skip header");
        }
        component->AdoptSkipHeader(std::move(header));
      }
      std::vector<std::uint8_t> blob;
      resident.clear();
      for (std::uint64_t t = 0; t < num_terms; ++t) {
        std::uint64_t term = 0;
        if (!reader.ReadVarint(term) || !reader.ReadBlob(blob)) {
          return Status::Internal("snapshot: bad component term");
        }
        TermPostings postings = CompressedTermPostings::DecodeBlob(blob);
        if (postings.empty() && !blob.empty()) {
          return Status::Internal("snapshot: corrupt posting blob");
        }
        for (const Posting& p : postings.entries()) {
          resident.insert(p.stream);
        }
        component->Put(static_cast<TermId>(term), std::move(postings));
      }
      if (config.lsm.compress) component->CompressAll();
      status = index->mutable_tree().RestoreSealedComponent(component);
      if (!status.ok()) return status;
      // RestoreSealedComponent gave the component its identity and ceiling
      // cell; fold in the persisted ceiling and re-register every resident
      // stream so future inserts keep bumping it (exactly the freeze-time
      // registration, reconstructed from the decoded postings).
      component->BumpCeiling(static_cast<Timestamp>(ceiling));
      for (const StreamId stream : resident) {
        index->mutable_stream_table().AddSealedResidency(
            stream, component->component_id(), component->ceiling_cell());
      }
    }
  }

  // L0 postings.
  {
    std::uint64_t num_terms = 0;
    if (!reader.ReadVarint(num_terms)) {
      return Status::Internal("snapshot: bad L0 header");
    }
    std::unordered_set<StreamId> l0_streams;
    for (std::uint64_t t = 0; t < num_terms; ++t) {
      std::uint64_t term = 0, count = 0;
      if (!reader.ReadVarint(term) || !reader.ReadVarint(count)) {
        return Status::Internal("snapshot: bad L0 term");
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t stream = 0, frsh = 0, tf = 0;
        std::uint32_t pop_bits = 0;
        if (!reader.ReadVarint(stream) || !reader.ReadU32(pop_bits) ||
            !reader.ReadVarint(frsh) || !reader.ReadVarint(tf)) {
          return Status::Internal("snapshot: bad L0 posting");
        }
        Posting posting;
        posting.stream = stream;
        std::memcpy(&posting.pop, &pop_bits, sizeof(pop_bits));
        posting.frsh = static_cast<Timestamp>(frsh);
        posting.tf = static_cast<TermFreq>(tf);
        index->mutable_tree().AddPosting(static_cast<TermId>(term), posting);
        l0_streams.insert(posting.stream);
      }
    }
    // Restored L0 postings put their streams in the current L0 epoch.
    const std::uint32_t l0_epoch = index->tree().l0_epoch();
    for (const StreamId stream : l0_streams) {
      index->mutable_stream_table().StampL0(stream, l0_epoch);
    }
  }

  if (!reader.AtEnd()) {
    return Status::Internal("snapshot: trailing bytes");
  }
  return index;
}

}  // namespace rtsi::storage
