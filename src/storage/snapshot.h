// Index snapshots: save the complete state of an RtsiIndex to one
// checksummed file and rebuild an identical index from it.
//
// Sealed components are stored in the Huffman-compressed posting format
// (index/compressed_postings.h) regardless of the in-memory
// representation, so snapshots are compact. The saved state covers the
// configuration, the document-frequency table, the stream-info table
// (including tombstones), the live-term table, every
// sealed LSM component, and the mutable L0 postings — queries against the
// restored index return byte-identical results.
//
// Saving requires a quiescent index (no concurrent writers).

#ifndef RTSI_STORAGE_SNAPSHOT_H_
#define RTSI_STORAGE_SNAPSHOT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/rtsi_index.h"

namespace rtsi::storage {

/// Current snapshot format version. v2 added the stream `finished` flag
/// (a new bit in the existing flags word) and a per-component
/// live-freshness ceiling varint. v1 files still load: the ceiling is
/// reconstructed from the restored stream table when residencies are
/// re-registered (each resident stream folds its live freshness into the
/// cell), so pruning stays sound and tight; only the `finished` flag is
/// unrecoverable — restored finished streams are merely non-live, so a
/// late out-of-order window could transiently resurrect them.
/// v3 added the journal epoch (a u64 right after the config section):
/// the checkpoint generation this snapshot covers, used by DurableIndex
/// recovery to skip journal files whose operations the snapshot already
/// contains. v1/v2 files load with epoch 0 (replay everything), which
/// matches their pre-epoch semantics.
/// v4 added the per-component skip header (a length-prefixed blob right
/// after the ceiling varint): the term Bloom filter + bound summaries are
/// restored bit-exactly instead of being recomputed. Files <= v3 load
/// with headers rebuilt from the decoded postings — SkipHeader::Build is
/// deterministic, so the rebuilt header is byte-identical to what a v4
/// save of the same component would have carried.
/// v5 added a compaction-policy slot (u32) and a tier-runs slot (u64) to
/// the config section. Both are retired, like the L0-shard and default-k
/// slots before them: writers store fixed values (0, 4; 16 shards, k 10)
/// and loaders ignore them, since the tree has one compaction shape,
/// Algorithm 1's geometric cascade. Component entries are unchanged, but
/// v5 snapshots may legitimately carry several components per level and
/// components at level 0 (a frozen, not-yet-merged L0): any pinned view
/// — including one cut mid-cascade — is a valid snapshot, and the next
/// cascade re-plans from whatever run lists were restored. A config
/// whose delta is 0, whose rho is not above 1, or whose bound mode or
/// policy slot is out of range fails to load.
inline constexpr std::uint32_t kSnapshotVersion = 5;
inline constexpr std::uint32_t kMinSnapshotVersion = 1;

/// Writes the full index state to `path`. The write is atomic: data goes
/// to `<path>.tmp` and is fsync'd and renamed over `path` (see
/// SnapshotWriter), so a crash never leaves a torn snapshot.
/// `journal_epoch` records the checkpoint generation (0 for snapshots
/// outside the journal protocol, e.g. rtsi_cli build). It does not wait
/// for the merge thread (the mid-cascade tests save from it): callers
/// that want a settled layout call WaitForMerges() first.
Status SaveIndexSnapshot(const core::RtsiIndex& index,
                         const std::string& path,
                         std::uint64_t journal_epoch = 0);

/// Rebuilds an index from `path`. On success the returned index answers
/// queries identically to the saved one. `journal_epoch`, when non-null,
/// receives the stored checkpoint generation (0 for v1/v2 files).
Result<std::unique_ptr<core::RtsiIndex>> LoadIndexSnapshot(
    const std::string& path, std::uint64_t* journal_epoch = nullptr);

}  // namespace rtsi::storage

#endif  // RTSI_STORAGE_SNAPSHOT_H_
