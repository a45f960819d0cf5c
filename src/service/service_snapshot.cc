#include "service/service_snapshot.h"

#include <utility>
#include <vector>

#include "storage/file_io.h"
#include "storage/snapshot.h"

namespace rtsi::service {
namespace {

constexpr std::uint32_t kDictFormatVersion = 1;

Status SaveDictionary(storage::SnapshotWriter& writer,
                      text::TermDictionary& dict) {
  writer.WriteU64(dict.num_documents());
  writer.WriteVarint(dict.size());
  dict.ForEachInIdOrder(
      [&](TermId id, std::string_view term, std::uint64_t df) {
        (void)id;  // Ids are dense and written in order.
        writer.WriteString(std::string(term));
        writer.WriteVarint(df);
      });
  return Status::Ok();
}

Status LoadDictionary(storage::SnapshotReader& reader,
                      text::TermDictionary& dict) {
  if (dict.size() != 0) {
    return Status::FailedPrecondition(
        "dictionary must be empty before restore");
  }
  std::uint64_t num_documents = 0, count = 0;
  if (!reader.ReadU64(num_documents) || !reader.ReadVarint(count)) {
    return Status::Internal("dict snapshot: bad header");
  }
  dict.SetNumDocuments(num_documents);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string term;
    std::uint64_t df = 0;
    if (!reader.ReadString(term) || !reader.ReadVarint(df)) {
      return Status::Internal("dict snapshot: bad entry");
    }
    const TermId id = dict.Intern(term);
    if (id != static_cast<TermId>(i)) {
      return Status::Internal("dict snapshot: id order violated");
    }
    dict.RestoreDocumentFrequency(id, df);
  }
  return Status::Ok();
}

}  // namespace

Status SaveServiceSnapshot(SearchService& service,
                           const std::string& path_prefix) {
  if (service.num_shards() != 1) {
    return Status::FailedPrecondition(
        "service snapshots are single-shard; sharded deployments persist "
        "per shard (shard::IndexShardSet::Open + Checkpoint)");
  }
  // Both per-modality index files use the storage snapshot format, which
  // (since v2) persists each sealed component's live-freshness ceiling and
  // every stream's finished flag — a reloaded service prunes with the same
  // tight per-component bounds as the one that saved it.
  //
  // Each file is written atomically (tmp + fsync + rename + dir fsync in
  // SnapshotWriter), so a crash leaves every file either old or new,
  // never torn. The dicts file is written last and read first: a save
  // interrupted before it completes leaves the previous dicts in place,
  // and index files are only ever newer than the dicts they accompany —
  // term ids are append-only, so ids referenced by the older dicts
  // resolve identically against a newer index file's vocabulary.
  //
  // The save starts from a settled layout: a cascade a recent ingest
  // started finishes first.
  service.text_index().WaitForMerges();
  service.sound_index().WaitForMerges();
  Status status =
      storage::SaveIndexSnapshot(service.text_index(), path_prefix + ".text");
  if (!status.ok()) return status;
  status = storage::SaveIndexSnapshot(service.sound_index(),
                                      path_prefix + ".sound");
  if (!status.ok()) return status;

  storage::SnapshotWriter writer;
  status = writer.Open(path_prefix + ".dicts", kDictFormatVersion);
  if (!status.ok()) return status;
  status = SaveDictionary(writer, service.text_dictionary());
  if (!status.ok()) return status;
  status = SaveDictionary(writer, service.sound_dictionary());
  if (!status.ok()) return status;
  return writer.Finish();
}

Status LoadServiceSnapshot(SearchService& service,
                           const std::string& path_prefix) {
  if (service.num_shards() != 1) {
    return Status::FailedPrecondition(
        "service snapshots are single-shard; sharded deployments recover "
        "per shard (shard::IndexShardSet::Open)");
  }
  storage::SnapshotReader reader;
  Status status = reader.Open(path_prefix + ".dicts", kDictFormatVersion);
  if (!status.ok()) return status;
  status = LoadDictionary(reader, service.text_dictionary());
  if (!status.ok()) return status;
  status = LoadDictionary(reader, service.sound_dictionary());
  if (!status.ok()) return status;

  auto text = storage::LoadIndexSnapshot(path_prefix + ".text");
  if (!text.ok()) return text.status();
  auto sound = storage::LoadIndexSnapshot(path_prefix + ".sound");
  if (!sound.ok()) return sound.status();
  // Publishing the restored pair is one atomic swap: queries in flight
  // finish against the pair they pinned; nothing blocks on them.
  service.ReplaceIndices(std::move(text).value(), std::move(sound).value());
  return Status::Ok();
}

}  // namespace rtsi::service
