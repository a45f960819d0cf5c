#include "storage/journal.h"

#include <dirent.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/latency_stats.h"
#include "storage/fs.h"
#include "storage/snapshot.h"

namespace rtsi::storage {
namespace {

// First line of a journal created by this version. Parsed as a comment
// by workload::Trace, so journals remain valid benchmark traces.
constexpr const char* kJournalHeaderPrefix = "# RTSI journal v2 epoch ";

std::string JournalHeaderLine(std::uint64_t epoch) {
  return kJournalHeaderPrefix + std::to_string(epoch) + "\n";
}

struct JournalHeader {
  bool present = false;
  std::uint64_t epoch = 0;
};

JournalHeader ReadJournalHeader(const std::string& path) {
  JournalHeader header;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return header;
  char line[128];
  if (std::fgets(line, sizeof(line), f) != nullptr &&
      std::strncmp(line, kJournalHeaderPrefix,
                   std::strlen(kJournalHeaderPrefix)) == 0) {
    header.present = true;
    header.epoch = std::strtoull(line + std::strlen(kJournalHeaderPrefix),
                                 nullptr, 10);
  }
  std::fclose(f);
  return header;
}

std::string RotatedJournalName(const std::string& journal_path,
                               std::uint64_t epoch) {
  return journal_path + "." + std::to_string(epoch);
}

/// Rotated journals next to `journal_path`, ascending by epoch.
std::vector<std::pair<std::uint64_t, std::string>> FindRotatedJournals(
    const std::string& journal_path) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  const std::string dir_path = fs::ParentDir(journal_path);
  const std::size_t slash = journal_path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? journal_path : journal_path.substr(slash + 1);
  DIR* dir = ::opendir(dir_path.c_str());
  if (dir == nullptr) return found;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() <= base.size() + 1 || name.compare(0, base.size(), base) != 0 ||
        name[base.size()] != '.') {
      continue;
    }
    const std::string suffix = name.substr(base.size() + 1);
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::strtoull(suffix.c_str(), nullptr, 10),
                       dir_path + "/" + name);
  }
  ::closedir(dir);
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

Status JournalWriter::Open(const std::string& path,
                           const JournalOptions& options,
                           std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) return Status::FailedPrecondition("already open");
  options_ = options;
  return OpenLocked(path, epoch);
}

Status JournalWriter::Open(const std::string& path, bool flush_each_record) {
  JournalOptions options;
  options.flush_each_record = flush_each_record;
  return Open(path, options, 0);
}

Status JournalWriter::OpenLocked(const std::string& path,
                                 std::uint64_t epoch) {
  const bool fresh = !fs::Exists(path) || fs::FileSize(path) == 0;
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    return Status::Internal("cannot open journal: " + path);
  }
  fs::TrackOpen(path, /*truncated=*/false);
  path_ = path;
  epoch_ = epoch;
  records_ = 0;
  unsynced_records_ = 0;
  if (fresh) {
    const std::string header = JournalHeaderLine(epoch);
    if (!fs::Write(file_, header.data(), header.size(), path_)) {
      std::fclose(file_);
      file_ = nullptr;
      return Status::Internal("cannot write journal header: " + path);
    }
    const Status synced = SyncLocked();
    if (!synced.ok()) {
      std::fclose(file_);
      file_ = nullptr;
      return synced;
    }
  }
  return Status::Ok();
}

Status JournalWriter::SyncLocked() {
  const Status status = fs::FlushAndSync(file_, path_);
  if (status.ok()) unsynced_records_ = 0;
  return status;
}

Status JournalWriter::Append(const workload::TraceOp& op) {
  std::string line = workload::Trace::FormatOpChecked(op);
  line += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("journal closed");
  if (!fs::Write(file_, line.data(), line.size(), path_)) {
    return Status::Internal("journal append failed: " + path_);
  }
  ++unsynced_records_;
  if (options_.flush_each_record ||
      (options_.group_commit_records > 0 &&
       unsynced_records_ >= options_.group_commit_records)) {
    const Status status = SyncLocked();
    if (!status.ok()) {
      return Status::Internal("journal flush failed: " + status.message());
    }
  }
  ++records_;
  return Status::Ok();
}

Status JournalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("journal closed");
  return SyncLocked();
}

Status JournalWriter::Rotate(const std::string& rotated_path,
                             std::uint64_t new_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (path_.empty()) return Status::FailedPrecondition("journal never opened");
  if (file_ != nullptr) {
    // The rotated file must be fully durable before it changes name: a
    // replayer never tolerates a torn tail in a non-final journal.
    const Status synced = SyncLocked();
    if (!synced.ok()) return synced;  // writer stays usable
    std::fclose(file_);
    file_ = nullptr;
  }
  Status status = fs::Rename(path_, rotated_path);
  if (!status.ok()) {
    // The old file is still in place; reopen it so the writer survives.
    file_ = std::fopen(path_.c_str(), "a");
    return status;
  }
  status = OpenLocked(path_, new_epoch);
  if (!status.ok()) return status;
  return fs::SyncParentDir(path_);
}

Status JournalWriter::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  if (path_.empty()) return Status::FailedPrecondition("journal never opened");
  const std::string old_path = path_ + ".old";
  if (file_ != nullptr) {
    std::fclose(file_);  // Content is being discarded; no sync needed.
    file_ = nullptr;
  }
  Status status = fs::Rename(path_, old_path);
  if (!status.ok()) {
    file_ = std::fopen(path_.c_str(), "a");
    return status;
  }
  records_ = 0;  // The active journal is empty from here on.
  status = OpenLocked(path_, epoch_);
  if (!status.ok()) return status;  // Closed but consistent; Open() retries.
  status = fs::SyncParentDir(path_);
  if (!status.ok()) return status;
  // Only now that the fresh journal is durable may the old one go away.
  (void)fs::Remove(old_path);
  return Status::Ok();
}

Status JournalWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::Ok();
  const Status flushed = fs::Flush(file_, path_);
  const bool ok = std::fclose(file_) == 0 && flushed.ok();
  file_ = nullptr;
  return ok ? Status::Ok() : Status::Internal("journal close failed");
}

JournalInspection InspectJournal(const std::string& path) {
  JournalInspection result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    result.error = "cannot open " + path;
    return result;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string data;
  data.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
  const std::size_t read =
      data.empty() ? 0 : std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (read != data.size()) {
    result.error = "short read: " + path;
    return result;
  }
  result.readable = true;

  const JournalHeader header = ReadJournalHeader(path);
  result.has_epoch_header = header.present;
  result.epoch = header.epoch;

  std::size_t offset = 0;
  while (offset < data.size()) {
    std::size_t end = data.find('\n', offset);
    const bool has_newline = end != std::string::npos;
    if (!has_newline) end = data.size();
    const std::string line = data.substr(offset, end - offset);
    const bool is_last = (has_newline ? end + 1 : end) >= data.size();

    workload::TraceOp op;
    const auto parse = workload::Trace::ParseLineChecked(line, op);
    const bool bad =
        parse == workload::Trace::LineParse::kMalformed ||
        parse == workload::Trace::LineParse::kBadChecksum;
    if (parse == workload::Trace::LineParse::kOk) {
      const bool torn_ok_line = is_last && !has_newline;
      if (torn_ok_line) {
        result.torn_tail = true;
        result.torn_tail_offset = offset;
        result.torn_tail_reason = "record missing trailing newline";
      } else {
        ++result.records;
        if (workload::Trace::HasChecksumSuffix(line)) {
          ++result.checksummed_records;
        }
      }
    } else if (bad) {
      if (is_last) {
        result.torn_tail = true;
        result.torn_tail_offset = offset;
        result.torn_tail_reason =
            parse == workload::Trace::LineParse::kBadChecksum
                ? "checksum mismatch"
                : "malformed record";
      } else if (!result.corrupt) {
        result.corrupt = true;
        result.first_corrupt_offset = offset;
        result.error =
            (parse == workload::Trace::LineParse::kBadChecksum
                 ? std::string("checksum mismatch at byte offset ")
                 : std::string("malformed record at byte offset ")) +
            std::to_string(offset);
      }
    }
    offset = has_newline ? end + 1 : end;
  }
  return result;
}

DurableIndex::DurableIndex(std::unique_ptr<core::RtsiIndex> index,
                           std::string snapshot_path,
                           std::string journal_path)
    : index_(std::move(index)),
      snapshot_path_(std::move(snapshot_path)),
      journal_path_(std::move(journal_path)) {}

Result<std::unique_ptr<DurableIndex>> DurableIndex::Open(
    const core::RtsiConfig& config, const std::string& snapshot_path,
    const std::string& journal_path, bool flush_each_record,
    RecoveryStats* stats) {
  JournalOptions options;
  options.flush_each_record = flush_each_record;
  return Open(config, snapshot_path, journal_path, options, stats);
}

Result<std::unique_ptr<DurableIndex>> DurableIndex::Open(
    const core::RtsiConfig& config, const std::string& snapshot_path,
    const std::string& journal_path, const JournalOptions& options,
    RecoveryStats* stats) {
  const Status checked = config.lsm.Check();
  if (!checked.ok()) return checked;
  RecoveryStats local_stats;
  RecoveryStats& rs = stats != nullptr ? *stats : local_stats;
  rs = RecoveryStats{};
  Stopwatch watch;

  // A leftover snapshot temporary means a crash interrupted a checkpoint
  // before its rename; it is worthless.
  if (fs::Exists(snapshot_path + ".tmp")) {
    (void)fs::Remove(snapshot_path + ".tmp");
  }

  // 1. Base state: the snapshot, if one exists.
  std::unique_ptr<core::RtsiIndex> index;
  std::uint64_t snap_epoch = 0;
  if (fs::Exists(snapshot_path)) {
    auto loaded = LoadIndexSnapshot(snapshot_path, &snap_epoch);
    if (!loaded.ok()) return loaded.status();
    index = std::move(loaded).value();
    rs.snapshot_loaded = true;
    rs.snapshot_epoch = snap_epoch;
  } else {
    index = std::make_unique<core::RtsiIndex>(config);
  }

  // 2. Replay journals in epoch order. Files with an epoch below the
  // snapshot's are fully covered by it (the crash hit a checkpoint after
  // the snapshot rename but before cleanup) and must NOT be replayed:
  // that would apply their operations twice.
  auto replay_file = [&](const std::string& path) -> Status {
    workload::TraceLoadOptions load_options;
    load_options.tolerate_torn_tail = true;
    workload::TraceLoadInfo info;
    auto trace = workload::Trace::LoadFromFile(path, load_options, &info);
    if (!trace.ok()) return trace.status();
    workload::ReplayTrace(trace.value(), *index);
    ++rs.journals_replayed;
    rs.ops_replayed += info.ops;
    if (info.torn_tail_dropped) {
      ++rs.torn_tails_dropped;
      std::fprintf(stderr,
                   "rtsi journal: dropped torn tail of %s at byte %llu "
                   "(%s); truncating\n",
                   path.c_str(),
                   static_cast<unsigned long long>(info.torn_tail_offset),
                   info.torn_tail_reason.c_str());
      // Future appends must not land after torn garbage — that would
      // turn a benign tail into mid-file corruption on the next replay.
      const Status truncated = fs::Truncate(path, info.torn_tail_offset);
      if (!truncated.ok()) return truncated;
    }
    return Status::Ok();
  };

  std::uint64_t max_rotated_epoch = 0;
  bool any_rotated = false;
  for (const auto& [name_epoch, path] : FindRotatedJournals(journal_path)) {
    const JournalHeader header = ReadJournalHeader(path);
    const std::uint64_t epoch = header.present ? header.epoch : name_epoch;
    if (epoch < snap_epoch) {
      // Covered by the snapshot; finish the interrupted cleanup.
      ++rs.journals_skipped;
      (void)fs::Remove(path);
      continue;
    }
    const Status replayed = replay_file(path);
    if (!replayed.ok()) return replayed;
    any_rotated = true;
    max_rotated_epoch = std::max(max_rotated_epoch, epoch);
  }

  std::uint64_t active_epoch = snap_epoch;
  if (any_rotated) active_epoch = std::max(snap_epoch, max_rotated_epoch + 1);
  if (fs::Exists(journal_path)) {
    const JournalHeader header = ReadJournalHeader(journal_path);
    // Legacy journals (no epoch header) predate snapshot epochs and are
    // always a tail on top of the snapshot.
    const std::uint64_t epoch = header.present ? header.epoch : snap_epoch;
    if (header.present && epoch < snap_epoch) {
      // Covered by the snapshot. Appending to it would hide new records
      // behind the skip rule, so retire it and start fresh.
      ++rs.journals_skipped;
      (void)fs::Remove(journal_path);
    } else {
      const Status replayed = replay_file(journal_path);
      if (!replayed.ok()) return replayed;
      active_epoch = std::max(active_epoch, epoch);
    }
  }
  // The replay's last cascade may still be running: recovery ends at a
  // settled layout, the one the live index had after its own merges.
  index->WaitForMerges();
  rs.replay_seconds = watch.ElapsedMicros() / 1e6;

  auto durable = std::unique_ptr<DurableIndex>(new DurableIndex(
      std::move(index), snapshot_path, journal_path));
  const Status status =
      durable->journal_.Open(journal_path, options, active_epoch);
  if (!status.ok()) return status;
  return durable;
}

void DurableIndex::EnterDegraded(const Status& status) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    last_error_ = status;
  }
  degraded_.store(true, std::memory_order_release);
  std::fprintf(stderr,
               "rtsi journal: entering read-only degraded mode: %s\n",
               status.ToString().c_str());
}

Status DurableIndex::last_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return last_error_;
}

void DurableIndex::Mutate(const workload::TraceOp& op) {
  if (degraded()) return;  // Fail-stop: reject, never diverge.
  const Status status = journal_.Append(op);
  if (!status.ok()) {
    EnterDegraded(status);
    return;
  }
  switch (op.kind) {
    case workload::TraceOp::Kind::kInsert:
      index_->InsertWindow(op.stream, op.now, op.terms, op.live);
      break;
    case workload::TraceOp::Kind::kFinish:
      index_->FinishStream(op.stream);
      break;
    case workload::TraceOp::Kind::kDelete:
      index_->DeleteStream(op.stream);
      break;
    case workload::TraceOp::Kind::kUpdate:
      index_->UpdatePopularity(op.stream, op.delta);
      break;
    case workload::TraceOp::Kind::kQuery:
      break;  // Queries are never journaled.
  }
}

void DurableIndex::InsertWindow(StreamId stream, Timestamp now,
                                const std::vector<core::TermCount>& terms,
                                bool live) {
  workload::TraceOp op;
  op.kind = workload::TraceOp::Kind::kInsert;
  op.stream = stream;
  op.now = now;
  op.live = live;
  op.terms = terms;
  Mutate(op);
}

void DurableIndex::FinishStream(StreamId stream) {
  workload::TraceOp op;
  op.kind = workload::TraceOp::Kind::kFinish;
  op.stream = stream;
  Mutate(op);
}

void DurableIndex::DeleteStream(StreamId stream) {
  workload::TraceOp op;
  op.kind = workload::TraceOp::Kind::kDelete;
  op.stream = stream;
  Mutate(op);
}

void DurableIndex::UpdatePopularity(StreamId stream, std::uint64_t delta) {
  workload::TraceOp op;
  op.kind = workload::TraceOp::Kind::kUpdate;
  op.stream = stream;
  op.delta = delta;
  Mutate(op);
}

std::vector<core::ScoredStream> DurableIndex::Query(
    const std::vector<TermId>& terms, int k, Timestamp now,
    core::QueryStats* stats) {
  return index_->Query(terms, k, now, stats);
}

std::size_t DurableIndex::MemoryBytes() const {
  return index_->MemoryBytes();
}

Status DurableIndex::Flush() {
  const Status status = journal_.Sync();
  if (!status.ok() && !degraded()) EnterDegraded(status);
  return status;
}

Status DurableIndex::Checkpoint() {
  index_->WaitForMerges();

  // 1. Rotate: the full history moves aside under an epoch name, a fresh
  // journal (next epoch) opens at the active path. A crash from here on
  // leaves the old snapshot plus both journal files — complete history.
  const std::uint64_t old_epoch = journal_.epoch();
  const std::uint64_t new_epoch = old_epoch + 1;
  Status status =
      journal_.Rotate(RotatedJournalName(journal_path_, old_epoch), new_epoch);
  if (!status.ok()) {
    // Past the rename the writer is closed: appends can no longer reach
    // disk, so the index must fail stop.
    if (!journal_.is_open()) EnterDegraded(status);
    return status;
  }

  // 2. Snapshot: written to a temporary, fsync'd, renamed, dir-fsync'd
  // (SnapshotWriter::Finish). After the rename is durable the snapshot
  // at `new_epoch` covers every journal with an older epoch.
  status = SaveIndexSnapshot(*index_, snapshot_path_, new_epoch);
  if (!status.ok()) return status;  // Rotated journal keeps history safe.

  // 3. Unlink covered journals. Failure here is harmless: recovery skips
  // (and re-deletes) covered epochs.
  for (const auto& [epoch, path] : FindRotatedJournals(journal_path_)) {
    const JournalHeader header = ReadJournalHeader(path);
    const std::uint64_t file_epoch = header.present ? header.epoch : epoch;
    if (file_epoch < new_epoch) (void)fs::Remove(path);
  }
  (void)fs::SyncParentDir(journal_path_);

  // The journal is fresh and healthy; a previous fail-stop no longer
  // reflects the durable state.
  if (degraded()) {
    std::lock_guard<std::mutex> lock(error_mu_);
    last_error_ = Status::Ok();
    degraded_.store(false, std::memory_order_release);
  }
  return Status::Ok();
}

}  // namespace rtsi::storage
