// Durability: an operation journal (write-ahead log) and point-in-time
// recovery.
//
// DurableIndex decorates any SearchIndex: every mutating operation is
// appended to a journal file (in the human-readable workload-trace
// format, each record carrying a CRC-32 suffix) before being applied.
// Recovery = load the latest snapshot, then replay the journal tail.
// Checkpoint() writes a fresh snapshot and retires the journal.
//
// Crash-consistency contract (see DESIGN.md "Durability & crash
// consistency"):
//   * With flush_each_record, Append() returning OK means the record is
//     durable (fdatasync'd). Without it, records become durable at the
//     group-commit boundary, at Flush(), or at Checkpoint().
//   * Checkpoint() is atomic: the snapshot is written to a temporary,
//     fsync'd and renamed into place, and journals are rotated with
//     monotonically increasing epochs so that a crash at ANY point
//     leaves either the old snapshot plus a replayable journal or the
//     new snapshot — never a state that loses acknowledged operations
//     or replays an operation twice.
//   * On a journal append/flush failure the index fails stop into a
//     read-only degraded mode: queries keep working, mutations are
//     rejected, and in-memory state never diverges from durable state.
//   * Replay tolerates a torn or corrupt FINAL record (the tail of an
//     interrupted write) — it is dropped with a warning and the file is
//     truncated back to the last good record. Corruption anywhere else
//     fails recovery hard.
//
// The journal format is workload::Trace's line format, so journals are
// also valid benchmark traces.

#ifndef RTSI_STORAGE_JOURNAL_H_
#define RTSI_STORAGE_JOURNAL_H_

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/rtsi_index.h"
#include "workload/trace.h"

namespace rtsi::storage {

struct JournalOptions {
  /// fdatasync after every record: Append() == durable.
  bool flush_each_record = false;
  /// When not flushing each record, fdatasync every N records (group
  /// commit). 0 disables the interval; durability then comes from
  /// Sync()/Close()/Checkpoint().
  std::uint32_t group_commit_records = 0;
};

/// Appends trace-format operation lines (with CRC-32 record suffixes) to
/// a file. Thread-safe.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens for append (creates if missing). A freshly created file gets
  /// an epoch header recording which snapshot generation its records
  /// apply on top of; appending to an existing file keeps its epoch.
  Status Open(const std::string& path, const JournalOptions& options,
              std::uint64_t epoch = 0);
  Status Open(const std::string& path, bool flush_each_record = false);

  /// Appends one operation. With flush_each_record the record is durable
  /// when this returns OK.
  Status Append(const workload::TraceOp& op);

  /// Makes everything appended so far durable (fflush + fdatasync).
  Status Sync();

  /// Rotates the journal for a checkpoint: syncs and closes the current
  /// file, renames it to `rotated_path`, then starts a fresh journal at
  /// the original path with epoch `new_epoch` and fsyncs the directory.
  /// On failure before the rename the writer keeps the old file open; on
  /// failure after it the writer is closed (callers must treat the
  /// journal as unavailable).
  Status Rotate(const std::string& rotated_path, std::uint64_t new_epoch);

  /// Truncates the journal via rotate-then-unlink: the old records are
  /// moved aside to `<path>.old`, a fresh journal is created and made
  /// durable, and only then is the rotated file removed — no crash
  /// window loses both files.
  Status Reset();

  Status Close();

  /// Records appended to the current file. Survives Close().
  std::uint64_t records_written() const { return records_; }
  std::uint64_t epoch() const { return epoch_; }
  bool is_open() const { return file_ != nullptr; }

 private:
  Status OpenLocked(const std::string& path, std::uint64_t epoch);
  Status SyncLocked();

  std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
  JournalOptions options_;
  std::uint64_t epoch_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t unsynced_records_ = 0;
};

/// What DurableIndex::Open's recovery actually did — surfaced so
/// operators can see replay counts, durations and dropped torn tails.
struct RecoveryStats {
  bool snapshot_loaded = false;
  std::uint64_t snapshot_epoch = 0;
  std::uint64_t journals_replayed = 0;   // files whose ops were applied
  std::uint64_t journals_skipped = 0;    // files covered by the snapshot
  std::uint64_t ops_replayed = 0;
  std::uint64_t torn_tails_dropped = 0;
  double replay_seconds = 0.0;
};

/// Summary of a journal file's integrity (see InspectJournal).
struct JournalInspection {
  bool readable = false;
  bool has_epoch_header = false;
  std::uint64_t epoch = 0;
  std::uint64_t records = 0;
  std::uint64_t checksummed_records = 0;
  bool torn_tail = false;
  std::uint64_t torn_tail_offset = 0;
  std::string torn_tail_reason;
  bool corrupt = false;  // mid-file corruption (beyond a torn tail)
  std::uint64_t first_corrupt_offset = 0;
  std::string error;
};

/// Validates every record CRC in a journal without applying anything.
JournalInspection InspectJournal(const std::string& path);

/// A journaled RTSI index: snapshot + journal = crash-recoverable state.
class DurableIndex : public core::SearchIndex {
 public:
  /// Creates/opens the journal at `journal_path` and recovers state from
  /// the snapshot plus any journal files. `stats`, when given, receives
  /// what recovery did.
  static Result<std::unique_ptr<DurableIndex>> Open(
      const core::RtsiConfig& config, const std::string& snapshot_path,
      const std::string& journal_path, const JournalOptions& options,
      RecoveryStats* stats = nullptr);
  static Result<std::unique_ptr<DurableIndex>> Open(
      const core::RtsiConfig& config, const std::string& snapshot_path,
      const std::string& journal_path, bool flush_each_record = false,
      RecoveryStats* stats = nullptr);

  // SearchIndex (mutations are journaled before being applied; in
  // degraded mode they are rejected and NOT applied):
  void InsertWindow(StreamId stream, Timestamp now,
                    const std::vector<core::TermCount>& terms,
                    bool live) override;
  void FinishStream(StreamId stream) override;
  void DeleteStream(StreamId stream) override;
  void UpdatePopularity(StreamId stream, std::uint64_t delta) override;
  std::vector<core::ScoredStream> Query(const std::vector<TermId>& terms,
                                        int k, Timestamp now,
                                        core::QueryStats* stats) override;
  using core::SearchIndex::Query;
  void WaitForMerges() override { index_->WaitForMerges(); }
  std::size_t MemoryBytes() const override;
  std::string name() const override { return "RTSI+journal"; }

  /// Writes a snapshot of the current state and retires the journal
  /// (rotate, snapshot, unlink — atomic under crashes). A successful
  /// checkpoint clears degraded mode.
  Status Checkpoint();

  /// Forces everything journaled so far to disk (group-commit callers).
  Status Flush();

  /// True once a journal append/flush has failed: the index is
  /// read-only and mutations are dropped (fail-stop, e.g. disk-full).
  bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }
  /// The failure that triggered degraded mode (OK when healthy).
  Status last_error() const;

  core::RtsiIndex& index() { return *index_; }

 private:
  DurableIndex(std::unique_ptr<core::RtsiIndex> index,
               std::string snapshot_path, std::string journal_path);

  /// Journals one op; applies it to the in-memory index only on success.
  void Mutate(const workload::TraceOp& op);
  void EnterDegraded(const Status& status);

  std::unique_ptr<core::RtsiIndex> index_;
  std::string snapshot_path_;
  std::string journal_path_;
  JournalWriter journal_;
  std::atomic<bool> degraded_{false};
  mutable std::mutex error_mu_;
  Status last_error_;
};

}  // namespace rtsi::storage

#endif  // RTSI_STORAGE_JOURNAL_H_
