// live_ingest: durable live ingest with a low-rate query thread beside it.
//
// Setup opens a durable IndexShardSet (product defaults: one shard,
// journal group commit off) in an empty directory and replays the first
// kPreloadWindows windows of the schedule into it, so the timed phase
// starts on an index that already has sealed levels and a checkpoint.
// One writer thread replays a live-broadcast schedule of term-id windows:
// a cohort of concurrently live streams each delivers one window per
// simulated minute, Zipf-skewed popularity updates land between windows,
// and FinishStream follows each stream's last window. The writer calls
// Flush() every kFlushEvery windows and Checkpoint() every
// kCheckpointEvery windows. A query thread sends term-id Query calls
// open loop at a fixed low rate, each timed from its due time. At the
// end the set is closed, reopened from disk and audited again.
//
// The schedule has a fixed length (seconds x kWindowsPerSecond windows
// after the preload) and merges run on the writer thread (the default),
// so the final index state -- and with it the audit -- repeats exactly
// for a given seed.

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rtsi;

constexpr int kSetupReps = 3;
constexpr std::size_t kCohort = 200;
constexpr double kWindowsPerSecond = 2500.0;
constexpr std::size_t kFlushEvery = 64;
constexpr std::size_t kCheckpointEvery = 8192;
// One checkpoint interval: setup ends with a checkpoint.
constexpr std::size_t kPreloadWindows = kCheckpointEvery;
constexpr int kPopPerWindow = 2;
constexpr std::size_t kPopRange = 4096;  // Recent streams that get plays.
constexpr double kQueryRate = 200.0;     // Queries per second, open loop.
constexpr int kK = 10;
constexpr std::size_t kAuditQueries = 500;

std::uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

std::unique_ptr<shard::IndexShardSet> OpenSet(
    const std::string& dir, std::vector<storage::RecoveryStats>* recovery,
    Report& report) {
  shard::ShardSetConfig config;
  config.durable_dir = dir;
  auto opened = shard::IndexShardSet::Open(config, recovery);
  if (!opened.ok()) {
    report.Problem("IndexShardSet::Open(" + dir +
                   "): " + opened.status().ToString());
    return nullptr;
  }
  return std::move(opened.value());
}

/// Everything one pass of the workload measured (timed phase only).
struct LiveResult {
  bool ok = false;
  double setup_s = 0.0;
  Samples insert_us;
  Samples query_us;       // From due time.
  Samples late_us;        // Generator lateness (send - due).
  double writer_busy_s = 0.0;  // Time inside the index's calls.
  double writer_wall_s = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t postings_ingested = 0;
  std::uint64_t queries = 0;
  std::uint64_t malformed = 0;
  double recover_s = 0.0;
  storage::RecoveryStats recovery;
  std::uint64_t journal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_postings = 0;
  SetTotals totals;            // Before close.
  // Merge work during the timed phase.
  std::size_t merges = 0;
  std::size_t merge_postings_out = 0;
  double merge_busy_s = 0.0;
  std::size_t arena_in_use = 0;
  std::size_t mem_by_category[kNumMemCategories] = {};
  std::size_t mismatches = 0;
  std::size_t reopen_mismatches = 0;
  // Traced pass only.
  std::uint64_t freezes = 0;
  Samples stall_ms;            // Inserts during which a freeze/merge ran.
};

/// The live-broadcast schedule, replayed one window per Step() into an
/// open set: the window, its popularity updates, FinishStream at a
/// stream's last window, then Flush / Checkpoint when due. Counters go to
/// `out`, spans to `tracer` when non-null.
class LiveWriter {
 public:
  LiveWriter(const workload::SyntheticCorpus& corpus, std::uint64_t seed,
             shard::IndexShardSet& set, std::string data_dir)
      : corpus_(corpus),
        set_(set),
        data_dir_(std::move(data_dir)),
        cohort_(kCohort),
        next_window_(kCohort, 0),
        pop_rank_(kPopRange, 1.0),
        rng_(seed ^ 0x1111ULL) {
    for (auto& s : cohort_) s = next_stream_++;
    stream_limit_.store(next_stream_);
  }

  /// Every stream id a query can see is below this.
  StreamId stream_limit() const { return stream_limit_.load(); }
  const SimulatedClock& clock() const { return clock_; }

  /// Journal bytes of every shard right now.
  std::uint64_t JournalBytes() const {
    std::uint64_t n = 0;
    for (int s = 0; s < set_.num_shards(); ++s) {
      n += FileBytes(data_dir_ + "/shard-" + std::to_string(s) +
                     "/index.journal");
    }
    return n;
  }

  void Step(Tracer* tracer, LiveResult& out, Report& report) {
    const StreamId stream = cohort_[slot_];
    const int w = next_window_[slot_]++;
    const bool last = w + 1 == corpus_.NumWindows(stream);
    const auto terms = corpus_.WindowTerms(stream, w);
    out.postings_ingested += terms.size();
    const Timestamp now = clock_.Now();
    if (tracer == nullptr) {
      out.insert_us.Add(
          Timed(out, [&] { set_.InsertWindow(stream, now, terms, !last); }) /
          1e3);
    } else {
      const std::size_t l0_before = L0Postings();
      const std::size_t merges_before = MergesDone();
      const double ns = Timed(out, [&] {
        Tracer::Scope span(*tracer, "shard.insert", windows_ + 1);
        set_.InsertWindow(stream, now, terms, !last);
      });
      out.insert_us.Add(ns / 1e3);
      const bool froze = L0Postings() < l0_before;
      if (froze) ++out.freezes;
      if (froze || MergesDone() != merges_before) out.stall_ms.Add(ns / 1e6);
    }
    ++windows_;
    ++out.windows;
    for (int p = 0; p < kPopPerWindow; ++p) {
      const std::uint64_t rank = pop_rank_(rng_);
      if (rank >= next_stream_) continue;
      const StreamId target = next_stream_ - 1 - rank;
      const std::uint64_t delta = 1 + rng_.NextUint64(100);
      Timed(out, [&] { set_.UpdatePopularity(target, delta); });
    }
    if (last) {
      Timed(out, [&] { set_.FinishStream(stream); });
      cohort_[slot_] = next_stream_++;
      next_window_[slot_] = 0;
      stream_limit_.store(next_stream_);
    }
    if (windows_ % kFlushEvery == 0) {
      for (int s = 0; s < set_.num_shards(); ++s) {
        Timed(out, [&] {
          std::optional<Tracer::Scope> span;
          if (tracer != nullptr) span.emplace(*tracer, "storage.flush");
          const Status status = set_.durable_shard(s)->Flush();
          if (!status.ok()) report.Problem("Flush: " + status.ToString());
        });
      }
    }
    if (windows_ % kCheckpointEvery == 0) {
      out.journal_bytes += JournalBytes();
      Timed(out, [&] {
        std::optional<Tracer::Scope> span;
        if (tracer != nullptr) span.emplace(*tracer, "storage.checkpoint");
        const Status status = set_.Checkpoint();
        if (!status.ok()) report.Problem("Checkpoint: " + status.ToString());
      });
      out.snapshot_bytes = 0;
      for (int s = 0; s < set_.num_shards(); ++s) {
        out.snapshot_bytes += FileBytes(data_dir_ + "/shard-" +
                                        std::to_string(s) + "/index.snap");
      }
      out.snapshot_postings = Totals(set_).postings;
    }
    if (++slot_ == kCohort) {  // Every live stream sent this minute's window.
      slot_ = 0;
      clock_.Advance(60 * kMicrosPerSecond);
    }
  }

 private:
  /// Runs `fn`, adds its time to the writer's busy time, returns it (ns).
  template <typename Fn>
  static double Timed(LiveResult& out, Fn&& fn) {
    const std::int64_t t0 = NowNanos();
    fn();
    const double ns = static_cast<double>(NowNanos() - t0);
    out.writer_busy_s += ns / 1e9;
    return ns;
  }
  std::size_t MergesDone() const {
    std::size_t n = 0;
    for (int s = 0; s < set_.num_shards(); ++s) {
      n += set_.shard_index(s).GetMergeStats().merges;
    }
    return n;
  }
  std::size_t L0Postings() const {
    std::size_t n = 0;
    for (int s = 0; s < set_.num_shards(); ++s) {
      n += set_.shard_index(s).tree().l0_postings();
    }
    return n;
  }

  const workload::SyntheticCorpus& corpus_;
  shard::IndexShardSet& set_;
  const std::string data_dir_;
  SimulatedClock clock_;
  std::vector<StreamId> cohort_;
  std::vector<int> next_window_;
  std::size_t slot_ = 0;  // Next cohort slot in this simulated minute.
  StreamId next_stream_ = 0;
  std::atomic<StreamId> stream_limit_{0};
  std::uint64_t windows_ = 0;
  ZipfDistribution pop_rank_;
  Rng rng_;
};

LiveResult RunPass(const Options& options, const std::string& dir,
                   Tracer* tracer, Report& report) {
  LiveResult result;
  const workload::SyntheticCorpus corpus(CorpusFor(1'000'000, options.seed));
  // Setup: open in an empty directory and preload, several times for a
  // steady median; the last one serves. The traced pass sets up once.
  std::unique_ptr<shard::IndexShardSet> set;
  std::unique_ptr<LiveWriter> writer;
  Samples setup_s;
  std::string data_dir;
  for (int rep = 0; rep < (tracer != nullptr ? 1 : kSetupReps); ++rep) {
    writer.reset();
    set.reset();
    if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
    data_dir = dir + "/set-" + std::to_string(rep);
    std::filesystem::create_directories(data_dir);
    const std::int64_t t0 = NowNanos();
    set = OpenSet(data_dir, nullptr, report);
    if (set == nullptr) return result;
    writer = std::make_unique<LiveWriter>(corpus, options.seed, *set, data_dir);
    LiveResult preload;
    for (std::size_t i = 0; i < kPreloadWindows; ++i) {
      writer->Step(nullptr, preload, report);
    }
    setup_s.Add(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  result.setup_s = setup_s.Percentile(0.5);
  const SetTotals at_start = Totals(*set);

  const std::uint64_t total_windows = static_cast<std::uint64_t>(
      options.seconds * kWindowsPerSecond);
  const auto queries =
      MakeTermQueries(16384, corpus.vocab_size(), options.seed * 31 + 3);
  const SimulatedClock& clock = writer->clock();

  // Query thread: open loop at kQueryRate until the writer finishes.
  std::atomic<bool> writer_done{false};
  std::thread query_thread([&] {
    const std::int64_t start = NowNanos();
    const double gap_ns = 1e9 / kQueryRate;
    for (std::uint64_t i = 0; !writer_done.load(); ++i) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(gap_ns * static_cast<double>(i));
      // Idle at the due time: any delay in sending is the generator's own
      // (otherwise the previous query was still running, which its
      // latency from due time already shows).
      const bool idle = NowNanos() < due;
      WaitUntil(due);
      if (writer_done.load()) break;
      const std::int64_t sent = NowNanos();
      const auto r = set->Query(queries[i % queries.size()], kK, clock.Now());
      const std::int64_t done = NowNanos();
      // Read after the query: every stream it can have seen is below it.
      const StreamId limit = writer->stream_limit();
      if (idle) result.late_us.Add(static_cast<double>(sent - due) / 1e3);
      result.query_us.Add(static_cast<double>(done - due) / 1e3);
      ++result.queries;
      if (!WellFormed(r, kK, limit)) ++result.malformed;
    }
  });

  // Writer: the rest of the live schedule.
  const std::int64_t wall_start = NowNanos();
  for (std::uint64_t w = 0; w < total_windows; ++w) {
    writer->Step(tracer, result, report);
  }
  result.writer_wall_s = static_cast<double>(NowNanos() - wall_start) / 1e9;
  writer_done.store(true);
  query_thread.join();

  // Quiesce, audit, make everything durable, close. The traced pass
  // repeats the untraced pass's schedule, so only the untraced one audits.
  set->WaitForMerges();
  const bool audit = tracer == nullptr;
  const auto audit_queries =
      MakeTermQueries(kAuditQueries, corpus.vocab_size(), options.seed * 31 + 4);
  const Timestamp now = clock.Now();
  AuditLists before;
  if (audit) before = RunAudit(*set, audit_queries, kK, now);
  result.totals = Totals(*set);
  result.merges = result.totals.merges.merges - at_start.merges.merges;
  result.merge_postings_out =
      result.totals.merges.postings_out - at_start.merges.postings_out;
  result.merge_busy_s =
      (result.totals.merges.total_micros - at_start.merges.total_micros) / 1e6;
  for (int s = 0; s < set->num_shards(); ++s) {
    const core::RtsiIndex& index = set->shard_index(s);
    result.arena_in_use += index.LiveArenaStats().allocated_bytes;
    for (std::size_t c = 0; c < kNumMemCategories; ++c) {
      result.mem_by_category[c] +=
          index.tree().memory_tracker()->bytes(static_cast<MemCategory>(c));
    }
  }
  result.journal_bytes += writer->JournalBytes();
  for (int s = 0; s < set->num_shards(); ++s) {
    const Status status = set->durable_shard(s)->Flush();
    if (!status.ok()) report.Problem("final Flush: " + status.ToString());
  }
  const StreamId limit = writer->stream_limit();
  writer.reset();
  set.reset();

  std::vector<storage::RecoveryStats> recovery;
  const std::int64_t t0 = NowNanos();
  set = OpenSet(data_dir, &recovery, report);
  result.recover_s = static_cast<double>(NowNanos() - t0) / 1e9;
  if (set == nullptr) return result;
  for (const auto& r : recovery) {
    result.recovery.ops_replayed += r.ops_replayed;
    result.recovery.replay_seconds += r.replay_seconds;
  }
  AuditLists after;
  if (audit) after = RunAudit(*set, audit_queries, kK, now);
  for (std::size_t i = 0; audit && i < audit_queries.size(); ++i) {
    const bool pruned_ok = SameTopK(before.pruned[i], before.full[i]) &&
                           SameTopK(after.pruned[i], after.full[i]);
    const bool reopen_ok = SameTopK(before.pruned[i], after.pruned[i]) &&
                           SameTopK(before.full[i], after.full[i]);
    if (!reopen_ok) ++result.reopen_mismatches;
    if (!pruned_ok || !reopen_ok) ++result.mismatches;
    for (const auto* list :
         {&before.pruned[i], &before.full[i], &after.pruned[i],
          &after.full[i]}) {
      if (!WellFormed(*list, kK, limit)) ++result.malformed;
    }
  }
  set.reset();
  result.ok = true;
  return result;
}

}  // namespace

void RunLiveIngest(const Options& options, Report& report) {
  const std::string dir = options.work_dir + "/live_ingest";
  const LiveResult r = RunPass(options, dir + "/untraced", nullptr, report);
  if (!r.ok) return;
  report.Attempted(r.windows + r.queries + kAuditQueries);
  report.Failed(r.malformed);
  if (r.malformed > 0) {
    report.Problem(std::to_string(r.malformed) + " malformed query results");
  }
  const double late_p99 = r.late_us.Percentile(0.99);
  if (late_p99 > kMaxGeneratorLateP99Us) {
    report.Problem("query generator fell behind: lateness p99 " +
                   FormatDouble(late_p99) + " us");
  }

  const double postings = static_cast<double>(r.totals.postings);
  const double mismatch_frac = static_cast<double>(r.mismatches) /
                               static_cast<double>(kAuditQueries);
  const double failed_frac = static_cast<double>(report.failed()) /
                             static_cast<double>(report.attempted());
  const double write_amp = static_cast<double>(r.merge_postings_out) /
                           static_cast<double>(r.postings_ingested);
  const double windows_per_s =
      static_cast<double>(r.windows) / r.writer_busy_s;
  report.EndToEnd("setup_s", r.setup_s, "s", kSetupReps);
  report.EndToEnd("search_p50_us", r.query_us.Percentile(0.5), "us",
                  r.query_us.count());
  report.Layer("search_p99_us", r.query_us.WindowedPercentile(0.99), "us",
               r.query_us.count());
  report.EndToEnd("search_qps",
                  static_cast<double>(r.queries) / r.writer_wall_s, "1/s");
  report.Layer("ingest_p50_us", r.insert_us.Percentile(0.5), "us",
               r.insert_us.count());
  report.Layer("ingest_p99_us", r.insert_us.WindowedPercentile(0.99), "us",
               r.insert_us.count());
  report.EndToEnd("index_bytes_per_posting",
                  static_cast<double>(r.totals.memory_bytes) / postings, "B");
  report.Info("ingest_windows_per_s", windows_per_s);
  report.Info("recover_s", r.recover_s);
  report.Info("write_amp", write_amp);
  report.Info("failed_frac", failed_frac);
  report.Info("topk_mismatch_frac", mismatch_frac);
  report.Info("audit_queries", static_cast<double>(kAuditQueries));
  report.Info("audit_mismatches", static_cast<double>(r.mismatches));
  report.Info("audit_reopen_mismatches",
              static_cast<double>(r.reopen_mismatches));
  report.Info("windows", static_cast<double>(r.windows));
  report.Info("preload_windows", static_cast<double>(kPreloadWindows));
  report.Info("writer_wall_s", r.writer_wall_s);
  report.Info("postings", postings);
  report.Info("levels", static_cast<double>(r.totals.levels));
  report.Info("offered_query_rate", kQueryRate);
  report.Info("cohort", static_cast<double>(kCohort));
  report.Info("flush_every_windows", static_cast<double>(kFlushEvery));
  report.Info("checkpoint_every_windows",
              static_cast<double>(kCheckpointEvery));
  report.Layer("ingest_windows_per_s", windows_per_s, "1/s");
  report.Layer("recover_s", r.recover_s, "s");
  report.Layer("write_amp", write_amp, "ratio");
  report.Layer("audit.topk_mismatch_frac", mismatch_frac, "fraction");
  report.Layer("loadgen.failed_frac", failed_frac, "fraction");
  report.Layer("loadgen.late_p99_us", late_p99, "us", r.late_us.count());
  report.Layer("loadgen.achieved_rps",
               static_cast<double>(r.queries) / r.writer_wall_s, "1/s");
  if (!options.trace) return;

  // Traced pass: the same schedule in a fresh directory, with spans around
  // the shard and storage calls and the LSM counters sampled per insert.
  Tracer tracer;
  const LiveResult t = RunPass(options, dir + "/traced", &tracer, report);
  if (!t.ok) return;
  AddTraceOverhead(report, r.insert_us, t.insert_us);
  const Samples flush = tracer.DurationsMicros("storage.flush");
  const Samples checkpoint = tracer.DurationsMicros("storage.checkpoint");
  report.Layer("shard.insert_p50_us", t.insert_us.Percentile(0.5), "us",
               t.insert_us.count());
  report.Layer("shard.insert_p99_us", t.insert_us.Percentile(0.99), "us",
               t.insert_us.count());
  report.Layer("lsm.freezes", static_cast<double>(t.freezes), "count");
  report.Layer("lsm.merges", static_cast<double>(t.merges), "count");
  report.Layer("lsm.levels_end", static_cast<double>(t.totals.levels),
               "count");
  report.Layer("lsm.runs_end", static_cast<double>(t.totals.runs), "count");
  report.Layer("lsm.merge_busy_s", t.merge_busy_s, "s");
  report.Layer("lsm.stall_p50_ms", t.stall_ms.Percentile(0.5), "ms",
               t.stall_ms.count());
  report.Layer("index.arena_in_use_bytes",
               static_cast<double>(t.arena_in_use), "B");
  report.Layer("index.mem_general_bytes",
               static_cast<double>(t.mem_by_category[0]), "B");
  report.Layer("index.mem_skip_header_bytes",
               static_cast<double>(t.mem_by_category[1]), "B");
  report.Layer("index.mem_live_arena_bytes",
               static_cast<double>(t.mem_by_category[2]), "B");
  report.Layer("storage.flush_p50_us", flush.Percentile(0.5), "us",
               flush.count());
  report.Layer("storage.flush_p99_us", flush.Percentile(0.99), "us",
               flush.count());
  report.Layer("storage.checkpoint_p50_ms", checkpoint.Percentile(0.5) / 1e3,
               "ms", checkpoint.count());
  report.Layer("storage.journal_bytes_per_window",
               static_cast<double>(t.journal_bytes) /
                   static_cast<double>(t.windows),
               "B");
  report.Layer("storage.snapshot_bytes_per_posting",
               t.snapshot_postings == 0
                   ? 0.0
                   : static_cast<double>(t.snapshot_bytes) /
                         static_cast<double>(t.snapshot_postings),
               "B");
  report.Layer("storage.replay_ops",
               static_cast<double>(t.recovery.ops_replayed), "count");
  report.Layer("storage.replay_s", t.recovery.replay_seconds, "s");
  DumpSpans(tracer, options, report);
}

}  // namespace perfbench
