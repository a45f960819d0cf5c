#include "shard/shard_set.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "exec/sink.h"
#include "storage/fs.h"

namespace rtsi::shard {

int ShardForStream(StreamId stream, int num_shards) {
  if (num_shards <= 1) return 0;
  // splitmix64 finalizer: full-avalanche, so consecutive stream ids land
  // on independent shards.
  std::uint64_t x = stream;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<int>(x % static_cast<std::uint64_t>(num_shards));
}

namespace {

std::string ShardDir(const std::string& root, int s) {
  return root + "/shard-" + std::to_string(s);
}

// True when a shard directory holds acknowledged data: a snapshot, or a
// journal (active, or rotated by a checkpoint that a crash interrupted).
bool HoldsShardData(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return false;
  bool found = false;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "index.snap" || name.rfind("index.journal", 0) == 0) {
      found = true;
      break;
    }
  }
  ::closedir(d);
  return found;
}

// <i> when `name` is a shard directory name shard-<i> (1 to 9 digits, so
// <i> fits an int), else -1.
int ShardIndexOf(const std::string& name) {
  if (name.size() <= 6 || name.size() > 15 || name.rfind("shard-", 0) != 0 ||
      name.find_first_not_of("0123456789", 6) != std::string::npos) {
    return -1;
  }
  return std::atoi(name.c_str() + 6);
}

// The shard directories under `root` as (<i>, path), in no particular
// order.
std::vector<std::pair<int, std::string>> ShardDirsOnDisk(
    const std::string& root) {
  std::vector<std::pair<int, std::string>> dirs;
  DIR* d = ::opendir(root.c_str());
  if (d == nullptr) return dirs;
  while (const dirent* entry = ::readdir(d)) {
    const int s = ShardIndexOf(entry->d_name);
    if (s >= 0) dirs.emplace_back(s, root + "/" + entry->d_name);
  }
  ::closedir(d);
  return dirs;
}

// The shard count of the layout under `root`: one past the highest
// shard-<i> directory. 0 while no shard holds data yet (a fresh root, or
// a first open that a crash cut short before any shard wrote).
int ShardsOnDisk(const std::string& root) {
  int count = 0;
  bool any_data = false;
  for (const auto& [s, dir] : ShardDirsOnDisk(root)) {
    count = std::max(count, s + 1);
    any_data = any_data || HoldsShardData(dir);
  }
  return any_data ? count : 0;
}

// Removes the shard directories with index >= n, files and all. Called
// only while no shard holds data, so they hold no acknowledged write.
Status RemoveShardDirsFrom(const std::string& root, int n) {
  for (const auto& [s, dir] : ShardDirsOnDisk(root)) {
    if (s < n) continue;
    const Status removed = storage::fs::RemoveDir(dir);
    if (!removed.ok()) return removed;
  }
  return Status::Ok();
}

}  // namespace

IndexShardSet::IndexShardSet(const ShardSetConfig& config)
    : config_(config) {
  const int n = std::max(1, config.num_shards);
  config_.num_shards = n;
  for (int s = 0; s < n; ++s) {
    plain_.push_back(std::make_unique<core::RtsiIndex>(config.index));
    shards_.push_back(plain_.back().get());
    raw_.push_back(plain_.back().get());
  }
}

IndexShardSet::IndexShardSet(
    const ShardSetConfig& config,
    std::vector<std::unique_ptr<core::RtsiIndex>> shards)
    : config_(config), plain_(std::move(shards)) {
  config_.num_shards = static_cast<int>(plain_.size());
  for (auto& index : plain_) {
    shards_.push_back(index.get());
    raw_.push_back(index.get());
  }
}

Result<std::unique_ptr<IndexShardSet>> IndexShardSet::Open(
    const ShardSetConfig& config,
    std::vector<storage::RecoveryStats>* recovery) {
  if (config.durable_dir.empty()) {
    return Status::InvalidArgument(
        "IndexShardSet::Open needs durable_dir (use the constructor for "
        "in-memory shards)");
  }
  const Status checked = config.index.lsm.Check();
  if (!checked.ok()) return checked;
  auto set = std::unique_ptr<IndexShardSet>(new IndexShardSet());
  set->config_ = config;
  const int n = std::max(1, config.num_shards);
  set->config_.num_shards = n;
  // Streams route by hash mod n: opening a set under another count would
  // hide the streams of the shards beyond n, or split each stream's
  // history across two shards.
  const int on_disk = ShardsOnDisk(config.durable_dir);
  if (on_disk > 0 && on_disk != n) {
    return Status::FailedPrecondition(
        config.durable_dir + " holds " + std::to_string(on_disk) +
        " shards; opening it with num_shards=" + std::to_string(n) +
        " would lose or misroute their streams");
  }
  ::mkdir(config.durable_dir.c_str(), 0755);
  // A first open under a larger count may have crashed after creating its
  // directories; left in place, they would later read as a layout of that
  // count. No shard holds data yet, so they go.
  if (on_disk == 0) {
    const Status removed = RemoveShardDirsFrom(config.durable_dir, n);
    if (!removed.ok()) return removed;
  }
  // Every shard directory exists (durably, and the removals with them:
  // one sync of the root covers both) before any shard writes, so a
  // crash inside this first open still leaves a layout of n shards.
  for (int s = 0; s < n; ++s) {
    ::mkdir(ShardDir(config.durable_dir, s).c_str(), 0755);
  }
  const Status synced =
      storage::fs::SyncParentDir(ShardDir(config.durable_dir, 0));
  if (!synced.ok()) return synced;
  if (recovery != nullptr) recovery->clear();
  for (int s = 0; s < n; ++s) {
    const std::string dir = ShardDir(config.durable_dir, s);
    storage::RecoveryStats stats;
    auto opened = storage::DurableIndex::Open(
        config.index, dir + "/index.snap", dir + "/index.journal",
        config.journal, &stats);
    if (!opened.ok()) {
      return Status::Internal("shard " + std::to_string(s) +
                              " failed to open: " +
                              opened.status().ToString());
    }
    if (recovery != nullptr) recovery->push_back(stats);
    set->durables_.push_back(std::move(opened.value()));
    set->shards_.push_back(set->durables_.back().get());
    set->raw_.push_back(&set->durables_.back()->index());
  }
  return set;
}

IndexShardSet::~IndexShardSet() { WaitForMerges(); }

void IndexShardSet::InsertWindow(StreamId stream, Timestamp now,
                                 const std::vector<core::TermCount>& terms,
                                 bool live) {
  shards_[ShardOf(stream)]->InsertWindow(stream, now, terms, live);
}

void IndexShardSet::FinishStream(StreamId stream) {
  shards_[ShardOf(stream)]->FinishStream(stream);
}

void IndexShardSet::DeleteStream(StreamId stream) {
  shards_[ShardOf(stream)]->DeleteStream(stream);
}

void IndexShardSet::UpdatePopularity(StreamId stream, std::uint64_t delta) {
  shards_[ShardOf(stream)]->UpdatePopularity(stream, delta);
}

std::vector<core::ScoredStream> IndexShardSet::Query(
    const std::vector<TermId>& terms, int k, Timestamp now,
    core::QueryStats* stats) {
  return QueryFiltered(terms, k, now, core::QueryFilter{}, stats);
}

exec::QueryPlan IndexShardSet::BuildPlan(const std::vector<TermId>& terms,
                                         int k, Timestamp now,
                                         const core::QueryFilter& filter) const {
  exec::QueryPlan plan = raw_[0]->BuildPlan(terms, k, now, filter);
  if (num_shards() == 1) return plan;
  // Each stream lives in one shard, so the sums are the counts a single
  // index over all the streams would hold.
  std::uint64_t documents = 0;
  for (const core::RtsiIndex* index : raw_) {
    documents += index->doc_freq().num_documents();
    plan.max_pop =
        std::max(plan.max_pop, index->stream_table().max_pop_count());
  }
  for (std::size_t i = 0; i < plan.terms.size(); ++i) {
    std::uint64_t df = 0;
    for (const core::RtsiIndex* index : raw_) {
      df += index->doc_freq().DocumentFrequency(plan.terms[i]);
    }
    plan.idfs[i] = core::DocumentFrequencyTable::Idf(documents, df);
  }
  return plan;
}

std::vector<core::ScoredStream> IndexShardSet::QueryFiltered(
    const std::vector<TermId>& terms, int k, Timestamp now,
    const core::QueryFilter& filter, core::QueryStats* stats) {
  const int n = num_shards();
  if (n == 1) return raw_[0]->QueryFiltered(terms, k, now, filter, stats);
  const exec::QueryPlan plan = BuildPlan(terms, k, now, filter);
  std::vector<std::vector<core::ScoredStream>> partials(n);
  std::vector<core::QueryStats> partial_stats(n);
  for (int s = 0; s < n; ++s) {
    exec::TopKSink sink(k);
    partials[s] = raw_[s]->ExecutePlan(plan, sink, &partial_stats[s]);
  }
  if (stats != nullptr) {
    core::QueryStats total;
    for (const core::QueryStats& ps : partial_stats) {
      exec::FoldStats(total, ps);
    }
    *stats = total;
  }
  // Gather through the pipeline's sink: each stream lives in exactly one
  // shard, so offering every per-shard top-k to one deterministic sink
  // yields exactly the top-k a single index over the union would return.
  return exec::GatherPartials(partials, k);
}

std::size_t IndexShardSet::MemoryBytes() const {
  std::size_t bytes = 0;
  for (core::SearchIndex* index : shards_) bytes += index->MemoryBytes();
  return bytes;
}

std::string IndexShardSet::name() const {
  return "RTSI[" + std::to_string(num_shards()) +
         (durable() ? " durable shards]" : " shards]");
}

core::RtsiIndex& IndexShardSet::shard_index(int s) { return *raw_[s]; }

const core::RtsiIndex& IndexShardSet::shard_index(int s) const {
  return *raw_[s];
}

storage::DurableIndex* IndexShardSet::durable_shard(int s) {
  return durables_.empty() ? nullptr : durables_[s].get();
}

Status IndexShardSet::Checkpoint() {
  Status first = Status::Ok();
  for (int s = 0; s < num_shards(); ++s) {
    const Status status = CheckpointShard(s);
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

Status IndexShardSet::CheckpointShard(int s) {
  if (durables_.empty()) {
    return Status::InvalidArgument("in-memory shard set: no checkpoints");
  }
  return durables_[s]->Checkpoint();
}

void IndexShardSet::WaitForMerges() {
  for (core::RtsiIndex* index : raw_) index->WaitForMerges();
}

IndexShardSet::ShardStats IndexShardSet::GetShardStats(int s) const {
  ShardStats stats;
  stats.shard = s;
  const core::RtsiIndex& index = *raw_[s];
  stats.view_epoch = index.tree().epoch();
  stats.runs_per_level = index.tree().RunsPerLevel();
  stats.postings = index.tree().total_postings();
  stats.streams = index.stream_table().size();
  stats.arena_bytes = index.LiveArenaStats().allocated_bytes;
  stats.memory_bytes = index.MemoryBytes();
  if (!durables_.empty()) stats.degraded = durables_[s]->degraded();
  return stats;
}

}  // namespace rtsi::shard
