#include "lsm/lsm_tree.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <unordered_set>

namespace rtsi::lsm {

using index::InvertedIndex;
using index::Posting;

namespace {

using Runs = std::vector<std::shared_ptr<const InvertedIndex>>;

std::size_t LevelPostings(const Runs& runs) {
  std::size_t total = 0;
  for (const auto& run : runs) total += run->num_postings();
  return total;
}

// Algorithm 1 over per-level run lists: picks the next cascade step's
// inputs and output level, or returns false once every level fits. A
// frozen run waiting at level 0 folds into level 1; otherwise the
// shallowest level over its delta * rho^l capacity overflows into the
// next one. Every run of both levels is an input, so in steady state (one
// run per level) a step is the classic two-way merge, and a shape
// restored mid-cascade (several runs on one level) heals into it.
// Stateless: the plan is a pure function of the run lists.
bool PlanCascadeStep(const std::vector<Runs>& levels, double delta,
                     double rho, Runs* inputs, int* out_level) {
  std::size_t from = levels.size();
  if (!levels.empty() && !levels[0].empty()) {
    from = 0;
  } else {
    double capacity = delta;
    for (std::size_t l = 1; l < levels.size(); ++l) {
      capacity *= rho;
      if (!levels[l].empty() &&
          static_cast<double>(LevelPostings(levels[l])) > capacity) {
        from = l;
        break;
      }
    }
  }
  if (from == levels.size()) return false;
  for (std::size_t l = from; l <= from + 1 && l < levels.size(); ++l) {
    inputs->insert(inputs->end(), levels[l].begin(), levels[l].end());
  }
  *out_level = static_cast<int>(from) + 1;
  return true;
}

}  // namespace

Status LsmTree::Config::Check() const {
  if (delta == 0 || !(rho > 1.0)) {
    return Status::InvalidArgument(
        "lsm config: need delta >= 1 and rho > 1, got delta " +
        std::to_string(delta) + " rho " + std::to_string(rho));
  }
  return Status::Ok();
}

LsmTree::LsmTree(const Config& config)
    : config_(config),
      view_gauge_(std::make_shared<std::atomic<std::int64_t>>(0)) {
  assert(config.Check().ok());
  l0_shards_.reserve(kL0Shards);
  for (std::size_t i = 0; i < kL0Shards; ++i) {
    auto shard = std::make_unique<L0Shard>();
    shard->arena = std::make_unique<WindowArena>(
        WindowArena::kDefaultSlabBytes, mem_tracker_);
    shard->index.set_arena(shard->arena.get());
    l0_shards_.push_back(std::move(shard));
  }
  // Publish the empty epoch-0 view so PinView() never returns null.
  auto gauge = view_gauge_;
  gauge->fetch_add(1, std::memory_order_relaxed);
  view_.Store(IndexViewPtr(new IndexView{}, [gauge](const IndexView* v) {
    gauge->fetch_sub(1, std::memory_order_relaxed);
    delete v;
  }));
}

void LsmTree::AddPosting(TermId term, const Posting& posting) {
  L0Shard& shard = *l0_shards_[term % l0_shards_.size()];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  shard.index.Add(term, posting);
  // Counter bump inside the lock: a freeze zeroes it under all shard
  // locks, so every bump lands on the same side as its posting.
  l0_postings_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::shared_ptr<const InvertedIndex>> LsmTree::SealedSnapshot()
    const {
  return PinView()->components;
}

void LsmTree::PublishLocked() {
  const IndexViewPtr old_view = view_.Load();
  auto next = std::make_unique<IndexView>();
  next->epoch = old_view->epoch + 1;
  for (const auto& level : levels_) {
    for (const auto& run : level) next->components.push_back(run);
  }
  for (const auto& component : pending_) {
    next->components.push_back(component);
  }
  // Record components that just left the view. Weak references only: the
  // registry observes the mirror-era lifetime without extending it.
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    for (const auto& component : old_view->components) {
      const bool still_visible =
          std::any_of(next->components.begin(), next->components.end(),
                      [&](const auto& c) { return c == component; });
      if (!still_visible) retired_.push_back(component);
    }
    // Opportunistically drop entries whose component has been freed.
    retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                  [](const auto& w) { return w.expired(); }),
                   retired_.end());
  }
  auto gauge = view_gauge_;
  gauge->fetch_add(1, std::memory_order_relaxed);
  view_.Store(IndexViewPtr(next.release(), [gauge](const IndexView* v) {
    gauge->fetch_sub(1, std::memory_order_relaxed);
    delete v;
  }));
}

void LsmTree::DetachRunLocked(
    const std::shared_ptr<const InvertedIndex>& run) {
  for (auto& level : levels_) {
    auto it = std::find(level.begin(), level.end(), run);
    if (it != level.end()) {
      level.erase(it);
      pending_.push_back(run);
      return;
    }
  }
}

void LsmTree::InstallRunLocked(std::shared_ptr<const InvertedIndex> run,
                               int level) {
  const auto slot = static_cast<std::size_t>(level < 0 ? 0 : level);
  if (levels_.size() <= slot) levels_.resize(slot + 1);
  levels_[slot].push_back(std::move(run));
}

void LsmTree::ErasePendingLocked(const InvertedIndex* component) {
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const auto& c) {
                                  return c.get() == component;
                                }),
                 pending_.end());
}

bool LsmTree::FreezeL0(const MergeHooks& hooks) {
  std::vector<StreamId> streams;
  {
    std::lock_guard<std::mutex> merge_lock(merge_mu_);
    if (!NeedsMerge() || !FreezeL0Locked(hooks, &streams)) return false;
  }
  // The frozen run is published and the L0 epoch has moved on. No L0
  // lock is held: the owner's settle pass takes per-stream locks that
  // its inserts hold while appending to L0.
  if (hooks.on_settled) {
    const std::vector<ComponentId> no_inputs;
    for (const StreamId stream : streams) hooks.on_settled(stream, no_inputs);
  }
  if (hooks.on_cascade_step) hooks.on_cascade_step();
  return true;
}

bool LsmTree::FreezeL0Locked(const MergeHooks& hooks,
                             std::vector<StreamId>* streams) {
  // Take every shard lock in a fixed order, then drain.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(l0_shards_.size());
  for (auto& shard : l0_shards_) {
    locks.emplace_back(shard->mu);
  }
  auto frozen = std::make_shared<InvertedIndex>(0);
  for (auto& shard : l0_shards_) {
    for (auto& [term, postings] : shard->index.TakeTerms()) {
      frozen->Put(term, std::move(postings));
    }
  }
  if (frozen->empty()) {
    // Nothing to freeze: the l0_postings_ counter drifted above delta with
    // no actual postings behind it. Reset the epoch state and publish
    // NOTHING — the historical path pushed the empty component into the
    // view and re-published to erase it, so readers pinning the
    // intermediate epoch saw a permanently empty component and the epoch
    // advanced twice for a no-op.
    l0_postings_.store(0, std::memory_order_relaxed);
    return false;
  }
  // Seal: a stream that emitted several windows of one term inside this
  // epoch folds to one aggregated posting, so the frozen component
  // satisfies the same one-posting-per-stream invariant as merge outputs
  // — the pruning bounds (Bounds(), Threshold()) are only sound under it.
  frozen->SealAll();
  // Rotate the ingest arenas while the shard locks are still held: the
  // seal migrated every frozen posting vector to the heap, but the
  // retired arenas are quarantined on the frozen component anyway — they
  // die with it, after the last pinned view drops, so no code path
  // (present or future) can ever observe freed slabs. Fresh arenas take
  // over the next window's ingest.
  for (auto& shard : l0_shards_) {
    {
      // Fold the retiring arena's counters into the rotation accumulator
      // so ArenaStats() stays monotone across freezes (benches compute
      // per-insert deltas from it). Gauges are excluded: allocated_bytes
      // is zero after the seal migration above, and owned_bytes
      // belongs to the quarantined arena until it dies with the
      // component — ArenaStats() gauges track the *current* arenas only.
      WindowArena::Stats retiring = shard->arena->GetStats();
      retiring.owned_bytes = 0;
      retiring.allocated_bytes = 0;
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      rotated_arena_stats_ += retiring;
    }
    frozen->RetainArena(std::move(shard->arena));
    shard->arena = std::make_unique<WindowArena>(
        WindowArena::kDefaultSlabBytes, mem_tracker_);
    shard->index.set_arena(shard->arena.get());
  }
  frozen->AdoptCeiling(AllocateComponentId(),
                       std::make_shared<index::FreshnessCeiling>());
  frozen->BuildSkipHeader();
  frozen->AttachSkipHeaderGauge(mem_tracker_);
  // Report every distinct stream of the frozen postings before the run
  // is query-visible, so the owner's residency registration is exact
  // whatever racing freezes did; the held L0 shard locks keep any insert
  // from slipping a window between registration and visibility.
  if (hooks.on_stream || hooks.on_settled) {
    std::unordered_set<StreamId> seen;
    frozen->ForEachTerm([&](TermId, const index::TermPostings& postings) {
      for (const Posting& p : postings.entries()) {
        if (seen.insert(p.stream).second) streams->push_back(p.stream);
      }
    });
    if (hooks.on_stream) {
      for (const StreamId stream : *streams) hooks.on_stream(stream, *frozen);
    }
  }
  l0_postings_.store(0, std::memory_order_relaxed);
  {
    // Publish the frozen component before the shard locks drop, so no
    // posting is ever outside both L0 and the view. It enters the level-0
    // run list: an unmerged frozen run is a first-class level resident,
    // so a snapshot cut here restores cleanly.
    std::lock_guard<std::mutex> lock(components_mu_);
    InstallRunLocked(std::move(frozen), 0);
    PublishLocked();
  }
  // A new epoch, after the publish: whoever reads it has the drained
  // postings' run in the published view.
  l0_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

void LsmTree::MergeCascade(const MergeHooks& hooks) {
  if (FreezeL0(hooks)) RunCascade(hooks);
}

void LsmTree::RunCascade(const MergeHooks& hooks) {
  std::lock_guard<std::mutex> merge_lock(merge_mu_);
  MergeStats stats;
  // Scratch arena for the cascade's transient allocation churn
  // (consolidation maps, ordering buffers, unsealed outputs); free lists
  // recycle across the cascade's merges. Sealed outputs never reference
  // it (Seal() migrates to exact-size heap buffers), so it dies here. No
  // tracker: the kLiveArena gauge reports live-data arenas only.
  WindowArena scratch;
  while (true) {
    Runs inputs;
    int out_level = 1;
    {
      // Plan against the current run lists, then detach the chosen
      // inputs into pending_. The visible set is unchanged (run-list
      // entry -> pending), so no publish: the current view keeps serving
      // the inputs until the swap below.
      std::lock_guard<std::mutex> lock(components_mu_);
      if (!PlanCascadeStep(levels_, static_cast<double>(config_.delta),
                           config_.rho, &inputs, &out_level)) {
        break;
      }
      for (const auto& input : inputs) DetachRunLocked(input);
    }

    std::vector<const InvertedIndex*> raw_inputs;
    raw_inputs.reserve(inputs.size());
    for (const auto& input : inputs) raw_inputs.push_back(input.get());
    std::vector<StreamId> surviving;
    const std::shared_ptr<InvertedIndex> merged = CombineComponents(
        raw_inputs, out_level, config_.compress, hooks, &stats,
        AllocateComponentId(), std::make_shared<index::FreshnessCeiling>(),
        hooks.on_settled ? &surviving : nullptr, &scratch);
    merged->AttachSkipHeaderGauge(mem_tracker_);

    {
      // One swap: inputs out, output in. Readers see either the old view
      // (inputs alive via their pin) or the new one, never a partial set.
      // A fully-purged (empty) output is simply dropped rather than
      // installed, so no view ever carries a permanently empty component.
      std::lock_guard<std::mutex> lock(components_mu_);
      for (const auto& input : inputs) ErasePendingLocked(input.get());
      if (!merged->empty()) InstallRunLocked(merged, out_level);
      PublishLocked();
    }
    // The inputs just left the published view: the owner retires their
    // residencies (only now, which keeps queries pinned to the old view
    // sound) and re-decides each stream's placement.
    if (hooks.on_settled) {
      std::vector<ComponentId> from;
      from.reserve(inputs.size());
      for (const auto& input : inputs) {
        from.push_back(input->component_id());
      }
      for (const StreamId stream : surviving) {
        hooks.on_settled(stream, from);
      }
    }
    if (hooks.on_cascade_step) hooks.on_cascade_step();
  }

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  merge_stats_ += stats;
}

Status LsmTree::RestoreSealedComponent(
    std::shared_ptr<index::InvertedIndex> component) {
  if (component == nullptr || component->level() < 0) {
    return Status::InvalidArgument("restored component must have level >= 0");
  }
  if (component->component_id() == kInvalidComponentId) {
    component->AdoptCeiling(AllocateComponentId(),
                            std::make_shared<index::FreshnessCeiling>());
  }
  // Pre-v4 snapshots carry no header; rebuild deterministically (the
  // result is byte-identical to what a v4 file would have persisted).
  if (component->skip_header() == nullptr) component->BuildSkipHeader();
  component->AttachSkipHeaderGauge(mem_tracker_);
  const int level = component->level();
  std::lock_guard<std::mutex> lock(components_mu_);
  InstallRunLocked(std::move(component), level);
  PublishLocked();
  return Status::Ok();
}

std::size_t LsmTree::total_postings() const {
  std::size_t total = l0_postings();
  std::lock_guard<std::mutex> lock(components_mu_);
  for (const auto& level : levels_) {
    for (const auto& run : level) total += run->num_postings();
  }
  for (const auto& component : pending_) total += component->num_postings();
  return total;
}

std::size_t LsmTree::num_levels() const {
  std::lock_guard<std::mutex> lock(components_mu_);
  std::size_t count = 0;
  for (const auto& level : levels_) {
    if (!level.empty()) ++count;
  }
  return count;
}

std::size_t LsmTree::num_runs() const {
  std::lock_guard<std::mutex> lock(components_mu_);
  std::size_t count = 0;
  for (const auto& level : levels_) count += level.size();
  return count;
}

std::vector<std::size_t> LsmTree::RunsPerLevel() const {
  std::lock_guard<std::mutex> lock(components_mu_);
  std::vector<std::size_t> runs;
  runs.reserve(levels_.size());
  for (const auto& level : levels_) runs.push_back(level.size());
  while (!runs.empty() && runs.back() == 0) runs.pop_back();
  return runs;
}

std::size_t LsmTree::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& shard : l0_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    bytes += shard->index.MemoryBytes();
  }
  // The published view is the query-visible set (level residents plus any
  // in-flight merge's inputs/outputs); retired-but-pinned bytes are
  // reported separately via RetiredBytes().
  for (const auto& component : PinView()->components) {
    bytes += component->MemoryBytes();
  }
  return bytes;
}

std::size_t LsmTree::retired_components() const {
  std::lock_guard<std::mutex> lock(retired_mu_);
  std::size_t alive = 0;
  for (const auto& weak : retired_) {
    if (!weak.expired()) ++alive;
  }
  return alive;
}

std::size_t LsmTree::RetiredBytes() const {
  std::lock_guard<std::mutex> lock(retired_mu_);
  std::size_t bytes = 0;
  for (const auto& weak : retired_) {
    if (const auto component = weak.lock()) bytes += component->MemoryBytes();
  }
  return bytes;
}

WindowArena::Stats LsmTree::ArenaStats() const {
  WindowArena::Stats total;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    total += rotated_arena_stats_;  // Counters of every retired arena.
  }
  for (const auto& shard : l0_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    total += shard->arena->GetStats();
  }
  return total;
}

MergeStats LsmTree::GetMergeStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return merge_stats_;
}

}  // namespace rtsi::lsm
