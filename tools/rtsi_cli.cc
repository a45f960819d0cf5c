// rtsi_cli — operational command line for the RTSI index.
//
//   rtsi_cli record <#init-streams> <#ops> <query%> <out.trace>
//       Generate a reproducible synthetic workload trace.
//   rtsi_cli replay <trace> [rtsi|lsii]
//       Replay a trace against an index and report latency statistics.
//   rtsi_cli build <trace> <out.snap>
//       Replay a trace into an RTSI index and save a snapshot.
//   rtsi_cli stats <snapshot|shard-set-dir>
//       Print the statistics of a saved index, or — pointed at a shard
//       set's durable root — recover every shard and print per-shard
//       view epochs, run shapes, arenas and recovery stats.
//   rtsi_cli query <snapshot> <k> <term> [term...]
//       Load a snapshot and run one query (terms are numeric ids).
//   rtsi_cli explain <snapshot> <k> <term> [term...]
//       Like query, but prints the full ranking explanation (candidate
//       sources, component bounds, prune decisions, score breakdowns).
//   rtsi_cli synth <out.wav> <word> [word...]
//       Synthesize a spoken phrase to a WAV file.
//   rtsi_cli inspect-journal <journal>
//       Validate a journal's record CRCs; report epoch, record counts,
//       torn tails and the first corrupt offset (exit 1 on corruption).

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asr/lexicon.h"
#include "shard/shard_set.h"
#include "audio/synthesizer.h"
#include "audio/wav.h"
#include "baseline/lsii_index.h"
#include "common/rng.h"
#include "core/rtsi_index.h"
#include "storage/journal.h"
#include "storage/snapshot.h"
#include "workload/corpus.h"
#include "workload/query_gen.h"
#include "workload/trace.h"

namespace {

using namespace rtsi;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  rtsi_cli record <#init-streams> <#ops> <query%%> "
               "<out.trace>\n"
               "  rtsi_cli replay <trace> [rtsi|lsii]\n"
               "  rtsi_cli build <trace> <out.snap>\n"
               "  rtsi_cli stats <snapshot|shard-set-dir>\n"
               "  rtsi_cli query <snapshot> <k> <term> [term...]\n"
               "  rtsi_cli explain <snapshot> <k> <term> [term...]\n"
               "  rtsi_cli synth <out.wav> <word> [word...]\n"
               "  rtsi_cli inspect-journal <journal>\n");
  return 2;
}

core::RtsiConfig DefaultConfig() {
  core::RtsiConfig config;
  config.lsm.delta = 64 * 1024;
  return config;
}

int CmdRecord(int argc, char** argv) {
  if (argc != 4) return Usage();
  const std::size_t init_streams = std::strtoul(argv[0], nullptr, 10);
  const std::size_t ops = std::strtoul(argv[1], nullptr, 10);
  const int query_percent = std::atoi(argv[2]);

  workload::CorpusConfig corpus_config;
  corpus_config.num_streams = init_streams + ops;  // Upper bound.
  const workload::SyntheticCorpus corpus(corpus_config);
  workload::QueryGenConfig query_config;
  query_config.vocab_size = corpus_config.vocab_size;
  workload::QueryGenerator gen(query_config);

  const workload::Trace trace = workload::RecordMixedTrace(
      corpus, gen, init_streams, ops, query_percent, 10);
  const Status status = trace.SaveToFile(argv[3]);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("recorded %zu ops to %s\n", trace.size(), argv[3]);
  return 0;
}

int CmdReplay(int argc, char** argv) {
  if (argc < 1 || argc > 2) return Usage();
  auto trace_result = workload::Trace::LoadFromFile(argv[0]);
  if (!trace_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 trace_result.status().ToString().c_str());
    return 1;
  }
  const bool use_lsii = argc == 2 && std::strcmp(argv[1], "lsii") == 0;

  std::unique_ptr<core::SearchIndex> index;
  if (use_lsii) {
    index = std::make_unique<baseline::LsiiIndex>(DefaultConfig());
  } else {
    index = std::make_unique<core::RtsiIndex>(DefaultConfig());
  }
  const workload::ReplayResult result =
      workload::ReplayTrace(trace_result.value(), *index);
  index->WaitForMerges();
  std::printf("%s replay of %s:\n", index->name().c_str(), argv[0]);
  std::printf("  insertions: %s\n", result.insertions.Summary().c_str());
  std::printf("  queries:    %s\n", result.queries.Summary().c_str());
  std::printf("  updates:    %s\n", result.updates.Summary().c_str());
  std::printf("  finishes:   %zu, deletions: %zu\n", result.finishes,
              result.deletions);
  std::printf("  index memory: %.2f MB\n",
              index->MemoryBytes() / (1024.0 * 1024.0));
  return 0;
}

int CmdBuild(int argc, char** argv) {
  if (argc != 2) return Usage();
  auto trace_result = workload::Trace::LoadFromFile(argv[0]);
  if (!trace_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 trace_result.status().ToString().c_str());
    return 1;
  }
  core::RtsiIndex index(DefaultConfig());
  workload::ReplayTrace(trace_result.value(), index);
  index.WaitForMerges();
  const Status status = storage::SaveIndexSnapshot(index, argv[1]);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("built index (%zu postings) and saved snapshot to %s\n",
              index.tree().total_postings(), argv[1]);
  return 0;
}

/// `rtsi_cli stats` pointed at a shard-set root (the durable_dir of a
/// shard::IndexShardSet, holding shard-0/, shard-1/, ...): recover every
/// shard and print the per-shard view epochs, run shapes and arenas.
int CmdShardStats(const char* dir) {
  int num_shards = 0;
  while (true) {
    struct stat st{};
    const std::string shard_dir =
        std::string(dir) + "/shard-" + std::to_string(num_shards);
    if (::stat(shard_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) break;
    ++num_shards;
  }
  if (num_shards == 0) {
    std::fprintf(stderr, "error: %s has no shard-0/ directory\n", dir);
    return 1;
  }
  shard::ShardSetConfig config;
  config.index = DefaultConfig();
  config.num_shards = num_shards;
  config.durable_dir = dir;
  std::vector<storage::RecoveryStats> recovery;
  auto opened = shard::IndexShardSet::Open(config, &recovery);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const shard::IndexShardSet& set = *opened.value();
  std::printf("shard set %s: %d shards\n", dir, num_shards);
  std::size_t total_postings = 0, total_streams = 0, total_memory = 0;
  for (int s = 0; s < num_shards; ++s) {
    const auto stats = set.GetShardStats(s);
    std::string shape;
    for (std::size_t level = 0; level < stats.runs_per_level.size();
         ++level) {
      if (!shape.empty()) shape += ", ";
      shape +=
          "L" + std::to_string(level) + "=" +
          std::to_string(stats.runs_per_level[level]);
    }
    std::printf(
        "  shard %d: epoch %llu, %zu postings, %zu streams, "
        "arena %zu B, %.2f MB%s%s%s%s\n",
        s, static_cast<unsigned long long>(stats.view_epoch), stats.postings,
        stats.streams, stats.arena_bytes,
        stats.memory_bytes / (1024.0 * 1024.0), shape.empty() ? "" : " (",
        shape.c_str(), shape.empty() ? "" : ")",
        stats.degraded ? " DEGRADED" : "");
    std::printf(
        "           recovery: %llu ops replayed, %s snapshot\n",
        static_cast<unsigned long long>(recovery[s].ops_replayed),
        recovery[s].snapshot_loaded ? "from" : "no");
    total_postings += stats.postings;
    total_streams += stats.streams;
    total_memory += stats.memory_bytes;
  }
  std::printf("  total: %zu postings, %zu streams, %.2f MB\n", total_postings,
              total_streams, total_memory / (1024.0 * 1024.0));
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc != 1) return Usage();
  {
    struct stat st{};
    if (::stat(argv[0], &st) == 0 && S_ISDIR(st.st_mode)) {
      return CmdShardStats(argv[0]);
    }
  }
  auto loaded = storage::LoadIndexSnapshot(argv[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const core::RtsiIndex& index = *loaded.value();
  std::printf("snapshot %s:\n", argv[0]);
  std::printf("  postings:     %zu (L0: %zu, levels: %zu)\n",
              index.tree().total_postings(), index.tree().l0_postings(),
              index.tree().num_levels());
  // Compaction shape: how many sealed runs each level currently holds
  // (a level-0 entry, or several runs on one level, is a snapshot cut
  // mid-cascade).
  {
    const auto runs = index.tree().RunsPerLevel();
    std::string shape;
    for (std::size_t level = 0; level < runs.size(); ++level) {
      if (!shape.empty()) shape += ", ";
      shape += "L" + std::to_string(level) + "=" +
               std::to_string(runs[level]);
    }
    std::printf("  compaction:   %zu runs%s%s%s\n",
                index.tree().num_runs(), shape.empty() ? "" : " (",
                shape.c_str(), shape.empty() ? "" : ")");
  }
  // Published-view observability: the epoch counts structural changes
  // since birth; components are grouped by level slot; pinned views and
  // retired bytes expose what the refcount-as-mirror scheme holds alive.
  {
    const lsm::IndexViewPtr view = index.tree().PinView();
    std::map<int, std::size_t> per_level;
    for (const auto& component : view->components) {
      ++per_level[component->level()];
    }
    std::string levels;
    for (const auto& [level, count] : per_level) {
      if (!levels.empty()) levels += ", ";
      levels += "L" + std::to_string(level) + ":" + std::to_string(count);
    }
    std::printf("  view:         epoch %llu, %zu sealed components%s%s%s\n",
                static_cast<unsigned long long>(view->epoch),
                view->components.size(), levels.empty() ? "" : " (",
                levels.c_str(), levels.empty() ? "" : ")");
    std::printf("  live views:   %lld (1 = published only; more while "
                "readers pin older epochs)\n",
                static_cast<long long>(index.tree().live_views()));
    std::printf("  retired:      %zu components, %.2f MB held for pins\n",
                index.tree().retired_components(),
                index.tree().RetiredBytes() / (1024.0 * 1024.0));
    // Skip headers: per-level Bloom + summary footprint (from the pinned
    // view), the tracker's category gauge, and the lifetime planner
    // counters (zero on a freshly loaded snapshot until queries run).
    std::map<int, std::size_t> header_bytes;
    for (const auto& component : view->components) {
      if (component->skip_header() != nullptr) {
        header_bytes[component->level()] +=
            component->skip_header()->MemoryBytes();
      }
    }
    std::string per_level_bytes;
    for (const auto& [level, bytes] : header_bytes) {
      if (!per_level_bytes.empty()) per_level_bytes += ", ";
      per_level_bytes +=
          "L" + std::to_string(level) + ":" + std::to_string(bytes) + "B";
    }
    std::printf("  skip headers: %zu B tracked (%s)\n",
                index.tree().memory_tracker()->bytes(
                    MemCategory::kSkipHeader),
                per_level_bytes.empty() ? "none" : per_level_bytes.c_str());
    const core::RtsiIndex::SkipCounters skip = index.GetSkipCounters();
    std::printf("  skip planner: %llu visited, %llu pruned, %llu skipped, "
                "%llu bloom FPs, %llu screened\n",
                static_cast<unsigned long long>(skip.components_visited),
                static_cast<unsigned long long>(skip.components_pruned),
                static_cast<unsigned long long>(skip.components_skipped),
                static_cast<unsigned long long>(skip.bloom_false_positives),
                static_cast<unsigned long long>(skip.candidates_screened));
  }
  std::printf("  streams:      %zu\n", index.stream_table().size());
  std::printf("  live table:   %zu streams, %zu entries\n",
              index.live_table().num_streams(),
              index.live_table().num_entries());
  // Live ingest arenas: the tracker gauge counts slab bytes of the L0
  // shard arenas, the live-term table arenas, and any retired arenas
  // still quarantined on frozen components.
  {
    const WindowArena::Stats arena = index.LiveArenaStats();
    std::printf("  live arena:   %zu B tracked (%zu B owned, %zu B in use, "
                "%llu requests, %llu upstream, %llu freelist hits)\n",
                index.tree().memory_tracker()->bytes(MemCategory::kLiveArena),
                arena.owned_bytes, arena.allocated_bytes,
                static_cast<unsigned long long>(arena.requests),
                static_cast<unsigned long long>(arena.upstream_allocations),
                static_cast<unsigned long long>(arena.freelist_hits));
  }
  std::printf("  documents:    %llu\n",
              static_cast<unsigned long long>(
                  index.doc_freq().num_documents()));
  std::printf("  memory:       %.2f MB\n",
              index.MemoryBytes() / (1024.0 * 1024.0));
  std::printf("  config:       delta=%zu rho=%.1f huffman=%s\n",
              index.config().lsm.delta, index.config().lsm.rho,
              index.config().lsm.compress ? "on" : "off");
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto loaded = storage::LoadIndexSnapshot(argv[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const int k = std::atoi(argv[1]);
  std::vector<TermId> terms;
  for (int i = 2; i < argc; ++i) {
    terms.push_back(static_cast<TermId>(std::strtoul(argv[i], nullptr, 10)));
  }
  core::QueryStats stats;
  const auto results =
      loaded.value()->Query(terms, k, 1'000'000'000'000LL, &stats);
  for (const auto& r : results) {
    std::printf("stream %llu  score %.6f\n",
                static_cast<unsigned long long>(r.stream), r.score);
  }
  std::printf("(%zu candidates scored, %zu postings scanned%s)\n",
              stats.candidates_scored, stats.postings_scanned,
              stats.terminated_early ? ", early termination" : "");
  return 0;
}

int CmdExplain(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto loaded = storage::LoadIndexSnapshot(argv[0]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const int k = std::atoi(argv[1]);
  std::vector<TermId> terms;
  for (int i = 2; i < argc; ++i) {
    terms.push_back(static_cast<TermId>(std::strtoul(argv[i], nullptr, 10)));
  }
  const auto explanation =
      loaded.value()->ExplainQuery(terms, k, 1'000'000'000'000LL);
  std::fputs(explanation.ToString().c_str(), stdout);
  return 0;
}

int CmdSynth(int argc, char** argv) {
  if (argc < 2) return Usage();
  asr::Lexicon lexicon;
  std::vector<asr::PhonemeId> phones;
  for (int i = 1; i < argc; ++i) lexicon.Pronounce(argv[i], phones);
  std::vector<audio::PhoneSpec> specs;
  for (const asr::PhonemeId phone : phones) {
    specs.push_back(asr::PhonemeSpec(phone));
  }
  audio::SynthesizerConfig synth_config;
  const audio::Synthesizer synth(synth_config);
  Rng rng(1);
  const audio::PcmBuffer pcm = synth.Render(specs, rng);
  const Status status = audio::WriteWav(pcm, argv[0]);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %.2fs of speech to %s\n", pcm.duration_seconds(),
              argv[0]);
  return 0;
}

int CmdInspectJournal(int argc, char** argv) {
  if (argc != 1) return Usage();
  const storage::JournalInspection result = storage::InspectJournal(argv[0]);
  if (!result.readable) {
    std::fprintf(stderr, "error: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("journal %s:\n", argv[0]);
  if (result.has_epoch_header) {
    std::printf("  epoch:        %llu\n",
                static_cast<unsigned long long>(result.epoch));
  } else {
    std::printf("  epoch:        (legacy journal, no epoch header)\n");
  }
  std::printf("  records:      %llu (%llu checksummed)\n",
              static_cast<unsigned long long>(result.records),
              static_cast<unsigned long long>(result.checksummed_records));
  if (result.torn_tail) {
    std::printf("  torn tail:    byte offset %llu (%s) — replay drops it\n",
                static_cast<unsigned long long>(result.torn_tail_offset),
                result.torn_tail_reason.c_str());
  }
  if (result.corrupt) {
    std::printf("  CORRUPT:      first corrupt record at byte offset %llu\n",
                static_cast<unsigned long long>(result.first_corrupt_offset));
    std::printf("  detail:       %s\n", result.error.c_str());
    return 1;
  }
  std::printf("  integrity:    ok%s\n",
              result.torn_tail ? " (modulo torn tail)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "record") return CmdRecord(argc - 2, argv + 2);
  if (command == "replay") return CmdReplay(argc - 2, argv + 2);
  if (command == "build") return CmdBuild(argc - 2, argv + 2);
  if (command == "stats") return CmdStats(argc - 2, argv + 2);
  if (command == "query") return CmdQuery(argc - 2, argv + 2);
  if (command == "explain") return CmdExplain(argc - 2, argv + 2);
  if (command == "synth") return CmdSynth(argc - 2, argv + 2);
  if (command == "inspect-journal") {
    return CmdInspectJournal(argc - 2, argv + 2);
  }
  return Usage();
}
