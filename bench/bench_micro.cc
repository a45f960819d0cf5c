// Google-benchmark micro suite: the hot primitives under the experiment
// harness — posting-list operations, Huffman coding, scoring, the query
// sink, the MFCC front-end, the ingest front-end, the index write path,
// and the random-access path used by query candidates.

#include <benchmark/benchmark.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "audio/mfcc.h"
#include "audio/synthesizer.h"
#include "common/rng.h"
#include "common/varint.h"
#include "common/zipf.h"
#include "core/rtsi_index.h"
#include "core/scorer.h"
#include "exec/sink.h"
#include "index/compressed_postings.h"
#include "index/huffman.h"
#include "index/term_postings.h"
#include "service/ingestion.h"
#include "text/term_dictionary.h"
#include "workload/corpus.h"

#include "bench_util.h"

namespace {

using namespace rtsi;

index::TermPostings MakePostings(int n, std::uint64_t seed) {
  Rng rng(seed);
  index::TermPostings postings;
  Timestamp t = 0;
  for (int i = 0; i < n; ++i) {
    t += 60'000'000;
    postings.Append(index::Posting{
        rng.NextUint64(100000), static_cast<float>(rng.NextUint64(5000)), t,
        1 + static_cast<TermFreq>(rng.NextUint64(8))});
  }
  return postings;
}

void BM_TermPostingsAppend(benchmark::State& state) {
  for (auto _ : state) {
    index::TermPostings postings;
    for (int i = 0; i < state.range(0); ++i) {
      postings.Append(index::Posting{static_cast<StreamId>(i), 1.0f,
                                     static_cast<Timestamp>(i), 1});
    }
    benchmark::DoNotOptimize(postings.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TermPostingsAppend)->Arg(1024)->Arg(16384);

void BM_TermPostingsSeal(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    index::TermPostings postings = MakePostings(state.range(0), 7);
    state.ResumeTiming();
    postings.Seal();
    benchmark::DoNotOptimize(postings.sealed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TermPostingsSeal)->Arg(1024)->Arg(16384);

// Candidate scoring's random-access probe. The second argument picks the
// probed ids: 1 = streams the list holds, 0 = streams it does not (a
// candidate that lacks one of the query terms).
void BM_AggregateForStream(benchmark::State& state) {
  index::TermPostings postings = MakePostings(state.range(0), 11);
  postings.Seal();
  const bool hit = state.range(1) != 0;
  std::vector<bool> held(100000, false);
  for (const index::Posting& p : postings.entries()) held[p.stream] = true;
  Rng rng(3);
  std::vector<StreamId> probes;
  while (probes.size() < 4096) {
    const StreamId stream = rng.NextUint64(100000);
    if (held[stream] == hit) probes.push_back(stream);
  }
  index::Posting out;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        postings.AggregateForStream(probes[i++ % probes.size()], out));
  }
}
BENCHMARK(BM_AggregateForStream)
    ->Args({1024, 1})
    ->Args({1024, 0})
    ->Args({65536, 1})
    ->Args({65536, 0});

// The query sink's offer path: a fixed sequence of 4096 random offers into
// a fresh TopKSink(k) per iteration. About a quarter of them re-offer a
// stream the sink retains at that point (with a fresh score, better or
// worse); the rest offer new streams. Reports time per offer.
void BM_TopKSinkOffer(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  constexpr int kOffers = 4096;
  Rng rng(13);
  std::vector<core::ScoredStream> offers;
  exec::TopKSink shadow(k);  // Tracks what the sink retains while drawing.
  while (offers.size() < kOffers) {
    core::ScoredStream offer{rng.NextUint64(1u << 20), rng.NextDouble()};
    const std::vector<core::ScoredStream> retained = shadow.SortedResults();
    if (!retained.empty() && rng.NextBool(0.25)) {
      offer.stream = retained[rng.NextUint64(retained.size())].stream;
    }
    shadow.Offer(offer.stream, offer.score);
    offers.push_back(offer);
  }
  for (auto _ : state) {
    exec::TopKSink sink(k);
    for (const core::ScoredStream& o : offers) sink.Offer(o.stream, o.score);
    benchmark::DoNotOptimize(sink.Threshold());
  }
  state.counters["per_offer"] = benchmark::Counter(
      kOffers, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_TopKSinkOffer)->Arg(10)->Arg(100);

void BM_HuffmanEncode(benchmark::State& state) {
  Rng rng(5);
  ZipfDistribution dist(64, 1.2);
  std::vector<std::uint8_t> input(state.range(0));
  for (auto& b : input) b = static_cast<std::uint8_t>(dist(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::HuffmanEncode(input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HuffmanEncode)->Arg(4096)->Arg(65536);

void BM_HuffmanDecode(benchmark::State& state) {
  Rng rng(6);
  ZipfDistribution dist(64, 1.2);
  std::vector<std::uint8_t> input(state.range(0));
  for (auto& b : input) b = static_cast<std::uint8_t>(dist(rng));
  const auto blob = index::HuffmanEncode(input);
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::HuffmanDecode(blob, out));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HuffmanDecode)->Arg(4096)->Arg(65536);

void BM_CompressedRoundTrip(benchmark::State& state) {
  const index::TermPostings postings = MakePostings(state.range(0), 13);
  for (auto _ : state) {
    const auto compressed =
        index::CompressedTermPostings::FromPostings(postings);
    benchmark::DoNotOptimize(compressed.Decode().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompressedRoundTrip)->Arg(1024)->Arg(8192);

void BM_Varint(benchmark::State& state) {
  Rng rng(8);
  std::vector<std::uint64_t> values(4096);
  for (auto& v : values) v = rng() >> rng.NextUint64(64);
  for (auto _ : state) {
    std::vector<std::uint8_t> buf;
    for (const auto v : values) PutVarint64(buf, v);
    std::size_t pos = 0;
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      GetVarint64(buf.data(), buf.size(), pos, out);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Varint);

void BM_ScoreComputation(benchmark::State& state) {
  const core::Scorer scorer(core::ScoreWeights{}, 6.0 * 3600.0);
  Rng rng(9);
  for (auto _ : state) {
    const double score = scorer.Combine(
        scorer.PopScore(rng.NextUint64(100000), 100000),
        scorer.RelScore(scorer.TermTfIdf(1 + rng.NextUint64(20), 2.5), 2),
        scorer.FrshScore(0, static_cast<Timestamp>(rng.NextUint64(1000000))));
    benchmark::DoNotOptimize(score);
  }
}
BENCHMARK(BM_ScoreComputation);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution dist(60000, 1.0);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_MfccExtract(benchmark::State& state) {
  audio::MfccExtractor extractor(audio::MfccConfig{});
  audio::SynthesizerConfig synth_config;
  audio::Synthesizer synth(synth_config);
  Rng rng(11);
  const audio::PcmBuffer pcm =
      synth.Render({{500.0, 1500.0, 0.2, 1.0, 0.6}}, rng);  // 1 second.
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(pcm).size());
  }
}
BENCHMARK(BM_MfccExtract);

// The ingest front-end alone: IngestionPipeline::ProcessWindow (error
// model, text tokenize/intern/count, kDirect lattice, unit
// intern/count) on 256 fixed 80-word windows of the default bench corpus,
// cycled. The dictionaries are warmed with one pass first, so the timed
// windows intern mostly known terms, as a long-running service does.
void BM_ProcessWindow(benchmark::State& state) {
  const workload::SyntheticCorpus corpus(bench::DefaultCorpusConfig(64));
  std::vector<std::vector<std::string>> windows;
  for (StreamId s = 0; windows.size() < 256; ++s) {
    for (int w = 0; w < corpus.NumWindows(s) && windows.size() < 256; ++w) {
      windows.push_back(corpus.WindowWords(s, w));
    }
  }
  text::TermDictionary text_dict;
  text::TermDictionary sound_dict;
  service::IngestionPipeline pipeline(service::IngestionConfig{}, &text_dict,
                                      &sound_dict);
  Rng rng(23);
  for (const auto& words : windows) pipeline.ProcessWindow(words, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const service::WindowArtifacts artifacts =
        pipeline.ProcessWindow(windows[i++ % windows.size()], rng);
    benchmark::DoNotOptimize(artifacts.text_terms.data());
    benchmark::DoNotOptimize(artifacts.sound_terms.data());
  }
}
BENCHMARK(BM_ProcessWindow);

// The index write path: RtsiIndex::InsertWindow for 4096 fixed seeded
// windows (512 streams, 8 windows each, 8 distinct terms of a 4000-term
// vocabulary per window; each stream finishes after its last window) into
// a fresh index per iteration. delta = 2048 postings, so a pass crosses
// about 16 freezes and their cascades; WaitForMerges is inside the timed
// region, construction and destruction are not. Items are windows.
void BM_InsertWindow(benchmark::State& state) {
  struct Window {
    StreamId stream;
    Timestamp t;
    std::vector<core::TermCount> terms;
    bool last;
  };
  constexpr StreamId kStreams = 512;
  constexpr int kWindowsPerStream = 8;
  std::vector<Window> windows;
  Rng rng(31);
  Timestamp t = 0;
  for (int w = 0; w < kWindowsPerStream; ++w) {
    for (StreamId s = 0; s < kStreams; ++s) {
      Window window{s, t += 1000, {}, w == kWindowsPerStream - 1};
      std::set<TermId> used;
      while (used.size() < 8) {
        const auto term = static_cast<TermId>(rng.NextUint64(4000));
        if (used.insert(term).second) {
          window.terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
        }
      }
      windows.push_back(std::move(window));
    }
  }
  core::RtsiConfig config;
  config.lsm.delta = 2048;
  for (auto _ : state) {
    state.PauseTiming();
    auto index = std::make_unique<core::RtsiIndex>(config);
    state.ResumeTiming();
    for (const Window& window : windows) {
      index->InsertWindow(window.stream, window.t, window.terms,
                          !window.last);
      if (window.last) index->FinishStream(window.stream);
    }
    index->WaitForMerges();
    state.PauseTiming();
    benchmark::DoNotOptimize(index->live_table().num_streams());
    index.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_InsertWindow)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
