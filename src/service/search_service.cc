#include "service/search_service.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <thread>
#include <unordered_map>
#include <utility>

#include "asr/phoneme.h"
#include "audio/synthesizer.h"

namespace rtsi::service {
namespace {

shard::ShardSetConfig ShardConfig(const SearchServiceConfig& config) {
  shard::ShardSetConfig shard_config;
  shard_config.index = config.index;
  shard_config.num_shards = std::max(1, config.shards);
  return shard_config;
}

}  // namespace

/// The ingest helper thread (DESIGN.md §6). It runs one window's text half
/// at a time — InternText, CountTerms, then the text InsertWindow — while
/// the caller that started it runs the sound half. Idle, it blocks on a
/// condition variable.
class SearchService::TextHelper {
 public:
  enum class Stage { kIdle, kPosted, kInterned, kDone };

  explicit TextHelper(const IngestionPipeline& pipeline)
      : pipeline_(pipeline), thread_([this] { Run(); }) {}

  ~TextHelper() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_helper_.notify_one();
    thread_.join();
  }

  TextHelper(const TextHelper&) = delete;
  TextHelper& operator=(const TextHelper&) = delete;

  /// One caller's use of the helper for one window. A started window is
  /// finished on every exit: the helper reads the caller's transcript.
  class Window {
   public:
    explicit Window(TextHelper& helper) : helper_(helper) {}
    ~Window() {
      // Only reached started when the caller is already unwinding; the
      // exception in flight wins over one from the text half.
      if (started_) helper_.Finish();
    }

    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;

    /// Hands the text half to the helper; false when another caller's
    /// window holds it. `transcript` and `text` must outlive Finish().
    bool TryStart(const std::vector<std::string>& transcript,
                  shard::IndexShardSet& text, StreamId stream,
                  Timestamp now, bool live) {
      started_ = helper_.TryStart({&transcript, &text, stream, now, live});
      return started_;
    }
    bool started() const { return started_; }

    /// Blocks until a started text half has interned its terms.
    void AwaitInterned() {
      if (started_) helper_.Await(Stage::kInterned);
    }

    /// Blocks until a started text half has inserted its window, frees
    /// the helper and rethrows what the text half threw.
    void Finish() {
      if (!started_) return;
      started_ = false;
      if (const std::exception_ptr error = helper_.Finish()) {
        std::rethrow_exception(error);
      }
    }

   private:
    TextHelper& helper_;
    bool started_ = false;
  };

 private:
  struct Job {
    const std::vector<std::string>* transcript = nullptr;
    shard::IndexShardSet* text = nullptr;
    StreamId stream = 0;
    Timestamp now = 0;
    bool live = true;
  };

  bool TryStart(const Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stage_ != Stage::kIdle) return false;
      job_ = job;
      stage_ = Stage::kPosted;
    }
    wake_helper_.notify_one();
    return true;
  }

  void Await(Stage stage) {
    std::unique_lock<std::mutex> lock(mu_);
    wake_caller_.wait(lock, [&] { return stage_ >= stage; });
  }

  std::exception_ptr Finish() {
    std::unique_lock<std::mutex> lock(mu_);
    wake_caller_.wait(lock, [&] { return stage_ == Stage::kDone; });
    stage_ = Stage::kIdle;
    return std::exchange(error_, nullptr);
  }

  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_helper_.wait(lock,
                        [this] { return stop_ || stage_ == Stage::kPosted; });
      if (stop_) return;
      const Job job = job_;
      lock.unlock();
      std::exception_ptr error;
      try {
        std::vector<TermId> ids = pipeline_.InternText(*job.transcript);
        {
          std::lock_guard<std::mutex> stage_lock(mu_);
          stage_ = Stage::kInterned;
        }
        wake_caller_.notify_one();
        job.text->InsertWindow(job.stream, job.now,
                               CountTerms(std::move(ids)), job.live);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      error_ = error;
      stage_ = Stage::kDone;
      wake_caller_.notify_one();
    }
  }

  const IngestionPipeline& pipeline_;
  std::mutex mu_;  // Guards every member below it except thread_.
  std::condition_variable wake_helper_;
  std::condition_variable wake_caller_;
  Stage stage_ = Stage::kIdle;
  Job job_;
  std::exception_ptr error_;
  bool stop_ = false;
  std::thread thread_;  // Last: Run() uses every member above.
};

SearchService::SearchService(const SearchServiceConfig& config, Clock* clock)
    : config_(config), clock_(clock), rng_(config.seed) {
  pipeline_ = std::make_unique<IngestionPipeline>(config.ingestion,
                                                  &text_dict_, &sound_dict_);
  query_processor_ = std::make_unique<QueryProcessor>(
      pipeline_.get(), &text_dict_, &sound_dict_,
      config.ingestion.lattice_ngram,
      config.ingestion.lattice_alt_threshold, config.ingestion.stem_text);
  auto initial = std::make_shared<IndexPair>();
  initial->text = std::make_shared<shard::IndexShardSet>(ShardConfig(config));
  initial->sound = std::make_shared<shard::IndexShardSet>(ShardConfig(config));
  indices_.Store(std::move(initial));
  text_helper_ = std::make_unique<TextHelper>(*pipeline_);
}

SearchService::~SearchService() = default;

void SearchService::ReplaceIndices(std::unique_ptr<core::RtsiIndex> text,
                                   std::unique_ptr<core::RtsiIndex> sound) {
  // Adopt each restored index as a single-shard set.
  auto wrap = [this](std::unique_ptr<core::RtsiIndex> index) {
    shard::ShardSetConfig shard_config = ShardConfig(config_);
    shard_config.num_shards = 1;
    std::vector<std::unique_ptr<core::RtsiIndex>> shards;
    shards.push_back(std::move(index));
    return std::make_shared<shard::IndexShardSet>(shard_config,
                                                  std::move(shards));
  };
  auto next = std::make_shared<IndexPair>();
  next->text = wrap(std::move(text));
  next->sound = wrap(std::move(sound));
  restores_in_flight_.fetch_add(1, std::memory_order_release);
  indices_.Store(std::move(next));
  restores_in_flight_.fetch_sub(1, std::memory_order_release);
}

Status SearchService::IngestWindow(StreamId stream,
                                   const std::vector<std::string>& words,
                                   bool live) {
  const auto indices = PinIndices();
  IngestOne(*indices, clock_->Now(), stream, words, live);
  return Status::Ok();
}

void SearchService::IngestBatch(const std::vector<IngestOp>& ops) {
  const auto indices = PinIndices();
  const Timestamp now = clock_->Now();
  for (const IngestOp& op : ops) {
    IngestOne(*indices, now, op.stream, op.words, op.live);
  }
}

void SearchService::IngestOne(const IndexPair& indices, Timestamp now,
                              StreamId stream,
                              const std::vector<std::string>& words,
                              bool live) {
  std::vector<std::string> transcript;
  std::vector<TermId> text_ids;
  std::vector<TermId> sound_ids;
  TextHelper::Window text_half(*text_helper_);
  {
    // Draw order as in IngestionPipeline::ProcessWindow: the transcriber,
    // then the lattice's alternate phones. The text half's interning ends
    // before the lock is released, because the next window's transcriber
    // reads the text dictionary's size.
    std::lock_guard<std::mutex> rng_lock(rng_mu_);
    transcript = pipeline_->Transcribe(words, rng_);
    if (!text_half.TryStart(transcript, *indices.text, stream, now, live)) {
      text_ids = pipeline_->InternText(transcript);
    }
    sound_ids = pipeline_->InternSound(words, rng_);
    text_half.AwaitInterned();
  }
  if (!text_half.started()) {
    indices.text->InsertWindow(stream, now, CountTerms(std::move(text_ids)),
                               live);
  }
  indices.sound->InsertWindow(stream, now, CountTerms(std::move(sound_ids)),
                              live);
  text_half.Finish();
}

void SearchService::FinishStream(StreamId stream) {
  const auto indices = PinIndices();
  indices->text->FinishStream(stream);
  indices->sound->FinishStream(stream);
}

void SearchService::DeleteStream(StreamId stream) {
  const auto indices = PinIndices();
  indices->text->DeleteStream(stream);
  indices->sound->DeleteStream(stream);
}

void SearchService::UpdatePopularity(StreamId stream, std::uint64_t delta) {
  const auto indices = PinIndices();
  indices->text->UpdatePopularity(stream, delta);
  indices->sound->UpdatePopularity(stream, delta);
}

std::vector<SearchResult> SearchService::Fuse(
    const std::vector<core::ScoredStream>& text_results,
    const std::vector<core::ScoredStream>& sound_results, int k) const {
  std::unordered_map<StreamId, SearchResult> fused;
  for (const core::ScoredStream& r : text_results) {
    SearchResult& result = fused[r.stream];
    result.stream = r.stream;
    result.text_score = r.score;
  }
  for (const core::ScoredStream& r : sound_results) {
    SearchResult& result = fused[r.stream];
    result.stream = r.stream;
    result.sound_score = r.score;
  }
  std::vector<SearchResult> out;
  out.reserve(fused.size());
  const double wt = config_.text_weight;
  for (auto& [stream, result] : fused) {
    result.score = wt * result.text_score + (1.0 - wt) * result.sound_score;
    out.push_back(result);
  }
  std::sort(out.begin(), out.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.stream < b.stream;  // Deterministic on ties.
            });
  if (out.size() > static_cast<std::size_t>(k)) out.resize(k);
  return out;
}

std::vector<SearchResult> SearchService::SearchBothModalities(
    const IndexPair& indices, const std::vector<TermId>& text_terms,
    const std::vector<TermId>& sound_terms, int fetch, int k) {
  const Timestamp now = clock_->Now();
  const auto text_results = indices.text->Query(text_terms, fetch, now);
  const auto sound_results = indices.sound->Query(sound_terms, fetch, now);
  return Fuse(text_results, sound_results, k);
}

std::vector<SearchResult> SearchService::SearchKeywords(
    const std::string& query, int k) {
  if (k <= 0) k = kDefaultK;
  ProcessedQuery processed;
  {
    std::lock_guard<std::mutex> rng_lock(rng_mu_);
    processed = query_processor_->ProcessKeywords(query, rng_);
  }
  // Over-fetch per modality so fusion has material to rerank. The pinned
  // pair keeps both indices alive for the whole search even if a restore
  // publishes a replacement mid-query.
  const auto indices = PinIndices();
  return SearchBothModalities(*indices, processed.text_terms,
                              processed.sound_terms, 2 * k, k);
}

std::vector<SearchResult> SearchService::SearchVoice(
    const audio::PcmBuffer& pcm, int k) {
  if (k <= 0) k = kDefaultK;
  ProcessedQuery processed;
  {
    std::lock_guard<std::mutex> rng_lock(rng_mu_);
    processed = query_processor_->ProcessVoice(pcm, rng_);
  }
  const auto indices = PinIndices();
  return SearchBothModalities(*indices, processed.text_terms,
                              processed.sound_terms, 2 * k, k);
}

audio::PcmBuffer SearchService::SynthesizeQuery(
    const std::vector<std::string>& words) {
  std::vector<asr::PhonemeId> phones;
  for (const std::string& word : words) {
    pipeline_->lexicon().Pronounce(word, phones);
  }
  std::vector<audio::PhoneSpec> specs;
  specs.reserve(phones.size());
  for (const asr::PhonemeId phone : phones) {
    specs.push_back(asr::PhonemeSpec(phone));
  }
  audio::SynthesizerConfig synth_config;
  const audio::Synthesizer synth(synth_config);
  std::lock_guard<std::mutex> rng_lock(rng_mu_);
  return synth.Render(specs, rng_);
}

}  // namespace rtsi::service
