#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

std::uint64_t Tracer::NextSerial() {
  static std::atomic<std::uint64_t> serial{1};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Buffer& Tracer::ThreadBuffer() {
  // One buffer per (thread, tracer); a thread that outlives one tracer
  // and records into another gets a fresh buffer there.
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != serial_) {
    std::lock_guard<std::mutex> lock(buffers_mu_);
    buffers_.emplace_back();
    buffer = &buffers_.back();
    owner = serial_;
  }
  return *buffer;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  Buffer& buffer = tracer_.ThreadBuffer();
  saved_request_ = buffer.request;
  span_.name = name;
  span_.id = tracer_.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = buffer.open.empty() ? 0 : buffer.open.back();
  span_.request = request != 0 ? request : buffer.request;
  buffer.open.push_back(span_.id);
  buffer.request = span_.request;
  span_.start_ns = NowNanos();
}

Tracer::Scope::~Scope() {
  span_.end_ns = NowNanos();
  Buffer& buffer = tracer_.ThreadBuffer();
  buffer.open.pop_back();
  buffer.request = saved_request_;
  buffer.spans.push_back(span_);
}

void Tracer::Record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request) {
  Buffer& buffer = ThreadBuffer();
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer.open.empty() ? 0 : buffer.open.back();
  span.request = request;
  buffer.spans.push_back(span);
}

Samples Tracer::DurationsMicros(const std::string& name) const {
  Samples samples;
  std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const Buffer& buffer : buffers_) {
    for (const Span& span : buffer.spans) {
      if (name == span.name) {
        samples.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return samples;
}

std::size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  std::size_t n = 0;
  for (const Buffer& buffer : buffers_) n += buffer.spans.size();
  return n;
}

bool Tracer::Dump(const std::string& path, std::uint64_t sample_every) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(buffers_mu_);
  int thread = 0;
  for (const Buffer& buffer : buffers_) {
    for (const Span& span : buffer.spans) {
      if (span.request != 0 && span.request % sample_every != 0) continue;
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu}\n",
                   span.name, thread, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request));
    }
    ++thread;
  }
  return std::fclose(f) == 0;
}

void AddTraceOverhead(Report& report, const Samples& untraced_us,
                      const Samples& traced_us) {
  const double untraced = untraced_us.Percentile(0.5);
  const double traced = traced_us.Percentile(0.5);
  report.Layer("trace.overhead_p50_us", traced - untraced, "us",
               traced_us.count());
  report.Layer("trace.overhead_frac",
               untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "fraction");
}

void DumpSpans(const Tracer& tracer, const Options& options, Report& report) {
  const std::string dir =
      options.spans_dir.empty() ? options.work_dir : options.spans_dir;
  const std::string path = dir + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
  if (!tracer.Dump(path, 16)) {
    report.Problem("cannot write spans to " + path);
    return;
  }
  report.Info("spans_file", path);
  report.Info("spans_recorded", static_cast<double>(tracer.num_spans()));
}

}  // namespace perfbench
