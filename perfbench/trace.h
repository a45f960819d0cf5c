// In-memory span recorder for the traced run.
//
// A span is (name, start, end, id, parent, request): the benchmark opens
// one around each public call it makes into a layer, so the spans of one
// request nest under its root span and share its request id. Each thread
// appends to its own buffer (no lock on the hot path); the buffers are
// read only after the recording threads have joined. Nothing is written
// while the workload runs: Dump() writes the spans out at the end.

#ifndef RTSI_PERFBENCH_TRACE_H_
#define RTSI_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";  // Points at a string literal.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root.
  std::uint64_t request = 0;  // 0 = not part of a request.
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; it nests under the thread's
  /// innermost open span and inherits its request id unless one is given.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    Span span_;
    std::uint64_t saved_request_ = 0;
  };

  /// Records an already-timed span (e.g. a handler duration measured by a
  /// server decorator) under the calling thread's open span.
  void Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request);

  /// Durations (microseconds) of every span named `name`.
  Samples DurationsMicros(const std::string& name) const;

  std::size_t num_spans() const;

  /// Writes every span of requests with id % `sample_every` == 0, plus
  /// every span outside a request, as one JSON object per line.
  bool Dump(const std::string& path, std::uint64_t sample_every) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  // Ids of open spans, innermost last.
    std::uint64_t request = 0;        // Request of the innermost span.
  };
  Buffer& ThreadBuffer();
  static std::uint64_t NextSerial();

  // Distinguishes tracers for the per-thread buffer cache, even when a
  // new tracer reuses a destroyed one's address.
  const std::uint64_t serial_ = NextSerial();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex buffers_mu_;
  std::deque<Buffer> buffers_;  // Stable addresses.
};

/// Tracing overhead: the traced phase's median latency against the
/// untraced phase's, on the same state.
void AddTraceOverhead(Report& report, const Samples& untraced_us,
                      const Samples& traced_us);

/// Writes the tracer's spans (every 16th request) to the spans dir.
void DumpSpans(const Tracer& tracer, const Options& options, Report& report);

}  // namespace perfbench

#endif  // RTSI_PERFBENCH_TRACE_H_
