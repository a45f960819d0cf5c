// The embedded HTTP front-end's shared vocabulary (raw POSIX sockets, no
// dependencies): request/response types, ServerConfig, the incremental
// RequestParser, and HttpServerBase — the interface the route layer
// (server/search_handler.h) registers against and that decorators (e.g.
// a handler-timing wrapper) can implement.
//
// The server itself is AsyncHttpServer (server/async_http_server.h): an
// epoll edge-triggered network loop, per-connection state machines,
// keep-alive, a worker pool, request batching and admission control
// (DESIGN.md §6i).

#ifndef RTSI_SERVER_HTTP_SERVER_H_
#define RTSI_SERVER_HTTP_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rtsi::server {

struct HttpRequest {
  std::string method;
  std::string path;                          // Decoded, without query.
  std::map<std::string, std::string> query;  // Decoded key=value pairs.
  std::string body;                          // POST payload (may be empty).
};

struct HttpResponse {
  HttpResponse() = default;
  HttpResponse(int status_in, std::string content_type_in,
               std::string body_in)
      : status(status_in),
        content_type(std::move(content_type_in)),
        body(std::move(body_in)) {}

  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers (e.g. {"Retry-After", "1"} on a 503).
  std::vector<std::pair<std::string, std::string>> headers;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Handles a batch of requests to one path in order; must return exactly
/// one response per request. The server coalesces queued requests to a
/// batch route into one call (insert batching).
using HttpBatchHandler =
    std::function<std::vector<HttpResponse>(const std::vector<HttpRequest>&)>;

struct ServerConfig {
  /// Worker threads computing handler responses.
  int workers = 2;
  /// Admission control: when this many requests are already queued for
  /// the workers, new requests are shed with 503 + Retry-After.
  std::size_t max_pending = 128;
  /// Max queued same-path requests dispatched as one batch.
  std::size_t max_batch = 16;
  /// Request line + headers cap; longer heads get 400.
  std::size_t max_head_bytes = 16 * 1024;
  /// Body cap; a larger Content-Length gets 413.
  std::size_t max_body_bytes = 1 << 20;
};

/// Point-in-time queue depths and shed counters.
struct ServerQueueStats {
  std::size_t pending = 0;              // Requests waiting for a worker.
  std::size_t in_flight = 0;            // Requests being computed now.
  std::size_t connections = 0;          // Open client sockets.
  std::uint64_t accepted = 0;           // Requests admitted to the queue.
  std::uint64_t shed = 0;               // 503s from admission control.
  std::uint64_t batches = 0;            // Batch dispatches to workers.
  std::uint64_t batched_requests = 0;   // Requests inside those batches.
  std::map<std::string, std::size_t> pending_by_path;  // Queue depth per endpoint.
};

class HttpServerBase {
 public:
  virtual ~HttpServerBase() = default;

  /// Registers a handler for an exact path (e.g. "/search").
  virtual void Route(const std::string& path, HttpHandler handler) = 0;

  /// Registers a batchable handler: the server may hand it several
  /// queued requests at once. Routes must be registered before Start.
  virtual void RouteBatch(const std::string& path,
                          HttpBatchHandler handler) = 0;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving.
  virtual Status Start(int port) = 0;

  /// Stops serving: no new connections, in-flight requests drain, worker
  /// and network threads join. Idempotent.
  virtual void Stop() = 0;

  /// The bound port (valid after Start succeeds).
  virtual int port() const = 0;

  virtual std::uint64_t requests_served() const = 0;

  virtual ServerQueueStats QueueStats() const = 0;
};

/// Decodes %XX and '+' in a URL component.
std::string UrlDecode(const std::string& in);

/// Escapes a string for embedding in a JSON value.
std::string JsonEscape(const std::string& in);

namespace internal {

/// Incremental HTTP/1.x request parser. Feed bytes
/// with Append, then call Parse until it stops returning kNeedMore; after
/// kDone, Reset consumes the parsed request and keeps any pipelined bytes
/// for the next one.
class RequestParser {
 public:
  enum class Result { kNeedMore, kDone, kError };

  RequestParser(std::size_t max_head_bytes, std::size_t max_body_bytes)
      : max_head_(max_head_bytes), max_body_(max_body_bytes) {}

  void Append(const char* data, std::size_t size) { buf_.append(data, size); }

  Result Parse();

  /// Valid after Parse returned kDone.
  HttpRequest& request() { return request_; }
  /// Whether the client asked to keep the connection open (HTTP/1.1
  /// default, or an explicit Connection: keep-alive).
  bool keep_alive() const { return keep_alive_; }
  /// 400 or 413; valid after Parse returned kError.
  int error_status() const { return error_; }

  /// Consumes the parsed request's bytes and re-arms for the next one.
  void Reset();

  bool has_buffered_bytes() const { return !buf_.empty(); }

 private:
  std::size_t max_head_;
  std::size_t max_body_;
  std::string buf_;
  bool have_head_ = false;
  std::size_t body_start_ = 0;
  std::size_t body_len_ = 0;
  bool keep_alive_ = false;
  int error_ = 0;
  HttpRequest request_;
};

const char* StatusText(int status);

/// Serializes status line + headers + body. `http11` picks the version
/// string; `keep_alive` sets the Connection header.
std::string SerializeResponse(const HttpResponse& response, bool http11,
                              bool keep_alive);

}  // namespace internal
}  // namespace rtsi::server

#endif  // RTSI_SERVER_HTTP_SERVER_H_
