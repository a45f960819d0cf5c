// HTTP routes over the multi-modal search service:
//
//   GET /                 — tiny HTML search page
//   GET /search?q=...&k=N — fused multi-modal keyword search, JSON
//   GET /live?q=...&k=N   — text-tree search restricted to live streams
//       (k: a decimal integer in [1, kMaxK], default 10; anything else is
//       a 400)
//   GET /ingest?stream=ID&words=a+b+c[&live=0|1] — index one window;
//       also accepts a POST body of lines "STREAM word word ..." (one
//       window per line). Registered as a batch route: the server
//       coalesces queued /ingest requests into one IngestBatch call.
//   GET /finish?stream=ID — end a broadcast
//   GET /pop?stream=ID&delta=N — popularity update
//   GET /stats            — index + shard + server-queue statistics, JSON
//
// Registers against HttpServerBase (server/http_server.h), so decorators
// of the server work too. Handlers pin the published index pair per
// request, so they are safe under the server's worker pool.

#ifndef RTSI_SERVER_SEARCH_HANDLER_H_
#define RTSI_SERVER_SEARCH_HANDLER_H_

#include "server/http_server.h"
#include "service/search_service.h"

namespace rtsi::server {

/// Largest `k` /search and /live accept: k sizes the per-query work, and
/// the service fetches 2k per modality.
inline constexpr int kMaxK = 1000;

/// Registers all routes on `http`. `service`, `clock` and `http` must
/// outlive the server's run.
void RegisterSearchRoutes(HttpServerBase& http,
                          service::SearchService& service,
                          SimulatedClock& clock);

}  // namespace rtsi::server

#endif  // RTSI_SERVER_SEARCH_HANDLER_H_
