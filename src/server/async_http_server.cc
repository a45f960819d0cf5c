#include "server/async_http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rtsi::server {

AsyncHttpServer::AsyncHttpServer(const ServerConfig& config)
    : config_(config) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.max_batch < 1) config_.max_batch = 1;
}

AsyncHttpServer::~AsyncHttpServer() { Stop(); }

void AsyncHttpServer::Route(const std::string& path, HttpHandler handler) {
  routes_[path] = std::move(handler);
}

void AsyncHttpServer::RouteBatch(const std::string& path,
                                 HttpBatchHandler handler) {
  batch_routes_[path] = std::move(handler);
}

Status AsyncHttpServer::Start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind() failed for port " + std::to_string(port));
  }
  if (::listen(listen_fd_, 256) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (event_fd_ >= 0) ::close(event_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = event_fd_ = -1;
    return Status::Internal("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev = epoll_event{};
  ev.events = EPOLLIN;
  ev.data.fd = event_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  stopping_.store(false);
  running_.store(true);
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  net_thread_ = std::thread([this] { NetLoop(); });
  return Status::Ok();
}

void AsyncHttpServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the network thread (it also polls at 50 ms, so this is a fast
  // path, not a correctness requirement) and the workers.
  std::uint64_t wake = 1;
  (void)!::write(event_fd_, &wake, sizeof(wake));
  work_cv_.notify_all();
  if (net_thread_.joinable()) net_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  event_fd_ = epoll_fd_ = -1;
}

ServerQueueStats AsyncHttpServer::QueueStats() const {
  ServerQueueStats stats;
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    stats.pending = pending_.size();
    stats.in_flight = in_worker_;
    for (const Work& work : pending_) {
      ++stats.pending_by_path[work.request.path];
    }
  }
  stats.connections = conn_count_.load(std::memory_order_relaxed);
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  return stats;
}

void AsyncHttpServer::NetLoop() {
  std::vector<epoll_event> events(64);
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 50);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      if (fd == event_fd_) {
        std::uint64_t count = 0;
        while (::read(event_fd_, &count, sizeof(count)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        auto it = conns_.find(fd);
        if (it != conns_.end()) OnReadable(it->second);
      }
      if (ev & EPOLLOUT) {
        // Re-find: OnReadable above may have closed the connection.
        auto it = conns_.find(fd);
        if (it != conns_.end()) Pump(it->second);
      }
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Drain: stop accepting, let queued + in-flight requests finish and
      // their responses flush, close idle connections, then exit.
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      DrainCompletions();
      std::vector<int> idle;
      for (const auto& [fd, conn] : conns_) {
        if (!conn.in_flight && conn.out.empty()) idle.push_back(fd);
      }
      for (const int fd : idle) CloseConn(fd);
      bool quiet;
      {
        std::lock_guard<std::mutex> lock(work_mu_);
        quiet = pending_.empty() && in_worker_ == 0;
      }
      {
        std::lock_guard<std::mutex> lock(done_mu_);
        quiet = quiet && done_.empty();
      }
      if (quiet && conns_.empty()) return;
    }
  }
}

void AsyncHttpServer::AcceptNew() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN: the edge is drained.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(fd, Conn(fd, next_gen_++, config_.max_head_bytes,
                            config_.max_body_bytes));
    conn_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void AsyncHttpServer::OnReadable(Conn& conn) {
  char buf[8192];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.parser.Append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error. Buffered bytes may still hold a complete request
    // (client wrote and half-closed); serve it, then close.
    conn.read_closed = true;
    break;
  }
  Pump(conn);
}

void AsyncHttpServer::Pump(Conn& conn) {
  // Drives the connection state machine until it blocks on I/O, on a
  // worker, or closes. `conn` is invalid after CloseConn.
  while (true) {
    if (!FlushWrites(conn)) {
      CloseConn(conn.fd);
      return;
    }
    if (!conn.out.empty()) return;  // EAGAIN: EPOLLOUT will resume us.
    if (conn.close_after_write) {
      CloseConn(conn.fd);
      return;
    }
    if (conn.in_flight) return;  // Completion will resume us.
    if (MaybeDispatch(conn)) continue;
    if (!conn.read_closed) return;  // Wait for the rest of the request.
    if (!conn.parser.has_buffered_bytes()) {
      CloseConn(conn.fd);  // Clean EOF between requests.
      return;
    }
    // The peer half-closed mid-request: the request can never complete,
    // so answer 400 and close once it is written.
    SendResponse(conn, HttpResponse{400, "text/plain", "truncated request\n"},
                 /*keep_alive=*/false);
  }
}

bool AsyncHttpServer::FlushWrites(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ArmWrite(conn, true);
      return true;
    }
    return false;  // Peer is gone.
  }
  if (!conn.out.empty()) {
    conn.out.clear();
    conn.out_off = 0;
    ArmWrite(conn, false);
  }
  return true;
}

bool AsyncHttpServer::MaybeDispatch(Conn& conn) {
  const auto result = conn.parser.Parse();
  if (result == internal::RequestParser::Result::kNeedMore) return false;
  if (result == internal::RequestParser::Result::kError) {
    // Oversized or malformed head/body: answer and cut the connection —
    // the parse position is unrecoverable.
    SendResponse(conn,
                 HttpResponse{conn.parser.error_status(), "text/plain",
                              "bad request\n"},
                 /*keep_alive=*/false);
    return true;
  }
  Work work;
  work.fd = conn.fd;
  work.gen = conn.gen;
  work.request = std::move(conn.parser.request());
  work.keep_alive = conn.parser.keep_alive();
  conn.parser.Reset();

  bool admitted = false;
  if (!stopping_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(work_mu_);
    if (pending_.size() < config_.max_pending) {
      pending_.push_back(std::move(work));
      admitted = true;
    }
  }
  if (admitted) {
    conn.in_flight = true;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    work_cv_.notify_one();
    return true;
  }
  // Admission control: the queue is full (or we're draining). Shed with
  // an explicit 503 the client can act on; the connection stays usable.
  shed_.fetch_add(1, std::memory_order_relaxed);
  HttpResponse response{503, "application/json",
                        "{\"error\":\"overloaded\",\"retry_after\":1}\n"};
  response.headers.emplace_back("Retry-After", "1");
  SendResponse(conn, response, work.keep_alive);
  return true;
}

void AsyncHttpServer::SendResponse(Conn& conn, const HttpResponse& response,
                                   bool keep_alive) {
  if (stopping_.load(std::memory_order_relaxed)) keep_alive = false;
  if (!keep_alive) conn.close_after_write = true;
  conn.out += internal::SerializeResponse(response, /*http11=*/true,
                                          keep_alive);
  requests_.fetch_add(1, std::memory_order_relaxed);
}

void AsyncHttpServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
}

void AsyncHttpServer::ArmWrite(Conn& conn, bool enable) {
  if (conn.want_write == enable) return;
  conn.want_write = enable;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | (enable ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void AsyncHttpServer::DrainCompletions() {
  std::vector<Done> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  for (Done& done : batch) {
    auto it = conns_.find(done.fd);
    // Generation check: the fd may have been recycled for a brand-new
    // connection while this response was computing.
    if (it == conns_.end() || it->second.gen != done.gen) continue;
    Conn& conn = it->second;
    conn.in_flight = false;
    SendResponse(conn, done.response, done.keep_alive);
    Pump(conn);
  }
}

void AsyncHttpServer::WorkerLoop() {
  while (true) {
    std::vector<Work> batch;
    bool batchable = false;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] {
        return !running_.load(std::memory_order_relaxed) || !pending_.empty();
      });
      if (pending_.empty()) {
        if (!running_.load(std::memory_order_relaxed)) return;
        continue;
      }
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
      // Copy, not reference: push_back below reallocates the vector.
      const std::string path = batch.front().request.path;
      batchable = batch_routes_.find(path) != batch_routes_.end();
      if (batchable) {
        // Insert batching: drain queued same-path requests into one
        // handler call, up to max_batch.
        while (batch.size() < config_.max_batch && !pending_.empty() &&
               pending_.front().request.path == path) {
          batch.push_back(std::move(pending_.front()));
          pending_.pop_front();
        }
      }
      in_worker_ += batch.size();
    }

    std::vector<HttpResponse> responses;
    if (batchable) {
      std::vector<HttpRequest> requests;
      requests.reserve(batch.size());
      for (const Work& work : batch) requests.push_back(work.request);
      responses = batch_routes_.at(batch.front().request.path)(requests);
      if (responses.size() != batch.size()) {
        responses.assign(batch.size(),
                         HttpResponse{500, "text/plain",
                                      "handler returned wrong batch size\n"});
      }
      batches_.fetch_add(1, std::memory_order_relaxed);
      batched_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
    } else {
      responses.reserve(batch.size());
      auto it = routes_.find(batch.front().request.path);
      for (const Work& work : batch) {
        responses.push_back(it == routes_.end()
                                ? HttpResponse{404, "text/plain",
                                               "not found\n"}
                                : it->second(work.request));
      }
    }

    {
      std::lock_guard<std::mutex> lock(done_mu_);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        done_.push_back(Done{batch[i].fd, batch[i].gen,
                             std::move(responses[i]), batch[i].keep_alive});
      }
    }
    std::uint64_t wake = 1;
    (void)!::write(event_fd_, &wake, sizeof(wake));
    {
      std::lock_guard<std::mutex> lock(work_mu_);
      in_worker_ -= batch.size();
    }
  }
}

}  // namespace rtsi::server
