#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/log.h"
#include "server/json.h"
#include "storage/table.h"

namespace lazyetl::server {

namespace {

using lazyetl::LogCategory;
using lazyetl::LogOp;

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kBindError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kDeadlineExceeded:
      return 503;
    default:
      return 500;
  }
}

std::string ErrorJson(const Status& status) {
  std::string out = "{\"code\":";
  AppendJsonString(StatusCodeToString(status.code()), &out);
  out.append(",\"error\":");
  AppendJsonString(status.message(), &out);
  out.push_back('}');
  return out;
}

std::string LowerAscii(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return s;
}

// Maps the admission headers onto QueryOptions; a malformed value fails
// with InvalidArgument (answered as HTTP 400 before admission).
Result<core::QueryOptions> OptionsFromHeaders(const HttpRequest& req) {
  core::QueryOptions opts;
  auto it = req.headers.find("x-lazyetl-priority");
  if (it != req.headers.end() && !it->second.empty()) {
    std::string p = LowerAscii(it->second);
    if (p == "low") {
      opts.priority = common::QueryPriority::kLow;
    } else if (p == "normal") {
      opts.priority = common::QueryPriority::kNormal;
    } else if (p == "high") {
      opts.priority = common::QueryPriority::kHigh;
    } else {
      return Status::InvalidArgument("unknown priority: " + it->second);
    }
  }
  it = req.headers.find("x-lazyetl-client-id");
  if (it != req.headers.end()) opts.client_id = it->second;
  it = req.headers.find("x-lazyetl-queue-timeout-ms");
  if (it != req.headers.end() && !it->second.empty()) {
    char* end = nullptr;
    long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad queue timeout: " + it->second);
    }
    opts.queue_timeout_ms = v;
  }
  return opts;
}

// One wire frame: `payload` as an NDJSON line or a [u32 length][payload]
// binary frame — each sent as one HTTP chunk.
Status WriteFrame(HttpResponseWriter* writer, bool binary_frames,
                  std::string payload) {
  if (!binary_frames) {
    payload.push_back('\n');
    return writer->WriteChunk(payload);
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>(len & 0xff),
                    static_cast<char>((len >> 8) & 0xff),
                    static_cast<char>((len >> 16) & 0xff),
                    static_cast<char>((len >> 24) & 0xff)};
  std::string framed(prefix, sizeof(prefix));
  framed.append(payload);
  return writer->WriteChunk(framed);
}

}  // namespace

QueryServer::QueryServer(core::Warehouse* warehouse, ServerOptions options)
    : warehouse_(warehouse), options_(std::move(options)) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (listen_fd_ >= 0) return Status::InvalidArgument("already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    Status s = Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status s =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  LogOp(LogCategory::kQuery, "serverd listening on " + options_.host + ":" +
                                 std::to_string(port_));
  return Status::OK();
}

void QueryServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::unique_lock<std::mutex> lock(conn_mu_);
  conn_cv_.wait(lock, [this] { return live_connections_ == 0; });
}

ServerCounters QueryServer::counters() const {
  ServerCounters c;
  c.connections = connections_total_.load();
  c.queries_ok = queries_ok_.load();
  c.queries_rejected = queries_rejected_.load();
  c.mid_stream_errors = mid_stream_errors_.load();
  c.batches_streamed = batches_streamed_.load();
  c.rows_streamed = rows_streamed_.load();
  return c;
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or fatal) — Stop is in progress
    }
    // Bounded blocking so Stop can always join: idle reads poll every
    // 250 ms (re-checking the stop flag) and a stalled client's stream
    // errors out instead of wedging its connection thread forever.
    timeval rcv_to{0, 250 * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv_to, sizeof(rcv_to));
    timeval snd_to{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd_to, sizeof(snd_to));
    connections_total_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      ++live_connections_;
    }
    // Detached, so a finished connection leaves nothing behind; the last
    // touch of `this` is the decrement Stop waits for.
    std::thread([this, fd] {
      ServeConnection(fd);
      ::close(fd);
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (--live_connections_ == 0) conn_cv_.notify_all();
    }).detach();
  }
}

void QueryServer::ServeConnection(int fd) {
  // Sequential keep-alive: one request at a time until the client closes
  // (clean EOF = NotFound from the reader) or a write fails.
  while (!stopping_.load()) {
    auto req = ReadHttpRequest(fd, options_.max_request_bytes);
    if (!req.ok()) {
      if (req.status().IsDeadlineExceeded()) continue;  // idle poll tick
      if (req.status().code() == StatusCode::kInvalidArgument) {
        HttpResponseWriter writer(fd);
        writer.WriteFull(400, "application/json", ErrorJson(req.status()));
      }
      return;
    }
    if (!HandleRequest(*req, fd)) return;
  }
}

bool QueryServer::HandleRequest(const HttpRequest& req, int fd) {
  HttpResponseWriter writer(fd);
  if (req.method == "POST" && req.target == "/query") {
    return HandleQuery(req, &writer);
  }
  if (req.method == "GET" && req.target == "/healthz") {
    return writer.WriteFull(200, "text/plain", "ok\n").ok();
  }
  if (req.method == "GET" && req.target == "/stats") {
    return HandleStats(&writer);
  }
  return writer
      .WriteFull(404, "application/json",
                 ErrorJson(Status::NotFound("no such endpoint: " +
                                            req.target)))
      .ok();
}

bool QueryServer::HandleQuery(const HttpRequest& req,
                              HttpResponseWriter* writer) {
  auto opts = OptionsFromHeaders(req);
  if (!opts.ok()) {
    queries_rejected_.fetch_add(1);
    return writer->WriteFull(400, "application/json", ErrorJson(opts.status()))
        .ok();
  }
  bool binary_frames = false;
  auto fmt = req.headers.find("x-lazyetl-format");
  if (fmt != req.headers.end() && !fmt->second.empty()) {
    std::string f = LowerAscii(fmt->second);
    if (f == "frames") {
      binary_frames = true;
    } else if (f != "ndjson") {
      queries_rejected_.fetch_add(1);
      return writer
          ->WriteFull(400, "application/json",
                      ErrorJson(Status::InvalidArgument("unknown format: " +
                                                        fmt->second)))
          .ok();
    }
  }

  // Pre-stream failures — parse/bind errors, admission timeouts — still
  // have the status line available and map to typed HTTP errors.
  auto cursor = warehouse_->OpenCursor(req.body, *opts);
  if (!cursor.ok()) {
    queries_rejected_.fetch_add(1);
    return writer
        ->WriteFull(HttpStatusForCode(cursor.status().code()),
                    "application/json", ErrorJson(cursor.status()))
        .ok();
  }

  if (!writer
           ->StartChunked(200, binary_frames ? "application/octet-stream"
                                             : "application/x-ndjson")
           .ok()) {
    return false;  // cursor closes via its destructor: nothing leaks
  }

  // Drive the cursor batch-by-batch; each batch leaves the server before
  // the next is pulled, so resident result bytes stay O(batch).
  bool first = true;
  while (true) {
    storage::Table batch;
    auto more = (*cursor)->Next(&batch);
    if (!more.ok()) {
      // The 200 is committed; the typed code travels in an error frame.
      mid_stream_errors_.fetch_add(1);
      std::string payload = "{\"type\":\"error\",\"code\":";
      AppendJsonString(StatusCodeToString(more.status().code()), &payload);
      payload.append(",\"error\":");
      AppendJsonString(more.status().message(), &payload);
      payload.push_back('}');
      if (!WriteFrame(writer, binary_frames, std::move(payload)).ok()) {
        return false;
      }
      return writer->FinishChunked().ok();
    }
    if (!*more) break;
    if (first) {
      first = false;
      std::string payload = "{\"type\":\"schema\",\"columns\":[";
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        if (c > 0) payload.push_back(',');
        payload.append("{\"name\":");
        AppendJsonString(batch.column_name(c), &payload);
        payload.append(",\"type\":");
        AppendJsonString(storage::DataTypeToString(batch.schema()[c].type),
                         &payload);
        payload.push_back('}');
      }
      payload.append("]}");
      if (!WriteFrame(writer, binary_frames, std::move(payload)).ok()) {
        return false;  // client gone: the cursor Close releases everything
      }
    }
    if (batch.num_rows() == 0) continue;
    std::string payload = "{\"type\":\"batch\",\"rows\":[";
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      if (r > 0) payload.push_back(',');
      AppendJsonRow(batch, r, &payload);
    }
    payload.append("]}");
    batches_streamed_.fetch_add(1);
    rows_streamed_.fetch_add(batch.num_rows());
    if (!WriteFrame(writer, binary_frames, std::move(payload)).ok()) {
      return false;
    }
  }

  const engine::ExecutionReport& report = (*cursor)->report();
  char tail[192];
  std::snprintf(tail, sizeof(tail),
                "{\"type\":\"end\",\"rows\":%llu,\"ticket\":%llu,"
                "\"queue_wait_seconds\":%.6f,\"peak_buffered_bytes\":%llu}",
                static_cast<unsigned long long>((*cursor)->rows_streamed()),
                static_cast<unsigned long long>(report.ticket_id),
                report.queue_wait_seconds,
                static_cast<unsigned long long>(
                    (*cursor)->peak_buffered_bytes()));
  queries_ok_.fetch_add(1);
  if (!WriteFrame(writer, binary_frames, tail).ok()) return false;
  return writer->FinishChunked().ok();
}

bool QueryServer::HandleStats(HttpResponseWriter* writer) {
  core::WarehouseStats ws = warehouse_->Stats();
  ServerCounters sc = counters();
  char body[512];
  std::snprintf(
      body, sizeof(body),
      "{\"queries_admitted\":%llu,\"queries_timed_out\":%llu,"
      "\"queries_active\":%zu,\"queries_waiting\":%zu,"
      "\"connections\":%llu,\"queries_ok\":%llu,"
      "\"queries_rejected\":%llu,\"mid_stream_errors\":%llu,"
      "\"batches_streamed\":%llu,\"rows_streamed\":%llu}",
      static_cast<unsigned long long>(ws.queries_admitted),
      static_cast<unsigned long long>(ws.queries_timed_out),
      ws.queries_active, ws.queries_waiting,
      static_cast<unsigned long long>(sc.connections),
      static_cast<unsigned long long>(sc.queries_ok),
      static_cast<unsigned long long>(sc.queries_rejected),
      static_cast<unsigned long long>(sc.mid_stream_errors),
      static_cast<unsigned long long>(sc.batches_streamed),
      static_cast<unsigned long long>(sc.rows_streamed));
  return writer->WriteFull(200, "application/json", body).ok();
}

}  // namespace lazyetl::server
