// A keep-alive client for the query server's public HTTP protocol.
//
// Each client owns one persistent TCP connection and sends each request
// in a single write. It sets no socket option at all, so the server's own
// write pattern (and whatever the kernel makes of it) shows in the
// latency, as it does for any HTTP client that reuses connections. The
// response is read whole: the chunked body is de-chunked, split into
// ndjson frames, and the rows of the batch frames are kept as JSON text.

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct WireAnswer {
  int http_status = 0;
  std::vector<std::string> rows;  // one "[v,...]" JSON text per row
  bool saw_end = false;
  uint64_t end_rows = 0;          // the end frame's row count
  std::string error;              // error body or error frame, if any

  // A 200 stream that ended cleanly with as many rows as it announced.
  bool ok() const {
    return http_status == 200 && saw_end && error.empty() &&
           end_rows == rows.size();
  }
};

class WireClient {
 public:
  WireClient(std::string host, int port)
      : host_(std::move(host)), port_(port) {}
  ~WireClient() { Close(); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // POSTs `sql` to /query on the open connection, connecting first when
  // none is open. A transport error closes the connection and fails.
  lazyetl::Result<WireAnswer> Query(const std::string& sql);

  void Close();
  uint64_t connections_opened() const { return connections_; }

 private:
  lazyetl::Status Connect();
  // Reads until `buf_` holds at least `n` bytes.
  lazyetl::Status Fill(size_t n);
  lazyetl::Result<std::string> ReadLine();
  lazyetl::Result<WireAnswer> ReadResponse();

  std::string host_;
  int port_;
  int fd_ = -1;
  uint64_t connections_ = 0;
  std::string buf_;  // received bytes not yet consumed
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
