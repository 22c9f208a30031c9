#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"

namespace perfbench {

using lazyetl::Result;
using lazyetl::Status;

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

std::string Lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

// Appends the row texts of a batch frame ({"type":"batch","rows":[[..],
// [..]]}) to `rows`, tracking bracket depth and strings so that a string
// holding brackets or commas cannot split a row.
void ExtractRows(const std::string& frame, std::vector<std::string>* rows) {
  size_t at = frame.find("\"rows\":[");
  if (at == std::string::npos) return;
  int depth = 0;
  bool in_string = false;
  size_t row_begin = 0;
  for (size_t i = at + 8; i < frame.size(); ++i) {
    char c = frame[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      if (depth++ == 0) row_begin = i;
    } else if (c == ']') {
      if (depth == 0) return;  // end of the rows array
      if (--depth == 0) {
        rows->push_back(frame.substr(row_begin, i - row_begin + 1));
      }
    }
  }
}

void ReadFrame(const std::string& frame, WireAnswer* out) {
  if (frame.rfind("{\"type\":\"batch\"", 0) == 0) {
    ExtractRows(frame, &out->rows);
  } else if (frame.rfind("{\"type\":\"end\"", 0) == 0) {
    out->saw_end = true;
    size_t at = frame.find("\"rows\":");
    if (at != std::string::npos) {
      out->end_rows = std::strtoull(frame.c_str() + at + 7, nullptr, 10);
    }
  } else if (frame.rfind("{\"type\":\"error\"", 0) == 0) {
    out->error = frame;
  }
}

}  // namespace

Status WireClient::Connect() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(Errno("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + host_);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IOError(Errno("connect"));
    ::close(fd);
    return s;
  }
  fd_ = fd;
  ++connections_;
  buf_.clear();
  return Status::OK();
}

void WireClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

Status WireClient::Fill(size_t n) {
  while (buf_.size() < n) {
    char chunk[16384];
    ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("recv"));
    }
    if (got == 0) return Status::IOError("connection closed by the server");
    buf_.append(chunk, static_cast<size_t>(got));
  }
  return Status::OK();
}

Result<std::string> WireClient::ReadLine() {
  size_t eol;
  while ((eol = buf_.find("\r\n")) == std::string::npos) {
    LAZYETL_RETURN_NOT_OK(Fill(buf_.size() + 1));
  }
  std::string line = buf_.substr(0, eol);
  buf_.erase(0, eol + 2);
  return line;
}

Result<WireAnswer> WireClient::ReadResponse() {
  WireAnswer out;
  LAZYETL_ASSIGN_OR_RETURN(std::string status_line, ReadLine());
  size_t sp = status_line.find(' ');
  if (sp == std::string::npos) return Status::IOError("bad status line");
  out.http_status = std::atoi(status_line.c_str() + sp + 1);
  bool chunked = false;
  size_t content_length = 0;
  while (true) {
    LAZYETL_ASSIGN_OR_RETURN(std::string line, ReadLine());
    if (line.empty()) break;
    std::string lower = Lower(line);
    if (lower.rfind("transfer-encoding:", 0) == 0) {
      chunked = lower.find("chunked") != std::string::npos;
    } else if (lower.rfind("content-length:", 0) == 0) {
      content_length = std::strtoull(lower.c_str() + 15, nullptr, 10);
    }
  }
  std::string body;
  if (chunked) {
    while (true) {
      LAZYETL_ASSIGN_OR_RETURN(std::string size_line, ReadLine());
      size_t n = std::strtoull(size_line.c_str(), nullptr, 16);
      if (n == 0) {
        // Trailer section: header lines up to an empty one.
        while (true) {
          LAZYETL_ASSIGN_OR_RETURN(std::string trailer, ReadLine());
          if (trailer.empty()) break;
        }
        break;
      }
      LAZYETL_RETURN_NOT_OK(Fill(n + 2));
      body.append(buf_, 0, n);
      buf_.erase(0, n + 2);
    }
  } else {
    LAZYETL_RETURN_NOT_OK(Fill(content_length));
    body = buf_.substr(0, content_length);
    buf_.erase(0, content_length);
  }
  if (out.http_status != 200) {
    out.error = body;
    return out;
  }
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) nl = body.size();
    if (nl > pos) ReadFrame(body.substr(pos, nl - pos), &out);
    pos = nl + 1;
  }
  return out;
}

Result<WireAnswer> WireClient::Query(const std::string& sql) {
  if (fd_ < 0) LAZYETL_RETURN_NOT_OK(Connect());
  std::string request = "POST /query HTTP/1.1\r\nHost: " + host_ +
                        "\r\nContent-Length: " + std::to_string(sql.size()) +
                        "\r\n\r\n" + sql;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Status s = Status::IOError(Errno("send"));
      Close();
      return s;
    }
    sent += static_cast<size_t>(n);
  }
  auto answer = ReadResponse();
  if (!answer.ok()) Close();
  return answer;
}

}  // namespace perfbench
