#include "server/http_server.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace rtsi::server {
namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// Parses "a=1&b=hello+there" into decoded pairs.
void ParseQueryString(const std::string& query_string,
                      std::map<std::string, std::string>& out) {
  std::size_t pos = 0;
  while (pos < query_string.size()) {
    std::size_t amp = query_string.find('&', pos);
    if (amp == std::string::npos) amp = query_string.size();
    const std::string pair = query_string.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      out[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    } else if (!pair.empty()) {
      out[UrlDecode(pair)] = "";
    }
    pos = amp + 1;
  }
}

}  // namespace

std::string UrlDecode(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size()) {
      const int hi = HexValue(in[i + 1]);
      const int lo = HexValue(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back(in[i]);
      }
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (const char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace internal {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool http11,
                              bool keep_alive) {
  std::string out = http11 ? "HTTP/1.1 " : "HTTP/1.0 ";
  out += std::to_string(response.status);
  out += ' ';
  out += StatusText(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  for (const auto& [name, value] : response.headers) {
    out += "\r\n";
    out += name;
    out += ": ";
    out += value;
  }
  out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                    : "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

RequestParser::Result RequestParser::Parse() {
  if (error_ != 0) return Result::kError;
  if (!have_head_) {
    const std::size_t head_end = buf_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      // Nothing to bound an attacker but the cap: a head that has not
      // terminated within max_head_ bytes is rejected outright.
      if (buf_.size() > max_head_) {
        error_ = 400;
        return Result::kError;
      }
      return Result::kNeedMore;
    }
    if (head_end > max_head_) {
      error_ = 400;
      return Result::kError;
    }

    // "METHOD /path?query HTTP/1.x"
    const std::size_t line_end = buf_.find("\r\n");
    const std::string line = buf_.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      error_ = 400;
      return Result::kError;
    }
    request_.method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = line.substr(sp2 + 1);
    keep_alive_ = version == "HTTP/1.1";

    const std::size_t question = target.find('?');
    if (question != std::string::npos) {
      ParseQueryString(target.substr(question + 1), request_.query);
      target.resize(question);
    }
    request_.path = UrlDecode(target);

    // Headers: only Content-Length and Connection matter to us.
    std::uint64_t content_length = 0;
    std::size_t pos = line_end + 2;
    while (pos < head_end) {
      std::size_t eol = buf_.find("\r\n", pos);
      if (eol == std::string::npos || eol > head_end) eol = head_end;
      const std::size_t colon = buf_.find(':', pos);
      if (colon != std::string::npos && colon < eol) {
        std::string name = ToLower(buf_.substr(pos, colon - pos));
        std::size_t vstart = colon + 1;
        while (vstart < eol && buf_[vstart] == ' ') ++vstart;
        const std::string value = buf_.substr(vstart, eol - vstart);
        if (name == "content-length") {
          content_length = std::strtoull(value.c_str(), nullptr, 10);
        } else if (name == "connection") {
          const std::string lowered = ToLower(value);
          if (lowered == "close") keep_alive_ = false;
          if (lowered == "keep-alive") keep_alive_ = true;
        }
      }
      pos = eol + 2;
    }
    if (content_length > max_body_) {
      error_ = 413;
      return Result::kError;
    }
    have_head_ = true;
    body_start_ = head_end + 4;
    body_len_ = static_cast<std::size_t>(content_length);
  }
  if (buf_.size() < body_start_ + body_len_) return Result::kNeedMore;
  request_.body = buf_.substr(body_start_, body_len_);
  return Result::kDone;
}

void RequestParser::Reset() {
  buf_.erase(0, body_start_ + body_len_);
  have_head_ = false;
  body_start_ = 0;
  body_len_ = 0;
  keep_alive_ = false;
  error_ = 0;
  request_ = HttpRequest{};
}

}  // namespace internal

}  // namespace rtsi::server
