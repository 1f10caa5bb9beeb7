#include "stackroute/io/scan.h"

#include <algorithm>
#include <istream>

#include "stackroute/util/error.h"

namespace stackroute::io {

namespace {

constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

}  // namespace

std::string_view skip_space(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  return s.substr(i);
}

void append_number(std::string& out, double v) {
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17)
          .ptr;
  out.append(buf, end);
}

void append_integer(std::string& out, long long v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void fail_at(int line_no, std::string_view message) {
  std::string what = "line " + std::to_string(line_no) + ": ";
  what += message;
  throw Error(what);
}

bool LineScanner::next(std::string_view& line, char comment) {
  while (!rest_.empty()) {
    const std::size_t eol = rest_.find('\n');
    line = rest_.substr(0, eol);
    rest_ = eol == std::string_view::npos ? std::string_view()
                                          : rest_.substr(eol + 1);
    ++line_no_;
    const std::string_view body = skip_space(line);
    if (!body.empty() && body.front() != comment) return true;
  }
  return false;
}

std::string_view Fields::next() {
  rest_ = skip_space(rest_);
  std::size_t n = 0;
  while (n < rest_.size() && !is_space(rest_[n])) ++n;
  const std::string_view field = rest_.substr(0, n);
  rest_.remove_prefix(n);
  return field;
}

std::string read_all(std::istream& is, std::string_view what) {
  // getline with a '\0' delimiter takes the stream in buffer-sized runs
  // and keeps what it read before a failure, so the line count below is
  // the prefix's; a '\0' in the text goes back in between the runs.
  std::string text;
  std::string run;
  while (true) {
    std::getline(is, run, '\0');
    text += run;
    if (!is.good()) break;
    text += '\0';
  }
  if (is.bad()) {
    std::string message = "stream I/O error while reading ";
    message += what;
    message += " (truncated read?)";
    fail_at(static_cast<int>(std::count(text.begin(), text.end(), '\n')),
            message);
  }
  return text;
}

}  // namespace stackroute::io
