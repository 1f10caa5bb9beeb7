// The one scanner behind the instance text formats (io/serialize, io/tntp,
// the numbers of io/json): lines, whitespace-separated fields and numbers,
// all as string_views into one in-memory document. Numbers are read with
// std::from_chars and written with std::to_chars, which ignore the locale
// by specification, so no reader or writer needs a stream, an imbue or a
// classic-locale guard to stay exact under a comma-decimal global locale.
#pragma once

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>

namespace stackroute::io {

/// `s` without its leading whitespace (the classic-locale isspace set;
/// lines never hold a '\n').
[[nodiscard]] std::string_view skip_space(std::string_view s);

/// Reads a number of type T from the start of `s` (no leading whitespace,
/// no '+'); returns how many characters it used, 0 when `s` does not start
/// with one or its value is out of T's range.
template <class T>
std::size_t parse_prefix(std::string_view s, T& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() ? static_cast<std::size_t>(end - s.data()) : 0;
}

/// True when all of `field` is one number of type T.
template <class T>
bool parse_number(std::string_view field, T& out) {
  return !field.empty() && parse_prefix(field, out) == field.size();
}

/// Appends `v` with 17 significant digits (printf "%.17g"): every double
/// reads back bitwise.
void append_number(std::string& out, double v);
void append_integer(std::string& out, long long v);

/// Throws stackroute::Error("line <line_no>: <message>").
[[noreturn]] void fail_at(int line_no, std::string_view message);

/// Hands out the lines of a document (split at '\n', as std::getline
/// does) and counts them, so every parse error can name its line.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : rest_(text) {}

  /// The next line holding more than whitespace whose first other
  /// character is not `comment`; false at the end of the text.
  bool next(std::string_view& line, char comment);

  /// Physical number of the line last handed out (counting skipped ones).
  [[nodiscard]] int line() const { return line_no_; }

  [[noreturn]] void fail(std::string_view message) const {
    fail_at(line_no_, message);
  }

 private:
  std::string_view rest_;
  int line_no_ = 0;
};

/// The whitespace-separated fields of one line.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  /// The next field; empty when none is left.
  std::string_view next();

  /// The next field read as one whole number; false when there is none or
  /// it is not a number of type T.
  template <class T>
  bool number(T& out) {
    return parse_number(next(), out);
  }

 private:
  std::string_view rest_;
};

/// The whole of `is` as one string. A stream that goes bad mid-read fails
/// with the number of lines read so far, so a partial document never
/// reaches a parser; `what` names the document in that message.
std::string read_all(std::istream& is, std::string_view what);

}  // namespace stackroute::io
