#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "stackroute/io/json.h"
#include "stackroute/obs/timing.h"

namespace perfbench {

using stackroute::io::JsonValue;

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Result::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss over
  // execve, so a child would report its launcher's peak when larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0.0;
}

std::int64_t steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::int64_t field[8] = {};
  stat >> cpu;
  for (std::int64_t& f : field) stat >> f;
  return stat && cpu == "cpu" ? field[7] : -1;
}

std::vector<std::size_t> calm_half(const std::vector<std::int64_t>& steal) {
  std::vector<std::size_t> idx;
  if (steal.empty()) return idx;
  std::vector<std::int64_t> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  // The median part's steal (the lower one of an even count); a missing
  // reading (-1) sorts first and makes every part calm.
  const std::int64_t cut =
      sorted.front() < 0 ? sorted.back() : sorted[(sorted.size() - 1) / 2];
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= cut) idx.push_back(i);
  }
  return idx;
}

References::References(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = JsonValue::parse(text.str());
  rtol_ = doc.find("tolerance")->as_number();
  for (const auto& [key, value] : doc.find("values")->as_object()) {
    values_[key] = value.as_number();
  }
}

bool References::check(const std::string& key, double value,
                       Result& result) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    result.fail("no reference for " + key);
    return false;
  }
  const double ref = it->second;
  const double scale = std::max(std::abs(ref), std::abs(value));
  if (!std::isfinite(value) || std::abs(value - ref) > rtol_ * scale + 1e-12) {
    std::ostringstream os;
    os.precision(17);
    os << key << ": got " << value << ", reference " << ref;
    result.fail(os.str());
    return false;
  }
  return true;
}

void write_references(const std::string& path, double rtol,
                      const std::map<std::string, double>& values) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"tolerance\": " << stackroute::io::json_number(rtol)
      << ",\n \"values\": {";
  bool first = true;
  for (const auto& [key, value] : values) {
    out << (first ? "\n  \"" : ",\n  \"") << key
        << "\": " << stackroute::io::json_number(value);
    first = false;
  }
  out << "\n}}\n";
}

Spans::Spans() : epoch_ns_(stackroute::obs::now_ns()) {}

obs::TraceSession* Spans::lane() {
  sessions_.push_back(std::make_unique<obs::TraceSession>(epoch_ns_));
  sessions_.back()->set_tid(static_cast<int>(sessions_.size()) - 1);
  return sessions_.back().get();
}

void Spans::write(const std::string& path) const {
  std::vector<const obs::TraceSession*> all;
  for (const auto& s : sessions_) all.push_back(s.get());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  obs::TraceSession::write_chrome_trace(all, out);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(stackroute::obs::now_ns() - start_ns) * 1e-9;
}

}  // namespace perfbench
