#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t ThreadId() {
  return std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000;
}

// Innermost open span per thread, for parent links.
thread_local std::int64_t t_open_span = -1;

}  // namespace

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Result::HasMetric(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

void Result::Absorb(const Result& other) {
  notes_.insert(notes_.end(), other.notes_.begin(), other.notes_.end());
  correct_ = correct_ && other.correct_;
  for (const Entry& e : other.metrics_) {
    if (!HasMetric(e.name)) metrics_.push_back(e);
  }
}

void Result::Check(bool ok, const std::string& what) {
  notes_.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
  if (!ok) correct_ = false;
}

void Result::Note(const std::string& line) { notes_.push_back(line); }

void Result::Print() const {
  for (const std::string& note : notes_) {
    std::stringstream lines(note);
    std::string line;
    while (std::getline(lines, line)) std::printf("# %s\n", line.c_str());
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    out << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
        << JsonNumber(e.value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailPercentile(std::vector<double> values) {
  Tail tail;
  const std::size_t n = values.size();
  if (n < 11) return tail;
  std::sort(values.begin(), values.end());
  // Nearest rank k (1-based) leaves n - k samples above it; the highest
  // rank with at least ten above is k = n - 10.
  const std::size_t k = n - 10;
  tail.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(n);
  tail.value = values[k - 1];
  return tail;
}

std::string Summarize(const std::string& name,
                      const std::vector<double>& values,
                      const std::string& unit) {
  char buf[256];
  const Tail tail = TailPercentile(values);
  if (tail.percentile > 0.0) {
    std::snprintf(buf, sizeof(buf), "%s median=%.6g p%.0f=%.6g %s (n=%zu)",
                  name.c_str(), Median(values), tail.percentile, tail.value,
                  unit.c_str(), values.size());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s median=%.6g %s (n=%zu, too few samples for a tail)",
                  name.c_str(), Median(values), unit.c_str(), values.size());
  }
  return buf;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

Repetitions TimeRepetitions(double budget_sec,
                            const std::function<double()>& setup,
                            const std::function<void()>& rep,
                            std::size_t warmups) {
  Repetitions reps;
  reps.warmups = warmups;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < warmups; ++i) {
    setup();
    rep();
    if (i == 0) reps.peak_rss_mb = PeakRssMb();
  }
  while (true) {
    reps.setup_seconds.push_back(setup());
    const Clock::time_point t0 = Clock::now();
    rep();
    reps.seconds.push_back(SecondsSince(t0));
    if (warmups == 0 && reps.seconds.size() == 1) reps.peak_rss_mb = PeakRssMb();
    if (SecondsSince(start) + reps.seconds.back() > budget_sec) break;
  }
  return reps;
}

double MedianTime(int count, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

double MedianSetupTime(const std::function<void()>& fn, int batch) {
  return MedianTime(21, [&] {
           for (int i = 0; i < batch; ++i) fn();
         }) /
         batch;
}

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::uint64_t request)
    : log_(log) {
  if (log_ != nullptr) index_ = log_->Open(name, request);
}

SpanLog::Scope::~Scope() {
  if (log_ != nullptr) log_->Close(index_);
}

std::size_t SpanLog::Open(const char* name, std::uint64_t request) {
  Span span{name, request, ThreadId(), t_open_span, Clock::now(), {}};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  t_open_span = static_cast<std::int64_t>(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(std::size_t index) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end = now;
  t_open_span = spans_[index].parent;
}

double SpanLog::SelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_sec(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_sec[static_cast<std::size_t>(s.parent)] +=
          std::chrono::duration<double>(s.end - s.start).count();
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    total += std::chrono::duration<double>(spans_[i].end - spans_[i].start)
                 .count() -
             child_sec[i];
  }
  return total;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(std::chrono::duration<double>(s.end - s.start).count());
    }
  }
  return out;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << JsonNumber(ts) << ",\"dur\":" << JsonNumber(dur)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
