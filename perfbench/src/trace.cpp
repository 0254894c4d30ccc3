#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity_);
  open_.reserve(64);
}

std::int32_t Tracer::open(const char* name, std::int32_t step) {
  if (spans_.size() >= capacity_ || open_.size() >= open_.capacity()) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.step = step;
  span.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order; tolerate a dropped child in between.
  while (!open_.empty()) {
    const std::int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"step\":%d}}",
                 i == 0 ? "" : ",\n", s.name, s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, s.step);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size())
      continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = static_cast<double>(std::max<std::int64_t>(duration - covered, 0)) /
              1e9;
  }
  return self;
}

std::map<std::string, std::vector<double>> self_seconds_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name].push_back(self[i]);
  return out;
}

}  // namespace perfbench
