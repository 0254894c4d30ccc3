// Span recorder for the traced run: each call into a layer's entry point
// records one span (name, start, end, parent span, step id) into a buffer
// allocated once up front, so recording never allocates. At exit the
// buffer is written as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
//
// Spans nest strictly (one caller, one thread), so a span's self time is
// its duration minus the part of its interval its child spans cover.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: the layer entry point
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::int32_t step = -1;    ///< step id the span belongs to
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span as a child of the innermost open span; returns its index
  /// (-1 when the buffer is full — the span is then counted as dropped).
  std::int32_t open(const char* name, std::int32_t step);
  void close(std::int32_t index);

  /// RAII helper around open/close; records nothing when `tracer` is
  /// null, so one call site serves traced and untraced runs.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int32_t step)
        : tracer_(tracer), index_(tracer ? tracer->open(name, step) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Write the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps). Returns false when the file cannot be
  /// written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
  std::size_t dropped_ = 0;
};

/// Self time of every span, in seconds, indexed like `spans`: duration
/// minus the union of its direct children's intervals clipped to it.
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Self seconds of every span, grouped by span name.
[[nodiscard]] std::map<std::string, std::vector<double>> self_seconds_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
