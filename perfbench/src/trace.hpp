// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around calls into the
// library's public functions (the library itself is not instrumented). Each
// span has a name, a start and end on the steady clock, the span that
// caused it and the request it belongs to. They stay in memory until the
// run ends and are then written as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;            // index into the recorder's spans; -1 = root
  std::int64_t request = -1;  // request id shared by all spans of a request
  int track = 0;              // Chrome "tid": 0 = replay thread, 1+c = client c
};

/// Not thread-safe: one recorder per thread, merged with append() after the
/// threads are joined.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string name, std::int64_t request, int track = 0);
  void end(int id);
  /// Records an already finished span.
  int add(std::string name, Clock::time_point start, Clock::time_point end, int parent,
          std::int64_t request, int track);
  /// Moves `other`'s spans in, re-basing their parent indices.
  void append(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds since the
  /// recorder's origin) with `metadata` attached.
  isex::Json to_chrome_json(const isex::Json& metadata) const;

  /// Self time per span name in ms: each span's duration minus the part of
  /// it that its direct children cover.
  std::map<std::string, double> self_ms_by_name() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span over one scope; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t request)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
