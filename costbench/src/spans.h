// Host-time spans for the traced run, kept in memory and written out as
// Chrome trace JSON (loads in ui.perfetto.dev and chrome://tracing). The
// benchmark opens a span around each call into a layer's public API; every
// span names the operation it belongs to and the span that caused it.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace costbench {

class SpanLog {
 public:
  using Id = std::size_t;
  static constexpr Id kNoCause = static_cast<Id>(-1);

  /// Start a span now; close() it when the call returns.
  Id open(std::string name, std::uint64_t op, Id cause = kNoCause);
  /// End the span and return its duration in microseconds.
  double close(Id id);

  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t op = 0;
    Id cause = kNoCause;
    double start_us = 0;
    double dur_us = 0;
  };
  std::vector<Span> spans_;
};

/// Host time since the process started, in microseconds (steady clock).
[[nodiscard]] double now_us();

}  // namespace costbench
