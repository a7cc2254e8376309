#include "spans.h"

#include <chrono>

namespace costbench {

double now_us() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

SpanLog::Id SpanLog::open(std::string name, std::uint64_t op, Id cause) {
  spans_.push_back({std::move(name), op, cause, now_us(), 0});
  return spans_.size() - 1;
}

double SpanLog::close(Id id) {
  Span& s = spans_.at(id);
  s.dur_us = now_us() - s.start_us;
  return s.dur_us;
}

void SpanLog::write_chrome_trace(std::ostream& out) const {
  // One complete ("X") event per span; the operation id picks the track,
  // so each operation's spans nest on one row, and args carry the span's
  // own id and its cause for tools that follow the chain.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.op
        << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
        << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
        << ",\"cause\":";
    if (s.cause == kNoCause) {
      out << "null";
    } else {
      out << s.cause;
    }
    out << "}}";
  }
  out << "\n]}\n";
}

}  // namespace costbench
