// A counting global operator new for the traced run's alloc.* metrics.
// Counting is off unless switched on, so untraced runs pay one relaxed
// load per allocation.
#pragma once

#include <cstdint>

namespace costbench::alloc {

void set_counting(bool on) noexcept;
[[nodiscard]] std::uint64_t count() noexcept;
[[nodiscard]] std::uint64_t bytes() noexcept;

}  // namespace costbench::alloc
