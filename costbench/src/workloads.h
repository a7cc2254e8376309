// The benchmark's workloads: each is a fixed list of operations (one
// round) made from the workload seed alone. One operation is one simulated
// run of a (config, program, fault plan, seed) tuple.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "splice.h"

namespace costbench {

/// The program families whose outputs have a closed form (checks.h).
enum class Shape : std::uint8_t { kTreeSum, kFib, kNQueens, kMergesort };

/// One program of a workload and the parameters its closed form needs.
struct ProgramCase {
  std::string name;
  Shape shape = Shape::kTreeSum;
  std::int64_t a = 0;  // tree depth | fib n | queens n | sort length
  std::int64_t b = 0;  // tree fanout
  splice::lang::Program program;
};

struct Op {
  std::string family;      // fault family: "none", "crash", "rect", ...
  std::size_t program = 0; // index into Workload::programs
  splice::core::SystemConfig config;
  std::string plan;        // scenario DSL; empty = fault-free
  splice::net::FaultPlan parsed;
  /// A known fault of the program: the operation fails every time today
  /// and is counted as failed until a fix lands.
  bool reproducer = false;
};

struct Workload {
  std::string name;
  std::vector<ProgramCase> programs;
  std::vector<Op> ops;  // one round, in run order
  /// When non-zero, the traced run replays every operation on the PDES
  /// engine at this many shards and at one.
  std::uint32_t engine_shards = 0;
};

/// Programs and the round's operations, plans parsed. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed);

}  // namespace costbench
