// Output checks made apart from the program: closed-form answers, closed-
// form call-tree sizes and the RecoveryOracle's invariants. None of them
// compares against a recorded copy of an earlier run's output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "splice.h"
#include "workloads.h"

namespace costbench {

/// Tasks in the program's call tree, counted without the interpreter:
/// (f^(d+1)-1)/(f-1) for a tree_sum of fanout f >= 2 (2^(d+1)-1 when
/// binary), 2*fib(n+1)-1, 2n-1 for mergesort, and a plain backtracking
/// count of nqueens' solve/scan calls.
[[nodiscard]] std::uint64_t call_tree_tasks(const ProgramCase& pc);

/// The integer answer of a tree_sum, fib or nqueens program (-1 for a
/// mergesort, whose answer is a list). Throws std::out_of_range for an
/// nqueens size outside the table; set-up's warm-up op reaches it first.
[[nodiscard]] std::int64_t closed_form_value(const ProgramCase& pc);

/// "" when `answer` is the program's value: f^d, fib(n) by iteration, the
/// known nqueens table, or a non-decreasing permutation of the entry list.
[[nodiscard]] std::string check_answer(const ProgramCase& pc,
                                       const splice::lang::Value& answer);

/// "" when a fault-free run created exactly the call tree's tasks.
[[nodiscard]] std::string check_tree_size(const ProgramCase& pc,
                                          std::uint64_t tasks_created);

/// Every check that applies to a completed run; "" when all hold.
[[nodiscard]] std::string check_run(const ProgramCase& pc,
                                    const splice::core::RunResult& result,
                                    bool fault_free);

/// Feed every check a wrong answer or count and confirm that it rejects
/// it. `sample` is a completed, correct run of `programs[sample_program]`.
/// Returns "" when every check rejected every wrong input.
[[nodiscard]] std::string negative_control(
    const std::vector<ProgramCase>& programs, std::size_t sample_program,
    const splice::core::RunResult& sample);

}  // namespace costbench
