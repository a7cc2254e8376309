#include "checks.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "recovery/recovery_oracle.h"

namespace costbench {

using namespace splice;

namespace {

std::uint64_t fib_iter(std::int64_t n) {
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

std::uint64_t power(std::uint64_t base, std::int64_t exp) {
  std::uint64_t r = 1;
  for (std::int64_t i = 0; i < exp; ++i) r *= base;
  return r;
}

// Solutions of n-queens for the sizes the workloads run, from the
// literature (OEIS A000170).
const std::map<std::int64_t, std::int64_t>& queens_table() {
  static const std::map<std::int64_t, std::int64_t> table = {{7, 40}, {8, 92}};
  return table;
}

// The bitmask formulation's calls: solve(cols, ld, rd) is one task and,
// unless every column is taken, calls scan over the free positions; each
// scan is one task and, while positions remain, calls scan on the rest
// and solve on the lowest position.
std::uint64_t queens_scan(std::uint64_t cols, std::uint64_t ld,
                          std::uint64_t rd, std::uint64_t avail,
                          std::uint64_t full);
std::uint64_t queens_solve(std::uint64_t cols, std::uint64_t ld,
                           std::uint64_t rd, std::uint64_t full) {
  if (cols == full) return 1;
  return 1 + queens_scan(cols, ld, rd, ~(cols | ld | rd) & full, full);
}
std::uint64_t queens_scan(std::uint64_t cols, std::uint64_t ld,
                          std::uint64_t rd, std::uint64_t avail,
                          std::uint64_t full) {
  if (avail == 0) return 1;
  const std::uint64_t low = avail & (~avail + 1);
  return 1 + queens_scan(cols, ld, rd, avail & (avail - 1), full) +
         queens_solve(cols | low, ((ld | low) << 1) & full, (rd | low) >> 1,
                      full);
}

std::string check_sorted_permutation(const ProgramCase& pc,
                                     const lang::Value& answer) {
  if (!answer.is_list()) return "answer is not a list";
  const std::vector<std::int64_t>& got = answer.as_list();
  if (!std::is_sorted(got.begin(), got.end())) {
    return "answer list is not non-decreasing";
  }
  std::vector<std::int64_t> entry = pc.program.entry_args().at(0).as_list();
  std::sort(entry.begin(), entry.end());
  if (entry != got) return "answer list is not a permutation of the input";
  return "";
}

}  // namespace

std::uint64_t call_tree_tasks(const ProgramCase& pc) {
  switch (pc.shape) {
    case Shape::kTreeSum: {
      const auto f = static_cast<std::uint64_t>(pc.b);
      return (power(f, pc.a + 1) - 1) / (f - 1);
    }
    case Shape::kFib:
      return 2 * fib_iter(pc.a + 1) - 1;
    case Shape::kNQueens: {
      const std::uint64_t full = (std::uint64_t{1} << pc.a) - 1;
      return queens_solve(0, 0, 0, full);
    }
    case Shape::kMergesort:
      return 2 * static_cast<std::uint64_t>(pc.a) - 1;
  }
  return 0;
}

std::int64_t closed_form_value(const ProgramCase& pc) {
  switch (pc.shape) {
    case Shape::kTreeSum:
      return static_cast<std::int64_t>(
          power(static_cast<std::uint64_t>(pc.b), pc.a));
    case Shape::kFib:
      return static_cast<std::int64_t>(fib_iter(pc.a));
    case Shape::kNQueens: {
      const auto it = queens_table().find(pc.a);
      if (it == queens_table().end()) {
        throw std::out_of_range("no known count for " + pc.name);
      }
      return it->second;
    }
    case Shape::kMergesort:
      break;
  }
  return -1;
}

std::string check_answer(const ProgramCase& pc, const lang::Value& answer) {
  if (pc.shape == Shape::kMergesort) return check_sorted_permutation(pc, answer);
  if (!answer.is_int()) return "answer is not an integer";
  const std::int64_t want = closed_form_value(pc);
  if (answer.as_int() == want) return "";
  return "answer " + std::to_string(answer.as_int()) + ", closed form " +
         std::to_string(want);
}

std::string check_tree_size(const ProgramCase& pc,
                            std::uint64_t tasks_created) {
  const std::uint64_t want = call_tree_tasks(pc);
  if (tasks_created == want) return "";
  return "fault-free run created " + std::to_string(tasks_created) +
         " tasks, call tree has " + std::to_string(want);
}

std::string check_run(const ProgramCase& pc, const core::RunResult& result,
                      bool fault_free) {
  std::string err = check_answer(pc, result.answer);
  if (err.empty() && fault_free) {
    err = check_tree_size(pc, result.counters.tasks_created);
  }
  if (err.empty()) {
    const recovery::OracleReport report =
        recovery::RecoveryOracle::check(result);
    if (!report.ok()) err = "oracle: " + report.to_string();
  }
  return err.empty() ? "" : pc.name + ": " + err;
}

std::string negative_control(const std::vector<ProgramCase>& programs,
                             std::size_t sample_program,
                             const core::RunResult& sample) {
  std::string missed;
  auto expect_reject = [&](const std::string& verdict, const char* what) {
    if (verdict.empty()) missed += std::string(missed.empty() ? "" : "; ") + what;
  };

  for (const ProgramCase& pc : programs) {
    const std::uint64_t size = call_tree_tasks(pc);
    expect_reject(check_tree_size(pc, size + 1), "tree size + 1");
    expect_reject(check_tree_size(pc, size - 1), "tree size - 1");
    expect_reject(check_answer(pc, lang::Value::list({1, 2})),
                  "list where an integer or other list belongs");
    if (pc.shape != Shape::kMergesort) {
      expect_reject(
          check_answer(pc, lang::Value::integer(closed_form_value(pc) + 1)),
          "closed-form answer + 1");
      continue;
    }
    std::vector<std::int64_t> sorted = pc.program.entry_args().at(0).as_list();
    std::sort(sorted.begin(), sorted.end());
    expect_reject(check_answer(pc, lang::Value::integer(0)),
                  "integer where a list belongs");
    std::vector<std::int64_t> swapped = sorted;
    const auto step = std::adjacent_find(
        swapped.begin(), swapped.end(),
        [](std::int64_t x, std::int64_t y) { return x != y; });
    if (step != swapped.end()) std::iter_swap(step, step + 1);
    expect_reject(check_answer(pc, lang::Value::list(swapped)),
                  "unsorted list");
    std::vector<std::int64_t> replaced = sorted;
    replaced.back() += 1;
    expect_reject(check_answer(pc, lang::Value::list(replaced)),
                  "sorted list that is not a permutation");
    std::vector<std::int64_t> shorter = sorted;
    shorter.pop_back();
    expect_reject(check_answer(pc, lang::Value::list(shorter)),
                  "list missing an element");
  }

  const ProgramCase& pc = programs.at(sample_program);
  if (!check_run(pc, sample, true).empty()) {
    return "the sample run fails its own checks: " + check_run(pc, sample, true);
  }
  core::RunResult bad = sample;
  bad.completed = false;
  expect_reject(check_run(pc, bad, true), "oracle: incomplete run");
  bad = sample;
  bad.answer_correct = false;
  expect_reject(check_run(pc, bad, true), "oracle: determinacy");
  bad = sample;
  bad.counters.tasks_created += 1;
  expect_reject(check_run(pc, bad, false), "oracle: task conservation");
  bad = sample;
  bad.counters.checkpoint_records += 1;
  expect_reject(check_run(pc, bad, true), "oracle: checkpoint conservation");
  bad = sample;
  bad.counters.tasks_created += 1;
  bad.counters.tasks_completed += 1;
  expect_reject(check_run(pc, bad, true), "call-tree size of a balanced ledger");

  return missed.empty() ? "" : "checks accepted a wrong input: " + missed;
}

}  // namespace costbench
