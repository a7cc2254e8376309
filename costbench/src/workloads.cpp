#include "workloads.h"

#include <stdexcept>

namespace costbench {

using namespace splice;

namespace {

/// splitmix64 over (seed, stream, index): every seeded choice of a round
/// comes from here, so the same seed always gives the same round.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL ^
                    (stream + 1) * 0xBF58476D1CE4E5B9ULL ^
                    (index + 1) * 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::int64_t below(std::uint64_t value, std::int64_t n) {
  return static_cast<std::int64_t>(value % static_cast<std::uint64_t>(n));
}

std::string dec(std::int64_t v) { return std::to_string(v); }

ProgramCase tree_sum(std::uint32_t depth, std::uint32_t fanout) {
  return {"tree_sum(" + dec(depth) + "," + dec(fanout) + ",60,10)",
          Shape::kTreeSum, depth, fanout,
          lang::programs::tree_sum(depth, fanout, 60, 10)};
}
ProgramCase fib(std::int64_t n, std::int64_t leaf_work) {
  return {"fib(" + dec(n) + "," + dec(leaf_work) + ")", Shape::kFib, n, 0,
          lang::programs::fib(n, leaf_work)};
}
ProgramCase nqueens(std::uint32_t n) {
  return {"nqueens(" + dec(n) + ")", Shape::kNQueens, n, 0,
          lang::programs::nqueens(n)};
}
ProgramCase mergesort(std::int64_t length, std::uint64_t list_seed) {
  return {"mergesort(" + dec(length) + ")", Shape::kMergesort, length, 0,
          lang::programs::mergesort(static_cast<std::size_t>(length),
                                    list_seed)};
}

Op make_op(std::string family, std::size_t program,
           const core::SystemConfig& config, std::string plan) {
  Op op{std::move(family), program, config, std::move(plan), {}, false};
  if (!op.plan.empty()) op.parsed = core::parse_fault_plan(op.plan);
  return op;
}

core::SystemConfig torus256() {
  core::SystemConfig cfg;
  cfg.processors = 256;
  cfg.topology = net::TopologyKind::kTorus2D;
  cfg.scheduler.kind = core::SchedulerKind::kLocalFirst;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  return cfg;
}

// faultfree_256: the fault-free checkpointing overhead on the classic
// driver. Per round 2 tree_sum, 4 nqueens, 1 mergesort and 1 fib run: as
// many ops run longer than nqueens as shorter, so the median falls in the
// middle of the nqueens runs and p95 inside the tree_sum runs, not on the
// edge between two programs' run times.
Workload faultfree_256(std::uint64_t seed) {
  Workload w;
  w.name = "faultfree_256";
  w.programs.push_back(tree_sum(13, 2));
  w.programs.push_back(nqueens(8));
  w.programs.push_back(mergesort(2048, draw(seed, 0, 0)));
  w.programs.push_back(fib(16, 20));
  constexpr std::size_t kOrder[] = {0, 1, 2, 1, 0, 1, 3, 1};
  for (std::size_t i = 0; i < std::size(kOrder); ++i) {
    core::SystemConfig cfg = torus256();
    cfg.seed = draw(seed, 1, i);
    w.ops.push_back(make_op("none", kOrder[i], cfg, ""));
  }
  w.engine_shards = 3;
  return w;
}

// chaos_64: recovery, store replay, state transfer, link shaping, failure
// detection and the wire codec. Fault ticks are fixed per family; the seed
// picks victims, regions, plan seeds and the config seed.
Workload chaos_64(std::uint64_t seed) {
  Workload w;
  w.name = "chaos_64";
  w.programs.push_back(fib(14, 40));
  w.programs.push_back(nqueens(7));
  w.programs.push_back(tree_sum(10, 2));
  w.programs.push_back(tree_sum(7, 2));  // reproducer (a) only

  core::SystemConfig base;
  base.processors = 64;
  base.topology = net::TopologyKind::kMesh2D;
  base.scheduler.kind = core::SchedulerKind::kRandom;
  base.heartbeat_interval = 800;
  base.transport.backend = net::TransportKind::kShmRing;
  base.store.model = store::Persistency::kLocal;

  constexpr std::size_t kPrograms = 3;
  constexpr std::size_t kVariants = 8;
  const char* const kFamilies[] = {"crash", "rect", "cascade", "partition",
                                   "link+gray"};
  constexpr std::size_t kPartition = 3;
  std::uint64_t i = 0;
  // Splice runs the first block of the round, rollback the second.
  for (const auto kind : {core::RecoveryKind::kSplice,
                          core::RecoveryKind::kRollback}) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
        // Partitions run under splice only: under rollback a few seeds in a
        // thousand never complete (README.md), and a seeded op must not fail.
        if (f == kPartition && kind == core::RecoveryKind::kRollback) continue;
        for (std::size_t prog = 0; prog < kPrograms; ++prog, ++i) {
          core::SystemConfig cfg = base;
          cfg.recovery.kind = kind;
          cfg.seed = draw(seed, 1, i);
          const std::int64_t node = below(draw(seed, 2, i), 64);
          const std::int64_t row = below(draw(seed, 3, i), 7);
          const std::int64_t col = below(draw(seed, 4, i), 7);
          const std::string plan_seed =
              ";seed:" + dec(below(draw(seed, 5, i), 1000000));
          std::string plan;
          switch (f) {
            case 0:
              plan = "kill:" + dec(node) + "@800;rejoin:700,warm";
              break;
            case 1:
              plan = "rect:" + dec(row) + "," + dec(col) +
                     ",2x2@800;rejoin:700,warm";
              break;
            case 2:
              plan = "cascade:" + dec(node) +
                     "@800,p=0.8,hops=2;rejoin:700,warm" + plan_seed;
              break;
            case kPartition:
              // Heals 1500 ticks after the cut: cuts that heal within ~850
              // ticks livelock (README.md, reproducer b).
              plan = "partition:rect(" + dec(row) + "," + dec(col) +
                     ",2x2)@1200,heal=1500" + plan_seed;
              break;
            default:
              plan = "link:*-*@300,drop=0.02,dup=0.02,reorder=0.05,until=4000"
                     ";gray:" + dec(node) + "@300,drop=0.5,slow=2,until=4000" +
                     plan_seed;
              break;
          }
          w.ops.push_back(make_op(kFamilies[f], prog, cfg, plan));
        }
      }
    }
  }

  // Two known livelocks, kept on fixed inputs that do not depend on the
  // seed (README.md, "Operations that fail every time").
  core::SystemConfig cold16;
  cold16.processors = 16;
  cold16.topology = net::TopologyKind::kMesh2D;
  cold16.scheduler.kind = core::SchedulerKind::kRandom;
  cold16.seed = 36;
  Op cold_rejoin = make_op("repro-cold-rejoin", 3, cold16,
                           "kill:3@500;kill:3@1500;rejoin:700");
  cold_rejoin.reproducer = true;
  w.ops.push_back(std::move(cold_rejoin));

  core::SystemConfig heal = base;
  heal.seed = 278;
  Op partition_heal = make_op("repro-partition-heal", 0, heal,
                              "partition:rect(4,0,2x8)@699,heal=699;seed:79");
  partition_heal.reproducer = true;
  w.ops.push_back(std::move(partition_heal));

  return w;
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "faultfree_256") return faultfree_256(seed);
  if (name == "chaos_64") return chaos_64(seed);
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

}  // namespace costbench
