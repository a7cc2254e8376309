// costbench: the end-to-end and per-layer cost of the splice recovery
// machine on two fixed workloads (README.md).
//
//   costbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Untraced (--trace 0): set up nine times, then run whole rounds of the
// workload's operations until S seconds have passed and enough operations
// were made for run_ms_tail; print the end-to-end metrics.
// Traced (--trace 1): one round with spans around every public call, the
// program's own counters, a recorder-on pass and, on faultfree_256, replays
// of every operation on the PDES engine; print the per-layer metrics
// and write <D>/<workload>.spans.json and <D>/<workload>.journal.json.
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc_count.h"
#include "checks.h"
#include "obs/export.h"
#include "spans.h"
#include "splice.h"
#include "workloads.h"

using namespace splice;
using namespace costbench;

namespace {

// The first set-ups of a process run cold (heap growth, page faults); the
// median of nine lies among the warm ones.
constexpr int kSetups = 9;
// run_ms_tail's percentile, and the fewest operations a run makes so that
// at least ten lie beyond it.
constexpr double kTailQuantile = 0.95;
constexpr std::size_t kMinOps = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value != "0";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Linear interpolation between order statistics, h = (n-1)q; a failed
/// operation enters as +inf, above any limit.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double h = (static_cast<double>(v.size()) - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (!std::isfinite(v[hi])) return v[hi];
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void error(std::string e) {
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = std::numeric_limits<double>::max();
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_json(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

// ---- one operation ---------------------------------------------------------

struct Outcome {
  core::RunResult result;
  double construct_us = 0;
  double run_us = 0;
  double check_us = 0;  // independent checks, the oracle among them
  // Construct + run. Allocations are counted only while counting is on.
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t eventfn_spills = 0;
  std::string error;  // a completed run that fails a check
};

/// Where a traced op's spans go: the log, the op's id and its cause.
struct Tracing {
  SpanLog* log = nullptr;
  std::uint64_t op = 0;
  SpanLog::Id cause = SpanLog::kNoCause;
};

/// Construct, run and check one operation. `inspect` sees the finished
/// simulation before it is destroyed.
Outcome run_op(const Workload& w, const Op& op, const core::SystemConfig& cfg,
               const Tracing& tracing = {},
               const std::function<void(core::Simulation&)>& inspect = {}) {
  const ProgramCase& pc = w.programs[op.program];
  auto timed = [&](const char* name, auto&& fn) {
    const SpanLog::Id id =
        tracing.log ? tracing.log->open(name, tracing.op, tracing.cause) : 0;
    const double t0 = now_us();
    fn();
    return tracing.log ? tracing.log->close(id) : now_us() - t0;
  };

  Outcome out;
  const std::uint64_t allocs0 = alloc::count();
  const std::uint64_t bytes0 = alloc::bytes();
  const std::uint64_t spills0 = sim::EventFn::heap_fallbacks();
  std::optional<core::Simulation> simulation;
  out.construct_us = timed("construct", [&] {
    simulation.emplace(cfg, pc.program);
    if (!op.plan.empty()) simulation->set_fault_plan(op.parsed);
  });
  out.run_us = timed("run", [&] { out.result = simulation->run(); });
  out.allocs = alloc::count() - allocs0;
  out.alloc_bytes = alloc::bytes() - bytes0;
  out.eventfn_spills = sim::EventFn::heap_fallbacks() - spills0;
  out.check_us = timed("oracle-check", [&] {
    if (out.result.completed) {
      out.error = check_run(pc, out.result, op.plan.empty());
    }
  });
  if (inspect) inspect(*simulation);
  return out;
}

/// Names an operation that did not complete. Only the known reproducers may
/// fail; a seeded operation that does is a check failure.
std::string did_not_complete(const Workload& w, const Op& op) {
  return op.family + " " + w.programs[op.program].name + " plan '" + op.plan +
         "' seed " + std::to_string(op.config.seed) + " did not complete";
}

// ---- set-up ----------------------------------------------------------------

struct Prepared {
  Workload w;
  std::vector<std::uint64_t> tasks;  // call-tree tasks per program
  double reference_ms = 0;
  double setup_s = 0;
};

/// Programs, reference evaluation, plan generation and one warm-up op.
Prepared set_up(const Args& args, Report& report, SpanLog* log = nullptr) {
  const double t0 = now_us();
  const SpanLog::Id root = log ? log->open("set-up", 0) : 0;
  auto open = [&](std::string name) {
    return log ? log->open(std::move(name), 0, root) : 0;
  };
  Prepared p;
  SpanLog::Id span = open("plan-generation");
  p.w = make_workload(args.workload, args.seed);
  if (log) log->close(span);
  for (const ProgramCase& pc : p.w.programs) {
    const double r0 = now_us();
    span = open("reference:" + pc.name);
    const lang::EvalStats& stats = lang::cached_reference(pc.program).stats;
    if (log) log->close(span);
    p.reference_ms += (now_us() - r0) / 1e3;
    p.tasks.push_back(call_tree_tasks(pc));
    if (stats.calls != p.tasks.back()) {
      report.error(pc.name + ": reference interpreter made " +
                   std::to_string(stats.calls) + " calls, call tree has " +
                   std::to_string(p.tasks.back()));
    }
  }
  const Op& warm = p.w.ops.front();
  const Outcome o = run_op(p.w, warm, warm.config, {log, 0, root});
  if (!o.result.completed || !o.error.empty()) {
    report.error("warm-up op failed: " + o.error);
  }
  if (log) log->close(root);
  p.setup_s = (now_us() - t0) / 1e6;
  return p;
}

/// A fault-free run of the workload's smallest program, fed wrong answers
/// and counts: every check must reject them.
void run_negative_control(const Prepared& p, Report& report) {
  std::size_t smallest = p.w.ops.front().program;
  for (const Op& op : p.w.ops) {
    if (!op.reproducer && p.tasks[op.program] < p.tasks[smallest]) {
      smallest = op.program;
    }
  }
  Op clean = p.w.ops.front();
  clean.program = smallest;
  clean.plan.clear();
  clean.parsed = {};
  const Outcome o = run_op(p.w, clean, clean.config);
  if (!o.result.completed) {
    report.error("negative control: fault-free sample did not complete");
    return;
  }
  const std::string verdict = negative_control(p.w.programs, smallest, o.result);
  if (!verdict.empty()) report.error("negative control: " + verdict);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- untraced: end-to-end metrics ---------------------------------------------

void measure(const Args& args, const Prepared& p, std::vector<double> setups,
             Report& report) {
  const Workload& w = p.w;
  struct Signature {
    bool completed;
    std::int64_t makespan;
    std::uint64_t created;
    std::uint64_t sent;
    bool operator==(const Signature&) const = default;
  };
  std::vector<Signature> first_round;
  std::vector<double> op_ms;  // failed ops as +inf
  std::vector<double> makespans;
  double wall_s = 0;
  double ok_tasks = 0;
  double ok_created = 0;
  double ok_sent = 0;

  const double start = now_us();
  for (std::size_t round = 0;; ++round) {
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      const Op& op = w.ops[i];
      const double t0 = now_us();
      const Outcome o = run_op(w, op, op.config);
      const double ms = (now_us() - t0) / 1e3;
      wall_s += ms / 1e3;
      const core::RunResult& r = o.result;
      ++report.attempted;
      const Signature sig{r.completed, r.makespan_ticks,
                          r.counters.tasks_created, r.net.total_sent()};
      if (round == 0) {
        first_round.push_back(sig);
      } else if (first_round[i] != sig) {
        report.error("op " + std::to_string(i) + " (" + op.family +
                     ") did not repeat its first round exactly");
      }
      if (!r.completed) {
        ++report.failed;
        op_ms.push_back(std::numeric_limits<double>::infinity());
        if (!op.reproducer) {
          report.error(did_not_complete(w, op));
        } else if (round == 0) {
          std::cerr << "known failure: " << did_not_complete(w, op) << "\n";
        }
        continue;
      }
      if (!o.error.empty()) report.error(o.error + " [plan '" + op.plan + "']");
      op_ms.push_back(ms);
      makespans.push_back(static_cast<double>(r.makespan_ticks));
      ok_tasks += static_cast<double>(p.tasks[op.program]);
      ok_created += static_cast<double>(r.counters.tasks_created);
      ok_sent += static_cast<double>(r.net.total_sent());
    }
    const double elapsed_s = (now_us() - start) / 1e6;
    if (elapsed_s >= args.seconds && op_ms.size() >= kMinOps) {
      std::cerr << w.name << ": " << round + 1 << " rounds of "
                << w.ops.size() << " ops in " << elapsed_s << " s\n";
      break;
    }
  }

  std::sort(setups.begin(), setups.end());
  report.add("setup_s", setups[setups.size() / 2], "s");
  report.add("run_ms_p50", quantile(op_ms, 0.5), "ms");
  report.add("run_ms_tail", quantile(op_ms, kTailQuantile), "ms");
  report.add("goodput_tasks_per_s", ratio(ok_tasks, wall_s), "tasks/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("makespan_ticks_p50", quantile(makespans, 0.5), "ticks");
  report.add("msgs_per_task", ratio(ok_sent, ok_tasks), "msgs/task");
  report.add("redo_ratio", ratio(ok_created, ok_tasks), "ratio");
}

// ---- traced: per-layer metrics ----------------------------------------------

static_assert(std::has_unique_object_representations_v<core::Counters>,
              "Counters is compared bytewise");
static_assert(std::has_unique_object_representations_v<net::NetworkStats>,
              "NetworkStats is compared bytewise");

/// Sums over the round's completed operations.
struct Layers {
  double tasks = 0;  // call-tree tasks
  double events = 0;
  double spills = 0;
  double allocs = 0;
  double alloc_bytes = 0;
  double busy = 0;
  double capacity = 0;  // makespan x processors
  core::Counters c;
  net::NetworkStats net;
  net::WireStats wire;
  double revived = 0;
  double stranded = 0;
  std::vector<double> construct_us, run_ms, check_us, detection;
  double off_us = 0, on_us = 0, journal_events = 0, journal_dropped = 0;
  double spawns = 0, remote_spawns = 0;  // in the journals' retained windows
  double engine_us = 0, one_shard_us = 0;
  double engine_makespan = 0, classic_makespan = 0;
};

void add_layers(Layers& l, const core::RunResult& r, double tasks) {
  l.tasks += tasks;
  l.events += static_cast<double>(r.sim_events);
  l.busy += static_cast<double>(r.counters.busy_ticks);
  l.capacity += static_cast<double>(r.makespan_ticks) * r.processors;
  const std::uint64_t peak_entries =
      std::max(l.c.checkpoint_peak_entries, r.counters.checkpoint_peak_entries);
  const std::uint64_t peak_units =
      std::max(l.c.checkpoint_peak_units, r.counters.checkpoint_peak_units);
  l.c.merge(r.counters);
  l.c.checkpoint_peak_entries = peak_entries;
  l.c.checkpoint_peak_units = peak_units;
  l.net.merge(r.net);
  l.revived += static_cast<double>(r.nodes_revived);
  l.stranded += static_cast<double>(r.stranded_tasks);
  if (r.detection_ticks >= 0 && r.first_failure_ticks >= 0) {
    l.detection.push_back(
        static_cast<double>(r.detection_ticks - r.first_failure_ticks));
  }
}

void write_file(const std::string& path, const auto& writer, Report& report) {
  std::ofstream out(path);
  writer(out);
  if (!out) report.error("could not write " + path);
}

void trace(const Args& args, Report& report) {
  SpanLog log;
  const Prepared p = set_up(args, report, &log);
  run_negative_control(p, report);
  const Workload& w = p.w;
  Layers l;
  bool exported = false;
  alloc::set_counting(true);

  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const Op& op = w.ops[i];
    const std::uint64_t id = i + 1;
    const SpanLog::Id root = log.open("op:" + op.family, id);
    const SpanLog::Id parse = log.open("parse", id, root);
    if (!op.plan.empty()) (void)core::parse_fault_plan(op.plan);
    log.close(parse);
    net::WireStats wire;
    const Outcome o =
        run_op(w, op, op.config, {&log, id, root}, [&](core::Simulation& s) {
          wire = s.runtime_for_test().network().wire();
        });

    ++report.attempted;
    if (!o.result.completed) {
      ++report.failed;
      if (!op.reproducer) report.error(did_not_complete(w, op));
      log.close(root);
      continue;
    }
    if (!o.error.empty()) report.error(o.error);
    add_layers(l, o.result, static_cast<double>(p.tasks[op.program]));
    l.wire.frames += wire.frames;
    l.wire.frame_bytes += wire.frame_bytes;
    l.wire.encode_ns += wire.encode_ns;
    l.wire.decode_ns += wire.decode_ns;
    l.wire.ring_spills += wire.ring_spills;
    l.spills += static_cast<double>(o.eventfn_spills);
    l.allocs += static_cast<double>(o.allocs);
    l.alloc_bytes += static_cast<double>(o.alloc_bytes);
    l.construct_us.push_back(o.construct_us);
    l.run_ms.push_back(o.run_us / 1e3);
    l.check_us.push_back(o.check_us);
    l.off_us += o.construct_us + o.run_us;

    // Recorder on: the same run with its journal kept.
    core::SystemConfig recorded = op.config;
    recorded.obs.recorder = true;
    const SpanLog::Id on = log.open("run:recorder-on", id, root);
    const Outcome r = run_op(w, op, recorded, {}, [&](core::Simulation& s) {
      const obs::Recorder& rec = s.recorder();
      l.journal_events += static_cast<double>(rec.total_recorded());
      l.journal_dropped += static_cast<double>(rec.dropped());
      rec.for_each([&](const obs::Event& e, const std::string&) {
        if (e.kind != obs::EventKind::kSpawn) return;
        l.spawns += 1;
        if (e.peer != e.proc) l.remote_spawns += 1;
      });
      if (exported || (op.plan.empty() && i + 1 < w.ops.size())) return;
      const SpanLog::Id e = log.open("journal-export", id, on);
      write_file(args.out_dir + "/" + w.name + ".journal.json",
                 [&](std::ostream& out) {
                   obs::write_perfetto(rec.snapshot(), rec.metrics().series(),
                                       out);
                 },
                 report);
      log.close(e);
      exported = true;
    });
    log.close(on);
    l.on_us += r.construct_us + r.run_us;
    if (r.result.makespan_ticks != o.result.makespan_ticks ||
        r.result.counters.tasks_created != o.result.counters.tasks_created) {
      report.error("recorder on changed the run of op " + std::to_string(id));
    }

    if (w.engine_shards > 0) {
      // The same op on the PDES engine at K shards and at one. The engine's
      // determinism contract: any shard count reproduces K=1 exactly.
      core::SystemConfig engine = op.config;
      engine.parallel.shards = w.engine_shards;
      SpanLog::Id span = log.open("run:engine-k" + std::to_string(w.engine_shards),
                                  id, root);
      const Outcome kn = run_op(w, op, engine);
      log.close(span);
      engine.parallel.shards = 1;
      span = log.open("run:engine-k1", id, root);
      const Outcome k1 = run_op(w, op, engine);
      log.close(span);
      l.engine_us += kn.construct_us + kn.run_us;
      l.one_shard_us += k1.construct_us + k1.run_us;
      l.engine_makespan += static_cast<double>(kn.result.makespan_ticks);
      l.classic_makespan += static_cast<double>(o.result.makespan_ticks);
      const core::RunResult& a = kn.result;
      const core::RunResult& b = k1.result;
      if (!a.completed || !kn.error.empty() || a.answer != b.answer ||
          a.makespan_ticks != b.makespan_ticks ||
          std::memcmp(&a.counters, &b.counters, sizeof a.counters) != 0 ||
          std::memcmp(&a.net, &b.net, sizeof a.net) != 0) {
        report.error("op " + std::to_string(id) + " on the engine: " +
                     (kn.error.empty() ? std::to_string(w.engine_shards) +
                                             " shards differ from one"
                                       : kn.error));
      }
    }
    log.close(root);
  }
  alloc::set_counting(false);

  write_file(args.out_dir + "/" + w.name + ".spans.json",
             [&](std::ostream& out) { log.write_chrome_trace(out); }, report);

  const core::Counters& c = l.c;
  const auto n = [](auto v) { return static_cast<double>(v); };
  const double t = l.tasks;
  report.add("core.construct_us", quantile(l.construct_us, 0.5), "us");
  report.add("core.run_ms", quantile(l.run_ms, 0.5), "ms");
  report.add("lang.reference_ms", p.reference_ms, "ms");
  report.add("sim.events_per_task", ratio(l.events, t), "events/task");
  report.add("sim.eventfn_spills", l.spills, "count");
  report.add("alloc.allocs_per_task", ratio(l.allocs, t), "allocs/task");
  report.add("alloc.bytes_per_task", ratio(l.alloc_bytes, t), "B/task");
  report.add("runtime.busy_share", ratio(l.busy, l.capacity), "ratio");
  report.add("sched.remote_spawn_ratio", ratio(l.remote_spawns, l.spawns),
             "ratio");
  report.add("checkpoint.records_per_task", ratio(n(c.checkpoint_records), t),
             "records/task");
  report.add("checkpoint.subsumed_per_task",
             ratio(n(c.checkpoint_subsumed), t), "records/task");
  report.add("checkpoint.peak_entries", n(c.checkpoint_peak_entries), "count");
  report.add("checkpoint.peak_units", n(c.checkpoint_peak_units), "units");
  report.add("checkpoint.taken", n(c.checkpoint_taken), "count");
  report.add("checkpoint.evicted", n(c.checkpoint_evicted), "count");
  report.add("recovery.oracle_check_us", quantile(l.check_us, 0.5), "us");
  report.add("recovery.respawned", n(c.tasks_respawned), "count");
  report.add("recovery.twins", n(c.twins_created), "count");
  report.add("recovery.salvaged", n(c.orphan_results_salvaged), "count");
  report.add("recovery.relayed", n(c.results_relayed), "count");
  report.add("recovery.cancels_sent", n(c.cancels_sent), "count");
  report.add("recovery.tasks_cancelled", n(c.tasks_cancelled), "count");
  report.add("recovery.detection_ticks_p50", quantile(l.detection, 0.5),
             "ticks");
  report.add("recovery.reclaim_latency_ticks_mean",
             ratio(n(c.reclaim_latency_ticks),
                   n(c.tasks_cancelled + c.orphans_gced)),
             "ticks");
  report.add("runtime.tasks_aborted", n(c.tasks_aborted), "count");
  report.add("runtime.tasks_lost_to_crash", n(c.tasks_lost_to_crash), "count");
  report.add("runtime.stranded_tasks", l.stranded, "count");
  for (std::size_t k = 0; k < net::kMsgKindCount; ++k) {
    report.add("net.sent_per_task." +
                   std::string(net::to_string(static_cast<net::MsgKind>(k))),
               ratio(n(l.net.sent[k]), t), "msgs/task");
  }
  report.add("net.link_dropped", n(l.net.link_dropped), "count");
  report.add("net.link_duplicated", n(l.net.link_duplicated), "count");
  report.add("net.link_reordered", n(l.net.link_reordered), "count");
  report.add("net.partition_cut", n(l.net.partition_cut), "count");
  report.add("net.gray_dropped", n(l.net.gray_dropped), "count");
  report.add("net.codec_ns_per_frame",
             ratio(n(l.wire.encode_ns + l.wire.decode_ns), n(l.wire.frames)),
             "ns/frame");
  report.add("net.bytes_per_frame",
             ratio(n(l.wire.frame_bytes), n(l.wire.frames)), "B/frame");
  report.add("net.ring_spills", n(l.wire.ring_spills), "count");
  report.add("store.entries_logged_per_task",
             ratio(n(c.store_entries_logged), t), "entries/task");
  report.add("store.records_replayed", n(c.store_records_replayed), "count");
  report.add("store.state_chunks_sent", n(c.state_chunks_sent), "count");
  report.add("store.reissues_avoided", n(c.reissues_avoided), "count");
  report.add("store.catch_up_ticks_mean",
             ratio(n(c.catch_up_ticks), l.revived), "ticks");
  report.add("pdes.speedup_vs_k1", ratio(l.one_shard_us, l.engine_us), "x");
  report.add("pdes.makespan_vs_classic",
             ratio(l.engine_makespan, l.classic_makespan), "ratio");
  report.add("obs.recorder_overhead", ratio(l.on_us, l.off_us) - 1, "ratio");
  report.add("obs.journal_events_per_task", ratio(l.journal_events, t),
             "events/task");
  report.add("obs.journal_dropped", l.journal_dropped, "count");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "costbench: " << e.what() << "\n";
    return 2;
  }
  Report report;
  try {
    if (args.trace) {
      trace(args, report);
    } else {
      std::vector<double> setups;
      Prepared p;
      for (int i = 0; i < kSetups; ++i) {
        p = set_up(args, report);
        setups.push_back(p.setup_s);
      }
      run_negative_control(p, report);
      measure(args, p, setups, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "costbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& e : report.errors) std::cerr << "CHECK: " << e << "\n";
  std::cout << args.workload << " seed " << args.seed << ": attempted "
            << report.attempted << ", failed " << report.failed
            << (report.correct ? ", every check held" : ", CHECKS FAILED")
            << "\n";
  print_json(report);
  return report.correct ? 0 : 1;
}
