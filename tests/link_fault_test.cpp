// Link-level chaos engine: seeded determinism of every perturbation
// (drop/dup/reorder/delay), the partition-and-heal lifecycle, and the gray
// failure's defining property — the node is never detected dead even while
// its payload traffic starves.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/simulation.h"
#include "lang/interpreter.h"
#include "net/fault_injector.h"
#include "net/link_faults.h"
#include "net/network.h"
#include "net/transport.h"
#include "recovery/recovery_oracle.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace splice {
namespace {

using core::RunResult;
using core::SystemConfig;
using net::GraySpec;
using net::LinkFaultModel;
using net::LinkQuality;
using net::MsgKind;

// ---------------------------------------------------------------------------
// LinkFaultModel unit: the verdict stream is a pure function of
// (seed, directed link, sequence number)
// ---------------------------------------------------------------------------

LinkQuality noisy_link() {
  LinkQuality q;
  q.drop_p = 0.25;
  q.dup_p = 0.2;
  q.reorder_p = 0.2;
  q.delay = 10;
  q.jitter = 30;
  return q;
}

using Fingerprint = std::vector<
    std::tuple<bool, bool, bool, bool, bool, std::int64_t, std::int64_t>>;

Fingerprint verdict_stream(std::uint64_t seed, int draws) {
  LinkFaultModel model(seed, 4);
  model.add_link(noisy_link());
  GraySpec g;
  g.node = 2;
  g.payload_drop_p = 0.4;
  model.add_gray(g);
  Fingerprint out;
  for (int i = 0; i < draws; ++i) {
    // Alternate links and kinds so per-link counters and the gray path all
    // participate in the stream.
    const net::ProcId from = static_cast<net::ProcId>(i % 3);
    const net::ProcId to = static_cast<net::ProcId>((i % 3) + 1);
    const MsgKind kind = (i % 2) == 0 ? MsgKind::kTaskPacket
                                      : MsgKind::kForwardResult;
    const auto v = model.shape(kind, from, to, sim::SimTime(i * 7),
                               sim::SimTime(100));
    out.push_back({v.cut, v.drop, v.gray_drop, v.duplicate, v.reordered,
                   v.extra.ticks(), v.dup_extra.ticks()});
  }
  return out;
}

TEST(LinkFaultModel, VerdictStreamReplaysBitIdenticallyPerSeed) {
  const Fingerprint a = verdict_stream(42, 400);
  const Fingerprint b = verdict_stream(42, 400);
  const Fingerprint c = verdict_stream(43, 400);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 400 draws: astronomically unlikely to collide
}

TEST(LinkFaultModel, GrayNeverDropsControlTraffic) {
  LinkFaultModel model(7, 4);
  GraySpec g;
  g.node = 1;
  g.payload_drop_p = 1.0;  // every payload message dies...
  g.slow_factor = 4;
  model.add_gray(g);
  for (int i = 0; i < 50; ++i) {
    const auto control = model.shape(MsgKind::kHeartbeat, 0, 1,
                                     sim::SimTime(i), sim::SimTime(100));
    EXPECT_FALSE(control.gray_drop);  // ...but control always gets through
    EXPECT_FALSE(control.drop);
    EXPECT_GT(control.extra.ticks(), 0);  // slowed, though
    const auto payload = model.shape(MsgKind::kTaskPacket, 0, 1,
                                     sim::SimTime(i), sim::SimTime(100));
    EXPECT_TRUE(payload.gray_drop);
  }
  // Traffic not touching the gray node is unshaped.
  const auto clean = model.shape(MsgKind::kTaskPacket, 2, 3, sim::SimTime(0),
                                 sim::SimTime(100));
  EXPECT_FALSE(clean.gray_drop);
  EXPECT_EQ(clean.extra.ticks(), 0);
}

TEST(LinkFaultModel, PartitionWindowGovernsReachability) {
  LinkFaultModel model(1, 4);
  model.add_partition({0, 1}, sim::SimTime(100), sim::SimTime(200));
  // Before the cut: everyone reaches everyone.
  EXPECT_TRUE(model.reachable(0, 2, sim::SimTime(50)));
  // During: cross-cut pairs are severed, intra-side pairs untouched.
  EXPECT_FALSE(model.reachable(0, 2, sim::SimTime(150)));
  EXPECT_FALSE(model.reachable(3, 1, sim::SimTime(150)));
  EXPECT_TRUE(model.reachable(0, 1, sim::SimTime(150)));
  EXPECT_TRUE(model.reachable(2, 3, sim::SimTime(150)));
  // After the heal: reconnected.
  EXPECT_TRUE(model.reachable(0, 2, sim::SimTime(200)));
  // And shape() reports the cut verdict inside the window only.
  EXPECT_TRUE(model
                  .shape(MsgKind::kTaskPacket, 0, 2, sim::SimTime(150),
                         sim::SimTime(100))
                  .cut);
  EXPECT_FALSE(model
                   .shape(MsgKind::kTaskPacket, 0, 2, sim::SimTime(250),
                          sim::SimTime(100))
                   .cut);
}

TEST(LinkFaultModel, DirectedSpecShapesOneDirectionOnly) {
  LinkFaultModel model(1, 4);
  LinkQuality q;
  q.src = 0;
  q.dst = 1;
  q.symmetric = false;
  q.drop_p = 1.0;
  model.add_link(q);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(model
                    .shape(MsgKind::kTaskPacket, 0, 1, sim::SimTime(i),
                           sim::SimTime(100))
                    .drop);
    EXPECT_FALSE(model
                     .shape(MsgKind::kTaskPacket, 1, 0, sim::SimTime(i),
                            sim::SimTime(100))
                     .drop);
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: a seeded chaotic run replays bit-identically
// ---------------------------------------------------------------------------

/// Every observable of the run must match, from the answer through protocol
/// counters to the per-kind wire totals and the link-fault tallies.
void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.answer, b.answer);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.detection_ticks, b.detection_ticks);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.stranded_tasks, b.stranded_tasks);
  EXPECT_EQ(a.counters.tasks_created, b.counters.tasks_created);
  EXPECT_EQ(a.counters.tasks_completed, b.counters.tasks_completed);
  EXPECT_EQ(a.counters.tasks_respawned, b.counters.tasks_respawned);
  EXPECT_EQ(a.counters.cancels_sent, b.counters.cancels_sent);
  EXPECT_EQ(a.counters.wire_dups_discarded, b.counters.wire_dups_discarded);
  EXPECT_EQ(a.counters.busy_ticks, b.counters.busy_ticks);
  for (std::size_t k = 0; k < net::kMsgKindCount; ++k) {
    EXPECT_EQ(a.net.sent[k], b.net.sent[k]) << "sent kind " << k;
    EXPECT_EQ(a.net.delivered[k], b.net.delivered[k]) << "delivered " << k;
  }
  EXPECT_EQ(a.net.partition_cut, b.net.partition_cut);
  EXPECT_EQ(a.net.link_dropped, b.net.link_dropped);
  EXPECT_EQ(a.net.gray_dropped, b.net.gray_dropped);
  EXPECT_EQ(a.net.link_duplicated, b.net.link_duplicated);
  EXPECT_EQ(a.net.link_reordered, b.net.link_reordered);
  EXPECT_EQ(a.net.link_delay_ticks, b.net.link_delay_ticks);
  EXPECT_EQ(a.net.failure_notices, b.net.failure_notices);
}

SystemConfig chaos_config(std::uint64_t seed) {
  SystemConfig cfg = testing::base_config(8, seed);
  cfg.reclaim.cancellation = true;
  cfg.reclaim.gc_interval = 400;
  cfg.reclaim.gc_oracle = true;
  return cfg;
}

TEST(LinkChaosAB, SeededLossyRunReplaysBitIdentically) {
  net::FaultPlan plan = net::FaultPlan::link(noisy_link());
  plan.with_seed(11);
  const lang::Program program = lang::programs::fib(12, 40);
  const SystemConfig cfg = chaos_config(3);
  const RunResult a = core::run_once(cfg, program, plan);
  const RunResult b = core::run_once(cfg, program, plan);
  ASSERT_TRUE(a.completed) << a.summary();
  EXPECT_TRUE(a.answer_correct) << a.summary();
  expect_same_run(a, b);
  // Every perturbation class actually fired — the determinism assertion
  // above would be vacuous over an unperturbed run.
  EXPECT_GT(a.net.link_dropped, 0U);
  EXPECT_GT(a.net.link_duplicated, 0U);
  EXPECT_GT(a.net.link_reordered, 0U);
  EXPECT_GT(a.net.link_delay_ticks, 0U);
  // Lossy links never condemn a live node (§1 applies to *unreachable*
  // nodes): detection must not have fired.
  EXPECT_EQ(a.detection_ticks, -1);
  EXPECT_EQ(a.counters.gc_oracle_orphans, 0U);
}

TEST(LinkChaosAB, DistinctSeedsDrawDistinctPerturbations) {
  const lang::Program program = lang::programs::fib(12, 40);
  const SystemConfig cfg = chaos_config(3);
  net::FaultPlan plan_a = net::FaultPlan::link(noisy_link());
  plan_a.with_seed(101);
  net::FaultPlan plan_b = net::FaultPlan::link(noisy_link());
  plan_b.with_seed(202);
  const RunResult a = core::run_once(cfg, program, plan_a);
  const RunResult b = core::run_once(cfg, program, plan_b);
  ASSERT_TRUE(a.completed && b.completed);
  // Hundreds of independent draws: the streams cannot coincide.
  EXPECT_NE(std::make_tuple(a.net.link_dropped, a.net.link_delay_ticks,
                            a.sim_events),
            std::make_tuple(b.net.link_dropped, b.net.link_delay_ticks,
                            b.sim_events));
}

// ---------------------------------------------------------------------------
// Partitions: cut, detect, recover, heal, reconcile
// ---------------------------------------------------------------------------

TEST(Partition, ScheduledHealConvergesWithNothingLeaked) {
  // Cut the bottom half of the 4x4 mesh off for a while mid-run. Survivors
  // treat the far side as faulty (§1), respawn its work, and cancel the
  // duplicates once the heal reconciles the mutual suspicion.
  for (const std::uint64_t seed : {1u, 5u, 9u}) {
    SystemConfig cfg = chaos_config(seed);
    cfg.processors = 16;
    net::FaultPlan plan = net::FaultPlan::partition(
        net::RegionSpec::grid_rect(2, 0, 2, 4), sim::SimTime(2000),
        sim::SimTime(6000));
    plan.with_seed(seed);
    const RunResult r =
        core::run_once(cfg, lang::programs::fib(13, 40), plan);
    ASSERT_TRUE(r.completed) << r.summary();
    EXPECT_TRUE(r.answer_correct) << r.summary();
    EXPECT_GT(r.net.partition_cut, 0U) << "the cut never bit";
    EXPECT_GE(r.detection_ticks, 0) << "no one noticed the partition";
    EXPECT_EQ(r.counters.gc_oracle_orphans, 0U) << r.summary();
  }
}

TEST(Partition, NeverHealingMinorityCutStillCompletes) {
  // The bottom row (4 of 16) is cut off forever. The majority side holds
  // the root: it must finish without the minority, exactly as if that row
  // had crashed — weak recovery does not wait for a heal that never comes.
  SystemConfig cfg = chaos_config(2);
  cfg.processors = 16;
  net::FaultPlan plan = net::FaultPlan::partition(
      net::RegionSpec::grid_rect(3, 0, 1, 4), sim::SimTime(1500));
  plan.with_seed(2);
  const RunResult r = core::run_once(cfg, lang::programs::fib(13, 40), plan);
  ASSERT_TRUE(r.completed) << r.summary();
  EXPECT_TRUE(r.answer_correct) << r.summary();
  EXPECT_GT(r.net.partition_cut, 0U);
}

TEST(Partition, ProbabilisticHealIsSeedDeterministic) {
  // A heal drawn from an exponential still replays bit-identically: the
  // delay is a pure function of the plan seed.
  SystemConfig cfg = chaos_config(4);
  cfg.processors = 16;
  auto run = [&cfg](std::uint64_t plan_seed) {
    net::FaultPlan plan;
    net::PartitionSpec cut;
    cut.side = net::RegionSpec::grid_rect(2, 0, 2, 4);
    cut.at = sim::SimTime(2000);
    cut.heal_mean = 4000.0;
    plan.partitions.push_back(cut);
    plan.with_seed(plan_seed);
    return core::run_once(cfg, lang::programs::fib(13, 40), plan);
  };
  const RunResult a = run(7);
  const RunResult b = run(7);
  ASSERT_TRUE(a.completed) << a.summary();
  expect_same_run(a, b);
}

// ---------------------------------------------------------------------------
// Verdict dissemination: one coalesced kErrorDetection per addressee, never
// addressed to a peer the sender already believes dead
// ---------------------------------------------------------------------------

TEST(VerdictDissemination, OneTicksDetectionsShareOneVerdictPerAddressee) {
  constexpr net::ProcId kProcs = 16;
  SystemConfig cfg = chaos_config(1);
  cfg.processors = kProcs;
  const lang::Program program = lang::programs::fib(8, 20);
  sim::Simulator sim;
  net::Network network(sim, net::Topology(cfg.topology, kProcs), cfg.latency);
  runtime::Runtime rt(sim, network, cfg, program);
  // Replace the protocol loops with taps: only what the detector sends
  // matters here.
  std::map<net::ProcId, std::vector<runtime::ErrorMsg>> received;
  for (net::ProcId p = 0; p < kProcs; ++p) {
    network.set_receiver(p, [&received, p](net::Envelope&& env) {
      if (env.kind == MsgKind::kErrorDetection) {
        received[p].push_back(std::get<runtime::ErrorMsg>(env.payload));
      }
    });
  }
  runtime::Processor& detector = rt.processor(0);
  detector.learn_dead(9, /*direct_detection=*/false);  // already suspected
  network.kill(5);                                      // not alive
  // Three first-hand detections in one tick, out of id order.
  for (const net::ProcId dead : {12u, 3u, 7u}) {
    detector.learn_dead(dead, /*direct_detection=*/true);
  }
  EXPECT_EQ(network.stats().sent[static_cast<std::size_t>(
                MsgKind::kErrorDetection)],
            0U)
      << "verdicts must wait for the tick's flush";
  sim.run_until();

  const util::SmallVec<net::ProcId, 4> accused{3, 7, 12};
  std::size_t addressed = 0;
  for (net::ProcId p = 0; p < kProcs; ++p) {
    const bool skip = p == 0 || p == 3 || p == 5 || p == 7 || p == 9 || p == 12;
    const auto it = received.find(p);
    if (skip) {
      EXPECT_EQ(it, received.end()) << "P" << p << " must not be addressed";
      continue;
    }
    ASSERT_NE(it, received.end()) << "P" << p << " missed the verdict";
    ASSERT_EQ(it->second.size(), 1U) << "P" << p;
    EXPECT_EQ(it->second[0].accused, accused) << "P" << p;
    EXPECT_EQ(it->second[0].reporter, 0U);
    ++addressed;
  }
  EXPECT_EQ(addressed, kProcs - 6);
  EXPECT_EQ(network.stats().sent[static_cast<std::size_t>(
                MsgKind::kErrorDetection)],
            addressed);
  EXPECT_EQ(detector.counters().direct_detections, 3U);
}

TEST(VerdictDissemination, FlushDropsPeersLearnedAliveSinceQueued) {
  constexpr net::ProcId kProcs = 8;
  SystemConfig cfg = chaos_config(1);
  cfg.processors = kProcs;
  const lang::Program program = lang::programs::fib(8, 20);
  sim::Simulator sim;
  net::Network network(sim, net::Topology(cfg.topology, kProcs), cfg.latency);
  runtime::Runtime rt(sim, network, cfg, program);
  std::vector<runtime::ErrorMsg> received;
  for (net::ProcId p = 0; p < kProcs; ++p) {
    network.set_receiver(p, [&received](net::Envelope&& env) {
      if (env.kind == MsgKind::kErrorDetection) {
        received.push_back(std::get<runtime::ErrorMsg>(env.payload));
      }
    });
  }
  runtime::Processor& detector = rt.processor(0);
  // 4 is back before the flush: only 2 is still accused, and 4 itself is
  // addressed again.
  detector.learn_dead(2, /*direct_detection=*/true);
  detector.learn_dead(4, /*direct_detection=*/true);
  detector.learn_alive(4);
  sim.run_until();
  ASSERT_EQ(received.size(), kProcs - 2);
  for (const runtime::ErrorMsg& verdict : received) {
    EXPECT_EQ(verdict.accused, (util::SmallVec<net::ProcId, 4>{2}));
  }
  // Nobody left to accuse: the flush sends nothing.
  received.clear();
  detector.learn_dead(6, /*direct_detection=*/true);
  detector.learn_alive(6);
  sim.run_until();
  EXPECT_TRUE(received.empty());
}

TEST(VerdictDissemination, OutOfRangeIdsInPayloadsAreIgnored) {
  constexpr net::ProcId kProcs = 16;
  SystemConfig cfg = chaos_config(1);
  cfg.processors = kProcs;
  const lang::Program program = lang::programs::fib(8, 20);
  sim::Simulator sim;
  net::Network network(sim, net::Topology(cfg.topology, kProcs), cfg.latency);
  runtime::Runtime rt(sim, network, cfg, program);
  runtime::Processor& target = rt.processor(0);
  // A corrupt or hostile frame can name any id; only 3 is a processor.
  const net::ProcId killed = 3;
  network.kill(killed);
  net::Envelope verdict;
  verdict.kind = MsgKind::kErrorDetection;
  verdict.from = 1;
  verdict.to = 0;
  verdict.payload = runtime::ErrorMsg{{killed, kProcs, 1000}, 1};
  EXPECT_NO_THROW(target.handle(std::move(verdict)));
  EXPECT_TRUE(target.knows_dead(killed));
  EXPECT_FALSE(target.knows_dead(kProcs));
  EXPECT_FALSE(target.knows_dead(1000));

  net::Envelope rejoin;
  rejoin.kind = MsgKind::kRejoinNotice;
  rejoin.from = 1;
  rejoin.to = 0;
  rejoin.payload = runtime::RejoinMsg{1000};
  EXPECT_NO_THROW(target.handle(std::move(rejoin)));

  net::Envelope request;
  request.kind = MsgKind::kStateRequest;
  request.from = 1;
  request.to = 0;
  request.payload = store::StateRequestMsg{1000, 1};
  EXPECT_NO_THROW(target.handle(std::move(request)));
  sim.run_until();
}

/// In-process transport that audits the dissemination rule at send time:
/// every verdict handed to the substrate — and every verdict a cut or lossy
/// link bounced in the very send that carried it — must be addressed to a
/// peer its sender does not believe dead.
class VerdictAudit final : public net::Transport {
 public:
  explicit VerdictAudit(sim::Simulator& sim)
      : inner_(net::make_in_process_transport(sim)) {
    inner_->set_deliver(
        [this](net::Envelope&& env) { deliver_(std::move(env)); });
  }
  void watch(runtime::Runtime& rt) { rt_ = &rt; }
  [[nodiscard]] net::TransportKind kind() const noexcept override {
    return inner_->kind();
  }
  void submit(net::Envelope&& env, sim::SimTime delay) override {
    audit(env);
    inner_->submit(std::move(env), delay);
  }

  std::uint64_t verdicts = 0;
  std::uint64_t to_suspects = 0;

 private:
  void audit(const net::Envelope& env) {
    const net::Envelope* verdict = &env;
    if (env.kind == MsgKind::kDeliveryFailure) {
      // A send-path bounce is stamped at its original's send time; one
      // generated at delivery (dead destination) was audited when sent.
      const auto& box = std::get<net::EnvelopeBox>(env.payload);
      if (!box.has_value() || box->sent_at != env.sent_at) return;
      verdict = &*box;
    }
    if (verdict->kind != MsgKind::kErrorDetection) return;
    ++verdicts;
    if (rt_->processor(verdict->from).knows_dead(verdict->to)) ++to_suspects;
  }

  std::unique_ptr<net::Transport> inner_;
  runtime::Runtime* rt_ = nullptr;
};

/// The chaos benchmark's partition family: an 8x8 mesh, random scheduler,
/// splice recovery, and a 2x2 cut at tick 1200 that heals after 1500 ticks.
SystemConfig mesh_cut_config(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.processors = 64;
  cfg.topology = net::TopologyKind::kMesh2D;
  cfg.scheduler.kind = core::SchedulerKind::kRandom;
  cfg.recovery.kind = core::RecoveryKind::kSplice;
  cfg.heartbeat_interval = 800;
  cfg.store.model = store::Persistency::kLocal;
  cfg.seed = seed;
  return cfg;
}
constexpr const char* kMeshCut = "partition:rect(3,3,2x2)@1200,heal=1500";

RunResult finish_run(runtime::Runtime& rt, sim::Simulator& sim,
                     const net::FaultInjector& injector,
                     const lang::Program& program) {
  RunResult r = rt.collect(sim.now(), injector.kills_executed());
  r.answer_checked = true;
  r.answer_correct =
      r.completed && r.answer == lang::cached_reference(program).answer;
  return r;
}

TEST(VerdictDissemination, MeshPartitionNeverAddressesSuspects) {
  // Every bounce off the cut teaches its sender one more death, and dozens
  // land in the same tick.
  const SystemConfig cfg = mesh_cut_config(12345);
  const lang::Program program = lang::programs::fib(14, 40);
  const net::FaultPlan plan = core::parse_fault_plan(kMeshCut);

  sim::Simulator sim;
  auto transport = std::make_unique<VerdictAudit>(sim);
  VerdictAudit& audit = *transport;
  net::Network network(sim, net::Topology(cfg.topology, cfg.processors),
                       cfg.latency, std::move(transport));
  runtime::Runtime rt(sim, network, cfg, program);
  audit.watch(rt);
  net::FaultInjector injector(
      sim, network, plan, [&rt](net::ProcId p) { rt.on_kill(p); },
      [&rt](net::ProcId p) { rt.on_revive(p); });
  injector.set_on_heal(
      [&rt](const std::vector<net::ProcId>& side) { rt.on_partition_heal(side); });
  injector.arm();
  rt.start();
  sim.run_until(sim::SimTime(5'000'000));
  const RunResult r = finish_run(rt, sim, injector, program);

  ASSERT_TRUE(r.completed) << r.summary();
  const recovery::OracleReport report = recovery::RecoveryOracle::check(r);
  EXPECT_TRUE(report.ok()) << report.to_string() << r.summary();
  EXPECT_GT(r.net.partition_cut, 0U) << "the cut never bit";
  EXPECT_GT(audit.verdicts, 0U);
  EXPECT_EQ(audit.to_suspects, 0U)
      << "verdicts sent or retransmitted to peers believed dead";
  const std::uint64_t verdicts =
      r.net.sent[static_cast<std::size_t>(MsgKind::kErrorDetection)];
  // Measured: 7 244 verdicts and 74 bounce retransmits (39 960 and 14 702
  // when every detection broadcast alone, suspects included); the bounds
  // leave a margin for protocol drift.
  EXPECT_LE(verdicts, 9000U) << r.summary();
  EXPECT_LE(r.counters.bounce_retransmits, 500U) << r.summary();
}

TEST(VerdictDissemination, CrashDuringCutReachesTheCutAfterHeal) {
  // C is no mesh neighbour of the cut and crashes while the cut stands, so
  // only nodes outside the cut detect it, and their verdicts bounce off the
  // cut. Once the cut heals, every node inside must still hear of C: a cut
  // node holding a checkpoint toward C owes it a reissue, and nothing else
  // it sends need ever reach C.
  for (const std::uint64_t seed : {7ULL, 12345ULL, 99ULL}) {
    SCOPED_TRACE(seed);
    const SystemConfig cfg = mesh_cut_config(seed);
    const lang::Program program = lang::programs::fib(14, 40);
    const net::FaultPlan plan = core::parse_fault_plan(kMeshCut);
    sim::Simulator sim;
    net::Network network(sim, net::Topology(cfg.topology, cfg.processors),
                         cfg.latency);
    runtime::Runtime rt(sim, network, cfg, program);
    net::FaultInjector injector(
        sim, network, plan, [&rt](net::ProcId p) { rt.on_kill(p); },
        [&rt](net::ProcId p) { rt.on_revive(p); });
    injector.set_on_heal([&rt](const std::vector<net::ProcId>& side) {
      rt.on_partition_heal(side);
    });
    injector.arm();
    // Just after the cut falls, pick C from the live checkpoint tables: the
    // first (cut node, destination) pair in id order with a checkpoint held
    // toward a live destination outside the cut and off its boundary.
    std::vector<net::ProcId> cut;
    net::ProcId victim = net::kNoProc;
    sim.at(sim::SimTime(1250), [&] {
      const net::Topology& topo = network.topology();
      std::vector<bool> boundary(cfg.processors, false);
      for (net::ProcId p = 0; p < cfg.processors; ++p) {
        if (network.reachable(0, p)) continue;
        cut.push_back(p);
        for (const net::ProcId q : topo.neighbors(p)) boundary[q] = true;
      }
      for (const net::ProcId n : cut) {
        for (net::ProcId c = 1; c < cfg.processors; ++c) {
          if (!network.reachable(0, c) || boundary[c] || !network.alive(c) ||
              rt.processor(n).table().entry(c).empty()) {
            continue;
          }
          victim = c;
          network.kill(victim);
          rt.on_kill(victim);
          return;
        }
      }
    });
    // The cut heals at 2700; one backoff (800) later every verdict about C
    // has had time to cross.
    std::vector<net::ProcId> unaware;
    sim.at(sim::SimTime(3600), [&] {
      for (const net::ProcId n : cut) {
        if (!rt.processor(n).knows_dead(victim)) unaware.push_back(n);
      }
    });
    rt.start();
    sim.run_until(sim::SimTime(5'000'000));
    const RunResult r = finish_run(rt, sim, injector, program);

    ASSERT_EQ(cut.size(), 4U);
    ASSERT_NE(victim, net::kNoProc) << "no cut node held a far checkpoint";
    EXPECT_TRUE(unaware.empty())
        << unaware.size() << " cut node(s), first P" << unaware.front()
        << ", never heard that P" << victim << " crashed";
    ASSERT_TRUE(r.completed) << r.summary();
    const recovery::OracleReport report = recovery::RecoveryOracle::check(r);
    EXPECT_TRUE(report.ok()) << report.to_string() << r.summary();
  }
}

// ---------------------------------------------------------------------------
// Gray failures: alive, slow, starving — and never detected
// ---------------------------------------------------------------------------

TEST(Gray, NoDetectionYetThroughputDegrades) {
  const lang::Program program = lang::programs::fib(13, 40);
  const SystemConfig cfg = chaos_config(6);
  const RunResult clean =
      core::run_once(cfg, program, net::FaultPlan::none());
  GraySpec g;
  g.node = 5;
  g.start = sim::SimTime(1000);
  net::FaultPlan plan = net::FaultPlan::gray(g);
  plan.with_seed(6);
  const RunResult gray = core::run_once(cfg, program, plan);
  ASSERT_TRUE(clean.completed && gray.completed) << gray.summary();
  EXPECT_TRUE(gray.answer_correct) << gray.summary();
  // The defining property: the node was sick the whole run and nobody
  // declared it dead — heartbeats and bounce notices kept flowing.
  EXPECT_EQ(gray.detection_ticks, -1) << gray.summary();
  EXPECT_GT(gray.net.gray_dropped, 0U);
  // But the sickness cost real time: payload retries and 4x slowdown.
  EXPECT_GT(gray.makespan_ticks, clean.makespan_ticks);
  EXPECT_EQ(gray.counters.gc_oracle_orphans, 0U);
}

TEST(Gray, FamilyAcrossNodesAndSeverityNeverTriggersDetection) {
  for (const net::ProcId node : {1u, 3u, 6u}) {
    for (const double drop : {0.3, 0.7}) {
      SystemConfig cfg = chaos_config(10 + node);
      GraySpec g;
      g.node = node;
      g.start = sim::SimTime(500);
      g.payload_drop_p = drop;
      net::FaultPlan plan = net::FaultPlan::gray(g);
      plan.with_seed(10 + node);
      const RunResult r =
          core::run_once(cfg, lang::programs::fib(12, 40), plan);
      ASSERT_TRUE(r.completed)
          << "node=" << node << " drop=" << drop << ": " << r.summary();
      EXPECT_TRUE(r.answer_correct) << r.summary();
      EXPECT_EQ(r.detection_ticks, -1)
          << "gray node " << node << " was falsely detected dead";
    }
  }
}

// ---------------------------------------------------------------------------
// Composition: link chaos on top of real crashes and rejoin
// ---------------------------------------------------------------------------

TEST(LinkChaos, LossyLinksPlusCrashAndRejoinConverge) {
  // Drop/dup/reorder everywhere, crash a node mid-run, repair it cold.
  // The cancel protocol and the wire-duplicate dedup must keep the ledger
  // clean: correct answer, no leaked duplicate lineages.
  for (const std::uint64_t seed : {3u, 8u}) {
    SystemConfig cfg = chaos_config(seed);
    LinkQuality q;
    q.drop_p = 0.05;
    q.dup_p = 0.05;
    q.reorder_p = 0.1;
    q.jitter = 20;
    net::FaultPlan plan = net::FaultPlan::link(q);
    plan.merge(net::FaultPlan::single(5, sim::SimTime(3000)));
    plan.with_rejoin(sim::SimTime(4000)).with_seed(seed);
    const RunResult r =
        core::run_once(cfg, lang::programs::nqueens(5), plan);
    ASSERT_TRUE(r.completed) << r.summary();
    EXPECT_TRUE(r.answer_correct) << r.summary();
    EXPECT_EQ(r.counters.gc_oracle_orphans, 0U) << r.summary();
    EXPECT_GT(r.net.link_duplicated, 0U);
  }
}

}  // namespace
}  // namespace splice
