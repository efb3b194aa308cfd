// port_churn: single-port add / delete / retag transactions against a
// durable snvs stack at 2,000 ports over 64 VLANs, 10% of them trunks on
// four VLANs each.  Every op crosses the whole management-to-data-plane
// path (OVSDB commit + WAL append, monitor, bindings, engine, p4 writes)
// while the interpreter stays idle; multicast-group rewrites make the cost
// depend on VLAN size, and trunk ports make the tail.
#include <filesystem>

#include "bench.h"
#include "ha/durable.h"
#include "snvs/snvs.h"

namespace stackbench {

namespace fs = std::filesystem;

namespace {
constexpr TopologyParams kTopo{2000, 64, 0.10, 4};
constexpr int64_t kPortSpace = 4000;   // port numbers 1..kPortSpace
constexpr int kBaseTxnPorts = 100;     // ports per base-topology txn
constexpr int kWarmupOps = 2000;       // first churn window, inside setup
constexpr int kPinnedPerVlan = 2;      // untouched access ports for probes
constexpr int kOpsPerProbe = 60;       // one flow-setup probe per 60 ops
constexpr uint64_t kRssAtOps = 50000;  // rss_mib after this many ops; the
                                       // window runs on until reached
constexpr size_t kMaxTracedOps = 10000; // traced ops replayed per layer

}  // namespace

int RunPortChurn(const Args& args) {
  Report report;
  Outcome outcome;
  report.Param("ports", kTopo.ports);
  report.Param("vlans", kTopo.vlans);
  report.Param("trunk_frac", kTopo.trunk_frac);
  report.Param("trunk_vlans", kTopo.trunk_vlans);
  report.Param("port_space", static_cast<double>(kPortSpace));
  report.Param("durable", "wal+snapshot");
  report.Param("setup_reps", kSetupsBefore + kWindowSetups);
  report.Param("warmup_ops", kWarmupOps);
  report.Param("pinned_ports_per_vlan", kPinnedPerVlan);
  report.Param("ops_per_probe", kOpsPerProbe);
  report.Param("rss_at_ops", static_cast<double>(kRssAtOps));

  // Base topology: kTopo.ports distinct port numbers from the port space.
  // The first kPinnedPerVlan per VLAN are access ports the churn never
  // touches; the flow-setup probe sends between them.
  std::mt19937_64 rng(args.seed);
  std::vector<int64_t> numbers;
  for (int64_t n = 1; n <= kPortSpace; ++n) {
    if (IsFrontPanel(n)) numbers.push_back(n);
  }
  std::shuffle(numbers.begin(), numbers.end(), rng);
  const int pinned = kPinnedPerVlan * kTopo.vlans;
  ChurnGen base_gen(args.seed ^ 0x5eed, kTopo, 1, kPortSpace, 1, 0,
                    kTopo.ports - pinned);
  std::map<int64_t, std::vector<int64_t>> probe_ports;
  std::vector<Event> events;
  std::vector<PortSpec> chunk;
  for (int i = 0; i < kTopo.ports; ++i) {
    PortSpec spec = RandomPort(rng, kTopo, numbers[i]);
    if (i < pinned) {
      spec.trunk = false;
      spec.trunks.clear();
      spec.tag = 1 + i % kTopo.vlans;
      probe_ports[spec.tag].push_back(spec.port);
      base_gen.Reserve(spec.port);
    } else {
      base_gen.AdoptLive(spec);
    }
    chunk.push_back(spec);
    if (static_cast<int>(chunk.size()) == kBaseTxnPorts ||
        i + 1 == kTopo.ports) {
      events.push_back({Event::kMgmt, Event::kBase, InsertPortOps(chunk)});
      chunk.clear();
    }
  }

  // Untimed prep: the base topology in the durable dir, with a database
  // snapshot but no engine checkpoint.
  const std::string prep = args.work_dir + "/prep";
  {
    auto store =
        nerpa::ha::DurableStore::Open(nerpa::snvs::SnvsSchema(), prep);
    if (!store.ok()) {
      outcome.Mismatch("prep: " + store.status().ToString());
      report.Print(args, outcome);
      return 1;
    }
    for (const Event& e : events) {
      auto results = store.value()->db().Transact(e.ops);
      if (!results.ok() || !CheckTransactReply(results.value()).ok()) {
        outcome.Mismatch("prep transact failed");
      }
    }
    if (!store.value()->Checkpoint(0).ok()) outcome.Mismatch("prep snapshot");
  }

  // Setup: cold restart to converged (recovery, empty-engine bootstrap
  // commit, bulk install on an empty switch), then the warm-up churn.
  std::unique_ptr<ChurnGen> gen;
  std::unique_ptr<LearnProbe> probe;
  std::vector<double> setup_s;
  auto set_up = [&](OwnedStack& into, const std::string& dir, bool record,
                    std::unique_ptr<ChurnGen>& g,
                    std::unique_ptr<LearnProbe>& p) {
    into.Reset();
    fs::remove_all(dir);
    fs::copy(prep, dir, fs::copy_options::recursive);
    g = std::make_unique<ChurnGen>(base_gen);
    p = std::make_unique<LearnProbe>(args.seed ^ 0x9e0be, probe_ports);
    int64_t t0 = NowNs();
    nerpa::snvs::SnvsOptions options;
    options.ha_dir = dir;
    Status built = into.Build(options, args.trace);
    if (!built.ok()) {
      outcome.Mismatch("restart: " + built.ToString());
      return false;
    }
    if (!p->Anchor(*into.sw, into.stack->controller()).ok()) {
      outcome.Mismatch("probe anchors");
    }
    for (int i = 0; i < kWarmupOps; ++i) {
      ChurnGen::Op op = g->Next();
      auto results = into.stack->db().Transact(op.ops);
      if (!results.ok() || !CheckTransactReply(results.value()).ok()) {
        outcome.Mismatch("warm-up op failed");
        continue;
      }
      g->Commit(op);
      if (record) {
        events.push_back({Event::kMgmt, Event::kPre, std::move(op.ops)});
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return true;
  };
  OwnedStack live;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    if (!set_up(live, args.work_dir + "/live", rep == 0 && args.trace, gen,
                probe)) {
      report.Print(args, outcome);
      return 1;
    }
  }
  nerpa::ovsdb::Database& db = live.stack->db();

  // The timed window, one flow-setup probe after every kOpsPerProbe ops and
  // the spread set-ups (into `extra`) as they fall due.  A traced run
  // traces its start (up to kMaxTracedOps ops) and runs the rest untraced,
  // for the overhead ratio.
  OwnedStack extra;
  const std::string extra_dir = args.work_dir + "/extra";
  int extra_setups = 0;
  auto set_up_extra = [&] {
    std::unique_ptr<ChurnGen> g;
    std::unique_ptr<LearnProbe> p;
    set_up(extra, extra_dir, false, g, p);
    extra.Reset();
    ++extra_setups;
  };
  std::vector<double> op_us;
  std::vector<double> traced_us, traced_p4_us;
  TracingClient::Totals p4_before, p4_after;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  const int64_t traced_end = TracedEnd(start, args.seconds);
  bool tracing = args.trace;
  if (tracing) {
    live.tracer->set_enabled(true);
    p4_before = live.tracer->totals();
  }
  auto rss_now = [&] {
    return RssMib((op_us.size() + probe->op_us.size()) * sizeof(double));
  };
  double rss = 0;
  for (uint64_t n = 1; NowNs() < end || n <= kRssAtOps ||
                       op_us.size() < kMinP99Samples ||
                       probe->op_us.size() < kMinP99Samples;
       ++n) {
    if (n == kRssAtOps) rss = rss_now();
    // The spread set-ups wait for rss_mib, which they would disturb.
    if (!args.trace && n > kRssAtOps && extra_setups < kWindowSetups &&
        NowNs() >= SetupDue(start, args.seconds, extra_setups)) {
      set_up_extra();
    }
    if (n % kOpsPerProbe == 0) {
      // Probe writes stay out of the p4 per-op counts.
      if (tracing) live.tracer->set_enabled(false);
      probe->Step(*live.sw, live.stack->controller(), tracing, outcome);
      if (tracing) live.tracer->set_enabled(true);
    }
    if (tracing && (NowNs() >= traced_end || traced_us.size() >= kMaxTracedOps)) {
      tracing = false;
      p4_after = live.tracer->totals();
      live.tracer->set_enabled(false);
    }
    ChurnGen::Op op = gen->Next();
    uint64_t p4_ns = tracing ? live.tracer->totals().busy_ns : 0;
    ++outcome.attempted;
    int64_t t0 = NowNs();
    auto results = db.Transact(op.ops);
    int64_t t1 = NowNs();
    if (!results.ok() || !CheckTransactReply(results.value()).ok()) {
      outcome.OpFailed(op.ops.Dump());
      continue;
    }
    gen->Commit(op);
    double us = static_cast<double>(t1 - t0) / 1e3;
    if (tracing) {
      traced_us.push_back(us);
      traced_p4_us.push_back(
          static_cast<double>(live.tracer->totals().busy_ns - p4_ns) / 1e3);
      events.push_back({Event::kMgmt, Event::kTimed, std::move(op.ops)});
    } else {
      op_us.push_back(us);
    }
  }
  while (!args.trace && extra_setups < kWindowSetups) set_up_extra();
  fs::remove_all(extra_dir);
  if (!live.stack->controller().last_error().ok()) {
    outcome.Mismatch("controller: " +
                     live.stack->controller().last_error().ToString());
  }

  CheckAgainstRebuild(db, *live.client, outcome);
  CheckLearned(*live.client, probe->hosts, outcome);

  if (!args.trace) {
    Summary op = Summarize(op_us);
    report.EndToEnd("setup_s", Median(setup_s), "s");
    report.Percentiles("op", op, "us", true);
    report.EndToEnd("ops_per_s", 1e6 / op.mean, "1/s");
    report.EndToEnd("rss_mib", rss, "MiB");
    report.Percentiles("learn", Summarize(probe->op_us), "us", true);
    report.Note("setup_s: the median of " + std::to_string(setup_s.size()) +
                " set-ups");
    report.Percentiles("write", op, "us", true);
    report.Note("write_* on port_churn: every op is a write, so write_* = op_*");
    report.Note("learn_* on port_churn: the interleaved flow-setup probe");
  } else {
    auto replay = RunReplays(events, args.work_dir);
    if (!replay.ok()) {
      outcome.Mismatch("replay: " + replay.status().ToString());
      report.Print(args, outcome);
      return 1;
    }
    const Replay& r = replay.value();
    AddReplayLayers(r, Event::kMgmt, report);
    AddP4Layers(p4_after.Minus(p4_before),
                live.tracer->TakeCallSamples(), traced_us.size(), report);
    AddPacketLayers(probe->process_us, probe->sync_us, probe->digests, report);
    std::vector<double> self_us;
    for (size_t i = 0; i < r.http_us.size(); ++i) {
      self_us.push_back(r.http_us[i] - r.rpc_us[i]);
    }
    report.Percentiles("gateway.self_us", Summarize(self_us), "us", false);
    report.Layer("gateway.cache_hit_ratio", 0, "ratio");
    report.Layer("gateway.shed_frac", 0, "ratio");
    report.Note("gateway.* on port_churn: the traced ops replayed through a "
                "replica gateway (no reads, so no cache hits)");
    report.Layer("dlog.maclearn_rows",
                 static_cast<double>(
                     live.stack->controller().engine().Size("MacLearn")),
                 "rows");
    AddResidual(traced_us,
                {{"ovsdb.transact", r.transact_us},
                 {"nerpa.row_to_dlog", r.row_to_dlog_us},
                 {"dlog.commit", r.commit_us},
                 {"nerpa.row_to_entry", r.row_to_entry_us},
                 {"p4.write", traced_p4_us}},
                report);
    report.Layer("trace_overhead_frac",
                 Median(traced_us) / Median(op_us) - 1,
                 "ratio");
  }
  report.Print(args, outcome);
  live.Reset();
  fs::remove_all(args.work_dir + "/live");
  fs::remove_all(prep);
  return 0;
}

}  // namespace stackbench
