// mac_learn: the data-plane -> control-plane feedback loop (§4.2).  64
// access ports in 8 VLANs carry 4,096 hosts, all learned before timing.
// The packet stream is known-unicast fast path except 1.5% of packets from
// a host that has just moved within its VLAN; those miss SMac, raise a
// digest and go MaxSeq/BestLearn -> SMac/Dmac rewrite.  Digests never
// expire, so MacLearn grows with every move.  OVSDB does no work for the
// packets; a config probe interleaved with them (one port transaction per
// 300 packets) times management writes on this stack for write_*.

#include "bench.h"
#include "snvs/snvs.h"

namespace stackbench {


namespace {
constexpr int kPorts = 64;
constexpr int kVlans = 8;
constexpr int kHosts = 4096;
// 1.5% rather than 1%: at exactly 1% the op p99 sits on the edge between
// the fast-path tail and the slow path and flips from run to run.
constexpr double kMoveFrac = 0.015;
constexpr int kPacketsPerWrite = 300;  // one config probe op per 300 packets
// The window runs on until rss_mib is taken, learn_* has kMinLearns
// samples, and write_* enough for a p99.
constexpr uint64_t kRssAtPackets = 500000;  // rss_mib after this many
constexpr size_t kMinLearns = 5000;
constexpr uint64_t kBroadcast = 0xFFFFFFFFFFFFULL;

struct Host {
  uint64_t vlan;
  uint64_t mac;
  uint64_t port;
};


/// Sends one packet and drains digests, as the feedback loop does.
struct Sent {
  bool ok = false;
  int64_t process_ns = 0;
  int64_t total_ns = 0;
  int64_t digests = 0;
  int64_t seq = 0;  // first digest seq assigned during the drain
};

Sent Send(OwnedStack& live, uint64_t port, uint64_t dst, uint64_t src,
          uint64_t want_port) {
  Sent s;
  nerpa::p4::PacketIn in{port, Frame(dst, src)};
  nerpa::Controller& controller = live.stack->controller();
  s.seq = controller.digest_seq();
  int64_t t0 = NowNs();
  auto out = live.sw->ProcessPacket(in);
  int64_t t1 = NowNs();
  Status synced = controller.SyncDataPlaneNotifications();
  int64_t t2 = NowNs();
  s.process_ns = t1 - t0;
  s.total_ns = t2 - t0;
  s.digests = controller.digest_seq() - s.seq;
  s.ok = out.ok() && synced.ok() &&
         (dst == kBroadcast ||
          (out.value().size() == 1 && out.value()[0].port == want_port));
  return s;
}
}  // namespace

int RunMacLearn(const Args& args) {
  Report report;
  Outcome outcome;
  report.Param("ports", kPorts);
  report.Param("vlans", kVlans);
  report.Param("hosts", kHosts);
  report.Param("move_frac", kMoveFrac);
  report.Param("setup_reps", kSetupsBefore + kWindowSetups);
  report.Param("packets_per_config_op", kPacketsPerWrite);
  report.Param("rss_at_packets", static_cast<double>(kRssAtPackets));

  // Topology: port p is an access port on VLAN 1 + (p - 1) % kVlans.
  std::mt19937_64 rng(args.seed);
  TopologyParams topo{kPorts, kVlans, 0.10, 4};
  std::vector<PortSpec> base_ports;
  std::vector<std::vector<uint64_t>> vlan_ports(kVlans + 1);
  for (int p = 1; p <= kPorts; ++p) {
    PortSpec spec;
    spec.port = p;
    spec.tag = 1 + (p - 1) % kVlans;
    base_ports.push_back(spec);
    vlan_ports[spec.tag].push_back(static_cast<uint64_t>(p));
  }
  std::vector<Event> events;
  events.push_back({Event::kMgmt, Event::kBase, InsertPortOps(base_ports)});

  std::vector<Host> hosts;
  std::set<uint64_t> macs;
  std::vector<std::vector<size_t>> vlan_hosts(kVlans + 1);
  for (int h = 0; h < kHosts; ++h) {
    Host host;
    host.vlan = 1 + static_cast<uint64_t>(h % kVlans);
    do {
      host.mac = RandomMac(rng);
    } while (!macs.insert(host.mac).second);
    const auto& ports = vlan_ports[host.vlan];
    host.port = ports[rng() % ports.size()];
    vlan_hosts[host.vlan].push_back(hosts.size());
    hosts.push_back(host);
  }

  // Setup: build the stack, write the ports, learn every host once.
  const std::vector<Host> initial_hosts = hosts;
  std::vector<double> setup_s;
  auto set_up = [&](OwnedStack& into, bool record) {
    into.Reset();
    int64_t t0 = NowNs();
    Status built = into.Build(nerpa::snvs::SnvsOptions(), args.trace);
    if (!built.ok()) {
      outcome.Mismatch("build: " + built.ToString());
      return false;
    }
    auto results = into.stack->db().Transact(events[0].ops);
    if (!results.ok() || !CheckTransactReply(results.value()).ok()) {
      outcome.Mismatch("topology transact failed");
    }
    for (const Host& host : initial_hosts) {
      Sent s = Send(into, host.port, kBroadcast, host.mac, 0);
      if (!s.ok || s.digests != 1) outcome.Mismatch("learn pass");
      if (record) {
        events.push_back({Event::kDigest, Event::kPre, Json(), host.port,
                          host.vlan, host.mac, s.seq});
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return true;
  };
  OwnedStack live;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    if (!set_up(live, rep == 0 && args.trace)) {
      report.Print(args, outcome);
      return 1;
    }
  }

  // The timed window (a traced run traces its start).  A config probe
  // op (port add / delete / retag on spare ports 65..192 of the same VLANs)
  // runs after every kPacketsPerWrite packets, timed for write_*, and the
  // spread set-ups (into `extra`) run as they fall due.
  ChurnGen spare(args.seed ^ 0xc0f1, topo, kPorts + 1, 3 * kPorts, 1, 0,
                 kPorts);
  OwnedStack extra;
  int extra_setups = 0;
  auto set_up_extra = [&] {
    set_up(extra, false);
    extra.Reset();
    ++extra_setups;
  };
  std::vector<double> op_us, learn_us, write_us;
  std::vector<double> traced_us, process_us, sync_us;
  std::vector<double> learn_traced_us, learn_process_us, learn_p4_us;
  uint64_t traced_digests = 0;
  TracingClient::Totals p4_before, p4_after;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  const int64_t traced_end = TracedEnd(start, args.seconds);
  bool tracing = args.trace;
  if (tracing) {
    live.tracer->set_enabled(true);
    p4_before = live.tracer->totals();
  }
  std::uniform_real_distribution<double> unit(0, 1);
  size_t learns = 0;
  auto rss_now = [&] {
    return RssMib((op_us.size() + learn_us.size() + write_us.size()) *
                  sizeof(double));
  };
  double rss = 0;
  for (uint64_t n = 1; NowNs() < end || n <= kRssAtPackets ||
                       learns < kMinLearns ||
                       write_us.size() < kMinP99Samples;
       ++n) {
    if (n == kRssAtPackets) rss = rss_now();
    // The spread set-ups wait for rss_mib, which they would disturb.
    if (!args.trace && n > kRssAtPackets && extra_setups < kWindowSetups &&
        NowNs() >= SetupDue(start, args.seconds, extra_setups)) {
      set_up_extra();
    }
    if (n % kPacketsPerWrite == 0) {
      // Config writes stay out of the p4 per-packet counts.
      if (tracing) live.tracer->set_enabled(false);
      ChurnGen::Op op = spare.Next();
      ++outcome.attempted;
      int64_t t0 = NowNs();
      auto results = live.stack->db().Transact(op.ops);
      int64_t t1 = NowNs();
      if (tracing) live.tracer->set_enabled(true);
      if (!results.ok() || !CheckTransactReply(results.value()).ok()) {
        outcome.OpFailed(op.ops.Dump());
      } else {
        spare.Commit(op);
        write_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        if (tracing) {
          events.push_back({Event::kMgmt, Event::kTimed, std::move(op.ops)});
        }
      }
    }
    if (tracing && NowNs() >= traced_end) {
      tracing = false;
      p4_after = live.tracer->totals();
      live.tracer->set_enabled(false);
    }
    Host& src = hosts[rng() % hosts.size()];
    const bool move = unit(rng) < kMoveFrac;
    if (move) {
      const auto& ports = vlan_ports[src.vlan];
      uint64_t to;
      do {
        to = ports[rng() % ports.size()];
      } while (to == src.port);
      src.port = to;
    }
    const auto& peers = vlan_hosts[src.vlan];
    const Host* dst;
    do {
      dst = &hosts[peers[rng() % peers.size()]];
    } while (dst == &src);
    uint64_t p4_ns = tracing ? live.tracer->totals().busy_ns : 0;
    ++outcome.attempted;
    Sent s = Send(live, src.port, dst->mac, src.mac, dst->port);
    if (!s.ok || s.digests != (move ? 1 : 0)) {
      outcome.OpFailed("packet from port " + std::to_string(src.port));
    }
    double us = static_cast<double>(s.total_ns) / 1e3;
    if (tracing) {
      traced_us.push_back(us);
      process_us.push_back(static_cast<double>(s.process_ns) / 1e3);
      sync_us.push_back(static_cast<double>(s.total_ns - s.process_ns) / 1e3);
      traced_digests += static_cast<uint64_t>(s.digests);
      if (move) {
        learn_traced_us.push_back(us);
        learn_process_us.push_back(static_cast<double>(s.process_ns) / 1e3);
        learn_p4_us.push_back(
            static_cast<double>(live.tracer->totals().busy_ns - p4_ns) / 1e3);
        events.push_back({Event::kDigest, Event::kTimed, Json(), src.port,
                          src.vlan, src.mac, s.seq});
      }
    } else {
      op_us.push_back(us);
      if (move) learn_us.push_back(us);
    }
    if (move) ++learns;
  }
  while (!args.trace && extra_setups < kWindowSetups) set_up_extra();

  if (!live.stack->controller().last_error().ok()) {
    outcome.Mismatch("controller: " +
                     live.stack->controller().last_error().ToString());
  }

  CheckAgainstRebuild(live.stack->db(), *live.client, outcome);
  LearnedHosts learned;
  for (const Host& host : hosts) learned[{host.vlan, host.mac}] = host.port;
  CheckLearned(*live.client, learned, outcome);

  if (!args.trace) {
    Summary op = Summarize(op_us);
    report.EndToEnd("setup_s", Median(setup_s), "s");
    report.Percentiles("op", op, "us", true);
    report.EndToEnd("ops_per_s", 1e6 / op.mean, "1/s");
    report.EndToEnd("rss_mib", rss, "MiB");
    report.Percentiles("learn", Summarize(learn_us), "us", true);
    report.Percentiles("write", Summarize(write_us), "us", true);
    report.Note("setup_s: the median of " + std::to_string(setup_s.size()) +
                " set-ups");
    report.Note("write_* on mac_learn: the interleaved config probe");
  } else {
    auto replay = RunReplays(events, args.work_dir);
    if (!replay.ok()) {
      outcome.Mismatch("replay: " + replay.status().ToString());
      report.Print(args, outcome);
      return 1;
    }
    const Replay& r = replay.value();
    AddReplayLayers(r, Event::kDigest, report);
    AddP4Layers(p4_after.Minus(p4_before),
                live.tracer->TakeCallSamples(), traced_us.size(), report);
    AddPacketLayers(process_us, sync_us, traced_digests, report);
    std::vector<double> self_us;
    for (size_t i = 0; i < r.http_us.size(); ++i) {
      if (r.kinds[i] == Event::kMgmt) self_us.push_back(r.http_us[i] - r.rpc_us[i]);
    }
    report.Percentiles("gateway.self_us", Summarize(self_us), "us", false);
    report.Layer("gateway.cache_hit_ratio", 0, "ratio");
    report.Layer("gateway.shed_frac", 0, "ratio");
    report.Note("ovsdb.*, nerpa.row_to_dlog, gateway.* and ha.wal on "
                "mac_learn: the config probe ops, replayed");
    report.Layer("dlog.maclearn_rows",
                 static_cast<double>(
                     live.stack->controller().engine().Size("MacLearn")),
                 "rows");
    // Residual over the digest-raising packets of the traced part.
    AddResidual(learn_traced_us,
                {{"p4.process_packet", learn_process_us},
                 {"dlog.commit", r.Of(r.commit_us, Event::kDigest)},
                 {"nerpa.row_to_entry", r.Of(r.row_to_entry_us, Event::kDigest)},
                 {"p4.write", learn_p4_us}},
                report);
    report.Layer("trace_overhead_frac",
                 Median(traced_us) / Median(op_us) - 1,
                 "ratio");
  }
  report.Print(args, outcome);
  live.Reset();
  return 0;
}

}  // namespace stackbench
