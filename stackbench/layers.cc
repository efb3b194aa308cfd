// Per-layer metrics shared by the workloads (traced runs only).
#include <cstdio>

#include "bench.h"

namespace stackbench {

std::vector<double> Replay::Of(const std::vector<double>& v,
                               Event::Kind kind) const {
  std::vector<double> out;
  for (size_t i = 0; i < v.size() && i < kinds.size(); ++i) {
    if (kinds[i] == kind) out.push_back(v[i]);
  }
  return out;
}

namespace {
double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Summarize(v).mean;
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
}  // namespace

void AddReplayLayers(const Replay& r, Event::Kind engine_kind,
                     Report& report) {
  report.Percentiles("ovsdb.transact_us",
                     Summarize(r.Of(r.transact_us, Event::kMgmt)), "us",
                     false);
  report.Percentiles("ovsdb.rpc_transact_us",
                     Summarize(r.Of(r.rpc_us, Event::kMgmt)), "us", false);
  report.Percentiles("nerpa.row_to_dlog_us",
                     Summarize(r.Of(r.row_to_dlog_us, Event::kMgmt)), "us",
                     false);
  report.Percentiles("nerpa.row_to_entry_us",
                     Summarize(r.Of(r.row_to_entry_us, engine_kind)), "us",
                     false);
  report.Percentiles("dlog.commit_us",
                     Summarize(r.Of(r.commit_us, engine_kind)), "us", false);
  report.Layer("dlog.bootstrap_commit_s", r.bootstrap_commit_s, "s");
  report.Layer("dlog.output_rows_per_op",
               Mean(r.Of(r.output_rows, engine_kind)), "rows/op");
  report.Layer("ha.recover_s", r.recover_s, "s");
  report.Layer("ha.wal_bytes_per_op", r.wal_bytes_per_op, "B/op");
}

void AddP4Layers(const TracingClient::Totals& delta,
                 std::vector<double> call_us, size_t ops, Report& report) {
  const double n = static_cast<double>(ops);
  report.Percentiles("p4.write_us", Summarize(std::move(call_us)), "us",
                     false);
  report.Layer("p4.writes_per_op", Ratio(static_cast<double>(delta.writes), n),
               "calls/op");
  report.Layer("p4.updates_per_op",
               Ratio(static_cast<double>(delta.updates), n), "updates/op");
  report.Layer("p4.mcast_sets_per_op",
               Ratio(static_cast<double>(delta.mcast_sets), n), "calls/op");
  report.Layer("p4.mcast_members_per_op",
               Ratio(static_cast<double>(delta.mcast_members),
                     static_cast<double>(delta.mcast_changed)),
               "members/change");
}

void AddPacketLayers(const std::vector<double>& process_us,
                     const std::vector<double>& sync_us, uint64_t digests,
                     Report& report) {
  report.Percentiles("p4.process_packet_us", Summarize(process_us), "us",
                     false);
  report.Layer("p4.digests_per_packet",
               Ratio(static_cast<double>(digests),
                     static_cast<double>(process_us.size())),
               "digests/packet");
  report.Percentiles("nerpa.sync_notifications_us", Summarize(sync_us), "us",
                     false);
}

void AddResidual(const std::vector<double>& op_us,
                 const std::vector<Child>& children, Report& report) {
  std::vector<double> residual(op_us);
  for (const Child& child : children) {
    for (size_t i = 0; i < residual.size() && i < child.us.size(); ++i) {
      residual[i] -= child.us[i];
    }
  }
  Summary res = Summarize(residual);
  report.Percentiles("nerpa.residual_us", res, "us", false);
  Summary op = Summarize(op_us);
  char line[256];
  std::snprintf(line, sizeof(line),
                "accounting over %zu traced ops: op p50 %.2f us, mean %.2f us",
                op.n, op.p50, op.mean);
  report.Note(line);
  double attributed = 0;
  for (const Child& child : children) {
    Summary c = Summarize(child.us);
    attributed += c.mean;
    std::snprintf(line, sizeof(line),
                  "accounting:   %-24s mean %9.2f us  p50 %9.2f us",
                  child.name.c_str(), c.mean, c.p50);
    report.Note(line);
  }
  std::snprintf(line, sizeof(line),
                "accounting:   %-24s mean %9.2f us  p50 %9.2f us",
                "nerpa.residual", res.mean, res.p50);
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "accounting: attributed %.2f us of the %.2f us mean op "
                "(%.0f%%); residual %.2f us",
                attributed, op.mean, 100 * Ratio(attributed, op.mean),
                res.mean);
  report.Note(line);
}

}  // namespace stackbench
