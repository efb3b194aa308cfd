// Traced-run replays: each layer is fed the traced window's inputs on its
// own, in log order, so its cost per op can be set beside the live op.
#include <filesystem>

#include "bench.h"
#include "dlog/engine.h"
#include "ha/durable.h"
#include "nerpa/bindings.h"
#include "ovsdb/client.h"
#include "snvs/snvs.h"

namespace stackbench {

namespace fs = std::filesystem;

namespace {

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::vector<Json> BaseTxns(const std::vector<Event>& events) {
  std::vector<Json> txns;
  for (const Event& e : events) {
    if (e.phase == Event::kBase && e.kind == Event::kMgmt) {
      txns.push_back(e.ops);
    }
  }
  return txns;
}

Status Apply(nerpa::ovsdb::Database& db, const Json& ops) {
  NERPA_ASSIGN_OR_RETURN(Json results, db.Transact(ops));
  return CheckTransactReply(results);
}

// Monitor-less Database::Transact.
Status ReplayDatabase(const std::vector<Event>& events, Replay& r) {
  nerpa::ovsdb::Database db(nerpa::snvs::SnvsSchema());
  size_t k = 0;
  for (const Event& e : events) {
    bool timed = e.phase == Event::kTimed;
    if (e.kind == Event::kMgmt) {
      int64_t t0 = NowNs();
      auto results = db.Transact(e.ops);
      int64_t dt = NowNs() - t0;
      if (!results.ok()) return results.status();
      NERPA_RETURN_IF_ERROR(CheckTransactReply(results.value()));
      if (timed) r.transact_us[k] = Us(dt);
    }
    if (timed) ++k;
  }
  return Status();
}

// Bindings conversions and a standalone engine built from the same
// program text, fed the rows a monitor sees.
Status ReplayEngine(const std::vector<Event>& events, Replay& r) {
  const SnvsPieces& pieces = Pieces();
  const auto p4 = nerpa::snvs::SnvsP4Program();
  nerpa::ovsdb::Database db(nerpa::snvs::SnvsSchema());
  std::vector<nerpa::ovsdb::TableUpdates> pending;
  uint64_t monitor = db.AddMonitor(
      {"Port", "Mirror", "AclRule"},
      [&pending](const nerpa::ovsdb::TableUpdates& u) { pending.push_back(u); });
  nerpa::dlog::Engine engine(pieces.program);
  engine.TakeInitialDelta();

  // Queues the pending monitor rows; returns the conversion time.
  auto queue_rows = [&](Status* status) -> int64_t {
    int64_t spent = 0;
    for (const auto& updates : pending) {
      for (const auto& [table, rows] : updates) {
        const nerpa::OvsdbBinding* binding =
            pieces.bindings.FindOvsdbTable(table);
        const nerpa::ovsdb::TableSchema* schema = db.schema().FindTable(table);
        if (binding == nullptr || schema == nullptr) continue;
        for (const auto& [uuid, update] : rows) {
          for (const auto* row : {&update.old_row, &update.new_row}) {
            if (!row->has_value()) continue;
            int64_t t0 = NowNs();
            auto converted = nerpa::OvsdbRowToDlog(*schema, **row);
            spent += NowNs() - t0;
            if (!converted.ok()) {
              *status = converted.status();
              return spent;
            }
            Status queued =
                row == &update.old_row
                    ? engine.Delete(binding->relation,
                                    std::move(converted).value())
                    : engine.Insert(binding->relation,
                                    std::move(converted).value());
            if (!queued.ok()) *status = queued;
          }
        }
      }
    }
    pending.clear();
    return spent;
  };

  // Commits; returns (commit ns, entry conversion ns, output rows).
  struct Committed {
    int64_t commit_ns = 0;
    int64_t entry_ns = 0;
    size_t rows = 0;
  };
  auto commit = [&](Committed* c) -> Status {
    int64_t t0 = NowNs();
    auto delta = engine.Commit();
    c->commit_ns = NowNs() - t0;
    if (!delta.ok()) return delta.status();
    for (const auto& [relation, rows] : delta.value().outputs) {
      c->rows += rows.size();
      const nerpa::TableBinding* binding = pieces.bindings.FindTable(relation);
      if (binding == nullptr) continue;  // multicast membership
      for (const auto& [row, sign] : rows) {
        int64_t e0 = NowNs();
        auto entry = nerpa::DlogRowToEntry(*binding, *p4, row);
        c->entry_ns += NowNs() - e0;
        if (!entry.ok()) return entry.status();
      }
    }
    return Status();
  };

  Status status;
  size_t k = 0;
  bool booted = false;
  const nerpa::DigestBinding* digest = pieces.bindings.FindDigest("MacLearn");
  for (const Event& e : events) {
    if (e.phase != Event::kBase && !booted) {
      // The whole base topology in one commit against the empty engine:
      // the bootstrap a cold restart pays.
      queue_rows(&status);
      NERPA_RETURN_IF_ERROR(status);
      Committed c;
      NERPA_RETURN_IF_ERROR(commit(&c));
      r.bootstrap_commit_s = static_cast<double>(c.commit_ns) / 1e9;
      booted = true;
    }
    bool timed = e.phase == Event::kTimed;
    int64_t convert_ns = 0;
    if (e.kind == Event::kMgmt) {
      NERPA_RETURN_IF_ERROR(Apply(db, e.ops));
      if (e.phase == Event::kBase) continue;
      convert_ns = queue_rows(&status);
      NERPA_RETURN_IF_ERROR(status);
    } else {
      nerpa::p4::DigestMessage message{"MacLearn", {e.port, e.vlan, e.mac}};
      NERPA_RETURN_IF_ERROR(engine.Insert(
          digest->relation,
          nerpa::DigestToDlog(*digest, message, "", e.seq)));
    }
    Committed c;
    NERPA_RETURN_IF_ERROR(commit(&c));
    if (timed) {
      r.row_to_dlog_us[k] = Us(convert_ns);
      r.commit_us[k] = Us(c.commit_ns);
      r.row_to_entry_us[k] = Us(c.entry_ns);
      r.output_rows[k] = static_cast<double>(c.rows);
      ++k;
    }
  }
  if (!booted) {
    queue_rows(&status);
    NERPA_RETURN_IF_ERROR(status);
    Committed c;
    NERPA_RETURN_IF_ERROR(commit(&c));
    r.bootstrap_commit_s = static_cast<double>(c.commit_ns) / 1e9;
  }
  db.RemoveMonitor(monitor);
  return Status();
}

// Direct JSON-RPC to a replica served stack (controller and switch behind
// the server, as on the northbound path).
Status ReplayRpc(const std::vector<Event>& events, Replay& r) {
  NERPA_ASSIGN_OR_RETURN(auto stack,
                         ServedStack::Build(BaseTxns(events), true, false));
  nerpa::ovsdb::OvsdbClient client;
  NERPA_RETURN_IF_ERROR(client.Connect("127.0.0.1", stack->rpc_port()));
  stack->tracer()->set_enabled(true);
  size_t k = 0;
  for (const Event& e : events) {
    if (e.phase == Event::kBase) continue;
    bool timed = e.phase == Event::kTimed;
    if (e.kind == Event::kMgmt) {
      uint64_t p4_before = stack->tracer()->totals().busy_ns;
      int64_t t0 = NowNs();
      auto results = client.Transact(e.ops);
      int64_t dt = NowNs() - t0;
      if (!results.ok()) return results.status();
      NERPA_RETURN_IF_ERROR(CheckTransactReply(results.value()));
      if (timed) {
        r.rpc_us[k] = Us(dt);
        r.rpc_p4_us[k] = Us(static_cast<int64_t>(
            stack->tracer()->totals().busy_ns - p4_before));
      }
    }
    if (timed) ++k;
  }
  client.Disconnect();
  return Status();
}

// POST /v1/transact through a replica gateway.
Status ReplayGateway(const std::vector<Event>& events, Replay& r) {
  NERPA_ASSIGN_OR_RETURN(auto stack,
                         ServedStack::Build(BaseTxns(events), false, true));
  HttpConn conn(stack->http_port());
  if (!conn.ok()) return nerpa::Internal("cannot reach replica gateway");
  size_t k = 0;
  for (const Event& e : events) {
    if (e.phase == Event::kBase) continue;
    bool timed = e.phase == Event::kTimed;
    if (e.kind == Event::kMgmt) {
      HttpConn::Reply reply;
      int64_t t0 = NowNs();
      bool ok = conn.RoundTrip("POST", "/v1/transact", e.ops.Dump(), &reply);
      int64_t dt = NowNs() - t0;
      if (!ok || reply.status != 200) {
        return nerpa::Internal("replica gateway transact failed: " +
                               reply.body);
      }
      if (timed) r.http_us[k] = Us(dt);
    }
    if (timed) ++k;
  }
  return Status();
}

// A durable replica: recovery of the base snapshot, then WAL growth over
// the management ops.
Status ReplayDurable(const std::vector<Event>& events,
                     const std::string& work_dir, Replay& r) {
  const std::string dir = work_dir + "/replay_ha";
  fs::remove_all(dir);
  {
    NERPA_ASSIGN_OR_RETURN(auto store, nerpa::ha::DurableStore::Open(
                                           nerpa::snvs::SnvsSchema(), dir));
    for (const Json& txn : BaseTxns(events)) {
      NERPA_RETURN_IF_ERROR(Apply(store->db(), txn));
    }
    NERPA_RETURN_IF_ERROR(store->Checkpoint(0));
  }
  std::vector<double> opens;
  std::unique_ptr<nerpa::ha::DurableStore> store;
  for (int i = 0; i < 3; ++i) {
    store.reset();
    int64_t t0 = NowNs();
    NERPA_ASSIGN_OR_RETURN(store, nerpa::ha::DurableStore::Open(
                                      nerpa::snvs::SnvsSchema(), dir));
    opens.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  r.recover_s = Median(opens);
  const std::string wal = dir + "/wal.jsonl";
  auto wal_size = [&wal] {
    std::error_code ec;
    auto size = fs::file_size(wal, ec);
    return ec ? uintmax_t{0} : size;
  };
  uintmax_t before = 0;
  bool started = false;
  size_t timed_mgmt = 0;
  for (const Event& e : events) {
    if (e.phase == Event::kBase || e.kind != Event::kMgmt) continue;
    if (e.phase == Event::kTimed && !started) {
      before = wal_size();
      started = true;
    }
    NERPA_RETURN_IF_ERROR(Apply(store->db(), e.ops));
    if (e.phase == Event::kTimed) ++timed_mgmt;
  }
  if (timed_mgmt > 0) {
    r.wal_bytes_per_op = static_cast<double>(wal_size() - before) /
                         static_cast<double>(timed_mgmt);
  }
  store.reset();
  fs::remove_all(dir);
  return Status();
}

}  // namespace

Result<Replay> RunReplays(const std::vector<Event>& events,
                          const std::string& work_dir) {
  Replay r;
  size_t timed = 0;
  for (const Event& e : events) {
    if (e.phase != Event::kTimed) continue;
    ++timed;
    r.kinds.push_back(e.kind);
  }
  for (auto* v : {&r.transact_us, &r.rpc_us, &r.rpc_p4_us, &r.http_us,
                  &r.row_to_dlog_us, &r.commit_us, &r.row_to_entry_us,
                  &r.output_rows}) {
    v->assign(timed, 0.0);
  }
  NERPA_RETURN_IF_ERROR(ReplayDatabase(events, r));
  NERPA_RETURN_IF_ERROR(ReplayEngine(events, r));
  NERPA_RETURN_IF_ERROR(ReplayRpc(events, r));
  NERPA_RETURN_IF_ERROR(ReplayGateway(events, r));
  NERPA_RETURN_IF_ERROR(ReplayDurable(events, work_dir, r));
  return r;
}

}  // namespace stackbench
