// Shared pieces of the full-stack benchmark: timing and percentile
// summaries, the metric report, the seeded port generator, a tracing
// P4Runtime decorator, an snvs controller wired behind an OvsdbServer (and
// optionally the northbound gateway), a blocking HTTP client, the
// correctness checks, and the traced-run replays.
//
// Everything here drives the stack through its public entry points; the
// benchmark never reaches into a module's internals.
#ifndef STACKBENCH_BENCH_H_
#define STACKBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "gateway/gateway.h"
#include "nerpa/controller.h"
#include "ovsdb/database.h"
#include "ovsdb/server.h"
#include "p4/runtime.h"
#include "snvs/snvs.h"

namespace stackbench {

using nerpa::Json;
using nerpa::Status;
template <typename T>
using Result = nerpa::Result<T>;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch directory owned by this run
};

// ---------------------------------------------------------------------------
// Statistics and reporting.

/// Nearest-rank percentiles of a sample (microseconds or seconds, as given).
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double mean = 0;
};
Summary Summarize(std::vector<double> values);
double Median(std::vector<double> values);

/// Smallest sample for which the p99 has at least ten samples beyond it.
/// End-to-end timings are taken over every sample of the timed window: the
/// host drifts, and a whole-window figure moves least with the share of
/// slow phases a run happens to meet.
constexpr size_t kMinP99Samples = 1000;

/// setup_s: set-ups made before the window (the last one becomes the live
/// stack) and kWindowSetups more spread evenly through it, each into an
/// extra stack torn down at once, so that they meet the host in different
/// phases.  Reported as their median.
constexpr int kSetupsBefore = 2;
constexpr int kWindowSetups = 14;
/// When the i-th (0-based) set-up inside the window is due.
int64_t SetupDue(int64_t start_ns, double seconds, int i);

/// A traced run traces the start of its window, up to this long (and at
/// most half the window), and runs the rest untraced; the replays of the
/// traced part then take a few seconds more.  It makes no set-ups inside
/// the window.
constexpr double kMaxTracedSeconds = 5;
/// When the traced part of a window ends.
int64_t TracedEnd(int64_t start_ns, double seconds);

/// Resident set size of this process, less `own_bytes` held by the
/// benchmark's own latency samples, in MiB.  Free heap pages are not
/// returned to the system first: doing so mid-window changes how fast the
/// ops that follow run.
double RssMib(size_t own_bytes);

/// Pass/fail bookkeeping of one run: every op attempted, every op failed,
/// and every correctness-check mismatch.  A mismatch or any failed op
/// makes the run incorrect.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  void Mismatch(const std::string& what);
  /// Counts one failed op, remembering the first few reasons.
  void OpFailed(const std::string& what);
};

/// Metrics of one run, printed as `name value unit` lines.
class Report {
 public:
  void Param(const std::string& name, const std::string& value);
  void Param(const std::string& name, double value);
  /// An end-to-end metric (reported with --trace 0).
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// A percentile pair plus its sample count: end-to-end `op` becomes
  /// op_p50_<unit> / op_p99_<unit>, per-layer `x_us` becomes x_us.p50 /
  /// x_us.p99.
  void Percentiles(const std::string& name, const Summary& s,
                   const std::string& unit, bool end_to_end);
  void Layer(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);

  /// Prints params, notes, fail_frac and the metrics of the requested
  /// mode, then the final JSON line with those metrics.
  void Print(const Args& args, const Outcome& outcome) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::string> notes_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
};

// ---------------------------------------------------------------------------
// The snvs management-plane workload generator.

struct PortSpec {
  int64_t port = 0;
  bool trunk = false;
  int64_t tag = 0;                // access VLAN
  std::vector<int64_t> trunks;    // trunk VLANs
  std::string name() const { return "p" + std::to_string(port); }
};

/// Base topology and churn parameters.
struct TopologyParams {
  int ports = 0;          // live ports in the base topology
  int vlans = 0;          // VLAN ids 1..vlans
  double trunk_frac = 0;  // share of trunk ports
  int trunk_vlans = 4;    // VLANs per trunk port
};

/// Live ports of the snvs Port table as the benchmark believes them to be.
using PortMap = std::map<int64_t, PortSpec>;

/// False for the interpreter's reserved drop port (p4::kDropPort, 511, as in
/// BMv2): the schema accepts a Port row on it, but the data plane drops
/// every packet sent there, so the generators never use it.
bool IsFrontPanel(int64_t port);

PortSpec RandomPort(std::mt19937_64& rng, const TopologyParams& topo,
                    int64_t port);
/// One-op transactions on the Port table.
Json InsertPortOps(const std::vector<PortSpec>& ports);
Json DeletePortOps(const PortSpec& port);
Json RetagPortOps(const PortSpec& port);

/// Closed-loop generator of single-port add / delete / retag transactions
/// over the port numbers it owns (`lo..hi` with the given stride/offset).
/// Port numbers come from its free set, so two live ports never share
/// one; the live count hovers around `target_live`.
class ChurnGen {
 public:
  ChurnGen(uint64_t seed, TopologyParams topo, int64_t lo, int64_t hi,
           int64_t stride, int64_t offset, size_t target_live);

  /// Adds an already-live port (base topology) to the owned set.
  void AdoptLive(const PortSpec& spec);
  /// Takes a port number out of the free set without owning it.
  void Reserve(int64_t port);
  struct Op {
    enum Kind { kAdd, kDelete, kRetag } kind;
    PortSpec after;  // the port as it is once the op commits
    Json ops;        // the transaction
  };
  Op Next();
  /// Applies `op` to the model (call once the transaction committed).
  void Commit(const Op& op);
  const PortMap& live() const { return live_; }

 private:
  std::mt19937_64 rng_;
  TopologyParams topo_;
  size_t target_live_;
  PortMap live_;
  std::vector<int64_t> live_keys_;  // for uniform picks
  std::vector<int64_t> free_;
};

/// Checks one committed transaction's reply: no per-op error, and every
/// delete/update matched exactly one row.
Status CheckTransactReply(const Json& results);

// ---------------------------------------------------------------------------
// Data-plane helpers.

/// A unicast, locally administered MAC derived from a random draw.
uint64_t RandomMac(std::mt19937_64& rng);
nerpa::net::Packet Frame(uint64_t dst_mac, uint64_t src_mac);

/// RuntimeClient decorator that times every write call while enabled and
/// counts table updates, multicast group rewrites and the members they
/// carry against the members that actually changed.
class TracingClient : public nerpa::p4::RuntimeClient {
 public:
  explicit TracingClient(nerpa::p4::Switch* sw) : RuntimeClient(sw) {}

  Status Write(const std::vector<nerpa::p4::Update>& updates) override;
  Status SetMulticastGroup(uint32_t group,
                           std::vector<uint64_t> ports) override;

  struct Totals {
    uint64_t busy_ns = 0;
    uint64_t writes = 0;        // Write() calls
    uint64_t updates = 0;       // table updates inside them
    uint64_t mcast_sets = 0;    // SetMulticastGroup() calls
    uint64_t mcast_members = 0; // members carried by those calls
    uint64_t mcast_changed = 0; // members actually added or removed

    Totals Minus(const Totals& before) const {
      return {busy_ns - before.busy_ns,       writes - before.writes,
              updates - before.updates,       mcast_sets - before.mcast_sets,
              mcast_members - before.mcast_members,
              mcast_changed - before.mcast_changed};
    }
  };
  void set_enabled(bool on);
  Totals totals() const;
  /// Per-call write durations recorded while enabled, in microseconds.
  std::vector<double> TakeCallSamples();

 private:
  mutable std::mutex mu_;
  bool enabled_ = false;
  Totals totals_;
  std::vector<double> call_us_;
};

/// An snvs stack from BuildSnvsStack over a switch the benchmark owns, so
/// a traced run can interpose the TracingClient.
struct OwnedStack {
  std::unique_ptr<nerpa::p4::Switch> sw;
  std::unique_ptr<nerpa::p4::RuntimeClient> client;
  TracingClient* tracer = nullptr;  // set when built with tracing
  std::unique_ptr<nerpa::snvs::SnvsStack> stack;

  Status Build(nerpa::snvs::SnvsOptions options, bool tracing);
  /// The stack goes first: its controller holds the client and switch.
  void Reset();
};

/// The snvs program text and compiled pieces shared by every controller the
/// benchmark builds through public constructors.
struct SnvsPieces {
  nerpa::Bindings bindings;
  std::string program_text;
  std::shared_ptr<const nerpa::dlog::Program> program;
};
const SnvsPieces& Pieces();

/// An snvs management plane served over JSON-RPC: a database wired to a
/// Controller and one switch, owned by an OvsdbServer, optionally fronted
/// by the northbound gateway.  The base topology is loaded before the
/// controller starts, so the first engine commit is the bulk bootstrap.
class ServedStack {
 public:
  static Result<std::unique_ptr<ServedStack>> Build(
      const std::vector<Json>& base_txns, bool tracing, bool with_gateway);
  ~ServedStack();
  ServedStack(const ServedStack&) = delete;
  ServedStack& operator=(const ServedStack&) = delete;

  uint16_t rpc_port() const { return server_->port(); }
  uint16_t http_port() const { return gateway_->http_port(); }
  TracingClient* tracer() { return tracer_; }

 private:
  ServedStack() = default;
  std::unique_ptr<nerpa::p4::Switch> switch_;
  std::unique_ptr<nerpa::p4::RuntimeClient> client_;
  TracingClient* tracer_ = nullptr;
  nerpa::ovsdb::Database* db_ = nullptr;  // owned by server_
  std::unique_ptr<nerpa::Controller> controller_;
  std::unique_ptr<nerpa::ovsdb::OvsdbServer> server_;
  std::unique_ptr<nerpa::gateway::Gateway> gateway_;
};

/// A minimal blocking HTTP/1.1 client on one keep-alive connection.
class HttpConn {
 public:
  explicit HttpConn(uint16_t port);
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;
  bool ok() const { return fd_ >= 0; }

  struct Reply {
    int status = 0;
    std::string body;
  };
  bool RoundTrip(const std::string& method, const std::string& target,
                 const std::string& body, Reply* reply);

 private:
  bool Fill();
  int fd_ = -1;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Correctness checks.

/// Every table and multicast group on `live`, apart from the digest-fed
/// SMac/Dmac, must equal those of a fresh stack rebuilt from `db`'s final
/// contents.
void CheckAgainstRebuild(const nerpa::ovsdb::Database& db,
                         const nerpa::p4::RuntimeClient& live,
                         Outcome& outcome);

/// (vlan, mac) -> port of every host the data plane should have learned.
using LearnedHosts = std::map<std::pair<uint64_t, uint64_t>, uint64_t>;

/// SMac and Dmac on `live` must hold exactly one entry per learned host,
/// both pointing at the host's last port.
void CheckLearned(const nerpa::p4::RuntimeClient& live,
                  const LearnedHosts& hosts, Outcome& outcome);

// ---------------------------------------------------------------------------
// Flow-setup probe: first packets of new hosts on access ports, each sent
// to an anchor host of the same VLAN learned beforehand, so every probe
// takes the digest slow path and must come out on the anchor's port.  The
// workloads interleave probes with their own ops so that the probe spans
// the whole timed window.

class LearnProbe {
 public:
  /// `ports`: VLAN -> access ports that stay live and untouched for the
  /// whole run; VLANs with fewer than two are skipped, and the first port
  /// of each VLAN holds its anchor.
  LearnProbe(uint64_t seed, std::map<int64_t, std::vector<int64_t>> ports);

  /// Learns one anchor host per VLAN (set-up, untimed).
  Status Anchor(nerpa::p4::Switch& sw, nerpa::Controller& controller);

  /// Sends one probe packet and drains its digest.  With `traced`, also
  /// times the interpreter and the drain on their own.
  void Step(nerpa::p4::Switch& sw, nerpa::Controller& controller,
            bool traced, Outcome& outcome);

  std::vector<double> op_us;       // inject + digest drain
  std::vector<double> process_us;  // Switch::ProcessPacket (traced)
  std::vector<double> sync_us;     // SyncDataPlaneNotifications (traced)
  uint64_t digests = 0;            // digests drained by traced probes
  LearnedHosts hosts;              // anchors and probe hosts

 private:
  uint64_t FreshMac();
  std::mt19937_64 rng_;
  std::set<uint64_t> macs_;
  struct Vlan {
    uint64_t vlan;
    std::vector<int64_t> ports;
    uint64_t anchor_mac;
  };
  std::vector<Vlan> vlans_;
};

// ---------------------------------------------------------------------------
// Traced-run replays.  The traced window records its inputs as events; the
// replays feed the same inputs, in order, to each layer on its own.

struct Event {
  enum Kind { kMgmt, kDigest } kind = kMgmt;
  /// Base events build the starting topology; timed events are the ones
  /// whose per-layer cost is reported; the others only move state.
  enum Phase { kBase, kPre, kTimed } phase = kBase;
  Json ops;                 // kMgmt: the transaction
  uint64_t port = 0;        // kDigest: MacLearn fields
  uint64_t vlan = 0;
  uint64_t mac = 0;
  int64_t seq = 0;
};

/// Per-timed-event layer costs (microseconds), parallel to the timed
/// events in log order; a layer an event does not reach reads 0.
struct Replay {
  std::vector<Event::Kind> kinds;       // kind of each timed event
  std::vector<double> transact_us;      // monitor-less Database::Transact
  std::vector<double> rpc_us;           // OvsdbClient::Transact
  std::vector<double> rpc_p4_us;        // p4 writes during the rpc replay
  std::vector<double> http_us;          // replica gateway POST /v1/transact
  std::vector<double> row_to_dlog_us;   // OvsdbRowToDlog, summed per event
  std::vector<double> commit_us;        // standalone Engine::Commit
  std::vector<double> row_to_entry_us;  // DlogRowToEntry, summed per event
  std::vector<double> output_rows;      // engine output rows per event
  double bootstrap_commit_s = 0;        // the base topology in one commit
  double recover_s = 0;                 // DurableStore::Open, base snapshot
  double wal_bytes_per_op = 0;          // WAL growth per timed mgmt event

  /// Values of `v` at the timed events of `kind`.
  std::vector<double> Of(const std::vector<double>& v, Event::Kind kind) const;
};

/// Runs every replay over `events`.
Result<Replay> RunReplays(const std::vector<Event>& events,
                          const std::string& work_dir);

// Per-layer reporting shared by the workloads.

/// ovsdb, nerpa conversion, dlog and ha layers from the replays.  The
/// engine metrics sample the timed events of `engine_kind` (management
/// transactions, or digests on mac_learn).
void AddReplayLayers(const Replay& r, Event::Kind engine_kind,
                     Report& report);

/// p4 write layer from the tracing decorator over `ops` workload ops.
void AddP4Layers(const TracingClient::Totals& delta,
                 std::vector<double> call_us, size_t ops, Report& report);

/// Packet-path layers: interpreter time, digests per packet and the
/// digest drain.
void AddPacketLayers(const std::vector<double>& process_us,
                     const std::vector<double>& sync_us, uint64_t digests,
                     Report& report);

/// One child of an op for the residual accounting, parallel to the ops.
struct Child {
  std::string name;
  std::vector<double> us;
};

/// nerpa.residual_us = op time minus every attributed child, per op; also
/// prints the accounting of the mean op against its children.
void AddResidual(const std::vector<double>& op_us,
                 const std::vector<Child>& children, Report& report);

// Workloads (one file each).
int RunPortChurn(const Args& args);
int RunMacLearn(const Args& args);

}  // namespace stackbench

#endif  // STACKBENCH_BENCH_H_
