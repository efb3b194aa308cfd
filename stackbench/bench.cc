#include "bench.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "nerpa/bindings.h"
#include "net/packet.h"
#include "ovsdb/datum.h"
#include "snvs/snvs.h"

namespace stackbench {

using nerpa::ovsdb::Atom;
using nerpa::ovsdb::Datum;

// ---------------------------------------------------------------------------
// Statistics and reporting.

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  auto rank = [&](double q) {
    size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(s.n)));
    return values[std::min(s.n, std::max<size_t>(r, 1)) - 1];
  };
  s.p50 = rank(0.50);
  s.p99 = rank(0.99);
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  return s;
}

double Median(std::vector<double> values) { return Summarize(values).p50; }

int64_t TracedEnd(int64_t start_ns, double seconds) {
  return start_ns +
         static_cast<int64_t>(std::min(seconds / 2, kMaxTracedSeconds) * 1e9);
}

int64_t SetupDue(int64_t start_ns, double seconds, int i) {
  return start_ns + static_cast<int64_t>((i + 0.5) / kWindowSetups *
                                         seconds * 1e9);
}

double RssMib(size_t own_bytes) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return (std::strtod(line.c_str() + 6, nullptr) * 1024.0 -
              static_cast<double>(own_bytes)) /
             (1024.0 * 1024.0);
    }
  }
  return 0;
}

void Outcome::Mismatch(const std::string& what) {
  correct = false;
  if (errors.size() < 10) errors.push_back("mismatch: " + what);
}

void Outcome::OpFailed(const std::string& what) {
  ++failed;
  if (errors.size() < 10) errors.push_back("op failed: " + what);
}

void Report::Param(const std::string& name, const std::string& value) {
  params_.emplace_back(name, value);
}

void Report::Param(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  params_.emplace_back(name, buf);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Percentiles(const std::string& name, const Summary& s,
                         const std::string& unit, bool end_to_end) {
  // End-to-end: op -> op_p50_us.  Per-layer: p4.write_us -> p4.write_us.p50.
  for (const auto& [q, v] : {std::pair{"p50", s.p50}, std::pair{"p99", s.p99}}) {
    if (end_to_end) {
      end_to_end_.push_back({name + "_" + q + "_" + unit, v, unit});
    } else {
      layer_.push_back({name + "." + q, v, unit});
    }
  }
  Note(name + ": " + std::to_string(s.n) + " samples" +
       (s.n < kMinP99Samples ? "; too few for a p99" : ""));
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

namespace {
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Report::Print(const Args& args, const Outcome& outcome) const {
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& [name, value] : params_) {
    std::printf("param %s %s\n", name.c_str(), value.c_str());
  }
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const std::string& error : outcome.errors) {
    std::printf("! %s\n", error.c_str());
  }
  const auto& metrics = args.trace ? layer_ : end_to_end_;
  std::printf("fail_frac %s ratio\n",
              Number(outcome.attempted == 0
                         ? 1.0
                         : static_cast<double>(outcome.failed) /
                               static_cast<double>(outcome.attempted))
                  .c_str());
  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  // A failed op fails the run too: it was neither timed nor checked.
  bool correct = outcome.correct && outcome.failed == 0;
  for (const Metric& m : metrics) correct = correct && std::isfinite(m.value);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Port generator.

bool IsFrontPanel(int64_t port) {
  return port != static_cast<int64_t>(nerpa::p4::kDropPort);
}

PortSpec RandomPort(std::mt19937_64& rng, const TopologyParams& topo,
                    int64_t port) {
  PortSpec spec;
  spec.port = port;
  std::uniform_real_distribution<double> unit(0, 1);
  std::uniform_int_distribution<int64_t> vlan(1, topo.vlans);
  spec.trunk = unit(rng) < topo.trunk_frac;
  if (spec.trunk) {
    std::set<int64_t> picked;
    while (static_cast<int>(picked.size()) < topo.trunk_vlans) {
      picked.insert(vlan(rng));
    }
    spec.trunks.assign(picked.begin(), picked.end());
  } else {
    spec.tag = vlan(rng);
  }
  return spec;
}

namespace {
Json TrunksJson(const PortSpec& spec) {
  std::vector<Atom> atoms;
  for (int64_t v : spec.trunks) atoms.emplace_back(v);
  return Datum::Set(std::move(atoms)).ToJson();
}

Json NameWhere(const PortSpec& spec) {
  return Json(Json::Array{
      Json(Json::Array{Json("name"), Json("=="), Json(spec.name())})});
}
}  // namespace

Json InsertPortOps(const std::vector<PortSpec>& ports) {
  Json::Array ops;
  for (const PortSpec& spec : ports) {
    ops.push_back(Json(Json::Object{
        {"op", Json("insert")},
        {"table", Json("Port")},
        {"row", Json(Json::Object{
                    {"name", Json(spec.name())},
                    {"port", Json(spec.port)},
                    {"vlan_mode", Json(spec.trunk ? "trunk" : "access")},
                    {"tag", Json(spec.tag)},
                    {"trunks", TrunksJson(spec)}})}}));
  }
  return Json(std::move(ops));
}

Json DeletePortOps(const PortSpec& spec) {
  return Json(Json::Array{Json(Json::Object{{"op", Json("delete")},
                                            {"table", Json("Port")},
                                            {"where", NameWhere(spec)}})});
}

Json RetagPortOps(const PortSpec& spec) {
  Json::Object row;
  if (spec.trunk) {
    row["trunks"] = TrunksJson(spec);
  } else {
    row["tag"] = Json(spec.tag);
  }
  return Json(Json::Array{Json(Json::Object{{"op", Json("update")},
                                            {"table", Json("Port")},
                                            {"where", NameWhere(spec)},
                                            {"row", Json(std::move(row))}})});
}

ChurnGen::ChurnGen(uint64_t seed, TopologyParams topo, int64_t lo, int64_t hi,
                   int64_t stride, int64_t offset, size_t target_live)
    : rng_(seed), topo_(topo), target_live_(target_live) {
  for (int64_t n = lo; n <= hi; ++n) {
    if ((n - offset) % stride == 0 && IsFrontPanel(n)) free_.push_back(n);
  }
}

void ChurnGen::Reserve(int64_t port) {
  auto it = std::find(free_.begin(), free_.end(), port);
  if (it != free_.end()) {
    *it = free_.back();
    free_.pop_back();
  }
}

void ChurnGen::AdoptLive(const PortSpec& spec) {
  Reserve(spec.port);
  live_[spec.port] = spec;
  live_keys_.push_back(spec.port);
}

ChurnGen::Op ChurnGen::Next() {
  std::uniform_real_distribution<double> unit(0, 1);
  Op op{Op::kRetag, {}, {}};
  double draw = unit(rng_);
  size_t live = live_keys_.size();
  if (live < target_live_ * 95 / 100) {
    op.kind = Op::kAdd;
  } else if (live > target_live_ * 105 / 100) {
    op.kind = Op::kDelete;
  } else {
    op.kind = draw < 0.35 ? Op::kAdd : draw < 0.70 ? Op::kDelete : Op::kRetag;
  }
  if (op.kind == Op::kAdd && free_.empty()) op.kind = Op::kDelete;
  if (op.kind != Op::kAdd && live == 0) op.kind = Op::kAdd;
  if (op.kind == Op::kAdd) {
    int64_t port = free_[rng_() % free_.size()];
    op.after = RandomPort(rng_, topo_, port);
    op.ops = InsertPortOps({op.after});
    return op;
  }
  op.after = live_.at(live_keys_[rng_() % live]);
  if (op.kind == Op::kDelete) {
    op.ops = DeletePortOps(op.after);
    return op;
  }
  std::uniform_int_distribution<int64_t> vlan(1, topo_.vlans);
  if (op.after.trunk) {
    std::set<int64_t> trunks(op.after.trunks.begin(), op.after.trunks.end());
    trunks.erase(op.after.trunks[rng_() % op.after.trunks.size()]);
    int64_t v;
    do {
      v = vlan(rng_);
    } while (trunks.count(v) != 0 ||
             std::count(op.after.trunks.begin(), op.after.trunks.end(), v));
    trunks.insert(v);
    op.after.trunks.assign(trunks.begin(), trunks.end());
  } else {
    int64_t v;
    do {
      v = vlan(rng_);
    } while (v == op.after.tag);
    op.after.tag = v;
  }
  op.ops = RetagPortOps(op.after);
  return op;
}

void ChurnGen::Commit(const Op& op) {
  const int64_t port = op.after.port;
  switch (op.kind) {
    case Op::kAdd: {
      auto it = std::find(free_.begin(), free_.end(), port);
      *it = free_.back();
      free_.pop_back();
      live_[port] = op.after;
      live_keys_.push_back(port);
      break;
    }
    case Op::kDelete: {
      auto it = std::find(live_keys_.begin(), live_keys_.end(), port);
      *it = live_keys_.back();
      live_keys_.pop_back();
      live_.erase(port);
      free_.push_back(port);
      break;
    }
    case Op::kRetag:
      live_[port] = op.after;
      break;
  }
}

Status CheckTransactReply(const Json& results) {
  if (!results.is_array()) return nerpa::InvalidArgument("reply not an array");
  for (const Json& result : results.as_array()) {
    if (!result.is_object()) return nerpa::InvalidArgument("bad op result");
    if (result.Find("error") != nullptr) {
      return nerpa::InvalidArgument("op error: " + result.Dump());
    }
    const Json* count = result.Find("count");
    if (count != nullptr && (!count->is_integer() || count->as_integer() != 1)) {
      return nerpa::InvalidArgument("op matched " + count->Dump() + " rows");
    }
  }
  return Status();
}

// ---------------------------------------------------------------------------
// Data plane.

uint64_t RandomMac(std::mt19937_64& rng) {
  // Unicast (group bit clear), locally administered.
  return (rng() & 0xFCFFFFFFFFFFULL) | 0x020000000000ULL;
}

nerpa::net::Packet Frame(uint64_t dst_mac, uint64_t src_mac) {
  static const std::vector<uint8_t> kPayload(46, 0);
  return nerpa::net::MakeEthernetFrame(nerpa::net::Mac(dst_mac),
                                       nerpa::net::Mac(src_mac), 0x0800,
                                       kPayload);
}

Status TracingClient::Write(const std::vector<nerpa::p4::Update>& updates) {
  bool on;
  {
    std::lock_guard<std::mutex> lock(mu_);
    on = enabled_;
  }
  if (!on) return RuntimeClient::Write(updates);
  int64_t t0 = NowNs();
  Status status = RuntimeClient::Write(updates);
  int64_t dt = NowNs() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  totals_.busy_ns += static_cast<uint64_t>(dt);
  totals_.writes += 1;
  totals_.updates += updates.size();
  call_us_.push_back(static_cast<double>(dt) / 1e3);
  return status;
}

Status TracingClient::SetMulticastGroup(uint32_t group,
                                        std::vector<uint64_t> ports) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) return RuntimeClient::SetMulticastGroup(group, ports);
  }
  const uint64_t members = ports.size();
  uint64_t changed = ports.size();
  if (const auto* last = target()->GetMulticastGroup(group)) {
    std::set<uint64_t> before(last->begin(), last->end());
    std::set<uint64_t> after(ports.begin(), ports.end());
    changed = 0;
    for (uint64_t p : after) changed += before.count(p) == 0 ? 1 : 0;
    for (uint64_t p : before) changed += after.count(p) == 0 ? 1 : 0;
  }
  int64_t t0 = NowNs();
  Status status = RuntimeClient::SetMulticastGroup(group, std::move(ports));
  int64_t dt = NowNs() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  totals_.busy_ns += static_cast<uint64_t>(dt);
  totals_.mcast_sets += 1;
  totals_.mcast_members += members;
  totals_.mcast_changed += changed;
  call_us_.push_back(static_cast<double>(dt) / 1e3);
  return status;
}

void TracingClient::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

TracingClient::Totals TracingClient::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<double> TracingClient::TakeCallSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(call_us_);
}

Status OwnedStack::Build(nerpa::snvs::SnvsOptions options, bool tracing) {
  sw = std::make_unique<nerpa::p4::Switch>(nerpa::snvs::SnvsP4Program());
  if (tracing) {
    auto t = std::make_unique<TracingClient>(sw.get());
    tracer = t.get();
    client = std::move(t);
  } else {
    client = std::make_unique<nerpa::p4::RuntimeClient>(sw.get());
  }
  options.external_clients = {client.get()};
  NERPA_ASSIGN_OR_RETURN(stack, nerpa::snvs::BuildSnvsStack(options));
  return Status();
}

void OwnedStack::Reset() {
  stack.reset();
  client.reset();
  sw.reset();
  tracer = nullptr;
}

const SnvsPieces& Pieces() {
  static const SnvsPieces* pieces = [] {
    auto* p = new SnvsPieces();
    nerpa::BindingOptions options;
    options.with_digest_seq = true;
    auto bindings = nerpa::GenerateBindings(nerpa::snvs::SnvsSchema(),
                                            *nerpa::snvs::SnvsP4Program(),
                                            options);
    if (!bindings.ok()) {
      std::fprintf(stderr, "bindings: %s\n",
                   bindings.status().ToString().c_str());
      std::exit(1);
    }
    p->bindings = std::move(bindings).value();
    p->program_text = p->bindings.DeclsText() + nerpa::snvs::SnvsRules();
    auto program = nerpa::dlog::Program::Parse(p->program_text);
    if (!program.ok()) {
      std::fprintf(stderr, "program: %s\n",
                   program.status().ToString().c_str());
      std::exit(1);
    }
    p->program = std::move(program).value();
    return p;
  }();
  return *pieces;
}

// ---------------------------------------------------------------------------
// ServedStack.

namespace {
constexpr int kGatewayWorkers = 2;
}  // namespace

Result<std::unique_ptr<ServedStack>> ServedStack::Build(
    const std::vector<Json>& base_txns, bool tracing, bool with_gateway) {
  auto stack = std::unique_ptr<ServedStack>(new ServedStack());
  stack->switch_ =
      std::make_unique<nerpa::p4::Switch>(nerpa::snvs::SnvsP4Program());
  if (tracing) {
    auto tracer = std::make_unique<TracingClient>(stack->switch_.get());
    stack->tracer_ = tracer.get();
    stack->client_ = std::move(tracer);
  } else {
    stack->client_ =
        std::make_unique<nerpa::p4::RuntimeClient>(stack->switch_.get());
  }
  auto db = std::make_unique<nerpa::ovsdb::Database>(nerpa::snvs::SnvsSchema());
  stack->db_ = db.get();
  for (const Json& txn : base_txns) {
    NERPA_ASSIGN_OR_RETURN(Json results, db->Transact(txn));
    NERPA_RETURN_IF_ERROR(CheckTransactReply(results));
  }
  const SnvsPieces& pieces = Pieces();
  nerpa::Controller::Options options;
  options.multicast_relation = "MulticastGroup";
  stack->controller_ = std::make_unique<nerpa::Controller>(
      stack->db_, pieces.program, nerpa::snvs::SnvsP4Program(),
      pieces.bindings, options);
  NERPA_RETURN_IF_ERROR(
      stack->controller_->AddDevice("sw0", stack->client_.get()));
  NERPA_RETURN_IF_ERROR(stack->controller_->Start());
  stack->server_ = std::make_unique<nerpa::ovsdb::OvsdbServer>(std::move(db));
  NERPA_RETURN_IF_ERROR(stack->server_->Start(0));
  if (with_gateway) {
    nerpa::gateway::Gateway::Options gw;
    gw.backend_port = stack->server_->port();
    gw.workers = kGatewayWorkers;
    stack->gateway_ = std::make_unique<nerpa::gateway::Gateway>(gw);
    NERPA_RETURN_IF_ERROR(stack->gateway_->Start());
  }
  return stack;
}

ServedStack::~ServedStack() {
  if (gateway_) gateway_->Stop();
  if (server_) server_->Stop();
  gateway_.reset();
  controller_.reset();  // removes its monitor from the server-owned db
  server_.reset();
}

// ---------------------------------------------------------------------------
// HttpConn.

HttpConn::HttpConn(uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd_);
    fd_ = -1;
    return;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

HttpConn::~HttpConn() {
  if (fd_ >= 0) close(fd_);
}

bool HttpConn::Fill() {
  char chunk[16 * 1024];
  ssize_t got = recv(fd_, chunk, sizeof(chunk), 0);
  if (got <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(got));
  return true;
}

bool HttpConn::RoundTrip(const std::string& method, const std::string& target,
                         const std::string& body, Reply* reply) {
  std::string out = method + " " + target + " HTTP/1.1\r\nHost: b\r\n";
  if (method == "POST") {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n" + body;
  size_t off = 0;
  while (off < out.size()) {
    ssize_t sent =
        send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    off += static_cast<size_t>(sent);
  }
  *reply = Reply{};
  size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) return false;
  }
  std::string head = buffer_.substr(0, head_end);
  buffer_.erase(0, head_end + 4);
  if (head.rfind("HTTP/1.1 ", 0) != 0) return false;
  reply->status = std::atoi(head.c_str() + 9);
  size_t length = 0;
  size_t at = head.find("Content-Length: ");
  if (at != std::string::npos) {
    length = static_cast<size_t>(std::atol(head.c_str() + at + 16));
  }
  while (buffer_.size() < length) {
    if (!Fill()) return false;
  }
  reply->body = buffer_.substr(0, length);
  buffer_.erase(0, length);
  return true;
}

// ---------------------------------------------------------------------------
// Correctness checks.

namespace {
bool DigestFed(const std::string& table) {
  return table == "SMac" || table == "Dmac";
}

std::vector<std::string> Entries(const nerpa::p4::RuntimeClient& client,
                                 const std::string& table, Outcome& outcome) {
  std::vector<std::string> out;
  auto entries = client.ReadTable(table);
  if (!entries.ok()) {
    outcome.Mismatch("read " + table + ": " + entries.status().ToString());
    return out;
  }
  for (const auto& entry : entries.value()) out.push_back(entry.ToString());
  std::sort(out.begin(), out.end());
  return out;
}
}  // namespace

void CheckAgainstRebuild(const nerpa::ovsdb::Database& db,
                         const nerpa::p4::RuntimeClient& live,
                         Outcome& outcome) {
  auto fresh = nerpa::snvs::BuildSnvsStack();
  if (!fresh.ok()) {
    outcome.Mismatch("rebuild: " + fresh.status().ToString());
    return;
  }
  nerpa::snvs::SnvsStack& stack = *fresh.value();
  Json::Array ops;
  for (const std::string table : {"Port", "Mirror", "AclRule"}) {
    for (const nerpa::ovsdb::Row* row : db.GetRows(table)) {
      Json::Object columns;
      for (const auto& [name, datum] : row->columns) {
        if (name.empty() || name[0] == '_') continue;
        columns[name] = datum.ToJson();
      }
      ops.push_back(Json(Json::Object{{"op", Json("insert")},
                                      {"table", Json(table)},
                                      {"row", Json(std::move(columns))}}));
    }
  }
  if (!ops.empty()) {
    auto results = stack.db().Transact(Json(std::move(ops)));
    if (!results.ok()) {
      outcome.Mismatch("rebuild transact: " + results.status().ToString());
      return;
    }
  }
  if (!stack.controller().last_error().ok()) {
    outcome.Mismatch("rebuild controller: " +
                     stack.controller().last_error().ToString());
    return;
  }
  for (const auto& table : nerpa::snvs::SnvsP4Program()->tables) {
    if (DigestFed(table.name)) continue;
    std::vector<std::string> want = Entries(stack.runtime(), table.name,
                                            outcome);
    std::vector<std::string> got = Entries(live, table.name, outcome);
    if (want != got) {
      outcome.Mismatch("table " + table.name + ": " +
                       std::to_string(got.size()) + " entries, rebuild has " +
                       std::to_string(want.size()));
    }
  }
  auto want = stack.runtime().ReadMulticastGroups();
  auto got = live.ReadMulticastGroups();
  if (!want.ok() || !got.ok() || want.value() != got.value()) {
    outcome.Mismatch("multicast groups differ from the rebuild");
  }
}

void CheckLearned(const nerpa::p4::RuntimeClient& live,
                  const LearnedHosts& hosts, Outcome& outcome) {
  auto smac = live.ReadTable("SMac");
  auto dmac = live.ReadTable("Dmac");
  if (!smac.ok() || !dmac.ok()) {
    outcome.Mismatch("cannot read SMac/Dmac");
    return;
  }
  LearnedHosts smac_seen;
  for (const auto& e : smac.value()) {
    auto key = std::make_pair(e.match.at(0).value, e.match.at(1).value);
    if (!smac_seen.emplace(key, e.match.at(2).value).second) {
      outcome.Mismatch("SMac holds two ports for one host");
      return;
    }
  }
  LearnedHosts dmac_seen;
  for (const auto& e : dmac.value()) {
    dmac_seen[{e.match.at(0).value, e.match.at(1).value}] =
        e.action_args.at(0);
  }
  if (smac_seen != hosts) {
    outcome.Mismatch("SMac: " + std::to_string(smac_seen.size()) +
                     " entries, " + std::to_string(hosts.size()) +
                     " hosts; entries differ from the hosts' last ports");
  }
  if (dmac_seen != hosts) {
    outcome.Mismatch("Dmac: " + std::to_string(dmac_seen.size()) +
                     " entries, " + std::to_string(hosts.size()) +
                     " hosts; entries differ from the hosts' last ports");
  }
}

// ---------------------------------------------------------------------------
// Flow-setup probe.

LearnProbe::LearnProbe(uint64_t seed,
                       std::map<int64_t, std::vector<int64_t>> ports)
    : rng_(seed) {
  for (auto& [vlan, list] : ports) {
    if (list.size() < 2) continue;
    vlans_.push_back({static_cast<uint64_t>(vlan), std::move(list), 0});
  }
}

uint64_t LearnProbe::FreshMac() {
  uint64_t mac;
  do {
    mac = RandomMac(rng_);
  } while (!macs_.insert(mac).second);
  return mac;
}

Status LearnProbe::Anchor(nerpa::p4::Switch& sw,
                          nerpa::Controller& controller) {
  if (vlans_.empty()) return nerpa::InvalidArgument("no VLAN to probe");
  for (Vlan& v : vlans_) {
    v.anchor_mac = FreshMac();
    const uint64_t port = static_cast<uint64_t>(v.ports[0]);
    NERPA_RETURN_IF_ERROR(
        sw.ProcessPacket({port, Frame(0xFFFFFFFFFFFFULL, v.anchor_mac)})
            .status());
    NERPA_RETURN_IF_ERROR(controller.SyncDataPlaneNotifications());
    hosts[{v.vlan, v.anchor_mac}] = port;
  }
  return Status();
}

void LearnProbe::Step(nerpa::p4::Switch& sw, nerpa::Controller& controller,
                      bool traced, Outcome& outcome) {
  const Vlan& v = vlans_[rng_() % vlans_.size()];
  const uint64_t anchor = static_cast<uint64_t>(v.ports[0]);
  const uint64_t port =
      static_cast<uint64_t>(v.ports[1 + rng_() % (v.ports.size() - 1)]);
  const uint64_t mac = FreshMac();
  nerpa::p4::PacketIn in{port, Frame(v.anchor_mac, mac)};
  const int64_t seq_before = controller.digest_seq();
  ++outcome.attempted;
  const int64_t t0 = NowNs();
  auto sent = sw.ProcessPacket(in);
  const int64_t t1 = NowNs();
  Status synced = controller.SyncDataPlaneNotifications();
  const int64_t t2 = NowNs();
  op_us.push_back(static_cast<double>(t2 - t0) / 1e3);
  if (traced) {
    process_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    sync_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  }
  const int64_t drained = controller.digest_seq() - seq_before;
  if (traced) digests += static_cast<uint64_t>(drained);
  if (!sent.ok() || !synced.ok() || sent.value().size() != 1 ||
      sent.value()[0].port != anchor || drained != 1) {
    outcome.OpFailed("probe packet on port " + std::to_string(port));
    return;
  }
  hosts[{v.vlan, mac}] = port;
}

}  // namespace stackbench
