// A2 — the dlog hot-path overhaul: interned values, cached row hashes,
// probe-free joins, and persistent transaction scratch state.
//
// Three workloads exercise exactly the costs the overhaul targets:
//
//   1. join-heavy commit stream — 32 keys re-pointed per commit against a
//      fanout-32 arrangement, so every commit probes and re-derives ~2,000
//      join rows.  Reported: commits/s, delta rows/s, arrangement probes/s
//      (from Engine::Stats).
//   2. commit latency vs relation size — the same single-key update
//      against databases of growing size, p50/p99 per commit after a
//      warm-up; incrementality says the curve should stay near-flat.
//   3. peak RSS with/without interning — a string-keyed join database
//      built in a fresh child process per mode (clean RSS), showing what
//      hash-consing saves when the same keys appear across relations and
//      derived rows.
//
// The bench records no reference numbers: to compare two engines, run it
// for both on the same machine, in the same session, at the same --scale.
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "dlog/engine.h"

namespace nerpa {
namespace {

using bench::Banner;
using bench::BenchArgs;
using bench::JsonEmitter;
using bench::Table;
using dlog::Engine;
using dlog::Row;
using dlog::Value;

constexpr const char* kJoinProgram = R"(
input relation R(k: string, a: bigint)
input relation S(k: string, b: bigint)
output relation J(a: bigint, b: bigint)
J(a, b) :- R(k, a), S(k, b).
)";

std::string KeyName(int k) { return StrFormat("key-%d", k); }

/// Child process: builds the string-keyed join database with interning on
/// or off and prints "rss_bytes out_rows".
int RunRssVariant(bool interning, const BenchArgs& args) {
  dlog::SetValueInterning(interning);
  auto program = dlog::Program::Parse(kJoinProgram);
  if (!program.ok()) return 1;
  Engine engine(*program);
  const int keys = args.Scaled(4096);
  const int fanout = 64;
  for (int k = 0; k < keys; ++k) {
    std::string key = StrFormat("lb-vip-key-%08d", k);
    (void)engine.Insert("R", Row{Value::String(key), Value::Int(k)});
    for (int f = 0; f < fanout; ++f) {
      (void)engine.Insert("S",
                          Row{Value::String(key), Value::Int(k * 1000 + f)});
    }
  }
  if (!engine.Commit().ok()) return 1;
  std::printf("%lld %zu\n", static_cast<long long>(CurrentRssBytes()),
              engine.Size("J"));
  return 0;
}

bool RunRssChild(const char* self, bool interning, const BenchArgs& args,
                 int64_t* rss, size_t* rows) {
  std::string command = std::string(self) +
                        (interning ? " rss-on" : " rss-off") + args.Forward();
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  char line[128] = {0};
  bool ok = fgets(line, sizeof line, pipe) != nullptr;
  int status = pclose(pipe);
  if (!ok || status != 0) return false;
  long long rss_value = 0;
  if (std::sscanf(line, "%lld %zu", &rss_value, rows) != 2) return false;
  *rss = rss_value;
  return true;
}

int Run(const char* self, const BenchArgs& args) {
  Banner("A2", "dlog hot path: interning, probe-free joins, txn reuse");

  JsonEmitter emitter("dlog_hotpath", args);

  // --- workload 1: join-heavy commit stream ---
  const int kKeys = 1024, kFanout = 32, kBatch = 32;
  const int kCommits = args.Scaled(500);
  double commits_per_sec = 0, delta_rows_per_sec = 0, probes_per_sec = 0;
  {
    auto program = dlog::Program::Parse(kJoinProgram);
    if (!program.ok()) return 1;
    Engine engine(*program);
    for (int k = 0; k < kKeys; ++k) {
      std::string key = KeyName(k);
      (void)engine.Insert("R", Row{Value::String(key), Value::Int(k)});
      for (int f = 0; f < kFanout; ++f) {
        (void)engine.Insert(
            "S", Row{Value::String(key), Value::Int(k * 1000 + f)});
      }
    }
    if (!engine.Commit().ok()) return 1;
    std::mt19937_64 rng(args.seed);
    std::vector<int64_t> current(kKeys);
    for (int k = 0; k < kKeys; ++k) current[static_cast<size_t>(k)] = k;
    uint64_t delta_rows = 0;
    Engine::Stats before_stats = engine.GetStats();
    Stopwatch watch;
    for (int c = 0; c < kCommits; ++c) {
      for (int b = 0; b < kBatch; ++b) {
        int k = static_cast<int>(rng() % kKeys);
        std::string key = KeyName(k);
        (void)engine.Delete(
            "R", Row{Value::String(key), Value::Int(current[k])});
        current[k] = k + 1000000LL * (c + 1) + b;
        (void)engine.Insert(
            "R", Row{Value::String(key), Value::Int(current[k])});
      }
      auto delta = engine.Commit();
      if (!delta.ok()) return 1;
      for (const auto& [name, d] : delta->outputs) delta_rows += d.size();
    }
    double seconds = watch.ElapsedSeconds();
    Engine::Stats after_stats = engine.GetStats();
    uint64_t probes = after_stats.probes - before_stats.probes;
    commits_per_sec = kCommits / seconds;
    delta_rows_per_sec = static_cast<double>(delta_rows) / seconds;
    probes_per_sec = static_cast<double>(probes) / seconds;

    Table table({"metric", "value"});
    table.AddRow({"commits/s", StrFormat("%.0f", commits_per_sec)});
    table.AddRow({"delta rows/s", StrFormat("%.0f", delta_rows_per_sec)});
    table.AddRow({"probes/s", StrFormat("%.0f", probes_per_sec)});
    table.Print();
    std::printf(
        "probe detail: %llu probes, %llu hits, %llu scratch-key probes\n\n",
        static_cast<unsigned long long>(probes),
        static_cast<unsigned long long>(after_stats.probe_hits -
                                        before_stats.probe_hits),
        static_cast<unsigned long long>(after_stats.key_allocs_saved -
                                        before_stats.key_allocs_saved));

    emitter.Metric("join_commits_per_s", commits_per_sec);
    emitter.Metric("join_delta_rows_per_s", delta_rows_per_sec);
    emitter.Metric("join_probes_per_s", probes_per_sec);
    Json::Object intern;
    intern["strings"] =
        static_cast<int64_t>(after_stats.intern.strings);
    intern["tuples"] = static_cast<int64_t>(after_stats.intern.tuples);
    intern["hits"] = static_cast<int64_t>(after_stats.intern.hits);
    intern["misses"] = static_cast<int64_t>(after_stats.intern.misses);
    emitter.Metric("intern_pool", Json(std::move(intern)));
    emitter.Metric("arrangement_bytes",
                   static_cast<int64_t>(after_stats.arrangement_bytes));
  }

  // --- workload 2: commit latency vs relation size ---
  // Each commit is timed on its own after an untimed warm-up (the first
  // commits after the load still grow the transaction's scratch tables).
  const int kSizes[] = {1024, 4096, 16384, 65536};
  Json::Array latency_curve;
  {
    Table table({"relation size", "p50 us/commit", "p99 us/commit"});
    const int kWarmupCommits = args.Scaled(100);
    const int kLatencyCommits = args.Scaled(500);
    for (int size : kSizes) {
      auto program = dlog::Program::Parse(kJoinProgram);
      Engine engine(*program);
      int keys = size / kFanout;
      for (int k = 0; k < keys; ++k) {
        std::string key = KeyName(k);
        (void)engine.Insert("R", Row{Value::String(key), Value::Int(k)});
        for (int f = 0; f < kFanout; ++f) {
          (void)engine.Insert(
              "S", Row{Value::String(key), Value::Int(k * 1000 + f)});
        }
      }
      if (!engine.Commit().ok()) return 1;
      std::mt19937_64 rng(args.seed);
      std::vector<int64_t> current(static_cast<size_t>(keys));
      for (int k = 0; k < keys; ++k) current[static_cast<size_t>(k)] = k;
      std::vector<double> us;
      us.reserve(static_cast<size_t>(kLatencyCommits));
      for (int c = 0; c < kWarmupCommits + kLatencyCommits; ++c) {
        int k = static_cast<int>(rng() % static_cast<uint64_t>(keys));
        std::string key = KeyName(k);
        (void)engine.Delete(
            "R", Row{Value::String(key), Value::Int(current[k])});
        current[k] = k + 1000000LL * (c + 1);
        (void)engine.Insert(
            "R", Row{Value::String(key), Value::Int(current[k])});
        Stopwatch watch;
        if (!engine.Commit().ok()) return 1;
        if (c >= kWarmupCommits) us.push_back(watch.ElapsedSeconds() * 1e6);
      }
      double p50 = bench::Percentile(us, 0.50);
      double p99 = bench::Percentile(us, 0.99);
      table.AddRow({std::to_string(size), StrFormat("%.1f", p50),
                    StrFormat("%.1f", p99)});
      Json::Object point;
      point["relation_size"] = size;
      point["us_p50"] = p50;
      point["us_p99"] = p99;
      latency_curve.push_back(Json(std::move(point)));
    }
    table.Print();
    std::printf("\n");
    emitter.Param("latency_warmup_commits", kWarmupCommits);
    emitter.Param("latency_commits", kLatencyCommits);
  }
  emitter.Metric("commit_latency_vs_size", Json(std::move(latency_curve)));

  // --- workload 3: peak RSS with/without interning (child processes) ---
  int64_t rss_interned = 0, rss_plain = 0;
  size_t rows_interned = 0, rows_plain = 0;
  if (!RunRssChild(self, true, args, &rss_interned, &rows_interned) ||
      !RunRssChild(self, false, args, &rss_plain, &rows_plain) ||
      rows_interned != rows_plain) {
    std::fprintf(stderr, "rss child variant failed\n");
    return 1;
  }
  {
    Table table({"variant", "peak RSS", "derived rows"});
    table.AddRow({"interning off",
                  StrFormat("%.1f MiB",
                            static_cast<double>(rss_plain) / 1048576.0),
                  std::to_string(rows_plain)});
    table.AddRow({"interning on",
                  StrFormat("%.1f MiB",
                            static_cast<double>(rss_interned) / 1048576.0),
                  std::to_string(rows_interned)});
    table.Print();
  }
  emitter.Param("rss_keys", args.Scaled(4096));
  emitter.Param("rss_fanout", 64);
  emitter.Metric("rss_bytes_interning_off", rss_plain);
  emitter.Metric("rss_bytes_interning_on", rss_interned);

  emitter.Param("join_keys", kKeys);
  emitter.Param("join_fanout", kFanout);
  emitter.Param("join_batch", kBatch);
  emitter.Param("join_commits", kCommits);
  emitter.Write();
  return 0;
}

}  // namespace
}  // namespace nerpa

int main(int argc, char** argv) {
  nerpa::bench::BenchArgs args = nerpa::bench::BenchArgs::Parse(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "rss-on") == 0) {
    return nerpa::RunRssVariant(true, args);
  }
  if (argc > 1 && std::strcmp(argv[1], "rss-off") == 0) {
    return nerpa::RunRssVariant(false, args);
  }
  return nerpa::Run(argv[0], args);
}
