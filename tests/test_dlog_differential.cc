// Differential and hot-path regression tests for the dlog engine:
//
//   * the interning and arrangement ablation switches must not change any
//     observable result — every configuration produces byte-identical
//     output deltas for the same transaction stream;
//   * the intern pool must preserve value equality/hashing across modes
//     (the transparent-lookup contract probe-free joins rely on);
//   * a commit into an empty engine (from-empty mode) must match the
//     delta-rule path;
//   * a failed Commit() (division by zero mid-rule) must roll back every
//     partial effect — derivation counts, arrangements, aggregation state
//     — leaving the engine exactly as before the failed transaction, also
//     when that transaction was the first.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "dlog/engine.h"

namespace nerpa::dlog {
namespace {

Row R(std::initializer_list<Value> vs) { return Row(vs); }
Value I(int64_t v) { return Value::Int(v); }
Value S(const std::string& s) { return Value::String(s); }

std::shared_ptr<const Program> MustParse(const char* source) {
  auto program = Program::Parse(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return *program;
}

/// Restores process-wide interning on scope exit (tests toggle it).
struct InterningGuard {
  ~InterningGuard() { SetValueInterning(true); }
};

// ---------------------------------------------------------------------------
// Differential property: interning {on, off} x arrangements {on, off}
// produce byte-identical deltas for the same transaction stream.
// ---------------------------------------------------------------------------

// Join + aggregation, string and integer columns.  (No negation: the
// no-arrangement mode rejects it by design.)
constexpr const char* kDifferentialProgram = R"(
input relation Port(sw: string, port: bigint, vlan: bigint)
input relation Trunk(sw: string, port: bigint)
output relation Flood(sw: string, vlan: bigint)
output relation PairUp(sw: string, a: bigint, b: bigint)
output relation VlanCount(sw: string, n: bigint)
Flood(s, v) :- Port(s, p, v).
PairUp(s, a, b) :- Port(s, a, v), Trunk(s, b).
VlanCount(s, n) :- Port(s, p, v), var n = count(p) group_by (s).
)";

/// One abstract input operation, materialized into a Row per engine so
/// each configuration constructs its values under its own interning mode.
struct Op {
  std::string relation;
  std::string sw;
  std::vector<int64_t> ints;
  bool insert = true;
};

Row MaterializeRow(const Op& op) {
  Row row;
  row.push_back(S(op.sw));
  for (int64_t v : op.ints) row.push_back(I(v));
  return row;
}

TEST(DlogDifferential, InterningAndArrangementsDoNotChangeDeltas) {
  InterningGuard guard;
  struct Config {
    bool intern;
    bool arrange;
  };
  const Config configs[] = {
      {true, true}, {true, false}, {false, true}, {false, false}};

  auto program = MustParse(kDifferentialProgram);
  std::vector<std::unique_ptr<Engine>> engines;
  for (const Config& config : configs) {
    SetValueInterning(config.intern);
    EngineOptions options;
    options.use_arrangements = config.arrange;
    engines.push_back(std::make_unique<Engine>(program, options));
  }

  std::mt19937_64 rng(20260806);
  // Tracked live rows so deletes hit existing tuples ~half the time.
  std::set<std::pair<std::string, std::vector<int64_t>>> live_ports;
  for (int step = 0; step < 50; ++step) {
    std::vector<Op> ops;
    int count = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < count; ++k) {
      Op op;
      op.sw = "sw-" + std::to_string(rng() % 3);
      if (rng() % 4 == 0) {
        op.relation = "Trunk";
        op.ints = {static_cast<int64_t>(rng() % 8)};
        op.insert = rng() % 2 == 0;
      } else {
        op.relation = "Port";
        op.ints = {static_cast<int64_t>(rng() % 8),
                   static_cast<int64_t>(rng() % 4)};
        auto key = std::make_pair(op.sw, op.ints);
        if (rng() % 2 == 0 && !live_ports.empty()) {
          // Delete something that exists.
          auto it = live_ports.begin();
          std::advance(it, static_cast<long>(rng() % live_ports.size()));
          op.sw = it->first;
          op.ints = it->second;
          op.insert = false;
          live_ports.erase(it);
        } else {
          op.insert = true;
          live_ports.insert(key);
        }
      }
      ops.push_back(std::move(op));
    }

    std::vector<std::string> deltas;
    for (size_t e = 0; e < engines.size(); ++e) {
      SetValueInterning(configs[e].intern);
      for (const Op& op : ops) {
        Row row = MaterializeRow(op);
        Status status = op.insert
                            ? engines[e]->Insert(op.relation, std::move(row))
                            : engines[e]->Delete(op.relation, std::move(row));
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      auto delta = engines[e]->Commit();
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      deltas.push_back(delta->ToString());
    }
    for (size_t e = 1; e < deltas.size(); ++e) {
      ASSERT_EQ(deltas[0], deltas[e])
          << "config " << e << " (intern=" << configs[e].intern
          << ", arrange=" << configs[e].arrange
          << ") diverged at step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential property: a commit into an empty engine (from-empty mode:
// full evaluation, bulk-built indexes, no undo log) must be byte-identical
// to the delta-rule path, both in state and in all subsequent transactions.
// ---------------------------------------------------------------------------

/// Dump of every relation, stringified, for whole-state comparison.
std::string DumpAll(const Engine& engine) {
  std::string out;
  for (const auto& decl : engine.program().relations()) {
    auto rows = engine.Dump(decl.name);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    out += decl.name + ":\n";
    for (const Row& row : *rows) out += "  " + RowToString(row) + "\n";
  }
  return out;
}

TEST(DlogDifferential, FromEmptyAndIncrementalLoadsAgree) {
  auto program = MustParse(kDifferentialProgram);
  std::mt19937_64 rng(20260808);
  std::vector<Op> initial;
  for (int k = 0; k < 600; ++k) {
    Op op;
    op.sw = "sw-" + std::to_string(rng() % 5);
    if (k % 5 == 0) {
      op.relation = "Trunk";
      op.ints = {static_cast<int64_t>(rng() % 32)};
    } else {
      op.relation = "Port";
      op.ints = {static_cast<int64_t>(rng() % 64),
                 static_cast<int64_t>(rng() % 8)};
    }
    initial.push_back(std::move(op));
  }

  // One engine loads all 600 rows as a single from-empty commit; the other
  // commits the first row alone, so the other 599 take the delta rules.
  const char* names[] = {"from-empty", "incremental"};
  Engine from_empty(program);
  Engine incremental(program);
  std::vector<Engine*> engines = {&from_empty, &incremental};
  for (const Op& op : initial) {
    ASSERT_TRUE(from_empty.Insert(op.relation, MaterializeRow(op)).ok());
  }
  auto loaded = from_empty.Commit();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t k = 0; k < initial.size(); ++k) {
    const Op& op = initial[k];
    ASSERT_TRUE(incremental.Insert(op.relation, MaterializeRow(op)).ok());
    if (k == 0) {
      ASSERT_TRUE(incremental.Commit().ok());
    }
  }
  ASSERT_TRUE(incremental.Commit().ok());
  ASSERT_EQ(DumpAll(from_empty), DumpAll(incremental))
      << "state diverged after the initial load";
  // From empty, the delta inserts every output row.
  std::map<std::string, std::string> expected;
  for (const auto& decl : program->relations()) {
    if (decl.role != RelationRole::kOutput) continue;
    std::vector<Row> rows = *from_empty.Dump(decl.name);
    for (const Row& row : rows) {
      expected[decl.name] += "+ " + decl.name + RowToString(row) + "\n";
    }
  }
  std::string expected_delta;
  for (const auto& [name, lines] : expected) expected_delta += lines;
  EXPECT_EQ(loaded->ToString(), expected_delta);

  // Both must behave identically incrementally too: mixed inserts/deletes
  // over rows that do and do not exist.
  for (int step = 0; step < 10; ++step) {
    std::vector<Op> ops;
    for (int k = 0; k < 5; ++k) {
      Op op;
      op.sw = "sw-" + std::to_string(rng() % 5);
      op.relation = k % 3 == 0 ? "Trunk" : "Port";
      if (op.relation == "Trunk") {
        op.ints = {static_cast<int64_t>(rng() % 32)};
      } else {
        op.ints = {static_cast<int64_t>(rng() % 64),
                   static_cast<int64_t>(rng() % 8)};
      }
      op.insert = rng() % 3 != 0;
      ops.push_back(std::move(op));
    }
    std::vector<std::string> deltas;
    for (Engine* engine : engines) {
      for (const Op& op : ops) {
        Row row = MaterializeRow(op);
        Status status = op.insert ? engine->Insert(op.relation, std::move(row))
                                  : engine->Delete(op.relation, std::move(row));
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      auto delta = engine->Commit();
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      deltas.push_back(delta->ToString());
    }
    for (size_t e = 1; e < deltas.size(); ++e) {
      ASSERT_EQ(deltas[0], deltas[e])
          << names[e] << " diverged at incremental step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential property: a checkpoint-restored engine is byte-identical to
// the engine that produced the blob — same dumps, same deltas for every
// subsequent transaction — and a damaged blob is rejected outright.
// ---------------------------------------------------------------------------

TEST(DlogDifferential, CheckpointRestoreIsByteIdentical) {
  auto program = MustParse(kDifferentialProgram);
  Engine original(program);

  std::mt19937_64 rng(20260809);
  for (int k = 0; k < 200; ++k) {
    Op op;
    op.sw = "sw-" + std::to_string(rng() % 4);
    if (k % 4 == 0) {
      op.relation = "Trunk";
      op.ints = {static_cast<int64_t>(rng() % 16)};
    } else {
      op.relation = "Port";
      op.ints = {static_cast<int64_t>(rng() % 32),
                 static_cast<int64_t>(rng() % 6)};
    }
    ASSERT_TRUE(original.Insert(op.relation, MaterializeRow(op)).ok());
  }
  ASSERT_TRUE(original.Commit().ok());
  // A second transaction with deletes, so the checkpoint captures
  // derivation counts that have been decremented, not just fresh state.
  auto ports = original.Dump("Port");
  ASSERT_TRUE(ports.ok());
  for (size_t i = 0; i < ports->size(); i += 7) {
    ASSERT_TRUE(original.Delete("Port", (*ports)[i]).ok());
  }
  ASSERT_TRUE(original.Commit().ok());

  std::string blob = original.SerializeState();
  auto restored = Engine::Restore(program, blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(original.StateFingerprint(), (*restored)->StateFingerprint());
  EXPECT_EQ(DumpAll(original), DumpAll(**restored));
  EXPECT_TRUE((*restored)->TakeInitialDelta().empty());

  // Subsequent commits must produce byte-identical deltas: the restored
  // derivation counts and aggregation groups have to match exactly, or a
  // delete would surface (or fail to surface) differently.
  for (int step = 0; step < 8; ++step) {
    std::vector<Op> ops;
    for (int k = 0; k < 4; ++k) {
      Op op;
      op.sw = "sw-" + std::to_string(rng() % 4);
      op.relation = k % 3 == 0 ? "Trunk" : "Port";
      if (op.relation == "Trunk") {
        op.ints = {static_cast<int64_t>(rng() % 16)};
      } else {
        op.ints = {static_cast<int64_t>(rng() % 32),
                   static_cast<int64_t>(rng() % 6)};
      }
      op.insert = rng() % 3 != 0;
      ops.push_back(std::move(op));
    }
    std::string original_delta, restored_delta;
    for (Engine* engine : {&original, restored->get()}) {
      for (const Op& op : ops) {
        Row row = MaterializeRow(op);
        Status status = op.insert ? engine->Insert(op.relation, std::move(row))
                                  : engine->Delete(op.relation, std::move(row));
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      auto delta = engine->Commit();
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      (engine == &original ? original_delta : restored_delta) =
          delta->ToString();
    }
    ASSERT_EQ(original_delta, restored_delta)
        << "restored engine diverged at step " << step;
  }
  EXPECT_EQ(DumpAll(original), DumpAll(**restored));

  // Damage must be detected, not absorbed.  (Whole-blob integrity is the
  // durability layer's job — its frame carries a CRC32 — so here the
  // engine only has to reject structural damage: bad magic, truncation,
  // and wrong-program blobs.)
  std::string corrupt = blob;
  corrupt[0] = static_cast<char>(corrupt[0] ^ 0x40);
  EXPECT_FALSE(Engine::Restore(program, corrupt).ok());
  EXPECT_FALSE(Engine::Restore(program, std::string_view(blob).substr(
                                            0, blob.size() - 9)).ok());
  // And a blob from a different program must be rejected by fingerprint.
  auto other = MustParse("input relation X(a: bigint)\n");
  Engine other_engine(other);
  EXPECT_FALSE(Engine::Restore(program, other_engine.SerializeState()).ok());
}

// ---------------------------------------------------------------------------
// Intern pool invariants.
// ---------------------------------------------------------------------------

TEST(InternPool, DeduplicatesWhenEnabled) {
  InterningGuard guard;
  SetValueInterning(true);
  InternPoolStats before = GetInternPoolStats();
  Value first = Value::String("intern-dedup-probe-aa");
  InternPoolStats after_first = GetInternPoolStats();
  EXPECT_EQ(after_first.misses, before.misses + 1);
  Value second = Value::String("intern-dedup-probe-aa");
  InternPoolStats after_second = GetInternPoolStats();
  // The duplicate is served from the pool: a hit, no new node.
  EXPECT_EQ(after_second.hits, after_first.hits + 1);
  EXPECT_EQ(after_second.strings, after_first.strings);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.Hash(), second.Hash());
}

TEST(InternPool, DisabledModeStillComparesAndHashesEqual) {
  InterningGuard guard;
  SetValueInterning(true);
  Value interned = Value::String("intern-mixed-mode-probe");
  Value interned_tuple = Value::Tuple({I(1), S("intern-mixed-elem")});
  SetValueInterning(false);
  InternPoolStats before = GetInternPoolStats();
  Value plain = Value::String("intern-mixed-mode-probe");
  Value plain_tuple = Value::Tuple({I(1), S("intern-mixed-elem")});
  InternPoolStats after = GetInternPoolStats();
  // Disabled: every construction allocates (no dedup)...
  EXPECT_GE(after.misses, before.misses + 2);
  // ...but equality and hashing are mode-independent (deep fallback).
  EXPECT_EQ(interned, plain);
  EXPECT_EQ(interned.Hash(), plain.Hash());
  EXPECT_EQ(interned_tuple, plain_tuple);
  EXPECT_EQ(interned_tuple.Hash(), plain_tuple.Hash());
  EXPECT_EQ(interned.Compare(plain), 0);
  EXPECT_EQ(interned_tuple.Compare(plain_tuple), 0);
}

TEST(InternPool, RowHashMatchesValueRangeHash) {
  // The transparent-lookup contract: a Row and a borrowed span over the
  // same values must hash identically and compare equal, in either
  // interning mode (probe-free joins key arrangement maps this way).
  InterningGuard guard;
  for (bool intern : {true, false}) {
    SetValueInterning(intern);
    Row row{S("key-7"), I(42), Value::Bit(7), Value::Bool(true)};
    std::vector<Value> values(row.begin(), row.end());
    EXPECT_EQ(row.Hash(), HashValueRange(values.data(), values.size()));
    RowHash hasher;
    RowEq eq;
    RowView view{values.data(), values.size()};
    EXPECT_EQ(hasher(row), hasher(view));
    EXPECT_TRUE(eq(row, view));
    EXPECT_TRUE(eq(view, row));
  }
}

TEST(InternPool, RowHashMemoizationSurvivesMutation) {
  Row row{I(1), I(2)};
  size_t first = row.Hash();
  EXPECT_EQ(row.Hash(), first);  // memoized
  row.push_back(I(3));           // invalidates
  Row fresh{I(1), I(2), I(3)};
  EXPECT_EQ(row.Hash(), fresh.Hash());
  row.clear();
  EXPECT_EQ(row.Hash(), Row().Hash());
}

// ---------------------------------------------------------------------------
// Failed-Commit rollback.
// ---------------------------------------------------------------------------

constexpr const char* kDivProgram = R"(
input relation X(a: bigint, b: bigint)
output relation Mirror(a: bigint)
output relation Quot(a: bigint, q: bigint)
output relation PerA(a: bigint, n: bigint)
Mirror(a) :- X(a, b).
Quot(a, 100 / b) :- X(a, b).
PerA(a, n) :- X(a, b), var n = count(b) group_by (a).
)";

TEST(DlogRollback, FailedCommitRollsBackAllPartialEffects) {
  auto program = MustParse(kDivProgram);
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("X", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Insert("X", R({I(1), I(4)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  std::vector<Row> mirror_before = *engine.Dump("Mirror");
  std::vector<Row> quot_before = *engine.Dump("Quot");
  std::vector<Row> pera_before = *engine.Dump("PerA");
  Engine::Stats stats_before = engine.GetStats();

  // The poisoned transaction: valid rows on both sides of the
  // division-by-zero row, so every subsystem (counts, arrangements,
  // aggregation groups) has partial effects to undo.
  ASSERT_TRUE(engine.Insert("X", R({I(0), I(5)})).ok());
  ASSERT_TRUE(engine.Insert("X", R({I(2), I(0)})).ok());  // 100 / 0
  ASSERT_TRUE(engine.Insert("X", R({I(3), I(10)})).ok());
  ASSERT_TRUE(engine.Delete("X", R({I(1), I(2)})).ok());
  auto failed = engine.Commit();
  ASSERT_FALSE(failed.ok());

  // Every observable is exactly as before the failed Commit().
  EXPECT_EQ(*engine.Dump("Mirror"), mirror_before);
  EXPECT_EQ(*engine.Dump("Quot"), quot_before);
  EXPECT_EQ(*engine.Dump("PerA"), pera_before);
  EXPECT_EQ(*engine.Dump("X"),
            (std::vector<Row>{R({I(1), I(2)}), R({I(1), I(4)})}));
  Engine::Stats stats_after = engine.GetStats();
  EXPECT_EQ(stats_after.tuples, stats_before.tuples);
  EXPECT_EQ(stats_after.arrangement_entries,
            stats_before.arrangement_entries);

  // The engine keeps working, and the next delta is computed against the
  // rolled-back state (none of the poisoned rows leaked).
  ASSERT_TRUE(engine.Insert("X", R({I(3), I(10)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->outputs.at("Mirror"),
            (SetDelta{{R({I(3)}), +1}}));
  EXPECT_EQ(delta->outputs.at("Quot"), (SetDelta{{R({I(3), I(10)}), +1}}));
  EXPECT_EQ(delta->outputs.at("PerA"), (SetDelta{{R({I(3), I(1)}), +1}}));

  // After rollback + successful commits, the engine matches a from-scratch
  // evaluation of the surviving inputs.
  Engine scratch(program);
  ASSERT_TRUE(scratch.Insert("X", R({I(1), I(2)})).ok());
  ASSERT_TRUE(scratch.Insert("X", R({I(1), I(4)})).ok());
  ASSERT_TRUE(scratch.Insert("X", R({I(3), I(10)})).ok());
  ASSERT_TRUE(scratch.Commit().ok());
  for (const char* relation : {"X", "Mirror", "Quot", "PerA"}) {
    EXPECT_EQ(*engine.Dump(relation), *scratch.Dump(relation))
        << relation << " diverged from scratch recompute";
  }
}

TEST(DlogRollback, FailedFirstCommitWipesBackToEmpty) {
  // The very first commit runs from empty, where rollback is a wipe rather
  // than an undo-log replay.
  auto program = MustParse(kDivProgram);
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("X", R({I(0), I(5)})).ok());
  ASSERT_TRUE(engine.Insert("X", R({I(2), I(0)})).ok());  // 100 / 0
  ASSERT_TRUE(engine.Insert("X", R({I(3), I(10)})).ok());
  ASSERT_FALSE(engine.Commit().ok());

  for (const auto& decl : program->relations()) {
    EXPECT_EQ(engine.Size(decl.name), 0u) << decl.name << " not wiped";
  }
  Engine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.tuples, 0u);
  EXPECT_EQ(stats.arrangement_entries, 0u);

  // The next good commit matches a fresh engine, delta and state alike.
  Engine fresh(program);
  std::string deltas[2];
  Engine* engines[] = {&engine, &fresh};
  for (int e = 0; e < 2; ++e) {
    ASSERT_TRUE(engines[e]->Insert("X", R({I(3), I(10)})).ok());
    ASSERT_TRUE(engines[e]->Insert("X", R({I(3), I(20)})).ok());
    auto delta = engines[e]->Commit();
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    deltas[e] = delta->ToString();
  }
  EXPECT_EQ(deltas[0], deltas[1]);
  EXPECT_EQ(DumpAll(engine), DumpAll(fresh));
}

TEST(DlogRollback, AggregationStateIsRestoredExactly) {
  auto program = MustParse(kDivProgram);
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("X", R({I(7), I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());

  // Failing txn touches group 7's aggregation state before the error.
  ASSERT_TRUE(engine.Insert("X", R({I(7), I(2)})).ok());
  ASSERT_TRUE(engine.Insert("X", R({I(7), I(0)})).ok());
  ASSERT_FALSE(engine.Commit().ok());

  // If the per-group count survived the rollback, this commit would
  // produce n=3 instead of n=2.
  ASSERT_TRUE(engine.Insert("X", R({I(7), I(2)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->outputs.at("PerA"),
            (SetDelta{{R({I(7), I(1)}), -1}, {R({I(7), I(2)}), +1}}));
}

TEST(DlogRollback, RepeatedFailuresDoNotAccumulateState) {
  auto program = MustParse(kDivProgram);
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("X", R({I(1), I(5)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  Engine::Stats stats_before = engine.GetStats();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Insert("X", R({I(100 + i), I(0)})).ok());
    ASSERT_FALSE(engine.Commit().ok());
  }
  Engine::Stats stats_after = engine.GetStats();
  EXPECT_EQ(stats_after.tuples, stats_before.tuples);
  EXPECT_EQ(stats_after.arrangement_entries,
            stats_before.arrangement_entries);
  EXPECT_EQ(engine.Size("Mirror"), 1u);
  EXPECT_EQ(engine.Size("Quot"), 1u);
}

}  // namespace
}  // namespace nerpa::dlog
