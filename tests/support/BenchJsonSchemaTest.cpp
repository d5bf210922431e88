//===- BenchJsonSchemaTest.cpp - bench JSON emission contract ----------------===//
///
/// The bench harnesses' --json lines are machine-consumed twice over:
/// by tools/bench_compare.py (the CI regression gate) and by the
/// committed BENCH_*.json trajectory files. This test pins the
/// emission side of that contract: every shape the benches produce —
/// the flat all-numeric benchReportJson lines (bench_mt et al.) and
/// the string/series-bearing BenchJsonWriter documents (bench_soak) —
/// must parse as strict JSON, carry the schema-version field, and type
/// every required key correctly. A minimal strict JSON parser lives in
/// the test so the contract is "valid JSON", not "whatever this
/// emitter printed".
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace mesh {
namespace {

//===----------------------------------------------------------------------===//
// Minimal strict JSON parser: objects, arrays, strings (no escapes —
// the emitter never produces them), numbers, true/false. Parse errors
// fail the calling test via ADD_FAILURE and a null result.
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum Kind { Null, Number, String, Bool, Array, Object } K = Null;
  double Num = 0;
  bool B = false;
  std::string Str;
  std::vector<JsonValue> Elements;
  std::map<std::string, JsonValue> Members;

  bool isNumber() const { return K == Number; }
  bool isString() const { return K == String; }

  const JsonValue *member(const std::string &Key) const {
    auto It = Members.find(Key);
    return It == Members.end() ? nullptr : &It->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  bool parse(JsonValue &Out) {
    const bool Ok = parseValue(Out) && (skipWs(), Pos == Text.size());
    if (!Ok)
      ADD_FAILURE() << "JSON parse error at offset " << Pos << " in:\n"
                    << Text;
    return Ok;
  }

private:
  void skipWs() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
  }

  bool parseValue(JsonValue &Out) {
    skipWs();
    if (Pos >= Text.size())
      return false;
    const char C = Text[Pos];
    if (C == '{')
      return parseObject(Out);
    if (C == '[')
      return parseArray(Out);
    if (C == '"')
      return parseString(Out);
    if (C == 't' || C == 'f')
      return parseBool(Out);
    return parseNumber(Out);
  }

  bool parseObject(JsonValue &Out) {
    Out.K = JsonValue::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      JsonValue Key;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"' || !parseString(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return false;
      ++Pos;
      JsonValue Value;
      if (!parseValue(Value))
        return false;
      if (!Out.Members.emplace(Key.Str, std::move(Value)).second)
        return false; // Duplicate key: also a contract violation.
      skipWs();
      if (Pos >= Text.size())
        return false;
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool parseArray(JsonValue &Out) {
    Out.K = JsonValue::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      JsonValue Element;
      if (!parseValue(Element))
        return false;
      Out.Elements.push_back(std::move(Element));
      skipWs();
      if (Pos >= Text.size())
        return false;
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool parseString(JsonValue &Out) {
    Out.K = JsonValue::String;
    ++Pos; // '"'
    const size_t Start = Pos;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\')
        return false; // Emitter contract: no escapes needed or produced.
      ++Pos;
    }
    if (Pos >= Text.size())
      return false;
    Out.Str = Text.substr(Start, Pos - Start);
    ++Pos; // closing '"'
    return true;
  }

  bool parseBool(JsonValue &Out) {
    Out.K = JsonValue::Bool;
    if (Text.compare(Pos, 4, "true") == 0) {
      Out.B = true;
      Pos += 4;
      return true;
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      Out.B = false;
      Pos += 5;
      return true;
    }
    return false;
  }

  bool parseNumber(JsonValue &Out) {
    Out.K = JsonValue::Number;
    const char *Begin = Text.c_str() + Pos;
    char *End = nullptr;
    Out.Num = std::strtod(Begin, &End);
    if (End == Begin)
      return false;
    Pos += static_cast<size_t>(End - Begin);
    return true;
  }

  const std::string &Text;
  size_t Pos = 0;
};

void expectNumberKey(const JsonValue &Doc, const char *Key) {
  const JsonValue *V = Doc.member(Key);
  ASSERT_NE(V, nullptr) << "missing required key: " << Key;
  EXPECT_TRUE(V->isNumber()) << "key not numeric: " << Key;
}

void expectStringKey(const JsonValue &Doc, const char *Key,
                     const char *Expected = nullptr) {
  const JsonValue *V = Doc.member(Key);
  ASSERT_NE(V, nullptr) << "missing required key: " << Key;
  ASSERT_TRUE(V->isString()) << "key not a string: " << Key;
  if (Expected != nullptr) {
    EXPECT_EQ(V->Str, Expected) << "key: " << Key;
  }
}

/// RAII guard: forces smoke mode off (or on) and restores it, since
/// benchSmokeMode() is process-global state shared across tests.
class SmokeModeGuard {
public:
  explicit SmokeModeGuard(bool Value) : Saved(benchSmokeMode()) {
    benchSmokeMode() = Value;
  }
  ~SmokeModeGuard() { benchSmokeMode() = Saved; }

private:
  bool Saved;
};

//===----------------------------------------------------------------------===//
// The flat all-numeric shape (benchReportJson: bench_mt, bench_redis,
// bench_firefox, ...).
//===----------------------------------------------------------------------===//

TEST(BenchJsonSchemaTest, FlatMetricLineParsesWithSchemaAndTypes) {
  SmokeModeGuard Smoke(false);
  // The bench_mt emission shape, via the same writer benchReportJson
  // uses (benchReportJson itself is gated on --json and prints to
  // stdout; finish() hands the test the identical document).
  BenchJsonWriter W("bench_mt", "cross");
  W.number("alloc_threads", 4);
  W.number("free_threads", 4);
  W.number("ops_per_sec", 12345678.25);
  W.number("p99_malloc_ns", 512.5);
  W.number("p99_free_ns", 347);
  W.number("samples_n_malloc", 31250);
  W.number("samples_n_free", 31250);
  W.number("max_pause_foreground_ns", 1.5e6);

  JsonValue Doc;
  ASSERT_TRUE(JsonParser(W.finish()).parse(Doc));
  ASSERT_EQ(Doc.K, JsonValue::Object);

  const JsonValue *Schema = Doc.member("schema");
  ASSERT_NE(Schema, nullptr) << "every line must carry a schema version";
  ASSERT_TRUE(Schema->isNumber());
  EXPECT_EQ(Schema->Num, kBenchJsonSchemaVersion);

  expectStringKey(Doc, "bench", "bench_mt");
  expectStringKey(Doc, "config", "cross");
  EXPECT_EQ(Doc.member("smoke"), nullptr)
      << "smoke flag must be absent outside --smoke";
  for (const char *Key :
       {"alloc_threads", "free_threads", "ops_per_sec", "p99_malloc_ns",
        "p99_free_ns", "samples_n_malloc", "samples_n_free",
        "max_pause_foreground_ns"})
    expectNumberKey(Doc, Key);
  EXPECT_EQ(Doc.member("ops_per_sec")->Num, 12345678.25)
      << "numbers must round-trip exactly through the emitter";
}

TEST(BenchJsonSchemaTest, ThreadSweepLineCarriesScalingKeys) {
  SmokeModeGuard Smoke(false);
  // bench_mt --threads=1,2,4: one line per count, the count in the
  // config so bench_compare keys stay distinct, plus the per-thread
  // rate and the scaling efficiency against the sweep's first count.
  BenchJsonWriter W("bench_mt", "local-t2");
  W.number("alloc_threads", 2);
  W.number("free_threads", 0);
  W.number("ops_per_sec", 40e6);
  W.number("threads", 2);
  W.number("per_thread_ops_per_sec", 20e6);
  W.number("scaling_efficiency", 0.8);

  JsonValue Doc;
  ASSERT_TRUE(JsonParser(W.finish()).parse(Doc));
  ASSERT_EQ(Doc.K, JsonValue::Object);
  expectStringKey(Doc, "config", "local-t2");
  for (const char *Key : {"alloc_threads", "free_threads", "ops_per_sec",
                          "threads", "per_thread_ops_per_sec",
                          "scaling_efficiency"})
    expectNumberKey(Doc, Key);
  EXPECT_EQ(Doc.member("free_threads")->Num, 0)
      << "the local mix starts no freeing threads";
  EXPECT_EQ(Doc.member("per_thread_ops_per_sec")->Num,
            Doc.member("ops_per_sec")->Num / Doc.member("threads")->Num);
}

TEST(BenchJsonSchemaTest, SmokeModeIsFlaggedOnTheLine) {
  SmokeModeGuard Smoke(true);
  BenchJsonWriter W("bench_mt", "local");
  W.number("ops_per_sec", 1);
  JsonValue Doc;
  ASSERT_TRUE(JsonParser(W.finish()).parse(Doc));
  const JsonValue *Flag = Doc.member("smoke");
  ASSERT_NE(Flag, nullptr)
      << "smoke runs must be marked: their numbers are not comparable";
  EXPECT_EQ(Flag->K, JsonValue::Bool);
  EXPECT_TRUE(Flag->B);
}

TEST(BenchJsonSchemaTest, EmptyConfigOmitsTheKey) {
  SmokeModeGuard Smoke(false);
  BenchJsonWriter W("bench_analysis", "");
  W.number("x", 0);
  JsonValue Doc;
  ASSERT_TRUE(JsonParser(W.finish()).parse(Doc));
  EXPECT_EQ(Doc.member("config"), nullptr);
  expectStringKey(Doc, "bench", "bench_analysis");
}

//===----------------------------------------------------------------------===//
// The series-bearing soak shape (bench_soak).
//===----------------------------------------------------------------------===//

TEST(BenchJsonSchemaTest, SoakLineWithSeriesParsesWithTypedRows) {
  SmokeModeGuard Smoke(false);
  // The bench_soak emission shape: strings, the full metric set, and
  // a nested [op, seconds, mib] series.
  BenchJsonWriter W("bench_soak", "kvstore-mesh");
  W.string("workload", "kvstore");
  W.string("allocator", "mesh");
  W.string("profile", "ci");
  for (const char *Key :
       {"ops", "threads", "forks", "seconds", "ops_per_sec", "p50_op_ns",
        "p99_op_ns", "p999_op_ns", "samples_n", "max_pause_fg_ns",
        "max_pause_bg_ns", "mesh_passes_fg", "mesh_passes_bg",
        "rss_mean_mib", "rss_peak_mib", "rss_final_mib", "committed_mib",
        "in_use_mib", "kernel_file_mib", "meshed_away_pct", "frag_pct",
        "evictions", "defrag_passes", "defrag_moved_mib", "get_mismatches"})
    W.number(Key, 1.0);
  W.beginArray("rss_series");
  W.arrayRow({0, 0.0, 0.0});
  W.arrayRow({100000, 1.25, 24.5});
  W.arrayRow({200000, 2.5, 23.75});
  W.endArray();

  JsonValue Doc;
  ASSERT_TRUE(JsonParser(W.finish()).parse(Doc));

  const JsonValue *Schema = Doc.member("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->Num, kBenchJsonSchemaVersion);
  expectStringKey(Doc, "bench", "bench_soak");
  expectStringKey(Doc, "config", "kvstore-mesh");
  expectStringKey(Doc, "workload", "kvstore");
  expectStringKey(Doc, "allocator", "mesh");
  expectStringKey(Doc, "profile", "ci");
  for (const char *Key :
       {"ops", "threads", "forks", "seconds", "ops_per_sec", "p50_op_ns",
        "p99_op_ns", "p999_op_ns", "samples_n", "max_pause_fg_ns",
        "max_pause_bg_ns", "mesh_passes_fg", "mesh_passes_bg",
        "rss_mean_mib", "rss_peak_mib", "rss_final_mib", "committed_mib",
        "in_use_mib", "kernel_file_mib", "meshed_away_pct", "frag_pct",
        "evictions", "defrag_passes", "defrag_moved_mib", "get_mismatches"})
    expectNumberKey(Doc, Key);

  const JsonValue *Series = Doc.member("rss_series");
  ASSERT_NE(Series, nullptr);
  ASSERT_EQ(Series->K, JsonValue::Array);
  ASSERT_EQ(Series->Elements.size(), 3u);
  for (const JsonValue &Row : Series->Elements) {
    ASSERT_EQ(Row.K, JsonValue::Array);
    ASSERT_EQ(Row.Elements.size(), 3u)
        << "series rows are [op_index, elapsed_seconds, committed_mib]";
    for (const JsonValue &Cell : Row.Elements)
      EXPECT_TRUE(Cell.isNumber());
  }
  EXPECT_EQ(Series->Elements[1].Elements[2].Num, 24.5);
}

TEST(BenchJsonSchemaTest, EmptyArrayIsValid) {
  SmokeModeGuard Smoke(false);
  BenchJsonWriter W("bench_soak", "redis-glibc");
  W.beginArray("rss_series");
  W.endArray();
  JsonValue Doc;
  ASSERT_TRUE(JsonParser(W.finish()).parse(Doc));
  const JsonValue *Series = Doc.member("rss_series");
  ASSERT_NE(Series, nullptr);
  EXPECT_EQ(Series->K, JsonValue::Array);
  EXPECT_TRUE(Series->Elements.empty());
}

//===----------------------------------------------------------------------===//
// The shared quantile helper both emitters report from.
//===----------------------------------------------------------------------===//

TEST(BenchJsonSchemaTest, QuantileInterpolatesInsteadOfReturningMax) {
  // The regression benchQuantile fixed: nearest-rank size()*99/100 on
  // a 10-sample set returned index 9 — the maximum — making small-run
  // p99s pure noise.
  std::vector<uint64_t> Samples = {10, 20, 30, 40, 50, 60, 70, 80, 90, 1000};
  const double P99 = benchQuantile(Samples, 0.99);
  EXPECT_LT(P99, 1000.0) << "p99 over 10 samples must not be the max";
  EXPECT_NEAR(P99, 90 + 0.91 * (1000 - 90), 1e-9);

  const double P50 = benchQuantile(Samples, 0.50);
  EXPECT_NEAR(P50, 55.0, 1e-9);

  std::vector<uint64_t> One = {42};
  EXPECT_EQ(benchQuantile(One, 0.99), 42.0);
  std::vector<uint64_t> None;
  EXPECT_EQ(benchQuantile(None, 0.99), 0.0);
}

} // namespace
} // namespace mesh
