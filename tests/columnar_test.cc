// Columnar execution core suite (DESIGN.md §12): the batch-layout
// contract and the columnar-vs-row bit-exactness gate.
//  - layout units: ColumnVector typed round-trips, SelectionVector edge
//    cases (empty selection, the all-selected fast path that materializes
//    no index array, sparse ascending construction),
//  - conversion units: ColumnBatch::FromDeltas/ToDeltas is the exact
//    inverse pair the row shim relies on, including deletes interleaved
//    with updates in one batch; an ill-typed source is rejected so the
//    caller stays on the row path,
//  - kernel units: VectorExpr mirrors CompiledExpr bit-for-bit on every
//    supported shape and refuses (supported()==false) the hazardous ones;
//    FlatIndexI64 assigns first-touch dense ids; ColumnarHashAgg's three
//    strategies produce bit-identical float sums; ColumnarHashJoin emits
//    exactly the reference match set,
//  - operator units: ProcessColumnar == Process for every vectorized
//    operator and for the default row shim, down to the OpWork meters,
//  - the property: across 100 seeded random shared TPC-H plans, a run
//    with the columnar pump is bit-identical (results, state fingerprint,
//    curated metrics) to the legacy row pump, serial and 4-threaded.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ishare/common/flat_hash.h"
#include "ishare/common/rng.h"
#include "ishare/exec/pace_executor.h"
#include "ishare/exec/phys_op.h"
#include "ishare/exec/vectorized.h"
#include "ishare/expr/vector_expr.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/storage/column_batch.h"
#include "ishare/types/column.h"
#include "ishare/types/selection.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

// Bit-exact scalar equality: same runtime type, same payload bits. The
// cross-type numeric tolerance of Value::operator== is exactly what this
// suite must NOT use — the columnar path may not even flip an int to an
// equal-valued double.
::testing::AssertionResult BitExactValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return ::testing::AssertionFailure()
           << "type " << DataTypeName(a.type()) << " vs "
           << DataTypeName(b.type());
  }
  switch (a.type()) {
    case DataType::kInt64:
      if (a.AsInt() != b.AsInt()) {
        return ::testing::AssertionFailure()
               << a.AsInt() << " vs " << b.AsInt();
      }
      return ::testing::AssertionSuccess();
    case DataType::kFloat64: {
      double x = a.AsDouble(), y = b.AsDouble();
      if (std::memcmp(&x, &y, sizeof(x)) != 0) {
        return ::testing::AssertionFailure() << x << " vs " << y << " (bits)";
      }
      return ::testing::AssertionSuccess();
    }
    case DataType::kString:
      if (a.AsString() != b.AsString()) {
        return ::testing::AssertionFailure()
               << a.AsString() << " vs " << b.AsString();
      }
      return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "bad type";
}

::testing::AssertionResult BitExactDeltas(const DeltaBatch& a,
                                          const DeltaBatch& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].weight != b[i].weight) {
      return ::testing::AssertionFailure()
             << "weight at " << i << ": " << a[i].weight << " vs "
             << b[i].weight;
    }
    if (a[i].qset.bits() != b[i].qset.bits()) {
      return ::testing::AssertionFailure()
             << "qset at " << i << ": " << a[i].qset.bits() << " vs "
             << b[i].qset.bits();
    }
    if (a[i].row.size() != b[i].row.size()) {
      return ::testing::AssertionFailure() << "row arity at " << i;
    }
    for (size_t c = 0; c < a[i].row.size(); ++c) {
      auto r = BitExactValue(a[i].row[c], b[i].row[c]);
      if (!r) {
        return ::testing::AssertionFailure()
               << "row " << i << " col " << c << ": " << r.message();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// ColumnVector / SelectionVector
// ---------------------------------------------------------------------------

TEST(ColumnVectorTest, TypedRoundTripAllThreeTypes) {
  std::vector<Value> vals = {Value(int64_t{-7}), Value(int64_t{0}),
                             Value(int64_t{1} << 40)};
  ColumnVector ci(DataType::kInt64);
  for (const Value& v : vals) ci.AppendValue(v);
  ASSERT_EQ(ci.size(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(BitExactValue(ci.GetValue(i), vals[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(ci.i64()[0], -7);

  ColumnVector cf(DataType::kFloat64);
  cf.AppendValue(Value(0.0));
  cf.AppendValue(Value(-2.5));
  EXPECT_EQ(cf.f64()[1], -2.5);
  EXPECT_TRUE(BitExactValue(cf.GetValue(0), Value(0.0)));

  ColumnVector cs(DataType::kString);
  cs.AppendValue(Value("ASIA"));
  cs.AppendValue(Value(""));
  EXPECT_EQ(cs.str()[0], "ASIA");
  EXPECT_TRUE(BitExactValue(cs.GetValue(1), Value("")));
}

TEST(ColumnVectorTest, AppendFromGathersByIndex) {
  ColumnVector src(DataType::kInt64);
  for (int64_t i = 0; i < 8; ++i) src.i64().push_back(i * 10);
  ColumnVector dst(DataType::kInt64);
  dst.AppendFrom(src, 5);
  dst.AppendFrom(src, 0);
  ASSERT_EQ(dst.size(), 2);
  EXPECT_EQ(dst.i64()[0], 50);
  EXPECT_EQ(dst.i64()[1], 0);
}

TEST(ColumnVectorTest, ApproxBytesTracksLogicalSizeDeterministically) {
  ColumnVector a(DataType::kInt64);
  ColumnVector b(DataType::kInt64);
  for (int i = 0; i < 100; ++i) a.AppendValue(Value(int64_t{i}));
  b.Reserve(1000);  // capacity must not count
  for (int i = 0; i < 100; ++i) b.AppendValue(Value(int64_t{i}));
  EXPECT_EQ(a.ApproxBytes(), b.ApproxBytes());
  EXPECT_GT(a.ApproxBytes(), 0);
}

TEST(SelectionVectorTest, AllSelectedFastPathMaterializesNoIndexArray) {
  SelectionVector s = SelectionVector::All(5);
  EXPECT_TRUE(s.is_all());
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.count(), 5);
  EXPECT_TRUE(s.indices().empty());  // the fast path's defining property
  std::vector<int32_t> seen;
  s.ForEach([&](int32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s[3], 3);
}

TEST(SelectionVectorTest, EmptySelection) {
  SelectionVector s = SelectionVector::None();
  EXPECT_FALSE(s.is_all());
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  int calls = 0;
  s.ForEach([&](int32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // All(0) is also an empty selection (a zero-row batch stays "all").
  EXPECT_TRUE(SelectionVector::All(0).empty());
}

TEST(SelectionVectorTest, SparseSelectionIteratesAscending) {
  SelectionVector s = SelectionVector::FromIndices({1, 4, 7});
  EXPECT_FALSE(s.is_all());
  EXPECT_EQ(s.count(), 3);
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[2], 7);
  SelectionVector t = SelectionVector::None();
  s.ForEach([&](int32_t i) { t.Append(i); });
  EXPECT_EQ(t.indices(), s.indices());
}

// ---------------------------------------------------------------------------
// FlatIndexI64 / XxMix64
// ---------------------------------------------------------------------------

TEST(FlatHashTest, FindOrInsertAssignsFirstTouchDenseIds) {
  FlatIndexI64 idx;
  EXPECT_EQ(idx.FindOrInsert(42), 0);
  EXPECT_EQ(idx.FindOrInsert(-1), 1);
  EXPECT_EQ(idx.FindOrInsert(42), 0);  // duplicate keeps its id
  EXPECT_EQ(idx.FindOrInsert(0), 2);
  EXPECT_EQ(idx.size(), 3);
  EXPECT_EQ(idx.keys(), (std::vector<int64_t>{42, -1, 0}));
  EXPECT_EQ(idx.Find(-1), 1);
  EXPECT_EQ(idx.Find(7), -1);
}

TEST(FlatHashTest, GrowthPreservesIdsAgainstReferenceMap) {
  Rng rng(99);
  FlatIndexI64 idx;  // default capacity, forces several grows
  std::unordered_map<int64_t, int32_t> ref;
  for (int i = 0; i < 20000; ++i) {
    int64_t key = rng.UniformInt(-5000, 5000);
    int32_t id = idx.FindOrInsert(key);
    auto [it, fresh] = ref.emplace(key, id);
    if (fresh) {
      EXPECT_EQ(id, static_cast<int32_t>(ref.size()) - 1) << "dense ids";
    } else {
      EXPECT_EQ(id, it->second) << "key " << key;
    }
  }
  EXPECT_EQ(idx.size(), static_cast<int64_t>(ref.size()));
  for (const auto& [key, id] : ref) EXPECT_EQ(idx.Find(key), id);
  idx.Clear();
  EXPECT_EQ(idx.size(), 0);
  EXPECT_EQ(idx.Find(0), -1);
  EXPECT_EQ(idx.FindOrInsert(123), 0);
}

TEST(FlatHashTest, XxMixIsABijectionOnASample) {
  // Sanity: no two of 4k consecutive ints collide after mixing, and the
  // high bits (used for radix partitioning) spread.
  std::set<uint64_t> seen;
  std::set<uint64_t> high;
  for (uint64_t i = 0; i < 4096; ++i) {
    uint64_t h = XxMix64(i);
    seen.insert(h);
    high.insert(h >> 60);
  }
  EXPECT_EQ(seen.size(), 4096u);
  EXPECT_EQ(high.size(), 16u);
}

// ---------------------------------------------------------------------------
// ColumnBatch conversion
// ---------------------------------------------------------------------------

Schema SalesSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kFloat64},
                 {"s", DataType::kString}});
}

// A batch exercising the full delta vocabulary in one run: inserts,
// a delete interleaved with the two halves of an update (delete+insert
// of the same key), and multi-weight tuples under different query sets.
DeltaBatch MixedDeltas() {
  DeltaBatch b;
  b.push_back({{Value(int64_t{1}), Value(10.5), Value("a")}, QuerySet(0b01), 1});
  b.push_back({{Value(int64_t{2}), Value(0.0), Value("b")}, QuerySet(0b11), 3});
  // Update of key 1 = delete old + insert new, with a delete of key 3
  // interleaved between the halves.
  b.push_back({{Value(int64_t{1}), Value(10.5), Value("a")}, QuerySet(0b01), -1});
  b.push_back({{Value(int64_t{3}), Value(-4.25), Value("")}, QuerySet(0b10), -2});
  b.push_back({{Value(int64_t{1}), Value(11.5), Value("a2")}, QuerySet(0b01), 1});
  return b;
}

TEST(ColumnBatchTest, FromDeltasToDeltasIsTheExactInverse) {
  Schema schema = SalesSchema();
  DeltaBatch in = MixedDeltas();
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromDeltas(schema, in, &cb));
  EXPECT_EQ(cb.num_rows(), 5);
  EXPECT_EQ(cb.num_selected(), 5);
  EXPECT_TRUE(cb.sel.is_all());
  ASSERT_EQ(cb.cols.size(), 3u);
  EXPECT_EQ(cb.cols[0].type(), DataType::kInt64);
  EXPECT_EQ(cb.cols[1].type(), DataType::kFloat64);
  EXPECT_EQ(cb.cols[2].type(), DataType::kString);
  EXPECT_EQ(cb.qbits[3], 0b10u);
  EXPECT_EQ(cb.weights[3], -2);
  EXPECT_TRUE(BitExactDeltas(cb.ToDeltas(), in));
}

TEST(ColumnBatchTest, ToDeltasEmitsOnlySelectedRowsInInputOrder) {
  Schema schema = SalesSchema();
  DeltaBatch in = MixedDeltas();
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromDeltas(schema, in, &cb));
  cb.sel = SelectionVector::FromIndices({0, 3, 4});
  DeltaBatch expect = {in[0], in[3], in[4]};
  EXPECT_TRUE(BitExactDeltas(cb.ToDeltas(), expect));
  cb.sel = SelectionVector::None();
  EXPECT_TRUE(cb.ToDeltas().empty());
  EXPECT_EQ(cb.num_rows(), 5);  // columns keep their physical rows
  EXPECT_EQ(cb.num_selected(), 0);
}

TEST(ColumnBatchTest, EmptySpanYieldsEmptyAllSelectedBatch) {
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromDeltas(SalesSchema(), DeltaBatch{}, &cb));
  EXPECT_EQ(cb.num_rows(), 0);
  EXPECT_EQ(cb.num_selected(), 0);
  EXPECT_TRUE(cb.ToDeltas().empty());
}

TEST(ColumnBatchTest, IllTypedSourceIsRejectedNotCoerced) {
  Schema schema = SalesSchema();
  ColumnBatch cb;
  // Double where the schema says int: reject (the row path would have
  // coerced through AsDouble at each use site; silently lifting it would
  // change results).
  DeltaBatch wrong_type;
  wrong_type.push_back(
      {{Value(1.0), Value(2.0), Value("x")}, QuerySet(0b1), 1});
  EXPECT_FALSE(ColumnBatch::FromDeltas(schema, wrong_type, &cb));
  // Wrong arity: reject.
  DeltaBatch wrong_arity;
  wrong_arity.push_back({{Value(int64_t{1})}, QuerySet(0b1), 1});
  EXPECT_FALSE(ColumnBatch::FromDeltas(schema, wrong_arity, &cb));
  // A good prefix does not rescue a bad row later in the span.
  DeltaBatch mixed = MixedDeltas();
  mixed.push_back({{Value(int64_t{9}), Value("oops"), Value("y")},
                   QuerySet(0b1), 1});
  EXPECT_FALSE(ColumnBatch::FromDeltas(schema, mixed, &cb));
}

// ---------------------------------------------------------------------------
// VectorExpr vs CompiledExpr
// ---------------------------------------------------------------------------

Schema ExprSchema() {
  return Schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"v", DataType::kFloat64},
                 {"w", DataType::kFloat64},
                 {"s", DataType::kString}});
}

std::vector<Row> RandomExprRows(int n, uint64_t seed) {
  Rng rng(seed);
  const char* strs[] = {"ASIA", "EUROPE", "AMERICA", "ASIA MINOR", "", "eur"};
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    // Small domains so zero divisors, exact compares and IN hits all
    // occur; a few exact 0.0 doubles to exercise the guarded division.
    double v = (i % 7 == 0) ? 0.0 : rng.UniformDouble(-10.0, 10.0);
    rows.push_back({Value(rng.UniformInt(-5, 5)), Value(rng.UniformInt(-3, 3)),
                    Value(v), Value(rng.UniformDouble(-2.0, 2.0)),
                    Value(std::string(strs[rng.UniformInt(0, 5)]))});
  }
  return rows;
}

std::vector<ColumnVector> RowsToColumns(const Schema& schema,
                                        const std::vector<Row>& rows) {
  std::vector<ColumnVector> cols;
  for (const auto& f : schema.fields()) cols.emplace_back(f.type);
  for (const Row& r : rows) {
    for (size_t c = 0; c < cols.size(); ++c) cols[c].AppendValue(r[c]);
  }
  return cols;
}

TEST(VectorExprTest, SupportedShapesMatchCompiledExprBitForBit) {
  Schema schema = ExprSchema();
  std::vector<ExprPtr> exprs;
  exprs.push_back(Add(Col("a"), Lit(3)));
  exprs.push_back(Sub(Col("a"), Col("b")));
  exprs.push_back(Mul(Col("v"), Lit(2.5)));
  exprs.push_back(Add(Mul(Col("v"), Col("w")), Col("a")));  // mixed promote
  exprs.push_back(Div(Col("v"), Col("w")));   // always-double, zero guard
  exprs.push_back(Div(Col("a"), Col("b")));   // int/int div is still double
  exprs.push_back(IntDiv(Col("a"), Col("b")));  // floor + zero guard
  exprs.push_back(Eq(Col("a"), Col("b")));
  exprs.push_back(Ne(Col("a"), Lit(0)));
  exprs.push_back(Lt(Col("v"), Col("a")));   // double vs int compare
  exprs.push_back(Le(Col("v"), Lit(0.0)));
  exprs.push_back(Gt(Col("s"), Lit("E")));   // string lexical compare
  exprs.push_back(Ge(Col("w"), Col("v")));
  exprs.push_back(And(Gt(Col("a"), Lit(0)), Lt(Col("v"), Lit(5.0))));
  exprs.push_back(Or(Eq(Col("b"), Lit(0)), Gt(Col("w"), Lit(1.0))));
  exprs.push_back(Not(Gt(Col("a"), Col("b"))));
  exprs.push_back(Not(Col("a")));            // numeric truthiness
  exprs.push_back(Between(Col("v"), Lit(-1.0), Lit(1.0)));
  exprs.push_back(Expr::In(Col("a"), {Value(int64_t{-2}), Value(int64_t{1}),
                                      Value(3.0)}));  // cross-numeric IN
  exprs.push_back(Expr::In(Col("v"), {Value(0.0), Value(int64_t{2})}));
  exprs.push_back(Expr::In(Col("s"), {Value("ASIA"), Value("eur")}));
  exprs.push_back(Expr::Like(Col("s"), "A%A"));
  exprs.push_back(Expr::Like(Col("s"), "%SIA%"));
  exprs.push_back(Expr::Like(Col("s"), "e_r"));
  exprs.push_back(Lit(7));                   // constant splat
  exprs.push_back(Col("w"));                 // bare column reference

  std::vector<Row> rows = RandomExprRows(256, 4242);
  std::vector<ColumnVector> cols = RowsToColumns(schema, rows);
  const int64_t n = static_cast<int64_t>(rows.size());

  for (size_t e = 0; e < exprs.size(); ++e) {
    SCOPED_TRACE("expr #" + std::to_string(e) + ": " + exprs[e]->ToString());
    CompiledExpr ref = CompiledExpr::Compile(exprs[e], schema);
    VectorExpr vec = VectorExpr::Compile(exprs[e], schema);
    ASSERT_TRUE(vec.supported());
    EXPECT_EQ(vec.output_type(), exprs[e]->OutputType(schema));
    ColumnVector out(vec.output_type());
    vec.Eval(cols, n, &out);
    ASSERT_EQ(out.size(), n);
    for (int64_t i = 0; i < n; ++i) {
      auto r = BitExactValue(out.GetValue(i), ref.Eval(rows[static_cast<size_t>(i)]));
      EXPECT_TRUE(r) << "row " << i << ": " << r.message();
      if (!r) break;
    }
    if (vec.output_type() != DataType::kString) {
      std::vector<uint8_t> mask;
      vec.EvalBoolMask(cols, n, &mask);
      ASSERT_EQ(mask.size(), static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(mask[static_cast<size_t>(i)] != 0,
                  ref.EvalBool(rows[static_cast<size_t>(i)]))
            << "row " << i;
      }
    }
  }
}

TEST(VectorExprTest, HazardousShapesCompileUnsupported) {
  // Each of these either CHECK-fails or silently misbehaves row-side only
  // when actually evaluated on certain values; the vector compiler must
  // refuse them statically so the row path keeps that exact behavior.
  Schema schema = ExprSchema();
  std::vector<ExprPtr> bad;
  bad.push_back(Add(Col("s"), Lit(1)));        // arithmetic on string
  bad.push_back(Eq(Col("s"), Lit(3)));         // string vs number compare
  bad.push_back(Lt(Col("a"), Col("s")));
  bad.push_back(IntDiv(Col("v"), Lit(2)));     // IntDiv wants ints
  bad.push_back(Expr::Like(Col("a"), "%"));    // LIKE on numeric
  bad.push_back(Not(Col("s")));                // string truthiness
  bad.push_back(And(Col("s"), Lit(1)));
  bad.push_back(Col("no_such_column"));
  for (size_t e = 0; e < bad.size(); ++e) {
    SCOPED_TRACE("expr #" + std::to_string(e));
    EXPECT_FALSE(VectorExpr::Compile(bad[e], schema).supported());
  }
}

// ---------------------------------------------------------------------------
// Vectorized hash kernels
// ---------------------------------------------------------------------------

struct AggInput {
  std::vector<int64_t> keys;
  std::vector<double> vals;
  std::vector<int32_t> weights;
};

AggInput MakeAggInput(int64_t n, int64_t cardinality, uint64_t seed) {
  Rng rng(seed);
  AggInput in;
  for (int64_t i = 0; i < n; ++i) {
    in.keys.push_back(rng.UniformInt(0, cardinality - 1));
    in.vals.push_back(rng.UniformDouble(-100.0, 100.0));
    in.weights.push_back(static_cast<int32_t>(rng.UniformInt(-2, 3)));
  }
  return in;
}

// Reference: per-key sums accumulated in input order — the sequence every
// strategy must reproduce bit-for-bit.
std::map<int64_t, double> ReferenceSums(const AggInput& in, bool weighted) {
  std::map<int64_t, double> ref;
  for (size_t i = 0; i < in.keys.size(); ++i) {
    double v = in.vals[i];
    if (weighted) v *= static_cast<double>(in.weights[i]);
    ref[in.keys[i]] += v;
  }
  return ref;
}

void ExpectAggMatchesReference(ColumnarHashAgg* agg, const AggInput& in,
                               bool weighted) {
  agg->Consume(in.keys.data(), in.vals.data(),
               weighted ? in.weights.data() : nullptr,
               static_cast<int64_t>(in.keys.size()));
  agg->Finish();
  std::map<int64_t, double> ref = ReferenceSums(in, weighted);
  ASSERT_EQ(agg->keys().size(), ref.size());
  for (size_t g = 0; g < agg->keys().size(); ++g) {
    auto it = ref.find(agg->keys()[g]);
    ASSERT_NE(it, ref.end()) << "unknown group " << agg->keys()[g];
    double got = agg->sums()[g], want = it->second;
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
        << "group " << agg->keys()[g] << ": " << got << " vs " << want;
  }
}

TEST(ColumnarHashAggTest, AllStrategiesProduceBitIdenticalSums) {
  for (int64_t cardinality : {8, 4096}) {
    for (bool weighted : {false, true}) {
      AggInput in = MakeAggInput(20000, cardinality, 7 + cardinality);
      ColumnarHashAgg flat(AggStrategy::kFlat);
      ColumnarHashAgg part(AggStrategy::kPartitioned);
      ColumnarHashAgg autos(AggStrategy::kAuto);
      ExpectAggMatchesReference(&flat, in, weighted);
      ExpectAggMatchesReference(&part, in, weighted);
      ExpectAggMatchesReference(&autos, in, weighted);
      EXPECT_EQ(flat.chosen(), AggStrategy::kFlat);
      EXPECT_EQ(part.chosen(), AggStrategy::kPartitioned);
    }
  }
}

TEST(ColumnarHashAggTest, AutoPicksByObservedGroupCardinality) {
  AggInput dense = MakeAggInput(8192, 8, 1);       // few hot groups
  AggInput sparse = MakeAggInput(8192, 100000, 2); // nearly all distinct
  ColumnarHashAgg a(AggStrategy::kAuto);
  a.Consume(dense.keys.data(), dense.vals.data(), nullptr, 8192);
  EXPECT_EQ(a.chosen(), AggStrategy::kFlat);
  ColumnarHashAgg b(AggStrategy::kAuto);
  b.Consume(sparse.keys.data(), sparse.vals.data(), nullptr, 8192);
  EXPECT_EQ(b.chosen(), AggStrategy::kPartitioned);
  // Tiny first batches never partition (sample too small to trust).
  ColumnarHashAgg c(AggStrategy::kAuto);
  int64_t few_keys[] = {1, 2, 3};
  double few_vals[] = {1.0, 2.0, 3.0};
  c.Consume(few_keys, few_vals, nullptr, 3);
  EXPECT_EQ(c.chosen(), AggStrategy::kFlat);
}

TEST(ColumnarHashAggTest, MultiBatchConsumeAndIdempotentFinish) {
  AggInput in = MakeAggInput(10000, 2048, 3);
  ColumnarHashAgg whole(AggStrategy::kPartitioned);
  ExpectAggMatchesReference(&whole, in, true);
  ColumnarHashAgg split(AggStrategy::kPartitioned);
  const int64_t half = 5000;
  split.Consume(in.keys.data(), in.vals.data(), in.weights.data(), half);
  split.Consume(in.keys.data() + half, in.vals.data() + half,
                in.weights.data() + half, half);
  split.Finish();
  split.Finish();  // idempotent
  ASSERT_EQ(split.keys().size(), whole.keys().size());
  // Same groups need not appear at the same dense index across the two
  // (partition-major first-touch order differs by batch split), so
  // compare as key->sum maps with bit-exact doubles.
  std::map<int64_t, double> ws;
  for (size_t g = 0; g < whole.keys().size(); ++g) {
    ws[whole.keys()[g]] = whole.sums()[g];
  }
  for (size_t g = 0; g < split.keys().size(); ++g) {
    double got = split.sums()[g], want = ws.at(split.keys()[g]);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
        << "group " << split.keys()[g];
  }
}

TEST(ColumnarHashJoinTest, ProbeEmitsExactlyTheReferenceMatchSet) {
  Rng rng(17);
  std::vector<int64_t> build, probe;
  for (int i = 0; i < 5000; ++i) build.push_back(rng.UniformInt(0, 511));
  for (int i = 0; i < 5000; ++i) probe.push_back(rng.UniformInt(0, 700));
  ColumnarHashJoin join;
  join.Build(build.data(), 2500);
  join.Build(build.data() + 2500, 2500);  // ids continue across calls
  EXPECT_EQ(join.build_rows(), 5000);
  std::vector<int32_t> bo, po;
  int64_t emitted = join.Probe(probe.data(), static_cast<int64_t>(probe.size()),
                               &bo, &po);
  ASSERT_EQ(bo.size(), po.size());
  EXPECT_EQ(emitted, static_cast<int64_t>(bo.size()));
  std::multiset<std::pair<int32_t, int32_t>> got, want;
  for (size_t i = 0; i < bo.size(); ++i) got.emplace(bo[i], po[i]);
  for (size_t p = 0; p < probe.size(); ++p) {
    for (size_t b = 0; b < build.size(); ++b) {
      if (build[b] == probe[p]) {
        want.emplace(static_cast<int32_t>(b), static_cast<int32_t>(p));
      }
    }
  }
  EXPECT_EQ(got, want);
  // Misses emit nothing.
  int64_t miss = 1 << 20;
  EXPECT_EQ(join.Probe(&miss, 1, &bo, &po), 0);
}

// ---------------------------------------------------------------------------
// Operator-level columnar == row
// ---------------------------------------------------------------------------

// Runs the same deltas through op_row.Process and op_col.ProcessColumnar
// and demands identical outputs and identical OpWork meters. The two ops
// must be freshly constructed twins (meters accumulate).
void ExpectColumnarEqualsRow(PhysOp* op_row, PhysOp* op_col,
                             const Schema& input_schema,
                             const DeltaBatch& in) {
  DeltaBatch row_out = op_row->Process(0, in);
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromDeltas(input_schema, in, &cb));
  ColumnBatch col;
  op_col->ProcessColumnar(0, std::move(cb), &col);
  EXPECT_TRUE(BitExactDeltas(col.ToDeltas(), row_out));
  EXPECT_EQ(op_row->work().in, op_col->work().in);
  EXPECT_EQ(op_row->work().out, op_col->work().out);
  EXPECT_EQ(op_row->work().state, op_col->work().state);
}

TEST(ColumnarOpTest, ScanOpRetagsIdentically) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr scan = b.Scan("orders");
  ScanOp row_op(scan.get()), col_op(scan.get());
  ASSERT_TRUE(col_op.SupportsColumnar(0));
  DeltaBatch in;
  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    // Source tuples arrive untagged (qset empty) with mixed weights.
    in.push_back({{Value(int64_t{i}), Value(rng.UniformInt(0, 9)),
                   Value(rng.UniformDouble(1.0, 100.0))},
                  QuerySet(), i % 5 == 0 ? -1 : 1});
  }
  ExpectColumnarEqualsRow(&row_op, &col_op, scan->output_schema, in);
}

// Shared-filter fixture: two queries with different predicates over the
// orders schema, so σ* must clear bits per-predicate and drop tuples only
// when no bits survive.
PlanNodePtr SharedFilterNode(TestDb* db) {
  PlanBuilder b(&db->catalog, 0);
  PlanNodePtr scan = b.Scan("orders");
  std::map<QueryId, ExprPtr> preds;
  preds[0] = Gt(Col("o_amount"), Lit(40.0));
  preds[1] = Lt(Col("o_amount"), Lit(70.0));
  return PlanNode::MakeFilter(scan, std::move(preds), QuerySet(0b11));
}

// Orders-shaped deltas covering inserts, deletes interleaved with the two
// halves of updates, and tuples tagged for one, both, or neither query.
DeltaBatch OrdersDeltas(int n, uint64_t seed) {
  Rng rng(seed);
  DeltaBatch in;
  for (int i = 0; i < n; ++i) {
    Row r = {Value(int64_t{i}), Value(rng.UniformInt(0, 9)),
             Value(rng.UniformDouble(1.0, 100.0))};
    uint64_t q = 1 + rng.UniformInt(0, 2);  // 0b01, 0b10 or 0b11
    if (i % 6 == 3) {
      // Update: delete the old image, insert a changed one, with an
      // unrelated delete interleaved between the halves.
      in.push_back({r, QuerySet(q), -1});
      in.push_back({{Value(int64_t{i - 1}), Value(rng.UniformInt(0, 9)),
                     Value(rng.UniformDouble(1.0, 100.0))},
                    QuerySet(0b11), -2});
      Row updated = r;
      updated[2] = Value(rng.UniformDouble(1.0, 100.0));
      in.push_back({updated, QuerySet(q), 1});
    } else {
      in.push_back({r, QuerySet(q), 1});
    }
  }
  return in;
}

TEST(ColumnarOpTest, FilterOpMarksAndDropsIdentically) {
  TestDb db;
  PlanNodePtr node = SharedFilterNode(&db);
  const Schema& schema = node->children[0]->output_schema;
  FilterOp row_op(node.get(), schema), col_op(node.get(), schema);
  ASSERT_TRUE(col_op.SupportsColumnar(0));
  ExpectColumnarEqualsRow(&row_op, &col_op, schema, OrdersDeltas(200, 11));
  // Empty batch and all-dropped batch both come back empty.
  ExpectColumnarEqualsRow(&row_op, &col_op, schema, DeltaBatch{});
  DeltaBatch none;
  none.push_back({{Value(int64_t{0}), Value(int64_t{0}), Value(50.0)},
                  QuerySet(), 1});  // no query bits at all
  ExpectColumnarEqualsRow(&row_op, &col_op, schema, none);
}

TEST(ColumnarOpTest, FilterOpWithStringPredicateFallsBackToRows) {
  // A predicate shape VectorExpr refuses (string vs number compare) must
  // leave the whole operator on the row path (one predicate group is
  // enough to disqualify it — per-group routing would reorder output).
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr scan = b.Scan("customer");
  std::map<QueryId, ExprPtr> preds;
  preds[0] = Eq(Col("c_region"), Lit("ASIA"));
  preds[1] = Eq(Col("c_region"), Lit(3));  // hazardous: never vectorized
  PlanNodePtr node =
      PlanNode::MakeFilter(scan, std::move(preds), QuerySet(0b11));
  FilterOp op(node.get(), scan->output_schema);
  EXPECT_FALSE(op.SupportsColumnar(0));
}

TEST(ColumnarOpTest, ProjectOpComputesIdentically) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr scan = b.Scan("orders");
  PlanNodePtr node = b.Project(
      scan, {{Col("o_custkey"), "o_custkey"},
             {Add(Mul(Col("o_amount"), Lit(2.0)), Col("o_id")), "scaled"},
             {IntDiv(Col("o_id"), Lit(7)), "bucket"}});
  const Schema& schema = scan->output_schema;
  ProjectOp row_op(node.get(), schema), col_op(node.get(), schema);
  ASSERT_TRUE(col_op.SupportsColumnar(0));
  ExpectColumnarEqualsRow(&row_op, &col_op, schema, OrdersDeltas(200, 13));
}

TEST(ColumnarOpTest, SubplanInputOpMasksIdentically) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr node = PlanNode::MakeSubplanInput(
      0, b.Scan("orders")->output_schema, QuerySet(0b01));
  SubplanInputOp row_op(node.get()), col_op(node.get());
  ASSERT_TRUE(col_op.SupportsColumnar(0));
  // Tuples tagged only for the other query must be dropped; shared ones
  // masked down to 0b01.
  ExpectColumnarEqualsRow(&row_op, &col_op, node->output_schema,
                          OrdersDeltas(120, 19));
}

TEST(ColumnarOpTest, DefaultRowShimMatchesVectorizedPath) {
  // PhysOp::ProcessColumnar (the base-class shim every non-vectorized
  // operator inherits) must agree with both the row path and the real
  // vectorized override. The qualified call pins the base implementation.
  TestDb db;
  PlanNodePtr node = SharedFilterNode(&db);
  const Schema& schema = node->children[0]->output_schema;
  FilterOp row_op(node.get(), schema), shim_op(node.get(), schema);
  DeltaBatch in = OrdersDeltas(100, 23);
  DeltaBatch row_out = row_op.Process(0, in);
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromDeltas(schema, in, &cb));
  ColumnBatch out;
  shim_op.PhysOp::ProcessColumnar(0, std::move(cb), &out);
  EXPECT_TRUE(BitExactDeltas(out.ToDeltas(), row_out));
  EXPECT_EQ(row_op.work().in, shim_op.work().in);
  EXPECT_EQ(row_op.work().out, shim_op.work().out);
}

// ---------------------------------------------------------------------------
// The columnar-vs-row bit-exactness property
// ---------------------------------------------------------------------------

using ResultMap = std::unordered_map<Row, int64_t, RowHasher>;

// Exact equality including runtime types: the row-hash equality of the
// map lookup tolerates int-vs-double numeric equality, so re-check each
// matched row's types bit-exactly.
::testing::AssertionResult ExactSameResults(const ResultMap& a,
                                            const ResultMap& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.size() << " vs " << b.size();
  }
  for (const auto& [row, mult] : a) {
    auto it = b.find(row);
    if (it == b.end()) {
      return ::testing::AssertionFailure()
             << "missing row " << RowToString(row);
    }
    if (it->second != mult) {
      return ::testing::AssertionFailure()
             << "multiplicity differs for " << RowToString(row);
    }
    for (size_t c = 0; c < row.size(); ++c) {
      auto r = BitExactValue(row[c], it->first[c]);
      if (!r) {
        return ::testing::AssertionFailure()
               << RowToString(row) << " col " << c << ": " << r.message();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct RunOutput {
  std::string fingerprint;
  std::vector<ResultMap> results;
  std::map<std::string, double> counters;
};

// Counters that must match bit-for-bit between the columnar and row
// pumps. Wall-clock and scheduler-internal series legitimately differ
// between any two runs; the exec.path.* routing counters are the one
// family that differs by design (that routing is what's under test).
std::map<std::string, double> CuratedCounters() {
  std::map<std::string, double> out;
  for (const auto& [name, value] : obs::Registry().Snapshot().counters) {
    if (name.find("seconds") != std::string::npos) continue;
    if (name.rfind("sched.", 0) == 0) continue;
    if (name.rfind("exec.path.", 0) == 0) continue;
    out[name] = value;
  }
  return out;
}

RunOutput RunPump(const StreamSource& source, const SubplanGraph& g,
                  const PaceConfig& paces, bool columnar, int threads) {
  obs::Registry().Reset();
  obs::GlobalTracer().Reset();
  StreamSource src;  // fresh consumer registrations, see sched_test
  CHECK(source.CloneTablesInto(&src).ok());
  ExecOptions opts;
  opts.columnar = columnar;
  opts.sched.num_threads = threads;
  opts.sched.morsel_min_tuples = 4;
  PaceExecutor exec(&g, &src, opts);
  RunResult r = exec.Run(paces).value();
  (void)r;
  RunOutput out;
  out.fingerprint = exec.StateFingerprint();
  for (QueryId q = 0; q < g.num_queries(); ++q) {
    out.results.push_back(MaterializeResult(*exec.query_output(q), q));
  }
  out.counters = CuratedCounters();
  return out;
}

TEST(ColumnarEquivalence, ColumnarPumpIsBitExactOverRandomSharedPlans) {
  TpchDb db(TpchScale{0.001, 29});
  MqoOptimizer mqo(&db.catalog);
  const int kSeeds = 100;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    int nq = static_cast<int>(2 + rng.UniformInt(0, 2));
    std::vector<QueryPlan> qs;
    for (int q = 0; q < nq; ++q) {
      int qnum = static_cast<int>(1 + rng.UniformInt(0, 21));
      qs.push_back(TpchQuery(db.catalog, qnum, q));
    }
    SubplanGraph g = SubplanGraph::Build(mqo.Merge(qs));
    PaceConfig paces(g.num_subplans());
    for (int& p : paces) p = static_cast<int>(1 + rng.UniformInt(0, 3));
    // Mostly serial (the pure columnar-vs-row diff); every fourth seed
    // runs both pumps 4-threaded so the property composes with morsel
    // parallelism.
    int threads = (seed % 4 == 0) ? 4 : 1;

    RunOutput row = RunPump(db.source, g, paces, /*columnar=*/false, threads);
    RunOutput col = RunPump(db.source, g, paces, /*columnar=*/true, threads);

    EXPECT_EQ(col.fingerprint, row.fingerprint)
        << "seed " << seed << " threads " << threads;
    ASSERT_EQ(col.results.size(), row.results.size());
    for (size_t q = 0; q < row.results.size(); ++q) {
      EXPECT_TRUE(ExactSameResults(col.results[q], row.results[q]))
          << "seed " << seed << " threads " << threads << " query " << q;
    }
    EXPECT_EQ(col.counters, row.counters)
        << "seed " << seed << " threads " << threads;
  }
}

TEST(ColumnarEquivalence, ColumnarPumpActuallyRoutesColumnarBatches) {
  // Guard against the property above passing vacuously: on a plain
  // filter+project plan the columnar pump must report columnar batches
  // and the row pump must not.
  TpchDb db(TpchScale{0.001, 31});
  MqoOptimizer mqo(&db.catalog);
  std::vector<QueryPlan> qs = {TpchQuery(db.catalog, 6, 0)};
  SubplanGraph g = SubplanGraph::Build(mqo.Merge(qs));
  PaceConfig paces(g.num_subplans(), 1);

  RunPump(db.source, g, paces, /*columnar=*/true, 1);
  auto snap = obs::Registry().Snapshot().counters;
  EXPECT_GT(snap["exec.path.columnar_batches"], 0.0);
  EXPECT_GT(snap["exec.path.columnar_tuples"], 0.0);

  RunPump(db.source, g, paces, /*columnar=*/false, 1);
  snap = obs::Registry().Snapshot().counters;
  // The executor registers the counter either way; the row pump must
  // never increment it.
  EXPECT_EQ(snap["exec.path.columnar_batches"], 0.0);
  EXPECT_GT(snap["exec.path.row_batches"], 0.0);
}

// ---------------------------------------------------------------------------
// Lazy lift (DESIGN.md §12.4): borrowed and owned source rows
// ---------------------------------------------------------------------------

// Every lineitem row of a small TPC-H dataset, released into its base
// buffer: the rows a leaf batch borrows in the pump.
class LineitemRows : public ::testing::Test {
 protected:
  LineitemRows() : db_(TpchScale{0.001, 29}) {
    CHECK(db_.source.CloneTablesInto(&src_).ok());
    CHECK(src_.AdvanceTo(1.0).ok());
    scan_ = PlanNode::MakeScan(db_.catalog, "lineitem", QuerySet(0b11));
  }
  const DeltaBatch& rows() const { return src_.buffer("lineitem")->log(); }
  const Schema& schema() const { return scan_->output_schema; }

  // Scans `rows()` columnar (a borrowed leaf batch, re-tagged for both
  // queries) and, into *row_out, through the row path.
  ColumnBatch ScanBoth(DeltaBatch* row_out) {
    ScanOp row_op(scan_.get()), col_op(scan_.get());
    *row_out = row_op.Process(0, rows());
    ColumnBatch cb, out;
    CHECK(ColumnBatch::Borrow(schema(), rows(), &cb));
    col_op.ProcessColumnar(0, std::move(cb), &out);
    return out;
  }

  TpchDb db_;
  StreamSource src_;
  PlanNodePtr scan_;
};

TEST_F(LineitemRows, OneColumnFilterLiftsExactlyOneColumn) {
  std::map<QueryId, ExprPtr> preds;
  preds[0] = Lt(Col("l_quantity"), Lit(24.0));
  preds[1] = Gt(Col("l_quantity"), Lit(40.0));
  PlanNodePtr node = PlanNode::MakeFilter(scan_, std::move(preds),
                                          QuerySet(0b11));
  FilterOp row_op(node.get(), schema()), col_op(node.get(), schema());
  ASSERT_TRUE(col_op.SupportsColumnar(0));
  DeltaBatch scanned;
  ColumnBatch in = ScanBoth(&scanned);
  ColumnBatch out;
  col_op.ProcessColumnar(0, std::move(in), &out);
  const int quantity = schema().IndexOf("l_quantity");
  for (int c = 0; c < schema().num_fields(); ++c) {
    EXPECT_EQ(out.lifted(c), c == quantity) << schema().field(c).name;
  }
  EXPECT_EQ(out.cols[static_cast<size_t>(quantity)].size(),
            static_cast<int64_t>(rows().size()));
  DeltaBatch row_out = row_op.Process(0, scanned);
  ASSERT_GT(row_out.size(), 0u);
  ASSERT_LT(row_out.size(), rows().size());
  EXPECT_TRUE(BitExactDeltas(out.ToDeltas(), row_out));
}

TEST_F(LineitemRows, PassThroughLowerIsBitExactWithSourceTuples) {
  DeltaBatch scanned;
  ColumnBatch b = ScanBoth(&scanned);
  for (int c = 0; c < schema().num_fields(); ++c) EXPECT_FALSE(b.lifted(c));
  ASSERT_EQ(schema().field(schema().IndexOf("l_shipinstruct")).type,
            DataType::kString);
  // The lower copies the source rows, string columns included, under the
  // batch's own query bits and weights.
  DeltaBatch lowered = b.ToDeltas();
  ASSERT_EQ(lowered.size(), rows().size());
  EXPECT_TRUE(BitExactDeltas(lowered, scanned));
  for (size_t i = 0; i < rows().size(); ++i) {
    ASSERT_EQ(lowered[i].row, rows()[i].row) << "row " << i;
  }
  // Lifting every column changes nothing: the column rebuild of an eager
  // batch gives the same deltas.
  for (int c = 0; c < schema().num_fields(); ++c) b.Lift(c);
  EXPECT_TRUE(BitExactDeltas(b.ToDeltas(), scanned));
  ColumnBatch eager;
  ASSERT_TRUE(ColumnBatch::FromDeltas(schema(), scanned, &eager));
  EXPECT_TRUE(BitExactDeltas(eager.ToDeltas(), scanned));
}

TEST(LazyLiftTest, OwnedBatchesOutliveTheirTemporaries) {
  TestDb db;
  const Schema& schema = db.catalog.GetSchema("orders");
  DeltaBatch expect = OrdersDeltas(80, 41);
  ColumnBatch owned;
  {
    DeltaBatch temp = expect;
    ASSERT_TRUE(ColumnBatch::Own(schema, std::move(temp), &owned));
    temp = OrdersDeltas(5, 42);  // the temporary is reused, then dies
  }
  ColumnBatch moved = std::move(owned);
  ColumnBatch copy = moved;
  copy.Lift(2);
  ASSERT_EQ(copy.cols[2].size(), static_cast<int64_t>(expect.size()));
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(copy.cols[2].f64()[i], expect[i].row[2].AsDouble());
  }
  EXPECT_TRUE(BitExactDeltas(copy.ToDeltas(), expect));
  EXPECT_TRUE(BitExactDeltas(std::move(moved).ToDeltas(), expect));

  // A failed Own leaves the rows with the caller for the row path.
  DeltaBatch bad = expect;
  bad[3].row[2] = Value(int64_t{7});
  ColumnBatch rejected;
  EXPECT_FALSE(ColumnBatch::Own(schema, std::move(bad), &rejected));
  EXPECT_EQ(bad.size(), expect.size());

  // The row shim's output owns the rows its Process call returned.
  PlanNodePtr node = SharedFilterNode(&db);
  FilterOp row_op(node.get(), schema), shim_op(node.get(), schema);
  DeltaBatch row_out = row_op.Process(0, expect);
  ColumnBatch in, out;
  ASSERT_TRUE(ColumnBatch::Borrow(schema, expect, &in));
  shim_op.PhysOp::ProcessColumnar(0, std::move(in), &out);
  out.Lift(0);
  ASSERT_EQ(out.cols[0].size(), static_cast<int64_t>(row_out.size()));
  for (size_t i = 0; i < row_out.size(); ++i) {
    ASSERT_EQ(out.cols[0].i64()[i], row_out[i].row[0].AsInt());
  }
  EXPECT_TRUE(BitExactDeltas(out.ToDeltas(), row_out));
}

// Two queries sharing a filter over a join: the join emits rows, so the
// shared filter's batch is lifted from a temporary (an owned batch).
std::vector<QueryPlan> FilterOverJoin(const Catalog& catalog) {
  QuerySet both(0b11);
  PlanNodePtr join = PlanNode::MakeJoin(
      PlanNode::MakeScan(catalog, "orders", both),
      PlanNode::MakeScan(catalog, "customer", both), {"o_custkey"},
      {"c_custkey"}, JoinType::kInner, both);
  std::map<QueryId, ExprPtr> preds;
  preds[0] = Gt(Col("o_amount"), Lit(30.0));
  preds[1] = Lt(Col("o_amount"), Lit(80.0));
  PlanNodePtr filt = PlanNode::MakeFilter(join, std::move(preds), both);
  PlanNodePtr root0 = PlanNode::MakeProject(
      filt, {{Col("o_id"), "o_id"}, {Col("c_region"), "region"}},
      QuerySet::Single(0));
  PlanNodePtr root1 = PlanNode::MakeProject(
      filt, {{Col("o_id"), "o_id"}, {Col("o_amount"), "amount"}},
      QuerySet::Single(1));
  return {QueryPlan{0, "q0", root0}, QueryPlan{1, "q1", root1}};
}

TEST(LazyLiftTest, OwnedLiftAboveARowOperatorIsBitExact) {
  TestDb db(/*n_orders=*/200, /*n_customers=*/12);
  SubplanGraph g = SubplanGraph::Build(FilterOverJoin(db.catalog));
  PaceConfig paces(g.num_subplans(), 3);
  RunOutput row = RunPump(db.source, g, paces, /*columnar=*/false, 1);
  RunOutput col = RunPump(db.source, g, paces, /*columnar=*/true, 1);
  EXPECT_GT(obs::Registry().Snapshot().counters["exec.path.columnar_batches"],
            0.0);
  EXPECT_EQ(col.fingerprint, row.fingerprint);
  ASSERT_EQ(col.results.size(), row.results.size());
  for (size_t q = 0; q < row.results.size(); ++q) {
    EXPECT_FALSE(row.results[q].empty()) << "query " << q;
    EXPECT_TRUE(ExactSameResults(col.results[q], row.results[q]))
        << "query " << q;
  }
}

TEST(LazyLiftTest, IllTypedSourceDegradesToRowsWithIdenticalResults) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/12);
  SubplanGraph g = SubplanGraph::Build(FilterOverJoin(db.catalog));
  PaceConfig paces(g.num_subplans(), 1);
  // The same orders, but one o_amount is an int in a float64 column: the
  // whole-batch validation rejects the leaf lift of that batch.
  StreamSource released;
  ASSERT_TRUE(db.source.CloneTablesInto(&released).ok());
  ASSERT_TRUE(released.AdvanceTo(1.0).ok());
  auto rows_of = [&released](const std::string& table) {
    std::vector<Row> rows;
    for (const DeltaTuple& t : released.buffer(table)->log()) {
      rows.push_back(t.row);
    }
    return rows;
  };
  std::vector<Row> orders = rows_of("orders");
  orders[17][2] = Value(int64_t{50});
  StreamSource src;
  src.AddTable("orders", db.catalog.GetSchema("orders"), std::move(orders));
  src.AddTable("customer", db.catalog.GetSchema("customer"),
               rows_of("customer"));

  RunOutput row = RunPump(src, g, paces, /*columnar=*/false, 1);
  RunOutput col = RunPump(src, g, paces, /*columnar=*/true, 1);
  auto counters = obs::Registry().Snapshot().counters;
  // The orders leaf fell back to rows; the customer leaf still lifted.
  EXPECT_GT(counters["exec.path.row_batches"], 0.0);
  EXPECT_GT(counters["exec.path.columnar_batches"], 0.0);
  EXPECT_EQ(col.fingerprint, row.fingerprint);
  ASSERT_EQ(col.results.size(), row.results.size());
  for (size_t q = 0; q < row.results.size(); ++q) {
    EXPECT_FALSE(row.results[q].empty()) << "query " << q;
    EXPECT_TRUE(ExactSameResults(col.results[q], row.results[q]))
        << "query " << q;
  }
}

}  // namespace
}  // namespace ishare
