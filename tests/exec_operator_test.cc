#include <gtest/gtest.h>

#include "ishare/exec/aggregate.h"
#include "ishare/exec/hash_join.h"
#include "ishare/exec/phys_op.h"
#include "test_util.h"

namespace ishare {
namespace {

DeltaTuple T(Row row, std::vector<QueryId> qs, int32_t w = 1) {
  return DeltaTuple(std::move(row), QuerySet::FromIds(qs), w);
}

// GCC 12 falsely flags the variant's string alternative during the vector
// move (PR 105562-style); see the matching note in exec/aggregate.cc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
Row R(std::initializer_list<int64_t> vals) {
  Row r;
  r.reserve(vals.size());
  for (int64_t v : vals) r.push_back(Value(v));
  return r;
}
#pragma GCC diagnostic pop

// --- FilterOp: marking-select semantics ---

TEST(FilterOpTest, MarksPerQueryBits) {
  Schema s({{"x", DataType::kInt64}});
  std::map<QueryId, ExprPtr> preds;
  preds[0] = Gt(Col("x"), Lit(10));
  preds[1] = Gt(Col("x"), Lit(20));
  PlanNodePtr scan_stub = PlanNode::MakeSubplanInput(
      0, s, QuerySet::FromIds({0, 1, 2}));
  PlanNodePtr node = PlanNode::MakeFilter(scan_stub, std::move(preds),
                                          QuerySet::FromIds({0, 1, 2}));
  FilterOp op(node.get(), s);

  // q2 has no predicate: pass-through.
  DeltaBatch out = op.Process(0, {T(R({15}), {0, 1, 2})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].qset, QuerySet::FromIds({0, 2}));  // q1 rejected (15<=20)

  out = op.Process(0, {T(R({25}), {0, 1, 2})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].qset, QuerySet::FromIds({0, 1, 2}));

  // All marked queries reject and no pass-through bit: dropped.
  out = op.Process(0, {T(R({5}), {0, 1})});
  EXPECT_TRUE(out.empty());
}

TEST(FilterOpTest, SharedPredicateEvaluatedOnce) {
  Schema s({{"x", DataType::kInt64}});
  ExprPtr shared_pred = Gt(Col("x"), Lit(10));
  std::map<QueryId, ExprPtr> preds;
  preds[0] = shared_pred;
  preds[1] = shared_pred;  // same object => one predicate group
  PlanNodePtr stub =
      PlanNode::MakeSubplanInput(0, s, QuerySet::FromIds({0, 1}));
  PlanNodePtr node =
      PlanNode::MakeFilter(stub, std::move(preds), QuerySet::FromIds({0, 1}));
  FilterOp op(node.get(), s);
  DeltaBatch out = op.Process(0, {T(R({15}), {0, 1}), T(R({5}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].qset, QuerySet::FromIds({0, 1}));
}

TEST(FilterOpTest, DeletePassesThroughWithWeight) {
  Schema s({{"x", DataType::kInt64}});
  std::map<QueryId, ExprPtr> preds;
  preds[0] = Gt(Col("x"), Lit(0));
  PlanNodePtr stub = PlanNode::MakeSubplanInput(0, s, QuerySet::Single(0));
  PlanNodePtr node =
      PlanNode::MakeFilter(stub, std::move(preds), QuerySet::Single(0));
  FilterOp op(node.get(), s);
  DeltaBatch out = op.Process(0, {T(R({5}), {0}, -1)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].weight, -1);
}

// --- SubplanInputOp masking ---

TEST(SubplanInputOpTest, MasksToSubplanQueries) {
  Schema s({{"x", DataType::kInt64}});
  PlanNodePtr node = PlanNode::MakeSubplanInput(0, s, QuerySet::Single(1));
  SubplanInputOp op(node.get());
  DeltaBatch out = op.Process(0, {T(R({1}), {0, 1}), T(R({2}), {0})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].qset, QuerySet::Single(1));
}

// --- Inner join ---

class InnerJoinFixture : public ::testing::Test {
 protected:
  InnerJoinFixture() {
    left_schema_ = Schema({{"lk", DataType::kInt64}, {"lv", DataType::kInt64}});
    right_schema_ =
        Schema({{"rk", DataType::kInt64}, {"rv", DataType::kInt64}});
    QuerySet qs = QuerySet::FromIds({0, 1});
    PlanNodePtr l = PlanNode::MakeSubplanInput(0, left_schema_, qs);
    PlanNodePtr r = PlanNode::MakeSubplanInput(1, right_schema_, qs);
    node_ = PlanNode::MakeJoin(l, r, {"lk"}, {"rk"}, JoinType::kInner, qs);
    op_ = std::make_unique<HashJoinOp>(node_.get(), left_schema_,
                                       right_schema_);
  }
  Schema left_schema_, right_schema_;
  PlanNodePtr node_;
  std::unique_ptr<HashJoinOp> op_;
};

TEST_F(InnerJoinFixture, MatchesOnKey) {
  EXPECT_TRUE(op_->Process(0, {T(R({1, 10}), {0, 1})}).empty());
  DeltaBatch out = op_->Process(1, {T(R({1, 20}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, R({1, 10, 1, 20}));
  EXPECT_EQ(out[0].qset, QuerySet::FromIds({0, 1}));
  EXPECT_EQ(out[0].weight, 1);
}

TEST_F(InnerJoinFixture, NoCrossKeyMatch) {
  op_->Process(0, {T(R({1, 10}), {0, 1})});
  EXPECT_TRUE(op_->Process(1, {T(R({2, 20}), {0, 1})}).empty());
}

TEST_F(InnerJoinFixture, QuerySetsIntersect) {
  op_->Process(0, {T(R({1, 10}), {0})});
  DeltaBatch out = op_->Process(1, {T(R({1, 20}), {1})});
  EXPECT_TRUE(out.empty());  // disjoint query sets
  out = op_->Process(1, {T(R({1, 30}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].qset, QuerySet::Single(0));
}

TEST_F(InnerJoinFixture, NoDoubleCountingWithinBatchPair) {
  // ΔL then ΔR in the same execution must produce exactly one joined tuple.
  DeltaBatch o1 = op_->Process(0, {T(R({7, 1}), {0, 1})});
  DeltaBatch o2 = op_->Process(1, {T(R({7, 2}), {0, 1})});
  EXPECT_EQ(o1.size() + o2.size(), 1u);
}

TEST_F(InnerJoinFixture, DeleteRetractsJoinResults) {
  op_->Process(0, {T(R({1, 10}), {0, 1})});
  op_->Process(1, {T(R({1, 20}), {0, 1})});
  DeltaBatch out = op_->Process(0, {T(R({1, 10}), {0, 1}, -1)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].weight, -1);
  EXPECT_EQ(op_->LeftStateSize(), 0);
}

TEST_F(InnerJoinFixture, PartialQueryDeleteSplitsEntry) {
  // Insert under {0,1}, then delete only q0's copy (the aggregate-churn
  // pattern that requires per-query state counters).
  op_->Process(0, {T(R({1, 10}), {0, 1})});
  op_->Process(0, {T(R({1, 10}), {0}, -1)});
  DeltaBatch out = op_->Process(1, {T(R({1, 20}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].qset, QuerySet::Single(1));
}

TEST_F(InnerJoinFixture, MultiplicityProducts) {
  op_->Process(0, {T(R({1, 10}), {0, 1}), T(R({1, 10}), {0, 1})});
  DeltaBatch out = op_->Process(1, {T(R({1, 20}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].weight, 2);
}

TEST(InnerJoinEmitTest, MixedMultiplicitiesEmitOnePerWeightAscending) {
  Schema ls({{"lk", DataType::kInt64}, {"lv", DataType::kInt64}});
  Schema rs({{"rk", DataType::kInt64}, {"rv", DataType::kInt64}});
  QuerySet qs = QuerySet::FromIds({0, 1, 2});
  PlanNodePtr node = PlanNode::MakeJoin(
      PlanNode::MakeSubplanInput(0, ls, qs),
      PlanNode::MakeSubplanInput(1, rs, qs), {"lk"}, {"rk"},
      JoinType::kInner, qs);
  HashJoinOp op(node.get(), ls, rs);
  // One right entry holding two copies for q0 and q2, one for q1.
  op.Process(1, {T(R({1, 20}), {0, 1, 2}), T(R({1, 20}), {0, 2})});

  DeltaBatch out = op.Process(0, {T(R({1, 10}), {0, 1, 2})});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].row, R({1, 10, 1, 20}));
  EXPECT_EQ(out[0].qset, QuerySet::Single(1));
  EXPECT_EQ(out[0].weight, 1);
  EXPECT_EQ(out[1].row, R({1, 10, 1, 20}));
  EXPECT_EQ(out[1].qset, QuerySet::FromIds({0, 2}));
  EXPECT_EQ(out[1].weight, 2);

  // A delete probe flips the signs, so ascending order now puts the
  // doubled queries first.
  out = op.Process(0, {T(R({1, 10}), {0, 1, 2}, -1)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].qset, QuerySet::FromIds({0, 2}));
  EXPECT_EQ(out[0].weight, -2);
  EXPECT_EQ(out[1].qset, QuerySet::Single(1));
  EXPECT_EQ(out[1].weight, -1);

  // Equal contributions (the common case) still emit one tuple.
  out = op.Process(0, {T(R({1, 11}), {0, 2})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, R({1, 11, 1, 20}));
  EXPECT_EQ(out[0].qset, QuerySet::FromIds({0, 2}));
  EXPECT_EQ(out[0].weight, 2);
}

// --- Semi / anti join ---

class SemiAntiFixture : public ::testing::Test {
 protected:
  void Init(JoinType type) {
    left_schema_ = Schema({{"lk", DataType::kInt64}});
    right_schema_ = Schema({{"rk", DataType::kInt64}});
    QuerySet qs = QuerySet::FromIds({0, 1});
    PlanNodePtr l = PlanNode::MakeSubplanInput(0, left_schema_, qs);
    PlanNodePtr r = PlanNode::MakeSubplanInput(1, right_schema_, qs);
    node_ = PlanNode::MakeJoin(l, r, {"lk"}, {"rk"}, type, qs);
    op_ = std::make_unique<HashJoinOp>(node_.get(), left_schema_,
                                       right_schema_);
  }
  Schema left_schema_, right_schema_;
  PlanNodePtr node_;
  std::unique_ptr<HashJoinOp> op_;
};

TEST_F(SemiAntiFixture, SemiEmitsOnLaterMatch) {
  Init(JoinType::kLeftSemi);
  EXPECT_TRUE(op_->Process(0, {T(R({1}), {0, 1})}).empty());
  DeltaBatch out = op_->Process(1, {T(R({1}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, R({1}));
  EXPECT_EQ(out[0].weight, 1);
  // Second right match must not re-emit.
  EXPECT_TRUE(op_->Process(1, {T(R({1}), {0, 1})}).empty());
}

TEST_F(SemiAntiFixture, SemiRetractsWhenMatchesVanish) {
  Init(JoinType::kLeftSemi);
  op_->Process(1, {T(R({1}), {0, 1})});
  DeltaBatch out = op_->Process(0, {T(R({1}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);  // immediate match
  out = op_->Process(1, {T(R({1}), {0, 1}, -1)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].weight, -1);
}

TEST_F(SemiAntiFixture, AntiEmitsUnmatchedAndRetractsOnMatch) {
  Init(JoinType::kLeftAnti);
  DeltaBatch out = op_->Process(0, {T(R({1}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);  // no right matches yet
  out = op_->Process(1, {T(R({1}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].weight, -1);  // retract: now matched
}

TEST_F(SemiAntiFixture, SemiPerQueryMatching) {
  Init(JoinType::kLeftSemi);
  op_->Process(1, {T(R({1}), {1})});  // right row only valid for q1
  DeltaBatch out = op_->Process(0, {T(R({1}), {0, 1})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].qset, QuerySet::Single(1));
}

// --- Aggregate ---

class AggFixture : public ::testing::Test {
 protected:
  void Init(std::vector<AggSpec> specs, QuerySet qs = QuerySet::FromIds({0})) {
    input_schema_ =
        Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}});
    PlanNodePtr stub = PlanNode::MakeSubplanInput(0, input_schema_, qs);
    node_ = PlanNode::MakeAggregate(stub, {"g"}, std::move(specs), qs);
    op_ = std::make_unique<AggregateOp>(node_.get(), input_schema_);
  }
  Schema input_schema_;
  PlanNodePtr node_;
  std::unique_ptr<AggregateOp> op_;
};

TEST_F(AggFixture, SumFirstExecutionEmitsInsertOnly) {
  Init({SumAgg(Col("v"), "s")});
  op_->Process(0, {T(R({1, 10}), {0}), T(R({1, 5}), {0}), T(R({2, 7}), {0})});
  DeltaBatch out = op_->EndExecution();
  ASSERT_EQ(out.size(), 2u);
  for (const auto& t : out) EXPECT_EQ(t.weight, 1);
}

TEST_F(AggFixture, SumSecondExecutionEmitsDeletePlusInsert) {
  Init({SumAgg(Col("v"), "s")});
  op_->Process(0, {T(R({1, 10}), {0})});
  op_->EndExecution();
  op_->Process(0, {T(R({1, 5}), {0})});
  DeltaBatch out = op_->EndExecution();
  ASSERT_EQ(out.size(), 2u);
  // One delete of the old row, one insert of the new.
  int64_t net = 0;
  for (const auto& t : out) net += t.weight;
  EXPECT_EQ(net, 0);
  bool found_new = false;
  for (const auto& t : out) {
    if (t.weight == 1) {
      EXPECT_EQ(t.row, R({1, 15}));
      found_new = true;
    } else {
      EXPECT_EQ(t.row, R({1, 10}));
    }
  }
  EXPECT_TRUE(found_new);
}

TEST_F(AggFixture, UnchangedGroupEmitsNothing) {
  Init({SumAgg(Col("v"), "s")});
  op_->Process(0, {T(R({1, 10}), {0})});
  op_->EndExecution();
  // Insert and delete cancel: sum unchanged.
  op_->Process(0, {T(R({1, 5}), {0}), T(R({1, 5}), {0}, -1)});
  EXPECT_TRUE(op_->EndExecution().empty());
}

TEST_F(AggFixture, GroupVanishesOnFullDelete) {
  Init({SumAgg(Col("v"), "s"), CountAgg("c")});
  op_->Process(0, {T(R({1, 10}), {0})});
  op_->EndExecution();
  op_->Process(0, {T(R({1, 10}), {0}, -1)});
  DeltaBatch out = op_->EndExecution();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].weight, -1);
}

TEST_F(AggFixture, PerQueryStateWithMarkingSelects) {
  Init({SumAgg(Col("v"), "s")}, QuerySet::FromIds({0, 1}));
  // q0 sees both tuples; q1 sees only the first.
  op_->Process(0, {T(R({1, 10}), {0, 1}), T(R({1, 5}), {0})});
  DeltaBatch out = op_->EndExecution();
  // q0: (1,15); q1: (1,10) — different rows, no coalescing possible.
  ASSERT_EQ(out.size(), 2u);
  std::unordered_map<Row, QuerySet, RowHasher> by_row;
  for (const auto& t : out) by_row[t.row] = t.qset;
  EXPECT_EQ(by_row[R({1, 15})], QuerySet::Single(0));
  EXPECT_EQ(by_row[R({1, 10})], QuerySet::Single(1));
}

TEST_F(AggFixture, EqualRowsCoalesceAcrossQueries) {
  Init({SumAgg(Col("v"), "s")}, QuerySet::FromIds({0, 1}));
  op_->Process(0, {T(R({1, 10}), {0, 1})});
  DeltaBatch out = op_->EndExecution();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].qset, QuerySet::FromIds({0, 1}));
}

TEST_F(AggFixture, MinMaxMaintainExtremum) {
  Init({MaxAgg(Col("v"), "mx"), MinAgg(Col("v"), "mn")});
  op_->Process(0, {T(R({1, 10}), {0}), T(R({1, 30}), {0}), T(R({1, 20}), {0})});
  DeltaBatch out = op_->EndExecution();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, R({1, 30, 10}));
}

TEST_F(AggFixture, MaxDeleteTriggersRescan) {
  Init({MaxAgg(Col("v"), "mx")});
  op_->Process(0, {T(R({1, 10}), {0}), T(R({1, 30}), {0})});
  op_->EndExecution();
  double state_before = op_->work().state;
  op_->Process(0, {T(R({1, 30}), {0}, -1)});
  DeltaBatch out = op_->EndExecution();
  ASSERT_EQ(out.size(), 2u);  // delete (1,30), insert (1,10)
  std::unordered_map<Row, int64_t, RowHasher> net;
  for (const auto& t : out) net[t.row] += t.weight;
  EXPECT_EQ(net[R({1, 30})], -1);
  EXPECT_EQ(net[R({1, 10})], 1);
  EXPECT_GT(op_->work().state, state_before);  // rescan charged
}

TEST_F(AggFixture, CountDistinct) {
  Init({CountDistinctAgg(Col("v"), "d")});
  op_->Process(0, {T(R({1, 10}), {0}), T(R({1, 10}), {0}), T(R({1, 20}), {0})});
  DeltaBatch out = op_->EndExecution();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, R({1, 2}));
  // Deleting one of the duplicate 10s must not change the distinct count.
  op_->Process(0, {T(R({1, 10}), {0}, -1)});
  EXPECT_TRUE(op_->EndExecution().empty());
  // Deleting the second one does.
  op_->Process(0, {T(R({1, 10}), {0}, -1)});
  out = op_->EndExecution();
  ASSERT_EQ(out.size(), 2u);
}

TEST_F(AggFixture, AvgComputesMean) {
  Init({AvgAgg(Col("v"), "a")});
  op_->Process(0, {T(R({1, 10}), {0}), T(R({1, 20}), {0})});
  DeltaBatch out = op_->EndExecution();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].row[1].AsDouble(), 15.0);
}

TEST(GlobalAggTest, EmptyGroupByProducesSingleRow) {
  Schema s({{"v", DataType::kInt64}});
  QuerySet qs = QuerySet::Single(0);
  PlanNodePtr stub = PlanNode::MakeSubplanInput(0, s, qs);
  PlanNodePtr node =
      PlanNode::MakeAggregate(stub, {}, {SumAgg(Col("v"), "s")}, qs);
  AggregateOp op(node.get(), s);
  op.Process(0, {T(R({10}), {0}), T(R({32}), {0})});
  DeltaBatch out = op.EndExecution();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, R({42}));
}

}  // namespace
}  // namespace ishare
