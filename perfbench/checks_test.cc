// Each correctness check of the benchmark must be able to fail: these tests
// run it on a true input, then corrupt one input and see it rejected.

#include "checks.h"

#include <gtest/gtest.h>

#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/workload/tpch.h"
#include "ishare/workload/tpch_queries.h"

namespace perfbench {
namespace {

using namespace ishare;  // NOLINT

class ChecksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new TpchDb(TpchScale{kScaleFactor, 1});
    queries_ = new std::vector<QueryPlan>(AllTpchQueries(db_->catalog));
  }
  static void TearDownTestSuite() {
    delete queries_;
    delete db_;
  }

  // The 22 queries merged into one shared graph, as the benchmark runs them.
  static SubplanGraph Merged() {
    MqoOptimizer mqo(&db_->catalog);
    return SubplanGraph::Build(mqo.Merge(*queries_));
  }

  // Runs `graph` at `pace` everywhere over a fresh copy of the stream and
  // returns the executor's results. (A reused, Reset() source keeps the
  // earlier executors' consumer registrations, which the fingerprint
  // serializes.)
  static std::vector<QueryResult> Run(const SubplanGraph& graph, int pace,
                                      Fingerprint* fingerprint = nullptr) {
    StreamSource source;
    EXPECT_TRUE(db_->source.CloneTablesInto(&source).ok());
    PaceExecutor exec(&graph, &source);
    Result<RunResult> r = exec.Run(PaceConfig(graph.num_subplans(), pace));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<QueryResult> out;
    for (QueryId q = 0; q < graph.num_queries(); ++q) {
      out.push_back(graph.query_root(q) < 0
                        ? QueryResult()
                        : MaterializeResult(*exec.query_output(q), q));
    }
    if (fingerprint != nullptr) *fingerprint = Digest(exec.StateFingerprint());
    return out;
  }

  static TpchDb* db_;
  static std::vector<QueryPlan>* queries_;
};

TpchDb* ChecksTest::db_ = nullptr;
std::vector<QueryPlan>* ChecksTest::queries_ = nullptr;

TEST_F(ChecksTest, PlainQueriesMatchTheEngineAndRejectADroppedRow) {
  std::vector<QueryResult> engine = Run(Merged(), 4);
  BaseTables base = ReadBaseTables(&db_->source);
  QueryResult q4 = PlainQ4(base);
  QueryResult q9 = PlainQ9(base);
  EXPECT_EQ(q4.size(), 5u);  // one row per order priority
  EXPECT_GT(q9.size(), 100u);
  EXPECT_EQ(CheckResult("Q4", engine[3], q4), "");
  EXPECT_EQ(CheckResult("Q9", engine[8], q9), "");

  q4.erase(q4.begin());
  EXPECT_NE(CheckResult("Q4", engine[3], q4), "");
  q9.erase(q9.begin());
  EXPECT_NE(CheckResult("Q9", engine[8], q9), "");
}

// The plain queries must have rows on every seed the benchmark runs, or
// the check compares nothing.
TEST(PlainQueriesTest, HaveRowsOnEveryBenchmarkSeed) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    TpchDb db(TpchScale{kScaleFactor, seed});
    BaseTables base = ReadBaseTables(&db.source);
    EXPECT_EQ(PlainQ4(base).size(), 5u) << "seed " << seed;
    EXPECT_GT(PlainQ9(base).size(), 100u) << "seed " << seed;
  }
}

TEST_F(ChecksTest, SharedRunMatchesStandaloneBatchAndRejectsADroppedRow) {
  std::vector<QueryResult> shared = Run(Merged(), 3);
  for (const QueryPlan& q : *queries_) {
    std::vector<QueryResult> alone = Run(SubplanGraph::Build({q}), 1);
    EXPECT_EQ(CheckResult(q.name, shared[q.id], alone[q.id]), "");
  }
  // Q1 has four groups; a reference missing one is rejected.
  QueryResult ref = Run(SubplanGraph::Build({(*queries_)[0]}), 1)[0];
  ASSERT_GT(ref.size(), 1u);
  ref.erase(ref.begin());
  EXPECT_NE(CheckResult("Q1", shared[0], ref), "");
}

TEST_F(ChecksTest, ResultToleranceCoversFloatsOnly) {
  Row base{Value("A"), Value(int64_t{7}), Value(1000.0)};
  QueryResult want{{base, 1}};
  auto row = [](int64_t i, double x) {
    return Row{Value("A"), Value(i), Value(x)};
  };
  QueryResult close{{row(7, 1000.0 + 1e-8), 1}};
  QueryResult far{{row(7, 1000.001), 1}};
  QueryResult other_int{{row(8, 1000.0), 1}};
  QueryResult twice{{base, 2}};
  EXPECT_EQ(CheckResult("x", close, want), "");
  EXPECT_NE(CheckResult("x", far, want), "");
  EXPECT_NE(CheckResult("x", other_int, want), "");
  EXPECT_NE(CheckResult("x", twice, want), "");
}

TEST_F(ChecksTest, PacesRejectAParentFasterThanItsChild) {
  SubplanGraph g = Merged();
  PaceConfig paces(g.num_subplans(), 5);
  EXPECT_EQ(CheckPaces(g, paces, 50), "");

  int parent = -1;
  for (int s = 0; s < g.num_subplans() && parent < 0; ++s) {
    if (!g.subplan(s).children.empty()) parent = s;
  }
  ASSERT_GE(parent, 0);
  PaceConfig broken = paces;
  broken[parent] = 6;
  EXPECT_NE(CheckPaces(g, broken, 50), "");

  PaceConfig zero = paces;
  zero[0] = 0;
  EXPECT_NE(CheckPaces(g, zero, 50), "");
  EXPECT_NE(CheckPaces(g, paces, 4), "");
  EXPECT_NE(CheckPaces(g, PaceConfig(1, 1), 50), "");
}

TEST_F(ChecksTest, FingerprintRejectsOneFlippedByte) {
  SubplanGraph g = Merged();
  Fingerprint a, b;
  Run(g, 2, &a);
  Run(g, 2, &b);
  ASSERT_GT(a.bytes, 0u);
  EXPECT_EQ(CheckFingerprint(b, a), "");

  StreamSource source;
  ASSERT_TRUE(db_->source.CloneTablesInto(&source).ok());
  PaceExecutor exec(&g, &source);
  ASSERT_TRUE(exec.Run(PaceConfig(g.num_subplans(), 2)).ok());
  std::string state = exec.StateFingerprint();
  EXPECT_EQ(CheckFingerprint(Digest(state), a), "");
  state[state.size() / 2] ^= 1;
  EXPECT_NE(CheckFingerprint(Digest(state), a), "");
  state.pop_back();
  EXPECT_NE(CheckFingerprint(Digest(state), a), "");
}

TEST(CheckIdenticalTest, RejectsAnyDifference) {
  EXPECT_EQ(CheckIdentical("w", {3.5, 3.5, 3.5}), "");
  EXPECT_EQ(CheckIdentical("w", {}), "");
  EXPECT_NE(CheckIdentical("w", {3.5, 3.5, 3.5000000001}), "");
}

}  // namespace
}  // namespace perfbench
