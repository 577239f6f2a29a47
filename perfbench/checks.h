// Correctness checks of the benchmark. Every check returns an empty string
// when it holds and a one-line description of the first violation when it
// does not, so bench.cc can count failures and report them, and
// checks_test.cc can show that each check rejects a corrupted input.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ishare/exec/pace_executor.h"
#include "ishare/plan/subplan_graph.h"
#include "ishare/storage/stream_source.h"
#include "ishare/types/schema.h"

namespace perfbench {

using ishare::PaceConfig;
using ishare::Row;
using ishare::Schema;
using ishare::SubplanGraph;

// A query's final result: each distinct row with its net multiplicity, as
// ishare::MaterializeResult returns it.
using QueryResult = std::unordered_map<Row, int64_t, ishare::RowHasher>;

// The TPC-H scale factor of every workload (and of checks_test.cc).
constexpr double kScaleFactor = 0.01;

// One generated base table: its schema and every row of the window.
struct BaseTable {
  Schema schema;
  std::vector<Row> rows;
};
using BaseTables = std::map<std::string, BaseTable>;

// Releases the whole window of `source` and copies out every table's
// rows. The source must have no executor running over it; it is left
// rewound (Reset).
BaseTables ReadBaseTables(ishare::StreamSource* source);

// TPC-H Q4 and Q9 (base constants, as ishare::TpchQuery builds them
// without `variant`) computed in plain C++ from the base rows, without the
// engine: hash maps over the generated rows. At sf 0.01, Q4 has 5 rows and
// Q9 about 175 (nation x year).
QueryResult PlainQ4(const BaseTables& tables);
QueryResult PlainQ9(const BaseTables& tables);

// `got` matches `want` row for row under ishare::RowsEquivalent (exact
// strings and integers, 1e-9 relative tolerance on floats), with equal
// multiplicities. Rows are bucketed by their string and integer cells, so
// an integer cell must have the same type on both sides.
std::string CheckResult(const std::string& what, const QueryResult& got,
                        const QueryResult& want);

// One pace per subplan, each in [1, max_pace], and no subplan's pace above
// any of its children's.
std::string CheckPaces(const SubplanGraph& graph, const PaceConfig& paces,
                       int max_pace);

// A fixed-size digest of an executor state fingerprint
// (ishare::PaceExecutor::StateFingerprint and its adaptive twin): its length
// and a 64-bit hash of its bytes. A run keeps digests, not the fingerprints
// themselves, which take tens of MB each at sf 0.01.
struct Fingerprint {
  size_t bytes = 0;
  uint64_t hash = 0;
};
Fingerprint Digest(const std::string& state);

// The two fingerprints' digests must be identical.
std::string CheckFingerprint(const Fingerprint& got, const Fingerprint& want);

// Every value of a deterministic quantity (work units per window) must be
// identical.
std::string CheckIdentical(const std::string& what,
                           const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
