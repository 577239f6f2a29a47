// Vectorized expression evaluation — the kernel side of the columnar
// execution core (DESIGN.md §12.3). A VectorExpr is a CompiledExpr twin
// that evaluates one expression over a whole column batch with typed,
// branch-free inner loops instead of per-row tagged-Value dispatch.
// Semantics mirror CompiledExpr::EvalNode bit-for-bit: same int-vs-double
// promotion, same guarded division, same floor integer division, same
// Value comparison and IN-list equality rules. Expressions whose typing
// the static analysis cannot prove hazard-free (e.g. string/number
// comparison, LIKE on a numeric child) compile with supported()==false
// and the caller stays on the row path, preserving row-path behavior —
// including its failure modes — exactly.

#ifndef ISHARE_EXPR_VECTOR_EXPR_H_
#define ISHARE_EXPR_VECTOR_EXPR_H_

#include <cstdint>
#include <vector>

#include "ishare/expr/expr.h"
#include "ishare/types/column.h"

namespace ishare {

// An expression compiled against a concrete input schema for columnar
// evaluation. Inputs are the typed columns of a ColumnBatch (expression
// evaluation is selection-blind: it computes all num_rows slots, which is
// safe because every operation is total, and lets the loops stay dense).
class VectorExpr {
 public:
  VectorExpr() = default;

  static VectorExpr Compile(const ExprPtr& expr, const Schema& input);

  // False when the expression cannot be vectorized soundly; callers must
  // then use CompiledExpr row-at-a-time.
  bool supported() const { return supported_; }

  // Static result type (matches Expr::OutputType on supported exprs).
  DataType output_type() const { return root_.out_type; }

  // Input column indices the expression reads, ascending and distinct:
  // the columns a caller must ColumnBatch::Lift before Eval.
  const std::vector<int>& columns() const { return columns_; }

  // Evaluates over rows [0, num_rows) of `cols`, writing the result
  // column into *out. Requires supported().
  void Eval(const std::vector<ColumnVector>& cols, int64_t num_rows,
            ColumnVector* out) const;

  // Evaluates as a boolean (non-zero numeric, as EvalBool): mask[i] = 1
  // iff row i passes. Requires supported() and a numeric output type.
  void EvalBoolMask(const std::vector<ColumnVector>& cols, int64_t num_rows,
                    std::vector<uint8_t>* mask) const;

 private:
  struct Node {
    ExprKind kind = ExprKind::kLiteral;
    DataType out_type = DataType::kInt64;
    int column_index = -1;
    Value literal;
    ArithOp arith_op = ArithOp::kAdd;
    CompareOp compare_op = CompareOp::kEq;
    LogicOp logic_op = LogicOp::kAnd;
    // IN-list candidates pre-split by type (Value equality semantics:
    // int candidates compare exactly against int children, numeric
    // candidates compare as double across types, strings only match
    // strings).
    std::vector<int64_t> in_ints;
    std::vector<double> in_doubles;
    std::vector<std::string> in_strings;
    std::string like_pattern;
    std::vector<Node> children;
  };

  static bool CompileNode(const ExprPtr& expr, const Schema& input, Node* out);
  static void CollectColumns(const Node& n, std::vector<int>* out);

  // Evaluates `n` into a column of length num_rows. Returns a pointer to
  // an input column when the node is a plain reference, otherwise fills
  // *scratch and returns it.
  static const ColumnVector* EvalNode(const Node& n,
                                      const std::vector<ColumnVector>& cols,
                                      int64_t num_rows, ColumnVector* scratch);

  Node root_;
  std::vector<int> columns_;
  bool supported_ = false;
};

}  // namespace ishare

#endif  // ISHARE_EXPR_VECTOR_EXPR_H_
