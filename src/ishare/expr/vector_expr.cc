#include "ishare/expr/vector_expr.h"

#include <algorithm>

namespace ishare {

namespace {

// Double view over a numeric column: points straight at float64 payload,
// or at a locally widened copy for int64 columns (the same static_cast
// the row path's AsDouble performs).
class F64View {
 public:
  F64View(const ColumnVector& c, int64_t n) {
    if (c.type() == DataType::kFloat64) {
      data_ = c.f64().data();
      return;
    }
    conv_.resize(static_cast<size_t>(n));
    const std::vector<int64_t>& v = c.i64();
    for (int64_t i = 0; i < n; ++i) {
      conv_[static_cast<size_t>(i)] = static_cast<double>(v[static_cast<size_t>(i)]);
    }
    data_ = conv_.data();
  }
  const double* data() const { return data_; }

 private:
  const double* data_ = nullptr;
  std::vector<double> conv_;
};

// mask[i] = 1 iff column slot i is truthy (non-zero numeric), the exact
// `AsDouble() != 0` test EvalBool applies. String columns are excluded
// at compile time.
void Truthiness(const ColumnVector& c, int64_t n, std::vector<uint8_t>* mask) {
  mask->resize(static_cast<size_t>(n));
  uint8_t* m = mask->data();
  if (c.type() == DataType::kInt64) {
    const int64_t* v = c.i64().data();
    for (int64_t i = 0; i < n; ++i) m[i] = (v[i] != 0);
  } else {
    CHECK(c.type() == DataType::kFloat64);
    const double* v = c.f64().data();
    for (int64_t i = 0; i < n; ++i) m[i] = (v[i] != 0.0);
  }
}

}  // namespace

VectorExpr VectorExpr::Compile(const ExprPtr& expr, const Schema& input) {
  VectorExpr ve;
  ve.supported_ = CompileNode(expr, input, &ve.root_);
  if (ve.supported_) {
    CollectColumns(ve.root_, &ve.columns_);
    std::sort(ve.columns_.begin(), ve.columns_.end());
    ve.columns_.erase(std::unique(ve.columns_.begin(), ve.columns_.end()),
                      ve.columns_.end());
  }
  return ve;
}

void VectorExpr::CollectColumns(const Node& n, std::vector<int>* out) {
  if (n.kind == ExprKind::kColumn) out->push_back(n.column_index);
  for (const Node& c : n.children) CollectColumns(c, out);
}

bool VectorExpr::CompileNode(const ExprPtr& expr, const Schema& input,
                             Node* out) {
  if (expr == nullptr) return false;
  out->kind = expr->kind();
  out->children.clear();
  for (const ExprPtr& c : expr->children()) {
    out->children.emplace_back();
    if (!CompileNode(c, input, &out->children.back())) return false;
  }
  switch (expr->kind()) {
    case ExprKind::kColumn: {
      int idx = input.IndexOf(expr->column_name());
      if (idx < 0) return false;
      out->column_index = idx;
      out->out_type = input.field(idx).type;
      return true;
    }
    case ExprKind::kLiteral:
      out->literal = expr->literal();
      out->out_type = out->literal.type();
      return true;
    case ExprKind::kArith: {
      out->arith_op = expr->arith_op();
      DataType l = out->children[0].out_type;
      DataType r = out->children[1].out_type;
      // Arithmetic on strings would CHECK-fail row-at-a-time; stay there.
      if (l == DataType::kString || r == DataType::kString) return false;
      if (out->arith_op == ArithOp::kIntDiv) {
        if (l != DataType::kInt64 || r != DataType::kInt64) return false;
        out->out_type = DataType::kInt64;
      } else if (out->arith_op == ArithOp::kDiv) {
        out->out_type = DataType::kFloat64;
      } else {
        out->out_type = (l == DataType::kInt64 && r == DataType::kInt64)
                            ? DataType::kInt64
                            : DataType::kFloat64;
      }
      return true;
    }
    case ExprKind::kCompare: {
      out->compare_op = expr->compare_op();
      bool ls = out->children[0].out_type == DataType::kString;
      bool rs = out->children[1].out_type == DataType::kString;
      // String-vs-number comparison is a row-path programming error
      // (Value::Compare CHECKs); don't change when it surfaces.
      if (ls != rs) return false;
      out->out_type = DataType::kInt64;
      return true;
    }
    case ExprKind::kLogic:
      out->logic_op = expr->logic_op();
      if (out->children[0].out_type == DataType::kString ||
          out->children[1].out_type == DataType::kString) {
        return false;  // string truthiness CHECKs row-at-a-time
      }
      out->out_type = DataType::kInt64;
      return true;
    case ExprKind::kNot:
      if (out->children[0].out_type == DataType::kString) return false;
      out->out_type = DataType::kInt64;
      return true;
    case ExprKind::kInList:
      for (const Value& v : expr->in_list()) {
        if (v.is_int()) {
          out->in_ints.push_back(v.AsInt());
        } else if (v.is_double()) {
          out->in_doubles.push_back(v.AsDouble());
        } else {
          out->in_strings.push_back(v.AsString());
        }
      }
      out->out_type = DataType::kInt64;
      return true;
    case ExprKind::kLike:
      if (out->children[0].out_type != DataType::kString) return false;
      out->like_pattern = expr->like_pattern();
      out->out_type = DataType::kInt64;
      return true;
  }
  return false;
}

const ColumnVector* VectorExpr::EvalNode(const Node& n,
                                         const std::vector<ColumnVector>& cols,
                                         int64_t num_rows,
                                         ColumnVector* scratch) {
  const size_t un = static_cast<size_t>(num_rows);
  switch (n.kind) {
    case ExprKind::kColumn:
      return &cols[static_cast<size_t>(n.column_index)];
    case ExprKind::kLiteral: {
      // Scalar operands are splatted to constant columns so every binary
      // loop below is a dense pointer-pointer loop.
      *scratch = ColumnVector(n.out_type);
      switch (n.out_type) {
        case DataType::kInt64:
          scratch->i64().assign(un, n.literal.AsInt());
          break;
        case DataType::kFloat64:
          scratch->f64().assign(un, n.literal.AsDouble());
          break;
        case DataType::kString:
          scratch->str().assign(un, n.literal.AsString());
          break;
      }
      return scratch;
    }
    case ExprKind::kArith: {
      ColumnVector tl, tr;
      const ColumnVector* l = EvalNode(n.children[0], cols, num_rows, &tl);
      const ColumnVector* r = EvalNode(n.children[1], cols, num_rows, &tr);
      *scratch = ColumnVector(n.out_type);
      if (n.arith_op == ArithOp::kIntDiv) {
        std::vector<int64_t>& o = scratch->i64();
        o.resize(un);
        const int64_t* a = l->i64().data();
        const int64_t* b = r->i64().data();
        for (int64_t i = 0; i < num_rows; ++i) {
          int64_t bb = b[i];
          if (bb == 0) {
            o[static_cast<size_t>(i)] = 0;
            continue;
          }
          int64_t aa = a[i];
          int64_t q = aa / bb;
          if ((aa % bb != 0) && ((aa < 0) != (bb < 0))) --q;  // floor
          o[static_cast<size_t>(i)] = q;
        }
        return scratch;
      }
      if (n.out_type == DataType::kInt64) {
        std::vector<int64_t>& o = scratch->i64();
        o.resize(un);
        const int64_t* a = l->i64().data();
        const int64_t* b = r->i64().data();
        switch (n.arith_op) {
          case ArithOp::kAdd:
            for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = a[i] + b[i];
            break;
          case ArithOp::kSub:
            for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = a[i] - b[i];
            break;
          case ArithOp::kMul:
            for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = a[i] * b[i];
            break;
          default:
            break;
        }
        return scratch;
      }
      F64View lv(*l, num_rows), rv(*r, num_rows);
      const double* a = lv.data();
      const double* b = rv.data();
      std::vector<double>& o = scratch->f64();
      o.resize(un);
      switch (n.arith_op) {
        case ArithOp::kAdd:
          for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = a[i] + b[i];
          break;
        case ArithOp::kSub:
          for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = a[i] - b[i];
          break;
        case ArithOp::kMul:
          for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = a[i] * b[i];
          break;
        case ArithOp::kDiv:
          // Same guarded division as EvalNode: x/0 -> 0.0.
          for (int64_t i = 0; i < num_rows; ++i) {
            o[static_cast<size_t>(i)] = b[i] == 0 ? 0.0 : a[i] / b[i];
          }
          break;
        default:
          break;
      }
      return scratch;
    }
    case ExprKind::kCompare: {
      ColumnVector tl, tr;
      const ColumnVector* l = EvalNode(n.children[0], cols, num_rows, &tl);
      const ColumnVector* r = EvalNode(n.children[1], cols, num_rows, &tr);
      *scratch = ColumnVector(DataType::kInt64);
      std::vector<int64_t>& o = scratch->i64();
      o.resize(un);
      if (l->type() == DataType::kString) {
        const std::vector<std::string>& a = l->str();
        const std::vector<std::string>& b = r->str();
        for (int64_t i = 0; i < num_rows; ++i) {
          size_t k = static_cast<size_t>(i);
          int c = a[k] < b[k] ? -1 : (b[k] < a[k] ? 1 : 0);
          bool res = false;
          switch (n.compare_op) {
            case CompareOp::kEq: res = (c == 0); break;
            case CompareOp::kNe: res = (c != 0); break;
            case CompareOp::kLt: res = (c < 0); break;
            case CompareOp::kLe: res = (c <= 0); break;
            case CompareOp::kGt: res = (c > 0); break;
            case CompareOp::kGe: res = (c >= 0); break;
          }
          o[k] = res;
        }
        return scratch;
      }
      if (l->type() == DataType::kInt64 && r->type() == DataType::kInt64) {
        const int64_t* a = l->i64().data();
        const int64_t* b = r->i64().data();
        switch (n.compare_op) {
          case CompareOp::kEq:
            for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] == b[i]);
            break;
          case CompareOp::kNe:
            for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] != b[i]);
            break;
          case CompareOp::kLt:
            for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] < b[i]);
            break;
          case CompareOp::kLe:
            for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] <= b[i]);
            break;
          case CompareOp::kGt:
            for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] > b[i]);
            break;
          case CompareOp::kGe:
            for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] >= b[i]);
            break;
        }
        return scratch;
      }
      // Mixed numeric: Value::Compare promotes both sides to double.
      F64View lv(*l, num_rows), rv(*r, num_rows);
      const double* a = lv.data();
      const double* b = rv.data();
      switch (n.compare_op) {
        case CompareOp::kEq:
          for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] == b[i]);
          break;
        case CompareOp::kNe:
          for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] != b[i]);
          break;
        case CompareOp::kLt:
          for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] < b[i]);
          break;
        case CompareOp::kLe:
          for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] <= b[i]);
          break;
        case CompareOp::kGt:
          for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] > b[i]);
          break;
        case CompareOp::kGe:
          for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] >= b[i]);
          break;
      }
      return scratch;
    }
    case ExprKind::kLogic: {
      // Both sides are pure and total, so eager evaluation produces the
      // same truth table as the row path's short-circuit.
      ColumnVector tl, tr;
      const ColumnVector* l = EvalNode(n.children[0], cols, num_rows, &tl);
      const ColumnVector* r = EvalNode(n.children[1], cols, num_rows, &tr);
      std::vector<uint8_t> ml, mr;
      Truthiness(*l, num_rows, &ml);
      Truthiness(*r, num_rows, &mr);
      *scratch = ColumnVector(DataType::kInt64);
      std::vector<int64_t>& o = scratch->i64();
      o.resize(un);
      const uint8_t* a = ml.data();
      const uint8_t* b = mr.data();
      if (n.logic_op == LogicOp::kAnd) {
        for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] & b[i]);
      } else {
        for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (a[i] | b[i]);
      }
      return scratch;
    }
    case ExprKind::kNot: {
      ColumnVector tc;
      const ColumnVector* c = EvalNode(n.children[0], cols, num_rows, &tc);
      std::vector<uint8_t> m;
      Truthiness(*c, num_rows, &m);
      *scratch = ColumnVector(DataType::kInt64);
      std::vector<int64_t>& o = scratch->i64();
      o.resize(un);
      const uint8_t* a = m.data();
      for (int64_t i = 0; i < num_rows; ++i) o[static_cast<size_t>(i)] = (1 - a[i]);
      return scratch;
    }
    case ExprKind::kInList: {
      ColumnVector tc;
      const ColumnVector* c = EvalNode(n.children[0], cols, num_rows, &tc);
      *scratch = ColumnVector(DataType::kInt64);
      std::vector<int64_t>& o = scratch->i64();
      o.resize(un);
      switch (c->type()) {
        case DataType::kInt64: {
          const int64_t* v = c->i64().data();
          for (int64_t i = 0; i < num_rows; ++i) {
            bool hit = false;
            for (int64_t cand : n.in_ints) hit |= (v[i] == cand);
            for (double cand : n.in_doubles) {
              hit |= (static_cast<double>(v[i]) == cand);
            }
            o[static_cast<size_t>(i)] = hit;
          }
          break;
        }
        case DataType::kFloat64: {
          const double* v = c->f64().data();
          for (int64_t i = 0; i < num_rows; ++i) {
            bool hit = false;
            for (int64_t cand : n.in_ints) {
              hit |= (v[i] == static_cast<double>(cand));
            }
            for (double cand : n.in_doubles) hit |= (v[i] == cand);
            o[static_cast<size_t>(i)] = hit;
          }
          break;
        }
        case DataType::kString: {
          const std::vector<std::string>& v = c->str();
          for (int64_t i = 0; i < num_rows; ++i) {
            bool hit = false;
            for (const std::string& cand : n.in_strings) {
              hit |= (v[static_cast<size_t>(i)] == cand);
            }
            o[static_cast<size_t>(i)] = hit;
          }
          break;
        }
      }
      return scratch;
    }
    case ExprKind::kLike: {
      ColumnVector tc;
      const ColumnVector* c = EvalNode(n.children[0], cols, num_rows, &tc);
      const std::vector<std::string>& v = c->str();
      *scratch = ColumnVector(DataType::kInt64);
      std::vector<int64_t>& o = scratch->i64();
      o.resize(un);
      for (int64_t i = 0; i < num_rows; ++i) {
        o[static_cast<size_t>(i)] =
            LikeMatch(v[static_cast<size_t>(i)], n.like_pattern);
      }
      return scratch;
    }
  }
  return scratch;
}

void VectorExpr::Eval(const std::vector<ColumnVector>& cols, int64_t num_rows,
                      ColumnVector* out) const {
  CHECK(supported_);
  ColumnVector scratch;
  const ColumnVector* res = EvalNode(root_, cols, num_rows, &scratch);
  if (res == &scratch) {
    *out = std::move(scratch);
  } else {
    *out = *res;  // plain column reference: copy through
  }
}

void VectorExpr::EvalBoolMask(const std::vector<ColumnVector>& cols,
                              int64_t num_rows,
                              std::vector<uint8_t>* mask) const {
  CHECK(supported_);
  CHECK(root_.out_type != DataType::kString);
  ColumnVector scratch;
  const ColumnVector* res = EvalNode(root_, cols, num_rows, &scratch);
  Truthiness(*res, num_rows, mask);
}

}  // namespace ishare
