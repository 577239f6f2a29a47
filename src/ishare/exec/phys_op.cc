#include "ishare/exec/phys_op.h"

#include <map>

#include "ishare/exec/aggregate.h"
#include "ishare/exec/hash_join.h"

namespace ishare {

namespace {

// Drops rows whose query set emptied: keeps `sel`-selected rows with
// non-zero qbits, preserving input order, and keeps the all-selected
// representation when nothing was dropped.
SelectionVector CompactSelection(const ColumnBatch& b) {
  std::vector<int32_t> keep;
  keep.reserve(static_cast<size_t>(b.num_selected()));
  const uint64_t* q = b.qbits.data();
  b.sel.ForEach([&](int32_t i) {
    if (q[i] != 0) keep.push_back(i);
  });
  if (static_cast<int64_t>(keep.size()) == b.num_rows()) {
    return SelectionVector::All(b.num_rows());
  }
  return SelectionVector::FromIndices(std::move(keep));
}

}  // namespace

// Row shim: any operator can be driven columnar through its row
// implementation. The pump never takes this path (SupportsColumnar
// defaults to false); it exists so the contract "ProcessColumnar ==
// convert ∘ Process ∘ convert" is executable in tests. The output rows
// are a temporary, so the output batch owns them (DESIGN.md §12.4).
void PhysOp::ProcessColumnar(int child_idx, ColumnBatch in, ColumnBatch* out) {
  DeltaBatch rows = std::move(in).ToDeltas();
  DeltaBatch orows = Process(child_idx, rows);
  CHECK(ColumnBatch::Own(node_->output_schema, std::move(orows), out))
      << "row shim: operator output does not conform to its declared schema";
}

DeltaBatch ScanOp::Process(int child_idx, DeltaSpan in) {
  CHECK_EQ(child_idx, 0);
  DeltaBatch out;
  out.reserve(in.size());
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    // Base tuples are valid for every query sharing this scan.
    out.emplace_back(t.row, node_->queries, t.weight);
    work_.out += 1;
  }
  return out;
}

bool ScanOp::SupportsColumnar(int child_idx) const {
  // The columnar qbits lane is one raw u64 per row; query sets beyond the
  // inline word run the row pump (DESIGN.md §12 degradation contract).
  return child_idx == 0 && node_->queries.fits_inline();
}

void ScanOp::ProcessColumnar(int child_idx, ColumnBatch in, ColumnBatch* out) {
  CHECK_EQ(child_idx, 0);
  const double n_sel = static_cast<double>(in.num_selected());
  work_.in += n_sel;
  // Base tuples are valid for every query sharing this scan; splatting
  // the scan's bits over dead slots too is harmless (they stay dead).
  in.qbits.assign(in.qbits.size(), node_->queries.bits());
  work_.out += n_sel;
  *out = std::move(in);
}

DeltaBatch SubplanInputOp::Process(int child_idx, DeltaSpan in) {
  CHECK_EQ(child_idx, 0);
  DeltaBatch out;
  out.reserve(in.size());
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    QuerySet masked = t.qset.Intersect(node_->queries);
    if (masked.empty()) continue;  // σ_filter: not needed by this subplan
    out.emplace_back(t.row, masked, t.weight);
    work_.out += 1;
  }
  return out;
}

bool SubplanInputOp::SupportsColumnar(int child_idx) const {
  return child_idx == 0 && node_->queries.fits_inline();
}

void SubplanInputOp::ProcessColumnar(int child_idx, ColumnBatch in,
                                     ColumnBatch* out) {
  CHECK_EQ(child_idx, 0);
  work_.in += static_cast<double>(in.num_selected());
  const uint64_t mask = node_->queries.bits();
  uint64_t* q = in.qbits.data();
  const int64_t n = in.num_rows();
  for (int64_t i = 0; i < n; ++i) q[i] &= mask;  // σ_filter, branch-free
  in.sel = CompactSelection(in);
  work_.out += static_cast<double>(in.num_selected());
  *out = std::move(in);
}

FilterOp::FilterOp(const PlanNode* node, const Schema& input_schema)
    : PhysOp(node) {
  // Group queries by their predicate object so each distinct predicate is
  // compiled and evaluated once per tuple (merged identical selects share
  // the same ExprPtr).
  std::map<const Expr*, std::pair<ExprPtr, QuerySet>> by_pred;
  for (const auto& [q, pred] : node->predicates) {
    if (pred == nullptr) continue;
    auto& slot = by_pred[pred.get()];
    slot.first = pred;
    slot.second.Add(q);
  }
  groups_.reserve(by_pred.size());
  for (const auto& [ptr, slot] : by_pred) {
    VectorExpr vpred = VectorExpr::Compile(slot.first, input_schema);
    // Predicates are evaluated in boolean context, so a string-typed root
    // is a row-path programming error too; stay on rows for it. Group
    // query sets beyond the inline u64 word also pin the row path (the
    // columnar bit-clear uses the raw word).
    columnar_ok_ = columnar_ok_ && vpred.supported() &&
                   vpred.output_type() != DataType::kString &&
                   slot.second.fits_inline();
    groups_.push_back(PredGroup{CompiledExpr::Compile(slot.first, input_schema),
                                std::move(vpred), slot.second});
  }
}

DeltaBatch FilterOp::Process(int child_idx, DeltaSpan in) {
  CHECK_EQ(child_idx, 0);
  DeltaBatch out;
  out.reserve(in.size());
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    QuerySet qset = t.qset;
    for (const PredGroup& g : groups_) {
      if (!qset.Intersects(g.queries)) continue;
      if (!g.pred.EvalBool(t.row)) qset = qset.Minus(g.queries);
    }
    if (qset.empty()) continue;
    out.emplace_back(t.row, qset, t.weight);
    work_.out += 1;
  }
  return out;
}

bool FilterOp::SupportsColumnar(int child_idx) const {
  return child_idx == 0 && columnar_ok_;
}

void FilterOp::ProcessColumnar(int child_idx, ColumnBatch in,
                               ColumnBatch* out) {
  CHECK_EQ(child_idx, 0);
  const int64_t n = in.num_rows();
  work_.in += static_cast<double>(in.num_selected());
  uint64_t* q = in.qbits.data();
  std::vector<uint8_t> mask;
  for (const PredGroup& g : groups_) {
    in.Lift(g.vpred.columns());
    g.vpred.EvalBoolMask(in.cols, n, &mask);
    const uint64_t gbits = g.queries.bits();
    const uint8_t* m = mask.data();
    // Clearing the bits of a non-intersecting query set is a no-op, so
    // the row path's Intersects() skip needs no branch here: clear gbits
    // exactly where the predicate fails.
    for (int64_t i = 0; i < n; ++i) {
      q[i] &= ~(gbits & (0 - static_cast<uint64_t>(m[i] == 0)));
    }
  }
  in.sel = CompactSelection(in);
  work_.out += static_cast<double>(in.num_selected());
  *out = std::move(in);
}

ProjectOp::ProjectOp(const PlanNode* node, const Schema& input_schema)
    : PhysOp(node) {
  exprs_.reserve(node->projections.size());
  vexprs_.reserve(node->projections.size());
  for (const NamedExpr& ne : node->projections) {
    exprs_.push_back(CompiledExpr::Compile(ne.expr, input_schema));
    vexprs_.push_back(VectorExpr::Compile(ne.expr, input_schema));
    columnar_ok_ = columnar_ok_ && vexprs_.back().supported();
  }
}

DeltaBatch ProjectOp::Process(int child_idx, DeltaSpan in) {
  CHECK_EQ(child_idx, 0);
  DeltaBatch out;
  out.reserve(in.size());
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    Row row;
    row.reserve(exprs_.size());
    for (const CompiledExpr& e : exprs_) row.push_back(e.Eval(t.row));
    out.emplace_back(std::move(row), t.qset, t.weight);
    work_.out += 1;
  }
  return out;
}

bool ProjectOp::SupportsColumnar(int child_idx) const {
  return child_idx == 0 && columnar_ok_;
}

void ProjectOp::ProcessColumnar(int child_idx, ColumnBatch in,
                                ColumnBatch* out) {
  CHECK_EQ(child_idx, 0);
  const int64_t n = in.num_rows();
  const double n_sel = static_cast<double>(in.num_selected());
  work_.in += n_sel;
  // New columns make a new batch: it has no source rows, so it lowers
  // from these columns (DESIGN.md §12.4).
  ColumnBatch res;
  res.cols.reserve(vexprs_.size());
  for (const VectorExpr& v : vexprs_) {
    in.Lift(v.columns());
    ColumnVector c;
    v.Eval(in.cols, n, &c);
    res.cols.push_back(std::move(c));
  }
  res.qbits = std::move(in.qbits);
  res.weights = std::move(in.weights);
  res.sel = std::move(in.sel);
  *out = std::move(res);
  work_.out += n_sel;
}

std::unique_ptr<PhysOp> CreatePhysOp(const PlanNode* node) {
  return CreatePhysOp(node, ExecOptions{});
}

std::unique_ptr<PhysOp> CreatePhysOp(const PlanNode* node,
                                     const ExecOptions& opts) {
  CHECK(node != nullptr);
  switch (node->kind) {
    case PlanKind::kScan:
      return std::make_unique<ScanOp>(node);
    case PlanKind::kSubplanInput:
      return std::make_unique<SubplanInputOp>(node);
    case PlanKind::kFilter:
      return std::make_unique<FilterOp>(node,
                                        node->children[0]->output_schema);
    case PlanKind::kProject:
      return std::make_unique<ProjectOp>(node,
                                         node->children[0]->output_schema);
    case PlanKind::kJoin:
      return std::make_unique<HashJoinOp>(node,
                                          node->children[0]->output_schema,
                                          node->children[1]->output_schema,
                                          opts.arrange);
    case PlanKind::kAggregate:
      return std::make_unique<AggregateOp>(node,
                                           node->children[0]->output_schema,
                                           opts.arrange);
  }
  CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace ishare
