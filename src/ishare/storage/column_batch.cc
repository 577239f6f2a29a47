#include "ishare/storage/column_batch.h"

namespace ishare {

bool ColumnBatch::Conforms(const Schema& schema, DeltaSpan rows) {
  const int nf = schema.num_fields();
  for (const DeltaTuple& t : rows) {
    if (static_cast<int>(t.row.size()) != nf) return false;
    // qbits is one raw u64 per row: a query set beyond the inline word
    // cannot be lifted, so the batch degrades to the row pump.
    if (!t.qset.fits_inline()) return false;
    for (int c = 0; c < nf; ++c) {
      if (t.row[static_cast<size_t>(c)].type() != schema.field(c).type) {
        return false;
      }
    }
  }
  return true;
}

void ColumnBatch::InitLanes(const Schema& schema, DeltaSpan rows,
                            Source source) {
  const int nf = schema.num_fields();
  const int64_t n = static_cast<int64_t>(rows.size());
  cols.clear();
  cols.reserve(static_cast<size_t>(nf));
  for (int c = 0; c < nf; ++c) cols.emplace_back(schema.field(c).type);
  qbits.clear();
  qbits.reserve(static_cast<size_t>(n));
  weights.clear();
  weights.reserve(static_cast<size_t>(n));
  for (const DeltaTuple& t : rows) {
    qbits.push_back(t.qset.bits());
    weights.push_back(t.weight);
  }
  sel = SelectionVector::All(n);
  source_ = source;
}

bool ColumnBatch::FromDeltas(const Schema& schema, DeltaSpan deltas,
                             ColumnBatch* out) {
  // Validate before building: any ill-typed value sends the caller back
  // to the row path with *out untouched work-wise.
  if (!Conforms(schema, deltas)) return false;
  *out = ColumnBatch{};
  out->InitLanes(schema, deltas, Source::kNone);
  const size_t nf = out->cols.size();
  for (ColumnVector& col : out->cols) {
    col.Reserve(static_cast<int64_t>(deltas.size()));
  }
  for (const DeltaTuple& t : deltas) {
    for (size_t c = 0; c < nf; ++c) out->cols[c].AppendValue(t.row[c]);
  }
  return true;
}

bool ColumnBatch::Borrow(const Schema& schema, DeltaSpan rows,
                         ColumnBatch* out) {
  if (!Conforms(schema, rows)) return false;
  *out = ColumnBatch{};
  out->InitLanes(schema, rows, Source::kBorrowed);
  out->borrowed_ = rows;
  return true;
}

bool ColumnBatch::Own(const Schema& schema, DeltaBatch&& rows,
                      ColumnBatch* out) {
  if (!Conforms(schema, rows)) return false;
  *out = ColumnBatch{};
  out->InitLanes(schema, rows, Source::kOwned);
  out->owned_ = std::move(rows);
  return true;
}

void ColumnBatch::Lift(int c) {
  if (lifted(c)) return;
  ColumnVector& col = cols[static_cast<size_t>(c)];
  const DeltaSpan rows = source_rows();
  col.Reserve(static_cast<int64_t>(rows.size()));
  for (const DeltaTuple& t : rows) {
    col.AppendValue(t.row[static_cast<size_t>(c)]);
  }
}

DeltaBatch ColumnBatch::ToDeltas() const& {
  DeltaBatch batch;
  batch.reserve(static_cast<size_t>(num_selected()));
  if (source_ != Source::kNone) {
    const DeltaSpan rows = source_rows();
    sel.ForEach([&](int32_t i) {
      batch.emplace_back(rows[static_cast<size_t>(i)].row,
                         QuerySet(qbits[static_cast<size_t>(i)]),
                         weights[static_cast<size_t>(i)]);
    });
    return batch;
  }
  const int nf = static_cast<int>(cols.size());
  sel.ForEach([&](int32_t i) {
    DeltaTuple t;
    t.row.reserve(static_cast<size_t>(nf));
    for (int c = 0; c < nf; ++c) {
      t.row.push_back(cols[static_cast<size_t>(c)].GetValue(i));
    }
    t.qset = QuerySet(qbits[static_cast<size_t>(i)]);
    t.weight = weights[static_cast<size_t>(i)];
    batch.push_back(std::move(t));
  });
  return batch;
}

DeltaBatch ColumnBatch::ToDeltas() && {
  if (source_ != Source::kOwned) return ToDeltas();
  DeltaBatch batch;
  batch.reserve(static_cast<size_t>(num_selected()));
  // The selection is strictly ascending, so each owned row moves once.
  sel.ForEach([&](int32_t i) {
    batch.emplace_back(std::move(owned_[static_cast<size_t>(i)].row),
                       QuerySet(qbits[static_cast<size_t>(i)]),
                       weights[static_cast<size_t>(i)]);
  });
  return batch;
}

}  // namespace ishare
