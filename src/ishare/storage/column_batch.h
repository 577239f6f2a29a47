// Columnar delta batches — the batch layout of the vectorized execution
// core (DESIGN.md §12.1). A ColumnBatch is the column-major twin of a
// DeltaBatch: one typed ColumnVector per schema field, plus flat qset-bit
// and weight arrays, plus a SelectionVector marking which rows are still
// live. Conversion at the row-shim boundary is lossless and
// order-preserving in both directions, which is what makes the
// columnar-vs-row bit-exactness gate (tests/columnar_test.cc) possible.
//
// The pump lifts lazily (DESIGN.md §12.4): a batch built by Borrow or Own
// keeps its source rows and materializes a typed column only when a
// kernel first asks for it with Lift(c). While no operator has replaced
// its columns, such a batch lowers by copying (or, when it owns them,
// moving) the selected source rows instead of rebuilding every row from
// the column arrays.

#ifndef ISHARE_STORAGE_COLUMN_BATCH_H_
#define ISHARE_STORAGE_COLUMN_BATCH_H_

#include <cstdint>
#include <vector>

#include "ishare/storage/delta.h"
#include "ishare/types/column.h"
#include "ishare/types/schema.h"
#include "ishare/types/selection.h"

namespace ishare {

// Column-major representation of a run of delta tuples. All columns,
// qbits, and weights have the same length (num_rows); sel indexes into
// that range and only selected rows are logically present. The batch
// owns its columns; kernels hand off whole batches, never aliased
// columns (ownership rules in DESIGN.md §12.4).
class ColumnBatch {
 public:
  // One column per field. On a batch with source rows (Borrow/Own), a
  // column holds nothing until Lift(c); kernels lift every column they
  // read. A kernel that computes new columns builds a new batch, which
  // has no source rows and whose columns are all materialized.
  std::vector<ColumnVector> cols;
  std::vector<uint64_t> qbits;    // QuerySet::bits() per row
  std::vector<int32_t> weights;   // multiplicity delta per row
  SelectionVector sel;

  int64_t num_rows() const { return static_cast<int64_t>(weights.size()); }
  int64_t num_selected() const { return sel.count(); }

  // Builds a column batch from row deltas, copying every column and
  // verifying every value's runtime type against `schema`. Returns false
  // (leaving *out unspecified) on any mismatch — the caller then stays on
  // the row path, so a type-sloppy source degrades performance, never
  // results. The result keeps no reference to `deltas`.
  static bool FromDeltas(const Schema& schema, DeltaSpan deltas,
                         ColumnBatch* out);

  // Same validation as FromDeltas, but columns are left unlifted and the
  // batch *borrows* `rows`: they must stay valid and unmodified for the
  // batch's lifetime. The pump borrows a leaf's zero-copy DeltaSpan,
  // which the buffer keeps valid for the whole execution (§12.4).
  static bool Borrow(const Schema& schema, DeltaSpan rows, ColumnBatch* out);

  // Same as Borrow, but the batch *owns* `rows`: they are moved in on
  // success and left untouched on failure, so the caller can still run
  // them down the row path. For rows held in a temporary.
  static bool Own(const Schema& schema, DeltaBatch&& rows, ColumnBatch* out);

  // Materializes column `c` from the source rows if it is not yet; a
  // no-op on a batch without source rows (every column is materialized).
  void Lift(int c);
  void Lift(const std::vector<int>& columns) {
    for (int c : columns) Lift(c);
  }
  // Lift(c) is the only writer of a source-backed batch's columns and
  // fills all num_rows() values at once, so a full column is a lifted one.
  bool lifted(int c) const {
    return source_ == Source::kNone ||
           cols[static_cast<size_t>(c)].size() == num_rows();
  }

  // Emits the selected rows, in selection (= input) order, as row deltas.
  // Exact inverse of FromDeltas restricted to the selection. A batch with
  // source rows copies them (with this batch's qbits and weights) instead
  // of reading the columns; the rvalue overload moves owned rows out.
  DeltaBatch ToDeltas() const&;
  DeltaBatch ToDeltas() &&;

 private:
  enum class Source : uint8_t { kNone, kBorrowed, kOwned };

  // Width, type and query-set validation shared by all three builders.
  static bool Conforms(const Schema& schema, DeltaSpan rows);
  // Sizes the lanes from `rows`, leaves every column empty and records
  // where the rows come from.
  void InitLanes(const Schema& schema, DeltaSpan rows, Source source);
  DeltaSpan source_rows() const {
    return source_ == Source::kOwned ? DeltaSpan(owned_) : borrowed_;
  }

  Source source_ = Source::kNone;
  DeltaSpan borrowed_;
  DeltaBatch owned_;
};

}  // namespace ishare

#endif  // ISHARE_STORAGE_COLUMN_BATCH_H_
