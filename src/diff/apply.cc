#include "src/diff/apply.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/expr/expr.h"
#include "src/obs/metrics.h"

namespace idivm {

namespace {

// value + delta with SQL-ish NULL handling (NULL counts as 0).
Value AddValues(const Value& current, const Value& delta) {
  if (delta.is_null()) return current;
  if (current.is_null()) return delta;
  return expr_internal::EvalArith(ArithOp::kAdd, current, delta);
}

// A target-column lookup that reports a corrupt ∆-script instead of
// aborting: the diff's schema is externally reachable (loaded scripts), so
// a missing column is an input error, not an engine invariant.
Status FindColumnOr(const Schema& target_schema, const std::string& name,
                    const char* role, const DiffSchema& schema,
                    std::vector<size_t>* out) {
  std::optional<size_t> idx = target_schema.FindColumn(name);
  if (!idx.has_value()) {
    return CorruptScriptError(StrCat("diff for ", schema.target(), ": ",
                                     role, " column ", name, " missing"));
  }
  out->push_back(*idx);
  return OkStatus();
}

Status TryApplyUpdate(const DiffSchema& schema, const ApplyBinding& b,
                      const Relation& data, Table& target, ApplyResult* out,
                      ReturningImages* returning, EpochUndoBatch* undo) {
  const bool additive = schema.additive();
  const bool capture = returning != nullptr || undo->active();
  ApplyResult result;
  std::vector<Row> pre;
  std::vector<Row> post;
  for (const Row& row : data.rows()) {
    ++result.diff_tuples;
    const Row key = ProjectRow(row, b.diff_id_cols);
    const Row new_values = ProjectRow(row, b.diff_post_cols);
    pre.clear();
    post.clear();
    const size_t touched = target.UpdateRowsWhereEquals(
        b.match_cols, key,
        [&](Row& target_row) {
          for (size_t i = 0; i < b.set_cols.size(); ++i) {
            target_row[b.set_cols[i]] =
                additive ? AddValues(target_row[b.set_cols[i]], new_values[i])
                         : new_values[i];
          }
        },
        capture ? &pre : nullptr, capture ? &post : nullptr,
        /*mutated_columns=*/&b.set_cols);
    result.rows_touched += static_cast<int64_t>(touched);
    if (touched == 0) ++result.dummy_tuples;
    if (undo->active()) {
      for (size_t i = 0; i < pre.size(); ++i) {
        if (returning != nullptr) {
          undo->Add(Modification{DiffType::kUpdate, pre[i], post[i]});
        } else {  // the images exist only for undo: hand them over
          undo->Add(Modification{DiffType::kUpdate, std::move(pre[i]),
                                 std::move(post[i])});
        }
      }
    }
    if (returning != nullptr) {
      for (Row& r : pre) returning->pre_images.Append(std::move(r));
      for (Row& r : post) returning->post_images.Append(std::move(r));
    }
  }
  *out += result;
  return OkStatus();
}

Status TryApplyInsert(const DiffSchema& schema, const ApplyBinding& b,
                      const Relation& data, Table& target, ApplyResult* out,
                      ReturningImages* returning, EpochUndoBatch* undo) {
  ApplyResult result;
  for (const Row& row : data.rows()) {
    ++result.diff_tuples;
    Row target_row = ProjectRow(row, b.source_cols);
    // NOT-IN guard: multiple insert i-diffs may try to insert the same tuple.
    if (target.ContainsRow(target_row)) {
      ++result.dummy_tuples;
      continue;
    }
    if (returning != nullptr) returning->post_images.Append(target_row);
    Row undo_copy;
    if (undo->active()) undo_copy = target_row;
    const bool inserted = target.Insert(std::move(target_row));
    if (!inserted) {
      *out += result;
      return ApplyConflictError(
          StrCat("non-effective insert i-diff for ", schema.target(),
                 ": key exists with different attribute values"));
    }
    if (undo->active()) {
      undo->Add(Modification{DiffType::kInsert, Row(), std::move(undo_copy)});
    }
    ++result.rows_touched;
  }
  *out += result;
  return OkStatus();
}

Status TryApplyDelete(const ApplyBinding& b, const Relation& data,
                      Table& target, ApplyResult* out,
                      ReturningImages* returning, EpochUndoBatch* undo) {
  const bool capture = returning != nullptr || undo->active();
  ApplyResult result;
  std::vector<Row> pre;
  for (const Row& row : data.rows()) {
    ++result.diff_tuples;
    const Row key = ProjectRow(row, b.diff_id_cols);
    pre.clear();
    const size_t touched =
        target.DeleteWhereEquals(b.match_cols, key, capture ? &pre : nullptr);
    result.rows_touched += static_cast<int64_t>(touched);
    if (touched == 0) ++result.dummy_tuples;
    if (undo->active()) {
      for (Row& r : pre) {
        if (returning != nullptr) {
          undo->Add(Modification{DiffType::kDelete, r, Row()});
        } else {  // the image exists only for undo: hand it over
          undo->Add(Modification{DiffType::kDelete, std::move(r), Row()});
        }
      }
    }
    if (returning != nullptr) {
      for (Row& r : pre) returning->pre_images.Append(std::move(r));
    }
  }
  *out += result;
  return OkStatus();
}

}  // namespace

StatusOr<ApplyBinding> BindApply(const DiffSchema& schema,
                                 const Schema& target_schema) {
  const Schema& diff_rel = schema.relation_schema();
  ApplyBinding b;
  if (schema.type() == DiffType::kInsert) {
    // Each target column's source: its ID column, else its post column.
    for (const ColumnDef& col : target_schema.columns()) {
      std::optional<size_t> idx = diff_rel.FindColumn(col.name);
      if (!idx.has_value()) idx = diff_rel.FindColumn(PostName(col.name));
      if (!idx.has_value()) {
        return CorruptScriptError(StrCat("insert i-diff for ",
                                         schema.target(), " lacks column ",
                                         col.name));
      }
      b.source_cols.push_back(*idx);
    }
    return b;
  }
  // The diff's relation lays out Ī′, then Ā′__pre, then Ā″__post.
  const size_t post0 = schema.id_columns().size() +
                       schema.pre_columns().size();
  for (size_t i = 0; i < schema.id_columns().size(); ++i) {
    IDIVM_RETURN_IF_ERROR(FindColumnOr(target_schema, schema.id_columns()[i],
                                       "ID", schema, &b.match_cols));
    b.diff_id_cols.push_back(i);
  }
  for (size_t i = 0; i < schema.post_columns().size(); ++i) {
    IDIVM_RETURN_IF_ERROR(FindColumnOr(target_schema,
                                       schema.post_columns()[i], "SET",
                                       schema, &b.set_cols));
    b.diff_post_cols.push_back(post0 + i);
  }
  return b;
}

Status TryApplyDiff(const DiffSchema& schema, const ApplyBinding& binding,
                    const Relation& data, Table& target, ApplyResult* out,
                    ReturningImages* returning, EpochUndo* undo,
                    FaultInjector* fault) {
  const ApplyResult before = *out;
  Status status;
  {
    EpochUndoBatch batch(undo, &target);
    switch (schema.type()) {
      case DiffType::kUpdate:
        status = TryApplyUpdate(schema, binding, data, target, out, returning,
                                &batch);
        break;
      case DiffType::kInsert:
        status = TryApplyInsert(schema, binding, data, target, out, returning,
                                &batch);
        break;
      case DiffType::kDelete:
        status = TryApplyDelete(binding, data, target, out, returning, &batch);
        break;
    }
    // `batch` flushes here — before the flush fault site below, so a fault
    // fired at the batch boundary still leaves the applied rows undoable.
  }
  // Metrics count attempted apply work; a later epoch rollback does not
  // subtract it (docs/OBSERVABILITY.md). Bound on the first APPLY.
  static obs::Counter& diff_tuples =
      obs::GlobalCounter("idivm_apply_diff_tuples_total");
  static obs::Counter& rows_touched =
      obs::GlobalCounter("idivm_apply_rows_touched_total");
  static obs::Counter& dummy_tuples =
      obs::GlobalCounter("idivm_apply_dummy_tuples_total");
  diff_tuples.Increment(out->diff_tuples - before.diff_tuples);
  rows_touched.Increment(out->rows_touched - before.rows_touched);
  dummy_tuples.Increment(out->dummy_tuples - before.dummy_tuples);
  if (status.ok() && fault != nullptr) {
    IDIVM_RETURN_IF_ERROR(
        fault->Check(StrCat("apply-flush:", target.name())));
  }
  return status;
}

ApplyResult ApplyDiff(const DiffInstance& diff, Table& target,
                      ReturningImages* returning) {
  const StatusOr<ApplyBinding> binding =
      BindApply(diff.schema(), target.schema());
  IDIVM_CHECK(binding.ok(), binding.status().ToString());
  ApplyResult result;
  const Status status = TryApplyDiff(diff.schema(), binding.value(),
                                     diff.data(), target, &result, returning);
  IDIVM_CHECK(status.ok(), status.ToString());
  return result;
}

}  // namespace idivm
