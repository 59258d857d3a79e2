#include "src/core/aggregate_exec.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/expr/analysis.h"

namespace idivm {

namespace {

// Casts a double aggregate value to the declared output column type.
Value CastNumeric(DataType type, double v) {
  if (type == DataType::kInt64) {
    return Value(static_cast<int64_t>(std::llround(v)));
  }
  return Value(v);
}

// The offset of `name` in `schema`, or a CorruptScriptError naming the
// step and what the column is for.
Status ResolveColumn(const AggregateStep& step, const Schema& schema,
                     const std::string& name, const char* what, size_t* out) {
  const std::optional<size_t> col = schema.FindColumn(name);
  if (!col.has_value()) {
    return CorruptScriptError(StrCat("γ-maintain ", step.node_name, ": no ",
                                     what, " column '", name, "'"));
  }
  *out = *col;
  return OkStatus();
}

}  // namespace

Status BindAggregateStep(const AggregateStep& step, const DeltaScript& script,
                         const Database& db, AggregateBindings* out) {
  const Schema& in = step.input_schema;
  std::vector<ColumnDef> key_cols;
  for (const std::string& g : step.group_by) {
    size_t col = 0;
    IDIVM_RETURN_IF_ERROR(ResolveColumn(step, in, g, "group-by", &col));
    out->group_cols.push_back(col);
    key_cols.push_back(in.column(col));
  }
  out->key_schema = Schema(key_cols);
  for (const AggSpec& spec : step.aggs) {
    AggregateBindings::Arg arg;
    if (spec.arg != nullptr && spec.arg->kind() == ExprKind::kColumn) {
      arg.kind = AggregateBindings::Arg::Kind::kColumn;
      IDIVM_RETURN_IF_ERROR(ResolveColumn(step, in, spec.arg->column_name(),
                                          "argument", &arg.col));
    } else if (spec.arg != nullptr) {
      const Status status = CheckExpr(spec.arg, in);
      if (!status.ok()) {
        return CorruptScriptError(StrCat("γ-maintain ", step.node_name,
                                         ": argument ", status.message()));
      }
      arg.kind = AggregateBindings::Arg::Kind::kExpr;
      arg.expr.emplace(spec.arg, in);
      out->has_expr_arg = true;
    }
    out->args.push_back(std::move(arg));
    size_t col = 0;
    IDIVM_RETURN_IF_ERROR(
        ResolveColumn(step, step.output_schema, spec.name, "output", &col));
    out->out_types.push_back(step.output_schema.column(col).type);
  }
  out->update = script.FindDiffSchema(step.out_update);
  out->insert = script.FindDiffSchema(step.out_insert);
  out->del = script.FindDiffSchema(step.out_delete);
  if (out->update == nullptr || out->insert == nullptr ||
      out->del == nullptr) {
    return CorruptScriptError(StrCat("γ-maintain ", step.node_name,
                                     ": aggregate output diffs not "
                                     "registered"));
  }
  if (step.mode == AggregateStep::Mode::kIncremental &&
      !step.opcache_table.empty()) {
    if (!db.HasTable(step.opcache_table)) {
      return CorruptScriptError(StrCat("γ-maintain ", step.node_name,
                                       ": no operator cache ",
                                       step.opcache_table));
    }
    const Schema& cache = db.GetTable(step.opcache_table).schema();
    for (const std::string& g : step.group_by) {
      size_t col = 0;
      IDIVM_RETURN_IF_ERROR(ResolveColumn(step, cache, g, "cache key", &col));
      out->opcache_key_cols.push_back(col);
    }
    for (const AggSpec& spec : step.aggs) {
      size_t sum = 0;
      size_t cnt = 0;
      IDIVM_RETURN_IF_ERROR(ResolveColumn(
          step, cache, StrCat("__sum_", spec.name), "cache", &sum));
      IDIVM_RETURN_IF_ERROR(ResolveColumn(
          step, cache, StrCat("__cnt_", spec.name), "cache", &cnt));
      out->opcache_sum_cols.push_back(sum);
      out->opcache_cnt_cols.push_back(cnt);
    }
    IDIVM_RETURN_IF_ERROR(ResolveColumn(step, cache, "__count", "cache",
                                        &out->opcache_count_col));
  }
  return OkStatus();
}

PlanPtr RecomputeProbePlan(const AggregateStep& step,
                           const std::string& keys_name,
                           const Schema& key_schema) {
  std::vector<ExprPtr> eqs;
  std::vector<ProjectItem> rename;
  for (const std::string& g : step.group_by) {
    rename.push_back({Col(g), StrCat("__k_", g)});
    eqs.push_back(Eq(Col(g), Col(StrCat("__k_", g))));
  }
  return PlanNode::SemiJoin(
      step.input_post_plan,
      PlanNode::Project(PlanNode::RelationRef(keys_name, key_schema), rename),
      ConjoinAll(eqs));
}

AggregateExecutor::AggregateExecutor(Database* db, EpochUndo* undo,
                                     const AggregateStep& step,
                                     const AggregateBindings& bindings,
                                     Relation* regs,
                                     const Relation* const* reg_ptrs,
                                     const EvalContext& ctx)
    : db_(db),
      undo_(undo),
      step_(step),
      b_(bindings),
      regs_(regs),
      reg_ptrs_(reg_ptrs),
      ctx_(ctx),
      key_(bindings.group_cols.size()),
      update_(bindings.update->relation_schema()),
      insert_(bindings.insert->relation_schema()),
      delete_(bindings.del->relation_schema()) {}

Status AggregateExecutor::Run() {
  // Sum deltas do not require row alignment: subtract all pre images, add
  // all post images.
  for (const AggregateBindings::Input& input : b_.inputs) {
    if (input.pre >= 0) Fold(regs_[input.pre], -1, false, &deltas_);
    if (input.post >= 0) Fold(regs_[input.post], +1, false, &deltas_);
  }
  if (step_.mode == AggregateStep::Mode::kIncremental) {
    if (!step_.opcache_table.empty()) {
      IDIVM_RETURN_IF_ERROR(RunIncrementalWithOpcache());
    } else {
      RunIncrementalDirect();
    }
  } else {
    // General recompute rule (Table 7). Affected groups: every group key
    // touched by any input image. The set may overestimate (keys whose net
    // change cancels); recomputing them is harmless.
    std::vector<Row>& keys = regs_[b_.keys].mutable_rows();
    for (const auto& [key, delta] : deltas_) keys.push_back(key);
    RecomputeGroups(EmitMode::kUpdateAndInsert);
  }
  regs_[b_.out_update] = std::move(update_);
  regs_[b_.out_insert] = std::move(insert_);
  regs_[b_.out_delete] = std::move(delete_);
  return OkStatus();
}

void AggregateExecutor::Fold(const Relation& rel, double sign, bool extremes,
                             GroupMap* groups) {
  const int64_t unit = sign > 0 ? 1 : -1;
  const size_t n_aggs = b_.args.size();
  for (const Row& row : rel.rows()) {
    for (size_t i = 0; i < key_.size(); ++i) key_[i] = row[b_.group_cols[i]];
    auto it = groups->find(key_);
    if (it == groups->end()) {
      it = groups->emplace(key_, GroupAcc{}).first;
      it->second.nonnull.resize(n_aggs, 0);
      it->second.sums.resize(n_aggs, 0);
      if (extremes) {
        it->second.mins.resize(n_aggs);
        it->second.maxs.resize(n_aggs);
      }
    }
    GroupAcc& g = it->second;
    g.rows += unit;
    for (size_t k = 0; k < n_aggs; ++k) {
      const AggregateBindings::Arg& arg = b_.args[k];
      const auto add = [&](const Value& v) {
        if (v.is_null()) return;
        g.nonnull[k] += unit;
        if (v.is_numeric()) g.sums[k] += sign * v.NumericAsDouble();
        if (!extremes) return;
        if (g.mins[k].is_null() || v.Compare(g.mins[k]) < 0) g.mins[k] = v;
        if (g.maxs[k].is_null() || v.Compare(g.maxs[k]) > 0) g.maxs[k] = v;
      };
      switch (arg.kind) {
        case AggregateBindings::Arg::Kind::kStar:
          g.nonnull[k] += unit;
          break;
        case AggregateBindings::Arg::Kind::kColumn:
          add(row[arg.col]);
          break;
        case AggregateBindings::Arg::Kind::kExpr:
          add(arg.expr->Eval(row));
          break;
      }
    }
  }
}

bool AggregateExecutor::DeltaIsZero(const GroupAcc& d) {
  if (d.rows != 0) return false;
  for (int64_t n : d.nonnull) {
    if (n != 0) return false;
  }
  for (double s : d.sums) {
    if (s != 0) return false;
  }
  return true;
}

Value AggregateExecutor::Finalize(size_t k, double sum, int64_t nonnull,
                                  int64_t rows) const {
  const AggSpec& spec = step_.aggs[k];
  switch (spec.func) {
    case AggFunc::kCount:
      return Value(spec.arg == nullptr ? rows : nonnull);
    case AggFunc::kSum:
      if (nonnull == 0) return Value::Null();
      return CastNumeric(b_.out_types[k], sum);
    case AggFunc::kAvg:
      if (nonnull == 0) return Value::Null();
      return Value(sum / static_cast<double>(nonnull));
    case AggFunc::kMin:
    case AggFunc::kMax:
      IDIVM_UNREACHABLE("min/max require recompute mode");
  }
  IDIVM_UNREACHABLE("bad AggFunc");
}

// ---- incremental, view updated additively (root γ, sum/count) ----
void AggregateExecutor::RunIncrementalDirect() {
  std::vector<Row>& need_recompute = regs_[b_.keys].mutable_rows();
  for (const auto& [key, delta] : deltas_) {
    if (DeltaIsZero(delta)) continue;
    if (delta.rows == 0) {
      // Pure value change: additive update diff (Tables 9/11).
      Row row = key;
      for (size_t k = 0; k < step_.aggs.size(); ++k) {
        const AggSpec& spec = step_.aggs[k];
        if (spec.func == AggFunc::kCount) {
          row.push_back(
              Value(spec.arg == nullptr ? int64_t{0} : delta.nonnull[k]));
        } else {  // SUM
          row.push_back(CastNumeric(b_.out_types[k], delta.sums[k]));
        }
      }
      update_.Append(std::move(row));
    } else {
      need_recompute.push_back(key);
    }
  }
  RecomputeGroups(EmitMode::kClassifiedDeleteInsert);
}

// ---- incremental with the SUM+COUNT operator cache (Table 12) ----
Status AggregateExecutor::RunIncrementalWithOpcache() {
  Table& opcache = db_->GetTable(step_.opcache_table);
  const std::vector<size_t>& sum_cols = b_.opcache_sum_cols;
  const std::vector<size_t>& cnt_cols = b_.opcache_cnt_cols;
  const size_t count_col = b_.opcache_count_col;
  // Index-maintenance hint: the mutator below writes only the sum/cnt/count
  // columns, never the group-key columns.
  std::vector<size_t> mutated_cols = sum_cols;
  mutated_cols.insert(mutated_cols.end(), cnt_cols.begin(), cnt_cols.end());
  mutated_cols.push_back(count_col);

  // One before-image region for the whole γ step; flushed on every exit
  // path (including the non-effective-diff error below) so the applied
  // prefix stays rollback-able.
  EpochUndoBatch undo(undo_, &opcache);
  std::vector<Row> pre_images;
  std::vector<Row> post_images;
  for (const auto& [key, delta] : deltas_) {
    if (DeltaIsZero(delta)) continue;
    Row post_image;
    pre_images.clear();
    post_images.clear();
    const bool capture = undo.active();
    const size_t touched = opcache.UpdateRowsWhereEquals(
        b_.opcache_key_cols, key,
        [&](Row& row) {
          for (size_t k = 0; k < step_.aggs.size(); ++k) {
            row[sum_cols[k]] =
                Value(row[sum_cols[k]].NumericAsDouble() + delta.sums[k]);
            row[cnt_cols[k]] =
                Value(row[cnt_cols[k]].AsInt64() + delta.nonnull[k]);
          }
          row[count_col] = Value(row[count_col].AsInt64() + delta.rows);
          post_image = row;
        },
        capture ? &pre_images : nullptr, capture ? &post_images : nullptr,
        /*mutated_columns=*/&mutated_cols);
    if (undo.active()) {
      for (size_t j = 0; j < pre_images.size(); ++j) {
        undo.Add(Modification{DiffType::kUpdate, pre_images[j],
                              post_images[j]});
      }
    }
    int64_t count_post;
    if (touched == 0) {
      if (delta.rows <= 0) {
        // A vanished group the opcache has never seen: the input diffs
        // violate the Section 2 effectiveness conditions.
        return ApplyConflictError(
            "negative delta for an unknown group — non-effective "
            "input diffs");
      }
      // New group: insert the opcache row.
      Row row = key;
      for (size_t k = 0; k < step_.aggs.size(); ++k) {
        row.push_back(Value(delta.sums[k]));
        row.push_back(Value(delta.nonnull[k]));
      }
      // Column order: group cols, then (sum, cnt) pairs, then __count —
      // matches the compose-time schema.
      row.push_back(Value(delta.rows));
      opcache.Insert(row);
      if (undo.active()) {
        undo.Add(Modification{DiffType::kInsert, Row(), row});
      }
      post_image = row;
      count_post = delta.rows;
    } else {
      count_post = post_image[count_col].AsInt64();
    }
    const int64_t count_pre = count_post - delta.rows;
    if (count_post == 0) {
      opcache.DeleteByKey(key);
      if (undo.active()) {
        undo.Add(Modification{DiffType::kDelete, post_image, Row()});
      }
      if (count_pre > 0) delete_.Append(key);
      continue;
    }
    // Final absolute values from the opcache row.
    Row row = key;
    for (size_t k = 0; k < step_.aggs.size(); ++k) {
      row.push_back(Finalize(k, post_image[sum_cols[k]].NumericAsDouble(),
                             post_image[cnt_cols[k]].AsInt64(), count_post));
    }
    if (count_pre == 0) {
      insert_.Append(std::move(row));
    } else {
      update_.Append(std::move(row));
    }
  }
  return OkStatus();
}

// Groups with no remaining rows become deletes; surviving groups are
// emitted per `mode`.
void AggregateExecutor::RecomputeGroups(EmitMode mode) {
  const std::vector<Row>& keys = regs_[b_.keys].rows();
  if (keys.empty()) return;
  // Group + recompute exactly (count rows, non-null counts, sums, min/max).
  GroupMap groups;
  Fold(RunPlan(b_.probe, ctx_, reg_ptrs_), +1, true, &groups);

  for (const Row& key : keys) {
    const auto it = groups.find(key);
    if (it == groups.end()) {
      // No remaining rows: the group disappears (delete is overestimated
      // for groups that never existed; harmless).
      delete_.Append(key);
      continue;
    }
    const GroupAcc& g = it->second;
    Row row = key;
    for (size_t k = 0; k < step_.aggs.size(); ++k) {
      switch (step_.aggs[k].func) {
        case AggFunc::kMin:
          row.push_back(g.mins[k]);
          break;
        case AggFunc::kMax:
          row.push_back(g.maxs[k]);
          break;
        default:
          row.push_back(Finalize(k, g.sums[k], g.nonnull[k], g.rows));
          break;
      }
    }
    if (mode == EmitMode::kUpdateAndInsert) {
      update_.Append(row);
      insert_.Append(std::move(row));
      continue;
    }
    const int64_t count_pre = g.rows - deltas_.at(key).rows;
    if (count_pre <= 0) {
      insert_.Append(std::move(row));
    } else {
      // The additive out_update schema cannot carry absolute values:
      // express the update as delete + re-insert (keys disjoint from the
      // purely-additive groups).
      delete_.Append(key);
      insert_.Append(std::move(row));
    }
  }
}

}  // namespace idivm
