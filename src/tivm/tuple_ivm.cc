#include "src/tivm/tuple_ivm.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>

#include "src/algebra/evaluator.h"
#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/id_inference.h"
#include "src/diff/apply.h"
#include "src/expr/analysis.h"

namespace idivm {

namespace {

// The transients an occurrence's affected rows and the recompute probe's
// group keys are bound as.
constexpr char kAffectedRef[] = "__tivm_aff";
constexpr char kKeysRef[] = "__keys";

// Shadow-column name for a (pre-value of) column.
std::string ShadowName(const std::string& col) { return "__told_" + col; }

// Replaces one scan occurrence with a transient relation, retags later
// occurrences of modified tables to pre-state, and wraps every ancestor of
// the substitution in a materialization barrier so the evaluator keeps the
// diff-driven index-nested-loop chain (cost |D|·a of Appendix A.1).
//
// When `shadow_attrs` is non-null, the transient relation additionally
// carries shadow columns ShadowName(attr) holding pre-state values; the
// transform threads them through every projection (computing shadow
// versions of items that reference shadowed columns), so one evaluation of
// the delta plan yields both post rows and their pre images. On return
// `shadow_map` (plan output column -> shadow column) describes the shadows
// surviving at the root.
PlanPtr TransformForDelta(const PlanPtr& plan, const PlanNode* target,
                          const std::string& ref_name,
                          const Schema& ref_schema,
                          const std::set<const PlanNode*>& pre_occurrences,
                          bool* contains_target,
                          const std::set<std::string>* shadow_attrs = nullptr,
                          std::map<std::string, std::string>* shadow_map =
                              nullptr) {
  if (plan->kind() == PlanKind::kScan) {
    if (plan.get() == target) {
      *contains_target = true;
      if (shadow_attrs != nullptr && shadow_map != nullptr) {
        for (const std::string& attr : *shadow_attrs) {
          (*shadow_map)[attr] = ShadowName(attr);
        }
      }
      return PlanNode::RelationRef(ref_name, ref_schema);
    }
    if (pre_occurrences.count(plan.get()) > 0) {
      return PlanNode::Scan(plan->table_name(), StateTag::kPre);
    }
    return plan;
  }
  std::vector<PlanPtr> children;
  bool contains = false;
  std::map<std::string, std::string> child_shadows;
  for (const PlanPtr& child : plan->children()) {
    bool child_contains = false;
    std::map<std::string, std::string> child_map;
    children.push_back(TransformForDelta(child, target, ref_name, ref_schema,
                                         pre_occurrences, &child_contains,
                                         shadow_attrs,
                                         shadow_map != nullptr ? &child_map
                                                               : nullptr));
    if (child_contains) child_shadows = std::move(child_map);
    contains |= child_contains;
  }
  PlanPtr rebuilt;
  switch (plan->kind()) {
    case PlanKind::kSelect:
      rebuilt = PlanNode::Select(children[0], plan->predicate());
      if (shadow_map != nullptr) *shadow_map = child_shadows;
      break;
    case PlanKind::kProject: {
      std::vector<ProjectItem> items = plan->project_items();
      if (shadow_map != nullptr && !child_shadows.empty()) {
        // Thread shadows through: each item referencing a shadowed column
        // gets a shadow twin computed over the pre values.
        for (const ProjectItem& item : plan->project_items()) {
          bool touches = false;
          for (const std::string& ref : ReferencedColumns(item.expr)) {
            if (child_shadows.count(ref) > 0) {
              touches = true;
              break;
            }
          }
          if (touches) {
            items.push_back({RenameColumns(item.expr, child_shadows),
                             ShadowName(item.name)});
            (*shadow_map)[item.name] = ShadowName(item.name);
          }
        }
      }
      rebuilt = PlanNode::Project(children[0], std::move(items));
      break;
    }
    case PlanKind::kJoin:
      rebuilt = PlanNode::Join(children[0], children[1], plan->predicate());
      if (shadow_map != nullptr) *shadow_map = child_shadows;
      break;
    case PlanKind::kSemiJoin:
      rebuilt = PlanNode::SemiJoin(children[0], children[1],
                                   plan->predicate());
      if (shadow_map != nullptr) *shadow_map = child_shadows;
      break;
    case PlanKind::kAntiSemiJoin:
      rebuilt = PlanNode::AntiSemiJoin(children[0], children[1],
                                       plan->predicate());
      if (shadow_map != nullptr) *shadow_map = child_shadows;
      break;
    case PlanKind::kUnionAll:
      // SupportsShadows() routes shadowed targets under a union to the
      // two-pass path, so no shadows can reach here.
      IDIVM_CHECK(shadow_map == nullptr || child_shadows.empty(),
                  "shadow single-pass cannot cross union all");
      rebuilt = PlanNode::UnionAll(children[0], children[1],
                                   plan->branch_column());
      break;
    case PlanKind::kAggregate:
      rebuilt = PlanNode::Aggregate(children[0], plan->group_by(),
                                    plan->aggregates());
      if (shadow_map != nullptr) *shadow_map = child_shadows;
      break;
    case PlanKind::kMaterialize:
      rebuilt = PlanNode::Materialize(children[0]);
      if (shadow_map != nullptr) *shadow_map = child_shadows;
      break;
    case PlanKind::kCoalesceProbe:
      IDIVM_UNREACHABLE("tuple-based plans contain no probe nodes");
    case PlanKind::kScan:
    case PlanKind::kRelationRef:
      IDIVM_UNREACHABLE("handled above");
  }
  if (contains) {
    *contains_target = true;
    rebuilt = PlanNode::Materialize(std::move(rebuilt));
  }
  return rebuilt;
}

// True when the path from `target` to the root only crosses operators the
// shadow transform supports (Join / Select / Project / Materialize, and the
// left side of semijoins).
bool SupportsShadows(const PlanPtr& plan, const PlanNode* target,
                     bool* contains) {
  if (plan->kind() == PlanKind::kScan) {
    *contains = plan.get() == target;
    return true;
  }
  bool ok = true;
  bool here = false;
  for (size_t c = 0; c < plan->children().size(); ++c) {
    bool child_contains = false;
    ok &= SupportsShadows(plan->child(c), target, &child_contains);
    if (child_contains) {
      here = true;
      switch (plan->kind()) {
        case PlanKind::kSelect:
        case PlanKind::kProject:
        case PlanKind::kJoin:
        case PlanKind::kMaterialize:
          break;
        case PlanKind::kSemiJoin:
        case PlanKind::kAntiSemiJoin:
          if (c != 0) ok = false;  // right side: membership-only role
          break;
        case PlanKind::kUnionAll:
          ok = false;  // branch schemas would diverge
          break;
        default:
          ok = false;
      }
    }
  }
  *contains = here;
  return ok;
}

Value CastNumeric(DataType type, double v) {
  if (type == DataType::kInt64) {
    return Value(static_cast<int64_t>(std::llround(v)));
  }
  return Value(v);
}

}  // namespace

TupleIvm::TupleIvm(Database* db, const std::string& view_name,
                   const PlanPtr& plan)
    : db_(db), view_name_(view_name) {
  IdAnnotatedPlan annotated = InferIds(plan, *db);
  plan_ = annotated.plan;
  view_ids_ = annotated.IdsOf(plan_.get());
  view_schema_ = InferSchema(plan_, *db);

  root_aggregate_ = plan_->kind() == PlanKind::kAggregate;
  spj_plan_ = root_aggregate_ ? plan_->child(0) : plan_;
  spj_ids_ = annotated.IdsOf(spj_plan_.get());
  spj_schema_ = InferSchema(spj_plan_, *db);
  scan_occurrences_ = CollectScans(spj_plan_);
  IDIVM_CHECK(CollectScans(spj_plan_).size() ==
                  CollectScans(plan_).size(),
              "tuple-based baseline supports aggregation only at the view "
              "root (the shape analyzed in Section 6.2)");
  // The rederivation D-script assumes each view row derives from exactly
  // one row of each relation (keyed SPJ views); existential operators break
  // that. The paper's baselines never contain them either.
  std::function<void(const PlanPtr&)> reject_existential =
      [&](const PlanPtr& node) {
        IDIVM_CHECK(node->kind() != PlanKind::kSemiJoin &&
                        node->kind() != PlanKind::kAntiSemiJoin,
                    "the tuple-based baseline supports SPJ(+γ) views only "
                    "(no semijoin/antisemijoin)");
        for (const PlanPtr& child : node->children()) {
          reject_existential(child);
        }
      };
  reject_existential(plan_);
  conditional_attrs_ = ConditionalAttributes(plan_, *db);
  for (const PlanNode* scan : scan_occurrences_) {
    bool contains = false;
    occurrence_supports_shadows_.push_back(
        SupportsShadows(spj_plan_, scan, &contains) && contains);
  }

  if (root_aggregate_) {
    std::vector<ColumnDef> cols;
    std::vector<ProjectItem> rename;
    std::vector<ExprPtr> eqs;
    for (const std::string& g : plan_->group_by()) {
      cols.push_back({g, spj_schema_.column(spj_schema_.ColumnIndex(g)).type});
      rename.push_back({Col(g), StrCat("__k_", g)});
      eqs.push_back(Eq(Col(g), Col(StrCat("__k_", g))));
    }
    key_schema_ = Schema(cols);
    recompute_probe_ = PlanNode::SemiJoin(
        spj_plan_,
        PlanNode::Project(PlanNode::RelationRef(kKeysRef, key_schema_),
                          rename),
        ConjoinAll(eqs));
  }

  Table& view = db_->CreateTable(view_name_, view_schema_, view_ids_);
  EvalContext ctx;
  ctx.db = db_;
  view.BulkLoadUncounted(Evaluate(plan_, ctx));

  // Build what an epoch probes now, outside its timed phases: each
  // occurrence's delta plan, with every later occurrence in pre-state (the
  // leaves' states do not change the probe columns), and the recompute
  // probe. The view's t-diffs apply through its primary key.
  PreStateIndexes pre_state;
  for (size_t i = 0; i < scan_occurrences_.size(); ++i) {
    const PlanNode* scan = scan_occurrences_[i];
    const Relation affected(db_->GetTable(scan->table_name()).schema());
    ctx.transient[kAffectedRef] = &affected;
    const std::set<const PlanNode*> later(scan_occurrences_.begin() + i + 1,
                                          scan_occurrences_.end());
    bool contains = false;
    EnsureProbedIndexes(TransformForDelta(spj_plan_, scan, kAffectedRef,
                                          affected.schema(), later, &contains),
                        ctx, &pre_state);
  }
  if (root_aggregate_) {
    const Relation keys(key_schema_);
    ctx.transient[kKeysRef] = &keys;
    EnsureProbedIndexes(recompute_probe_, ctx, &pre_state);
  }
  pre_state_ = MakePreStateTables(db_, pre_state);
  db_->stats().Reset();
}

void TupleIvm::RederiveForOccurrence(
    size_t occurrence,
    const std::map<std::string, std::vector<Modification>>& net_changes,
    const std::map<std::string, Table*>& pre_state, Relation* out_pre,
    Relation* out_post) {
  const PlanNode* target = scan_occurrences_[occurrence];
  const Table& table = db_->GetTable(target->table_name());
  const auto it = net_changes.find(target->table_name());
  IDIVM_CHECK(it != net_changes.end());

  *out_pre = Relation(spj_schema_);
  *out_post = Relation(spj_schema_);

  // Split modifications: non-conditional updates go through the single-pass
  // shadow plan (the paper's one-query D-script, Q_D of Fig. 2); inserts,
  // deletes and condition-affecting updates need two mixed-state passes.
  const std::set<std::string>* cond = nullptr;
  const auto cond_it = conditional_attrs_.find(target->table_name());
  if (cond_it != conditional_attrs_.end()) cond = &cond_it->second;

  std::vector<const Modification*> two_pass;
  std::vector<const Modification*> single_pass;
  std::set<std::string> shadow_attrs;
  for (const Modification& mod : it->second) {
    if (mod.kind == DiffType::kUpdate &&
        occurrence_supports_shadows_[occurrence]) {
      std::set<std::string> changed;
      for (size_t i = 0; i < table.schema().num_columns(); ++i) {
        if (mod.pre[i].Compare(mod.post[i]) != 0) {
          changed.insert(table.schema().column(i).name);
        }
      }
      bool conditional = false;
      if (cond != nullptr) {
        for (const std::string& attr : changed) {
          if (cond->count(attr) > 0) conditional = true;
        }
      }
      if (!conditional) {
        single_pass.push_back(&mod);
        shadow_attrs.insert(changed.begin(), changed.end());
        continue;
      }
    }
    two_pass.push_back(&mod);
  }

  // Later occurrences of modified tables read the pre-state.
  std::set<const PlanNode*> pre_occurrences;
  for (size_t j = occurrence + 1; j < scan_occurrences_.size(); ++j) {
    if (net_changes.count(scan_occurrences_[j]->table_name()) > 0) {
      pre_occurrences.insert(scan_occurrences_[j]);
    }
  }

  EvalContext ctx;
  ctx.db = db_;
  ctx.pre_state = &pre_state;

  if (!two_pass.empty()) {
    Relation aff_pre(table.schema());
    Relation aff_post(table.schema());
    for (const Modification* mod : two_pass) {
      if (mod->kind != DiffType::kInsert) aff_pre.Append(mod->pre);
      if (mod->kind != DiffType::kDelete) aff_post.Append(mod->post);
    }
    bool contains = false;
    PlanPtr delta_plan =
        TransformForDelta(spj_plan_, target, kAffectedRef, table.schema(),
                          pre_occurrences, &contains);
    IDIVM_CHECK(contains, "scan occurrence not found in plan");
    ctx.transient[kAffectedRef] = &aff_pre;
    Relation pre_result = Evaluate(delta_plan, ctx);
    for (Row& row : pre_result.mutable_rows()) {
      out_pre->Append(std::move(row));
    }
    ctx.transient[kAffectedRef] = &aff_post;
    Relation post_result = Evaluate(delta_plan, ctx);
    for (Row& row : post_result.mutable_rows()) {
      out_post->Append(std::move(row));
    }
  }

  if (!single_pass.empty()) {
    // Affected post rows extended with shadow pre-value columns.
    Schema shadow_schema = table.schema();
    std::vector<size_t> shadow_source;
    {
      std::vector<ColumnDef> extra;
      for (const std::string& attr : shadow_attrs) {
        const size_t idx = table.schema().ColumnIndex(attr);
        extra.push_back({ShadowName(attr), table.schema().column(idx).type});
        shadow_source.push_back(idx);
      }
      shadow_schema = table.schema().Extend(extra);
    }
    Relation aff(shadow_schema);
    for (const Modification* mod : single_pass) {
      Row row = mod->post;
      for (size_t src : shadow_source) row.push_back(mod->pre[src]);
      aff.Append(std::move(row));
    }
    bool contains = false;
    std::map<std::string, std::string> shadow_map;
    PlanPtr delta_plan = TransformForDelta(
        spj_plan_, target, kAffectedRef, shadow_schema, pre_occurrences,
        &contains, &shadow_attrs, &shadow_map);
    IDIVM_CHECK(contains, "scan occurrence not found in plan");
    ctx.transient[kAffectedRef] = &aff;
    const Relation rows = Evaluate(delta_plan, ctx);
    // Split each row into its post image (plain columns) and pre image
    // (shadow columns substituted where present).
    const Schema& rs = rows.schema();
    std::vector<size_t> post_cols;
    std::vector<size_t> pre_cols;
    for (const ColumnDef& col : spj_schema_.columns()) {
      const size_t plain = rs.ColumnIndex(col.name);
      post_cols.push_back(plain);
      const auto sh = shadow_map.find(col.name);
      pre_cols.push_back(sh != shadow_map.end()
                             ? rs.ColumnIndex(sh->second)
                             : plain);
    }
    for (const Row& row : rows.rows()) {
      out_post->Append(ProjectRow(row, post_cols));
      out_pre->Append(ProjectRow(row, pre_cols));
    }
  }
}

MaintainResult TupleIvm::Maintain(
    const std::map<std::string, std::vector<Modification>>& net_changes) {
  MaintainResult result;
  Table& view = db_->GetTable(view_name_);

  // Pre-state reconstruction for the modified tables the mixed-state
  // passes read.
  const std::map<std::string, Table*> pre_state =
      LoadPreState(*db_, net_changes, &pre_state_);

  auto timed = [&](PhaseCost* cost, const auto& fn) {
    const AccessStats before = db_->stats();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    cost->accesses += db_->stats() - before;
    cost->seconds += std::chrono::duration<double>(t1 - t0).count();
  };
  const auto apply = [&](const DiffInstance& diff) {
    const ApplyResult applied = ApplyDiff(diff, view);
    result.diff_tuples_applied += applied.diff_tuples;
    result.rows_touched += applied.rows_touched;
    result.dummy_tuples += applied.dummy_tuples;
  };

  const std::vector<size_t> spj_id_cols = spj_schema_.ColumnIndices(spj_ids_);

  // Accumulated SPJ-level changes (for the root aggregate), or per-table
  // immediate application (plain SPJ views).
  std::vector<std::pair<Relation, Relation>> spj_changes;

  for (size_t i = 0; i < scan_occurrences_.size(); ++i) {
    if (net_changes.count(scan_occurrences_[i]->table_name()) == 0) continue;
    Relation pre_rows;
    Relation post_rows;
    timed(&result.diff_computation, [&] {
      RederiveForOccurrence(i, net_changes, pre_state, &pre_rows, &post_rows);
    });

    if (root_aggregate_) {
      spj_changes.emplace_back(std::move(pre_rows), std::move(post_rows));
      continue;
    }

    // Plain SPJ view: keyed comparison -> t-diffs -> apply.
    timed(&result.view_update, [&] {
      std::map<Row, Row, RowLess> pre_by_key;
      std::map<Row, Row, RowLess> post_by_key;
      for (const Row& row : pre_rows.rows()) {
        pre_by_key[ProjectRow(row, spj_id_cols)] = row;
      }
      for (const Row& row : post_rows.rows()) {
        post_by_key[ProjectRow(row, spj_id_cols)] = row;
      }
      std::vector<std::string> non_ids;
      for (const ColumnDef& col : view_schema_.columns()) {
        if (std::find(view_ids_.begin(), view_ids_.end(), col.name) ==
            view_ids_.end()) {
          non_ids.push_back(col.name);
        }
      }
      // Deletes.
      DiffSchema del_schema(DiffType::kDelete, view_name_, view_schema_,
                            view_ids_, {}, {});
      DiffInstance deletes(del_schema);
      for (const auto& [key, row] : pre_by_key) {
        if (post_by_key.count(key) == 0) deletes.Append(key);
      }
      // Updates (full-width t-diffs: every non-ID attribute).
      DiffSchema upd_schema(DiffType::kUpdate, view_name_, view_schema_,
                            view_ids_, {}, non_ids);
      DiffInstance updates(upd_schema);
      const std::vector<size_t> non_id_cols =
          view_schema_.ColumnIndices(non_ids);
      for (const auto& [key, post_row] : post_by_key) {
        const auto pre = pre_by_key.find(key);
        if (pre == pre_by_key.end()) continue;
        if (CompareRows(pre->second, post_row) == 0) continue;
        Row diff_row = key;
        for (size_t c : non_id_cols) diff_row.push_back(post_row[c]);
        updates.Append(std::move(diff_row));
      }
      // Inserts.
      DiffSchema ins_schema(DiffType::kInsert, view_name_, view_schema_,
                            view_ids_, {}, non_ids);
      DiffInstance inserts(ins_schema);
      for (const auto& [key, post_row] : post_by_key) {
        if (pre_by_key.count(key) > 0) continue;
        Row diff_row = key;
        for (size_t c : non_id_cols) diff_row.push_back(post_row[c]);
        inserts.Append(std::move(diff_row));
      }
      for (const DiffInstance* diff : {&deletes, &updates, &inserts}) {
        apply(*diff);
      }
    });
  }

  if (!root_aggregate_) return result;

  // ---- root aggregate: fold SPJ changes into per-group deltas ----
  const std::vector<std::string>& group_by = plan_->group_by();
  const std::vector<AggSpec>& aggs = plan_->aggregates();
  const std::vector<size_t> group_cols = spj_schema_.ColumnIndices(group_by);
  std::vector<std::optional<BoundExpr>> args;
  for (const AggSpec& spec : aggs) {
    if (spec.arg != nullptr) {
      args.emplace_back(BoundExpr(spec.arg, spj_schema_));
    } else {
      args.emplace_back(std::nullopt);
    }
  }
  bool associative_only = true;
  for (const AggSpec& spec : aggs) {
    if (spec.func != AggFunc::kSum && spec.func != AggFunc::kCount) {
      associative_only = false;
    }
  }

  struct GroupDelta {
    std::vector<double> sum;
    std::vector<int64_t> nonnull;
    int64_t rows = 0;
  };
  std::map<Row, GroupDelta, RowLess> deltas;
  timed(&result.diff_computation, [&] {
    auto contribute = [&](const Row& row, int sign) {
      Row key = ProjectRow(row, group_cols);
      GroupDelta& d = deltas[key];
      if (d.sum.empty()) {
        d.sum.resize(aggs.size(), 0);
        d.nonnull.resize(aggs.size(), 0);
      }
      d.rows += sign;
      for (size_t k = 0; k < aggs.size(); ++k) {
        if (!args[k].has_value()) {
          d.nonnull[k] += sign;
          continue;
        }
        const Value v = args[k]->Eval(row);
        if (v.is_null()) continue;
        d.nonnull[k] += sign;
        if (v.is_numeric()) d.sum[k] += sign * v.NumericAsDouble();
      }
    };
    for (const auto& [pre_rows, post_rows] : spj_changes) {
      for (const Row& row : pre_rows.rows()) contribute(row, -1);
      for (const Row& row : post_rows.rows()) contribute(row, +1);
    }
  });

  // Additive updates for value-only changes; recompute for everything else.
  std::vector<std::string> agg_names;
  for (const AggSpec& spec : aggs) agg_names.push_back(spec.name);
  DiffSchema additive_schema(DiffType::kUpdate, view_name_, view_schema_,
                             group_by, {}, agg_names, /*additive=*/true);
  DiffInstance additive(additive_schema);
  std::vector<Row> recompute_keys;
  for (const auto& [key, d] : deltas) {
    bool zero = d.rows == 0;
    for (int64_t n : d.nonnull) zero &= n == 0;
    for (double s : d.sum) zero &= s == 0;
    if (zero) continue;
    if (associative_only && d.rows == 0) {
      Row row = key;
      for (size_t k = 0; k < aggs.size(); ++k) {
        const DataType type =
            view_schema_.column(view_schema_.ColumnIndex(aggs[k].name)).type;
        if (aggs[k].func == AggFunc::kCount) {
          row.push_back(
              Value(aggs[k].arg == nullptr ? int64_t{0} : d.nonnull[k]));
        } else {
          row.push_back(CastNumeric(type, d.sum[k]));
        }
      }
      additive.Append(std::move(row));
    } else {
      recompute_keys.push_back(key);
    }
  }

  timed(&result.view_update, [&] { apply(additive); });

  if (!recompute_keys.empty()) {
    // Recompute affected groups from base data (no cache for tuple-based).
    Relation recomputed;
    timed(&result.diff_computation, [&] {
      const Relation key_rel(key_schema_, recompute_keys);
      EvalContext ctx;
      ctx.db = db_;
      ctx.transient[kKeysRef] = &key_rel;
      Relation rows = Evaluate(recompute_probe_, ctx);
      PlanPtr agg = PlanNode::Aggregate(
          PlanNode::RelationRef("__rows", rows.schema()), group_by, aggs);
      ctx.transient["__rows"] = &rows;
      recomputed = Evaluate(agg, ctx);
    });
    timed(&result.view_update, [&] {
      std::set<Row, RowLess> still_present;
      std::vector<std::string> non_ids = agg_names;
      DiffSchema upd(DiffType::kUpdate, view_name_, view_schema_, group_by,
                     {}, non_ids);
      DiffInstance updates(upd);
      DiffSchema ins(DiffType::kInsert, view_name_, view_schema_, group_by,
                     {}, non_ids);
      DiffInstance inserts(ins);
      const std::vector<size_t> out_group_cols =
          recomputed.schema().ColumnIndices(group_by);
      for (const Row& row : recomputed.rows()) {
        still_present.insert(ProjectRow(row, out_group_cols));
        // Updates and inserts carry the same content; the NOT-IN guard and
        // update-before-insert ordering sort out which applies.
        updates.Append(row);
        inserts.Append(row);
      }
      DiffSchema del(DiffType::kDelete, view_name_, view_schema_, group_by,
                     {}, {});
      DiffInstance deletes(del);
      for (const Row& key : recompute_keys) {
        if (still_present.count(key) == 0) deletes.Append(key);
      }
      for (const DiffInstance* diff : {&deletes, &updates, &inserts}) {
        apply(*diff);
      }
    });
  }
  return result;
}

}  // namespace idivm
