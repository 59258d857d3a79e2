#include "src/algebra/physical_plan.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/expr/analysis.h"

namespace idivm {
namespace {

bool RowKeyHasNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

// ---- Probe planning ---------------------------------------------------------
//
// A plan subtree is "probeable" on a set of output columns when keyed lookups
// can be served by stored hash indexes at its Scan leaves, with selections,
// column-renaming projections and *chained joins* applied on the way out: a
// probe into Join(A, B) on columns of A probes A, then probes B per result
// row through the join's equi condition — exactly the chained diff-driven
// index-nested-loop plan the Section 6 analysis assumes over R1, ..., Rn.

// How a join decomposes for probing from `columns` (all from one side).
struct JoinProbePlan {
  size_t first = 0;  // child index probed with the incoming key
  std::vector<std::string> first_link_cols;   // equi cols on `first` side
  std::vector<std::string> second_link_cols;  // matching cols on other side
  ExprPtr residual;
};

bool PlanJoinProbe(const PlanNode& join, const Schema& left_schema,
                   const Schema& right_schema,
                   const std::vector<std::string>& columns,
                   JoinProbePlan* out) {
  const std::set<std::string> left_cols = left_schema.ColumnNameSet();
  const std::set<std::string> right_cols = right_schema.ColumnNameSet();
  bool all_left = true;
  bool all_right = true;
  for (const std::string& col : columns) {
    all_left &= left_cols.count(col) > 0;
    all_right &= right_cols.count(col) > 0;
  }
  if (!all_left && !all_right) return false;
  std::vector<std::pair<std::string, std::string>> equi;
  const std::vector<ExprPtr> residual_conjuncts =
      ExtractEquiPairs(join.predicate(), left_cols, right_cols, &equi);
  if (equi.empty()) return false;
  out->first = all_left ? 0 : 1;
  out->first_link_cols.clear();
  out->second_link_cols.clear();
  for (const auto& [l, r] : equi) {
    if (all_left) {
      out->first_link_cols.push_back(l);
      out->second_link_cols.push_back(r);
    } else {
      out->first_link_cols.push_back(r);
      out->second_link_cols.push_back(l);
    }
  }
  out->residual = ConjoinAll(residual_conjuncts);
  return true;
}

bool CheckProbeable(const PlanPtr& plan,
                    const std::vector<std::string>& columns,
                    const Database& db) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return true;  // any columns: the index is built when compiled
    case PlanKind::kSelect:
      return CheckProbeable(plan->child(0), columns, db);
    case PlanKind::kProject: {
      std::vector<std::string> inner;
      inner.reserve(columns.size());
      for (const std::string& name : columns) {
        const ProjectItem* found = nullptr;
        for (const ProjectItem& item : plan->project_items()) {
          if (item.name == name) {
            found = &item;
            break;
          }
        }
        if (found == nullptr || found->expr->kind() != ExprKind::kColumn) {
          return false;  // probe column is computed, not a rename
        }
        inner.push_back(found->expr->column_name());
      }
      return CheckProbeable(plan->child(0), inner, db);
    }
    case PlanKind::kJoin: {
      JoinProbePlan probe;
      const Schema left_schema = InferSchema(plan->child(0), db);
      const Schema right_schema = InferSchema(plan->child(1), db);
      if (!PlanJoinProbe(*plan, left_schema, right_schema, columns, &probe)) {
        return false;
      }
      return CheckProbeable(plan->child(probe.first), columns, db) &&
             CheckProbeable(plan->child(1 - probe.first),
                            probe.second_link_cols, db);
    }
    case PlanKind::kCoalesceProbe:
      return CheckProbeable(plan->child(0), columns, db) &&
             CheckProbeable(plan->child(1), columns, db);
    default:
      return false;
  }
}

// A subset of the equi-key positions on which `target` can serve keyed
// probes, largest first (fewest residual checks); empty when none works. A
// multi-component key may span several base relations of a subview;
// probing on one component and filtering the rest reproduces the DBMS's
// index choice.
std::vector<size_t> FindProbeableKeySubset(
    const PlanPtr& target, const std::vector<std::string>& target_cols,
    const Database& db) {
  const size_t n = target_cols.size();
  if (n == 0 || n > 10) return {};
  std::vector<std::vector<size_t>> candidates;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<size_t> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(i);
    }
    candidates.push_back(std::move(subset));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  for (const std::vector<size_t>& subset : candidates) {
    std::vector<std::string> cols;
    for (size_t i : subset) cols.push_back(target_cols[i]);
    if (CheckProbeable(target, cols, db)) return subset;
  }
  return {};
}

// ---- Lowering ---------------------------------------------------------------

class Lowering {
 public:
  Lowering(const Database& db, const RefBinder& bind, PhysicalPlan* out)
      : db_(db), bind_(bind), out_(out) {}

  // The first ref that did not bind; the plan itself has passed
  // TryInferSchema, so nothing else in it can fail to bind.
  const Status& status() const { return status_; }

  int Plan(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kScan: {
        PlanOp op;
        op.kind = PlanOp::Kind::kScan;
        op.table_id = InternTable(plan->table_name());
        op.pre_state = plan->state() == StateTag::kPre;
        op.out_schema = InferSchema(plan, db_);
        return Add(std::move(op));
      }
      case PlanKind::kRelationRef: {
        PlanOp op;
        if (plan->ref_name().rfind("__empty", 0) == 0) {
          op.kind = PlanOp::Kind::kEmptyRef;
          op.out_schema = plan->ref_schema();
          return Add(std::move(op));
        }
        op.kind = PlanOp::Kind::kSlotRef;
        op.slot = bind_(*plan, &op.out_schema);
        if (op.slot < 0) {
          // Lower the rest against the ref's own columns, which
          // TryInferSchema checked the plan with; the plan is discarded.
          op.out_schema = plan->ref_schema();
          if (status_.ok()) {
            status_ = CorruptScriptError(
                StrCat("unbound relation ref: ", plan->ref_name(),
                       " (or bound with other columns than ",
                       plan->ref_schema().ToString(), ")"));
          }
        }
        return Add(std::move(op));
      }
      case PlanKind::kSelect: {
        PlanOp op;
        op.kind = PlanOp::Kind::kSelect;
        op.child0 = Plan(plan->child(0));
        op.out_schema = out_->ops[op.child0].out_schema;
        op.pred.emplace(plan->predicate(), op.out_schema);
        return Add(std::move(op));
      }
      case PlanKind::kProject: {
        PlanOp op;
        const PlanPtr& child = plan->child(0);
        const bool fused = child->kind() == PlanKind::kSelect;
        op.kind = fused ? PlanOp::Kind::kFilterProject
                        : PlanOp::Kind::kProject;
        op.child0 = Plan(fused ? child->child(0) : child);
        const Schema& in = out_->ops[op.child0].out_schema;
        if (fused) op.pred.emplace(child->predicate(), in);
        for (const ProjectItem& item : plan->project_items()) {
          op.exprs.emplace_back(item.expr, in);
        }
        op.out_schema = InferSchema(plan, db_);
        return Add(std::move(op));
      }
      case PlanKind::kJoin:
        return Join(plan);
      case PlanKind::kSemiJoin:
        return Semi(plan, /*anti=*/false);
      case PlanKind::kAntiSemiJoin:
        return Semi(plan, /*anti=*/true);
      case PlanKind::kUnionAll: {
        PlanOp op;
        op.kind = PlanOp::Kind::kUnionAll;
        op.child0 = Plan(plan->child(0));
        op.child1 = Plan(plan->child(1));
        op.out_schema = InferSchema(plan, db_);
        return Add(std::move(op));
      }
      case PlanKind::kAggregate: {
        PlanOp op;
        op.kind = PlanOp::Kind::kAggregate;
        op.child0 = Plan(plan->child(0));
        const Schema& in = out_->ops[op.child0].out_schema;
        op.group_cols = in.ColumnIndices(plan->group_by());
        for (const AggSpec& agg : plan->aggregates()) {
          if (agg.arg != nullptr) {
            op.agg_args.emplace_back(BoundExpr(agg.arg, in));
          } else {
            op.agg_args.emplace_back(std::nullopt);
          }
        }
        op.out_schema = InferSchema(plan, db_);
        op.plan = plan;
        return Add(std::move(op));
      }
      case PlanKind::kMaterialize:
        return Plan(plan->child(0));
      case PlanKind::kCoalesceProbe:
        // As a full relation the node means its base-truth fallback.
        return Plan(plan->child(1));
    }
    IDIVM_UNREACHABLE("bad PlanKind");
  }

 private:
  int InternTable(const std::string& name) {
    const auto it = table_index_.find(name);
    if (it != table_index_.end()) return it->second;
    const int id = static_cast<int>(out_->tables.size());
    out_->tables.push_back(name);
    table_index_.emplace(name, id);
    return id;
  }

  int Add(PlanOp op) {
    out_->ops.push_back(std::move(op));
    return static_cast<int>(out_->ops.size()) - 1;
  }

  int AddProbe(ProbeOp op) {
    out_->probes.push_back(std::move(op));
    return static_cast<int>(out_->probes.size()) - 1;
  }

  // A ⋈/⋉/⋉̄ predicate split into equi-key pairs and a residual; every
  // strategy starts from it.
  struct EquiSplit {
    std::vector<std::string> left_keys;
    std::vector<std::string> right_keys;
    ExprPtr residual;
  };
  EquiSplit SplitPredicate(const PlanPtr& plan, const Schema& left_schema,
                           const Schema& right_schema) {
    std::vector<std::pair<std::string, std::string>> equi;
    const std::vector<ExprPtr> residual_conjuncts = ExtractEquiPairs(
        plan->predicate(), left_schema.ColumnNameSet(),
        right_schema.ColumnNameSet(), &equi);
    EquiSplit split;
    split.residual = ConjoinAll(residual_conjuncts);
    for (const auto& [l, r] : equi) {
      split.left_keys.push_back(l);
      split.right_keys.push_back(r);
    }
    return split;
  }

  // Tries to serve `stored` by keyed probes driven from the other side's
  // equi-key offsets `driver_keys`; on success fills the op's probe fields.
  bool TryProbe(const PlanPtr& stored,
                const std::vector<std::string>& stored_keys,
                const std::vector<size_t>& driver_keys, PlanOp* op) {
    const std::vector<size_t> subset =
        FindProbeableKeySubset(stored, stored_keys, db_);
    if (subset.empty()) return false;
    std::vector<std::string> probe_cols;
    for (size_t i = 0, next = 0; i < stored_keys.size(); ++i) {
      if (next < subset.size() && subset[next] == i) {
        probe_cols.push_back(stored_keys[i]);
        op->probe_key_cols.push_back(driver_keys[i]);
        ++next;
      } else {
        op->unprobed_keys.push_back(i);
      }
    }
    op->probe_root = Probe(stored, probe_cols);
    return true;
  }

  int Join(const PlanPtr& plan) {
    const PlanPtr& left = plan->child(0);
    const PlanPtr& right = plan->child(1);
    const Schema left_schema = InferSchema(left, db_);
    const Schema right_schema = InferSchema(right, db_);
    const EquiSplit split = SplitPredicate(plan, left_schema, right_schema);

    PlanOp op;
    op.out_schema = left_schema.Extend(right_schema.columns());
    op.left_ncols = left_schema.num_columns();
    op.transient_first =
        IsTransientOnly(left) ? 0 : IsTransientOnly(right) ? 1 : 2;
    if (split.left_keys.empty()) {
      op.kind = PlanOp::Kind::kJoinNl;
      op.pred.emplace(plan->predicate(), op.out_schema);
      op.child0 = Plan(left);
      op.child1 = Plan(right);
      return Add(std::move(op));
    }
    op.lk_all = left_schema.ColumnIndices(split.left_keys);
    op.rk_all = right_schema.ColumnIndices(split.right_keys);
    op.residual.emplace(split.residual, op.out_schema);
    // The diff-driven loop plan: probe the stored side once per distinct
    // key of the transient side.
    if (IsTransientOnly(left) &&
        TryProbe(right, split.right_keys, op.lk_all, &op)) {
      op.kind = PlanOp::Kind::kJoinProbe;
      op.transient_first = 0;  // left drives
      op.child0 = Plan(left);
      return Add(std::move(op));
    }
    if (IsTransientOnly(right) &&
        TryProbe(left, split.left_keys, op.rk_all, &op)) {
      op.kind = PlanOp::Kind::kJoinProbe;
      op.transient_first = 1;  // right drives
      op.child0 = Plan(right);
      return Add(std::move(op));
    }
    op.kind = PlanOp::Kind::kJoinHash;
    op.child0 = Plan(left);
    op.child1 = Plan(right);
    return Add(std::move(op));
  }

  int Semi(const PlanPtr& plan, bool anti) {
    const PlanPtr& left = plan->child(0);
    const PlanPtr& right = plan->child(1);
    const Schema left_schema = InferSchema(left, db_);
    const Schema right_schema = InferSchema(right, db_);
    const Schema combined = left_schema.Extend(right_schema.columns());
    const EquiSplit split = SplitPredicate(plan, left_schema, right_schema);
    const bool has_equi = !split.left_keys.empty();

    PlanOp op;
    op.out_schema = left_schema;
    op.left_ncols = left_schema.num_columns();
    op.anti = anti;
    op.lk_all = left_schema.ColumnIndices(split.left_keys);
    op.rk_all = right_schema.ColumnIndices(split.right_keys);
    op.residual.emplace(split.residual, combined);
    op.transient_first =
        IsTransientOnly(left) ? 0 : IsTransientOnly(right) ? 1 : 2;

    // Transient left probing a stored right: the common shape of rules like
    // σφ(∆) ⋉ R and ∆ ⋉̄ Input_post.
    if (has_equi && IsTransientOnly(left) &&
        TryProbe(right, split.right_keys, op.lk_all, &op)) {
      op.kind = PlanOp::Kind::kSemiProbeLeft;
      op.child0 = Plan(left);
      return Add(std::move(op));
    }
    // Transient right probing a stored left (Input_post ⋉Ī ∆), once per
    // distinct diff key.
    if (!anti && has_equi && IsTransientOnly(right) &&
        TryProbe(left, split.left_keys, op.rk_all, &op)) {
      op.kind = PlanOp::Kind::kSemiProbeRight;
      op.child0 = Plan(right);
      return Add(std::move(op));
    }
    op.child0 = Plan(left);
    op.child1 = Plan(right);
    if (has_equi) {
      op.kind = PlanOp::Kind::kSemiHash;
    } else {
      op.kind = PlanOp::Kind::kSemiNl;
      op.pred.emplace(plan->predicate(), combined);
    }
    return Add(std::move(op));
  }

  // Only reached for subtrees FindProbeableKeySubset accepted.
  int Probe(const PlanPtr& plan, const std::vector<std::string>& columns) {
    ProbeOp op;
    switch (plan->kind()) {
      case PlanKind::kScan:
        op.kind = ProbeOp::Kind::kScan;
        op.table_id = InternTable(plan->table_name());
        op.pre_state = plan->state() == StateTag::kPre;
        // Pre-state relations keep the table's schema, so the offsets serve
        // both states.
        op.key_cols =
            db_.GetTable(plan->table_name()).schema().ColumnIndices(columns);
        return AddProbe(std::move(op));
      case PlanKind::kSelect:
        op.kind = ProbeOp::Kind::kSelect;
        op.child0 = Probe(plan->child(0), columns);
        op.pred.emplace(plan->predicate(), InferSchema(plan->child(0), db_));
        return AddProbe(std::move(op));
      case PlanKind::kProject: {
        // Rename the probe columns through the first matching item, then
        // project every fetched row through all items.
        std::vector<std::string> inner;
        inner.reserve(columns.size());
        for (const std::string& name : columns) {
          for (const ProjectItem& item : plan->project_items()) {
            if (item.name == name) {
              inner.push_back(item.expr->column_name());
              break;
            }
          }
        }
        op.kind = ProbeOp::Kind::kProject;
        op.child0 = Probe(plan->child(0), inner);
        const Schema child_schema = InferSchema(plan->child(0), db_);
        for (const ProjectItem& item : plan->project_items()) {
          op.exprs.emplace_back(item.expr, child_schema);
        }
        return AddProbe(std::move(op));
      }
      case PlanKind::kCoalesceProbe:
        // Section 9 extension: try the view/cache copy first; its distinct
        // rows for a full-key probe coincide with the base relation's
        // single row. The FD argument requires the probe key to cover the
        // base table's primary key (at most one base row per probe key).
        op.kind = ProbeOp::Kind::kCoalesce;
        op.table_id = InternTable(plan->table_name());
        if (db_.HasTable(plan->table_name())) {
          for (const std::string& key_col :
               db_.GetTable(plan->table_name()).key_columns()) {
            if (std::find(columns.begin(), columns.end(), key_col) ==
                columns.end()) {
              op.static_unsafe = true;
              break;
            }
          }
        }
        op.child0 = Probe(plan->child(0), columns);
        op.child1 = Probe(plan->child(1), columns);
        return AddProbe(std::move(op));
      case PlanKind::kJoin: {
        const Schema left_schema = InferSchema(plan->child(0), db_);
        const Schema right_schema = InferSchema(plan->child(1), db_);
        JoinProbePlan probe;
        IDIVM_CHECK(PlanJoinProbe(*plan, left_schema, right_schema, columns,
                                  &probe),
                    "probe lowering on non-probeable join");
        op.kind = ProbeOp::Kind::kJoin;
        op.first_is_left = probe.first == 0;
        const Schema& first_schema =
            probe.first == 0 ? left_schema : right_schema;
        op.link_cols = first_schema.ColumnIndices(probe.first_link_cols);
        op.residual.emplace(probe.residual,
                            left_schema.Extend(right_schema.columns()));
        op.child0 = Probe(plan->child(probe.first), columns);
        op.child1 = Probe(plan->child(1 - probe.first), probe.second_link_cols);
        return AddProbe(std::move(op));
      }
      default:
        IDIVM_UNREACHABLE("probe lowering on non-probeable plan");
    }
  }

  const Database& db_;
  const RefBinder& bind_;
  PhysicalPlan* out_;
  std::map<std::string, int> table_index_;
  Status status_;
};

// ---- Running ----------------------------------------------------------------

struct AggState {
  int64_t row_count = 0;
  int64_t nonnull_count = 0;
  double sum_double = 0;
  int64_t sum_int = 0;
  bool all_int = true;
  Value min;
  Value max;
};

Value FinalizeAgg(const AggSpec& agg, const AggState& st) {
  switch (agg.func) {
    case AggFunc::kCount:
      return Value(agg.arg == nullptr ? st.row_count : st.nonnull_count);
    case AggFunc::kSum:
      if (st.nonnull_count == 0) return Value::Null();
      return st.all_int ? Value(st.sum_int) : Value(st.sum_double);
    case AggFunc::kAvg:
      if (st.nonnull_count == 0) return Value::Null();
      return Value(st.sum_double / static_cast<double>(st.nonnull_count));
    case AggFunc::kMin:
      return st.min;
    case AggFunc::kMax:
      return st.max;
  }
  IDIVM_UNREACHABLE("bad AggFunc");
}

// One op's output: owned, or borrowed from a register (transient reads are
// free and need no copy). Owned results die with the parent's local, so an
// intermediate lives only until its parent has consumed it.
class OpResult {
 public:
  OpResult() = default;
  explicit OpResult(Relation rel) : owned_(std::move(rel)) {}
  explicit OpResult(const Relation* borrowed) : borrowed_(borrowed) {}

  const Relation& operator*() const {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }
  const Relation* operator->() const { return &**this; }

  // By value: a borrowed register is copied (a root ref evaluates to a
  // copy), an owned result moves.
  Relation Take() {
    if (borrowed_ != nullptr) return *borrowed_;
    return std::move(owned_);
  }

 private:
  Relation owned_;
  const Relation* borrowed_ = nullptr;
};

class Runner {
 public:
  Runner(const PhysicalPlan& plan, const EvalContext& ctx,
         const Relation* const* regs)
      : plan_(plan),
        ctx_(ctx),
        regs_(regs),
        tables_(plan.tables.size(), nullptr) {}

  Relation Run() { return Eval(plan_.root).Take(); }

 private:
  // The table a scan or probe leaf reads: a changed table's reconstructed
  // pre-state for a pre-state leaf, else the stored table (an unchanged
  // table's pre-state is its post-state). Stored tables are resolved on
  // first use, so a table the plan never reaches is never looked up; a
  // missing one fails the database's check.
  Table& LeafTable(int id, bool pre_state) {
    if (pre_state && ctx_.pre_state != nullptr) {
      const auto it = ctx_.pre_state->find(plan_.tables[id]);
      if (it != ctx_.pre_state->end()) return *it->second;
    }
    Table*& table = tables_[id];
    if (table == nullptr) table = &ctx_.db->GetTable(plan_.tables[id]);
    return *table;
  }

  // Keyed lookup through a probe path; rows in the subtree's output
  // schema. Only the Scan leaf charges accesses.
  std::vector<Row> DoProbe(int idx, const Row& key) {
    const ProbeOp& op = plan_.probes[idx];
    switch (op.kind) {
      case ProbeOp::Kind::kScan:
        return LeafTable(op.table_id, op.pre_state)
            .LookupWhereEquals(op.key_cols, key);
      case ProbeOp::Kind::kSelect: {
        std::vector<Row> rows = DoProbe(op.child0, key);
        std::vector<Row> out;
        out.reserve(rows.size());
        for (Row& row : rows) {
          if (op.pred->Holds(row)) out.push_back(std::move(row));
        }
        return out;
      }
      case ProbeOp::Kind::kProject: {
        std::vector<Row> rows = DoProbe(op.child0, key);
        std::vector<Row> out;
        out.reserve(rows.size());
        for (const Row& row : rows) {
          Row projected;
          projected.reserve(op.exprs.size());
          for (const BoundExpr& e : op.exprs) projected.push_back(e.Eval(row));
          out.push_back(std::move(projected));
        }
        return out;
      }
      case ProbeOp::Kind::kCoalesce: {
        // Fall back on a miss, or when the base table received
        // updates/deletes this round (the copy may be mid-maintenance).
        bool unsafe = op.static_unsafe;
        if (const std::set<std::string>* changed = ctx_.assist_unsafe_tables) {
          unsafe = unsafe || changed->count(plan_.tables[op.table_id]) > 0;
        }
        if (!unsafe) {
          std::vector<Row> rows = DoProbe(op.child0, key);
          if (!rows.empty()) {
            // The cache may hold several copies (one per join partner);
            // they agree on all projected columns — deduplicate.
            std::vector<Row> distinct;
            for (Row& row : rows) {
              bool seen = false;
              for (const Row& kept : distinct) {
                if (CompareRows(kept, row) == 0) {
                  seen = true;
                  break;
                }
              }
              if (!seen) distinct.push_back(std::move(row));
            }
            return distinct;
          }
        }
        return DoProbe(op.child1, key);
      }
      case ProbeOp::Kind::kJoin: {
        // Chained index nested loop: probe one side with the key, then probe
        // the other side per matching row through the equi condition.
        std::vector<Row> out;
        for (const Row& frow : DoProbe(op.child0, key)) {
          const Row link_key = ProjectRow(frow, op.link_cols);
          if (RowKeyHasNull(link_key)) continue;
          for (const Row& srow : DoProbe(op.child1, link_key)) {
            Row combined = op.first_is_left ? ConcatRows(frow, srow)
                                            : ConcatRows(srow, frow);
            if (op.residual->Holds(combined)) {
              out.push_back(std::move(combined));
            }
          }
        }
        return out;
      }
    }
    IDIVM_UNREACHABLE("bad ProbeOp kind");
  }

  // Per-operator probe memo: a real executor reads a joining block once and
  // reuses it for diff tuples sharing the key.
  class ProbeMemo {
   public:
    ProbeMemo(Runner* runner, int root) : runner_(runner), root_(root) {}

    const std::vector<Row>& Lookup(const Row& key) {
      const auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
      return cache_.emplace(key, runner_->DoProbe(root_, key)).first->second;
    }

   private:
    Runner* runner_;
    int root_;
    std::map<Row, std::vector<Row>, RowLess> cache_;
  };

  // Both inputs of a materializing binary op, the transient-only side
  // first. Returns false when that side is empty and decides the result
  // alone (⋉̄ with an empty right keeps every left row, so it goes on).
  bool EvalInputs(const PlanOp& op, OpResult* left, OpResult* right) {
    if (op.transient_first == 0) {
      *left = Eval(op.child0);
      if ((*left)->empty()) return false;
      *right = Eval(op.child1);
    } else if (op.transient_first == 1) {
      *right = Eval(op.child1);
      if ((*right)->empty() && !op.anti) return false;
      *left = Eval(op.child0);
    } else {
      *left = Eval(op.child0);
      *right = Eval(op.child1);
    }
    return true;
  }

  Relation JoinProbe(const PlanOp& op) {
    const OpResult driver = Eval(op.child0);
    Relation out(op.out_schema);
    ProbeMemo memo(this, op.probe_root);
    const bool left_drives = op.transient_first == 0;
    for (const Row& drow : driver->rows()) {
      const Row key = ProjectRow(drow, op.probe_key_cols);
      if (RowKeyHasNull(key)) continue;
      for (const Row& srow : memo.Lookup(key)) {
        Row combined =
            left_drives ? ConcatRows(drow, srow) : ConcatRows(srow, drow);
        bool keys_ok = true;
        for (size_t i : op.unprobed_keys) {
          if (!combined[op.lk_all[i]].SqlEquals(
                  combined[op.left_ncols + op.rk_all[i]])) {
            keys_ok = false;
            break;
          }
        }
        if (keys_ok && op.residual->Holds(combined)) {
          out.Append(std::move(combined));
        }
      }
    }
    return out;
  }

  Relation Join(const PlanOp& op) {
    Relation out(op.out_schema);
    OpResult left;
    OpResult right;
    if (!EvalInputs(op, &left, &right)) return out;
    if (op.kind == PlanOp::Kind::kJoinNl) {
      for (const Row& lrow : left->rows()) {
        for (const Row& rrow : right->rows()) {
          Row combined = ConcatRows(lrow, rrow);
          if (op.pred->Holds(combined)) out.Append(std::move(combined));
        }
      }
      return out;
    }
    // Rows with a NULL key stay in the index: no probe key matches them.
    const std::vector<Row>& rrows = right->rows();
    const RowIndex hashed(op.rk_all, rrows);
    for (const Row& lrow : left->rows()) {
      const Row key = ProjectRow(lrow, op.lk_all);
      if (RowKeyHasNull(key)) continue;
      hashed.ForEachMatch(rrows, key, [&](size_t ridx) {
        Row combined = ConcatRows(lrow, rrows[ridx]);
        if (op.residual->Holds(combined)) out.Append(std::move(combined));
      });
    }
    return out;
  }

  // Equality of the equi-key pairs the probe does not cover.
  static bool KeysMatch(const PlanOp& op, const Row& lrow, const Row& rrow) {
    for (size_t i : op.unprobed_keys) {
      if (!lrow[op.lk_all[i]].SqlEquals(rrow[op.rk_all[i]])) return false;
    }
    return true;
  }

  Relation SemiProbeLeft(const PlanOp& op) {
    const OpResult left = Eval(op.child0);
    Relation out(op.out_schema);
    ProbeMemo memo(this, op.probe_root);
    for (const Row& lrow : left->rows()) {
      const Row key = ProjectRow(lrow, op.probe_key_cols);
      if (RowKeyHasNull(key)) {
        if (op.anti) out.Append(lrow);
        continue;
      }
      bool matched = false;
      for (const Row& rrow : memo.Lookup(key)) {
        if (KeysMatch(op, lrow, rrow) &&
            op.residual->Holds(ConcatRows(lrow, rrow))) {
          matched = true;
          break;
        }
      }
      if (matched != op.anti) out.Append(lrow);
    }
    return out;
  }

  Relation SemiProbeRight(const PlanOp& op) {
    const OpResult right = Eval(op.child0);
    Relation out(op.out_schema);
    // With a partial probe key the same left row may be fetched for
    // several diff keys; it is emitted once.
    const bool partial = !op.unprobed_keys.empty();
    std::set<Row, RowLess> emitted;
    // Group right rows by probe key so residuals against any of them count
    // once per left row.
    std::map<Row, std::vector<const Row*>, RowLess> by_key;
    for (const Row& rrow : right->rows()) {
      Row key = ProjectRow(rrow, op.probe_key_cols);
      if (RowKeyHasNull(key)) continue;
      by_key[std::move(key)].push_back(&rrow);
    }
    ProbeMemo memo(this, op.probe_root);
    for (const auto& [key, rrows] : by_key) {
      for (const Row& lrow : memo.Lookup(key)) {
        for (const Row* rrow : rrows) {
          if (KeysMatch(op, lrow, *rrow) &&
              op.residual->Holds(ConcatRows(lrow, *rrow))) {
            if (!partial || emitted.insert(lrow).second) {
              out.Append(lrow);
            }
            break;
          }
        }
      }
    }
    return out;
  }

  Relation Semi(const PlanOp& op) {
    Relation out(op.out_schema);
    OpResult left;
    OpResult right;
    if (!EvalInputs(op, &left, &right)) return out;
    if (op.kind == PlanOp::Kind::kSemiHash) {
      const std::vector<Row>& rrows = right->rows();
      const RowIndex hashed(op.rk_all, rrows);
      for (const Row& lrow : left->rows()) {
        const Row key = ProjectRow(lrow, op.lk_all);
        bool matched = false;
        if (!RowKeyHasNull(key)) {
          hashed.ForEachMatch(rrows, key, [&](size_t ridx) {
            matched = matched ||
                      op.residual->Holds(ConcatRows(lrow, rrows[ridx]));
          });
        }
        if (matched != op.anti) out.Append(lrow);
      }
      return out;
    }
    for (const Row& lrow : left->rows()) {
      bool matched = false;
      for (const Row& rrow : right->rows()) {
        if (op.pred->Holds(ConcatRows(lrow, rrow))) {
          matched = true;
          break;
        }
      }
      if (matched != op.anti) out.Append(lrow);
    }
    return out;
  }

  Relation Aggregate(const PlanOp& op) {
    const OpResult input = Eval(op.child0);
    const std::vector<AggSpec>& specs = op.plan->aggregates();
    std::map<Row, std::vector<AggState>, RowLess> groups;
    for (const Row& row : input->rows()) {
      std::vector<AggState>& states = groups[ProjectRow(row, op.group_cols)];
      if (states.empty()) states.resize(specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        AggState& st = states[i];
        ++st.row_count;
        if (!op.agg_args[i].has_value()) continue;  // COUNT(*)
        const Value v = op.agg_args[i]->Eval(row);
        if (v.is_null()) continue;
        ++st.nonnull_count;
        if (v.is_numeric()) {
          st.sum_double += v.NumericAsDouble();
          if (v.type() == DataType::kInt64) {
            st.sum_int += v.AsInt64();
          } else {
            st.all_int = false;
          }
        }
        if (st.min.is_null() || v.Compare(st.min) < 0) st.min = v;
        if (st.max.is_null() || v.Compare(st.max) > 0) st.max = v;
      }
    }
    Relation out(op.out_schema);
    if (groups.empty() && op.plan->group_by().empty()) {
      // SQL global aggregate over an empty input: one row.
      Row row;
      for (const AggSpec& spec : specs) {
        row.push_back(FinalizeAgg(spec, AggState()));
      }
      out.Append(std::move(row));
      return out;
    }
    for (const auto& [key, states] : groups) {
      Row row = key;
      for (size_t i = 0; i < specs.size(); ++i) {
        row.push_back(FinalizeAgg(specs[i], states[i]));
      }
      out.Append(std::move(row));
    }
    return out;
  }

  OpResult Eval(int idx) {
    const PlanOp& op = plan_.ops[idx];
    switch (op.kind) {
      case PlanOp::Kind::kScan:
        return OpResult(LeafTable(op.table_id, op.pre_state).ScanAll());
      case PlanOp::Kind::kSlotRef:
        return OpResult(regs_[op.slot]);
      case PlanOp::Kind::kEmptyRef:
        return OpResult(Relation(op.out_schema));
      case PlanOp::Kind::kSelect: {
        const OpResult input = Eval(op.child0);
        Relation out(input->schema());
        for (const Row& row : input->rows()) {
          if (op.pred->Holds(row)) out.Append(row);
        }
        return OpResult(std::move(out));
      }
      case PlanOp::Kind::kProject:
      case PlanOp::Kind::kFilterProject: {
        const OpResult input = Eval(op.child0);
        Relation out(op.out_schema);
        for (const Row& row : input->rows()) {
          if (op.pred.has_value() && !op.pred->Holds(row)) continue;
          Row projected;
          projected.reserve(op.exprs.size());
          for (const BoundExpr& e : op.exprs) projected.push_back(e.Eval(row));
          out.Append(std::move(projected));
        }
        return OpResult(std::move(out));
      }
      case PlanOp::Kind::kUnionAll: {
        Relation out(op.out_schema);
        for (const int child : {op.child0, op.child1}) {
          const OpResult input = Eval(child);
          const Value branch(int64_t{child == op.child0 ? 0 : 1});
          for (const Row& row : input->rows()) {
            Row extended = row;
            extended.push_back(branch);
            out.Append(std::move(extended));
          }
        }
        return OpResult(std::move(out));
      }
      case PlanOp::Kind::kJoinProbe:
        return OpResult(JoinProbe(op));
      case PlanOp::Kind::kJoinHash:
      case PlanOp::Kind::kJoinNl:
        return OpResult(Join(op));
      case PlanOp::Kind::kSemiProbeLeft:
        return OpResult(SemiProbeLeft(op));
      case PlanOp::Kind::kSemiProbeRight:
        return OpResult(SemiProbeRight(op));
      case PlanOp::Kind::kSemiHash:
      case PlanOp::Kind::kSemiNl:
        return OpResult(Semi(op));
      case PlanOp::Kind::kAggregate:
        return OpResult(Aggregate(op));
    }
    IDIVM_UNREACHABLE("bad PlanOp kind");
  }

  const PhysicalPlan& plan_;
  const EvalContext& ctx_;
  const Relation* const* regs_;
  std::vector<Table*> tables_;
};

}  // namespace

StatusOr<PhysicalPlan> LowerPlan(const PlanPtr& plan, const Database& db,
                                 const RefBinder& bind) {
  IDIVM_RETURN_IF_ERROR(TryInferSchema(plan, db).status());
  PhysicalPlan out;
  Lowering lowering(db, bind, &out);
  out.root = lowering.Plan(plan);
  IDIVM_RETURN_IF_ERROR(lowering.status());
  return out;
}

void CollectProbedIndexes(const PhysicalPlan& plan, IndexSet* out) {
  for (const ProbeOp& op : plan.probes) {
    if (op.kind == ProbeOp::Kind::kScan) {
      out->emplace(plan.tables[op.table_id], op.key_cols);
    }
  }
}

void CollectPreStateIndexes(const PhysicalPlan& plan, PreStateIndexes* out) {
  for (const PlanOp& op : plan.ops) {
    if (op.kind == PlanOp::Kind::kScan && op.pre_state) {
      (*out)[plan.tables[op.table_id]];
    }
  }
  for (const ProbeOp& op : plan.probes) {
    if (op.kind == ProbeOp::Kind::kScan && op.pre_state) {
      (*out)[plan.tables[op.table_id]].insert(op.key_cols);
    }
  }
}

Relation RunPlan(const PhysicalPlan& plan, const EvalContext& ctx,
                 const Relation* const* regs) {
  return Runner(plan, ctx, regs).Run();
}

}  // namespace idivm
