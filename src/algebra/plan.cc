#include "src/algebra/plan.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/expr/analysis.h"

namespace idivm {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  IDIVM_UNREACHABLE("bad AggFunc");
}

PlanPtr PlanNode::Scan(std::string table, StateTag state) {
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kScan;
  node->table_name_ = std::move(table);
  node->state_ = state;
  return node;
}

PlanPtr PlanNode::RelationRef(std::string name, Schema schema) {
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kRelationRef;
  node->ref_name_ = std::move(name);
  node->ref_schema_ = std::move(schema);
  return node;
}

PlanPtr PlanNode::Select(PlanPtr child, ExprPtr predicate) {
  IDIVM_CHECK(child != nullptr && predicate != nullptr);
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kSelect;
  node->children_ = {std::move(child)};
  node->predicate_ = std::move(predicate);
  return node;
}

PlanPtr PlanNode::Project(PlanPtr child, std::vector<ProjectItem> items) {
  IDIVM_CHECK(child != nullptr && !items.empty());
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kProject;
  node->children_ = {std::move(child)};
  node->items_ = std::move(items);
  return node;
}

PlanPtr PlanNode::Join(PlanPtr left, PlanPtr right, ExprPtr predicate) {
  IDIVM_CHECK(left != nullptr && right != nullptr && predicate != nullptr);
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kJoin;
  node->children_ = {std::move(left), std::move(right)};
  node->predicate_ = std::move(predicate);
  return node;
}

PlanPtr PlanNode::SemiJoin(PlanPtr left, PlanPtr right, ExprPtr predicate) {
  IDIVM_CHECK(left != nullptr && right != nullptr && predicate != nullptr);
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kSemiJoin;
  node->children_ = {std::move(left), std::move(right)};
  node->predicate_ = std::move(predicate);
  return node;
}

PlanPtr PlanNode::AntiSemiJoin(PlanPtr left, PlanPtr right,
                               ExprPtr predicate) {
  IDIVM_CHECK(left != nullptr && right != nullptr && predicate != nullptr);
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kAntiSemiJoin;
  node->children_ = {std::move(left), std::move(right)};
  node->predicate_ = std::move(predicate);
  return node;
}

PlanPtr PlanNode::UnionAll(PlanPtr left, PlanPtr right,
                           std::string branch_column) {
  IDIVM_CHECK(left != nullptr && right != nullptr);
  IDIVM_CHECK(!branch_column.empty(),
              "union all requires a branch attribute (paper footnote 2)");
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kUnionAll;
  node->children_ = {std::move(left), std::move(right)};
  node->branch_column_ = std::move(branch_column);
  return node;
}

PlanPtr PlanNode::Aggregate(PlanPtr child, std::vector<std::string> group_by,
                            std::vector<AggSpec> aggs) {
  IDIVM_CHECK(child != nullptr);
  IDIVM_CHECK(!aggs.empty(), "aggregate needs at least one function");
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kAggregate;
  node->children_ = {std::move(child)};
  node->group_by_ = std::move(group_by);
  node->aggs_ = std::move(aggs);
  return node;
}

PlanPtr PlanNode::Materialize(PlanPtr child) {
  IDIVM_CHECK(child != nullptr);
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kMaterialize;
  node->children_ = {std::move(child)};
  return node;
}

PlanPtr PlanNode::CoalesceProbe(PlanPtr primary, PlanPtr fallback,
                                std::string base_table) {
  IDIVM_CHECK(primary != nullptr && fallback != nullptr);
  auto node = std::shared_ptr<PlanNode>(new PlanNode());
  node->kind_ = PlanKind::kCoalesceProbe;
  node->children_ = {std::move(primary), std::move(fallback)};
  node->table_name_ = std::move(base_table);
  return node;
}

DataType TypeOfExpr(const ExprPtr& expr, const Schema& schema) {
  switch (expr->kind()) {
    case ExprKind::kColumn:
      return schema.column(schema.ColumnIndex(expr->column_name())).type;
    case ExprKind::kLiteral:
      return expr->literal().type();
    case ExprKind::kArithmetic: {
      if (expr->arith_op() == ArithOp::kDiv) return DataType::kDouble;
      const DataType a = TypeOfExpr(expr->children()[0], schema);
      const DataType b = TypeOfExpr(expr->children()[1], schema);
      if (a == DataType::kInt64 && b == DataType::kInt64) {
        return DataType::kInt64;
      }
      return DataType::kDouble;
    }
    case ExprKind::kComparison:
    case ExprKind::kLogical:
      return DataType::kInt64;
    case ExprKind::kFunction: {
      const std::string& name = expr->function_name();
      if (name == "concat") return DataType::kString;
      if (name == "coalesce" || name == "if") {
        // Type of first value argument.
        const size_t idx = name == "if" ? 1 : 0;
        return TypeOfExpr(expr->children()[idx], schema);
      }
      if (name == "isnull") return DataType::kInt64;
      if (name == "abs") return TypeOfExpr(expr->children()[0], schema);
      return DataType::kDouble;
    }
  }
  IDIVM_UNREACHABLE("bad ExprKind");
}

namespace {

// `expr` checked against `schema`, naming the operator it belongs to.
Status CheckIn(const ExprPtr& expr, const Schema& schema, const char* where) {
  const Status status = CheckExpr(expr, schema);
  if (status.ok()) return status;
  return CorruptScriptError(StrCat(where, ": ", status.message()));
}

// A schema of `cols` ++ `more`, whose names must be distinct. Plans carry
// tens of columns, so a pairwise scan beats building a set.
Status MakeSchema(std::vector<ColumnDef> cols, const char* where, Schema* out,
                  const std::vector<ColumnDef>& more = {}) {
  cols.insert(cols.end(), more.begin(), more.end());
  for (size_t i = 0; i < cols.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (cols[i].name == cols[j].name) {
        return CorruptScriptError(
            StrCat(where, ": duplicate column name: ", cols[i].name));
      }
    }
  }
  *out = Schema(std::move(cols));
  return OkStatus();
}

Status Infer(const PlanPtr& plan, const Database& db, Schema* out) {
  if (plan == nullptr) return CorruptScriptError("missing plan");
  Schema left;
  Schema right;
  if (plan->kind() != PlanKind::kScan &&
      plan->kind() != PlanKind::kRelationRef) {
    IDIVM_RETURN_IF_ERROR(Infer(plan->child(0), db, &left));
  }
  if (plan->children().size() > 1) {
    IDIVM_RETURN_IF_ERROR(Infer(plan->child(1), db, &right));
  }
  switch (plan->kind()) {
    case PlanKind::kScan:
      if (!db.HasTable(plan->table_name())) {
        return CorruptScriptError(
            StrCat("scan of missing table ", plan->table_name()));
      }
      *out = db.GetTable(plan->table_name()).schema();
      return OkStatus();
    case PlanKind::kRelationRef:
      *out = plan->ref_schema();
      return OkStatus();
    case PlanKind::kSelect:
      IDIVM_RETURN_IF_ERROR(CheckIn(plan->predicate(), left, "selection"));
      *out = left;
      return OkStatus();
    case PlanKind::kProject: {
      std::vector<ColumnDef> cols;
      cols.reserve(plan->project_items().size());
      for (const ProjectItem& item : plan->project_items()) {
        IDIVM_RETURN_IF_ERROR(CheckIn(item.expr, left, "projection"));
        cols.push_back({item.name, TypeOfExpr(item.expr, left)});
      }
      return MakeSchema(std::move(cols), "projection", out);
    }
    case PlanKind::kJoin:
      IDIVM_RETURN_IF_ERROR(
          MakeSchema(left.columns(), "join", out, right.columns()));
      return CheckIn(plan->predicate(), *out, "join condition");
    case PlanKind::kSemiJoin:
    case PlanKind::kAntiSemiJoin: {
      Schema combined;
      IDIVM_RETURN_IF_ERROR(MakeSchema(left.columns(), "(anti)semijoin",
                                       &combined, right.columns()));
      IDIVM_RETURN_IF_ERROR(
          CheckIn(plan->predicate(), combined, "(anti)semijoin condition"));
      *out = left;
      return OkStatus();
    }
    case PlanKind::kUnionAll: {
      if (left.ColumnNames() != right.ColumnNames()) {
        return CorruptScriptError(
            StrCat("union all children must share column names: ",
                   left.ToString(), " vs ", right.ToString()));
      }
      return MakeSchema(left.columns(), "union all", out,
                        {{plan->branch_column(), DataType::kInt64}});
    }
    case PlanKind::kMaterialize:
      *out = left;
      return OkStatus();
    case PlanKind::kCoalesceProbe:
      if (left.ColumnNames() != right.ColumnNames()) {
        return CorruptScriptError(
            "coalesce-probe paths must share column names");
      }
      *out = right;
      return OkStatus();
    case PlanKind::kAggregate: {
      std::vector<ColumnDef> cols;
      for (const std::string& g : plan->group_by()) {
        IDIVM_RETURN_IF_ERROR(CheckIn(Col(g), left, "group-by"));
        cols.push_back({g, TypeOfExpr(Col(g), left)});
      }
      for (const AggSpec& agg : plan->aggregates()) {
        const bool count = agg.func == AggFunc::kCount;
        const bool avg = agg.func == AggFunc::kAvg;
        if (agg.arg != nullptr) {
          IDIVM_RETURN_IF_ERROR(CheckIn(agg.arg, left, "aggregate argument"));
        } else if (!count && !avg) {
          return CorruptScriptError(
              StrCat(AggFuncName(agg.func), " needs an argument"));
        }
        cols.push_back({agg.name, count ? DataType::kInt64
                                  : avg ? DataType::kDouble
                                        : TypeOfExpr(agg.arg, left)});
      }
      return MakeSchema(std::move(cols), "aggregate", out);
    }
  }
  IDIVM_UNREACHABLE("bad PlanKind");
}

}  // namespace

StatusOr<Schema> TryInferSchema(const PlanPtr& plan, const Database& db) {
  Schema out;
  IDIVM_RETURN_IF_ERROR(Infer(plan, db, &out));
  return out;
}

Schema InferSchema(const PlanPtr& plan, const Database& db) {
  StatusOr<Schema> schema = TryInferSchema(plan, db);
  IDIVM_CHECK(schema.ok(), schema.status().message());
  return std::move(schema).value();
}

PlanPtr ProjectColumns(PlanPtr child, const std::vector<std::string>& names) {
  std::vector<ProjectItem> items;
  items.reserve(names.size());
  for (const std::string& name : names) items.push_back({Col(name), name});
  return PlanNode::Project(std::move(child), std::move(items));
}

PlanPtr NaturalJoin(PlanPtr left, PlanPtr right, const Database& db) {
  const Schema left_schema = InferSchema(left, db);
  const Schema right_schema = InferSchema(right, db);
  std::vector<std::string> shared;
  for (const ColumnDef& col : right_schema.columns()) {
    if (left_schema.HasColumn(col.name)) shared.push_back(col.name);
  }
  IDIVM_CHECK(!shared.empty(), "natural join with no shared columns");
  // Rename the right side's shared columns out of the way.
  std::vector<ProjectItem> rename_items;
  for (const ColumnDef& col : right_schema.columns()) {
    const bool is_shared =
        std::find(shared.begin(), shared.end(), col.name) != shared.end();
    rename_items.push_back(
        {Col(col.name), is_shared ? StrCat("__rhs_", col.name) : col.name});
  }
  PlanPtr renamed = PlanNode::Project(std::move(right), rename_items);
  std::vector<ExprPtr> eqs;
  eqs.reserve(shared.size());
  for (const std::string& name : shared) {
    eqs.push_back(Eq(Col(name), Col(StrCat("__rhs_", name))));
  }
  PlanPtr joined =
      PlanNode::Join(std::move(left), std::move(renamed), ConjoinAll(eqs));
  // Keep all left columns plus right's non-shared columns.
  std::vector<std::string> keep = left_schema.ColumnNames();
  for (const ColumnDef& col : right_schema.columns()) {
    const bool is_shared =
        std::find(shared.begin(), shared.end(), col.name) != shared.end();
    if (!is_shared) keep.push_back(col.name);
  }
  return ProjectColumns(std::move(joined), keep);
}

namespace {

void CollectScansImpl(const PlanPtr& plan,
                      std::vector<const PlanNode*>* out) {
  if (plan->kind() == PlanKind::kScan) out->push_back(plan.get());
  for (const PlanPtr& child : plan->children()) CollectScansImpl(child, out);
}

}  // namespace

std::vector<const PlanNode*> CollectScans(const PlanPtr& plan) {
  std::vector<const PlanNode*> out;
  CollectScansImpl(plan, &out);
  return out;
}

bool IsTransientOnly(const PlanPtr& plan) {
  if (plan->kind() == PlanKind::kScan) return false;
  // A materialization barrier pays its own (already counted) cost once and
  // then behaves like an in-memory relation.
  if (plan->kind() == PlanKind::kMaterialize) return true;
  for (const PlanPtr& child : plan->children()) {
    if (!IsTransientOnly(child)) return false;
  }
  return true;
}

}  // namespace idivm
