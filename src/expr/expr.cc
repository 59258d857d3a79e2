#include "src/expr/expr.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

const std::string& Expr::column_name() const {
  IDIVM_CHECK(kind_ == ExprKind::kColumn);
  return column_name_;
}

const Value& Expr::literal() const {
  IDIVM_CHECK(kind_ == ExprKind::kLiteral);
  return literal_;
}

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Value value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(value);
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kArithmetic;
  e->arith_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kComparison;
  e->cmp_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Logic(LogicOp op, std::vector<ExprPtr> children) {
  IDIVM_CHECK(op == LogicOp::kNot ? children.size() == 1
                                  : children.size() == 2,
              "bad arity for logical operator");
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogical;
  e->logic_op_ = op;
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Function(std::string name, std::vector<ExprPtr> args) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kFunction;
  e->function_name_ = std::move(name);
  e->children_ = std::move(args);
  return e;
}

ExprPtr Col(const std::string& name) { return Expr::Column(name); }
ExprPtr Lit(Value value) { return Expr::Literal(std::move(value)); }
ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Expr::Cmp(CmpOp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Expr::Cmp(CmpOp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Expr::Cmp(CmpOp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Expr::Cmp(CmpOp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Expr::Cmp(CmpOp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Expr::Cmp(CmpOp::kGe, std::move(a), std::move(b));
}
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kDiv, std::move(a), std::move(b));
}
ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kMod, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return Expr::Logic(LogicOp::kAnd, {std::move(a), std::move(b)});
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Expr::Logic(LogicOp::kOr, {std::move(a), std::move(b)});
}
ExprPtr Not(ExprPtr a) { return Expr::Logic(LogicOp::kNot, {std::move(a)}); }

namespace expr_internal {

Value EvalArith(ArithOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  IDIVM_CHECK(a.is_numeric() && b.is_numeric(),
              "arithmetic requires numeric operands");
  if (a.type() == DataType::kInt64 && b.type() == DataType::kInt64 &&
      op != ArithOp::kDiv) {
    const int64_t x = a.AsInt64();
    const int64_t y = b.AsInt64();
    switch (op) {
      case ArithOp::kAdd:
        return Value(x + y);
      case ArithOp::kSub:
        return Value(x - y);
      case ArithOp::kMul:
        return Value(x * y);
      case ArithOp::kMod:
        IDIVM_CHECK(y != 0, "mod by zero");
        return Value(x % y);
      case ArithOp::kDiv:
        break;  // handled below
    }
  }
  const double x = a.NumericAsDouble();
  const double y = b.NumericAsDouble();
  switch (op) {
    case ArithOp::kAdd:
      return Value(x + y);
    case ArithOp::kSub:
      return Value(x - y);
    case ArithOp::kMul:
      return Value(x * y);
    case ArithOp::kDiv:
      if (y == 0) return Value::Null();  // SQL-ish: avoid crashing the script
      return Value(x / y);
    case ArithOp::kMod:
      IDIVM_CHECK(y != 0, "mod by zero");
      return Value(std::fmod(x, y));
  }
  IDIVM_UNREACHABLE("bad ArithOp");
}

Value EvalCmp(CmpOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  const int c = a.Compare(b);
  bool result = false;
  switch (op) {
    case CmpOp::kEq:
      result = c == 0;
      break;
    case CmpOp::kNe:
      result = c != 0;
      break;
    case CmpOp::kLt:
      result = c < 0;
      break;
    case CmpOp::kLe:
      result = c <= 0;
      break;
    case CmpOp::kGt:
      result = c > 0;
      break;
    case CmpOp::kGe:
      result = c >= 0;
      break;
  }
  return Value(int64_t{result ? 1 : 0});
}

namespace {

// Kleene truth: 1 = true, 0 = false, NULL = unknown.
enum class Truth { kTrue, kFalse, kUnknown };

Truth ToTruth(const Value& v) {
  if (v.is_null()) return Truth::kUnknown;
  IDIVM_CHECK(v.is_numeric(), "boolean context requires numeric/NULL");
  return v.NumericAsDouble() != 0 ? Truth::kTrue : Truth::kFalse;
}

Value FromTruth(Truth t) {
  switch (t) {
    case Truth::kTrue:
      return Value(int64_t{1});
    case Truth::kFalse:
      return Value(int64_t{0});
    case Truth::kUnknown:
      return Value::Null();
  }
  IDIVM_UNREACHABLE("bad Truth");
}

}  // namespace

Value EvalLogic(LogicOp op, const std::vector<Value>& args) {
  switch (op) {
    case LogicOp::kNot: {
      const Truth t = ToTruth(args[0]);
      if (t == Truth::kUnknown) return Value::Null();
      return FromTruth(t == Truth::kTrue ? Truth::kFalse : Truth::kTrue);
    }
    case LogicOp::kAnd: {
      const Truth a = ToTruth(args[0]);
      const Truth b = ToTruth(args[1]);
      if (a == Truth::kFalse || b == Truth::kFalse) {
        return FromTruth(Truth::kFalse);
      }
      if (a == Truth::kUnknown || b == Truth::kUnknown) return Value::Null();
      return FromTruth(Truth::kTrue);
    }
    case LogicOp::kOr: {
      const Truth a = ToTruth(args[0]);
      const Truth b = ToTruth(args[1]);
      if (a == Truth::kTrue || b == Truth::kTrue) {
        return FromTruth(Truth::kTrue);
      }
      if (a == Truth::kUnknown || b == Truth::kUnknown) return Value::Null();
      return FromTruth(Truth::kFalse);
    }
  }
  IDIVM_UNREACHABLE("bad LogicOp");
}

Value EvalFunction(const std::string& name, const std::vector<Value>& args) {
  if (name == "abs") {
    IDIVM_CHECK(args.size() == 1, "abs takes 1 arg");
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == DataType::kInt64) {
      return Value(std::abs(args[0].AsInt64()));
    }
    return Value(std::fabs(args[0].NumericAsDouble()));
  }
  if (name == "round") {
    IDIVM_CHECK(args.size() == 1, "round takes 1 arg");
    if (args[0].is_null()) return Value::Null();
    return Value(std::round(args[0].NumericAsDouble()));
  }
  if (name == "coalesce") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (name == "if") {
    IDIVM_CHECK(args.size() == 3, "if takes (cond, then, else)");
    if (args[0].is_null()) return args[2];
    return args[0].NumericAsDouble() != 0 ? args[1] : args[2];
  }
  if (name == "isnull") {
    IDIVM_CHECK(args.size() == 1, "isnull takes 1 arg");
    return Value(int64_t{args[0].is_null() ? 1 : 0});
  }
  if (name == "concat") {
    std::string out;
    for (const Value& v : args) {
      if (v.is_null()) return Value::Null();
      out += v.ToString();
    }
    return Value(out);
  }
  IDIVM_UNREACHABLE(StrCat("unknown function: ", name));
}

}  // namespace expr_internal

Value Expr::Eval(const Row& row, const Schema& schema) const {
  switch (kind_) {
    case ExprKind::kColumn:
      return row[schema.ColumnIndex(column_name_)];
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kArithmetic:
      return expr_internal::EvalArith(arith_op_,
                                      children_[0]->Eval(row, schema),
                                      children_[1]->Eval(row, schema));
    case ExprKind::kComparison:
      return expr_internal::EvalCmp(cmp_op_, children_[0]->Eval(row, schema),
                                    children_[1]->Eval(row, schema));
    case ExprKind::kLogical: {
      std::vector<Value> args;
      args.reserve(children_.size());
      for (const ExprPtr& child : children_) {
        args.push_back(child->Eval(row, schema));
      }
      return expr_internal::EvalLogic(logic_op_, args);
    }
    case ExprKind::kFunction: {
      std::vector<Value> args;
      args.reserve(children_.size());
      for (const ExprPtr& child : children_) {
        args.push_back(child->Eval(row, schema));
      }
      return expr_internal::EvalFunction(function_name_, args);
    }
  }
  IDIVM_UNREACHABLE("bad ExprKind");
}

namespace {

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  IDIVM_UNREACHABLE("bad ArithOp");
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  IDIVM_UNREACHABLE("bad CmpOp");
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return column_name_;
    case ExprKind::kLiteral:
      return literal_.type() == DataType::kString
                 ? StrCat("\"", literal_.ToString(), "\"")
                 : literal_.ToString();
    case ExprKind::kArithmetic:
      return StrCat("(", children_[0]->ToString(), " ",
                    ArithOpName(arith_op_), " ", children_[1]->ToString(),
                    ")");
    case ExprKind::kComparison:
      return StrCat("(", children_[0]->ToString(), " ", CmpOpName(cmp_op_),
                    " ", children_[1]->ToString(), ")");
    case ExprKind::kLogical: {
      if (logic_op_ == LogicOp::kNot) {
        return StrCat("NOT ", children_[0]->ToString());
      }
      const char* name = logic_op_ == LogicOp::kAnd ? " AND " : " OR ";
      return StrCat("(", children_[0]->ToString(), name,
                    children_[1]->ToString(), ")");
    }
    case ExprKind::kFunction: {
      std::vector<std::string> args;
      args.reserve(children_.size());
      for (const ExprPtr& child : children_) args.push_back(child->ToString());
      return StrCat(function_name_, "(", Join(args, ", "), ")");
    }
  }
  IDIVM_UNREACHABLE("bad ExprKind");
}

bool PredicateHolds(const ExprPtr& predicate, const Row& row,
                    const Schema& schema) {
  const Value v = predicate->Eval(row, schema);
  return !v.is_null() && v.is_numeric() && v.NumericAsDouble() != 0;
}

Status CheckExpr(const ExprPtr& expr, const Schema& schema) {
  if (expr == nullptr) return CorruptScriptError("missing expression");
  if (expr->kind() == ExprKind::kColumn &&
      !schema.HasColumn(expr->column_name())) {
    return CorruptScriptError(StrCat("unknown column '", expr->column_name(),
                                     "' over ", schema.ToString()));
  }
  if (expr->kind() == ExprKind::kFunction) {
    // EvalFunction's functions: coalesce needs an argument (its type is
    // the first one's), concat takes any number.
    const std::string& name = expr->function_name();
    const size_t n = expr->children().size();
    const bool known =
        name == "abs" || name == "round" || name == "isnull" ? n == 1
        : name == "if"                                       ? n == 3
        : name == "coalesce"                                 ? n >= 1
                                                             : name == "concat";
    if (!known) {
      return CorruptScriptError(StrCat("unknown function or wrong argument ",
                                       "count: ", expr->ToString()));
    }
  }
  for (const ExprPtr& child : expr->children()) {
    IDIVM_RETURN_IF_ERROR(CheckExpr(child, schema));
  }
  return OkStatus();
}

BoundExpr::BoundExpr(ExprPtr expr, const Schema& schema) {
  IDIVM_CHECK(expr != nullptr, "binding null expression");
  nodes_.reserve(8);
  nodes_.emplace_back();  // placeholder for root
  const size_t root = Build(*expr, schema);
  // Move the built root into slot 0 (Build appends depth-first, so the
  // actual root is the last subtree started; simplest is to swap).
  if (root != 0) std::swap(nodes_[0], nodes_[root]);
}

size_t BoundExpr::Build(const Expr& expr, const Schema& schema) {
  Node node;
  node.kind = expr.kind();
  switch (expr.kind()) {
    case ExprKind::kColumn:
      node.column_index = schema.ColumnIndex(expr.column_name());
      break;
    case ExprKind::kLiteral:
      node.literal = expr.literal();
      break;
    case ExprKind::kArithmetic:
      node.arith_op = expr.arith_op();
      break;
    case ExprKind::kComparison:
      node.cmp_op = expr.cmp_op();
      break;
    case ExprKind::kLogical:
      node.logic_op = expr.logic_op();
      break;
    case ExprKind::kFunction:
      node.function_name = expr.function_name();
      break;
  }
  for (const ExprPtr& child : expr.children()) {
    node.children.push_back(Build(*child, schema));
  }
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

Value BoundExpr::EvalNode(size_t node_index, const Row& row) const {
  const Node& node = nodes_[node_index];
  switch (node.kind) {
    case ExprKind::kColumn:
      return row[node.column_index];
    case ExprKind::kLiteral:
      return node.literal;
    case ExprKind::kArithmetic:
      return expr_internal::EvalArith(node.arith_op,
                                      EvalNode(node.children[0], row),
                                      EvalNode(node.children[1], row));
    case ExprKind::kComparison:
      return expr_internal::EvalCmp(node.cmp_op,
                                    EvalNode(node.children[0], row),
                                    EvalNode(node.children[1], row));
    case ExprKind::kLogical: {
      std::vector<Value> args;
      args.reserve(node.children.size());
      for (size_t child : node.children) args.push_back(EvalNode(child, row));
      return expr_internal::EvalLogic(node.logic_op, args);
    }
    case ExprKind::kFunction: {
      std::vector<Value> args;
      args.reserve(node.children.size());
      for (size_t child : node.children) args.push_back(EvalNode(child, row));
      return expr_internal::EvalFunction(node.function_name, args);
    }
  }
  IDIVM_UNREACHABLE("bad ExprKind");
}

bool BoundExpr::Holds(const Row& row) const {
  const Value v = Eval(row);
  return !v.is_null() && v.is_numeric() && v.NumericAsDouble() != 0;
}

}  // namespace idivm
