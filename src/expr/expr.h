// Scalar expression trees: the condition language of selections/joins and the
// function language of generalized projection (Q_SPJADU's π with functions).
//
// Expressions are immutable and shared (ExprPtr); the idIVM compiler rewrites
// them freely (e.g., renaming condition columns to their __pre/__post diff
// counterparts, Table 6/10 rules). Evaluation uses SQL-style three-valued
// logic: comparisons with NULL yield NULL, and a predicate holds only when it
// evaluates to (non-NULL) true.

#ifndef IDIVM_EXPR_EXPR_H_
#define IDIVM_EXPR_EXPR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/robust/status.h"
#include "src/types/relation.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace idivm {

enum class ExprKind {
  kColumn,      // reference to a named column
  kLiteral,     // constant
  kArithmetic,  // + - * /  %
  kComparison,  // = != < <= > >=
  kLogical,     // AND OR NOT
  kFunction,    // named scalar function (abs, round, if, ...)
};

enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp { kAnd, kOr, kNot };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// One immutable node of a scalar expression tree; built only through the
// factories below.
class Expr {
 public:
  ExprKind kind() const { return kind_; }

  // kColumn
  const std::string& column_name() const;
  // kLiteral
  const Value& literal() const;
  // operators / functions
  ArithOp arith_op() const { return arith_op_; }
  CmpOp cmp_op() const { return cmp_op_; }
  LogicOp logic_op() const { return logic_op_; }
  const std::string& function_name() const { return function_name_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  // Evaluates against `row` under `schema` (resolves columns by name; use
  // BoundExpr for hot loops). Boolean results are int64 1/0; NULL = unknown.
  Value Eval(const Row& row, const Schema& schema) const;

  std::string ToString() const;

  // ---- Factories ----
  static ExprPtr Column(std::string name);
  static ExprPtr Literal(Value value);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Logic(LogicOp op, std::vector<ExprPtr> children);
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args);

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string column_name_;
  Value literal_;
  ArithOp arith_op_ = ArithOp::kAdd;
  CmpOp cmp_op_ = CmpOp::kEq;
  LogicOp logic_op_ = LogicOp::kAnd;
  std::string function_name_;
  std::vector<ExprPtr> children_;
};

// Convenience constructors used throughout view definitions and rules.
ExprPtr Col(const std::string& name);
ExprPtr Lit(Value value);
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Mod(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);

// True iff `predicate` evaluates to a non-NULL truthy value on `row`.
bool PredicateHolds(const ExprPtr& predicate, const Row& row,
                    const Schema& schema);

// Checks that `expr` can be bound to `schema`: every column it references
// exists and every function it calls is known and given the right number
// of arguments. A failure is a CorruptScriptError — past view definition
// only a damaged ∆-script carries such an expression.
Status CheckExpr(const ExprPtr& expr, const Schema& schema);

// An expression with column references resolved to indices, for hot loops.
class BoundExpr {
 public:
  // `expr` must pass CheckExpr against `schema`: lowering and the γ binder
  // check it first, so binding itself only looks columns up.
  BoundExpr(ExprPtr expr, const Schema& schema);

  Value Eval(const Row& row) const { return EvalNode(0, row); }
  bool Holds(const Row& row) const;

 private:
  struct Node {
    ExprKind kind;
    size_t column_index = 0;
    Value literal;
    ArithOp arith_op = ArithOp::kAdd;
    CmpOp cmp_op = CmpOp::kEq;
    LogicOp logic_op = LogicOp::kAnd;
    std::string function_name;
    std::vector<size_t> children;  // indices into nodes_
  };

  size_t Build(const Expr& expr, const Schema& schema);
  Value EvalNode(size_t node, const Row& row) const;

  std::vector<Node> nodes_;  // node 0 is the root
};

// Shared scalar evaluation used by Expr and BoundExpr.
namespace expr_internal {
Value EvalArith(ArithOp op, const Value& a, const Value& b);
Value EvalCmp(CmpOp op, const Value& a, const Value& b);
Value EvalLogic(LogicOp op, const std::vector<Value>& args);
Value EvalFunction(const std::string& name, const std::vector<Value>& args);
}  // namespace expr_internal

}  // namespace idivm

#endif  // IDIVM_EXPR_EXPR_H_
