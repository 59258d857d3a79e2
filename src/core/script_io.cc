#include "src/core/script_io.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

namespace {

// ---- s-expression writer ---------------------------------------------------

void WriteQuoted(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

void WriteValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case DataType::kNull:
      out->append("(null)");
      return;
    case DataType::kInt64:
      out->append(StrCat("(i ", v.AsInt64(), ")"));
      return;
    case DataType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "(d %.17g)", v.AsDouble());
      out->append(buf);
      return;
    }
    case DataType::kString:
      out->append("(s ");
      WriteQuoted(v.AsString(), out);
      out->push_back(')');
      return;
  }
  IDIVM_UNREACHABLE("bad DataType");
}

void WriteExpr(const ExprPtr& expr, std::string* out) {
  switch (expr->kind()) {
    case ExprKind::kColumn:
      out->append("(col ");
      WriteQuoted(expr->column_name(), out);
      out->push_back(')');
      return;
    case ExprKind::kLiteral:
      out->append("(lit ");
      WriteValue(expr->literal(), out);
      out->push_back(')');
      return;
    case ExprKind::kArithmetic:
      out->append(StrCat("(arith ", static_cast<int>(expr->arith_op()), " "));
      break;
    case ExprKind::kComparison:
      out->append(StrCat("(cmp ", static_cast<int>(expr->cmp_op()), " "));
      break;
    case ExprKind::kLogical:
      out->append(StrCat("(logic ", static_cast<int>(expr->logic_op()), " "));
      break;
    case ExprKind::kFunction:
      out->append("(fn ");
      WriteQuoted(expr->function_name(), out);
      out->push_back(' ');
      break;
  }
  for (const ExprPtr& child : expr->children()) {
    WriteExpr(child, out);
    out->push_back(' ');
  }
  out->push_back(')');
}

void WriteSchema(const Schema& schema, std::string* out) {
  out->append("(schema ");
  for (const ColumnDef& col : schema.columns()) {
    out->append("(c ");
    WriteQuoted(col.name, out);
    out->append(StrCat(" ", static_cast<int>(col.type), ")"));
  }
  out->push_back(')');
}

void WriteStrings(const std::vector<std::string>& strings, std::string* out) {
  out->push_back('(');
  for (const std::string& s : strings) {
    WriteQuoted(s, out);
    out->push_back(' ');
  }
  out->push_back(')');
}

void WritePlan(const PlanPtr& plan, std::string* out) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      out->append(plan->state() == StateTag::kPre ? "(scan-pre " : "(scan ");
      WriteQuoted(plan->table_name(), out);
      out->push_back(')');
      return;
    case PlanKind::kRelationRef:
      out->append("(ref ");
      WriteQuoted(plan->ref_name(), out);
      out->push_back(' ');
      WriteSchema(plan->ref_schema(), out);
      out->push_back(')');
      return;
    case PlanKind::kSelect:
      out->append("(select ");
      WriteExpr(plan->predicate(), out);
      out->push_back(' ');
      WritePlan(plan->child(0), out);
      out->push_back(')');
      return;
    case PlanKind::kProject:
      out->append("(project (");
      for (const ProjectItem& item : plan->project_items()) {
        out->append("(item ");
        WriteExpr(item.expr, out);
        out->push_back(' ');
        WriteQuoted(item.name, out);
        out->push_back(')');
      }
      out->append(") ");
      WritePlan(plan->child(0), out);
      out->push_back(')');
      return;
    case PlanKind::kJoin:
    case PlanKind::kSemiJoin:
    case PlanKind::kAntiSemiJoin: {
      const char* tag = plan->kind() == PlanKind::kJoin
                            ? "(join "
                            : (plan->kind() == PlanKind::kSemiJoin
                                   ? "(semijoin "
                                   : "(antisemijoin ");
      out->append(tag);
      WriteExpr(plan->predicate(), out);
      out->push_back(' ');
      WritePlan(plan->child(0), out);
      out->push_back(' ');
      WritePlan(plan->child(1), out);
      out->push_back(')');
      return;
    }
    case PlanKind::kUnionAll:
      out->append("(unionall ");
      WriteQuoted(plan->branch_column(), out);
      out->push_back(' ');
      WritePlan(plan->child(0), out);
      out->push_back(' ');
      WritePlan(plan->child(1), out);
      out->push_back(')');
      return;
    case PlanKind::kAggregate:
      out->append("(agg ");
      WriteStrings(plan->group_by(), out);
      out->append(" (");
      for (const AggSpec& spec : plan->aggregates()) {
        out->append(StrCat("(spec ", static_cast<int>(spec.func), " "));
        if (spec.arg != nullptr) {
          WriteExpr(spec.arg, out);
        } else {
          out->append("(noarg)");
        }
        out->push_back(' ');
        WriteQuoted(spec.name, out);
        out->push_back(')');
      }
      out->append(") ");
      WritePlan(plan->child(0), out);
      out->push_back(')');
      return;
    case PlanKind::kMaterialize:
      out->append("(mat ");
      WritePlan(plan->child(0), out);
      out->push_back(')');
      return;
    case PlanKind::kCoalesceProbe:
      out->append("(coalesce ");
      WriteQuoted(plan->table_name(), out);
      out->push_back(' ');
      WritePlan(plan->child(0), out);
      out->push_back(' ');
      WritePlan(plan->child(1), out);
      out->push_back(')');
      return;
  }
  IDIVM_UNREACHABLE("bad PlanKind");
}

void WriteDiffSchema(const DiffSchema& schema, std::string* out) {
  out->append(StrCat("(diff ", static_cast<int>(schema.type()), " "));
  WriteQuoted(schema.target(), out);
  out->push_back(' ');
  WriteStrings(schema.id_columns(), out);
  out->push_back(' ');
  WriteStrings(schema.pre_columns(), out);
  out->push_back(' ');
  WriteStrings(schema.post_columns(), out);
  out->append(StrCat(" ", schema.additive() ? 1 : 0, " "));
  // Relation schema carries the column types needed to rebuild.
  WriteSchema(schema.relation_schema(), out);
  out->push_back(')');
}

// ---- s-expression reader ---------------------------------------------------

class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = StrCat(message, " at offset ", pos_);
    }
    return false;
  }
  const std::string& error() const { return error_; }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Open(const std::string& tag) {
    SkipSpace();
    const std::string expect = "(" + tag;
    if (text_.compare(pos_, expect.size(), expect) == 0) {
      const size_t end = pos_ + expect.size();
      if (end >= text_.size() || text_[end] == ' ' || text_[end] == ')' ||
          text_[end] == '(' ||
          std::isspace(static_cast<unsigned char>(text_[end]))) {
        pos_ = end;
        return true;
      }
    }
    return false;
  }
  bool Close() {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ')') {
      ++pos_;
      return true;
    }
    return Fail("expected ')'");
  }
  bool PeekClose() {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == ')';
  }
  bool ConsumeChar(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return Fail(StrCat("expected '", std::string(1, c), "'"));
  }
  bool ReadQuoted(std::string* out) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out->push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;
    return true;
  }
  // The script text is external input (a repository dump, possibly
  // damaged): numeric parsing must reject out-of-range and garbage tokens
  // as parse errors, never throw or abort.
  bool ReadInt(int64_t* out) {
    SkipSpace();
    size_t end = pos_;
    if (end < text_.size() && (text_[end] == '-' || text_[end] == '+')) ++end;
    while (end < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[end]))) {
      ++end;
    }
    if (end == pos_) return Fail("expected integer");
    const std::string token = text_.substr(pos_, end - pos_);
    errno = 0;
    char* parse_end = nullptr;
    const long long parsed = std::strtoll(token.c_str(), &parse_end, 10);
    if (parse_end != token.c_str() + token.size() || errno == ERANGE) {
      return Fail(StrCat("integer out of range: ", token));
    }
    *out = parsed;
    pos_ = end;
    return true;
  }
  // Integer restricted to [0, max]: serialized enum tags.
  bool ReadEnum(const char* what, int64_t max, int64_t* out) {
    if (!ReadInt(out)) return false;
    if (*out < 0 || *out > max) {
      return Fail(StrCat("bad ", what, " tag ", *out));
    }
    return true;
  }
  bool ReadDouble(double* out) {
    SkipSpace();
    size_t end = pos_;
    while (end < text_.size() && text_[end] != ' ' && text_[end] != ')') {
      ++end;
    }
    if (end == pos_) return Fail("expected number");
    const std::string token = text_.substr(pos_, end - pos_);
    char* parse_end = nullptr;
    const double parsed = std::strtod(token.c_str(), &parse_end);
    if (parse_end != token.c_str() + token.size()) {
      return Fail(StrCat("bad number: ", token));
    }
    *out = parsed;
    pos_ = end;
    return true;
  }

  bool ReadStrings(std::vector<std::string>* out) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '(') {
      return Fail("expected string list");
    }
    ++pos_;
    while (!PeekClose()) {
      std::string s;
      if (!ReadQuoted(&s)) return false;
      out->push_back(std::move(s));
    }
    return Close();
  }

  bool ReadSchema(Schema* out) {
    if (!Open("schema")) return Fail("expected (schema");
    std::vector<ColumnDef> cols;
    std::set<std::string> seen;
    while (Open("c")) {
      ColumnDef col;
      int64_t type = 0;
      if (!ReadQuoted(&col.name) ||
          !ReadEnum("data type", static_cast<int64_t>(DataType::kString),
                    &type) ||
          !Close()) {
        return false;
      }
      col.type = static_cast<DataType>(type);
      // The Schema constructor treats duplicates as an engine invariant;
      // here they are just a corrupt dump.
      if (!seen.insert(col.name).second) {
        return Fail(StrCat("duplicate column: ", col.name));
      }
      cols.push_back(std::move(col));
    }
    if (!Close()) return false;
    *out = Schema(std::move(cols));
    return true;
  }

  bool ReadValue(Value* out) {
    if (Open("null")) {
      *out = Value::Null();
      return Close();
    }
    if (Open("i")) {
      int64_t v = 0;
      if (!ReadInt(&v)) return false;
      *out = Value(v);
      return Close();
    }
    if (Open("d")) {
      double v = 0;
      if (!ReadDouble(&v)) return false;
      *out = Value(v);
      return Close();
    }
    if (Open("s")) {
      std::string v;
      if (!ReadQuoted(&v)) return false;
      *out = Value(std::move(v));
      return Close();
    }
    return Fail("expected value");
  }

  ExprPtr ReadExpr() {
    if (Open("col")) {
      std::string name;
      if (!ReadQuoted(&name) || !Close()) return nullptr;
      return Col(name);
    }
    if (Open("lit")) {
      Value v;
      if (!ReadValue(&v) || !Close()) return nullptr;
      return Lit(std::move(v));
    }
    if (Open("arith")) {
      int64_t op = 0;
      if (!ReadEnum("arith op", static_cast<int64_t>(ArithOp::kMod), &op)) {
        return nullptr;
      }
      ExprPtr a = ReadExpr();
      ExprPtr b = ReadExpr();
      if (a == nullptr || b == nullptr || !Close()) return nullptr;
      return Expr::Arith(static_cast<ArithOp>(op), std::move(a),
                         std::move(b));
    }
    if (Open("cmp")) {
      int64_t op = 0;
      if (!ReadEnum("cmp op", static_cast<int64_t>(CmpOp::kGe), &op)) {
        return nullptr;
      }
      ExprPtr a = ReadExpr();
      ExprPtr b = ReadExpr();
      if (a == nullptr || b == nullptr || !Close()) return nullptr;
      return Expr::Cmp(static_cast<CmpOp>(op), std::move(a), std::move(b));
    }
    if (Open("logic")) {
      int64_t op = 0;
      if (!ReadEnum("logic op", static_cast<int64_t>(LogicOp::kNot), &op)) {
        return nullptr;
      }
      std::vector<ExprPtr> children;
      while (!PeekClose()) {
        ExprPtr child = ReadExpr();
        if (child == nullptr) return nullptr;
        children.push_back(std::move(child));
      }
      if (!Close()) return nullptr;
      return Expr::Logic(static_cast<LogicOp>(op), std::move(children));
    }
    if (Open("fn")) {
      std::string name;
      if (!ReadQuoted(&name)) return nullptr;
      std::vector<ExprPtr> args;
      while (!PeekClose()) {
        ExprPtr arg = ReadExpr();
        if (arg == nullptr) return nullptr;
        args.push_back(std::move(arg));
      }
      if (!Close()) return nullptr;
      return Expr::Function(std::move(name), std::move(args));
    }
    Fail("expected expression");
    return nullptr;
  }

  PlanPtr ReadPlan() {
    if (Open("scan")) {
      std::string table;
      if (!ReadQuoted(&table) || !Close()) return nullptr;
      return PlanNode::Scan(table, StateTag::kPost);
    }
    if (Open("scan-pre")) {
      std::string table;
      if (!ReadQuoted(&table) || !Close()) return nullptr;
      return PlanNode::Scan(table, StateTag::kPre);
    }
    if (Open("ref")) {
      std::string name;
      Schema schema;
      if (!ReadQuoted(&name) || !ReadSchema(&schema) || !Close()) {
        return nullptr;
      }
      return PlanNode::RelationRef(std::move(name), std::move(schema));
    }
    if (Open("select")) {
      ExprPtr pred = ReadExpr();
      PlanPtr child = ReadPlan();
      if (pred == nullptr || child == nullptr || !Close()) return nullptr;
      return PlanNode::Select(std::move(child), std::move(pred));
    }
    if (Open("project")) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '(') {
        Fail("expected item list");
        return nullptr;
      }
      ++pos_;
      std::vector<ProjectItem> items;
      while (Open("item")) {
        ProjectItem item;
        item.expr = ReadExpr();
        if (item.expr == nullptr || !ReadQuoted(&item.name) || !Close()) {
          return nullptr;
        }
        items.push_back(std::move(item));
      }
      if (!Close()) return nullptr;  // item list
      PlanPtr child = ReadPlan();
      if (child == nullptr || !Close()) return nullptr;
      return PlanNode::Project(std::move(child), std::move(items));
    }
    for (const auto& [tag, kind] :
         {std::pair<const char*, PlanKind>{"join", PlanKind::kJoin},
          {"semijoin", PlanKind::kSemiJoin},
          {"antisemijoin", PlanKind::kAntiSemiJoin}}) {
      if (Open(tag)) {
        ExprPtr pred = ReadExpr();
        PlanPtr left = ReadPlan();
        PlanPtr right = ReadPlan();
        if (pred == nullptr || left == nullptr || right == nullptr ||
            !Close()) {
          return nullptr;
        }
        switch (kind) {
          case PlanKind::kJoin:
            return PlanNode::Join(std::move(left), std::move(right),
                                  std::move(pred));
          case PlanKind::kSemiJoin:
            return PlanNode::SemiJoin(std::move(left), std::move(right),
                                      std::move(pred));
          default:
            return PlanNode::AntiSemiJoin(std::move(left), std::move(right),
                                          std::move(pred));
        }
      }
    }
    if (Open("unionall")) {
      std::string branch;
      if (!ReadQuoted(&branch)) return nullptr;
      PlanPtr left = ReadPlan();
      PlanPtr right = ReadPlan();
      if (left == nullptr || right == nullptr || !Close()) return nullptr;
      return PlanNode::UnionAll(std::move(left), std::move(right),
                                std::move(branch));
    }
    if (Open("agg")) {
      std::vector<std::string> groups;
      if (!ReadStrings(&groups)) return nullptr;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '(') {
        Fail("expected spec list");
        return nullptr;
      }
      ++pos_;
      std::vector<AggSpec> specs;
      while (Open("spec")) {
        AggSpec spec;
        int64_t func = 0;
        if (!ReadEnum("agg func", static_cast<int64_t>(AggFunc::kMax),
                      &func)) {
          return nullptr;
        }
        spec.func = static_cast<AggFunc>(func);
        if (Open("noarg")) {
          if (!Close()) return nullptr;
          spec.arg = nullptr;
        } else {
          spec.arg = ReadExpr();
          if (spec.arg == nullptr) return nullptr;
        }
        if (!ReadQuoted(&spec.name) || !Close()) return nullptr;
        specs.push_back(std::move(spec));
      }
      if (!Close()) return nullptr;  // spec list
      PlanPtr child = ReadPlan();
      if (child == nullptr || !Close()) return nullptr;
      return PlanNode::Aggregate(std::move(child), std::move(groups),
                                 std::move(specs));
    }
    if (Open("mat")) {
      PlanPtr child = ReadPlan();
      if (child == nullptr || !Close()) return nullptr;
      return PlanNode::Materialize(std::move(child));
    }
    if (Open("coalesce")) {
      std::string table;
      if (!ReadQuoted(&table)) return nullptr;
      PlanPtr primary = ReadPlan();
      PlanPtr fallback = ReadPlan();
      if (primary == nullptr || fallback == nullptr || !Close()) {
        return nullptr;
      }
      return PlanNode::CoalesceProbe(std::move(primary), std::move(fallback),
                                     std::move(table));
    }
    Fail("expected plan");
    return nullptr;
  }

  bool ReadDiffSchema(std::unique_ptr<DiffSchema>* out) {
    if (!Open("diff")) return Fail("expected (diff");
    int64_t type = 0;
    std::string target;
    std::vector<std::string> ids;
    std::vector<std::string> pres;
    std::vector<std::string> posts;
    int64_t additive = 0;
    Schema rel;
    if (!ReadEnum("diff type", static_cast<int64_t>(DiffType::kUpdate),
                  &type) ||
        !ReadQuoted(&target) || !ReadStrings(&ids) || !ReadStrings(&pres) ||
        !ReadStrings(&posts) || !ReadInt(&additive) || !ReadSchema(&rel) ||
        !Close()) {
      return false;
    }
    // The DiffSchema constructor CHECKs its invariants (they hold for every
    // schema the compiler emits); a damaged dump has to be rejected before
    // it reaches them.
    const DiffType diff_type = static_cast<DiffType>(type);
    if (ids.empty()) return Fail("i-diff without ID columns");
    if (additive != 0 && diff_type != DiffType::kUpdate) {
      return Fail("additive i-diff that is not an update");
    }
    if (diff_type == DiffType::kInsert && !pres.empty()) {
      return Fail("insert i-diff with pre-state columns");
    }
    if (diff_type == DiffType::kDelete && !posts.empty()) {
      return Fail("delete i-diff with post-state columns");
    }
    for (const std::string& attr : pres) {
      for (const std::string& id : ids) {
        if (attr == id) return Fail(StrCat("pre column shadows ID ", id));
      }
    }
    for (const std::string& attr : posts) {
      for (const std::string& id : ids) {
        if (attr == id) return Fail(StrCat("post column shadows ID ", id));
      }
    }
    // Reconstruct a synthetic target schema from the relation schema: each
    // id keeps its type; pre/post columns carry the attribute types.
    std::vector<ColumnDef> target_cols;
    std::set<std::string> target_seen;
    for (const std::string& id : ids) {
      const std::optional<size_t> index = rel.FindColumn(id);
      if (!index.has_value()) {
        return Fail(StrCat("relation schema missing ID column ", id));
      }
      if (!target_seen.insert(id).second) {
        return Fail(StrCat("duplicate ID column ", id));
      }
      target_cols.push_back({id, rel.column(*index).type});
    }
    auto add_attr = [&](const std::string& attr, const std::string& col) {
      if (!target_seen.insert(attr).second) return true;
      const std::optional<size_t> index = rel.FindColumn(col);
      if (!index.has_value()) {
        return Fail(StrCat("relation schema missing column ", col));
      }
      target_cols.push_back({attr, rel.column(*index).type});
      return true;
    };
    for (const std::string& attr : pres) {
      if (!add_attr(attr, PreName(attr))) return false;
    }
    for (const std::string& attr : posts) {
      if (!add_attr(attr, PostName(attr))) return false;
    }
    *out = std::make_unique<DiffSchema>(
        diff_type, target, Schema(target_cols), ids, pres, posts,
        additive != 0);
    return true;
  }

  size_t pos_ = 0;

 private:
  const std::string& text_;
  std::string error_;
};

// Reads '(' item* ')' where each item is parsed by `item_fn`.
template <typename Fn>
bool ReadParenList(Reader& reader, Fn item_fn) {
  if (!reader.ConsumeChar('(')) return false;
  while (!reader.PeekClose()) {
    if (!item_fn(reader)) return false;
  }
  return reader.Close();
}

}  // namespace

std::string SerializeExpr(const ExprPtr& expr) {
  std::string out;
  WriteExpr(expr, &out);
  return out;
}

std::string SerializePlan(const PlanPtr& plan) {
  std::string out;
  WritePlan(plan, &out);
  return out;
}

std::string SerializeCompiledView(const CompiledView& view) {
  std::string out = "(compiled-view 1\n";
  WriteQuoted(view.view_name, &out);
  out.push_back(' ');
  WriteStrings(view.view_ids, &out);
  out.push_back(' ');
  WriteSchema(view.view_schema, &out);
  out.append("\n(plan ");
  WritePlan(view.plan, &out);
  out.append(")\n(bindings ");
  for (const InputDiffBinding& binding : view.input_bindings) {
    out.append("(binding ");
    WriteQuoted(binding.name, &out);
    out.push_back(' ');
    WriteQuoted(binding.table, &out);
    out.push_back(' ');
    WriteDiffSchema(binding.schema, &out);
    out.push_back(')');
  }
  out.append(")\n(registry ");
  for (const auto& [name, schema] : view.script.diff_registry) {
    out.append("(entry ");
    WriteQuoted(name, &out);
    out.push_back(' ');
    WriteDiffSchema(schema, &out);
    out.push_back(')');
  }
  out.append(")\n(caches ");
  WriteStrings(view.cache_tables, &out);
  out.append(")\n(steps\n");
  for (const ScriptStep& step : view.script.steps) {
    if (step.compute.has_value()) {
      const ComputeDiffStep& cs = *step.compute;
      out.append("(compute ");
      WriteQuoted(cs.out_name, &out);
      out.push_back(' ');
      WriteDiffSchema(cs.schema, &out);
      out.push_back(' ');
      WritePlan(cs.query, &out);
      out.push_back(' ');
      WriteQuoted(cs.rule, &out);
      out.push_back(' ');
      WriteStrings(cs.consumed, &out);
      out.append(StrCat(" ", cs.raw_relation ? 1 : 0, ")\n"));
    } else if (step.apply.has_value()) {
      const ApplyStep& as = *step.apply;
      out.append(StrCat("(apply ", static_cast<int>(as.phase), " "));
      WriteQuoted(as.diff_name, &out);
      out.push_back(' ');
      WriteQuoted(as.target_table, &out);
      out.push_back(' ');
      WriteQuoted(as.returning_pre, &out);
      out.push_back(' ');
      WriteQuoted(as.returning_post, &out);
      // Compose-time-merged diffs ride in a trailing (also ...) block; the
      // block is omitted when empty so unmerged scripts keep the byte format
      // every earlier serializer version produced.
      if (!as.extra_diff_names.empty()) {
        out.append(" (also");
        for (const std::string& extra : as.extra_diff_names) {
          out.push_back(' ');
          WriteQuoted(extra, &out);
        }
        out.push_back(')');
      }
      out.append(")\n");
    } else if (step.aggregate.has_value()) {
      const AggregateStep& agg = *step.aggregate;
      out.append(StrCat("(aggstep ", static_cast<int>(agg.mode), " "));
      WriteQuoted(agg.node_name, &out);
      out.push_back(' ');
      WriteSchema(agg.input_schema, &out);
      out.push_back(' ');
      WriteSchema(agg.output_schema, &out);
      out.push_back(' ');
      WriteStrings(agg.group_by, &out);
      out.append(" (");
      for (const AggSpec& spec : agg.aggs) {
        out.append(StrCat("(spec ", static_cast<int>(spec.func), " "));
        if (spec.arg != nullptr) {
          WriteExpr(spec.arg, &out);
        } else {
          out.append("(noarg)");
        }
        out.push_back(' ');
        WriteQuoted(spec.name, &out);
        out.push_back(')');
      }
      out.append(") (");
      for (const AggregateInput& input : agg.inputs) {
        out.append(StrCat("(in ", static_cast<int>(input.type), " "));
        WriteQuoted(input.pre_rows, &out);
        out.push_back(' ');
        WriteQuoted(input.post_rows, &out);
        out.push_back(')');
      }
      out.append(") (");
      for (const auto& [name, schema] : agg.input_diffs) {
        out.append("(idiff ");
        WriteQuoted(name, &out);
        out.push_back(' ');
        WriteDiffSchema(schema, &out);
        out.push_back(')');
      }
      out.append(") ");
      if (agg.input_post_plan != nullptr) {
        out.append("(post ");
        WritePlan(agg.input_post_plan, &out);
        out.push_back(')');
      } else {
        out.append("(nopost)");
      }
      out.push_back(' ');
      if (agg.input_pre_plan != nullptr) {
        out.append("(pre ");
        WritePlan(agg.input_pre_plan, &out);
        out.push_back(')');
      } else {
        out.append("(nopre)");
      }
      out.push_back(' ');
      WriteQuoted(agg.opcache_table, &out);
      out.push_back(' ');
      WriteQuoted(agg.out_update, &out);
      out.push_back(' ');
      WriteQuoted(agg.out_insert, &out);
      out.push_back(' ');
      WriteQuoted(agg.out_delete, &out);
      out.append(")\n");
    }
  }
  out.append("))\n");
  return out;
}

LoadResult LoadCompiledView(const std::string& text, const Database& db) {
  LoadResult result;
  Reader reader(text);
  auto fail = [&](const std::string& message) {
    result.error = reader.error().empty()
                       ? message
                       : StrCat(message, ": ", reader.error());
    return result;
  };

  if (!reader.Open("compiled-view")) return fail("not a compiled view");
  int64_t version = 0;
  if (!reader.ReadInt(&version) || version != 1) {
    return fail("unsupported version");
  }
  CompiledView& view = result.view;
  if (!reader.ReadQuoted(&view.view_name) ||
      !reader.ReadStrings(&view.view_ids) ||
      !reader.ReadSchema(&view.view_schema)) {
    return fail("bad header");
  }
  if (!reader.Open("plan")) return fail("missing plan");
  view.plan = reader.ReadPlan();
  if (view.plan == nullptr || !reader.Close()) return fail("bad plan");

  if (!reader.Open("bindings")) return fail("missing bindings");
  while (reader.Open("binding")) {
    InputDiffBinding binding;
    std::unique_ptr<DiffSchema> schema;
    if (!reader.ReadQuoted(&binding.name) ||
        !reader.ReadQuoted(&binding.table) ||
        !reader.ReadDiffSchema(&schema) || !reader.Close()) {
      return fail("bad binding");
    }
    binding.schema = *schema;
    view.input_bindings.push_back(std::move(binding));
  }
  if (!reader.Close()) return fail("bad bindings");

  if (!reader.Open("registry")) return fail("missing registry");
  while (reader.Open("entry")) {
    std::string name;
    std::unique_ptr<DiffSchema> schema;
    if (!reader.ReadQuoted(&name) || !reader.ReadDiffSchema(&schema) ||
        !reader.Close()) {
      return fail("bad registry entry");
    }
    view.script.diff_registry.emplace_back(name, *schema);
  }
  if (!reader.Close()) return fail("bad registry");

  if (!reader.Open("caches")) return fail("missing caches");
  if (!reader.ReadStrings(&view.cache_tables) || !reader.Close()) {
    return fail("bad caches");
  }

  if (!reader.Open("steps")) return fail("missing steps");
  while (true) {
    if (reader.Open("compute")) {
      ComputeDiffStep step;
      std::unique_ptr<DiffSchema> schema;
      int64_t raw = 0;
      if (!reader.ReadQuoted(&step.out_name) ||
          !reader.ReadDiffSchema(&schema)) {
        return fail("bad compute step");
      }
      step.schema = *schema;
      step.query = reader.ReadPlan();
      if (step.query == nullptr || !reader.ReadQuoted(&step.rule) ||
          !reader.ReadStrings(&step.consumed) || !reader.ReadInt(&raw) ||
          !reader.Close()) {
        return fail("bad compute step");
      }
      step.raw_relation = raw != 0;
      view.script.steps.push_back({std::move(step), {}, {}});
      continue;
    }
    if (reader.Open("apply")) {
      ApplyStep step;
      int64_t phase = 0;
      if (!reader.ReadEnum("maintenance phase",
                           static_cast<int64_t>(MaintPhase::kViewUpdate),
                           &phase) ||
          !reader.ReadQuoted(&step.diff_name) ||
          !reader.ReadQuoted(&step.target_table) ||
          !reader.ReadQuoted(&step.returning_pre) ||
          !reader.ReadQuoted(&step.returning_post)) {
        return fail("bad apply step");
      }
      if (reader.Open("also")) {
        while (!reader.PeekClose()) {
          std::string extra;
          if (!reader.ReadQuoted(&extra)) return fail("bad apply step");
          step.extra_diff_names.push_back(std::move(extra));
        }
        if (!reader.Close()) return fail("bad apply step");
      }
      if (!reader.Close()) return fail("bad apply step");
      step.phase = static_cast<MaintPhase>(phase);
      view.script.steps.push_back({{}, std::move(step), {}});
      continue;
    }
    if (reader.Open("aggstep")) {
      AggregateStep step;
      int64_t mode = 0;
      if (!reader.ReadEnum(
              "aggregate mode",
              static_cast<int64_t>(AggregateStep::Mode::kRecompute), &mode) ||
          !reader.ReadQuoted(&step.node_name) ||
          !reader.ReadSchema(&step.input_schema) ||
          !reader.ReadSchema(&step.output_schema) ||
          !reader.ReadStrings(&step.group_by)) {
        return fail("bad aggregate step");
      }
      step.mode = static_cast<AggregateStep::Mode>(mode);
      if (!ReadParenList(reader, [&](Reader& r) {
            if (!r.Open("spec")) return false;
            AggSpec spec;
            int64_t func = 0;
            if (!r.ReadEnum("agg func", static_cast<int64_t>(AggFunc::kMax),
                            &func)) {
              return false;
            }
            spec.func = static_cast<AggFunc>(func);
            if (r.Open("noarg")) {
              if (!r.Close()) return false;
            } else {
              spec.arg = r.ReadExpr();
              if (spec.arg == nullptr) return false;
            }
            if (!r.ReadQuoted(&spec.name) || !r.Close()) return false;
            step.aggs.push_back(std::move(spec));
            return true;
          })) {
        return fail("bad aggregate specs");
      }
      if (!ReadParenList(reader, [&](Reader& r) {
            if (!r.Open("in")) return false;
            AggregateInput input;
            int64_t type = 0;
            if (!r.ReadEnum("diff type",
                            static_cast<int64_t>(DiffType::kUpdate), &type) ||
                !r.ReadQuoted(&input.pre_rows) ||
                !r.ReadQuoted(&input.post_rows) || !r.Close()) {
              return false;
            }
            input.type = static_cast<DiffType>(type);
            step.inputs.push_back(std::move(input));
            return true;
          })) {
        return fail("bad aggregate inputs");
      }
      if (!ReadParenList(reader, [&](Reader& r) {
            if (!r.Open("idiff")) return false;
            std::string name;
            std::unique_ptr<DiffSchema> schema;
            if (!r.ReadQuoted(&name) || !r.ReadDiffSchema(&schema) ||
                !r.Close()) {
              return false;
            }
            step.input_diffs.emplace_back(name, *schema);
            return true;
          })) {
        return fail("bad aggregate idiffs");
      }
      if (reader.Open("post")) {
        step.input_post_plan = reader.ReadPlan();
        if (step.input_post_plan == nullptr || !reader.Close()) {
          return fail("bad post plan");
        }
      } else if (reader.Open("nopost")) {
        if (!reader.Close()) return fail("bad nopost");
      }
      if (reader.Open("pre")) {
        step.input_pre_plan = reader.ReadPlan();
        if (step.input_pre_plan == nullptr || !reader.Close()) {
          return fail("bad pre plan");
        }
      } else if (reader.Open("nopre")) {
        if (!reader.Close()) return fail("bad nopre");
      }
      if (!reader.ReadQuoted(&step.opcache_table) ||
          !reader.ReadQuoted(&step.out_update) ||
          !reader.ReadQuoted(&step.out_insert) ||
          !reader.ReadQuoted(&step.out_delete) || !reader.Close()) {
        return fail("bad aggregate tail");
      }
      view.script.steps.push_back({{}, {}, std::move(step)});
      continue;
    }
    break;
  }
  if (!reader.Close()) return fail("bad steps");
  if (!reader.Close()) return fail("bad trailer");

  // Validate against the catalog: the view and caches must exist.
  if (!db.HasTable(view.view_name)) {
    result.error = StrCat("view table '", view.view_name,
                          "' does not exist — the repository stores "
                          "scripts, not data; materialize first");
    return result;
  }
  for (const std::string& cache : view.cache_tables) {
    if (!db.HasTable(cache)) {
      result.error = StrCat("cache table '", cache, "' does not exist");
      return result;
    }
  }
  result.ok = true;
  return result;
}

}  // namespace idivm
