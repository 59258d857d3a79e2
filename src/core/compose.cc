#include "src/core/compose.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/algebra/evaluator.h"
#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/minimize.h"

namespace idivm {

namespace {

// Rebuilds an operator node over new children (used to form subview plans).
PlanPtr RebuildWithChildren(const PlanNode* node,
                            std::vector<PlanPtr> children) {
  switch (node->kind()) {
    case PlanKind::kSelect:
      return PlanNode::Select(children[0], node->predicate());
    case PlanKind::kProject:
      return PlanNode::Project(children[0], node->project_items());
    case PlanKind::kJoin:
      return PlanNode::Join(children[0], children[1], node->predicate());
    case PlanKind::kSemiJoin:
      return PlanNode::SemiJoin(children[0], children[1], node->predicate());
    case PlanKind::kAntiSemiJoin:
      return PlanNode::AntiSemiJoin(children[0], children[1],
                                    node->predicate());
    case PlanKind::kUnionAll:
      return PlanNode::UnionAll(children[0], children[1],
                                node->branch_column());
    case PlanKind::kAggregate:
      return PlanNode::Aggregate(children[0], node->group_by(),
                                 node->aggregates());
    case PlanKind::kMaterialize:
      return PlanNode::Materialize(children[0]);
    case PlanKind::kCoalesceProbe:
      return PlanNode::CoalesceProbe(children[0], children[1],
                                     node->table_name());
    case PlanKind::kScan:
    case PlanKind::kRelationRef:
      IDIVM_UNREACHABLE("leaves have no children");
  }
  IDIVM_UNREACHABLE("bad PlanKind");
}

int DiffTypeOrder(DiffType type) {
  switch (type) {
    case DiffType::kDelete:
      return 0;
    case DiffType::kUpdate:
      return 1;
    case DiffType::kInsert:
      return 2;
  }
  return 3;
}

struct NodeDiff {
  std::string name;
  DiffSchema schema;
};

class Composer {
 public:
  Composer(Database* db, const IdAnnotatedPlan* annotated,
           const std::string& view_name,
           const GeneratedDiffSchemas* base_schemas,
           const CompilerOptions& options, CompiledView* out)
      : db_(db),
        annotated_(annotated),
        view_name_(view_name),
        base_schemas_(base_schemas),
        options_(options),
        out_(out) {}

  // Composes the subview rooted at `node`. Returns the diffs describing its
  // changes; sets `post_plan`/`pre_plan` to plans reading the subview.
  std::vector<NodeDiff> Compose(const PlanPtr& node, PlanPtr* post_plan,
                                PlanPtr* pre_plan) {
    switch (node->kind()) {
      case PlanKind::kScan:
        return ComposeScan(node, post_plan, pre_plan);
      case PlanKind::kAggregate:
        return ComposeAggregate(node, post_plan, pre_plan);
      case PlanKind::kRelationRef:
        IDIVM_UNREACHABLE("view plans cannot contain relation refs");
      default:
        return ComposeOperator(node, post_plan, pre_plan);
    }
  }

 private:
  std::string FreshName(const std::string& stem) {
    return StrCat(stem, "_", counter_++);
  }

  void RegisterDiff(const std::string& name, const DiffSchema& schema) {
    out_->script.diff_registry.emplace_back(name, schema);
  }

  std::vector<NodeDiff> ComposeScan(const PlanPtr& node, PlanPtr* post_plan,
                                    PlanPtr* pre_plan) {
    const std::string& table = node->table_name();
    *post_plan = PlanNode::Scan(table, StateTag::kPost);
    *pre_plan = PlanNode::Scan(table, StateTag::kPre);
    std::vector<NodeDiff> out;
    for (const DiffSchema& schema : base_schemas_->For(table)) {
      const std::string name =
          FreshName(StrCat("in_", DiffTypeName(schema.type())[0] == 'u'
                                      ? "u"
                                      : DiffTypeName(schema.type()),
                           "_", table));
      out_->input_bindings.push_back({name, table, schema});
      RegisterDiff(name, schema);
      out_->dag.AddNode({name, StrCat("base i-diff ", schema.ToString()),
                         {}, false});
      out.push_back({name, schema});
    }
    return out;
  }

  std::vector<NodeDiff> ComposeOperator(const PlanPtr& node,
                                        PlanPtr* post_plan,
                                        PlanPtr* pre_plan) {
    std::vector<std::vector<NodeDiff>> child_diffs;
    std::vector<PlanPtr> child_post;
    std::vector<PlanPtr> child_pre;
    for (const PlanPtr& child : node->children()) {
      PlanPtr post;
      PlanPtr pre;
      child_diffs.push_back(Compose(child, &post, &pre));
      child_post.push_back(std::move(post));
      child_pre.push_back(std::move(pre));
    }
    *post_plan = RebuildWithChildren(node.get(), child_post);
    *pre_plan = RebuildWithChildren(node.get(), child_pre);

    RuleContext ctx;
    ctx.op = node.get();
    ctx.db = db_;
    ctx.node_name = FreshName("op");
    ctx.output_schema = InferSchema(node, *db_);
    ctx.output_ids = annotated_->IdsOf(node.get());
    ctx.input_post = child_post;
    ctx.input_pre = child_pre;
    for (size_t i = 0; i < node->children().size(); ++i) {
      ctx.input_schemas.push_back(InferSchema(node->child(i), *db_));
      ctx.input_ids.push_back(annotated_->IdsOf(node->child(i).get()));
    }
    ctx.options = options_.rules;

    // Set IDIVM_TRACE_COMPOSE=1 to log rule instantiation (debugging).
    static const bool trace = std::getenv("IDIVM_TRACE_COMPOSE") != nullptr;
    std::vector<NodeDiff> out;
    for (size_t i = 0; i < child_diffs.size(); ++i) {
      for (const NodeDiff& in : child_diffs[i]) {
        if (trace) {
          std::fprintf(stderr, "[compose] %s (kind %d) <- %s %s\n",
                       ctx.node_name.c_str(),
                       static_cast<int>(node->kind()), in.name.c_str(),
                       in.schema.ToString().c_str());
        }
        std::vector<PropagatedDiff> produced =
            PropagateThroughOperator(ctx, in.name, in.schema, i);
        for (PropagatedDiff& p : produced) {
          // Identity pass-through (e.g. ∆u_V = ∆u through a join whose
          // condition attrs are untouched): fuse — reuse the incoming diff
          // instance instead of copying it under a new name. This keeps
          // base-table diffs recognizable for the Fig. 8 minimizer.
          if (p.query->kind() == PlanKind::kRelationRef &&
              p.query->ref_name() == in.name &&
              p.schema.relation_schema().ColumnNames() ==
                  in.schema.relation_schema().ColumnNames()) {
            out_->dag.AddNode({in.name,
                               StrCat(p.rule_description, " [fused]"),
                               {in.name}, false});
            out.push_back({in.name, p.schema});
            continue;
          }
          const std::string name = FreshName(
              StrCat("d", DiffTypeName(p.schema.type()), "_", ctx.node_name));
          ComputeDiffStep step;
          step.out_name = name;
          step.schema = p.schema;
          step.query = p.query;
          step.rule = p.rule_description;
          step.consumed = {in.name};
          out_->script.steps.push_back({std::move(step), {}, {}});
          RegisterDiff(name, p.schema);
          out_->dag.AddNode({name, p.rule_description, {in.name}, false});
          out.push_back({name, p.schema});
        }
      }
    }
    return out;
  }

  std::vector<NodeDiff> ComposeAggregate(const PlanPtr& node,
                                         PlanPtr* post_plan,
                                         PlanPtr* pre_plan) {
    const PlanPtr& child = node->child(0);
    PlanPtr child_post;
    PlanPtr child_pre;
    std::vector<NodeDiff> child_diffs = Compose(child, &child_post, &child_pre);

    const Schema child_schema = InferSchema(child, *db_);
    const std::vector<std::string>& child_ids =
        annotated_->IdsOf(child.get());
    const Schema out_schema = InferSchema(node, *db_);
    const std::string node_name = FreshName("agg");

    // ---- cache decision (Section 4 Pass 3 / footnote 6) ----
    // A bare stored table needs no cache; anything wider gets one so the γ
    // rules can read Input through an index instead of recomputing the
    // subview from base tables.
    const bool make_cache =
        options_.use_caches && child->kind() != PlanKind::kScan;

    AggregateStep step;
    step.node_name = node_name;
    step.input_schema = child_schema;
    step.output_schema = out_schema;
    step.group_by = node->group_by();
    step.aggs = node->aggregates();

    // Sort incoming diffs: deletes, updates, inserts (safe apply order).
    std::stable_sort(child_diffs.begin(), child_diffs.end(),
                     [](const NodeDiff& a, const NodeDiff& b) {
                       return DiffTypeOrder(a.schema.type()) <
                              DiffTypeOrder(b.schema.type());
                     });

    if (make_cache) {
      const std::string cache_name =
          StrCat("__cache_", view_name_, "_", counter_++);
      Table& cache = db_->CreateTable(cache_name, child_schema, child_ids);
      {
        // Populate from the current base data (view-definition time).
        EvalContext ctx;
        ctx.db = db_;
        cache.BulkLoadUncounted(Evaluate(child_post, ctx));
      }
      out_->cache_tables.push_back(cache_name);
      step.input_post_plan = PlanNode::Scan(cache_name, StateTag::kPost);
      // Apply every incoming diff to the cache with RETURNING; the captured
      // images are the row-granularity changes the γ rules consume. Runs of
      // same-type diffs merge into one batched APPLY step — one fault site,
      // one RETURNING pair, one γ input — instead of N serialized rules on
      // the same per-table edge. Concatenating the captured images is
      // γ-equivalent: the incremental rules subtract all pre images and add
      // all post images regardless of which diff produced them.
      for (size_t d = 0; d < child_diffs.size();) {
        const NodeDiff& in = child_diffs[d];
        ApplyStep apply;
        apply.diff_name = in.name;
        apply.target_table = cache_name;
        apply.phase = MaintPhase::kCacheUpdate;
        size_t e = d + 1;
        while (e < child_diffs.size() &&
               child_diffs[e].schema.type() == in.schema.type()) {
          apply.extra_diff_names.push_back(child_diffs[e].name);
          ++e;
        }
        apply.returning_pre = FreshName(StrCat("ret_pre_", node_name));
        apply.returning_post = FreshName(StrCat("ret_post_", node_name));
        step.inputs.push_back(
            {in.schema.type(), apply.returning_pre, apply.returning_post});
        out_->script.steps.push_back({{}, std::move(apply), {}});
        d = e;
      }
    } else {
      // Input is a stored base table (or caches are disabled): derive the
      // row-granularity changes from the diffs themselves. The generated
      // base-table diff schemas carry full pre-state, so both images are
      // recoverable without data accesses.
      step.input_post_plan = child_post;
      step.input_pre_plan = child_pre;
      for (const NodeDiff& in : child_diffs) {
        AggregateInput agg_in;
        agg_in.type = in.schema.type();
        auto emit_rows = [&](bool post_state) -> std::string {
          const bool covers = DiffCoversSchemaState(child_schema, child_ids,
                                                    in.schema, post_state);
          const std::string rows_name =
              FreshName(StrCat(post_state ? "rows_post_" : "rows_pre_",
                               node_name));
          ComputeDiffStep rows_step;
          rows_step.out_name = rows_name;
          // Plain-row relations are registered as pseudo-diffs: reuse the
          // diff machinery by declaring an insert-diff-shaped schema is not
          // possible (plain rows); instead the executor stores them as raw
          // transient relations. We mark that by an empty rule and a schema
          // equal to the input diff (unused).
          rows_step.schema = in.schema;
          rows_step.raw_relation = true;
          if (covers) {
            rows_step.query =
                DiffAsPlainRows(in.name, in.schema, child_schema, post_state);
          } else {
            rows_step.query = PlanNode::Materialize(SemiJoinInputWithDiff(
                post_state ? child_post : child_pre, in.name, in.schema));
          }
          rows_step.rule = StrCat("γ input rows (",
                                  post_state ? "post" : "pre", ")");
          rows_step.consumed = {in.name};
          out_->script.steps.push_back({std::move(rows_step), {}, {}});
          return rows_name;
        };
        switch (in.schema.type()) {
          case DiffType::kInsert:
            agg_in.post_rows = emit_rows(true);
            break;
          case DiffType::kDelete:
            agg_in.pre_rows = emit_rows(false);
            break;
          case DiffType::kUpdate:
            agg_in.pre_rows = emit_rows(false);
            agg_in.post_rows = emit_rows(true);
            break;
        }
        step.inputs.push_back(agg_in);
      }
    }

    // ---- mode decision ----
    // The incremental rules need *exact, aligned* row images: either the
    // cache RETURNING capture, or images derived from the diffs themselves
    // when the input is a bare stored table. Without either (caches
    // disabled over a complex subview) the images of different diffs can
    // reflect inconsistent intermediate states, so the general recompute
    // rule — which reads one consistent Input_post — is used instead.
    const bool images_exact = make_cache || child->kind() == PlanKind::kScan;
    bool incremental = options_.specialized_aggregate_rules && images_exact;
    bool needs_opcache = false;
    for (const AggSpec& agg : node->aggregates()) {
      if (agg.func == AggFunc::kMin || agg.func == AggFunc::kMax) {
        incremental = false;
      }
      if (agg.func == AggFunc::kAvg) needs_opcache = true;
    }
    const bool is_root = node.get() == annotated_->plan.get();
    // Non-root aggregates must emit absolute update values for the operators
    // above; the SUM+COUNT operator cache (Table 12) provides the old values
    // without extra probes.
    if (!is_root) needs_opcache = true;
    step.mode = incremental ? AggregateStep::Mode::kIncremental
                            : AggregateStep::Mode::kRecompute;

    if (incremental && needs_opcache) {
      const std::string opcache_name =
          StrCat("__opcache_", view_name_, "_", counter_++);
      // Layout: group columns, then per spec a (__sum_<name>, __cnt_<name>)
      // pair, then __count (group cardinality). The AggregateExecutor
      // depends on this order.
      std::vector<ColumnDef> cols;
      for (const std::string& g : node->group_by()) {
        cols.push_back({g, child_schema.column(
                               child_schema.ColumnIndex(g)).type});
      }
      for (const AggSpec& agg : node->aggregates()) {
        cols.push_back({StrCat("__sum_", agg.name), DataType::kDouble});
        cols.push_back({StrCat("__cnt_", agg.name), DataType::kInt64});
      }
      cols.push_back({"__count", DataType::kInt64});
      Table& opcache =
          db_->CreateTable(opcache_name, Schema(cols), node->group_by());
      {
        // Populate: per group and per spec, the sum of the aggregated
        // expression (NULLs as 0) and its non-NULL count, plus the row
        // count.
        std::vector<AggSpec> specs;
        for (const AggSpec& agg : node->aggregates()) {
          if (agg.arg == nullptr) {
            // COUNT(*): sum of 1 per row; non-null count = row count.
            specs.push_back({AggFunc::kSum, Lit(Value(int64_t{1})),
                             StrCat("__sum_", agg.name)});
            specs.push_back({AggFunc::kCount, nullptr,
                             StrCat("__cnt_", agg.name)});
          } else {
            specs.push_back(
                {AggFunc::kSum,
                 Expr::Function("coalesce", {agg.arg, Lit(Value(0.0))}),
                 StrCat("__sum_", agg.name)});
            specs.push_back(
                {AggFunc::kCount, agg.arg, StrCat("__cnt_", agg.name)});
          }
        }
        specs.push_back({AggFunc::kCount, nullptr, "__count"});
        PlanPtr plan = PlanNode::Aggregate(
            make_cache ? step.input_post_plan : child_post,
            node->group_by(), specs);
        EvalContext ctx;
        ctx.db = db_;
        Relation raw = Evaluate(plan, ctx);
        // Reorder/cast into the opcache layout (sums as double, counts as
        // int64, NULL sums normalized to 0).
        Relation data(opcache.schema());
        const Schema& rsch = raw.schema();
        for (const Row& row : raw.rows()) {
          Row out_row;
          for (const ColumnDef& col : opcache.schema().columns()) {
            Value v = row[rsch.ColumnIndex(col.name)];
            if (col.name.rfind("__sum_", 0) == 0) {
              v = v.is_null() ? Value(0.0) : Value(v.NumericAsDouble());
            }
            out_row.push_back(std::move(v));
          }
          data.Append(std::move(out_row));
        }
        opcache.BulkLoadUncounted(data);
        if (!options_.charge_materialization) db_->stats().Reset();
      }
      out_->cache_tables.push_back(opcache_name);
      step.opcache_table = opcache_name;
    }

    // ---- output diffs ----
    std::vector<std::string> agg_names;
    for (const AggSpec& agg : node->aggregates()) {
      agg_names.push_back(agg.name);
    }
    std::vector<NodeDiff> out;
    {
      DiffSchema upd(DiffType::kUpdate, node_name, out_schema,
                     node->group_by(), {}, agg_names,
                     /*additive=*/incremental && !needs_opcache);
      step.out_update = FreshName(StrCat("du_", node_name));
      RegisterDiff(step.out_update, upd);
      out.push_back({step.out_update, upd});
      DiffSchema ins(DiffType::kInsert, node_name, out_schema,
                     node->group_by(), {}, agg_names);
      step.out_insert = FreshName(StrCat("di_", node_name));
      RegisterDiff(step.out_insert, ins);
      out.push_back({step.out_insert, ins});
      DiffSchema del(DiffType::kDelete, node_name, out_schema,
                     node->group_by(), {}, {});
      step.out_delete = FreshName(StrCat("dd_", node_name));
      RegisterDiff(step.out_delete, del);
      out.push_back({step.out_delete, del});
    }

    std::vector<std::string> consumed;
    for (const NodeDiff& in : child_diffs) consumed.push_back(in.name);
    out_->dag.AddNode({StrCat(step.out_update, "/", step.out_insert, "/",
                              step.out_delete),
                       StrCat("γ blocking rule (",
                              incremental ? "incremental" : "recompute", ")"),
                       consumed, /*blocking=*/true});

    // The subview rooted at the aggregate: recompute over its input (the
    // cache when one exists). Upper operators rarely need it (their general
    // branches), but keep it exact. Capture before moving `step`.
    const PlanPtr agg_input =
        make_cache ? step.input_post_plan : child_post;
    out_->script.steps.push_back({{}, {}, std::move(step)});
    *post_plan = RebuildWithChildren(node.get(), {agg_input});
    *pre_plan = RebuildWithChildren(node.get(), {child_pre});
    return out;
  }

  Database* db_;
  const IdAnnotatedPlan* annotated_;
  std::string view_name_;
  const GeneratedDiffSchemas* base_schemas_;
  CompilerOptions options_;
  CompiledView* out_;
  int counter_ = 0;
};

// ---- Section 9 extension: view-assisted insert i-diffs ----------------
//
// Rewrites every post-state base-table Scan inside an insert-diff delta
// query into a CoalesceProbe whose primary path reads the attributes from a
// covering intermediate cache. Sound because a keyed probe covering the
// base table's primary key returns (after dedup) exactly the base row's
// attribute values whenever the cache holds any derived row; the executor
// checks the key coverage and staleness dynamically and falls back to the
// base table otherwise.
PlanPtr RewriteWithViewAssist(const PlanPtr& plan,
                              const std::vector<std::string>& caches,
                              const Database& db) {
  if (plan->kind() == PlanKind::kScan && plan->state() == StateTag::kPost &&
      db.HasTable(plan->table_name())) {
    const Table& base = db.GetTable(plan->table_name());
    for (const std::string& cache_name : caches) {
      if (cache_name.rfind("__opcache_", 0) == 0) continue;
      if (cache_name == plan->table_name()) continue;
      const Table& cache = db.GetTable(cache_name);
      bool covers = true;
      for (const ColumnDef& col : base.schema().columns()) {
        if (!cache.schema().HasColumn(col.name)) {
          covers = false;
          break;
        }
      }
      if (!covers) continue;
      PlanPtr primary = ProjectColumns(PlanNode::Scan(cache_name),
                                       base.schema().ColumnNames());
      return PlanNode::CoalesceProbe(std::move(primary), plan,
                                     plan->table_name());
    }
    return plan;
  }
  if (plan->children().empty()) return plan;
  std::vector<PlanPtr> children;
  bool changed = false;
  for (const PlanPtr& child : plan->children()) {
    PlanPtr rewritten = RewriteWithViewAssist(child, caches, db);
    changed |= rewritten != child;
    children.push_back(std::move(rewritten));
  }
  if (!changed) return plan;
  return RebuildWithChildren(plan.get(), children);
}

}  // namespace

CompiledView CompileView(const std::string& view_name, const PlanPtr& plan,
                         Database& db, const CompilerOptions& options) {
  CompiledView out;
  out.view_name = view_name;
  out.options = options;

  IdAnnotatedPlan annotated = InferIds(plan, db);
  out.plan = annotated.plan;
  out.view_ids = annotated.IdsOf(annotated.plan.get());
  out.view_schema = InferSchema(annotated.plan, db);
  const GeneratedDiffSchemas base_schemas =
      GenerateBaseDiffSchemas(annotated, db);

  Composer composer(&db, &annotated, view_name, &base_schemas, options, &out);
  PlanPtr post_plan;
  PlanPtr pre_plan;
  std::vector<NodeDiff> root_diffs =
      composer.Compose(annotated.plan, &post_plan, &pre_plan);

  // Materialize the view.
  Table& view = db.CreateTable(view_name, out.view_schema, out.view_ids);
  {
    EvalContext ctx;
    ctx.db = &db;
    view.BulkLoadUncounted(Evaluate(annotated.plan, ctx));
    if (!options.charge_materialization) db.stats().Reset();
  }

  // Apply root diffs to the view: deletes, updates, inserts.
  std::stable_sort(root_diffs.begin(), root_diffs.end(),
                   [](const NodeDiff& a, const NodeDiff& b) {
                     return DiffTypeOrder(a.schema.type()) <
                            DiffTypeOrder(b.schema.type());
                   });
  for (const NodeDiff& d : root_diffs) {
    ApplyStep apply;
    apply.diff_name = d.name;
    apply.target_table = view_name;
    apply.phase = MaintPhase::kViewUpdate;
    out.script.steps.push_back({{}, std::move(apply), {}});
  }

  if (options.minimize) {
    MinimizeScript(&out.script, db);
  }

  if (options.view_assisted_inserts) {
    for (ScriptStep& step : out.script.steps) {
      if (step.compute.has_value() &&
          step.compute->schema.type() == DiffType::kInsert) {
        step.compute->query = RewriteWithViewAssist(
            step.compute->query, out.cache_tables, db);
      }
    }
  }
  return out;
}

}  // namespace idivm
