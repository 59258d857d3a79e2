#include "src/exec/compiler.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/physical_plan.h"
#include "src/common/str_util.h"
#include "src/diff/apply.h"
#include "src/core/step_access.h"
#include "src/obs/metrics.h"

namespace idivm {
namespace exec {
namespace {

// `status` with the step it came from.
Status InStep(const std::string& what, const Status& status) {
  return CorruptScriptError(StrCat(what, ": ", status.message()));
}

class ScriptCompiler {
 public:
  ScriptCompiler(CompiledProgram* p, const Database& db) : p_(p), db_(db) {}

  Status Run(const std::vector<InputDiffBinding>& input_bindings) {
    // Input bindings are routed every epoch (possibly empty), so their
    // names are bound from the start.
    for (const InputDiffBinding& binding : input_bindings) {
      IDIVM_RETURN_IF_ERROR(BindInput(binding));
    }
    const DeltaScript& script = p_->script;
    const size_t n = script.steps.size();

    // How many sites read each transient name: compute-plan refs, APPLY
    // inputs and γ inputs (row sets, accumulated diffs and recompute-probe
    // plan refs). A fused compute whose only reader is the piped APPLY
    // skips slot publication.
    std::map<std::string, int> readers;
    for (const ScriptStep& step : script.steps) {
      std::set<std::string> refs;
      if (step.compute.has_value()) {
        CollectTransientRefs(step.compute->query, &refs);
      } else if (step.apply.has_value()) {
        refs.insert(step.apply->diff_name);
        for (const std::string& extra : step.apply->extra_diff_names) {
          refs.insert(extra);
        }
      } else if (step.aggregate.has_value()) {
        const AggregateStep& ag = *step.aggregate;
        for (const AggregateInput& in : ag.inputs) {
          refs.insert(in.pre_rows);
          refs.insert(in.post_rows);
        }
        for (const auto& [d, schema] : ag.input_diffs) refs.insert(d);
        CollectTransientRefs(ag.input_post_plan, &refs);
        CollectTransientRefs(ag.input_pre_plan, &refs);
      }
      for (const std::string& r : refs) ++readers[r];
    }

    std::vector<StepAccess>& access = p_->steps;
    access.resize(n);
    std::vector<MicroOp> mops(n);
    for (size_t i = 0; i < n; ++i) {
      access[i] = AnalyzeStep(script.steps[i]);
      IDIVM_RETURN_IF_ERROR(LowerStep(i, script.steps[i], &mops[i]));
    }

    // Instruction grouping: fuse compute(i) into apply(i+1) when the apply
    // consumes exactly the diff the compute produced, then merge runs of
    // adjacent applies to the same target into the same instruction. Fused
    // steps keep per-step arenas, fault sites and spans — only the
    // hand-off through the shared transient store is eliminated.
    size_t i = 0;
    while (i < n) {
      Instruction inst;
      size_t j = i + 1;
      const ScriptStep& step = script.steps[i];
      if (step.compute.has_value() && i + 1 < n &&
          script.steps[i + 1].apply.has_value() &&
          script.steps[i + 1].apply->diff_name == step.compute->out_name &&
          !step.compute->raw_relation) {
        mops[i].fuse_to_next = true;
        mops[i].publish_output = readers[step.compute->out_name] > 1;
        mops[i + 1].piped_input = true;
        inst.ops.push_back(std::move(mops[i]));
        inst.access = access[i];
        inst.ops.push_back(std::move(mops[i + 1]));
        inst.access.MergeFrom(access[i + 1]);
        j = i + 2;
      } else {
        inst.ops.push_back(std::move(mops[i]));
        inst.access = access[i];
      }
      if (inst.ops.back().kind == MicroOp::Kind::kApply) {
        const std::string target = inst.ops.back().target;
        while (j < n && script.steps[j].apply.has_value() &&
               script.steps[j].apply->target_table == target) {
          inst.ops.push_back(std::move(mops[j]));
          inst.access.MergeFrom(access[j]);
          ++j;
        }
      }
      p_->instructions.push_back(std::move(inst));
      i = j;
    }
    p_->fused_steps = static_cast<int64_t>(n) -
                      static_cast<int64_t>(p_->instructions.size());
    return OkStatus();
  }

 private:
  // Creates (or finds) the slot register for `name`.
  int Slot(const std::string& name, const Schema& schema) {
    const auto it = slot_index_.find(name);
    if (it != slot_index_.end()) return it->second;
    const int id = static_cast<int>(p_->slots.size());
    p_->slots.push_back(CompiledProgram::SlotDef{name, schema});
    slot_index_.emplace(name, id);
    return id;
  }

  // Binds `name` to the relation a step produces, with `schema`, from this
  // step on. Readers bind column offsets to a register, so a name is only
  // ever produced with one column list.
  Status Produce(const std::string& name, const Schema& schema, int* slot) {
    const auto it = slot_index_.find(name);
    if (it != slot_index_.end() &&
        p_->slots[it->second].schema.ColumnNames() != schema.ColumnNames()) {
      return CorruptScriptError(
          StrCat("transient ", name, " produced as both ",
                 p_->slots[it->second].schema.ToString(), " and ",
                 schema.ToString()));
    }
    *slot = Slot(name, schema);
    bound_[name] = schema;
    return OkStatus();
  }

  // Binds an input diff to its register and to the offsets, in its base
  // table, of the columns it names, and adds it to the table's routes. A
  // name bound twice would fill one register twice.
  Status BindInput(const InputDiffBinding& binding) {
    const DiffSchema& ds = binding.schema;
    if (slot_index_.count(binding.name) > 0) {
      return CorruptScriptError(
          StrCat("input diff ", binding.name, " bound twice"));
    }
    InputRoute input;
    input.type = ds.type();
    IDIVM_RETURN_IF_ERROR(
        Produce(binding.name, ds.relation_schema(), &input.slot));
    for (const auto& [names, offsets] :
         {std::pair(&ds.id_columns(), &input.id_cols),
          std::pair(&ds.pre_columns(), &input.pre_cols),
          std::pair(&ds.post_columns(), &input.post_cols)}) {
      for (const std::string& col : *names) {
        if (!db_.HasTable(binding.table) ||
            !db_.GetTable(binding.table).schema().HasColumn(col)) {
          return CorruptScriptError(StrCat("input diff ", binding.name,
                                           ": no column ", col, " in table ",
                                           binding.table));
        }
        offsets->push_back(
            db_.GetTable(binding.table).schema().ColumnIndex(col));
      }
    }
    TableRoutes& routes = p_->input_tables[binding.table];
    routes.inputs.push_back(p_->inputs.size());
    if (ds.type() == DiffType::kUpdate) {
      // The update inputs of one post set share its route.
      std::vector<std::vector<size_t>>& posts = routes.update_posts;
      const auto it = std::find(posts.begin(), posts.end(), input.post_cols);
      input.post_set = static_cast<int>(it - posts.begin());
      if (it == posts.end()) posts.push_back(input.post_cols);
    }
    p_->inputs.push_back(std::move(input));
    return OkStatus();
  }

  // Binds a compute plan's transient ref to its slot register when the
  // name is bound with the ref's columns; otherwise -1, which fails the
  // lowering.
  int BindRef(const PlanNode& ref, Schema* schema) {
    const auto it = bound_.find(ref.ref_name());
    if (it == bound_.end() ||
        it->second.ColumnNames() != ref.ref_schema().ColumnNames()) {
      return -1;
    }
    *schema = it->second;
    return Slot(ref.ref_name(), it->second);
  }

  Status LowerStep(size_t i, const ScriptStep& step, MicroOp* op) {
    op->step = i;
    if (step.compute.has_value()) {
      const ComputeDiffStep& cs = *step.compute;
      const std::string what = StrCat("compute of ", cs.out_name);
      op->kind = MicroOp::Kind::kCompute;
      StatusOr<PhysicalPlan> plan =
          LowerPlan(cs.query, db_, [this](const PlanNode& ref, Schema* s) {
            return BindRef(ref, s);
          });
      if (!plan.ok()) return InStep(what, plan.status());
      op->plan = std::move(plan).value();
      CollectProbedIndexes(op->plan, &p_->indexes);
      CollectPreStateIndexes(op->plan, &p_->pre_state);
      if (cs.raw_relation) {
        return Produce(cs.out_name, InferSchema(cs.query, db_),
                       &op->out_slot);
      }
      op->out_diff = p_->script.FindDiffSchema(cs.out_name);
      if (op->out_diff == nullptr) {
        return CorruptScriptError(
            StrCat("compute of unregistered diff ", cs.out_name));
      }
      const Schema& out = op->plan.ops[op->plan.root].out_schema;
      const Schema& want = op->out_diff->relation_schema();
      if (out.ColumnNames() != want.ColumnNames()) {
        return CorruptScriptError(StrCat(what, ": output columns ",
                                         out.ToString(), " do not match ",
                                         op->out_diff->ToString()));
      }
      return Produce(cs.out_name, want, &op->out_slot);
    }
    if (step.apply.has_value()) {
      const ApplyStep& as = *step.apply;
      op->kind = MicroOp::Kind::kApply;
      op->target = as.target_table;
      if (!db_.HasTable(as.target_table)) {
        return CorruptScriptError(
            StrCat("apply to missing table ", as.target_table));
      }
      const Schema& ts = db_.GetTable(as.target_table).schema();
      std::vector<std::string> names = {as.diff_name};
      names.insert(names.end(), as.extra_diff_names.begin(),
                   as.extra_diff_names.end());
      // Every input binding is instantiated every epoch (possibly empty)
      // and compute outputs precede their applies, so boundness at this
      // step is static.
      for (const std::string& name : names) {
        ApplyDiffOp diff;
        diff.schema = p_->script.FindDiffSchema(name);
        if (diff.schema == nullptr) {
          return CorruptScriptError(
              StrCat("apply of unregistered diff ", name));
        }
        const auto it = bound_.find(name);
        if (it == bound_.end()) {
          return CorruptScriptError(StrCat("apply of unbound diff ", name));
        }
        if (it->second.ColumnNames() !=
            diff.schema->relation_schema().ColumnNames()) {
          return CorruptScriptError(StrCat("apply of ", name, ": bound as ",
                                           it->second.ToString(), ", not ",
                                           diff.schema->ToString()));
        }
        diff.in_slot = Slot(name, it->second);
        StatusOr<ApplyBinding> binding = BindApply(*diff.schema, ts);
        if (!binding.ok()) return binding.status();
        diff.binding = std::move(binding).value();
        if (diff.schema->type() != DiffType::kInsert) {
          p_->indexes.emplace(as.target_table, diff.binding.match_cols);
        }
        op->diffs.push_back(std::move(diff));
      }
      op->capture = !as.returning_pre.empty() || !as.returning_post.empty();
      if (op->capture) {
        IDIVM_RETURN_IF_ERROR(Produce(as.returning_pre, ts, &op->pre_slot));
        IDIVM_RETURN_IF_ERROR(Produce(as.returning_post, ts, &op->post_slot));
      }
      return OkStatus();
    }
    const AggregateStep& ag = *step.aggregate;
    op->kind = MicroOp::Kind::kAggregate;
    op->agg = &ag;
    return BindAggregate(i, ag, &op->bindings);
  }

  // Binds γ step `i` (BindAggregateStep), then assigns its registers and
  // lowers its recompute probe. A γ input no earlier step publishes, or
  // one laid out other than the step's input schema its offsets were bound
  // to, is a CorruptScriptError too.
  Status BindAggregate(size_t i, const AggregateStep& ag,
                       AggregateBindings* b) {
    IDIVM_RETURN_IF_ERROR(BindAggregateStep(ag, p_->script, db_, b));
    const auto input_slot = [&](const std::string& name, int* slot) {
      const auto it = bound_.find(name);
      if (it == bound_.end()) {
        return CorruptScriptError(StrCat("γ input rows missing: ", name));
      }
      if (it->second.ColumnNames() != ag.input_schema.ColumnNames()) {
        return CorruptScriptError(StrCat("γ input rows ", name, " are ",
                                         it->second.ToString(), ", not ",
                                         ag.input_schema.ToString()));
      }
      *slot = Slot(name, it->second);
      return OkStatus();
    };
    for (const AggregateInput& in : ag.inputs) {
      AggregateBindings::Input regs;
      if (in.type != DiffType::kInsert) {
        IDIVM_RETURN_IF_ERROR(input_slot(in.pre_rows, &regs.pre));
      }
      if (in.type != DiffType::kDelete) {
        IDIVM_RETURN_IF_ERROR(input_slot(in.post_rows, &regs.post));
      }
      b->inputs.push_back(regs);
    }
    // The group keys get a register of their own, which only the probe
    // reads.
    const std::string keys_name = StrCat("__gkeys_", i);
    b->keys = Slot(keys_name, b->key_schema);
    const PlanPtr probe = RecomputeProbePlan(ag, keys_name, b->key_schema);
    StatusOr<PhysicalPlan> plan =
        LowerPlan(probe, db_, [&](const PlanNode& ref, Schema* schema) {
          if (ref.ref_name() != keys_name) return BindRef(ref, schema);
          *schema = b->key_schema;
          return b->keys;
        });
    if (!plan.ok()) {
      return InStep(StrCat("γ-maintain ", ag.node_name), plan.status());
    }
    b->probe = std::move(plan).value();
    CollectProbedIndexes(b->probe, &p_->indexes);
    CollectPreStateIndexes(b->probe, &p_->pre_state);
    if (!b->opcache_key_cols.empty()) {
      p_->indexes.emplace(ag.opcache_table, b->opcache_key_cols);
    }
    IDIVM_RETURN_IF_ERROR(
        Produce(ag.out_update, b->update->relation_schema(), &b->out_update));
    IDIVM_RETURN_IF_ERROR(
        Produce(ag.out_insert, b->insert->relation_schema(), &b->out_insert));
    return Produce(ag.out_delete, b->del->relation_schema(), &b->out_delete);
  }

  CompiledProgram* p_;
  const Database& db_;
  // Each slot register's name.
  std::map<std::string, int> slot_index_;
  // Transient names bound at the current step, with the schema the
  // runtime relation will carry.
  std::map<std::string, Schema> bound_;
};

}  // namespace

StatusOr<std::shared_ptr<const CompiledProgram>> CompileProgram(
    const CompiledView& view, const Database& db) {
  const auto t0 = std::chrono::steady_clock::now();

  auto program = std::make_shared<CompiledProgram>();
  program->view_name = view.view_name;
  // Own the script first: every pointer taken below (diff schemas,
  // aggregate steps, plan nodes) targets this copy, never the view's.
  program->script = view.script;

  ScriptCompiler compiler(program.get(), db);
  IDIVM_RETURN_IF_ERROR(compiler.Run(view.input_bindings));

  const auto t1 = std::chrono::steady_clock::now();
  static obs::Histogram& seconds =
      obs::GlobalHistogram("idivm_compile_seconds");
  static obs::Counter& misses =
      obs::GlobalCounter("idivm_program_cache_misses_total");
  static obs::Counter& fused = obs::GlobalCounter("idivm_fused_steps_total");
  seconds.Observe(std::chrono::duration<double>(t1 - t0).count());
  misses.Increment();
  fused.Increment(program->fused_steps);
  return std::shared_ptr<const CompiledProgram>(std::move(program));
}

}  // namespace exec
}  // namespace idivm
