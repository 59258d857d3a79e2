#include "src/exec/compiler.h"

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/physical_plan.h"
#include "src/common/str_util.h"
#include "src/core/step_access.h"
#include "src/obs/metrics.h"

namespace idivm {
namespace exec {
namespace {

class ScriptCompiler {
 public:
  ScriptCompiler(CompiledProgram* p, const Database& db) : p_(p), db_(db) {}

  void Run(const std::vector<InputDiffBinding>& input_bindings) {
    // Input bindings are instantiated every epoch (possibly empty), so
    // their names are statically bound from the start.
    for (const InputDiffBinding& binding : input_bindings) {
      Slot(binding.name, binding.schema.relation_schema());
      BindStatic(binding.name, binding.schema.relation_schema());
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
      mops[i] = LowerStep(i, script.steps[i]);
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
          !step.compute->raw_relation && mops[i].out_diff != nullptr) {
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
  }

 private:
  // Creates (or finds) the slot register for `name`. The first creation
  // fixes the slot schema; a name is only ever produced with one schema.
  int Slot(const std::string& name, const Schema& schema) {
    const auto it = p_->slot_index.find(name);
    if (it != p_->slot_index.end()) return it->second;
    const int id = static_cast<int>(p_->slots.size());
    p_->slots.push_back(CompiledProgram::SlotDef{name, schema});
    p_->slot_index.emplace(name, id);
    return id;
  }

  void BindStatic(const std::string& name, const Schema& schema) {
    bound_[name] = schema;
  }

  bool ScanTablesExist(const PlanPtr& plan) {
    std::set<std::string> tables;
    CollectScanTables(plan, &tables);
    for (const std::string& t : tables) {
      if (!db_.HasTable(t)) return false;
    }
    return true;
  }

  // Binds a compute plan's transient ref to its slot register when the
  // name is statically bound with the ref's columns; otherwise the ref
  // lowers to a fallback, so Evaluate's unbound-ref check fires at run
  // time, if and when the ref is evaluated.
  int BindRef(const PlanNode& ref, Schema* schema) {
    const auto it = bound_.find(ref.ref_name());
    if (it == bound_.end() ||
        it->second.ColumnNames() != ref.ref_schema().ColumnNames()) {
      return -1;
    }
    *schema = it->second;
    return Slot(ref.ref_name(), it->second);
  }

  MicroOp LowerStep(size_t i, const ScriptStep& step) {
    MicroOp op;
    op.step = i;
    if (step.compute.has_value()) {
      const ComputeDiffStep& cs = *step.compute;
      op.kind = MicroOp::Kind::kCompute;
      op.name = cs.out_name;
      op.raw = cs.raw_relation;
      // A scan of a table the database does not have would make schema
      // inference impossible; such a scan faults only if and when it runs,
      // so defer the whole query to Evaluate.
      if (ScanTablesExist(cs.query)) {
        const RefBinder bind = [this](const PlanNode& ref, Schema* schema) {
          return BindRef(ref, schema);
        };
        op.plan = LowerPlan(cs.query, db_, bind);
      } else {
        op.plan = FallbackPlan(cs.query);
      }
      if (!cs.raw_relation) {
        const DiffSchema* ds = p_->script.FindDiffSchema(cs.out_name);
        if (ds == nullptr) {
          op.unregistered_out = true;  // the error fires after evaluation
        } else {
          op.out_diff = ds;
          op.out_slot = Slot(cs.out_name, ds->relation_schema());
          BindStatic(cs.out_name, ds->relation_schema());
        }
      } else if (ScanTablesExist(cs.query)) {
        const Schema s = InferSchema(cs.query, db_);
        op.out_slot = Slot(cs.out_name, s);
        BindStatic(cs.out_name, s);
      } else {
        // Schema unknown; the epoch faults before the publish anyway.
        op.out_slot = Slot(cs.out_name, Schema());
      }
    } else if (step.apply.has_value()) {
      const ApplyStep& as = *step.apply;
      op.kind = MicroOp::Kind::kApply;
      op.name = as.diff_name;
      const DiffSchema* ds = p_->script.FindDiffSchema(as.diff_name);
      if (ds == nullptr) {
        op.apply_unregistered = true;
      } else {
        op.diff_schema = ds;
        // Every input binding is instantiated every epoch (possibly empty)
        // and compute outputs precede their applies, so boundness at this
        // step is static.
        if (bound_.count(as.diff_name) > 0) {
          op.in_slot = Slot(as.diff_name, ds->relation_schema());
        } else {
          op.apply_unbound = true;
        }
      }
      for (const std::string& extra : as.extra_diff_names) {
        ExtraApply ex;
        ex.name = extra;
        const DiffSchema* eds = p_->script.FindDiffSchema(extra);
        if (eds == nullptr) {
          ex.unregistered = true;
        } else {
          ex.schema = eds;
          if (bound_.count(extra) > 0) {
            ex.in_slot = Slot(extra, eds->relation_schema());
          } else {
            ex.unbound = true;
          }
        }
        op.extras.push_back(std::move(ex));
      }
      op.target = as.target_table;
      op.capture = !as.returning_pre.empty() || !as.returning_post.empty();
      if (op.capture) {
        const Schema ts = db_.HasTable(as.target_table)
                              ? db_.GetTable(as.target_table).schema()
                              : Schema();
        op.pre_slot = Slot(as.returning_pre, ts);
        op.post_slot = Slot(as.returning_post, ts);
        if (db_.HasTable(as.target_table)) {
          BindStatic(as.returning_pre, ts);
          BindStatic(as.returning_post, ts);
        }
      }
    } else if (step.aggregate.has_value()) {
      const AggregateStep& ag = *step.aggregate;
      op.kind = MicroOp::Kind::kAggregate;
      op.name = ag.node_name;
      op.agg = &ag;
      op.agg_status = BindAggregate(i, ag, &op.bindings);
    }
    return op;
  }

  // Binds γ step `i` (BindAggregateStep), then assigns its registers and
  // lowers its recompute probe. A γ input no earlier step publishes is a
  // CorruptScriptError too. The outputs are statically bound only when the
  // step binds: otherwise the epoch fails at this step, before any reader.
  Status BindAggregate(size_t i, const AggregateStep& ag,
                       AggregateBindings* b) {
    IDIVM_RETURN_IF_ERROR(BindAggregateStep(ag, p_->script, db_, b));
    const auto input_slot = [this](const std::string& name, int* slot) {
      const auto it = bound_.find(name);
      if (it == bound_.end()) {
        return CorruptScriptError(StrCat("γ input rows missing: ", name));
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
    if (ScanTablesExist(probe)) {
      const RefBinder bind = [&](const PlanNode& ref, Schema* schema) {
        if (ref.ref_name() != keys_name) return BindRef(ref, schema);
        *schema = b->key_schema;
        return b->keys;
      };
      b->probe = LowerPlan(probe, db_, bind);
    } else {
      b->probe = FallbackPlan(probe);  // faults if and when it runs
    }
    const auto output_slot = [this](const std::string& name,
                                    const DiffSchema& ds) {
      BindStatic(name, ds.relation_schema());
      return Slot(name, ds.relation_schema());
    };
    b->out_update = output_slot(ag.out_update, *b->update);
    b->out_insert = output_slot(ag.out_insert, *b->insert);
    b->out_delete = output_slot(ag.out_delete, *b->del);
    return OkStatus();
  }

  CompiledProgram* p_;
  const Database& db_;
  // Statically-bound transient names at the current step, with the schema
  // the runtime relation will carry.
  std::map<std::string, Schema> bound_;
};

}  // namespace

std::shared_ptr<const CompiledProgram> CompileProgram(
    const CompiledView& view, const Database& db) {
  const auto t0 = std::chrono::steady_clock::now();

  auto program = std::make_shared<CompiledProgram>();
  program->view_name = view.view_name;
  // Own the script first: every pointer taken below (diff schemas,
  // aggregate steps, plan nodes) targets this copy, never the view's.
  program->script = view.script;

  ScriptCompiler compiler(program.get(), db);
  compiler.Run(view.input_bindings);

  const auto t1 = std::chrono::steady_clock::now();
  obs::GlobalHistogram("idivm_compile_seconds")
      .Observe(std::chrono::duration<double>(t1 - t0).count());
  obs::GlobalCounter("idivm_fused_steps_total")
      .Increment(program->fused_steps);
  return program;
}

}  // namespace exec
}  // namespace idivm
