#include "src/exec/vm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <utility>

#include "src/algebra/physical_plan.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/core/aggregate_exec.h"
#include "src/diff/apply.h"
#include "src/obs/metrics.h"

namespace idivm {
namespace exec {
namespace {

// Shared mutable state of one program execution. Registers need no lock:
// the DAG orders every instruction after the producers of what it reads,
// and no two instructions that write one register run concurrently.
struct ExecState {
  const ExecEnv* env = nullptr;
  const CompiledProgram* p = nullptr;
  EvalContext ctx;             // stored tables, pre-state, assist-unsafe
  std::vector<Relation> regs;  // slot registers
  // &regs[i] per slot: the registers compiled plans read.
  std::vector<const Relation*> reg_ptrs;
};

// ---- Micro-op / instruction execution --------------------------------------

// What a fused compute hands to its APPLY: the diff's rows — the published
// register when others read it too, else the relation itself, moved here.
struct Piped {
  const Relation* data = nullptr;
  Relation owned;
};

Status RunMicroOp(ExecState& st, const MicroOp& op, Piped* piped,
                  StepRun& run) {
  const ExecEnv& env = *st.env;
  const std::string& label = st.p->steps[op.step].label;
  if (env.fault != nullptr) {
    IDIVM_RETURN_IF_ERROR(env.fault->Check(StrCat("step:", label)));
  }
  if (env.deadline != nullptr) {
    IDIVM_RETURN_IF_ERROR(env.deadline->Check(StrCat("step:", label)));
  }
  switch (op.kind) {
    case MicroOp::Kind::kCompute: {
      Relation rel = RunPlan(op.plan, st.ctx, st.reg_ptrs.data());
      if (op.out_diff != nullptr) DeduplicateByIds(*op.out_diff, &rel);
      if (op.fuse_to_next && !op.publish_output) {
        piped->owned = std::move(rel);
        piped->data = &piped->owned;
        break;
      }
      st.regs[op.out_slot] = std::move(rel);
      if (op.fuse_to_next) {
        // The register is written once per epoch, so the APPLY can read it
        // in place.
        piped->data = &st.regs[op.out_slot];
      }
      break;
    }
    case MicroOp::Kind::kApply: {
      // The main diff reads the piped rows when its compute was fused.
      const auto rows = [&](size_t i) -> const Relation& {
        return i == 0 && op.piped_input ? *piped->data
                                        : st.regs[op.diffs[i].in_slot];
      };
      Table& target = env.db->GetTable(op.target);
      if (env.apply_observer != nullptr && *env.apply_observer) {
        for (size_t i = 0; i < op.diffs.size(); ++i) {
          (*env.apply_observer)(op.target,
                                DiffInstance(*op.diffs[i].schema, rows(i)));
        }
      }
      if (env.fault != nullptr) {
        IDIVM_RETURN_IF_ERROR(env.fault->Check(StrCat("apply:", op.target)));
      }
      if (env.deadline != nullptr) {
        IDIVM_RETURN_IF_ERROR(
            env.deadline->Check(StrCat("apply:", op.target)));
      }
      ReturningImages images(target.schema());
      AccessStats apply_before;
      if (env.trace != nullptr) {
        apply_before = run.arena.Sum(&env.db->stats());
        run.apply_start_us = env.trace->NowMicros();
      }
      for (size_t i = 0; i < op.diffs.size(); ++i) {
        IDIVM_RETURN_IF_ERROR(TryApplyDiff(
            *op.diffs[i].schema, op.diffs[i].binding, rows(i), target,
            &run.applied, op.capture ? &images : nullptr, env.undo,
            env.fault));
      }
      if (env.trace != nullptr) {
        run.apply_end_us = env.trace->NowMicros();
        run.apply_accesses = run.arena.Sum(&env.db->stats()) - apply_before;
        run.has_apply = true;
      }
      if (op.capture) {
        st.regs[op.pre_slot] = std::move(images.pre_images);
        st.regs[op.post_slot] = std::move(images.post_images);
      }
      break;
    }
    case MicroOp::Kind::kAggregate: {
      // Hits fold only plain columns; misses evaluate an expression.
      static obs::Counter& hits =
          obs::GlobalCounter("idivm_agg_kernel_hits_total");
      static obs::Counter& misses =
          obs::GlobalCounter("idivm_agg_kernel_misses_total");
      (op.bindings.has_expr_arg ? misses : hits).Increment(1);
      AggregateExecutor exec(env.db, env.undo, *op.agg, op.bindings,
                             st.regs.data(), st.reg_ptrs.data(), st.ctx);
      IDIVM_RETURN_IF_ERROR(exec.Run());
      break;
    }
  }
  if (env.max_epoch_ops > 0 &&
      static_cast<int64_t>(env.undo->size()) > env.max_epoch_ops) {
    return ResourceExhaustedError(
        StrCat("epoch op budget exceeded: ", env.undo->size(),
               " stored-table mutations > --max-epoch-ops=",
               env.max_epoch_ops));
  }
  return OkStatus();
}

Status RunInstruction(ExecState& st, const Instruction& inst) {
  const ExecEnv& env = *st.env;
  Piped piped;
  for (const MicroOp& op : inst.ops) {
    StepRun& run = (*env.runs)[op.step];
    ScopedStatsArena scope(&run.arena);
    if (env.trace != nullptr) {
      run.start_us = env.trace->NowMicros();
      run.tid = obs::TraceRecorder::CurrentThreadId();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = RunMicroOp(st, op, &piped, run);
    const auto t1 = std::chrono::steady_clock::now();
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (env.trace != nullptr) run.end_us = env.trace->NowMicros();
    if (!status.ok()) return status;
  }
  return OkStatus();
}

}  // namespace

std::vector<Relation> RouteInputs(
    const CompiledProgram& program,
    const std::map<std::string, std::vector<Modification>>& net_changes) {
  std::vector<Relation> out;
  out.reserve(program.inputs.size());
  for (const InputRoute& input : program.inputs) {
    out.emplace_back(program.slots[input.slot].schema);
  }
  std::vector<size_t> changed;
  for (const auto& [table, routes] : program.input_tables) {
    const auto it = net_changes.find(table);
    if (it == net_changes.end()) continue;
    for (const Modification& mod : it->second) {
      int post_set = -1;
      if (mod.kind == DiffType::kUpdate) {
        // The columns whose value or type changed.
        changed.clear();
        for (size_t c = 0; c < mod.post.size(); ++c) {
          if (mod.pre[c].Compare(mod.post[c]) != 0 ||
              mod.pre[c].type() != mod.post[c].type()) {
            changed.push_back(c);
          }
        }
        if (changed.empty() || routes.update_posts.empty()) continue;
        for (size_t k = 0; k < routes.update_posts.size(); ++k) {
          const std::vector<size_t>& post = routes.update_posts[k];
          const bool covers =
              std::all_of(changed.begin(), changed.end(), [&](size_t c) {
                return std::find(post.begin(), post.end(), c) != post.end();
              });
          if (covers &&
              (post_set < 0 ||
               post.size() < routes.update_posts[post_set].size())) {
            post_set = static_cast<int>(k);
          }
        }
        IDIVM_CHECK(post_set >= 0,
                    StrCat("no update i-diff schema covers the changed "
                           "attributes of ",
                           table));
      }
      const Row& id_source =
          mod.kind == DiffType::kDelete ? mod.pre : mod.post;
      for (const size_t i : routes.inputs) {
        const InputRoute& input = program.inputs[i];
        if (input.type != mod.kind || input.post_set != post_set) continue;
        Row row;
        row.reserve(input.id_cols.size() + input.pre_cols.size() +
                    input.post_cols.size());
        for (size_t c : input.id_cols) row.push_back(id_source[c]);
        for (size_t c : input.pre_cols) row.push_back(mod.pre[c]);
        for (size_t c : input.post_cols) row.push_back(mod.post[c]);
        out[i].Append(std::move(row));
      }
    }
  }
  return out;
}

Status Execute(const ExecEnv& env) {
  const CompiledProgram& p = *env.program;
  ExecState st;
  st.env = &env;
  st.p = &p;

  st.ctx.db = env.db;
  st.ctx.pre_state = env.pre_state;
  st.ctx.assist_unsafe_tables = env.assist_unsafe;

  st.regs.reserve(p.slots.size());
  for (const CompiledProgram::SlotDef& slot : p.slots) {
    st.regs.emplace_back(slot.schema);
    st.reg_ptrs.push_back(&st.regs.back());
  }
  for (size_t i = 0; i < p.inputs.size(); ++i) {
    st.regs[p.inputs[i].slot] = std::move((*env.inputs)[i]);
  }

  const size_t m = p.instructions.size();
  if (env.threads <= 1 || m <= 1) {
    for (size_t i = 0; i < m; ++i) {
      IDIVM_RETURN_IF_ERROR(RunInstruction(st, p.instructions[i]));
    }
    return OkStatus();
  }

  // DAG scheduling over instructions, with the union footprint of each
  // instruction's steps: every edge the unfused schedule had is kept, so
  // producers always complete before consumers start.
  std::vector<std::vector<size_t>> succs(m);
  std::vector<size_t> pending(m, 0);
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 0; i < j; ++i) {
      if (StepsConflict(p.instructions[i].access, p.instructions[j].access)) {
        succs[i].push_back(j);
        ++pending[j];
      }
    }
  }

  std::mutex mutex;
  std::condition_variable done_cv;
  size_t completed = 0;
  std::atomic<bool> failed{false};
  std::vector<Status> statuses(m, OkStatus());
  ThreadPool pool(env.threads);
  std::function<void(size_t)> submit = [&](size_t i) {
    pool.Submit([&, i] {
      Status status = OkStatus();
      if (!failed.load(std::memory_order_acquire)) {
        status = RunInstruction(st, p.instructions[i]);
        if (!status.ok()) failed.store(true, std::memory_order_release);
      }
      std::lock_guard<std::mutex> lock(mutex);
      statuses[i] = std::move(status);
      for (size_t succ : succs[i]) {
        if (--pending[succ] == 0) submit(succ);
      }
      if (++completed == m) done_cv.notify_all();
    });
  };
  {
    std::lock_guard<std::mutex> lock(mutex);
    for (size_t i = 0; i < m; ++i) {
      if (pending[i] == 0) submit(i);
    }
  }
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&] { return completed == m; });
  lock.unlock();
  // Instructions cover contiguous step ranges in script order, so the
  // first failing instruction is the first failing step — the same error a
  // sequential run reports.
  for (size_t i = 0; i < m; ++i) {
    IDIVM_RETURN_IF_ERROR(statuses[i]);
  }
  return OkStatus();
}

}  // namespace exec
}  // namespace idivm
