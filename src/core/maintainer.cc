#include "src/core/maintainer.h"

#include <set>
#include <utility>
#include <vector>

#include "src/algebra/evaluator.h"
#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/step_access.h"
#include "src/exec/compiler.h"
#include "src/exec/vm.h"
#include "src/obs/metrics.h"

namespace idivm {

AccessStats MaintainResult::TotalAccesses() const {
  AccessStats out = diff_computation.accesses;
  out += cache_update.accesses;
  out += view_update.accesses;
  return out;
}

double MaintainResult::TotalSeconds() const {
  return diff_computation.seconds + cache_update.seconds +
         view_update.seconds;
}

std::string MaintainResult::ToString() const {
  return StrCat("diff-computation: ", diff_computation.accesses.ToString(),
                "\ncache-update:     ", cache_update.accesses.ToString(),
                "\nview-update:      ", view_update.accesses.ToString(),
                "\napplied ", diff_tuples_applied, " diff tuples, touched ",
                rows_touched, " rows, ", dummy_tuples,
                " dummy (overestimated) tuples");
}

namespace {

// Reverse-applies a table's net changes to its post-state contents.
Relation ReconstructPreState(const Table& table,
                             const std::vector<Modification>& net) {
  Relation post = table.SnapshotUncounted();
  const std::vector<size_t>& keys = table.key_indices();
  // key -> (drop | replace-with-pre)
  std::map<Row, std::optional<Row>, RowLess> adjust;
  std::vector<Row> re_add;
  for (const Modification& mod : net) {
    switch (mod.kind) {
      case DiffType::kInsert:
        adjust[ProjectRow(mod.post, keys)] = std::nullopt;  // drop
        break;
      case DiffType::kUpdate:
        adjust[ProjectRow(mod.post, keys)] = mod.pre;  // restore pre values
        break;
      case DiffType::kDelete:
        re_add.push_back(mod.pre);
        break;
    }
  }
  Relation pre(post.schema());
  for (Row& row : post.mutable_rows()) {
    const auto it = adjust.find(ProjectRow(row, keys));
    if (it == adjust.end()) {
      pre.Append(std::move(row));
    } else if (it->second.has_value()) {
      pre.Append(*it->second);
    }  // else: dropped (was inserted)
  }
  for (Row& row : re_add) pre.Append(std::move(row));
  return pre;
}

}  // namespace

std::map<std::string, Table> MakePreStateTables(
    Database* db, const PreStateIndexes& indexes) {
  std::map<std::string, Table> out;
  for (const auto& [name, column_sets] : indexes) {
    const Table& stored = db->GetTable(name);
    Table& table = out.try_emplace(name, name, stored.schema(),
                                   stored.key_columns(), &db->stats())
                       .first->second;
    for (const std::vector<size_t>& columns : column_sets) {
      table.EnsureIndex(columns);
    }
  }
  return out;
}

std::map<std::string, Table*> LoadPreState(
    const Database& db,
    const std::map<std::string, std::vector<Modification>>& net_changes,
    std::map<std::string, Table>* tables) {
  std::map<std::string, Table*> out;
  for (auto& [name, table] : *tables) {
    const auto it = net_changes.find(name);
    if (it == net_changes.end()) continue;  // unchanged: pre == post
    table.BulkLoadUncounted(ReconstructPreState(db.GetTable(name), it->second));
    out.emplace(name, &table);
  }
  return out;
}

Maintainer::Maintainer(Database* db, CompiledView view)
    : db_(db),
      view_(std::move(view)),
      program_(exec::CompileProgram(view_, *db_)) {
  if (!program_.ok()) return;
  for (const auto& [table, columns] : program_.value()->indexes) {
    db_->GetTable(table).EnsureIndex(columns);
  }
  pre_state_ = MakePreStateTables(db_, program_.value()->pre_state);
}

MaintainResult Maintainer::Maintain(
    const std::map<std::string, std::vector<Modification>>& net_changes,
    const MaintainOptions& options) {
  MaintainResult result;
  const Status status = TryMaintain(net_changes, options, &result);
  IDIVM_CHECK(status.ok(), status.ToString());
  return result;
}

Status Maintainer::TryMaintain(
    const std::map<std::string, std::vector<Modification>>& net_changes,
    const MaintainOptions& options, MaintainResult* out) {
  IDIVM_RETURN_IF_ERROR(program_.status());
  MaintainResult result;
  EpochUndo undo;

  obs::TraceRecorder* const trace =
      options.trace != nullptr ? options.trace : obs::GlobalTrace();
  const int64_t epoch_start_us = trace != nullptr ? trace->NowMicros() : 0;
  const int epoch_tid =
      trace != nullptr ? obs::TraceRecorder::CurrentThreadId() : 0;

  // Epoch setup — input routing and pre-state reconstruction — runs under
  // its own arena and is traced as a "setup" span, so the per-span
  // AccessStats deltas of an epoch sum exactly to what the epoch publishes
  // to the database-wide counters.
  const exec::CompiledProgram& program = *program_.value();
  StatsArena setup_arena;
  std::vector<Relation> inputs;
  std::map<std::string, Table*> pre_state;
  {
    ScopedStatsArena setup_scope(&setup_arena);
    inputs = exec::RouteInputs(program, net_changes);
    pre_state = LoadPreState(*db_, net_changes, &pre_state_);
  }
  const AccessStats setup_accesses = setup_arena.Sum(&db_->stats());
  const int64_t setup_end_us = trace != nullptr ? trace->NowMicros() : 0;
  setup_arena.Publish();

  // Tables with updates/deletes this round: view-assisted probes must not
  // read their (possibly mid-maintenance) cache copies.
  std::set<std::string> assist_unsafe;
  for (const auto& [table, mods] : net_changes) {
    for (const Modification& mod : mods) {
      if (mod.kind != DiffType::kInsert) {
        assist_unsafe.insert(table);
        break;
      }
    }
  }

  static obs::Counter& hits =
      obs::GlobalCounter("idivm_program_cache_hits_total");
  hits.Increment();
  const std::vector<StepAccess>& steps = program.steps;
  const size_t n = steps.size();
  std::vector<StepRun> runs(n);
  exec::ExecEnv env;
  env.db = db_;
  env.program = &program;
  env.inputs = &inputs;
  env.pre_state = &pre_state;
  env.assist_unsafe = &assist_unsafe;
  env.undo = &undo;
  env.fault = options.fault;
  env.deadline = options.deadline;
  env.max_epoch_ops = options.max_epoch_ops;
  env.threads = options.threads;
  env.trace = trace;
  env.apply_observer = apply_observer_ ? &apply_observer_ : nullptr;
  env.runs = &runs;
  const Status epoch_status = exec::Execute(env);

  if (!epoch_status.ok()) {
    // Failed epoch: restore every stored table the script touched and drop
    // the per-step arenas unpublished — tables, caches and every
    // AccessStats counter read as if the epoch never started. Incident
    // accounting (AccessStats::epoch_rollbacks etc.) is the caller's job:
    // ViewManager's degradation ladder records it single-threaded, so
    // concurrent per-view failures never race on the shared counters.
    undo.RollBack();
    static obs::Counter& failures =
        obs::GlobalCounter("idivm_epoch_failures_total");
    failures.Increment();
    if (trace != nullptr) {
      // The failed epoch published nothing, so its span carries no
      // AccessStats; per-rule spans are dropped for the same reason.
      obs::TraceSpan span;
      span.name = StrCat("epoch ", view_.view_name);
      span.category = "epoch";
      span.tid = epoch_tid;
      span.start_us = epoch_start_us;
      span.dur_us = trace->NowMicros() - epoch_start_us;
      span.args.emplace_back("failed", 1);
      span.args.emplace_back("status_code",
                             static_cast<int64_t>(epoch_status.code()));
      trace->Record(std::move(span));
    }
    return epoch_status;
  }
  // Committed: the undo log either vanishes, or — in snapshot-read mode —
  // moves to the caller as the epoch's redo delta (it is the exact list of
  // stored-row changes, in per-table program order).
  if (options.redo != nullptr) {
    undo.MoveEntriesTo(options.redo);
  } else {
    undo.Clear();
  }

  // Merge: phase attribution, apply counters and the shared AccessStats
  // sinks, all on this thread in script order — identical to the sequential
  // totals whatever the execution interleaving was.
  if (rule_counters_.empty()) {
    for (const StepAccess& step : steps) {
      rule_counters_.push_back(&obs::GlobalCounter(
          obs::RuleAccessCounterName(view_.view_name, step.label)));
    }
  }
  AccessStats epoch_accesses = setup_accesses;
  for (size_t i = 0; i < n; ++i) {
    PhaseCost cost;
    cost.accesses = runs[i].arena.Sum(&db_->stats());
    cost.seconds = runs[i].seconds;
    epoch_accesses += cost.accesses;
    rule_counters_[i]->Increment(cost.accesses.TotalAccesses());
    if (trace != nullptr) {
      obs::TraceSpan span;
      span.name = steps[i].label;
      span.category = "rule";
      span.tid = runs[i].tid;
      span.start_us = runs[i].start_us;
      span.dur_us = runs[i].end_us - runs[i].start_us;
      span.accesses = cost.accesses;
      span.args.emplace_back("step", static_cast<int64_t>(i));
      if (runs[i].has_apply) {
        span.args.emplace_back("diff_tuples", runs[i].applied.diff_tuples);
        span.args.emplace_back("rows_touched", runs[i].applied.rows_touched);
        span.args.emplace_back("dummy_tuples", runs[i].applied.dummy_tuples);
        // The nested APPLY span: just the DML window inside the rule span,
        // with the arena delta it charged to the database-wide counter.
        obs::TraceSpan apply_span;
        apply_span.name =
            StrCat("APPLY ", view_.script.steps[i].apply->target_table);
        apply_span.category = "apply";
        apply_span.tid = runs[i].tid;
        apply_span.start_us = runs[i].apply_start_us;
        apply_span.dur_us = runs[i].apply_end_us - runs[i].apply_start_us;
        apply_span.accesses = runs[i].apply_accesses;
        apply_span.args.emplace_back("step", static_cast<int64_t>(i));
        trace->Record(std::move(apply_span));
      }
      trace->Record(std::move(span));
    }
    runs[i].arena.Publish();
    result.diff_tuples_applied += runs[i].applied.diff_tuples;
    result.rows_touched += runs[i].applied.rows_touched;
    result.dummy_tuples += runs[i].applied.dummy_tuples;
    switch (steps[i].phase) {
      case MaintPhase::kDiffComputation:
        result.diff_computation += cost;
        break;
      case MaintPhase::kCacheUpdate:
        result.cache_update += cost;
        break;
      case MaintPhase::kViewUpdate:
        result.view_update += cost;
        break;
    }
  }
  static obs::Counter& epochs = obs::GlobalCounter("idivm_epochs_total");
  static obs::Histogram& epoch_seconds =
      obs::GlobalHistogram("idivm_epoch_seconds");
  static obs::Histogram& epoch_access_count =
      obs::GlobalHistogram("idivm_epoch_accesses");
  epochs.Increment();
  epoch_seconds.Observe(result.TotalSeconds());
  epoch_access_count.Observe(
      static_cast<double>(epoch_accesses.TotalAccesses()));
  if (trace != nullptr) {
    obs::TraceSpan setup_span;
    setup_span.name = StrCat("setup ", view_.view_name);
    setup_span.category = "setup";
    setup_span.tid = epoch_tid;
    setup_span.start_us = epoch_start_us;
    setup_span.dur_us = setup_end_us - epoch_start_us;
    setup_span.accesses = setup_accesses;
    trace->Record(std::move(setup_span));

    obs::TraceSpan span;
    span.name = StrCat("epoch ", view_.view_name);
    span.category = "epoch";
    span.tid = epoch_tid;
    span.start_us = epoch_start_us;
    span.dur_us = trace->NowMicros() - epoch_start_us;
    span.accesses = epoch_accesses;
    span.args.emplace_back("steps", static_cast<int64_t>(n));
    span.args.emplace_back("threads", options.threads);
    span.args.emplace_back("diff_tuples", result.diff_tuples_applied);
    span.args.emplace_back("rows_touched", result.rows_touched);
    span.args.emplace_back("dummy_tuples", result.dummy_tuples);
    trace->Record(std::move(span));
  }
  *out = std::move(result);
  return OkStatus();
}

}  // namespace idivm
