#include "src/sdbt/sdbt.h"

#include <chrono>

#include "src/algebra/evaluator.h"
#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

namespace {

PlanPtr LinkComplementPlan(const Database& db, const DevicesPartsConfig& cfg,
                           bool with_selection) {
  // devices_parts ⋈ [σ_category] devices [⋈ R1..Rj]: everything except
  // parts, keyed by (did, pid).
  PlanPtr devices = PlanNode::Scan("devices");
  if (with_selection) {
    devices = PlanNode::Select(devices,
                               Eq(Col("category"), Lit(Value("phone"))));
  }
  PlanPtr plan =
      NaturalJoin(PlanNode::Scan("devices_parts"), std::move(devices), db);
  for (int64_t j = 0; j < cfg.extra_joins; ++j) {
    plan = NaturalJoin(std::move(plan), PlanNode::Scan(StrCat("r", j + 1)),
                       db);
  }
  std::vector<std::string> keep = {"did", "pid"};
  for (int64_t j = 0; j < cfg.extra_joins; ++j) {
    keep.push_back(StrCat("x", j + 1));
  }
  return ProjectColumns(std::move(plan), keep);
}

PlanPtr PartsDeviceComplementPlan(const Database& db,
                                  const DevicesPartsConfig& cfg) {
  // parts ⋈ devices_parts [⋈ R1..Rj]: the complement of devices, which
  // carries the price attribute.
  PlanPtr plan =
      NaturalJoin(PlanNode::Scan("parts"), PlanNode::Scan("devices_parts"),
                  db);
  for (int64_t j = 0; j < cfg.extra_joins; ++j) {
    plan = NaturalJoin(std::move(plan), PlanNode::Scan(StrCat("r", j + 1)),
                       db);
  }
  std::vector<std::string> keep = {"did", "pid", "price"};
  for (int64_t j = 0; j < cfg.extra_joins; ++j) {
    keep.push_back(StrCat("x", j + 1));
  }
  return ProjectColumns(std::move(plan), keep);
}

}  // namespace

SdbtDevicesParts::SdbtDevicesParts(Database* db,
                                   const DevicesPartsConfig& config,
                                   const std::string& view_name, Mode mode,
                                   bool with_selection)
    : db_(db),
      config_(config),
      view_name_(view_name),
      mode_(mode),
      with_selection_(with_selection) {
  EvalContext ctx;
  ctx.db = db_;

  // aux_link: complement of the streamed `parts` table.
  aux_link_name_ = StrCat("__sdbt_link_", view_name);
  {
    const PlanPtr plan = LinkComplementPlan(*db_, config_, with_selection_);
    const Schema schema = InferSchema(plan, *db_);
    Table& aux = db_->CreateTable(aux_link_name_, schema, {"did", "pid"});
    aux.BulkLoadUncounted(Evaluate(plan, ctx));
    aux.EnsureIndex(aux.schema().ColumnIndices({"pid"}));
  }

  if (mode_ == Mode::kStreams) {
    // Complements for the other streams. aux_pd (complement of devices)
    // contains price and must be maintained on parts updates. The
    // complements of devices_parts are the base tables themselves (already
    // indexed), so no extra materialization is modeled for them.
    aux_pd_name_ = StrCat("__sdbt_pd_", view_name);
    const PlanPtr plan = PartsDeviceComplementPlan(*db_, config_);
    const Schema schema = InferSchema(plan, *db_);
    Table& aux = db_->CreateTable(aux_pd_name_, schema, {"did", "pid"});
    aux.BulkLoadUncounted(Evaluate(plan, ctx));
    aux.EnsureIndex(aux.schema().ColumnIndices({"pid"}));
  }

  // The aggregate view V'(did, cost), computed through aux_link.
  PlanPtr spj = NaturalJoin(PlanNode::Scan("parts"),
                            PlanNode::Scan(aux_link_name_),
                            *db_);  // shares pid
  PlanPtr view_plan = PlanNode::Aggregate(
      ProjectColumns(std::move(spj), {"did", "pid", "price"}),
      {"did"}, {{AggFunc::kSum, Col("price"), "cost"}});
  const Schema view_schema = InferSchema(view_plan, *db_);
  Table& view = db_->CreateTable(view_name_, view_schema, {"did"});
  view.BulkLoadUncounted(Evaluate(view_plan, ctx));
  db_->stats().Reset();
}

MaintainResult SdbtDevicesParts::Maintain(
    const std::map<std::string, std::vector<Modification>>& net_changes) {
  MaintainResult result;
  for (const auto& [table, mods] : net_changes) {
    IDIVM_CHECK(table == "parts",
                "the SDBT simulation maintains parts diffs (the Fig. 12 "
                "workload); see sdbt.h");
    (void)mods;
  }
  const auto it = net_changes.find("parts");
  if (it == net_changes.end()) return result;

  Table& view = db_->GetTable(view_name_);
  Table& aux_link = db_->GetTable(aux_link_name_);
  const std::vector<size_t> link_pid_col =
      aux_link.schema().ColumnIndices({"pid"});
  const size_t link_did_idx = aux_link.schema().ColumnIndex("did");

  auto timed = [&](PhaseCost* cost, const auto& fn) {
    const AccessStats before = db_->stats();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    cost->accesses += db_->stats() - before;
    cost->seconds += std::chrono::duration<double>(t1 - t0).count();
  };

  std::map<Row, double, RowLess> group_delta;  // did -> Σ price delta

  // Maintain the auxiliary views that contain parts attributes
  // (SDBT-streams overhead).
  if (mode_ == Mode::kStreams) {
    Table& aux_pd = db_->GetTable(aux_pd_name_);
    const std::vector<size_t> pd_pid_col =
        aux_pd.schema().ColumnIndices({"pid"});
    const size_t pd_price_idx = aux_pd.schema().ColumnIndex("price");
    timed(&result.cache_update, [&] {
      for (const Modification& mod : it->second) {
        const Row pid_key = {mod.kind == DiffType::kDelete
                                 ? mod.pre[0]
                                 : mod.post[0]};
        switch (mod.kind) {
          case DiffType::kUpdate:
            aux_pd.UpdateRowsWhereEquals(
                pd_pid_col, pid_key,
                [&](Row& row) { row[pd_price_idx] = mod.post[1]; });
            break;
          case DiffType::kDelete:
            aux_pd.DeleteWhereEquals(pd_pid_col, pid_key);
            break;
          case DiffType::kInsert:
            // New parts have no devices_parts links yet in this workload's
            // modification stream ordering; links arrive as dp inserts
            // (unsupported for SDBT) — nothing to add to aux_pd.
            break;
        }
      }
    });
  }

  // View diff computation: probe aux_link per diff tuple (DBToaster's map
  // lookup) and fold per-group price deltas.
  timed(&result.diff_computation, [&] {
    for (const Modification& mod : it->second) {
      const Row pid_key = {mod.kind == DiffType::kDelete ? mod.pre[0]
                                                         : mod.post[0]};
      double delta = 0;
      switch (mod.kind) {
        case DiffType::kUpdate:
          delta = mod.post[1].NumericAsDouble() -
                  mod.pre[1].NumericAsDouble();
          break;
        case DiffType::kInsert:
          delta = mod.post[1].NumericAsDouble();
          break;
        case DiffType::kDelete:
          delta = -mod.pre[1].NumericAsDouble();
          break;
      }
      if (delta == 0) continue;
      for (const Row& link : aux_link.LookupWhereEquals(link_pid_col,
                                                        pid_key)) {
        group_delta[{link[link_did_idx]}] += delta;
      }
    }
  });

  // Apply per-group additive updates to the view.
  timed(&result.view_update, [&] {
    const std::vector<size_t> did_col = view.schema().ColumnIndices({"did"});
    const size_t cost_idx = view.schema().ColumnIndex("cost");
    for (const auto& [did, delta] : group_delta) {
      if (delta == 0) continue;
      const size_t touched = view.UpdateRowsWhereEquals(
          did_col, did, [&](Row& row) {
            row[cost_idx] = Value(row[cost_idx].is_null()
                                      ? delta
                                      : row[cost_idx].NumericAsDouble() +
                                            delta);
          });
      ++result.diff_tuples_applied;
      result.rows_touched += static_cast<int64_t>(touched);
      if (touched == 0) {
        // New group: the part got linked into a device with no prior cost
        // row — only possible with dp inserts, unsupported here.
        ++result.dummy_tuples;
      }
    }
  });
  return result;
}

}  // namespace idivm
