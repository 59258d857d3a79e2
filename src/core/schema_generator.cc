#include "src/core/schema_generator.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/expr/analysis.h"

namespace idivm {

namespace {

// Provenance of each output column of `plan` (column name -> base origins).
ColumnOrigins ProvenanceImpl(const PlanPtr& plan, const Database& db) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      ColumnOrigins out;
      const Table& table = db.GetTable(plan->table_name());
      for (const ColumnDef& col : table.schema().columns()) {
        out[col.name] = {{plan->table_name(), col.name}};
      }
      return out;
    }
    case PlanKind::kRelationRef: {
      ColumnOrigins out;
      for (const ColumnDef& col : plan->ref_schema().columns()) {
        out[col.name] = {};
      }
      return out;
    }
    case PlanKind::kSelect:
    case PlanKind::kSemiJoin:
    case PlanKind::kAntiSemiJoin:
    case PlanKind::kMaterialize:
      return ProvenanceImpl(plan->child(0), db);
    case PlanKind::kCoalesceProbe:
      return ProvenanceImpl(plan->child(1), db);  // base-truth fallback
    case PlanKind::kProject: {
      const ColumnOrigins child = ProvenanceImpl(plan->child(0), db);
      ColumnOrigins out;
      for (const ProjectItem& item : plan->project_items()) {
        std::set<std::pair<std::string, std::string>> origins;
        for (const std::string& ref : ReferencedColumns(item.expr)) {
          const auto it = child.find(ref);
          if (it != child.end()) {
            origins.insert(it->second.begin(), it->second.end());
          }
        }
        out[item.name] = std::move(origins);
      }
      return out;
    }
    case PlanKind::kJoin: {
      ColumnOrigins out = ProvenanceImpl(plan->child(0), db);
      const ColumnOrigins right = ProvenanceImpl(plan->child(1), db);
      out.insert(right.begin(), right.end());
      return out;
    }
    case PlanKind::kUnionAll: {
      ColumnOrigins out = ProvenanceImpl(plan->child(0), db);
      const ColumnOrigins right = ProvenanceImpl(plan->child(1), db);
      for (const auto& [name, origins] : right) {
        out[name].insert(origins.begin(), origins.end());
      }
      out[plan->branch_column()] = {};
      return out;
    }
    case PlanKind::kAggregate: {
      const ColumnOrigins child = ProvenanceImpl(plan->child(0), db);
      ColumnOrigins out;
      for (const std::string& g : plan->group_by()) {
        const auto it = child.find(g);
        out[g] = it != child.end()
                     ? it->second
                     : std::set<std::pair<std::string, std::string>>{};
      }
      for (const AggSpec& agg : plan->aggregates()) {
        std::set<std::pair<std::string, std::string>> origins;
        if (agg.arg != nullptr) {
          for (const std::string& ref : ReferencedColumns(agg.arg)) {
            const auto it = child.find(ref);
            if (it != child.end()) {
              origins.insert(it->second.begin(), it->second.end());
            }
          }
        }
        out[agg.name] = std::move(origins);
      }
      return out;
    }
  }
  IDIVM_UNREACHABLE("bad PlanKind");
}

// Collects, per base table, the C_op attribute groups from every condition
// in the plan (and the grouping attributes of aggregates).
void CollectConditionGroups(
    const PlanPtr& plan, const Database& db,
    std::map<std::string, std::vector<std::set<std::string>>>* groups) {
  // Condition columns resolved against the children's provenance.
  auto add_group = [&](const std::set<std::string>& cols,
                       const ColumnOrigins& origins) {
    std::map<std::string, std::set<std::string>> per_table;
    for (const std::string& col : cols) {
      const auto it = origins.find(col);
      if (it == origins.end()) continue;
      for (const auto& [table, attr] : it->second) {
        // Base-table key attributes are immutable (footnote 7) and are not
        // conditional for update purposes.
        const Table& t = db.GetTable(table);
        if (std::find(t.key_columns().begin(), t.key_columns().end(), attr) !=
            t.key_columns().end()) {
          continue;
        }
        per_table[table].insert(attr);
      }
    }
    for (auto& [table, attrs] : per_table) {
      if (!attrs.empty()) (*groups)[table].push_back(attrs);
    }
  };

  switch (plan->kind()) {
    case PlanKind::kSelect: {
      add_group(ReferencedColumns(plan->predicate()),
                ProvenanceImpl(plan->child(0), db));
      break;
    }
    case PlanKind::kJoin:
    case PlanKind::kSemiJoin:
    case PlanKind::kAntiSemiJoin: {
      ColumnOrigins origins = ProvenanceImpl(plan->child(0), db);
      const ColumnOrigins right = ProvenanceImpl(plan->child(1), db);
      for (const auto& [name, o] : right) {
        origins[name].insert(o.begin(), o.end());
      }
      add_group(ReferencedColumns(plan->predicate()), origins);
      break;
    }
    case PlanKind::kAggregate: {
      std::set<std::string> group_cols(plan->group_by().begin(),
                                       plan->group_by().end());
      add_group(group_cols, ProvenanceImpl(plan->child(0), db));
      break;
    }
    default:
      break;
  }
  for (const PlanPtr& child : plan->children()) {
    CollectConditionGroups(child, db, groups);
  }
}

}  // namespace

ColumnOrigins ComputeProvenance(const PlanPtr& plan, const Database& db) {
  return ProvenanceImpl(plan, db);
}

std::map<std::string, std::set<std::string>> ConditionalAttributes(
    const PlanPtr& plan, const Database& db) {
  std::map<std::string, std::vector<std::set<std::string>>> groups;
  CollectConditionGroups(plan, db, &groups);
  std::map<std::string, std::set<std::string>> out;
  for (const auto& [table, sets] : groups) {
    for (const std::set<std::string>& s : sets) {
      out[table].insert(s.begin(), s.end());
    }
  }
  return out;
}

const std::vector<DiffSchema>& GeneratedDiffSchemas::For(
    const std::string& table) const {
  static const std::vector<DiffSchema> kEmpty;
  const auto it = per_table.find(table);
  return it == per_table.end() ? kEmpty : it->second;
}

GeneratedDiffSchemas GenerateBaseDiffSchemas(const IdAnnotatedPlan& view,
                                             const Database& db) {
  std::map<std::string, std::vector<std::set<std::string>>> condition_groups;
  CollectConditionGroups(view.plan, db, &condition_groups);

  GeneratedDiffSchemas out;
  std::set<std::string> tables;
  for (const PlanNode* scan : CollectScans(view.plan)) {
    tables.insert(scan->table_name());
  }
  for (const std::string& table_name : tables) {
    const Table& table = db.GetTable(table_name);
    const Schema& schema = table.schema();
    const std::vector<std::string>& keys = table.key_columns();
    std::vector<std::string> non_keys;
    for (const ColumnDef& col : schema.columns()) {
      if (std::find(keys.begin(), keys.end(), col.name) == keys.end()) {
        non_keys.push_back(col.name);
      }
    }

    std::vector<DiffSchema>& schemas = out.per_table[table_name];
    // ∆+_R(Ī, Ā_post) and ∆−_R(Ī, Ā_pre).
    schemas.emplace_back(DiffType::kInsert, table_name, schema, keys,
                         std::vector<std::string>{}, non_keys);
    schemas.emplace_back(DiffType::kDelete, table_name, schema, keys,
                         non_keys, std::vector<std::string>{});

    // Update schemas: one per distinct C_op group, plus NC.
    std::vector<std::set<std::string>> groups;
    std::set<std::string> conditional;
    const auto it = condition_groups.find(table_name);
    if (it != condition_groups.end()) {
      for (const std::set<std::string>& g : it->second) {
        if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
          groups.push_back(g);
        }
        conditional.insert(g.begin(), g.end());
      }
    }
    std::set<std::string> nc;
    for (const std::string& attr : non_keys) {
      if (conditional.count(attr) == 0) nc.insert(attr);
    }
    if (!nc.empty()) groups.push_back(nc);
    // Fallback schema for updates whose changed attributes span several
    // groups: an i-diff's unchanged attributes must really be unchanged (its
    // pre values double as post values in the rules), so a spanning update
    // cannot be split across group diffs. The union schema covers it.
    if (groups.size() > 1) {
      const std::set<std::string> all(non_keys.begin(), non_keys.end());
      if (std::find(groups.begin(), groups.end(), all) == groups.end()) {
        groups.push_back(all);
      }
    }

    for (const std::set<std::string>& group : groups) {
      schemas.emplace_back(
          DiffType::kUpdate, table_name, schema, keys, non_keys,
          std::vector<std::string>(group.begin(), group.end()));
    }
  }
  return out;
}

}  // namespace idivm
