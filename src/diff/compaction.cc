#include "src/diff/compaction.h"

#include <map>
#include <optional>

#include "src/common/check.h"

namespace idivm {

std::vector<Modification> ComputeNetChanges(
    const Schema& schema, const std::vector<size_t>& key_indices,
    const std::vector<Modification>& ordered) {
  std::map<Row, std::optional<Modification>, RowLess> net;
  std::vector<Row> key_order;  // keep deterministic first-seen output order

  for (const Modification& mod : ordered) {
    const Row& full =
        mod.kind == DiffType::kDelete ? mod.pre : mod.post;
    IDIVM_CHECK(full.size() == schema.num_columns(),
                "modification row arity mismatch");
    if (mod.kind == DiffType::kUpdate) {
      IDIVM_CHECK(CompareRows(ProjectRow(mod.pre, key_indices),
                              ProjectRow(mod.post, key_indices)) == 0,
                  "primary keys are immutable (paper footnote 7)");
    }
    const Row key = ProjectRow(full, key_indices);
    auto [it, inserted] = net.try_emplace(key, std::nullopt);
    if (inserted) key_order.push_back(key);
    std::optional<Modification>& state = it->second;

    if (!state.has_value()) {
      state = mod;
      continue;
    }
    switch (state->kind) {
      case DiffType::kInsert:
        switch (mod.kind) {
          case DiffType::kInsert:
            IDIVM_UNREACHABLE("double insert of a live key");
          case DiffType::kUpdate:
            state->post = mod.post;  // insert with final values
            break;
          case DiffType::kDelete:
            state.reset();  // insert then delete cancels
            break;
        }
        break;
      case DiffType::kUpdate:
        switch (mod.kind) {
          case DiffType::kInsert:
            IDIVM_UNREACHABLE("insert over a live key");
          case DiffType::kUpdate:
            state->post = mod.post;  // keep the first pre, the last post
            break;
          case DiffType::kDelete: {
            Modification del;
            del.kind = DiffType::kDelete;
            del.pre = state->pre;  // pre-state from before any change
            state = del;
            break;
          }
        }
        break;
      case DiffType::kDelete:
        switch (mod.kind) {
          case DiffType::kInsert: {
            // Delete then re-insert = update (or no-op when identical).
            if (CompareRows(state->pre, mod.post) == 0) {
              state.reset();
            } else {
              Modification upd;
              upd.kind = DiffType::kUpdate;
              upd.pre = state->pre;
              upd.post = mod.post;
              state = upd;
            }
            break;
          }
          case DiffType::kUpdate:
          case DiffType::kDelete:
            IDIVM_UNREACHABLE("modification of a deleted key");
        }
        break;
    }
    if (!state.has_value()) {
      // Key fully cancelled; keep the slot so ordering stays stable but emit
      // nothing for it below.
      continue;
    }
  }

  std::vector<Modification> out;
  out.reserve(key_order.size());
  for (const Row& key : key_order) {
    const std::optional<Modification>& state = net.at(key);
    if (!state.has_value()) continue;
    if (state->kind == DiffType::kUpdate &&
        CompareRows(state->pre, state->post) == 0) {
      continue;  // net no-op
    }
    out.push_back(*state);
  }
  return out;
}

}  // namespace idivm
