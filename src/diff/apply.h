// APPLY ∆ᵗ_V — the three DML statements of Section 2 executed against a
// stored table (a materialized view or an intermediate cache):
//
//   APPLY ∆u: UPDATE V SET Ā″ = Ā″_post FROM ∆u WHERE V.Ī′ = ∆u.Ī′
//             (or SET Ā″ = Ā″ + Ā″_post for additive diffs)
//   APPLY ∆+: INSERT INTO V SELECT ... WHERE ROW(...) NOT IN (SELECT ... V)
//   APPLY ∆−: DELETE FROM V WHERE ROW(Ī′) IN (SELECT Ī′ FROM ∆−)
//
// Costs follow the paper's model: one index lookup per diff tuple plus one
// tuple access per target tuple actually touched (Table 2: |∆| lookups,
// |D_V| = p·|∆| tuple accesses).
//
// The optional RETURNING captures implement PostgreSQL's UPDATE..RETURNING
// optimization from Appendix A.2: applying a diff to the intermediate cache
// simultaneously yields the cache-row-granularity changes needed by the
// aggregate above, at no extra data accesses.

#ifndef IDIVM_DIFF_APPLY_H_
#define IDIVM_DIFF_APPLY_H_

#include <vector>

#include "src/diff/diff_instance.h"
#include "src/robust/epoch.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"
#include "src/storage/table.h"

namespace idivm {

// What one APPLY did to its target.
struct ApplyResult {
  // Diff tuples processed.
  int64_t diff_tuples = 0;
  // Target rows actually inserted / deleted / updated.
  int64_t rows_touched = 0;
  // Diff tuples that touched no row (overestimation, Section 1 / Ex. 4.8).
  int64_t dummy_tuples = 0;

  ApplyResult& operator+=(const ApplyResult& other) {
    diff_tuples += other.diff_tuples;
    rows_touched += other.rows_touched;
    dummy_tuples += other.dummy_tuples;
    return *this;
  }
};

// RETURNING capture: full target rows before / after each touched row.
// For updates both relations are filled (aligned row-by-row); inserts fill
// only `post_images`; deletes only `pre_images`.
struct ReturningImages {
  Relation pre_images;
  Relation post_images;

  explicit ReturningImages(const Schema& target_schema)
      : pre_images(target_schema), post_images(target_schema) {}
};

// The column offsets an APPLY of one diff schema into one target table
// runs with, bound once (BindApply) so applying resolves no name.
struct ApplyBinding {
  std::vector<size_t> match_cols;      // Ī′ in the target (update, delete)
  std::vector<size_t> diff_id_cols;    // Ī′ in the diff (update, delete)
  std::vector<size_t> set_cols;        // Ā″ in the target (update)
  std::vector<size_t> diff_post_cols;  // Ā″__post in the diff (update)
  std::vector<size_t> source_cols;     // per target column, its diff
                                       // column (insert)
};

// Binds `schema`'s columns to a target table of `target_schema`. A diff
// whose columns don't line up with the target — a corrupt or mis-compiled
// ∆-script — is a CorruptScriptError.
StatusOr<ApplyBinding> BindApply(const DiffSchema& schema,
                                 const Schema& target_schema);

// Applies `diff` to `target`. Update/delete diffs locate target rows through
// the index on the diff's Ī′ columns, which must exist. Insert diffs
// enforce the paper's NOT-IN guard: a tuple already present in identical
// form is skipped; a primary-key conflict with *different* attribute values
// indicates a non-effective diff and aborts, as does a diff that does not
// bind to the target.
ApplyResult ApplyDiff(const DiffInstance& diff, Table& target,
                      ReturningImages* returning = nullptr);

// Recoverable variant over a bound diff: the ∆-script VM holds the diff's
// schema and data in separate registers and its binding in the micro-op.
// The non-effective insert conflict yields kApplyConflict instead of
// aborting the process. `*out` accumulates (+=) the apply result; on error
// the target may hold a prefix of the diff's mutations — every row touched
// up to that point has been recorded in `undo` (when provided), so the
// enclosing epoch can roll it back.
//
// Undo capture is batched: the whole call contributes one before-image
// region per (epoch, table, APPLY step) via EpochUndo::RecordBatch —
// flushed on every exit path, so the recorded-prefix contract above holds
// for errors too. When `fault` is non-null the batch boundary is itself a
// fault site, "apply-flush:<table>", visited after the mutations and
// exercised by the chaos site sweeps.
Status TryApplyDiff(const DiffSchema& schema, const ApplyBinding& binding,
                    const Relation& data, Table& target, ApplyResult* out,
                    ReturningImages* returning = nullptr,
                    EpochUndo* undo = nullptr,
                    FaultInjector* fault = nullptr);

}  // namespace idivm

#endif  // IDIVM_DIFF_APPLY_H_
