// ID-based diff (i-diff) schemas — Section 2 of the paper.
//
// An i-diff of type t ∈ {+,−,u} for a relation V(Ī, Ā) is a relation
// ∆ᵗ_V(Ī′, Ā′_pre, Ā″_post) where Ī′ ⊆ Ī identifies the tuples to modify,
// Ā′_pre stores pre-state values and Ā″_post post-state values:
//   - insert i-diffs carry the full ID Ī and post-state for all of Ā;
//   - delete i-diffs carry Ī′ and optional pre-state attributes;
//   - update i-diffs carry Ī′, optional pre-state and the updated post-state.
//
// Tuple-based diffs (t-diffs) are represented with the same machinery: a
// t-diff is simply a diff whose Ī′ is the full view ID and whose attribute
// sets cover all non-ID attributes (one diff tuple per view tuple).
//
// Materialized column naming: ID columns keep their names; pre-state columns
// get the "__pre" suffix, post-state columns "__post".

#ifndef IDIVM_DIFF_DIFF_SCHEMA_H_
#define IDIVM_DIFF_DIFF_SCHEMA_H_

#include <string>
#include <vector>

#include "src/types/schema.h"

namespace idivm {

enum class DiffType { kInsert, kDelete, kUpdate };

const char* DiffTypeName(DiffType type);  // "+", "-", "u"

inline constexpr char kPreSuffix[] = "__pre";
inline constexpr char kPostSuffix[] = "__post";

// Name of a pre-/post-state column for target attribute `attr`.
std::string PreName(const std::string& attr);
std::string PostName(const std::string& attr);
// Strips a recognized suffix; returns the input unchanged otherwise.
std::string StripStateSuffix(const std::string& name);

// The schema ∆ᵗ_V(Ī′, Ā′_pre, Ā″_post) of one i-diff, and the
// materialized relation schema its instances carry.
class DiffSchema {
 public:
  DiffSchema() = default;

  // `target_schema` is the schema of the relation the diff applies to;
  // `id_columns` = Ī′, `pre_columns` = Ā′, `post_columns` = Ā″ (all named by
  // their target-attribute names, without suffixes). Invariants checked:
  // attribute sets are disjoint from Ī′ and exist in the target schema;
  // insert diffs have no pre set; delete diffs have no post set.
  DiffSchema(DiffType type, std::string target, const Schema& target_schema,
             std::vector<std::string> id_columns,
             std::vector<std::string> pre_columns,
             std::vector<std::string> post_columns, bool additive = false);

  DiffType type() const { return type_; }

  // Additive update diffs carry numeric *deltas* in their post columns:
  // APPLY performs SET a = a + a__post instead of SET a = a__post. This is
  // how the blocking γ-SUM/COUNT rules (Tables 9 and 11) update aggregates
  // in one pass without first reading the old value.
  bool additive() const { return additive_; }
  const std::string& target() const { return target_; }
  const std::vector<std::string>& id_columns() const { return id_columns_; }
  const std::vector<std::string>& pre_columns() const { return pre_columns_; }
  const std::vector<std::string>& post_columns() const {
    return post_columns_;
  }

  // The materialized relation schema: [Ī′..., Ā′__pre..., Ā″__post...].
  const Schema& relation_schema() const { return relation_schema_; }

  // Convenience: does `attr` appear in the post (update target) set?
  bool HasPost(const std::string& attr) const;
  bool HasPre(const std::string& attr) const;

  // Display name like "∆u_parts(pid | pre: price | post: price)".
  std::string ToString() const;

  friend bool operator==(const DiffSchema& a, const DiffSchema& b) {
    return a.type_ == b.type_ && a.target_ == b.target_ &&
           a.id_columns_ == b.id_columns_ && a.pre_columns_ == b.pre_columns_ &&
           a.post_columns_ == b.post_columns_ && a.additive_ == b.additive_;
  }

 private:
  DiffType type_ = DiffType::kUpdate;
  bool additive_ = false;
  std::string target_;
  std::vector<std::string> id_columns_;
  std::vector<std::string> pre_columns_;
  std::vector<std::string> post_columns_;
  Schema relation_schema_;
};

}  // namespace idivm

#endif  // IDIVM_DIFF_DIFF_SCHEMA_H_
