// Analytic rank-equivalence plan for virtual folds (§7.4, hyperscale mode).
//
// Each engine can describe, in closed form from its tp×pp×dp(×vision)
// layout, (a) which ranks are behavioral twins — the equivalence classes
// whose representatives are the only ranks worth emulating — and (b) the
// full membership of every communicator a given rank initializes. Together
// these let the launcher plan in O(unique classes) instead of an O(N)
// per-rank walk, and let the collator skip the per-rank comm-init evidence
// pass entirely (virtual folded ranks never run, so they record nothing).
#ifndef SRC_DLF_RANK_PLAN_H_
#define SRC_DLF_RANK_PLAN_H_

#include <string>
#include <vector>

#include "src/trace/rank_set.h"

namespace maya {

// One behavioral equivalence class: ranks in `members` execute the same
// training script with the same host-jitter stream, so the representative's
// trace stands for all of them verbatim.
struct RankClass {
  int representative = 0;  // always a member (the lowest rank of the class)
  RankSet members;
};

// One communicator a rank initializes: the registry's logical name plus the
// full membership, ordered by rank_in_comm (members[i] holds comm rank i).
struct CommSpec {
  std::string name;
  std::vector<int> members;
};

}  // namespace maya

#endif  // SRC_DLF_RANK_PLAN_H_
