// Megatron-style process-grid layout: rank <-> (tp, dp, pp) coordinates.
//
// Rank order follows Megatron-LM's default ("tensor fastest, then data,
// then pipeline"), which keeps tensor-parallel groups inside a node. The
// layout also names each rank's equivalence-class representative (§7.4):
// the first rank of its pipeline stage.
#ifndef SRC_DLF_MEGATRON_LAYOUT_H_
#define SRC_DLF_MEGATRON_LAYOUT_H_

#include <vector>

#include "src/common/check.h"

namespace maya {

class MegatronLayout {
 public:
  MegatronLayout(int total_gpus, int tensor_parallel, int pipeline_parallel);

  int total_gpus() const { return total_gpus_; }
  int tp() const { return tp_; }
  int dp() const { return dp_; }
  int pp() const { return pp_; }

  int tp_index(int rank) const;
  int dp_index(int rank) const;
  int pp_stage(int rank) const;
  int RankOf(int tp_idx, int dp_idx, int pp_idx) const;

  // All ranks sharing the given rank's TP / DP / PP group, ordered by their
  // rank-in-group (matching NCCL communicator rank assignment).
  std::vector<int> TpGroup(int rank) const;
  std::vector<int> DpGroup(int rank) const;
  std::vector<int> PpGroup(int rank) const;

  // Group index within each dimension (used to derive communicator names).
  int TpGroupIndex(int rank) const { return dp_index(rank) + dp_ * pp_stage(rank); }
  int DpGroupIndex(int rank) const { return tp_index(rank) + tp_ * pp_stage(rank); }
  int PpGroupIndex(int rank) const { return tp_index(rank) + tp_ * dp_index(rank); }

  // TP and DP twins behave identically, so a rank's representative is the
  // first rank of its pipeline stage (the rank whose trace it duplicates).
  int RepresentativeOf(int rank) const;

 private:
  int total_gpus_;
  int tp_;
  int dp_;
  int pp_;
};

}  // namespace maya

#endif  // SRC_DLF_MEGATRON_LAYOUT_H_
