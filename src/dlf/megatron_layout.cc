#include "src/dlf/megatron_layout.h"

namespace maya {

MegatronLayout::MegatronLayout(int total_gpus, int tensor_parallel, int pipeline_parallel)
    : total_gpus_(total_gpus), tp_(tensor_parallel), pp_(pipeline_parallel) {
  CHECK_GT(tp_, 0);
  CHECK_GT(pp_, 0);
  const int model_parallel = tp_ * pp_;
  CHECK_EQ(total_gpus_ % model_parallel, 0);
  dp_ = total_gpus_ / model_parallel;
}

int MegatronLayout::tp_index(int rank) const {
  CHECK_GE(rank, 0);
  CHECK_LT(rank, total_gpus_);
  return rank % tp_;
}

int MegatronLayout::dp_index(int rank) const { return (rank / tp_) % dp_; }

int MegatronLayout::pp_stage(int rank) const { return rank / (tp_ * dp_); }

int MegatronLayout::RankOf(int tp_idx, int dp_idx, int pp_idx) const {
  CHECK_GE(tp_idx, 0);
  CHECK_LT(tp_idx, tp_);
  CHECK_GE(dp_idx, 0);
  CHECK_LT(dp_idx, dp_);
  CHECK_GE(pp_idx, 0);
  CHECK_LT(pp_idx, pp_);
  return tp_idx + tp_ * (dp_idx + dp_ * pp_idx);
}

std::vector<int> MegatronLayout::TpGroup(int rank) const {
  std::vector<int> group;
  group.reserve(static_cast<size_t>(tp_));
  for (int t = 0; t < tp_; ++t) {
    group.push_back(RankOf(t, dp_index(rank), pp_stage(rank)));
  }
  return group;
}

std::vector<int> MegatronLayout::DpGroup(int rank) const {
  std::vector<int> group;
  group.reserve(static_cast<size_t>(dp_));
  for (int d = 0; d < dp_; ++d) {
    group.push_back(RankOf(tp_index(rank), d, pp_stage(rank)));
  }
  return group;
}

std::vector<int> MegatronLayout::PpGroup(int rank) const {
  std::vector<int> group;
  group.reserve(static_cast<size_t>(pp_));
  for (int p = 0; p < pp_; ++p) {
    group.push_back(RankOf(tp_index(rank), dp_index(rank), p));
  }
  return group;
}

int MegatronLayout::RepresentativeOf(int rank) const {
  return RankOf(0, 0, pp_stage(rank));
}

}  // namespace maya
