#include "src/trace/rank_set.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace maya {

void RankSet::Add(int64_t rank) {
  ++total_;
  if (spans_.empty()) {
    spans_.push_back({rank, 1, 1});
    return;
  }
  RankSpan& back = spans_.back();
  const int64_t last = back.last();
  CHECK_GT(rank, last) << "RankSet members must be added in ascending order";
  if (back.count == 1) {
    back.stride = rank - back.base;
    back.count = 2;
  } else if (rank == last + back.stride) {
    ++back.count;
  } else {
    spans_.push_back({rank, 1, 1});
  }
}

void RankSet::AddSpan(int64_t base, int64_t count, int64_t stride) {
  if (count <= 0) {
    return;
  }
  // The first three members go through Add() so they fuse with whatever is
  // already present exactly as an elementwise insertion would; after that
  // the trailing span necessarily extends the last span directly (it has
  // picked up this progression's stride), so the remainder is bulk.
  const int64_t head = std::min<int64_t>(count, 3);
  for (int64_t i = 0; i < head; ++i) {
    Add(base + i * stride);
  }
  const int64_t rest = count - head;
  if (rest == 0) {
    return;
  }
  RankSpan& back = spans_.back();
  if (back.count == 1) {
    back.stride = stride;
    back.count = 1 + rest;
  } else if (back.stride == stride) {
    back.count += rest;
  } else {
    // Unreachable for ascending input, kept as a safe elementwise fallback.
    for (int64_t i = head; i < count; ++i) {
      Add(base + i * stride);
    }
    return;
  }
  total_ += rest;
}

void RankSet::MergeFrom(const RankSet& other) {
  if (other.empty()) {
    return;
  }
  if (empty()) {
    *this = other;
    return;
  }
  std::vector<RankSpan> merged;
  merged.reserve(spans_.size() + other.spans_.size());
  merged.insert(merged.end(), spans_.begin(), spans_.end());
  merged.insert(merged.end(), other.spans_.begin(), other.spans_.end());
  std::sort(merged.begin(), merged.end(),
            [](const RankSpan& a, const RankSpan& b) { return a.base < b.base; });
  // Fast path: spans interleave only at span granularity, so re-inserting
  // them in base order preserves the ascending contract.
  bool span_ordered = true;
  for (size_t i = 0; i + 1 < merged.size(); ++i) {
    if (merged[i].last() >= merged[i + 1].base) {
      span_ordered = false;
      break;
    }
  }
  RankSet rebuilt;
  if (span_ordered) {
    for (const RankSpan& span : merged) {
      rebuilt.AddSpan(span.base, span.count, span.stride);
    }
  } else {
    // Element-interleaved sets (e.g. stride-folded twins under full
    // emulation) — materialize, sort, rebuild. Only small sets
    // reach this.
    std::vector<int64_t> members;
    members.reserve(size() + other.size());
    for (const RankSpan& span : merged) {
      for (int64_t i = 0; i < span.count; ++i) {
        members.push_back(span.base + i * span.stride);
      }
    }
    std::sort(members.begin(), members.end());
    for (int64_t member : members) {
      rebuilt.Add(member);
    }
  }
  *this = std::move(rebuilt);
}

bool RankSet::contains(int64_t rank) const {
  for (const RankSpan& span : spans_) {
    if (span.contains(rank)) {
      return true;
    }
  }
  return false;
}

std::vector<int> RankSet::Materialize() const {
  std::vector<int> members;
  members.reserve(total_);
  for (const RankSpan& span : spans_) {
    for (int64_t i = 0; i < span.count; ++i) {
      members.push_back(static_cast<int>(span.base + i * span.stride));
    }
  }
  return members;
}

std::string RankSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const RankSpan& span = spans_[i];
    if (i > 0) {
      out += ", ";
    }
    if (span.count == 1) {
      out += StrFormat("%lld", static_cast<long long>(span.base));
    } else {
      out += StrFormat("%lld:+%lldx%lld", static_cast<long long>(span.base),
                       static_cast<long long>(span.count),
                       static_cast<long long>(span.stride));
    }
  }
  out += "}";
  return out;
}

void RankLookup::Add(const RankSet& set, int value) {
  CHECK(!sealed_);
  for (const RankSpan& span : set.spans()) {
    entries_.push_back({span, value});
    max_extent_ = std::max(max_extent_, span.last() - span.base);
  }
}

void RankLookup::Seal() {
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    return a.span.base < b.span.base;
  });
  sealed_ = true;
}

int RankLookup::Find(int64_t rank) const {
  CHECK(sealed_);
  // Last entry with base <= rank, then walk back while a span starting
  // earlier could still reach `rank` (bounded by the widest span extent).
  auto it = std::upper_bound(entries_.begin(), entries_.end(), rank,
                             [](int64_t r, const Entry& e) { return r < e.span.base; });
  while (it != entries_.begin()) {
    --it;
    if (it->span.contains(rank)) {
      return it->value;
    }
    if (it->span.base + max_extent_ < rank) {
      break;
    }
  }
  return -1;
}

}  // namespace maya
