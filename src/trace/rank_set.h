// Compressed rank sets for virtual folded ranks (§7.4, hyperscale mode).
//
// A RankSet stores a set of global ranks as a short list of arithmetic
// spans {base, count, stride} instead of one int per member, so a worker
// that represents an entire data-parallel slice of a 131k-GPU job carries
// O(1) state rather than O(dp). The span list is kept in a canonical form
// (the one produced by inserting the members in ascending order with a
// greedy extender), which makes operator== a structural comparison and
// keeps serialization deterministic.
#ifndef SRC_TRACE_RANK_SET_H_
#define SRC_TRACE_RANK_SET_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

namespace maya {

// Arithmetic progression of global ranks: base, base+stride, ...,
// base + (count-1)*stride. Singletons are canonically {base, 1, 1}.
struct RankSpan {
  int64_t base = 0;
  int64_t count = 0;
  int64_t stride = 1;

  int64_t last() const { return base + (count - 1) * stride; }
  bool contains(int64_t rank) const {
    return rank >= base && rank <= last() && (rank - base) % stride == 0;
  }

  bool operator==(const RankSpan&) const = default;
};

class RankSet {
 public:
  RankSet() = default;
  RankSet(std::initializer_list<int> ranks) {
    for (int rank : ranks) Add(rank);
  }

  // Inserts `rank`. Members MUST be added in strictly ascending order; this
  // is what defines the canonical span decomposition.
  void Add(int64_t rank);

  // Bulk-inserts the arithmetic progression base, base+stride, ... without
  // materializing it. Same ascending-order contract as Add() (the whole
  // span must sort after everything already present).
  void AddSpan(int64_t base, int64_t count, int64_t stride);

  // Union with `other` (sets must be disjoint). Fast path fuses span lists
  // when they interleave only at span granularity; otherwise falls back to
  // materialize-and-rebuild (only ever hit by small hand-built sets).
  void MergeFrom(const RankSet& other);

  bool empty() const { return spans_.empty(); }
  size_t size() const { return total_; }
  int64_t min_rank() const { return spans_.front().base; }
  int64_t max_rank() const { return spans_.back().last(); }
  bool contains(int64_t rank) const;
  const std::vector<RankSpan>& spans() const { return spans_; }

  // Expands to the explicit ascending member list (test/debug helper —
  // O(size), avoid on hyperscale sets in hot paths).
  std::vector<int> Materialize() const;

  std::string ToString() const;

  bool operator==(const RankSet&) const = default;

  // Forward iteration over members in ascending order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = int64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const int64_t*;
    using reference = int64_t;
    const_iterator(const std::vector<RankSpan>* spans, size_t span_index, int64_t offset)
        : spans_(spans), span_index_(span_index), offset_(offset) {}
    int64_t operator*() const {
      const RankSpan& s = (*spans_)[span_index_];
      return s.base + offset_ * s.stride;
    }
    const_iterator& operator++() {
      if (++offset_ >= (*spans_)[span_index_].count) {
        ++span_index_;
        offset_ = 0;
      }
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return span_index_ == o.span_index_ && offset_ == o.offset_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    const std::vector<RankSpan>* spans_;
    size_t span_index_;
    int64_t offset_;
  };

  const_iterator begin() const { return const_iterator(&spans_, 0, 0); }
  const_iterator end() const { return const_iterator(&spans_, spans_.size(), 0); }

 private:
  std::vector<RankSpan> spans_;
  size_t total_ = 0;
};

// Builds a RankSet covering every member of a set list exactly once — used
// for "which worker owns rank r" queries without a dense O(world) table.
// Values are the indices passed at Add time (typically worker indices).
class RankLookup {
 public:
  RankLookup() = default;
  explicit RankLookup(const std::vector<RankSet>& sets) {
    for (size_t i = 0; i < sets.size(); ++i) Add(sets[i], static_cast<int>(i));
    Seal();
  }

  void Add(const RankSet& set, int value);
  void Seal();  // sorts the index; required before Find()

  // Returns the value registered for the set containing `rank`, or -1.
  int Find(int64_t rank) const;

 private:
  struct Entry {
    RankSpan span;
    int value = 0;
  };
  std::vector<Entry> entries_;
  int64_t max_extent_ = 0;  // max (last - base) over entries; bounds back-scan
  bool sealed_ = false;
};

}  // namespace maya

#endif  // SRC_TRACE_RANK_SET_H_
