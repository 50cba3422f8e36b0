#include "dist/shard.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace bsched::dist {

shard plan_shard(const api::sweep& sw, std::size_t k, std::size_t n) {
  require(n >= 1, "plan_shard: need at least one shard");
  require(k < n, "plan_shard: shard index " + std::to_string(k) +
                     " out of range for " + std::to_string(n) + " shards");
  const std::size_t total = sw.cells.size() * sw.replications;
  shard sh;
  sh.index = k;
  sh.count = n;
  // Balanced contiguous ranges: floor(k * total / n) boundaries give
  // sizes that differ by at most one and tile [0, total) exactly.
  sh.first = k * total / n;
  sh.last = (k + 1) * total / n;
  sh.sweep = sw;
  return sh;
}

shard_aggregate empty_aggregate(const api::sweep& sw) {
  shard_aggregate out;
  out.grid_cells = sw.cells.size();
  out.replications = sw.replications;
  out.seed = sw.seed;
  out.reseed = sw.reseed;
  out.cells.resize(sw.cells.size());
  for (std::size_t i = 0; i < sw.cells.size(); ++i) {
    out.cells[i].cell = i;
    out.cells[i].label = sw.cells[i].describe();
    out.cells[i].load = sw.cells[i].load.describe();
    out.cells[i].policy = sw.cells[i].policy;
    out.cells[i].fidelity = api::name(sw.cells[i].model);
  }
  return out;
}

shard_aggregate run_shard(const api::engine& engine, const shard& sh,
                          std::size_t n_threads) {
  shard_aggregate out = empty_aggregate(sh.sweep);
  out.shard_index = sh.index;
  out.shard_count = sh.count;
  out.first_item = sh.first;
  out.last_item = sh.first;
  run_shard(engine, sh, out, n_threads);
  return out;
}

void run_shard(const api::engine& engine, const shard& sh,
               shard_aggregate& into, std::size_t n_threads) {
  const api::sweep& sw = sh.sweep;
  const std::size_t total = sw.cells.size() * sw.replications;
  require(sh.first <= sh.last && sh.last <= total,
          "run_shard: shard range exceeds the sweep's item stream");
  if (into.last_item != sh.first) {
    throw error("run_shard: range [" + std::to_string(sh.first) + ", " +
                std::to_string(sh.last) +
                ") does not continue an aggregate ending at item " +
                std::to_string(into.last_item));
  }
  require(into.grid_cells == sw.cells.size() &&
              into.cells.size() == sw.cells.size() &&
              into.replications == sw.replications && into.seed == sw.seed &&
              into.reseed == sw.reseed,
          "run_shard: the aggregate belongs to a different sweep");

  // Items carry their global (cell, replication), so each runs exactly
  // the scenario the full sweep would, and lands in its own cell.
  api::callback_sink sink{[&into](const api::sweep_result& r) {
    into.cells[r.cell].agg.add(r.result, r.cache_hit);
  }};
  into.stats += engine.run_sweep(sw, sink, n_threads, {sh.first, sh.last});
  into.last_item = sh.last;
}

namespace {

/// Shape/descriptor agreement between parts of one sweep — the merge
/// precondition shared by every fold path.
void check_same_shape(const shard_aggregate& ref, const shard_aggregate& p) {
  require(p.grid_cells == ref.grid_cells &&
              p.replications == ref.replications && p.seed == ref.seed &&
              p.reseed == ref.reseed && p.shard_count == ref.shard_count,
          "merge_shards: part [" + std::to_string(p.first_item) + ", " +
              std::to_string(p.last_item) +
              ") disagrees on the sweep shape");
  require(p.cells.size() == ref.cells.size(),
          "merge_shards: part [" + std::to_string(p.first_item) + ", " +
              std::to_string(p.last_item) +
              ") carries a different cell count");
  for (std::size_t i = 0; i < ref.cells.size(); ++i) {
    require(p.cells[i].label == ref.cells[i].label &&
                p.cells[i].load == ref.cells[i].load &&
                p.cells[i].policy == ref.cells[i].policy &&
                p.cells[i].fidelity == ref.cells[i].fidelity,
            "merge_shards: cell " + std::to_string(i) +
                " descriptors disagree between parts");
  }
}

}  // namespace

void stream_merger::add(shard_aggregate part) {
  require(part.first_item <= part.last_item,
          "merge_shards: malformed part range [" +
              std::to_string(part.first_item) + ", " +
              std::to_string(part.last_item) + ")");
  if (seeded_ || !pending_.empty()) {
    check_same_shape(seeded_ ? merged_ : pending_.front(), part);
  }
  require(part.first_item >= next_,
          "merge_shards: overlapping shard ranges at item " +
              std::to_string(part.first_item));
  // Keep pending_ sorted by (first, last): an empty [X, X) folds before
  // the non-empty [X, Y) it abuts, exactly as a one-shot sorted merge.
  const auto pos = std::upper_bound(
      pending_.begin(), pending_.end(), part,
      [](const shard_aggregate& a, const shard_aggregate& b) {
        return a.first_item != b.first_item ? a.first_item < b.first_item
                                            : a.last_item < b.last_item;
      });
  pending_.insert(pos, std::move(part));
  // Fold the contiguous prefix.
  while (!pending_.empty()) {
    shard_aggregate& head = pending_.front();
    require(head.first_item >= next_,
            "merge_shards: overlapping shard ranges at item " +
                std::to_string(head.first_item));
    if (head.first_item != next_) break;  // stream gap (so far)
    if (!seeded_) {
      merged_ = std::move(head);
      seeded_ = true;
    } else {
      for (std::size_t i = 0; i < merged_.cells.size(); ++i) {
        merged_.cells[i].agg.merge(head.cells[i].agg);
      }
      merged_.last_item = head.last_item;
      merged_.stats += head.stats;
    }
    next_ = merged_.last_item;
    pending_.erase(pending_.begin());
  }
}

bool stream_merger::complete(std::size_t last) const noexcept {
  return seeded_ && pending_.empty() && next_ == last;
}

shard_aggregate stream_merger::take(std::size_t last) {
  require(seeded_, "merge_shards: need at least one shard aggregate");
  require(pending_.empty() && next_ == last,
          "merge_shards: gap in shard coverage at item " +
              std::to_string(next_));
  // The merged aggregate speaks for the whole assembled range.
  merged_.shard_index = 0;
  merged_.shard_count = 1;
  seeded_ = false;
  return std::move(merged_);
}

shard_aggregate merge_shards(std::vector<shard_aggregate> parts) {
  require(!parts.empty(), "merge_shards: need at least one shard aggregate");
  const std::size_t total =
      parts.front().grid_cells * parts.front().replications;
  stream_merger merger;
  for (shard_aggregate& part : parts) merger.add(std::move(part));
  return merger.take(total);
}

std::vector<api::cell_summary> summaries(const shard_aggregate& agg) {
  std::vector<api::cell_summary> out(agg.cells.size());
  for (std::size_t i = 0; i < agg.cells.size(); ++i) {
    out[i].cell = agg.cells[i].cell;
    out[i].label = agg.cells[i].label;
    out[i].load = agg.cells[i].load;
    out[i].policy = agg.cells[i].policy;
    out[i].fidelity = agg.cells[i].fidelity;
    agg.cells[i].agg.finalize(out[i]);
  }
  return out;
}

}  // namespace bsched::dist
