// Versioned portable serialization of shard aggregates.
//
// The wire format is line-oriented text: one "bsched-shard v<N>" magic
// line, then space-separated key=value records. Doubles are rendered in
// their shortest round-tripping decimal form (util/text.hpp), so a
// decoded aggregate compares *equal* to the encoded one — merging shard
// files is bit-identical to merging the in-memory aggregates. Free-form
// strings (labels, load/policy specs) are carried as "key=<rest of
// line>" records and may contain anything but a newline.
//
//   bsched-shard v5
//   shard index=0 count=3 first=0 last=34
//   sweep cells=10 replications=10 seed=2009 reseed=1
//   stats runs=34 evaluated=34 cache_hits=0 failures=0
//   cell index=0
//   label=2xC=5.5 | random:... | round_robin | discrete
//   load=random:count=40,idle=1,p=0.3,seed=1
//   policy=round_robin
//   fidelity=discrete
//   agg failures=0 cache_hits=0
//   search nodes=0 memo_hits=0 pruned=0 memo_entries=0 rollouts=0
//          pruned_by_bound=0 incumbent_from_lookahead=0
//   lifetime values=3 12.68:1 14.98:2 20.07:1
//   residual values=4 6.99:1 7.5:1 7.755:1 8.125:1
//   ...
//   end
//
// Stability note: readers reject a different version line rather than
// guessing, and any change to a record's fields bumps the version. v2
// dropped two fields of the search record (the parallel search's steal
// and memo-shard counts); v3 and sweep v2 dropped the sweep record's
// pair-by-load flag; v4 dropped the search record's memo-eviction count;
// v5 replaced the quantile sketches by exact value:count lists
// (api::value_counts) and dropped the agg record's n/mean/m2/min/max,
// which the counts determine. Older documents are rejected on their
// magic line. Decoding (util/wire.hpp) is strict: wrong magic,
// truncation, a duplicated or out-of-place section, unknown tags,
// malformed numbers, value lists whose values do not strictly increase
// (NaN included), zero counts, a count total that overflows, lifetime
// and residual totals that differ, and text after "end" throw
// bsched::error naming the 1-based line number and the section being
// decoded — no silent partial decode.
//
// A second section, "bsched-sweep v2", serializes a full api::sweep
// *definition* (the grid itself, not results): per cell the battery
// parameters, the load (its describe() round-trip form for paper/random
// loads, explicit epochs for raw traces), the policy spec, fidelity,
// discretization steps and sim options, plus the sweep's replications,
// base seed and reseed flag. decode_sweep_str(encode_sweep_str(sw)) == sw,
// which
// is what lets the sweep service (src/svc) ship the whole campaign to
// workers that have no grid definition compiled in.
#pragma once

#include <cstddef>
#include <string>

#include "dist/shard.hpp"

namespace bsched::dist {

/// Renders `agg` in the "bsched-shard v5" line format — the form shard
/// files hold and the sweep service puts on the wire (net/message.hpp
/// bodies).
[[nodiscard]] std::string encode_str(const shard_aggregate& agg);

/// Parses one aggregate back; strict inverse of encode_str. Throws
/// bsched::error on version mismatch or malformed input.
[[nodiscard]] shard_aggregate decode_str(const std::string& text);

/// File convenience wrappers around encode_str/decode_str. Throw
/// bsched::error when the file cannot be opened.
void write_file(const shard_aggregate& agg, const std::string& path);
[[nodiscard]] shard_aggregate read_file(const std::string& path);

/// Renders the full sweep *definition* ("bsched-sweep v2"): cells with
/// banks/loads/policies/steps/sim options, replications, base seed and
/// reseed flag. Round-trips bit-exactly through decode_sweep_str.
[[nodiscard]] std::string encode_sweep_str(const api::sweep& sw);

/// Parses a sweep definition back; strict inverse of encode_sweep_str.
/// Throws bsched::error (line + section named) on malformed input.
[[nodiscard]] api::sweep decode_sweep_str(const std::string& text);

}  // namespace bsched::dist
