// The "bsched-telemetry v1" text codec — one format for two jobs:
//
//   * workers piggyback a metrics snapshot on each svc heartbeat (the
//     message body), and
//   * the coordinator's fleet-wide view is emitted as the same text by
//     `sweep_serve --metrics-out` (the exposition file tools/obs_report
//     and the CI smoke parse back).
//
// Line-oriented, like the dist codec:
//
//   bsched-telemetry v1
//   counter <name> <u64>
//   gauge <name> <double>
//   hist <name> bounds=<k> <bound>{k} <bucket>{k+1} sum=<double>
//   end
//
// The encoder sorts by name within each kind, so two encodings of equal
// snapshots are byte-identical (scrape determinism rides on this).
// Doubles use util::shortest_double, so decode(encode(s)) == s exactly.
// The decoder (util/wire.hpp) is strict: unknown tags, malformed counts,
// names unsorted or repeated within a kind, a missing magic/end line or
// text after "end" throw bsched::error naming the line.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace bsched::obs {

/// Encodes `snap` in the format above (sorted within kinds): heartbeat
/// bodies and the exposition file.
[[nodiscard]] std::string encode_telemetry_str(const snapshot& snap);

/// Strict inverse of encode_telemetry_str; throws bsched::error on any
/// deviation from the format.
[[nodiscard]] snapshot decode_telemetry_str(const std::string& text);

}  // namespace bsched::obs
