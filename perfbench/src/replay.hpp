// Replay phase of the traced run: layers with no public seam on the
// workload path (the dKiBaM kernel, bank construction, load
// materialization, the dist codec, net framing, obs scrapes) are timed
// by calling the layer function directly on the workload's own inputs.
// Multiplying a replayed per-call time by the traced pass's call count
// estimates the layer's share of the pass.
#pragma once

#include "api/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Median per-call times (microseconds) and sizes (bytes).
struct replay_result {
  double bank_build_us = 0;    ///< kibam::bank construction.
  double materialize_us = 0;   ///< load_spec::materialize.
  double advance_us = 0;       ///< kibam::bank::advance_all.
  double encode_us = 0;        ///< dist::encode_str of a lease aggregate.
  double decode_us = 0;        ///< dist::decode_str of the same.
  double agg_bytes = 0;        ///< Its encoded size.
  double frame_rtt_us = 0;     ///< Heartbeat-sized frame round trip.
  double result_rtt_us = 0;    ///< Result-sized frame round trip.
  double scrape_us = 0;        ///< Heartbeat body: scrape + telemetry encode.
  double snapshot_bytes = 0;   ///< Its encoded size.
};

/// `steps_per_call` is the traced pass's kibam steps per advance call,
/// so the kernel replay advances spans of the workload's typical length.
[[nodiscard]] replay_result run_replays(const replay_inputs& in,
                                        const bsched::api::engine& engine,
                                        double steps_per_call);

}  // namespace perfbench
