// Versioned typed messages — the sweep-service protocol layer.
//
// One message per transport frame (net/socket.hpp). The encoding is a
// single header line followed by an optional free-form body:
//
//   bsched-msg v1 <type> key=value key=value ...\n
//   <body bytes, verbatim>
//
// Header values must not contain spaces, newlines or control bytes
// (they are numbers and tokens; bytes >= 0x80 pass through opaquely so
// worker names may be UTF-8); anything bulky — the sweep definition,
// shard aggregates — travels in the body as a dist::codec section.
// Decoding rejects a different protocol version outright, so a v2
// coordinator never half-understands a v1 worker or vice versa, and is
// safe on hostile frames: the header line is capped at
// max_header_bytes, control bytes anywhere in it are rejected, and
// error messages echo at most a clipped prefix of attacker-controlled
// input. A type encode would refuse (holding '=') is refused too.
//
// Message types of protocol v1 (C = coordinator, W = worker):
//
//   W->C  hello      proto=1 name=<token>        — first frame on connect
//   C->W  sweep      session=S chunk=K
//                    lease_timeout_ms=T          body: bsched-sweep v2
//                    telemetry_ms=M              — T and M set the
//                                                  heartbeat interval
//   W->C  ready      session=S                   — worker wants a lease
//   C->W  lease      lease=L epoch=E first=A last=B
//   C->W  shutdown   reason=complete|deadline|   — no work ever again;
//                    protocol-mismatch             may replace sweep
//   W->C  heartbeat  session=S lease=L epoch=E done=F
//                                                — F: global item frontier;
//                                                after a lease's first
//                                                chunk, then after the
//                                                first chunk to end
//                                                min(M, T/4) ms or more
//                                                after the last heartbeat.
//                                                body: bsched-telemetry
//                                                v1, the worker's metrics
//                                                snapshot
//                                                (obs/telemetry.hpp), on
//                                                every heartbeat; empty
//                                                bodies are fine
//   C->W  trim       lease=L epoch=E last=X      — work-steal proposal
//   W->C  trimmed    session=S lease=L epoch=E last=Y
//                                                — actual cut, Y >= X or
//                                                  the worker's frontier
//   W->C  result     session=S lease=L epoch=E   body: bsched-shard v5
//   C->W  ack        lease=L epoch=E ok=0|1      — result accepted or
//                                                  rejected (stale epoch,
//                                                  duplicate, bad range)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace bsched::net {

/// Protocol version spoken by this build (the N of "bsched-msg vN").
inline constexpr std::uint64_t protocol_version = 1;

/// Longest header line decode accepts. Real headers are a few dozen
/// bytes; the cap stops a hostile peer from making us build a
/// multi-megabyte field map (or echo one back) out of a single frame.
/// Bodies are unaffected — bulky payloads belong there.
inline constexpr std::size_t max_header_bytes = 64 * 1024;

/// A decoded protocol message.
struct message {
  std::string type;
  std::map<std::string, std::string> fields;
  std::string body;

  /// Field accessors; throw bsched::error naming the message type and
  /// the missing/malformed key.
  [[nodiscard]] std::uint64_t u64(const std::string& key) const;
  [[nodiscard]] const std::string& str(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const {
    return fields.count(key) != 0;
  }
};

/// Renders a message to one frame payload. Throws bsched::error when a
/// header field contains a space or newline (header values are tokens).
[[nodiscard]] std::string encode(const message& m);

/// Parses a frame payload back; strict inverse of encode. Throws
/// bsched::error on a foreign protocol version or malformed header.
[[nodiscard]] message decode(std::string_view frame);

/// Convenience builder for the common "type + numeric fields" shape.
[[nodiscard]] message make(std::string type);

}  // namespace bsched::net
