// Shared harness of the distributed-sweep tests (dist, svc, stress): the
// single-process reference, the merge equivalence contract, a scripted
// worker speaking raw protocol frames, and a clock that holds a real
// worker at its first chunk.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/sweep.hpp"
#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "svc/worker.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace bsched::support {

/// Single-process reference: run_sweep + summarize.
inline std::vector<api::cell_summary> reference(const api::sweep& sw) {
  const api::engine eng;
  api::summarize sink{sw};
  eng.run_sweep(sw, sink, 2);
  return sink.cells();
}

/// The dist equivalence contract: every summary field but the
/// per-process cache accounting is equal, doubles bit for bit. The
/// fields are checked one by one for readable diagnostics, then as a
/// whole, so a field added to cell_summary is covered too.
inline void expect_equivalent(const std::vector<api::cell_summary>& merged,
                              const std::vector<api::cell_summary>& ref) {
  ASSERT_EQ(merged.size(), ref.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    api::cell_summary m = merged[i];
    api::cell_summary r = ref[i];
    m.cache_hits = r.cache_hits = 0;
    EXPECT_EQ(m.cell, r.cell);
    EXPECT_EQ(m.label, r.label);
    EXPECT_EQ(m.n, r.n) << r.label;
    EXPECT_EQ(m.failures, r.failures) << r.label;
    EXPECT_EQ(m.mean_min, r.mean_min) << r.label;
    EXPECT_EQ(m.stddev_min, r.stddev_min) << r.label;
    EXPECT_EQ(m.ci95_min, r.ci95_min) << r.label;
    EXPECT_EQ(m.min_min, r.min_min) << r.label;
    EXPECT_EQ(m.max_min, r.max_min) << r.label;
    EXPECT_EQ(m.p10_min, r.p10_min) << r.label;
    EXPECT_EQ(m.p50_min, r.p50_min) << r.label;
    EXPECT_EQ(m.p90_min, r.p90_min) << r.label;
    EXPECT_EQ(m.p50_residual_amin, r.p50_residual_amin) << r.label;
    EXPECT_TRUE(m == r) << r.label;
  }
}

/// A worker_options::clock whose first now() runs `hook` before it
/// answers. svc::run_worker first reads its clock when it starts the
/// first chunk of its first lease, so the hook holds the worker there:
/// it holds a lease and has computed nothing. Fleet tests use it to make
/// every worker take part (the hook waits on a latch all of them arrive
/// at) or to start a straggler only once its trim is on the wire. If
/// run_worker ever read its clock earlier, the hook would fire earlier
/// and those tests would lose their guarantee.
class first_chunk_clock final : public util::monotonic_clock {
 public:
  explicit first_chunk_clock(std::function<void()> hook)
      : hook_(std::move(hook)) {}

  [[nodiscard]] time_point now() const noexcept override {
    std::call_once(once_, hook_);
    return system().now();
  }

 private:
  std::function<void()> hook_;
  mutable std::once_flag once_;
};

/// Runs svc::run_worker on a thread with a one-thread pool. A `clock`
/// replaces the system clock and must outlive the future.
inline std::future<svc::worker_report> join_fleet(
    const api::engine& engine, std::uint16_t port, const std::string& name,
    const util::monotonic_clock* clock = nullptr) {
  return std::async(std::launch::async, [&engine, port, name, clock] {
    svc::worker_options opts;
    opts.port = port;
    opts.name = name;
    opts.n_threads = 1;
    opts.clock = clock;
    return svc::run_worker(engine, opts);
  });
}

/// A scripted worker speaking raw protocol frames — the misbehaving half
/// of the crash-recovery tests (the real svc::run_worker would never go
/// silent, die mid-shard, or send a result twice).
struct fake_worker {
  net::connection conn;
  int io_timeout_ms;
  std::uint64_t session = 0;
  api::sweep sw;

  /// hello -> sweep handshake. The timeout is generous: these are tests,
  /// not liveness checks.
  explicit fake_worker(std::uint16_t port, int timeout_ms = 20000)
      : io_timeout_ms(timeout_ms) {
    conn = net::connection::dial("127.0.0.1", port, io_timeout_ms);
    net::message hello = net::make("hello");
    hello.fields["proto"] = std::to_string(net::protocol_version);
    hello.fields["name"] = "fake";
    conn.send_frame(net::encode(hello), io_timeout_ms);
    const net::message sweep_msg = recv();
    EXPECT_EQ(sweep_msg.type, "sweep");
    session = sweep_msg.u64("session");
    sw = dist::decode_sweep_str(sweep_msg.body);
  }

  void send(net::message m) {
    m.fields["session"] = std::to_string(session);
    conn.send_frame(net::encode(m), io_timeout_ms);
  }

  [[nodiscard]] net::message recv() {
    auto frame = conn.recv_frame(io_timeout_ms);
    if (!frame.has_value()) throw error("fake worker: recv timed out");
    return net::decode(*frame);
  }

  /// ready -> lease.
  [[nodiscard]] net::message take_lease() {
    send(net::make("ready"));
    const net::message lease = recv();
    EXPECT_EQ(lease.type, "lease");
    return lease;
  }

  /// The honest `result` for `lease`, computed over the wire-decoded
  /// sweep (no compiled-in grid).
  [[nodiscard]] net::message result_for(const api::engine& engine,
                                        const net::message& lease) const {
    dist::shard sh;
    sh.sweep = sw;
    sh.first = static_cast<std::size_t>(lease.u64("first"));
    sh.last = static_cast<std::size_t>(lease.u64("last"));
    net::message result = net::make("result");
    result.fields["lease"] = lease.str("lease");
    result.fields["epoch"] = lease.str("epoch");
    result.body = dist::encode_str(dist::run_shard(engine, sh, 1));
    return result;
  }

  /// Writes the length prefix of a frame past net::max_frame_bytes and
  /// nothing else: the coordinator must hang up without buffering the
  /// promised bytes.
  void announce_oversized_frame() {
    const std::size_t announced = net::max_frame_bytes + 1;
    const char prefix[4] = {static_cast<char>((announced >> 24) & 0xff),
                            static_cast<char>((announced >> 16) & 0xff),
                            static_cast<char>((announced >> 8) & 0xff),
                            static_cast<char>(announced & 0xff)};
    ASSERT_EQ(::send(conn.fd(), prefix, sizeof prefix, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof prefix));
  }
};

}  // namespace bsched::support
