#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "kibam/bank.hpp"
#include "load/discretize.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "probes.hpp"

namespace perfbench {

namespace api = bsched::api;
namespace kibam = bsched::kibam;
namespace net = bsched::net;
namespace obs = bsched::obs;

namespace {

using steady = std::chrono::steady_clock;

/// Median over `rounds` of the per-call time of `calls` calls of `fn`, in
/// microseconds. `sink` keeps results observable so nothing folds away.
template <class Fn>
double per_call_us(std::size_t rounds, std::size_t calls, Fn&& fn) {
  std::vector<double> us;
  us.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const steady::time_point t0 = steady::now();
    for (std::size_t c = 0; c < calls; ++c) fn();
    us.push_back(
        std::chrono::duration<double, std::micro>(steady::now() - t0).count() /
        static_cast<double>(calls));
  }
  return median(std::move(us));
}

std::atomic<std::size_t> sink_value{0};

/// A representative job current of `load`: its first non-idle epoch.
double job_current(const api::load_spec& load) {
  const bsched::load::trace t = load.materialize();
  for (const auto* epochs : {&t.prefix(), &t.cycle()}) {
    for (const bsched::load::epoch& e : *epochs) {
      if (e.current_a > 0) return e.current_a;
    }
  }
  return t.peak_current();
}

/// Round-trip time of a `bytes`-sized frame to an echo peer over a fresh
/// loopback connection.
double frame_rtt_us(std::size_t bytes) {
  constexpr int timeout_ms = 10000;
  net::listener lst{0};
  net::connection client = net::connection::dial("127.0.0.1", lst.port(),
                                                 timeout_ms);
  net::connection server = lst.accept();
  std::exception_ptr echo_error;
  std::thread echo([&] {
    try {
      while (auto frame = server.recv_frame(timeout_ms)) {
        if (frame->empty()) break;
        server.send_frame(*frame, timeout_ms);
      }
    } catch (...) {
      echo_error = std::current_exception();
    }
  });
  const std::string payload(bytes, 'x');
  double rtt = 0;
  try {
    rtt = per_call_us(15, 20, [&] {
      client.send_frame(payload, timeout_ms);
      const auto back = client.recv_frame(timeout_ms);
      sink_value.fetch_add(back ? back->size() : 0, std::memory_order_relaxed);
    });
    client.send_frame("", timeout_ms);
  } catch (...) {
    client.close();
    echo.join();
    throw;
  }
  echo.join();
  if (echo_error) std::rethrow_exception(echo_error);
  return rtt;
}

}  // namespace

replay_result run_replays(const replay_inputs& in, const api::engine& engine,
                          double steps_per_call) {
  replay_result out;

  out.bank_build_us = per_call_us(15, 40, [&] {
    const kibam::bank b{in.bank, in.steps};
    sink_value.fetch_add(b.size(), std::memory_order_relaxed);
  });

  std::size_t next_load = 0;
  out.materialize_us = per_call_us(15, 20, [&] {
    const bsched::load::trace t =
        in.loads[next_load++ % in.loads.size()].materialize();
    sink_value.fetch_add(t.cycle().size(), std::memory_order_relaxed);
  });

  // The kernel: the active battery draws at a job current of the
  // workload's first load, the others recover; spans of the traced
  // pass's mean length; a dead active battery restarts the bank.
  {
    const kibam::bank bank{in.bank, in.steps};
    const bsched::load::draw_rate rate =
        bsched::load::rate_for(job_current(in.loads.front()), in.steps);
    const auto span = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(steps_per_call)));
    std::vector<kibam::discrete_state> states = bank.full_states();
    std::size_t call = 0;
    out.advance_us = per_call_us(15, 400, [&] {
      const std::size_t active = call++ % bank.size();
      const kibam::advance_result r =
          bank.advance_all(states, active, rate, span);
      if (r.event == kibam::step_event::died || states[active].empty) {
        states = bank.full_states();
      }
    });
  }

  // The dist codec on one fleet-sized lease of the workload's sweep.
  {
    bsched::dist::shard sh;
    sh.sweep = *in.sweep;
    sh.first = 0;
    sh.last = std::min(in.lease_items,
                       in.sweep->cells.size() * in.sweep->replications);
    const bsched::dist::shard_aggregate agg =
        bsched::dist::run_shard(engine, sh, 1);
    std::string wire;
    out.encode_us = per_call_us(7, 5, [&] {
      wire = bsched::dist::encode_str(agg);
    });
    out.agg_bytes = static_cast<double>(wire.size());
    out.decode_us = per_call_us(7, 5, [&] {
      const bsched::dist::shard_aggregate back =
          bsched::dist::decode_str(wire);
      sink_value.fetch_add(back.cells.size(), std::memory_order_relaxed);
    });
  }

  // What a worker does per chunk for its heartbeat body.
  std::string body;
  out.scrape_us = per_call_us(15, 20, [&] {
    body = obs::encode_telemetry_str(obs::registry::global().scrape());
  });
  out.snapshot_bytes = static_cast<double>(body.size());

  // net framing at the two frame sizes of a lease: a heartbeat (header +
  // telemetry body) per chunk, a result (header + aggregate) per lease.
  net::message hb = net::make("heartbeat");
  hb.fields = {{"session", "1"}, {"lease", "1"}, {"epoch", "1"}, {"done", "1"}};
  hb.body = body;
  out.frame_rtt_us = frame_rtt_us(net::encode(hb).size());
  out.result_rtt_us =
      frame_rtt_us(static_cast<std::size_t>(out.agg_bytes) + 64);
  return out;
}

}  // namespace perfbench
