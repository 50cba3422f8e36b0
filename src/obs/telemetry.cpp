#include "obs/telemetry.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/text.hpp"
#include "util/wire.hpp"

namespace bsched::obs {

namespace {

/// Telemetry wire-format version (the N of "bsched-telemetry vN").
constexpr int telemetry_version = 1;

}  // namespace

std::string encode_telemetry_str(const snapshot& snap) {
  std::ostringstream out;
  out << "bsched-telemetry v" << telemetry_version << '\n';

  std::vector<const counter_sample*> counters;
  counters.reserve(snap.counters.size());
  for (const counter_sample& c : snap.counters) counters.push_back(&c);
  std::sort(counters.begin(), counters.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });
  for (const counter_sample* c : counters) {
    out << "counter " << c->name << ' ' << c->value << '\n';
  }

  std::vector<const gauge_sample*> gauges;
  gauges.reserve(snap.gauges.size());
  for (const gauge_sample& g : snap.gauges) gauges.push_back(&g);
  std::sort(gauges.begin(), gauges.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });
  for (const gauge_sample* g : gauges) {
    out << "gauge " << g->name << ' ' << shortest_double(g->value) << '\n';
  }

  std::vector<const histogram_sample*> hists;
  hists.reserve(snap.histograms.size());
  for (const histogram_sample& h : snap.histograms) hists.push_back(&h);
  std::sort(hists.begin(), hists.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });
  for (const histogram_sample* h : hists) {
    out << "hist " << h->name << " bounds=" << h->bounds.size();
    for (const double b : h->bounds) out << ' ' << shortest_double(b);
    for (const std::uint64_t c : h->buckets) out << ' ' << c;
    out << " sum=" << shortest_double(h->sum) << '\n';
  }

  out << "end\n";
  return out.str();
}

namespace {

/// Appends to a kind's samples, names in the encoder's order: sorted, unique.
template <class Sample>
void append_sorted(const wire::reader& r, std::vector<Sample>& kind, Sample s) {
  if (!kind.empty() && !(kind.back().name < s.name)) {
    r.fail("'" + s.name + "' is unsorted or repeated within its kind");
  }
  kind.push_back(std::move(s));
}

}  // namespace

snapshot decode_telemetry_str(const std::string& text) {
  wire::reader r{text, "obs: telemetry"};
  r.expect_magic("bsched-telemetry v" + std::to_string(telemetry_version));

  snapshot snap;
  while (true) {
    r.advance("a record or end");
    if (r.line() == "end") break;
    wire::splitter t = r.tokens();
    std::string_view tag;
    t.next(tag);
    const char* grammar =
        tag == "counter" ? "counter <name> <u64>"
        : tag == "gauge" ? "gauge <name> <double>"
        : tag == "hist"  ? "hist <name> bounds=<k> <bound>{k} <bucket>{k+1} "
                           "sum=<double>, k > 0"
                         : nullptr;
    if (grammar == nullptr) {
      r.fail("unknown record tag '" + std::string{tag} + "'");
    }
    const auto want = [&] { return std::string{"want '"} + grammar + "'"; };
    std::string_view token;
    // The record's next token; running out fails naming its grammar.
    const auto field = [&] {
      if (!t.next(token)) r.fail(want());
      return token;
    };
    std::string name{field()};
    if (tag == "counter") {
      append_sorted(r, snap.counters,
                    {std::move(name),
                     r.number<std::uint64_t>(field(), "counter value")});
    } else if (tag == "gauge") {
      append_sorted(
          r, snap.gauges,
          {std::move(name), r.number<double>(field(), "gauge value")});
    } else {
      histogram_sample h;
      h.name = std::move(name);
      const std::optional<wire::key_value> bounds = wire::split_kv(field());
      const std::uint64_t k =
          bounds && bounds->key == "bounds"
              ? r.number<std::uint64_t>(bounds->value, "hist bound count")
              : 0;
      if (k == 0) r.fail(want());
      // k is untrusted: field() fails at the line's last token.
      for (std::uint64_t i = 0; i < k; ++i) {
        h.bounds.push_back(r.number<double>(field(), "hist bound"));
      }
      for (std::uint64_t i = 0; i <= k; ++i) {
        h.buckets.push_back(r.number<std::uint64_t>(field(), "hist bucket"));
      }
      const std::optional<wire::key_value> sum = wire::split_kv(field());
      if (!sum || sum->key != "sum") r.fail(want());
      h.sum = r.number<double>(sum->value, "hist sum");
      append_sorted(r, snap.histograms, std::move(h));
    }
    if (t.next(token)) r.fail(want());
  }
  if (r.next()) r.fail("trailing content after 'end'");
  return snap;
}

}  // namespace bsched::obs
