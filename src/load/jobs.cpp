#include "load/jobs.hpp"

#include "util/error.hpp"

namespace bsched::load {

namespace {

/// The recovered random job sequences (currents per job).
const std::vector<double>& random_sequence_r1() {
  // Recovered by matching the published B1 (4.72 min) and B2 (22.71 min)
  // lifetimes; L = 0.25 A, H = 0.5 A. See DESIGN.md.
  static const std::vector<double> r1 = {
      low_current_a,  high_current_a, high_current_a, low_current_a,
      high_current_a, low_current_a,  low_current_a,  low_current_a,
      high_current_a, low_current_a,  low_current_a,  high_current_a,
  };
  return r1;
}

const std::vector<double>& random_sequence_r2() {
  // Unique match for B1 = 4.72 min and B2 = 14.81 min.
  static const std::vector<double> r2 = {
      low_current_a,  high_current_a, high_current_a, low_current_a,
      low_current_a,  high_current_a, high_current_a, high_current_a,
  };
  return r2;
}

job_sequence paper_jobs(test_load l) {
  const double lo = low_current_a;
  const double hi = high_current_a;
  switch (l) {
    case test_load::cl_250: return {{lo}, job_minutes, 0};
    case test_load::cl_500: return {{hi}, job_minutes, 0};
    case test_load::cl_alt: return {{hi, lo}, job_minutes, 0};
    case test_load::ils_250: return {{lo}, job_minutes, 1};
    case test_load::ils_500: return {{hi}, job_minutes, 1};
    case test_load::ils_alt: return {{hi, lo}, job_minutes, 1};
    case test_load::ils_r1: return {random_sequence_r1(), job_minutes, 1};
    case test_load::ils_r2: return {random_sequence_r2(), job_minutes, 1};
    case test_load::ill_250: return {{lo}, job_minutes, 2};
    case test_load::ill_500: return {{hi}, job_minutes, 2};
  }
  throw error("paper_jobs: unknown test load");
}

}  // namespace

trace job_sequence::to_trace() const {
  require(!currents.empty(), "job_sequence: needs at least one job");
  require(job_min > 0, "job_sequence: job duration must be positive");
  require(idle_min >= 0, "job_sequence: idle duration must be >= 0");
  std::vector<epoch> cycle;
  cycle.reserve(currents.size() * 2);
  for (const double current : currents) {
    require(current > 0, "job_sequence: job currents must be positive");
    cycle.push_back({job_min, current});
    if (idle_min > 0) cycle.push_back({idle_min, 0.0});
  }
  return trace{std::move(cycle)};
}

const std::vector<test_load>& all_test_loads() {
  static const std::vector<test_load> loads = {
      test_load::cl_250,  test_load::cl_500,  test_load::cl_alt,
      test_load::ils_250, test_load::ils_500, test_load::ils_alt,
      test_load::ils_r1,  test_load::ils_r2,  test_load::ill_250,
      test_load::ill_500,
  };
  return loads;
}

std::string name(test_load l) {
  switch (l) {
    case test_load::cl_250: return "CL 250";
    case test_load::cl_500: return "CL 500";
    case test_load::cl_alt: return "CL alt";
    case test_load::ils_250: return "ILs 250";
    case test_load::ils_500: return "ILs 500";
    case test_load::ils_alt: return "ILs alt";
    case test_load::ils_r1: return "ILs r1";
    case test_load::ils_r2: return "ILs r2";
    case test_load::ill_250: return "ILl 250";
    case test_load::ill_500: return "ILl 500";
  }
  throw error("name: unknown test load");
}

trace paper_trace(test_load l) { return paper_jobs(l).to_trace(); }

}  // namespace bsched::load
