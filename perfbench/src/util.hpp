// Shared plumbing for the perfbench harness: clocks, order statistics, seed
// streams, the metric report, benchmark-side spans and host context.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mwx::md {}
namespace mwx::parallel {}
namespace mwx::perf {}
namespace mwx::serve {}
namespace mwx::sim {}
namespace mwx::workloads {}

namespace pb {

namespace md = mwx::md;
namespace parallel = mwx::parallel;
namespace perf = mwx::perf;
namespace serve = mwx::serve;
namespace sim = mwx::sim;
namespace workloads = mwx::workloads;

using Clock = std::chrono::steady_clock;

// Seconds on the steady clock (process-wide epoch).
double now_s();

// Median and linear-interpolated quantile (q in [0, 1]); 0 for empty input.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

// Independent generator seed for input stream `stream` of run seed `seed`
// (splitmix64), so each generated system depends on --seed alone.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

// Peak resident set size of this process, MiB.
double peak_rss_mb();

// Bitwise equality of two doubles.
bool same_bits(double a, double b);

// Flips a mantissa bit: the corrupt-reference mode applies this to every
// reference value so each output check must fire.
double corrupt(double v);

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one run reports: correctness tallies plus named metrics.  Used from
// the run's main thread only.
class Report {
 public:
  // One output check: an op (or a once-per-run check) attempted, and
  // counted failed when `ok` is false.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] long long attempted() const { return attempted_; }
  [[nodiscard]] long long failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::map<std::string, Metric> metrics_;
};

// Benchmark-side spans around calls into the program's public functions,
// kept in memory and written with the chrome trace at the end of a traced
// run.  Thread-safe.
class Spans {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;  // now_s() clock
    double t1 = 0.0;
    int tid = 0;
  };
  void add(std::string name, double t0, double t1, int tid = 0);
  [[nodiscard]] std::vector<Span> all() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Times its scope into `spans` when non-null.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, std::string name, int tid = 0)
      : spans_(spans), name_(std::move(name)), tid_(tid), t0_(now_s()) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->add(std::move(name_), t0_, now_s(), tid_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  std::string name_;
  int tid_;
  double t0_;
};

// --- Host context (reported beside every run, never gated) ------------------

// Milliseconds for a fixed dependent scalar loop: a drift probe for the core
// itself, independent of the program under test.
double calib_ms();

// Cumulative /proc/stat CPU jiffies (all CPUs): {steal, total}.  {0, 0}
// where unavailable.
std::pair<double, double> cpu_steal_total();

}  // namespace pb
