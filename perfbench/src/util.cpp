#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace pb {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

double corrupt(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= std::uint64_t{1} << 40;  // ~2e-4 relative: fires exact and tolerance checks
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "check failed: " << what << "\n";
  }
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Spans::add(std::string name, double t0, double t1, int tid) {
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{std::move(name), t0, t1, tid});
}

std::vector<Spans::Span> Spans::all() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

double calib_ms() {
  // A serial multiply-add chain: no memory traffic, no vectorization, no
  // early exit — its time tracks only the core's clock.
  volatile std::uint64_t sink = 0;
  const double t0 = now_s();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 50'000'000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  sink = x;
  (void)sink;
  return (now_s() - t0) * 1e3;
}

std::pair<double, double> cpu_steal_total() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return {0.0, 0.0};
  std::istringstream is(line.substr(4));
  double v = 0.0, total = 0.0, steal = 0.0;
  for (int field = 0; is >> v; ++field) {
    if (field >= 8) break;  // guest time is already counted in user/nice
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace pb
