#include "host_speed.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "tracing.hh"

namespace perfbench {

namespace {

/// Median times of the two parts of the reference work on the development
/// host (4-vCPU Xeon VM, GCC 12, -O2) when these were set, in seconds. They
/// only fix the unit of the scale.
constexpr double kMapRefS = 0.0020;
constexpr double kHeapRefS = 0.0133;

constexpr std::uint32_t kFlows = 65536;
constexpr int kEvents = 60000;

/// Keeps the reference work's results observable.
volatile std::uint64_t g_sink = 0;

/// A 64-bit LCG of the benchmark's own: the reference work must not depend
/// on the repository's random number generators.
struct Lcg {
  std::uint64_t x;
  std::uint64_t next() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

struct Flow {
  double cwnd = 10.0;
  double srtt = 0.1;
  std::uint64_t acked = 0;
  double spare[5] = {};  // a cache line per flow, as sender state takes
};

using Event = std::pair<double, std::uint32_t>;

constexpr std::size_t kBytes = kFlows * sizeof(Flow) + (kFlows + 1) * sizeof(Event);

/// The reference work's memory: a private anonymous mapping, populated when
/// made and unmapped when destroyed. It never comes from the program's
/// heap, so the heap's state cannot change the work's speed, and it is gone
/// before the next unit's peak resident set is measured.
class Mapping {
 public:
  Mapping() {
    base_ = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (base_ == MAP_FAILED) throw std::runtime_error{"reference work: mmap failed"};
  }
  ~Mapping() { ::munmap(base_, kBytes); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  Flow* flows() { return static_cast<Flow*>(base_); }
  Event* events() {
    return reinterpret_cast<Event*>(static_cast<char*>(base_) + kFlows * sizeof(Flow));
  }

 private:
  void* base_ = nullptr;
};

/// An event heap over 64k flows: pop the earliest ACK, update the flow's
/// window and RTT estimate, schedule its next ACK.
std::uint64_t heap_work(Mapping& m) {
  Flow* flows = m.flows();
  Event* heap = m.events();
  const auto later = [](const Event& a, const Event& b) { return a > b; };
  std::fill(flows, flows + kFlows, Flow{});
  Event* end = heap;
  Lcg rng{987654321};
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    *end++ = Event{rng.uniform(), i};
    std::push_heap(heap, end, later);
  }
  std::uint64_t acc = 0;
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap, end, later);
    const Event e = *--end;
    Flow& f = flows[e.second];
    f.cwnd += 1.0 / f.cwnd;
    f.srtt = 0.875 * f.srtt + 0.125 * (0.05 + rng.uniform() * 0.1);
    ++f.acked;
    if (rng.uniform() < 0.01) f.cwnd *= 0.5;
    *end++ = Event{e.first + f.srtt / f.cwnd, e.second};
    std::push_heap(heap, end, later);
    acc += f.acked;
  }
  return acc;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace

void HostSpeed::probe() {
  std::int64_t t0 = now_ns();
  Mapping m;
  map_s_.push_back(seconds_since(t0));
  t0 = now_ns();
  g_sink = g_sink + heap_work(m);
  heap_s_.push_back(seconds_since(t0));
}

double HostSpeed::take_scale() {
  if (heap_s_.empty()) return 1.0;
  // Geometric mean of the two parts' speeds, so each weighs the same
  // whatever its length.
  const double scale =
      std::sqrt(kMapRefS / mean(map_s_) * (kHeapRefS / mean(heap_s_)));
  map_s_.clear();
  heap_s_.clear();
  return scale;
}

}  // namespace perfbench
