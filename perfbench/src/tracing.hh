// Host-side measurement for the benchmark: clocks, process counters, spans
// and the per-layer totals the controller/queue decorators feed.
//
// Spans nest per thread. Closing a span charges its duration to the
// innermost span still open on the same thread, so a span's self time is its
// duration minus the time its child spans cover. Coarse spans (a setup step,
// a scheme's runs, a scoring batch, one candidate evaluation) are kept in
// memory and written out when the process exits; per-packet hooks are too
// many to keep, so they accumulate into per-instance counters instead.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host clock, in nanoseconds.
std::int64_t now_ns();
/// User + system CPU of the whole process (all threads), in seconds.
double cpu_seconds();
/// Starts a new peak-RSS window: trims the heap, then resets the kernel's
/// high-water mark through /proc/self/clear_refs where that is allowed.
void reset_peak_rss();
/// Peak resident set since the last reset (VmHWM), in MB; the process
/// lifetime peak where the mark cannot be read.
double peak_rss_mb();
/// Current resident set, in bytes.
double current_rss_bytes();
/// Steal time of all CPUs since boot (/proc/stat), in seconds; 0 where the
/// kernel does not report it.
double host_steal_s();
/// Returns freed heap pages to the OS so a later RSS reading shows growth.
void trim_heap();

/// One open interval on the calling thread's span stack.
struct Frame {
  std::int64_t start = 0;
  std::int64_t child_ns = 0;
  Frame* parent = nullptr;
};

/// RAII span. When `record` is set and span logging is on, the closed span
/// is appended to the in-memory log.
class Span {
 public:
  explicit Span(const char* name, bool record = true);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent); returns its duration in seconds.
  double close();
  double duration_s() const { return static_cast<double>(duration_ns_) * 1e-9; }
  double self_s() const {
    return static_cast<double>(duration_ns_ - frame_.child_ns) * 1e-9;
  }

 private:
  const char* name_;
  bool record_;
  bool open_ = true;
  std::int64_t duration_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  Frame frame_;
  std::uint64_t saved_id_ = 0;
};

/// Times one hook call: pushes a frame, and on destruction adds the call's
/// self time to `*self_ns` and its duration to the enclosing frame.
class HookTimer {
 public:
  explicit HookTimer(std::int64_t* self_ns);
  ~HookTimer();
  HookTimer(const HookTimer&) = delete;
  HookTimer& operator=(const HookTimer&) = delete;

 private:
  std::int64_t* self_ns_;
  Frame frame_;
};

/// Turns the in-memory span log on (the traced run) and writes it out.
void enable_span_log();
void write_span_log(const std::string& path);

/// Per-family counters of one layer's decorated instances.
struct FamilyTotals {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

/// Everything the decorators count, summed over instances as they are
/// destroyed. Counts are exact; `*_ns` are self times.
struct LayerTotals {
  // cc: controller hooks
  std::uint64_t cc_calls = 0;
  std::int64_t cc_ns = 0;
  std::uint64_t cc_loss_events = 0;
  std::uint64_t cc_timeouts = 0;
  std::map<std::string, FamilyTotals> cc_on_ack;  ///< family -> on_ack
  // aqm: queue operations
  std::uint64_t aqm_enqueues = 0;
  std::uint64_t aqm_dequeues = 0;  ///< packets handed to a link
  std::uint64_t aqm_drops = 0;
  std::uint64_t aqm_ecn_marks = 0;
  std::uint64_t aqm_max_depth = 0;
  std::map<std::string, FamilyTotals> aqm_ops;  ///< family -> enq + deq

  void merge(const LayerTotals& other);
};

/// Flushes one instance's counters into the process totals.
void flush_totals(const LayerTotals& instance);
/// Returns the totals gathered since the last call and clears them.
LayerTotals take_totals();

/// RSS probe for sim.bytes_per_flow: arm() trims the heap and records the
/// baseline; the first decorator destroyed afterwards (the graph is still
/// built when teardown starts) samples the resident set.
void arm_rss_probe();
void rss_probe_on_teardown();
/// Growth seen by the last armed probe, in bytes (0 if it never fired).
double rss_probe_growth();

}  // namespace perfbench
