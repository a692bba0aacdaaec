#include "tracing.hh"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

void reset_peak_rss() {
  trim_heap();
  std::ofstream clear{"/proc/self/clear_refs"};
  clear << "5";  // resets VmHWM to the current resident set
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double current_rss_bytes() {
  long pages_total = 0;
  long pages_resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(f);
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double host_steal_s() {
  std::ifstream stat{"/proc/stat"};
  std::string cpu;
  double fields[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (double& f : fields) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void trim_heap() { malloc_trim(0); }

namespace {

thread_local Frame* t_top = nullptr;
thread_local std::uint64_t t_span_id = 0;
std::atomic<std::uint64_t> g_next_id{1};

struct SpanRecord {
  std::string name;
  std::uint64_t id;
  std::uint64_t parent;
  std::size_t thread;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t self_ns;
};

struct SpanLog {
  std::mutex mutex;
  bool enabled = false;
  std::int64_t origin_ns = 0;
  std::vector<SpanRecord> spans;
};

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

void push(Frame& frame) {
  frame.parent = t_top;
  frame.start = now_ns();
  t_top = &frame;
}

/// Pops `frame`, charges its duration to the parent frame; returns it.
std::int64_t pop(Frame& frame) {
  const std::int64_t duration = now_ns() - frame.start;
  t_top = frame.parent;
  if (t_top != nullptr) t_top->child_ns += duration;
  return duration;
}

}  // namespace

Span::Span(const char* name, bool record) : name_{name}, record_{record} {
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_id_ = t_span_id;
  saved_id_ = t_span_id;
  t_span_id = id_;
  push(frame_);
}

Span::~Span() { close(); }

double Span::close() {
  if (!open_) return duration_s();
  open_ = false;
  if (t_top != &frame_) {
    // Spans close in LIFO order by construction; anything else is a bug in
    // the benchmark, not in the program under test.
    std::fprintf(stderr, "perfbench: span %s closed out of order\n", name_);
    std::terminate();
  }
  duration_ns_ = pop(frame_);
  t_span_id = saved_id_;
  SpanLog& log = span_log();
  if (record_) {
    const std::lock_guard lock{log.mutex};
    if (log.enabled) {
      log.spans.push_back(SpanRecord{
          name_, id_, parent_id_,
          std::hash<std::thread::id>{}(std::this_thread::get_id()),
          frame_.start - log.origin_ns, frame_.start + duration_ns_ - log.origin_ns,
          duration_ns_ - frame_.child_ns});
    }
  }
  return duration_s();
}

HookTimer::HookTimer(std::int64_t* self_ns) : self_ns_{self_ns} { push(frame_); }

HookTimer::~HookTimer() { *self_ns_ += pop(frame_) - frame_.child_ns; }

void enable_span_log() {
  SpanLog& log = span_log();
  const std::lock_guard lock{log.mutex};
  log.enabled = true;
  log.origin_ns = now_ns();
}

void write_span_log(const std::string& path) {
  SpanLog& log = span_log();
  const std::lock_guard lock{log.mutex};
  if (!log.enabled) return;
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write span log " + path};
  // One JSON object per line; times are ns since the log was enabled.
  for (const SpanRecord& s : log.spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << s.self_ns << "}\n";
  }
}

void LayerTotals::merge(const LayerTotals& o) {
  cc_calls += o.cc_calls;
  cc_ns += o.cc_ns;
  cc_loss_events += o.cc_loss_events;
  cc_timeouts += o.cc_timeouts;
  for (const auto& [family, t] : o.cc_on_ack) {
    cc_on_ack[family].calls += t.calls;
    cc_on_ack[family].ns += t.ns;
  }
  aqm_enqueues += o.aqm_enqueues;
  aqm_dequeues += o.aqm_dequeues;
  aqm_drops += o.aqm_drops;
  aqm_ecn_marks += o.aqm_ecn_marks;
  aqm_max_depth = std::max(aqm_max_depth, o.aqm_max_depth);
  for (const auto& [family, t] : o.aqm_ops) {
    aqm_ops[family].calls += t.calls;
    aqm_ops[family].ns += t.ns;
  }
}

namespace {

struct Totals {
  std::mutex mutex;
  LayerTotals totals;
};

Totals& totals() {
  static Totals t;
  return t;
}

struct RssProbe {
  std::mutex mutex;
  bool armed = false;
  double baseline = 0.0;
  double growth = 0.0;
};

RssProbe& rss_probe() {
  static RssProbe p;
  return p;
}

}  // namespace

void flush_totals(const LayerTotals& instance) {
  Totals& t = totals();
  const std::lock_guard lock{t.mutex};
  t.totals.merge(instance);
}

LayerTotals take_totals() {
  Totals& t = totals();
  const std::lock_guard lock{t.mutex};
  LayerTotals out = std::move(t.totals);
  t.totals = LayerTotals{};
  return out;
}

void arm_rss_probe() {
  RssProbe& p = rss_probe();
  trim_heap();
  const std::lock_guard lock{p.mutex};
  p.armed = true;
  p.baseline = current_rss_bytes();
  p.growth = 0.0;
}

void rss_probe_on_teardown() {
  RssProbe& p = rss_probe();
  const std::lock_guard lock{p.mutex};
  if (!p.armed) return;
  p.armed = false;
  p.growth = current_rss_bytes() - p.baseline;
}

double rss_probe_growth() {
  RssProbe& p = rss_probe();
  const std::lock_guard lock{p.mutex};
  p.armed = false;
  return p.growth;
}

}  // namespace perfbench
