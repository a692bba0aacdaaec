#include "decorators.hh"

#include <cxxabi.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <typeindex>

#include "tracing.hh"

namespace perfbench {

using remy::cc::AckInfo;
using remy::cc::CongestionController;
using remy::sim::Packet;
using remy::sim::QueueDisc;
using remy::sim::TimeMs;

namespace {

/// Family label of a controller or queue, from its dynamic type: the
/// unqualified class name, mapped to the scheme names the metrics use.
const std::string& family_of(const std::type_info& type) {
  static std::mutex mutex;
  static std::map<std::type_index, std::string> cache;
  const std::lock_guard lock{mutex};
  auto it = cache.find(type);
  if (it != cache.end()) return it->second;
  int status = 0;
  char* demangled = abi::__cxa_demangle(type.name(), nullptr, nullptr, &status);
  std::string name = status == 0 ? demangled : type.name();
  std::free(demangled);
  name = name.substr(name.rfind(':') == std::string::npos ? 0
                                                          : name.rfind(':') + 1);
  static const std::map<std::string, std::string> kFamilies{
      {"NewReno", "newreno"},     {"Vegas", "vegas"},
      {"Cubic", "cubic"},         {"Compound", "compound"},
      {"Xcp", "xcp"},             {"Dctcp", "dctcp"},
      {"RemyController", "remy"}, {"DropTail", "droptail"},
      {"SfqCodel", "sfqcodel"},   {"XcpRouter", "xcp"},
      {"EcnThreshold", "ecn"},    {"Codel", "codel"},
      {"Red", "red"}};
  const auto known = kFamilies.find(name);
  if (known != kFamilies.end()) name = known->second;
  return cache.emplace(type, name).first->second;
}

/// Forwards every hook to the wrapped controller and mirrors its window.
/// The base class owns the cwnd the transport reads, so after each hook the
/// decorator copies the inner controller's value; both clamp identically,
/// so the mirrored window is the inner window bit for bit.
class TracedController final : public CongestionController {
 public:
  explicit TracedController(std::unique_ptr<CongestionController> inner)
      : inner_{std::move(inner)}, family_{family_of(typeid(*inner_))} {}

  ~TracedController() override {
    rss_probe_on_teardown();
    LayerTotals t;
    t.cc_calls = calls_;
    t.cc_ns = ns_;
    t.cc_loss_events = loss_events_;
    t.cc_timeouts = timeouts_;
    if (acks_ > 0) t.cc_on_ack[family_] = FamilyTotals{acks_, ack_ns_};
    flush_totals(t);
  }

  TracedController(const TracedController&) = delete;
  TracedController& operator=(const TracedController&) = delete;

  void on_flow_start(TimeMs now) override {
    attach_inner();
    {
      HookTimer timer{&ns_};
      inner_->flow_start(now);
    }
    ++calls_;
    mirror();
  }

  void on_ack(const AckInfo& info, TimeMs now) override {
    std::int64_t self = 0;
    {
      HookTimer timer{&self};
      inner_->on_ack(info, now);
    }
    ns_ += self;
    ack_ns_ += self;
    ++acks_;
    ++calls_;
    mirror();
  }

  void on_loss_event(TimeMs now) override {
    {
      HookTimer timer{&ns_};
      inner_->on_loss_event(now);
    }
    ++loss_events_;
    ++calls_;
    mirror();
  }

  void on_timeout(TimeMs now) override {
    {
      HookTimer timer{&ns_};
      inner_->on_timeout(now);
    }
    ++timeouts_;
    ++calls_;
    mirror();
  }

  void prepare_packet(Packet& p) override {
    attach_inner();
    {
      HookTimer timer{&ns_};
      inner_->prepare_packet(p);
    }
    ++calls_;
    mirror();
  }

  TimeMs pacing_interval_ms() const override {
    return inner_->pacing_interval_ms();
  }

  void on_sample(remy::sim::TelemetryFrame& frame) const override {
    inner_->on_sample(frame);
  }

 private:
  /// attach() is not virtual, so the wrapped controller is attached to the
  /// same transport on the first hook, before it can read its config.
  void attach_inner() {
    if (!inner_->attached()) inner_->attach(transport());
  }

  void mirror() {
    if (inner_->cwnd() != cwnd()) set_cwnd(inner_->cwnd());
  }

  std::unique_ptr<CongestionController> inner_;
  const std::string& family_;
  std::uint64_t calls_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t loss_events_ = 0;
  std::uint64_t timeouts_ = 0;
  std::int64_t ns_ = 0;
  std::int64_t ack_ns_ = 0;
};

class TracedQueue final : public QueueDisc {
 public:
  explicit TracedQueue(std::unique_ptr<QueueDisc> inner)
      : inner_{std::move(inner)}, family_{family_of(typeid(*inner_))} {}

  ~TracedQueue() override {
    rss_probe_on_teardown();
    harvest();
    LayerTotals t;
    t.aqm_enqueues = enqueues_;
    t.aqm_dequeues = dequeues_;
    t.aqm_drops = drops_;
    t.aqm_ecn_marks = marks_;
    t.aqm_max_depth = max_depth_;
    if (ops_ > 0) t.aqm_ops[family_] = FamilyTotals{ops_, ns_};
    flush_totals(t);
  }

  TracedQueue(const TracedQueue&) = delete;
  TracedQueue& operator=(const TracedQueue&) = delete;

  void reset() override {
    harvest();  // the inner reset clears its drop and mark counters
    inner_->reset();
  }

  void configure(double link_rate_bytes_per_ms, TimeMs now) override {
    inner_->configure(link_rate_bytes_per_ms, now);
  }

  void enqueue(Packet&& packet, TimeMs now) override {
    {
      HookTimer timer{&ns_};
      inner_->enqueue(std::move(packet), now);
    }
    ++enqueues_;
    ++ops_;
    max_depth_ = std::max<std::uint64_t>(max_depth_, inner_->packet_count());
  }

  std::optional<Packet> dequeue(TimeMs now) override {
    std::optional<Packet> p;
    {
      HookTimer timer{&ns_};
      p = inner_->dequeue(now);
    }
    ++ops_;
    if (p.has_value()) ++dequeues_;
    return p;
  }

  std::size_t packet_count() const override { return inner_->packet_count(); }
  std::size_t byte_count() const override { return inner_->byte_count(); }

 private:
  void harvest() {
    drops_ += inner_->drops();
    marks_ += inner_->ecn_marks();
  }

  std::unique_ptr<QueueDisc> inner_;
  const std::string& family_;
  std::uint64_t enqueues_ = 0;
  std::uint64_t dequeues_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  std::uint64_t max_depth_ = 0;
  std::int64_t ns_ = 0;
};

}  // namespace

std::function<std::unique_ptr<QueueDisc>()> traced_queue(
    std::function<std::unique_ptr<QueueDisc>()> make) {
  if (!make) return make;
  return [make = std::move(make)]() -> std::unique_ptr<QueueDisc> {
    return std::make_unique<TracedQueue>(make());
  };
}

remy::cc::SchemeHandle traced(const remy::cc::SchemeHandle& scheme) {
  remy::cc::SchemeHandle out = scheme;
  out.make_controller = [make = scheme.make_controller]()
      -> std::unique_ptr<CongestionController> {
    return std::make_unique<TracedController>(make());
  };
  out.make_queue = traced_queue(scheme.make_queue);
  return out;
}

std::vector<remy::cc::SchemeHandle> traced(
    const std::vector<remy::cc::SchemeHandle>& schemes) {
  std::vector<remy::cc::SchemeHandle> out;
  out.reserve(schemes.size());
  for (const auto& s : schemes) out.push_back(traced(s));
  return out;
}

}  // namespace perfbench
