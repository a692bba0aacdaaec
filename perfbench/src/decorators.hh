// Behaviour-neutral instrumentation installed through the program's own
// extension points: a controller decorator via SchemeHandle::make_controller
// and a queue decorator via SchemeHandle::make_queue and
// Scenario::default_queue. Each forwards every hook to the wrapped instance,
// times it, and counts it; counters live in the instance (shards call their
// own instances concurrently) and are flushed to the process totals when
// the instance is destroyed. Traced runs must hash bit-identically to
// untraced ones; the workloads check that on every traced unit.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cc/registry.hh"

namespace perfbench {

/// The scheme with its controller factory (and gateway queue factory, when
/// it brings one) wrapped in the decorators. Name and spec are unchanged.
remy::cc::SchemeHandle traced(const remy::cc::SchemeHandle& scheme);
std::vector<remy::cc::SchemeHandle> traced(
    const std::vector<remy::cc::SchemeHandle>& schemes);

/// A queue factory whose instances are wrapped in the queue decorator.
std::function<std::unique_ptr<remy::sim::QueueDisc>()> traced_queue(
    std::function<std::unique_ptr<remy::sim::QueueDisc>()> make);

}  // namespace perfbench
