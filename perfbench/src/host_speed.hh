// Host-speed reference for the end-to-end times.
//
// The development host is a VM on a shared machine whose speed changes in
// phases of a minute or more: the same single-threaded cycle took 0.64 s in
// one phase and 1.21 s in another, so run-to-run medians of raw time spread
// further than any bound the benchmark may set. The benchmark therefore
// times, between units, a fixed piece of reference work shaped like one
// simulation run (map fresh memory, then run an event heap over many flows
// in it) that uses none of the repository's code, and reports each cycle's
// times scaled by how fast that reference work ran:
//
//   reported = measured * scale,  scale = reference time / time seen here.
//
// A change to the program moves the measured time and not the scale, so it
// shows in full; a host phase moves both and cancels. The reference work
// runs in memory mapped for it alone, so the program's heap state cannot
// change its speed. The raw times stay in the results file and the host
// record.
#pragma once

#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Runs the reference work once and records how long each part took.
  void probe();
  /// Reference-host seconds per second measured here, over the probes since
  /// the last take(); 1 when there were none. Clears the probes.
  double take_scale();

 private:
  std::vector<double> map_s_;
  std::vector<double> heap_s_;
};

}  // namespace perfbench
