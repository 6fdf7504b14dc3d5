// The four workloads (DESIGN.md explains each choice) and the layer probes
// that fill the per-layer metrics of layers a workload does not load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probes.hpp"

namespace perfbench {

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetups = 5;

/// Fixed CPUs for the processes under test, chosen from the allowed set by
/// main(): the benchmark's own thread(s), and the forked daemon.
struct Cpus {
  std::vector<int> bench;
  std::vector<int> daemon;
};

Result run_des_figures(const Args& a, Tracer& t);
Result run_svc(const Args& a, const Cpus& cpus, Tracer& t, bool stream);
Result run_rt_inproc(const Args& a, Tracer& t);

void probe_des(Result& r, const Args& a, Tracer& t);
void probe_wire(Result& r, std::uint64_t block_bytes, Tracer& t);
void probe_rt(Result& r, const Args& a, Tracer& t);

}  // namespace perfbench
