/**
 * @file
 * Isolated per-layer host-time loops.  Each probe drives one public
 * entry point of one simulator layer and reports host nanoseconds per
 * unit of work, so a speed-up of that layer shows here even when the
 * end-to-end workloads spread their time across many layers.
 */

#ifndef GLSC_PERFBENCH_PROBES_H_
#define GLSC_PERFBENCH_PROBES_H_

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ProbeResult
{
    std::string name; //!< metric name, e.g. "sim.event_ns"
    double ns = 0.0;  //!< fastest host ns per unit of work
};

/**
 * Runs every probe a fixed number of times and returns the fastest
 * repetition of each.
 * @p work scales the iteration counts (1.0 = full size).
 */
std::vector<ProbeResult> runProbes(double work);

} // namespace perfbench

#endif // GLSC_PERFBENCH_PROBES_H_
