/**
 * @file
 * The host's speed, measured with a fixed reference computation.
 *
 * The benchmark runs on shared machines whose speed drifts by tens of
 * percent over minutes, with the process on the CPU throughout.  A
 * run therefore times, between its rounds, a reference kernel that
 * belongs to the benchmark and never changes with the program: the
 * same kinds of work as the simulator's (a multiply-add chain,
 * unpredictable branches, a claim/release walk over an occupancy
 * grid, a binary event heap, a node-based hash map, dependent loads
 * past the private caches).  The run's timing metrics are scaled by
 * the kernel's nominal time over its median time in that run, which
 * reports them at a fixed reference speed of the host.
 */

#ifndef QBENCH_HOSTSPEED_H
#define QBENCH_HOSTSPEED_H

#include <vector>

#include "stats.h"

namespace qbench {

/** Seconds between the samples a run takes between its rounds: a
 *  sample costs 25-42 ms on a quiet host, so 3-4% of the run. */
constexpr double kHostSampleEveryS = 1.0;

class HostSpeed
{
  public:
    /** @p memory_passes: passes of the kernel's memory part per
     *  sample.  One makes it about a fifth of the kernel's time; a
     *  workload whose ops walk larger data gives it more. */
    explicit HostSpeed(int memory_passes = 1)
        : memory_passes_(memory_passes)
    {
    }

    /** Time the reference kernel once more if @p every_s seconds
     *  have passed since the last sample (always, the first time). */
    void sampleEvery(double every_s);

    /** Time the reference kernel once. */
    void sample();

    /** Milliseconds of every sample so far. */
    const std::vector<double> &samplesMs() const { return ms_; }

    /** Nominal over median kernel time: the factor that scales this
     *  run's times to the reference speed (1 with no samples). */
    double scale() const;

    /** The kernel's time at the reference speed, in ms. */
    double nominalMs() const;

  private:
    int memory_passes_;
    std::vector<double> ms_;
    Clock::time_point last_{};
};

/** One pass of the reference kernel, its memory part
 *  @p memory_passes times; returns a checksum so the work cannot be
 *  optimized away. */
unsigned long long referenceKernel(int memory_passes);

} // namespace qbench

#endif // QBENCH_HOSTSPEED_H
