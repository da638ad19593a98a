/**
 * @file
 * Periodic time-series sampler over the metrics registry.
 *
 * Every `obs.sample_interval_ns` of simulated time it snapshots the
 * registry, differences the snapshot against the previous interval,
 * and appends one CSV row: simulated time plus, per metric, the
 * interval delta (counters), the current reading (gauges) or the
 * interval mean (samplers).  Histograms are excluded from rows.
 *
 * The column set is frozen at the first fire (sorted registry paths at
 * that moment), so the CSV stays rectangular even if components are
 * later replaced.  Sampling events are observation-only: they read
 * stats and touch no simulation state.
 */

#ifndef HMCSIM_OBS_SAMPLER_H_
#define HMCSIM_OBS_SAMPLER_H_

#include <fstream>
#include <string>
#include <vector>

#include "common/partition_mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "sim/kernel.h"

namespace hmcsim {

class TimeSeriesSampler
{
  public:
    /**
     * @param interval sampling period in ticks (> 0)
     * @param csv_path destination file (opened lazily at start())
     */
    TimeSeriesSampler(Kernel &kernel, const MetricsRegistry &registry,
                      Tick interval, std::string csv_path);

    /** Begin periodic sampling; idempotent. */
    void start();

    /**
     * Write one final partial-interval row and flush the CSV without
     * rescheduling -- the panic path calls this so the time series
     * ends at the crash instant, not the last whole interval.  No-op
     * before start().
     */
    void flushNow();

    std::uint64_t
    rowsWritten() const
    {
        PartitionLock lock(mu_);
        return rows_;
    }
    const std::string &csvPath() const { return path_; }

  private:
    Kernel &kernel_;
    const MetricsRegistry &registry_;
    Tick interval_;
    std::string path_;

    /**
     * Guards the CSV writer state, which both the sampling event and
     * panic()'s flushNow() write.  Held across
     * registry_.snapshot() (sampler -> registry lock order, never the
     * reverse) but never across kernel event execution.
     */
    mutable PartitionMutex mu_;
    std::ofstream out_ HMCSIM_GUARDED_BY(mu_);
    bool started_ HMCSIM_GUARDED_BY(mu_) = false;
    std::vector<std::string> columns_ HMCSIM_GUARDED_BY(mu_);
    MetricsSnapshot prev_ HMCSIM_GUARDED_BY(mu_);
    std::uint64_t rows_ HMCSIM_GUARDED_BY(mu_) = 0;

    void fire();
    void writeRow() HMCSIM_REQUIRES(mu_);
    void writeHeader(const MetricsSnapshot &snap) HMCSIM_REQUIRES(mu_);
};

}  // namespace hmcsim

#endif  // HMCSIM_OBS_SAMPLER_H_
