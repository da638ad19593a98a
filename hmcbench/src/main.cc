/**
 * @file
 * hmcbench: the simulator's benchmark of record.
 *
 *   hmcbench --workload <gups_1cube|chain8_hotspot|vault_sweep>
 *            --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
 *   hmcbench --selftest slicing --seed <n>
 *
 * Untraced (--trace 0) it runs the workload from one thread in a
 * closed loop of steps for --seconds and prints the end-to-end
 * metrics; traced (--trace 1) it alternates untraced and traced
 * repetitions, runs the layer drivers, writes a Chrome trace plus a
 * self-time table, and prints the per-layer metrics.  Either way the
 * last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * and the exit code is non-zero when an output check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/units.h"
#include "host/experiment.h"
#include "host/system.h"
#include "layers.h"
#include "spans.h"
#include "workloads.h"

using namespace hmcsim;
using namespace hmcbench;

namespace {

struct Options {
    WorkloadKind kind = WorkloadKind::Gups1Cube;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir = ".";
    std::string selftest;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hmcbench: " << why << "\n"
              << "usage: hmcbench --workload <gups_1cube|chain8_hotspot|"
                 "vault_sweep> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-dir <dir>]\n"
                 "       hmcbench --selftest slicing [--seed <n>]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            if (!parseWorkload(v, o.kind))
                usage("unknown workload '" + v + "'");
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--trace") {
            o.trace = v == "1";
        } else if (a == "--trace-dir") {
            o.traceDir = v;
        } else if (a == "--selftest") {
            o.selftest = v;
        } else {
            usage("unknown argument " + a);
        }
    }
    if (!have_workload && o.selftest.empty())
        usage("--workload is required");
    return o;
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Linear-interpolated percentile of @p v (0..100). */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

/** Everything one mode of a run measures. */
struct Accum {
    // host time
    std::vector<double> stepMs;
    /** Fastest host time seen at each step index.  Every repetition
     *  (vault_sweep: every pass) simulates the same steps, so index k
     *  is the same work each time. */
    std::vector<double> bestStepS;
    double repSimUs = 0.0;  ///< simulated us timed per repetition
    std::vector<double> setupS, systemS, workloadS, collectMs;
    /** Step loops' wall time and simulated time, everything included
     *  (checks, and in traced reps the span and counter reads). */
    double loopWallS = 0.0;
    double loopSimUs = 0.0;
    // correctness
    std::uint64_t steps = 0;
    std::uint64_t failed = 0;
    std::string firstFailure;
    std::optional<std::uint64_t> digest;
    std::uint64_t reps = 0;
    // simulated results
    std::vector<double> paperMeasured;  ///< one value per repetition
    // traced reps only
    LayerCounters layer;
    double events = 0.0;
    double runWallS = 0.0;
    double runSimUs = 0.0;
    double cpuS = 0.0;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (firstFailure.empty())
            firstFailure = why;
    }

    void
    timeStep(std::size_t k, double seconds)
    {
        stepMs.push_back(seconds * 1e3);
        if (k >= bestStepS.size())
            bestStepS.resize(k + 1, seconds);
        bestStepS[k] = std::min(bestStepS[k], seconds);
    }

    /** Simulated us per wall second of a repetition made of the
     *  fastest time at every step index. */
    double
    bestRate() const
    {
        double s = 0.0;
        for (const double b : bestStepS)
            s += b;
        return s > 0.0 ? repSimUs / s : 0.0;
    }

    void
    checkDigest(std::uint64_t d)
    {
        ++reps;
        if (!digest)
            digest = d;
        else if (*digest != d)
            fail("simulated-stats digest differs between repetitions");
    }
};

struct Built {
    std::unique_ptr<System> sys;
    std::vector<ConfiguredPort> ports;
};

Built
build(const Scenario &sc, Accum &a, SpanRecorder *rec)
{
    Built b;
    const Clock::time_point t0 = Clock::now();
    {
        SpanScope s(rec, "setup.system");
        b.sys = std::make_unique<System>(sc.cfg);
    }
    const Clock::time_point t1 = Clock::now();
    {
        SpanScope s(rec, "setup.workload");
        for (const PortLoad &pw : sc.ports)
            b.ports.push_back(
                {pw.host, &b.sys->configureWorkloadAt(pw.host, pw.port,
                                                      pw.spec)});
    }
    const Clock::time_point t2 = Clock::now();
    a.systemS.push_back(secondsBetween(t0, t1));
    a.workloadS.push_back(secondsBetween(t1, t2));
    a.setupS.push_back(secondsBetween(t0, t2));
    return b;
}

/** One timed run() slice; in traced reps also the counter deltas. */
void
timedRun(System &sys, Tick duration, Accum &a, SpanRecorder *rec,
         SpanScope &span)
{
    const double ev0 = static_cast<double>(sys.kernel().eventsExecuted());
    const double cpu0 = rec ? cpuSeconds() : 0.0;
    const Clock::time_point t0 = Clock::now();
    sys.run(duration);
    const Clock::time_point t1 = Clock::now();
    if (!rec)
        return;
    const double events =
        static_cast<double>(sys.kernel().eventsExecuted()) - ev0;
    a.cpuS += cpuSeconds() - cpu0;
    a.events += events;
    a.runWallS += secondsBetween(t0, t1);
    a.runSimUs += ticksToUs(duration);
    span.arg("sim.events", events);
}

/**
 * gups_1cube / chain8_hotspot: one fresh System, a warmup, then
 * sc.steps measured slices, then result collection and the digest.
 */
void
runRepetition(const Scenario &sc, WorkloadKind kind, Accum &a,
              SpanRecorder *rec)
{
    SpanScope rep(rec, "bench.repetition");
    Built b = build(sc, a, rec);
    System &sys = *b.sys;
    {
        SpanScope s(rec, "sim.warmup");
        sys.run(sc.warmup);
    }
    sys.resetStats();

    LayerCounters prev;
    if (rec)
        prev = LayerCounters::fromStats(sys.stats());
    const Clock::time_point loop0 = Clock::now();
    for (std::uint32_t k = 0; k < sc.steps; ++k) {
        SpanScope s(rec, "sim.step");
        const Clock::time_point t0 = Clock::now();
        timedRun(sys, sc.step, a, rec, s);
        const double ms = secondsBetween(t0, Clock::now()) * 1e3;
        if (rec) {
            const LayerCounters cur = LayerCounters::fromStats(sys.stats());
            const LayerCounters d = cur.minus(prev);
            prev = cur;
            a.layer.accumulate(d);
            for (unsigned i = 0; i < LayerCounters::kCount; ++i)
                s.arg(LayerCounters::name(LayerCounters::Id(i)), d.v[i]);
        }
        a.timeStep(k, ms / 1e3);
        ++a.steps;
        const std::string err = checkStep(sys, b.ports);
        if (!err.empty())
            a.fail(err);
    }
    const double sim_us = ticksToUs(sc.step) * sc.steps;
    a.loopWallS += secondsBetween(loop0, Clock::now());
    a.loopSimUs += sim_us;
    a.repSimUs = sim_us;

    ExperimentResult r;
    std::map<std::string, double> stats;
    {
        SpanScope s(rec, "analysis.collect");
        const Clock::time_point t0 = Clock::now();
        r = collectResult(sys, sc.step * sc.steps);
        stats = sys.stats();
        a.collectMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
    a.checkDigest(statsDigest(stats));
    if (kind == WorkloadKind::Gups1Cube)
        a.paperMeasured.push_back(r.bandwidthGBs);
}

/**
 * vault_sweep: one pass of kVaultSweepPassSteps steps, each a fresh
 * System with its own seed-drawn vault combination, warmup, measured
 * window and result collection.
 */
void
runPass(std::uint64_t seed, Accum &a, SpanRecorder *rec)
{
    SpanScope pass(rec, "bench.pass");
    std::uint64_t digest = 0xcbf29ce484222325ull;
    double lat_sum = 0.0;
    double wall = 0.0;
    double sim_us = 0.0;
    for (std::uint32_t j = 0; j < kVaultSweepPassSteps; ++j) {
        const Scenario sc = makeVaultSweepStep(seed, j);
        SpanScope st(rec, "bench.step");
        const Clock::time_point t0 = Clock::now();
        Built b = build(sc, a, rec);
        System &sys = *b.sys;
        {
            SpanScope s(rec, "sim.warmup");
            timedRun(sys, sc.warmup, a, rec, s);
        }
        sys.resetStats();
        {
            SpanScope s(rec, "sim.step");
            timedRun(sys, sc.step, a, rec, s);
        }
        ExperimentResult r;
        std::map<std::string, double> stats;
        {
            SpanScope s(rec, "analysis.collect");
            const Clock::time_point c0 = Clock::now();
            r = collectResult(sys, sc.step);
            stats = sys.stats();
            a.collectMs.push_back(secondsBetween(c0, Clock::now()) * 1e3);
        }
        const std::string err = checkStep(sys, b.ports);
        b.sys.reset();  // a sweep pays the teardown too
        const double step_s = secondsBetween(t0, Clock::now());
        wall += step_s;
        sim_us += ticksToUs(sc.warmup + sc.step);
        a.timeStep(j, step_s);
        ++a.steps;
        if (rec) {
            const LayerCounters d = LayerCounters::fromStats(stats);
            a.layer.accumulate(d);
            for (unsigned i = 0; i < LayerCounters::kCount; ++i)
                st.arg(LayerCounters::name(LayerCounters::Id(i)), d.v[i]);
        }
        if (!err.empty())
            a.fail(err);
        digest = foldDigest(digest, statsDigest(stats));
        lat_sum += r.avgReadLatencyNs;
    }
    a.loopWallS += wall;
    a.loopSimUs += sim_us;
    a.repSimUs = sim_us;
    a.checkDigest(digest);
    a.paperMeasured.push_back(lat_sum / kVaultSweepPassSteps);
}

Scenario
longScenario(WorkloadKind kind, std::uint64_t seed)
{
    return kind == WorkloadKind::Gups1Cube ? makeGups1Cube(seed)
                                           : makeChain8Hotspot(seed);
}

void
runOnce(const Options &o, Accum &a, SpanRecorder *rec)
{
    if (o.kind == WorkloadKind::VaultSweep)
        runPass(o.seed, a, rec);
    else
        runRepetition(longScenario(o.kind, o.seed), o.kind, a, rec);
}

/** Set-up samples added per long-workload repetition. */
constexpr int kExtraBuildsPerRep = 5;

Clock::time_point
after(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

// ----- output -----

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

void
printMetric(const Metric &m)
{
    std::cout << "metric " << m.name << " " << num(m.value) << " " << m.unit
              << " n=" << m.samples << "\n";
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
printChecks(const char *mode, const Accum &a)
{
    std::cout << "check " << mode << " steps=" << a.steps
              << " failed=" << a.failed << " reps=" << a.reps
              << " digest=" << (a.digest ? hex(*a.digest) : "none")
              << (a.failed ? " first_failure=\"" + a.firstFailure + "\""
                           : std::string())
              << "\n";
}

int
finish(const std::vector<Metric> &metrics, std::uint64_t attempted,
       std::uint64_t failed)
{
    for (const Metric &m : metrics)
        printMetric(m);
    std::ostringstream js;
    js << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << num(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    js << "}}";
    std::cout << js.str() << std::endl;
    return failed == 0 ? 0 : 1;
}

/** The paper comparison line; chain8_hotspot has no reference. */
void
printPaper(WorkloadKind kind, const Accum &a)
{
    if (kind == WorkloadKind::Chain8Hotspot || a.paperMeasured.empty()) {
        std::cout << "paper chain8_hotspot unvalidated: the paper "
                     "measures one cube, so there is no error figure\n";
        return;
    }
    const bool gups = kind == WorkloadKind::Gups1Cube;
    const double paper =
        gups ? gupsPaperBandwidthGBs() : vaultSweepPaperLatencyNs();
    const double sim = median(a.paperMeasured);
    printMetric({"paper_err_pct", 100.0 * std::fabs(sim - paper) / paper,
                 "%", a.paperMeasured.size()});
    std::cout << "paper " << (gups ? "bandwidth_GBs" : "mean_read_latency_ns")
              << " simulated=" << num(sim) << " paper=" << num(paper)
              << (gups ? " (Fig. 6 peak, Section IV-A)"
                       : " (Fig. 10 128 B axis centre, Section IV-D)")
              << "\n";
}

int
runUntraced(const Options &o)
{
    Accum a;
    const Clock::time_point deadline = after(o.seconds);
    while (Clock::now() < deadline || a.reps < 2) {
        if (o.kind != WorkloadKind::VaultSweep) {
            // Extra builds, spread over the run like the repetitions,
            // so setup_s is a median over many samples.
            const Scenario sc = longScenario(o.kind, o.seed);
            for (int i = 0; i < kExtraBuildsPerRep; ++i)
                build(sc, a, nullptr);
        }
        runOnce(o, a, nullptr);
    }

    std::cout << "workload " << workloadName(o.kind) << " seed " << o.seed
              << " trace 0\n";
    printChecks("untraced", a);
    printMetric({"failed_frac",
                 static_cast<double>(a.failed) /
                     static_cast<double>(a.steps),
                 "ratio", a.steps});
    printPaper(o.kind, a);
    // Per-step host time: printed, not part of the result.  Its tail
    // follows the machine, not the program.
    for (const double pct : {10.0, 50.0, 99.0})
        printMetric({"step_ms_p" + num(pct), percentile(a.stepMs, pct), "ms",
                     a.stepMs.size()});
    // Throughput is that of the fastest time at every step index: on a
    // shared machine whose speed drifts by tens of percent over
    // seconds, any average or quantile of whole repetitions moves with
    // the neighbours' load, and the per-step minimum much less (see
    // README.md, "Noise").
    const std::vector<Metric> metrics = {
        {"sim_us_per_s", a.bestRate(), "us/s", a.reps},
        {"setup_s", median(a.setupS), "s", a.setupS.size()},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
    };
    return finish(metrics, a.steps, a.failed);
}

int
runTraced(const Options &o)
{
    SpanRecorder rec;
    Accum base;    // untraced repetitions, interleaved
    Accum traced;  // traced repetitions
    const Clock::time_point deadline = after(0.7 * o.seconds);
    while (Clock::now() < deadline || traced.reps < 1) {
        runOnce(o, base, nullptr);
        runOnce(o, traced, &rec);
    }
    const Scenario driver_sc = o.kind == WorkloadKind::VaultSweep
        ? makeVaultSweepStep(o.seed, 0)
        : longScenario(o.kind, o.seed);
    const std::vector<DriverResult> drivers =
        runLayerDrivers(driver_sc, 0.3 * o.seconds / 7.0, &rec);

    // Span outputs.
    const std::string stem = o.traceDir + "/" + workloadName(o.kind) +
        "_seed" + std::to_string(o.seed);
    {
        std::ofstream f(stem + ".trace.json");
        rec.writeChromeTrace(f);
        if (!f)
            std::cerr << "hmcbench: cannot write " << stem << ".trace.json\n";
    }
    std::ostringstream table;
    rec.writeSelfTimeTable(table);
    {
        std::ofstream f(stem + ".selftime.txt");
        f << table.str();
    }

    std::cout << "workload " << workloadName(o.kind) << " seed " << o.seed
              << " trace 1\n";
    printChecks("untraced", base);
    printChecks("traced", traced);
    if (base.digest && traced.digest && *base.digest != *traced.digest)
        traced.fail("tracing changed the simulated-stats digest");
    std::cout << "trace_file " << stem << ".trace.json spans="
              << rec.spans().size() << "\n"
              << "selftime_file " << stem << ".selftime.txt\n"
              << table.str();

    using C = LayerCounters;
    const LayerCounters &L = traced.layer;
    const auto n_steps = traced.steps;
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::vector<Metric> m = {
        {"sim.events", traced.events, "count", n_steps},
        {"sim.events_per_sim_us", ratio(traced.events, traced.runSimUs),
         "1/us", n_steps},
        {"sim.host_ns_per_event",
         ratio(traced.runWallS * 1e9, traced.events), "ns", n_steps},
        {"sim.cpu_s", traced.cpuS, "s", n_steps},
        {"host.requests_issued", L[C::PortIssued], "count", n_steps},
        // Closed-loop ports accept everything they generate.
        {"host.accept_ratio",
         L[C::Offered] > 0 ? L[C::Accepted] / L[C::Offered] : 1.0, "ratio",
         n_steps},
        {"hmc.link_flits", L[C::LinkFlits], "count", n_steps},
        {"hmc.link_crc_retries", L[C::CrcRetries], "count", n_steps},
        {"hmc.vault_requests", L[C::VaultRequests], "count", n_steps},
        {"hmc.vault_avg_service_ns",
         ratio(L[C::VaultServiceNsSum], L[C::VaultRequests]), "ns", n_steps},
        {"hmc.vault_peak_bank_queue", L[C::PeakBankQueue], "count", n_steps},
        {"noc.flits", L[C::NocFlits], "count", n_steps},
        {"noc.avg_latency_ns",
         ratio(L[C::NocLatencyNsSum], L[C::NocMessages]), "ns", n_steps},
        {"dram.activates", L[C::Activates], "count", n_steps},
        {"dram.row_hit_ratio",
         ratio(L[C::RowHits], L[C::RowHits] + L[C::RowMisses]), "ratio",
         n_steps},
        {"chain.transit_flits", L[C::TransitFlits], "count", n_steps},
        {"chain.rx_hol_stalls", L[C::RxHolStalls], "count", n_steps},
        {"chain.misroutes", L[C::Misroutes], "count", n_steps},
    };
    for (const DriverResult &d : drivers)
        m.push_back({d.metric, d.nsPerOp, "ns", d.batches});
    std::vector<double> system_s = base.systemS, workload_s = base.workloadS,
                        collect_ms = base.collectMs;
    system_s.insert(system_s.end(), traced.systemS.begin(),
                    traced.systemS.end());
    workload_s.insert(workload_s.end(), traced.workloadS.begin(),
                      traced.workloadS.end());
    collect_ms.insert(collect_ms.end(), traced.collectMs.begin(),
                      traced.collectMs.end());
    m.push_back({"setup.system_s", median(system_s), "s", system_s.size()});
    m.push_back(
        {"setup.workload_s", median(workload_s), "s", workload_s.size()});
    m.push_back(
        {"analysis.collect_ms", median(collect_ms), "ms", collect_ms.size()});
    const double base_rate = ratio(base.loopSimUs, base.loopWallS);
    const double traced_rate = ratio(traced.loopSimUs, traced.loopWallS);
    m.push_back({"trace.overhead_pct",
                 100.0 * (ratio(base_rate, traced_rate) - 1.0), "%",
                 traced.reps});
    return finish(m, base.steps + traced.steps, base.failed + traced.failed);
}

/**
 * Slicing guard: a long run cut into 1 us steps must simulate exactly
 * what one unbroken run() of the same length does.
 */
int
runSlicingSelftest(std::uint64_t seed)
{
    constexpr std::uint32_t kSlices = 200;
    int failures = 0;
    for (WorkloadKind kind :
         {WorkloadKind::Gups1Cube, WorkloadKind::Chain8Hotspot}) {
        const Scenario sc = longScenario(kind, seed);
        std::uint64_t digests[2] = {0, 0};
        for (int sliced = 0; sliced < 2; ++sliced) {
            Accum a;
            Built b = build(sc, a, nullptr);
            b.sys->run(sc.warmup);
            b.sys->resetStats();
            if (sliced) {
                for (std::uint32_t i = 0; i < kSlices; ++i)
                    b.sys->run(kMicrosecond);
            } else {
                b.sys->run(kSlices * kMicrosecond);
            }
            digests[sliced] = statsDigest(b.sys->stats());
        }
        const bool same = digests[0] == digests[1];
        failures += same ? 0 : 1;
        std::cout << "slicing " << workloadName(kind) << " unbroken="
                  << hex(digests[0]) << " sliced=" << hex(digests[1])
                  << (same ? " ok" : " MISMATCH") << "\n";
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseArgs(argc, argv);
        Logger::setLevel(LogLevel::Warn);
        if (o.selftest == "slicing")
            return runSlicingSelftest(o.seed);
        if (!o.selftest.empty())
            usage("unknown selftest '" + o.selftest + "'");
        return o.trace ? runTraced(o) : runUntraced(o);
    } catch (const std::exception &e) {
        std::cerr << "hmcbench: " << e.what() << "\n";
        return 1;
    }
}
