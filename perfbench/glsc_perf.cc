/**
 * @file
 * glsc_perf: the glsc-sim benchmark program.
 *
 * One process runs one workload: a fixed list of simulations (cells),
 * executed back to back as a "pass", repeated for a fixed host time.
 * The loop is closed and single-threaded: the next simulation starts
 * when the previous one returns, so the peak RSS of the process is the
 * workload's own.
 *
 *   glsc_perf --workload rms-4x4|micro-shared|micro-private
 *             --seed N --seconds S --trace 0|1
 *             [--tiny] [--expect-digest HEX]
 *
 * Every run is checked: guest-result verification, the
 * SystemStats::consistencyError() conservation rules, and a digest of
 * its statsToJson export that must repeat exactly in every later pass,
 * traced or not.  The workload digest (over all runs of a pass) is
 * printed so two commits can be compared; --expect-digest makes a
 * mismatch against a recorded baseline count every run as failed.
 *
 * --trace 0 prints the end-to-end metrics.  --trace 1 is the separate
 * per-layer run: isolated host-time probes of single layers, untraced
 * and traced passes alternating (spans around each call into the
 * simulator, plus the tracing overhead), and the simulated per-layer
 * counts.  The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "kernels/micro.h"
#include "kernels/registry.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "probes.h"
#include "sim/system.h"

namespace {

using namespace glsc;
using perfbench::Clock;
using perfbench::secondsSince;

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

char
scenarioLetter(MicroScenario sc)
{
    return "ABCD"[static_cast<int>(sc)];
}

/** One simulation of a pass. */
struct Cell
{
    bool micro = false;
    std::string bench; //!< registry name (RMS cells)
    int dataset = 0;
    MicroScenario scenario = MicroScenario::A; //!< micro cells
    Scheme scheme = Scheme::Base;
    int width = 4;

    std::string
    label() const
    {
        std::string what =
            micro ? std::string("micro-") + scenarioLetter(scenario)
                  : bench + "-" + (dataset == 0 ? "A" : "B");
        return what + " " + schemeName(scheme) + " " +
               std::to_string(width) + "-wide";
    }
};

struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    double scale = 0.0;  //!< RMS dataset scale
    int microIters = 0;  //!< microbenchmark iterations per thread
};

constexpr double kRmsScale = 0.12;    //!< bench_fig6/fig8 default
constexpr int kMicroSharedIters = 512;
constexpr int kMicroPrivateIters = 1024;

bool
makeWorkload(const std::string &name, bool tiny, Workload &w)
{
    w.name = name;
    const Scheme schemes[] = {Scheme::Base, Scheme::Glsc};
    if (name == "rms-4x4") {
        w.scale = tiny ? 0.02 : kRmsScale;
        for (int width : {4, 16})
            for (const BenchmarkInfo &info : benchmarkList())
                for (int ds = 0; ds < 2; ++ds)
                    for (Scheme s : schemes) {
                        Cell c;
                        c.bench = info.name;
                        c.dataset = ds;
                        c.scheme = s;
                        c.width = width;
                        w.cells.push_back(c);
                    }
        return true;
    }
    std::vector<MicroScenario> scenarios;
    if (name == "micro-shared") {
        scenarios = {MicroScenario::A};
        w.microIters = tiny ? 64 : kMicroSharedIters;
    } else if (name == "micro-private") {
        scenarios = {MicroScenario::B, MicroScenario::C, MicroScenario::D};
        w.microIters = tiny ? 64 : kMicroPrivateIters;
    } else {
        return false;
    }
    for (MicroScenario sc : scenarios)
        for (int width : {4, 16})
            for (Scheme s : schemes) {
                Cell c;
                c.micro = true;
                c.scenario = sc;
                c.scheme = s;
                c.width = width;
                w.cells.push_back(c);
            }
    return true;
}

// ---------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** Host seconds per pass spent in each kind of call (traced passes). */
struct Spans
{
    double system = 0.0;      //!< sim.System: the stand-alone construction
    double kernels = 0.0;     //!< kernels.run: runBenchmark / runMicro
    double consistency = 0.0; //!< stats.consistency: consistencyError()
    double statsJson = 0.0;   //!< obs.stats_json: statsToJson + digest
};

struct RunOutcome
{
    double setupS = 0.0;  //!< stand-alone construction of the run's System
    double seconds = 0.0; //!< kernels.run + checks + digest
    double runMs = 0.0;   //!< kernels.run alone
    std::uint64_t digest = 0;
    SystemStats stats;    //!< with the trace-only breakdowns removed
    std::string problem;  //!< empty when the run verified and conserved
    // Trace-only observations (CountingSink breakdowns, event count).
    std::uint64_t bankWaitCycles = 0;
    std::vector<std::uint64_t> bankAccesses;
    std::uint64_t traceEvents = 0;
};

RunOutcome
runCell(const Workload &w, const Cell &c, std::uint64_t seed, bool traced,
        Spans &spans)
{
    SystemConfig cfg = SystemConfig::make(4, 4, c.width);
    RunOutcome out;
    // Set-up sample: runBenchmark / runMicro construct their System
    // internally, so an identical one is built (and dropped) first, in
    // the state the previous run left the heap in.  Not part of the
    // run's own time.
    auto ts = Clock::now();
    {
        System sys(cfg);
        out.setupS = secondsSince(ts);
    }
    Tracer tracer;
    CountingSink counts;
    if (traced) {
        spans.system += out.setupS;
        tracer.addSink(&counts);
        cfg.tracer = &tracer;
    }

    auto t0 = Clock::now();
    RunResult r = c.micro
                      ? runMicro(cfg, c.scenario, c.scheme, w.microIters,
                                 seed)
                      : runBenchmark(c.bench, c.dataset, c.scheme, cfg,
                                     w.scale, seed);
    auto t1 = Clock::now();
    std::string broken = r.stats.consistencyError();
    auto t2 = Clock::now();
    // The CountingSink's per-bank and hot-line breakdowns exist only in
    // traced runs; drop them so traced and untraced digests compare.
    for (std::uint64_t v : r.stats.l2BankWaitCycles)
        out.bankWaitCycles += v;
    out.bankAccesses = std::move(r.stats.l2BankAccesses);
    r.stats.l2BankAccesses.clear();
    r.stats.l2BankWaitCycles.clear();
    r.stats.hotLines.clear();
    out.digest = fnv1a(statsToJson(r.stats));
    auto t3 = Clock::now();

    std::chrono::duration<double> run = t1 - t0, cons = t2 - t1,
                                  json = t3 - t2, all = t3 - t0;
    out.seconds = all.count();
    out.runMs = run.count() * 1e3;
    if (traced) {
        spans.kernels += run.count();
        spans.consistency += cons.count();
        spans.statsJson += json.count();
        out.traceEvents = tracer.eventsEmitted();
    }
    if (!r.verified)
        out.problem = "verification failed: " + r.detail;
    else if (!broken.empty())
        out.problem = "stats consistency violation: " + broken;
    out.stats = std::move(r.stats);
    return out;
}

struct Pass
{
    bool traced = false;
    double wallS = 0.0;
    std::vector<RunOutcome> runs;
    Spans spans;
    std::uint64_t digest = 0; //!< over every run's digest, in cell order
};

Pass
runPass(const Workload &w, std::uint64_t seed, bool traced)
{
    Pass p;
    p.traced = traced;
    p.digest = fnv1a("");
    for (const Cell &c : w.cells) {
        p.runs.push_back(runCell(w, c, seed, traced, p.spans));
        p.wallS += p.runs.back().seconds;
        p.digest = fnv1a(hex(p.runs.back().digest), p.digest);
    }
    return p;
}

// ---------------------------------------------------------------------
// Statistics and reporting.
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest whole percentile with at least ten samples above it
 * (nearest-rank), or -1 when there are too few samples for one above
 * the median.
 */
int
tailPercentile(std::size_t n)
{
    if (n < 20)
        return -1;
    return static_cast<int>(100 * (n - 10) / n);
}

double
percentileValue(std::vector<double> v, int pct)
{
    std::sort(v.begin(), v.end());
    std::size_t rank = (static_cast<std::size_t>(pct) * v.size() + 99) / 100;
    return v[std::max<std::size_t>(rank, 1) - 1];
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
printTiming(const char *name, const std::vector<double> &samples,
            const char *unit)
{
    int p = tailPercentile(samples.size());
    char tail[32] = "tail: n<20";
    if (p >= 0)
        std::snprintf(tail, sizeof tail, "p%d %.6g", p,
                      percentileValue(samples, p));
    std::printf("  %-22s median %-12.6g %-16s n=%zu  (%s)\n", name,
                median(samples), tail, samples.size(), unit);
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(num, sizeof num, "%.17g", v);
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             num + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

/** Base/GLSC cycle ratios of adjacent (Base, GLSC) cell pairs. */
std::vector<double>
speedups(const Pass &p)
{
    std::vector<double> r;
    for (std::size_t i = 0; i + 1 < p.runs.size(); i += 2)
        r.push_back(double(p.runs[i].stats.cycles) /
                    double(p.runs[i + 1].stats.cycles));
    return r;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

void
printPaperReference(const Workload &w, const Pass &ref)
{
    std::vector<double> ratio = speedups(ref);
    std::printf("\nModelled Base/GLSC cycle ratio beside the paper "
                "(the model is otherwise unvalidated):\n");
    if (!w.cells.front().micro) {
        // Cells are ordered width-major, so each width holds one half.
        const double paper[2] = {1.54, 2.03};
        const int widths[2] = {4, 16};
        std::size_t half = ratio.size() / 2;
        for (int k = 0; k < 2; ++k) {
            double m = mean(std::vector<double>(
                ratio.begin() + k * half, ratio.begin() + (k + 1) * half));
            std::printf("  %2d-wide mean %.3f  paper Fig. 8 ~%.2f  "
                        "relative error %+.1f %%  (scale %.3g here, "
                        "paper scale 1.0)\n",
                        widths[k], m, paper[k],
                        100.0 * (m - paper[k]) / paper[k], w.scale);
        }
        return;
    }
    // Micro cells: (scenario, width) pairs in scenario-major order, so
    // the last ratio is scenario D (or A) at 16-wide.
    for (std::size_t i = 0; i < ratio.size(); i += 2) {
        std::printf("  scenario %c  4-wide %.3f  16-wide %.3f\n",
                    scenarioLetter(w.cells[2 * i].scenario), ratio[i],
                    ratio[i + 1]);
    }
    if (w.cells.front().scenario == MicroScenario::A) {
        std::printf("  paper Fig. 7 shape: A is the largest of the four "
                    "scenarios (compare micro-private)\n");
    } else {
        std::printf("  paper Fig. 7 shape: D < 1 at 16-wide: %s here; "
                    "A (micro-shared) largest\n",
                    ratio.back() < 1.0 ? "holds" : "does NOT hold");
    }
    std::printf("  (%d iterations per thread here, paper: 2048)\n",
                w.microIters);
}

// ---------------------------------------------------------------------
// Main.
// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload rms-4x4|micro-shared|micro-private"
                 " --seed N --seconds S --trace 0|1 [--tiny]"
                 " [--expect-digest HEX]\n",
                 argv0);
    std::exit(2);
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    if (*s == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 10);
    return errno == 0 && *end == '\0' && std::strchr(s, '-') == nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    // Serve large blocks (the L2 arrays) from the heap and keep it from
    // the start, which is where glibc's dynamic thresholds end up after
    // the first large free.  Left dynamic, the switch came at a point
    // that depended on the run, and peak RSS jumped between 14 and 24 MB
    // from run to run.
    if (mallopt(M_MMAP_THRESHOLD, 32 << 20) != 1 ||
        mallopt(M_TRIM_THRESHOLD, 64 << 20) != 1) {
        std::fprintf(stderr, "mallopt failed\n");
        return 1;
    }
    std::string workloadName, expectDigest;
    std::uint64_t seed = 0, traceFlag = 2;
    double seconds = -1.0;
    bool haveSeed = false, tiny = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue) {
            workloadName = argv[++i];
        } else if (a == "--seed" && hasValue) {
            haveSeed = parseU64(argv[++i], seed);
            if (!haveSeed)
                usage(argv[0]);
        } else if (a == "--seconds" && hasValue) {
            char *end = nullptr;
            seconds = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(seconds > 0.0) || seconds > 3600.0)
                usage(argv[0]);
        } else if (a == "--trace" && hasValue) {
            if (!parseU64(argv[++i], traceFlag) || traceFlag > 1)
                usage(argv[0]);
        } else if (a == "--tiny") {
            tiny = true;
        } else if (a == "--expect-digest" && hasValue) {
            expectDigest = argv[++i];
        } else {
            usage(argv[0]);
        }
    }
    Workload w;
    if (!haveSeed || seconds < 0.0 || traceFlag > 1 ||
        !makeWorkload(workloadName, tiny, w))
        usage(argv[0]);
    const bool traceRun = traceFlag == 1;

    std::printf("workload %s  seed %llu  %zu runs per pass  %s\n",
                w.name.c_str(), (unsigned long long)seed, w.cells.size(),
                traceRun ? "per-layer (traced) run" : "end-to-end run");

    std::vector<perfbench::ProbeResult> probes;
    if (traceRun)
        probes = perfbench::runProbes(tiny ? 0.02 : 1.0);

    // Measurement: whole passes until the time is up.  The end-to-end
    // run makes at least two passes so every run's digest is checked
    // against a repeat; the traced run alternates untraced and traced
    // passes and makes at least one of each.  A pass is checked and
    // reduced to its timings as soon as it ends.  Only pass 1 and the
    // first traced pass are kept whole, so the peak RSS stays the
    // simulator's own however many passes fit.
    const std::size_t nCells = w.cells.size();
    std::vector<double> untracedWall, tracedWall, runMs, setup;
    // Fastest untraced sample of each cell: the host's slow phases only
    // ever add time, so a per-cell minimum filters them out where a
    // median over passes follows them.
    std::vector<double> bestRun(nCells, INFINITY);
    std::vector<double> bestSetup(nCells, INFINITY);
    std::vector<double> spanSys, spanRun, spanCons, spanJson;
    std::uint64_t attempted = 0, failed = 0;
    Pass ref, firstTraced;
    // Correctness: verification, conservation, and digest identity
    // against pass 1 (and against the expected digest, if given).
    auto absorb = [&](const Pass &p, std::size_t number) {
        bool mismatch = !expectDigest.empty() && hex(p.digest) != expectDigest;
        for (std::size_t ci = 0; ci < nCells; ++ci) {
            const RunOutcome &r = p.runs[ci];
            attempted++;
            std::string problem = r.problem;
            if (problem.empty() && r.digest != ref.runs[ci].digest)
                problem = "stats digest differs from pass 1";
            if (problem.empty() && mismatch)
                problem = "workload digest " + hex(p.digest) +
                          " differs from expected " + expectDigest;
            if (!problem.empty()) {
                failed++;
                std::printf("FAILED pass %zu%s %s: %s\n", number,
                            p.traced ? " (traced)" : "",
                            w.cells[ci].label().c_str(), problem.c_str());
            }
            // Set-up time: every run's stand-alone System construction.
            setup.push_back(r.setupS);
            bestSetup[ci] = std::min(bestSetup[ci], r.setupS);
            if (!p.traced) {
                runMs.push_back(r.runMs);
                bestRun[ci] = std::min(bestRun[ci], r.seconds);
            }
        }
        if (!p.traced) {
            untracedWall.push_back(p.wallS);
            return;
        }
        tracedWall.push_back(p.wallS);
        spanSys.push_back(p.spans.system);
        spanRun.push_back(p.spans.kernels);
        spanCons.push_back(p.spans.consistency);
        spanJson.push_back(p.spans.statsJson);
    };
    auto start = Clock::now();
    ref = runPass(w, seed, false);
    absorb(ref, 1);
    // Peak RSS is read once two whole passes have run.  Later in a long
    // run the heap sometimes grew by another ~9 MB at a point that
    // varied from run to run (allocator placement, not the workload).
    double peakRssMb = 0.0;
    for (std::size_t n = 2;; ++n) {
        Pass p = runPass(w, seed, traceRun && n % 2 == 0);
        absorb(p, n);
        if (n == 2) {
            struct rusage ru;
            getrusage(RUSAGE_SELF, &ru);
            peakRssMb = double(ru.ru_maxrss) / 1024.0;
        }
        if (p.traced && firstTraced.runs.empty())
            firstTraced = std::move(p);
        if (secondsSince(start) >= seconds)
            break;
    }
    const bool correct = failed == 0;

    std::uint64_t passInstr = 0, passCycles = 0;
    for (const RunOutcome &r : ref.runs) {
        passInstr += r.stats.totalInstructions();
        passCycles += r.stats.cycles;
    }

    std::printf("stats digest %s  (statsToJson of every run, FNV-1a)\n",
                hex(ref.digest).c_str());
    std::printf("failed_frac %.6g  (%llu of %llu runs failed)\n",
                attempted ? double(failed) / double(attempted) : 0.0,
                (unsigned long long)failed, (unsigned long long)attempted);

    std::vector<Metric> metrics;
    if (!traceRun) {
        double wallBest = 0.0;
        for (double s : bestRun)
            wallBest += s;
        const double setupBest = median(bestSetup);
        std::printf("\nHost timings (Release build, one thread):\n");
        printTiming("wall_s", untracedWall, "s per pass");
        printTiming("run_ms", runMs, "ms per simulation");
        printTiming("setup_s", setup, "s per System construction");
        std::printf("  best pass %.6g s (per-run minima summed), best "
                    "set-up %.6g s (median of per-run minima)\n",
                    wallBest, setupBest);
        metrics = {
            {"wall_s", wallBest, "s"},
            // The mean over the best pass's runs: the median of the
            // pooled runs jumps between cells whose sizes differ 10x.
            {"run_ms", wallBest * 1e3 / double(nCells), "ms"},
            {"setup_s", setupBest, "s"},
            {"sim_mips", double(passInstr) / wallBest / 1e6, "Minstr/s"},
            {"sim_mcps", double(passCycles) / wallBest / 1e6, "Mcycles/s"},
            {"peak_rss_mb", peakRssMb, "MB"},
            {"sim_cycles", double(passCycles), "cycles"},
            {"glsc_speedup", mean(speedups(ref)), "ratio"},
        };
        printPaperReference(w, ref);
    } else {
        // Simulated counts: summed over the runs of one pass.  They are
        // identical in every pass (checked above).
        SystemStats sum;
        sum.threads.resize(1);
        std::uint64_t combined = 0, gsuReq = 0;
        for (const RunOutcome &r : ref.runs) {
            const SystemStats &s = r.stats;
            sum.threads[0].instructions += s.totalInstructions();
            sum.threads[0].memStallCycles += s.totalMemStallCycles();
            sum.threads[0].syncCycles += s.totalSyncCycles();
            sum.threads[0].scalarFallbacks += s.totalScalarFallbacks();
            sum.l1Accesses += s.l1Accesses;
            sum.l1Hits += s.l1Hits;
            sum.l2Accesses += s.l2Accesses;
            sum.l2Misses += s.l2Misses;
            sum.invalidationsSent += s.invalidationsSent;
            sum.writebacks += s.writebacks;
            sum.glscLaneAttempts += s.glscLaneAttempts;
            sum.glscLaneFailAlias += s.glscLaneFailAlias;
            sum.glscLaneFailLost += s.glscLaneFailLost;
            sum.glscLaneFailPolicy += s.glscLaneFailPolicy;
            sum.scAttempts += s.scAttempts;
            sum.scFailures += s.scFailures;
            sum.gsuConflictStallCycles += s.gsuConflictStallCycles;
            combined += s.l1AccessesCombined;
            gsuReq += s.gsuCacheRequests;
        }
        auto frac = [](double num, double den) {
            return den > 0.0 ? num / den : 0.0;
        };

        std::uint64_t bankWait = 0, traceEvents = 0;
        std::vector<std::uint64_t> bankAcc;
        for (const RunOutcome &r : firstTraced.runs) {
            bankWait += r.bankWaitCycles;
            traceEvents += r.traceEvents;
            bankAcc.resize(std::max(bankAcc.size(), r.bankAccesses.size()));
            for (std::size_t b = 0; b < r.bankAccesses.size(); ++b)
                bankAcc[b] += r.bankAccesses[b];
        }
        std::uint64_t bankTotal = 0, bankMax = 0;
        for (std::uint64_t v : bankAcc) {
            bankTotal += v;
            bankMax = std::max(bankMax, v);
        }

        std::printf("\nHost time per pass, traced vs untraced:\n");
        printTiming("untraced wall_s", untracedWall, "s");
        printTiming("traced wall_s", tracedWall, "s");
        const double sysNs = median(bestSetup) * 1e3;
        metrics.push_back({"sim.system_ctor_ms", sysNs, "ms"});
        for (const perfbench::ProbeResult &pr : probes)
            metrics.push_back({pr.name, pr.ns, "ns"});
        metrics.push_back({"span.sim.System_s", median(spanSys), "s"});
        metrics.push_back({"span.kernels.run_s", median(spanRun), "s"});
        metrics.push_back(
            {"span.stats.consistency_s", median(spanCons), "s"});
        metrics.push_back({"span.obs.stats_json_s", median(spanJson), "s"});
        metrics.push_back({"obs.trace_overhead_frac",
                           median(tracedWall) / median(untracedWall) - 1.0,
                           "frac"});
        const ThreadStats &t = sum.threads[0];
        std::vector<Metric> counts = {
            {"cpu.instructions", double(t.instructions), "count"},
            {"cpu.mem_stall_cycles", double(t.memStallCycles), "cycles"},
            {"cpu.sync_cycles", double(t.syncCycles), "cycles"},
            {"core.gsu_cache_requests", double(gsuReq), "count"},
            {"core.gsu_conflict_stall_cycles",
             double(sum.gsuConflictStallCycles), "cycles"},
            {"core.gsu_combined_frac",
             frac(double(combined), double(combined + gsuReq)), "frac"},
            {"core.glsc_lane_attempts", double(sum.glscLaneAttempts),
             "count"},
            {"core.glsc_lane_success_frac",
             1.0 - frac(double(sum.glscLaneFailures()),
                        double(sum.glscLaneAttempts)),
             "frac"},
            {"core.sc_success_frac",
             1.0 - frac(double(sum.scFailures), double(sum.scAttempts)),
             "frac"},
            {"core.scalar_fallbacks", double(t.scalarFallbacks), "count"},
            {"mem.l1_hit_frac",
             frac(double(sum.l1Hits), double(sum.l1Accesses)), "frac"},
            {"mem.l2_accesses", double(sum.l2Accesses), "count"},
            {"mem.l2_misses", double(sum.l2Misses), "count"},
            {"mem.invalidations", double(sum.invalidationsSent), "count"},
            {"mem.writebacks", double(sum.writebacks), "count"},
            {"mem.l2_bank_wait_cycles", double(bankWait), "cycles"},
            {"mem.l2_bank_max_share",
             frac(double(bankMax), double(bankTotal)), "frac"},
            {"obs.trace_events", double(traceEvents), "count"},
        };
        metrics.insert(metrics.end(), counts.begin(), counts.end());
    }

    std::printf("\n%s metrics:\n", traceRun ? "Per-layer" : "End-to-end");
    for (const Metric &m : metrics)
        std::printf("  %-32s %-18.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("correct %s\n", correct ? "yes" : "NO");
    printResult(correct, attempted, failed, metrics);
    return 0;
}
