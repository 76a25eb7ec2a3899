#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/vatomic.h"
#include "mem/memsys.h"
#include "sim/event_queue.h"
#include "sim/system.h"

namespace perfbench {

using namespace glsc;

namespace {

[[noreturn]] void
probeBroken(const char *what)
{
    std::fprintf(stderr, "probe did not exercise its layer: %s\n", what);
    std::exit(1);
}

// ----- sim: EventQueue::schedule + runDue. -----

/**
 * One event scheduled and one drained per simulated tick, with the
 * delay mix memory completions produce (L1 hits, L2 hits, bank
 * queueing, memory), so the heap holds a realistic backlog.
 */
double
eventNs(std::uint64_t n)
{
    static constexpr Tick kDelays[] = {1, 3, 12, 16, 24, 280};
    EventQueue q;
    std::uint64_t fired = 0;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        q.scheduleIn(kDelays[i % 6], [&fired] { fired++; });
        q.setNow(q.now() + 1);
        q.runDue();
    }
    while (!q.empty()) {
        q.setNow(q.nextEventTick());
        q.runDue();
    }
    double s = secondsSince(t0);
    if (fired != n)
        probeBroken("event queue lost events");
    return s * 1e9 / static_cast<double>(n);
}

// ----- cpu / core: guest programs through System::run. -----

Task<void>
execLoop(SimThread &t, int iters, std::uint64_t perOp)
{
    for (int i = 0; i < iters; ++i)
        co_await t.exec(perOp);
}

Task<void>
gatherLoop(SimThread &t, Addr base, int words, int iters)
{
    const int w = t.width();
    const Mask all = Mask::allOnes(w);
    VecReg idx;
    for (int i = 0; i < iters; ++i) {
        for (int l = 0; l < w; ++l)
            idx[l] = static_cast<std::uint64_t>(
                (i * 37 + l * 67 + t.globalId() * 11) % words);
        co_await t.vgather(base, idx, all, 4);
    }
}

/** Private counters, one distinct line per lane (no aliasing). */
Task<void>
glscLoop(SimThread &t, Addr base, int regionWords, int iters)
{
    constexpr int kWordsPerLine = kLineBytes / 4;
    const int w = t.width();
    const Mask all = Mask::allOnes(w);
    const int lines = regionWords / kWordsPerLine;
    const int region = t.globalId() * regionWords;
    VecReg idx;
    for (int i = 0; i < iters; ++i) {
        for (int l = 0; l < w; ++l)
            idx[l] = static_cast<std::uint64_t>(
                region + ((i + l) % lines) * kWordsPerLine);
        co_await vAtomicIncU32(t, base, idx, all);
    }
}

/** Host seconds of System::run alone; construction is not timed. */
double
timedRun(System &sys, SystemStats &out)
{
    auto t0 = Clock::now();
    out = sys.run();
    return secondsSince(t0);
}

/** One busy core (thread 0, long exec bursts) and three idle ones. */
double
idleTickNs(std::uint64_t n)
{
    System sys(SystemConfig::make(4, 4, 4));
    const int iters = static_cast<int>(n);
    sys.spawn(0, [iters](SimThread &t) { return execLoop(t, iters, 1000); });
    SystemStats st;
    double s = timedRun(sys, st);
    if (st.cycles == 0)
        probeBroken("idle-tick guest simulated no cycles");
    return s * 1e9 / static_cast<double>(st.cycles);
}

/** Every thread issues single exec instructions: the issue path. */
double
issueNs(std::uint64_t n)
{
    System sys(SystemConfig::make(4, 4, 4));
    const int iters = static_cast<int>(n);
    sys.spawnAll([iters](SimThread &t) { return execLoop(t, iters, 1); });
    SystemStats st;
    double s = timedRun(sys, st);
    return s * 1e9 / static_cast<double>(st.totalInstructions());
}

/** vgather over an L1-resident array: GSU dispatch and lane generation. */
double
gsuLaneNs(std::uint64_t n)
{
    constexpr int kWords = 1024;
    System sys(SystemConfig::make(4, 4, 16));
    const Addr base = sys.layout().allocArray(kWords, 4);
    const int iters = static_cast<int>(n);
    sys.spawnAll([base, iters](SimThread &t) {
        return gatherLoop(t, base, kWords, iters);
    });
    SystemStats st;
    double s = timedRun(sys, st);
    if (st.gsuInstrs == 0)
        probeBroken("gather guest issued no GSU instructions");
    return s * 1e9 / static_cast<double>(st.gsuInstrs * 16);
}

/** vgatherlink/vscattercond on private lines: the GLSC lane path. */
double
glscLaneNs(std::uint64_t n)
{
    constexpr int kRegionWords = 64 * (kLineBytes / 4);
    SystemConfig cfg = SystemConfig::make(4, 4, 16);
    System sys(cfg);
    const Addr base =
        sys.layout().allocArray(kRegionWords * cfg.totalThreads(), 4);
    const int iters = static_cast<int>(n);
    sys.spawnAll([base, iters](SimThread &t) {
        return glscLoop(t, base, kRegionWords, iters);
    });
    SystemStats st;
    double s = timedRun(sys, st);
    if (st.glscLaneAttempts == 0)
        probeBroken("GLSC guest attempted no lanes");
    return s * 1e9 / static_cast<double>(st.glscLaneAttempts);
}

// ----- mem: MemorySystem::access without cores. -----

/** A 4x4 memory system driven directly, as bench_components does. */
struct MemRig
{
    SystemConfig cfg = SystemConfig::make(4, 4, 4);
    EventQueue events;
    Memory mem;
    SystemStats stats;
    std::unique_ptr<MemorySystem> msys;

    MemRig()
    {
        stats.threads.resize(cfg.totalThreads());
        msys = std::make_unique<MemorySystem>(cfg, events, mem, stats);
    }
};

/** Loads that hit 64 resident lines of core 0's L1. */
double
l1HitNs(std::uint64_t n)
{
    constexpr Addr kBase = 0x10000;
    constexpr int kLines = 64;
    MemRig rig;
    for (int k = 0; k < kLines; ++k)
        rig.msys->access(0, 0, kBase + k * kLineBytes, 4, MemOpType::Load);
    rig.events.setNow(1000);
    rig.events.runDue();
    const std::uint64_t missesBefore = rig.stats.l1Misses;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        rig.msys->access(0, 0, kBase + (i % kLines) * kLineBytes, 4,
                         MemOpType::Load);
    }
    double s = secondsSince(t0);
    if (rig.stats.l1Misses != missesBefore)
        probeBroken("L1-hit loop missed");
    return s * 1e9 / static_cast<double>(n);
}

/** Stores from the four cores in turn to one line: every one misses. */
double
coherenceMissNs(std::uint64_t n)
{
    MemRig rig;
    const std::uint64_t invalsBefore = rig.stats.invalidationsSent;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        rig.msys->access(static_cast<CoreId>(i % 4), 0, 0x2000, 4,
                         MemOpType::Store, i);
        rig.events.setNow(rig.events.now() + 64);
        rig.events.runDue();
    }
    double s = secondsSince(t0);
    if (n > 1 && rig.stats.invalidationsSent == invalsBefore)
        probeBroken("ping-pong stores sent no invalidations");
    return s * 1e9 / static_cast<double>(n);
}

struct Probe
{
    const char *name;
    double (*fn)(std::uint64_t);
    std::uint64_t work; //!< iterations at full size (~20-50 ms each)
};

constexpr Probe kProbes[] = {
    {"sim.event_ns", eventNs, 250000},
    {"cpu.idle_tick_ns", idleTickNs, 400},
    {"cpu.issue_ns", issueNs, 20000},
    {"mem.l1_hit_ns", l1HitNs, 1000000},
    {"core.gsu_lane_ns", gsuLaneNs, 200},
    {"core.glsc_lane_ns", glscLaneNs, 100},
    {"mem.coherence_miss_ns", coherenceMissNs, 200000},
};

constexpr int kReps = 5;

} // namespace

std::vector<ProbeResult>
runProbes(double work)
{
    std::vector<ProbeResult> out;
    for (const Probe &p : kProbes) {
        std::uint64_t n = std::max<std::uint64_t>(
            4, static_cast<std::uint64_t>(static_cast<double>(p.work) *
                                          work));
        p.fn(std::max<std::uint64_t>(2, n / 10)); // warm caches, allocator
        // The fastest repetition: host slow phases only ever add time.
        double best = INFINITY;
        for (int r = 0; r < kReps; ++r)
            best = std::min(best, p.fn(n));
        out.push_back({p.name, best});
    }
    return out;
}

} // namespace perfbench
