#include "hostspeed.h"

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>

#include <sys/mman.h>

#include "common/logging.h"

namespace qbench {

namespace {

uint64_t
next(uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/** A dependent chain of 64-bit multiply-adds: the core alone. */
uint64_t
aluChain()
{
    uint64_t x = 1, y = 7;
    for (int i = 0; i < 3'000'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        y += x >> (x & 31);
    }
    return x ^ y;
}

/** Unpredictable branches over a 4 KB table: the branch predictor
 *  and L1. */
uint64_t
branchy()
{
    std::vector<uint8_t> g(4096, 0);
    uint64_t s = 0x1234567, flips = 0;
    for (int i = 0; i < 500'000; ++i) {
        const uint64_t v = next(s);
        const size_t a = v & 4095, b = (v >> 12) & 4095;
        if (!g[a])
            g[a] = (v >> 24) & 1;
        else if (g[b]) {
            g[a] = 0;
            ++flips;
        } else
            g[b] = 1;
    }
    return flips;
}

/** Claim and release random straight routes on an occupancy grid,
 *  as the mesh's claim path does: a route is claimed only if every
 *  cell on it is free. */
uint64_t
gridWalk()
{
    constexpr int kSide = 128, kLen = 12, kLive = 96, kRoutes = 150'000;
    std::vector<uint16_t> owner(kSide * kSide, 0);
    std::vector<std::pair<int, int>> live(kLive, {-1, 0}); // start, step
    uint64_t s = 0x9e3779b97f4a7c15ull, claimed = 0;
    for (int r = 0; r < kRoutes; ++r) {
        const int slot = static_cast<int>(next(s) % kLive);
        if (live[slot].first >= 0) { // Release the slot's route.
            for (int k = 0, c = live[slot].first; k < kLen;
                 ++k, c += live[slot].second)
                owner[c] = 0;
            live[slot].first = -1;
        }
        const uint64_t v = next(s);
        const bool horizontal = v & 1;
        const int x = static_cast<int>((v >> 1) % (kSide - kLen));
        const int y = static_cast<int>((v >> 20) % kSide);
        const int start = horizontal ? y * kSide + x : x * kSide + y;
        const int step = horizontal ? 1 : kSide;
        bool free = true;
        for (int k = 0, c = start; k < kLen && free; ++k, c += step)
            free = owner[c] == 0;
        if (!free)
            continue;
        for (int k = 0, c = start; k < kLen; ++k, c += step)
            owner[c] = static_cast<uint16_t>(slot + 1);
        live[slot] = {start, step};
        ++claimed;
    }
    return claimed;
}

/** Timestamped events through a binary heap, as the event queues
 *  of the schedulers run them. */
uint64_t
eventHeap()
{
    using Event = std::pair<uint64_t, uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
    uint64_t s = 0x2545f4914f6cdd1dull, sum = 0;
    for (uint32_t i = 0; i < 2048; ++i)
        q.push({next(s) % 4096, i});
    for (int i = 0; i < 45'000; ++i) {
        Event e = q.top();
        q.pop();
        sum += e.second;
        q.push({e.first + 1 + next(s) % 64, e.second});
    }
    return sum;
}

/** Insert, find and erase keys of a node-based hash map, as the
 *  caches and the dependence tracking do: the allocator too. */
uint64_t
hashMap()
{
    std::unordered_map<uint64_t, uint32_t> m;
    uint64_t s = 0x853c49e6748fea9bull, hits = 0;
    for (int i = 0; i < 110'000; ++i) {
        const uint64_t k = next(s) % 8192;
        auto it = m.find(k);
        if (it == m.end())
            m.emplace(k, static_cast<uint32_t>(i));
        else if (it->second & 1)
            m.erase(it);
        else
            hits += ++it->second;
    }
    return hits + m.size();
}

/** Dependent loads at random over 4 MB, past the private caches.
 *  The table is mapped for the pass and unmapped after it, so it
 *  never stays in the process's resident set. */
uint64_t
memoryChase()
{
    constexpr size_t kWords = size_t{1} << 20;
    void *mem = mmap(nullptr, kWords * sizeof(uint32_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    qsurf::fatalIf(mem == MAP_FAILED, "qbench: host-speed table: mmap");
    auto *a = static_cast<uint32_t *>(mem);
    for (size_t i = 0; i < kWords; ++i)
        a[i] = static_cast<uint32_t>(i * 2654435761u);
    uint32_t j = 1;
    uint64_t sum = 0;
    for (uint32_t i = 0; i < 75'000; ++i) {
        j = a[(j * 1103515245u + i) & (kWords - 1)] ^ j;
        sum += j;
    }
    munmap(mem, kWords * sizeof(uint32_t));
    return sum;
}

} // namespace

unsigned long long
referenceKernel(int memory_passes)
{
    unsigned long long sum =
        aluChain() + branchy() + gridWalk() + eventHeap() + hashMap();
    for (int i = 0; i < memory_passes; ++i)
        sum += memoryChase();
    return sum;
}

void
HostSpeed::sample()
{
    Clock::time_point t0 = Clock::now();
    volatile unsigned long long sink = referenceKernel(memory_passes_);
    (void)sink;
    ms_.push_back(msSince(t0));
    last_ = Clock::now();
}

void
HostSpeed::sampleEvery(double every_s)
{
    if (ms_.empty() || msSince(last_) >= every_s * 1e3)
        sample();
}

double
HostSpeed::nominalMs() const
{
    // Quiet-host times: 19.5 ms for the five cache-resident parts,
    // 5.5 ms per memory pass (its 4 MB table is mapped, filled and
    // unmapped each time).
    return 19.5 + 5.5 * memory_passes_;
}

double
HostSpeed::scale() const
{
    return ms_.empty() ? 1.0 : nominalMs() / median(ms_);
}

} // namespace qbench
