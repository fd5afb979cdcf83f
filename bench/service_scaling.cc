/**
 * @file
 * Entropy-service scaling bench: aggregate host throughput of the
 * multi-client trng::Service against the single-consumer streaming
 * path it replaces.
 *
 * Baseline: four independent single-consumer continuous sessions, one
 * "drange" source each (its own harvest producer) drained on its own
 * thread -- the best the old API can do with four simulated channels.
 * Against it: one Service pooling the same four sources, serving 1, 4,
 * and 16 concurrent sessions.
 * The 16-session scenario also measures fairness: all sessions demand
 * continuously until a shared bit budget is spent, and the spread
 * (max/min bytes delivered across the equal-priority sessions) is
 * reported.
 *
 * The interesting metrics: service_16_sessions_mbps should hold >=
 * ~0.8x baseline_independent_mbps (broker overhead stays small even
 * oversubscribed 4:1), and fair_share_spread_16 should stay near 1.
 * Host wall-clock metrics depend on core count, so they are recorded
 * unenforced (see BenchReport); the JSON still tracks them over time.
 *
 * Emits BENCH_service_scaling.json (see bench_util.hh); --quick runs
 * a CI-sized bit budget.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "trng/registry.hh"
#include "trng/service.hh"

using namespace drange;

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - begin)
        .count();
}

double
mbps(double bits, double ms)
{
    return ms > 0.0 ? bits / (ms * 1e3) : 0.0; // bits/ms -> Mbit/s.
}

/** The four simulated channels every scenario draws from. */
trng::Params
channelParams(std::uint64_t seed)
{
    return trng::Params{}
        .set("manufacturer", "A")
        .set("seed", static_cast<std::int64_t>(seed))
        .set("rows_per_bank", 8192)
        .set("banks", 8)
        .set("profile_rows", 256)
        .set("profile_words", 24)
        .set("screen_iterations", 60)
        .set("samples", 600)
        .set("symbol_tolerance", 0.15)
        .set("chunk_bits", 4096);
}

constexpr int kPoolMembers = 4;

/** Aggregate Mbit/s of four independent single-consumer sessions. */
double
independentBaseline(std::size_t total_bits)
{
    std::vector<std::unique_ptr<trng::EntropySource>> sources;
    for (int i = 0; i < kPoolMembers; ++i)
        sources.push_back(trng::Registry::make(
            "drange", channelParams(53 + static_cast<unsigned>(i))));

    // Initialization (profiling + RNG-cell identification) is a
    // one-time cost in a long-running service, so it stays outside
    // the timed window: one warmup chunk per source.
    std::vector<std::thread> threads;
    for (auto &source : sources)
        threads.emplace_back([&source] {
            source->startContinuous();
            (void)source->nextChunk();
        });
    for (auto &thread : threads)
        thread.join();
    threads.clear();

    const std::size_t per_source = total_bits / kPoolMembers;
    const auto begin = Clock::now();
    for (auto &source : sources)
        threads.emplace_back([&source, per_source] {
            std::size_t got = 0;
            while (got < per_source) {
                auto chunk = source->nextChunk();
                if (!chunk)
                    break;
                got += chunk->size();
            }
        });
    for (auto &thread : threads)
        thread.join();
    const double ms = elapsedMs(begin, Clock::now());
    for (auto &source : sources)
        source->stop();
    return mbps(static_cast<double>(total_bits), ms);
}

trng::ServiceConfig
poolConfig()
{
    trng::ServiceConfig config;
    for (int i = 0; i < kPoolMembers; ++i)
        config.pool.push_back(trng::PoolMemberConfig{
            "drange", channelParams(53 + static_cast<unsigned>(i)),
            "ch" + std::to_string(i)});
    // Small reservoir so scenario boundaries cannot bank more than
    // ~3% of a run's bit budget as pre-harvested supply.
    config.reservoir_bits = 1u << 18;
    return config;
}

/** Wait until every pool member has contributed (initialized). */
void
warmup(trng::Service &service)
{
    trng::Session session = service.open();
    for (;;) {
        (void)session.read(1u << 14);
        const auto stats = service.stats();
        bool all = true;
        for (const auto &member : stats.members)
            all = all && member.bits > 0;
        if (all)
            break;
    }
}

/** Aggregate Mbit/s of @p num_sessions concurrent equal-priority
 * sessions splitting @p total_bits; also reports the max/min spread
 * of bytes delivered per session (demand stays continuous until the
 * shared budget is spent, so the spread measures DRR fairness). */
double
serviceScenario(trng::Service &service, int num_sessions,
                std::size_t total_bits, double *spread_out = nullptr)
{
    const std::size_t request_bits = 1u << 14;
    std::vector<trng::Session> sessions;
    for (int i = 0; i < num_sessions; ++i)
        sessions.push_back(service.open());

    std::atomic<std::uint64_t> delivered{0};
    std::vector<std::uint64_t> per_session(
        static_cast<std::size_t>(num_sessions), 0);

    const auto begin = Clock::now();
    std::vector<std::thread> threads;
    for (int i = 0; i < num_sessions; ++i) {
        threads.emplace_back([&, i] {
            while (delivered.load(std::memory_order_relaxed) <
                   total_bits) {
                const std::size_t got =
                    sessions[static_cast<std::size_t>(i)]
                        .read(request_bits)
                        .size();
                per_session[static_cast<std::size_t>(i)] += got;
                delivered.fetch_add(got, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    const double ms = elapsedMs(begin, Clock::now());

    if (spread_out != nullptr) {
        std::uint64_t lo = per_session[0], hi = per_session[0];
        for (const std::uint64_t bits : per_session) {
            lo = std::min(lo, bits);
            hi = std::max(hi, bits);
        }
        *spread_out =
            lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo)
                   : 0.0;
    }
    const std::uint64_t total = delivered.load();
    return mbps(static_cast<double>(total), ms);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const std::size_t total_bits = quick ? 1u << 20 : 1u << 23;

    bench::banner("Entropy service scaling",
                  "trng::Service broker overhead and fairness vs. "
                  "independent single-consumer streams (4 simulated "
                  "drange channels)");
    std::printf("bit budget per scenario: %zu (%s)\n\n", total_bits,
                quick ? "--quick" : "full");

    std::printf("[1/4] baseline: 4 independent single-consumer "
                "sessions...\n");
    const double baseline = independentBaseline(total_bits);
    std::printf("      %.2f Mb/s aggregate\n", baseline);

    std::printf("[2/4] service pool (4 members), 1 session...\n");
    trng::Service service(poolConfig());
    warmup(service);
    const double one = serviceScenario(service, 1, total_bits);
    std::printf("      %.2f Mb/s\n", one);

    std::printf("[3/4] service pool (4 members), 4 sessions...\n");
    const double four = serviceScenario(service, 4, total_bits);
    std::printf("      %.2f Mb/s aggregate\n", four);

    std::printf("[4/4] service pool (4 members), 16 sessions...\n");
    double spread = 0.0;
    const double sixteen =
        serviceScenario(service, 16, total_bits, &spread);
    std::printf("      %.2f Mb/s aggregate, per-session spread "
                "%.3fx\n",
                sixteen, spread);

    const auto stats = service.stats();
    std::printf("\nservice: %llu bits harvested, reservoir high "
                "watermark %llu/%llu, %llu producer waits, chunk "
                "adaptation %llu grows / %llu shrinks\n",
                static_cast<unsigned long long>(stats.harvested_bits),
                static_cast<unsigned long long>(
                    stats.reservoir_high_watermark),
                static_cast<unsigned long long>(
                    stats.reservoir_capacity),
                static_cast<unsigned long long>(stats.producer_waits),
                static_cast<unsigned long long>(stats.chunk_grows),
                static_cast<unsigned long long>(stats.chunk_shrinks));

    const double ratio = baseline > 0.0 ? sixteen / baseline : 0.0;
    std::printf("\n16-session service vs independent baseline: "
                "%.3fx (acceptance: >= 0.8x)\n",
                ratio);

    bench::BenchReport report("service_scaling", argc, argv);
    using Better = bench::BenchReport::Better;
    report.add("baseline_independent_mbps", baseline, "Mb/s",
               Better::Higher, /*host=*/true, /*enforced=*/false);
    report.add("service_1_session_mbps", one, "Mb/s", Better::Higher,
               /*host=*/true, /*enforced=*/false);
    report.add("service_4_sessions_mbps", four, "Mb/s",
               Better::Higher, /*host=*/true, /*enforced=*/false);
    report.add("service_16_sessions_mbps", sixteen, "Mb/s",
               Better::Higher, /*host=*/true, /*enforced=*/false);
    report.add("scaling_16_vs_independent", ratio, "x",
               Better::Higher);
    report.add("fair_share_spread_16", spread, "x", Better::Lower);
    report.write();
    return 0;
}
