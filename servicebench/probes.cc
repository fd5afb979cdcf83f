#include "probes.hh"

#include <algorithm>
#include <vector>

#include "common.hh"
#include "core/drange.hh"
#include "dram/device.hh"

namespace servicebench {

namespace core = drange::core;
namespace ctrl = drange::ctrl;
namespace dram = drange::dram;

namespace {

/** The "drange" registry source's device for @p member's Params. */
dram::DeviceConfig
deviceConfig(const trng::Params &member)
{
    auto config = dram::DeviceConfig::make(
        dram::Manufacturer::A,
        static_cast<std::uint64_t>(member.getInt("seed", 1)),
        static_cast<std::uint64_t>(member.getInt("noise_seed", 0)));
    config.geometry.rows_per_bank =
        static_cast<int>(member.getInt("rows_per_bank", 0));
    return config;
}

/** The "drange" registry source's engine config for @p member. */
core::DRangeConfig
engineConfig(const trng::Params &member)
{
    core::DRangeConfig config;
    config.banks = static_cast<int>(member.getInt("banks", config.banks));
    config.identify.trcd_ns = config.reduced_trcd_ns;
    config.profile_rows = static_cast<int>(
        member.getInt("profile_rows", config.profile_rows));
    config.profile_words = static_cast<int>(
        member.getInt("profile_words", config.profile_words));
    config.identify.screen_iterations = static_cast<int>(member.getInt(
        "screen_iterations", config.identify.screen_iterations));
    config.identify.samples = static_cast<int>(
        member.getInt("samples", config.identify.samples));
    return config;
}

/** Host time of one generate(@p bits) call as the drange source makes
 * it (trace cleared first), in microseconds. */
double
callUs(core::DRangeTrng &engine, std::size_t bits)
{
    engine.scheduler().clearTrace();
    const auto t0 = Clock::now();
    engine.generate(bits);
    return secondsBetween(t0, Clock::now()) * 1e6;
}

/** Host ns per bit of repeated generate(@p bits) calls. */
double
generateNsPerBit(core::DRangeTrng &engine, std::size_t bits,
                 double budget_s)
{
    double busy_s = 0;
    std::uint64_t calls = 0, total = 0;
    const auto begin = Clock::now();
    while (calls < 3 || secondsBetween(begin, Clock::now()) < budget_s) {
        engine.scheduler().clearTrace();
        const auto t0 = Clock::now();
        total += engine.generate(bits).size();
        busy_s += secondsBetween(t0, Clock::now());
        ++calls;
    }
    return busy_s * 1e9 / static_cast<double>(total);
}

constexpr std::size_t kCountBits = 1u << 19;
constexpr double kTimingBudgetS = 0.5;
constexpr std::size_t kSmallBits = 4096, kLargeBits = 65536;

} // namespace

HarvestProbe
probeHarvest(const trng::Params &member, std::size_t chunk_bits)
{
    dram::DramDevice device(deviceConfig(member));
    core::DRangeTrng engine(device, engineConfig(member));
    engine.initialize();
    ctrl::CommandScheduler &sched = engine.scheduler();
    HarvestProbe probe;

    // Exact counts over a fixed harvest.
    sched.clearTrace();
    const std::uint64_t refs_before = sched.refsIssued();
    const double counted = static_cast<double>(
        engine.generate(kCountBits).size());
    probe.refs_per_mbit =
        static_cast<double>(sched.refsIssued() - refs_before) /
        (counted / 1e6);
    probe.trace_records_per_bit =
        static_cast<double>(sched.trace().size()) / counted;

    // generate(): at the member chunk size, and the per-call intercept
    // between 4096- and 65536-bit chunks.
    probe.generate_ns_per_bit = generateNsPerBit(
        engine, std::max<std::size_t>(chunk_bits, 1), kTimingBudgetS);
    // The two sizes alternate and each takes its median, so a drift in
    // host speed moves both alike instead of tilting the line.
    std::vector<double> small_us, large_us;
    const auto pairs_begin = Clock::now();
    while (small_us.size() < 5 ||
           secondsBetween(pairs_begin, Clock::now()) < 2 * kTimingBudgetS) {
        small_us.push_back(callUs(engine, kSmallBits));
        large_us.push_back(callUs(engine, kLargeBits));
    }
    const double slope = (median(large_us) - median(small_us)) /
                         static_cast<double>(kLargeBits - kSmallBits);
    probe.generate_fixed_us_per_call =
        median(small_us) - slope * static_cast<double>(kSmallBits);

    // Bare sampling rounds, as generate()'s producer runs them.
    engine.enterSamplingMode();
    util::BitStream out;
    double round_s = 0;
    std::uint64_t round_bits = 0;
    const std::uint64_t refs_rounds = sched.refsIssued();
    const auto begin = Clock::now();
    while (secondsBetween(begin, Clock::now()) < kTimingBudgetS) {
        const auto t0 = Clock::now();
        for (int i = 0; i < 64; ++i)
            round_bits += static_cast<std::uint64_t>(engine.runRound(out));
        round_s += secondsBetween(t0, Clock::now());
        out.clear();
        sched.clearTrace();
    }
    const double round_refs =
        static_cast<double>(sched.refsIssued() - refs_rounds);
    engine.exitSamplingMode();
    probe.round_ns_per_bit =
        round_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                            round_bits, 1));

    // REF on the post-harvest device, called directly.
    double now_ns = sched.now() + 1e6;
    device.prechargeAll(now_ns);
    double refresh_s = 0;
    std::uint64_t refreshes = 0;
    const auto refresh_begin = Clock::now();
    while (refreshes < 16 ||
           secondsBetween(refresh_begin, Clock::now()) < 0.3) {
        now_ns += 1e4;
        const auto t0 = Clock::now();
        device.refreshAll(now_ns);
        refresh_s += secondsBetween(t0, Clock::now());
        ++refreshes;
    }
    probe.refresh_us_per_call =
        refresh_s * 1e6 / static_cast<double>(refreshes);
    probe.refresh_share =
        probe.refresh_us_per_call * round_refs / (round_s * 1e6);
    return probe;
}

} // namespace servicebench
