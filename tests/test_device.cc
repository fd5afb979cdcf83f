/**
 * @file
 * Unit tests for the DramDevice command state machine, failure
 * injection, retention decay and startup behaviour.
 */

#include <bit>

#include <gtest/gtest.h>

#include "dram/device.hh"

namespace {

using namespace drange::dram;

DeviceConfig
smallConfig(Manufacturer m = Manufacturer::A, std::uint64_t seed = 7,
            std::uint64_t noise = 11)
{
    auto cfg = DeviceConfig::make(m, seed, noise);
    cfg.geometry.rows_per_bank = 2048;
    return cfg;
}

TEST(Device, WriteThenReadAtFullTimingIsExact)
{
    DramDevice dev(smallConfig());
    double t = 0;
    dev.activate(t, 0, 10);
    t += 18;
    dev.write(t, 0, 3, 0xdeadbeefcafebabeULL);
    t += 30;
    dev.precharge(t, 0);
    t += 18;
    dev.activate(t, 0, 10);
    t += 18; // Full tRCD.
    EXPECT_EQ(dev.read(t, 0, 3), 0xdeadbeefcafebabeULL);
}

TEST(Device, OpenRowBookkeeping)
{
    DramDevice dev(smallConfig());
    EXPECT_FALSE(dev.isOpen(0));
    dev.activate(0, 0, 42);
    EXPECT_TRUE(dev.isOpen(0));
    EXPECT_EQ(dev.openRow(0), 42);
    EXPECT_FALSE(dev.isOpen(1));
    dev.precharge(10, 0);
    EXPECT_FALSE(dev.isOpen(0));
}

TEST(Device, PokePeekRoundTrip)
{
    DramDevice dev(smallConfig());
    dev.pokeWord(2, 100, 7, 0x123456789abcdef0ULL);
    EXPECT_EQ(dev.peekWord(2, 100, 7), 0x123456789abcdef0ULL);
    dev.pokeBit(2, 100, 7 * 64 + 3, true);
    EXPECT_TRUE(dev.peekBit(2, 100, 7 * 64 + 3));
    dev.pokeBit(2, 100, 7 * 64 + 3, false);
    EXPECT_FALSE(dev.peekBit(2, 100, 7 * 64 + 3));
}

TEST(Device, ReducedTrcdCausesFailuresSomewhere)
{
    DramDevice dev(smallConfig());
    // Write zeros everywhere in a stripe, then read with tRCD = 9 ns.
    for (int row = 0; row < 512; ++row)
        for (int w = 0; w < 8; ++w)
            dev.pokeWord(0, row, w, 0);

    // Only the first read after an activation can fail (Section 5.1),
    // so visit one word per activation.
    double t = 1000;
    std::uint64_t failures = 0;
    for (int row = 0; row < 512; ++row) {
        for (int w = 0; w < 8; ++w) {
            dev.activate(t, 0, row);
            failures += std::popcount(dev.read(t + 9.0, 0, w) ^ 0ULL);
            dev.precharge(t + 51.0, 0);
            t += 100.0;
        }
    }
    EXPECT_GT(failures, 0u);
    EXPECT_EQ(dev.counters().read_bit_failures, failures);
}

TEST(Device, FullTimingReadsNeverFail)
{
    DramDevice dev(smallConfig());
    for (int row = 0; row < 256; ++row)
        for (int w = 0; w < 8; ++w)
            dev.pokeWord(0, row, w, 0xa5a5a5a5a5a5a5a5ULL);

    double t = 1000;
    for (int row = 0; row < 256; ++row) {
        dev.activate(t, 0, row);
        for (int w = 0; w < 8; ++w)
            EXPECT_EQ(dev.read(t + 18.0, 0, w), 0xa5a5a5a5a5a5a5a5ULL);
        dev.precharge(t + 60.0, 0);
        t += 100.0;
    }
    EXPECT_EQ(dev.counters().read_bit_failures, 0u);
}

TEST(Device, OnlyFirstReadAfterActivationFails)
{
    // Section 5.1: subsequent reads of an open row return stored data.
    DramDevice dev(smallConfig());
    for (int w = 0; w < 8; ++w)
        dev.pokeWord(0, 5, w, 0);

    for (int trial = 0; trial < 200; ++trial) {
        const double t = 1000.0 + trial * 200.0;
        dev.activate(t, 0, 5);
        (void)dev.read(t + 9.0, 0, trial % 8); // First read may fail.
        const auto before = dev.counters().read_bit_failures;
        // Second read of the same open row: never fails.
        (void)dev.read(t + 14.0, 0, (trial + 1) % 8);
        EXPECT_EQ(dev.counters().read_bit_failures, before);
        dev.precharge(t + 60.0, 0);
        // Repair the possibly corrupted word.
        dev.pokeWord(0, 5, trial % 8, 0);
    }
}

TEST(Device, CorruptionRequiresRestoreWrite)
{
    // Deep failures corrupt the array: after enough reduced reads of an
    // always-failing cell without restore, the stored value flips.
    DramDevice dev(smallConfig());
    for (int w = 0; w < 32; ++w)
        for (int row = 0; row < 64; ++row)
            dev.pokeWord(0, row, w, 0);

    double t = 1000;
    for (int round = 0; round < 10; ++round) {
        for (int row = 0; row < 64; ++row) {
            for (int w = 0; w < 32; ++w) {
                dev.activate(t, 0, row);
                (void)dev.read(t + 8.0, 0, w);
                dev.precharge(t + 60.0, 0);
                t += 100.0;
            }
        }
    }
    EXPECT_GT(dev.counters().corrupted_bits, 0u);
}

TEST(Device, NoiseSeedReproducesFailurePattern)
{
    auto run = [](std::uint64_t noise_seed) {
        DramDevice dev(smallConfig(Manufacturer::A, 7, noise_seed));
        for (int row = 0; row < 256; ++row)
            for (int w = 0; w < 24; ++w)
                dev.pokeWord(0, row, w, 0);
        std::vector<std::uint64_t> reads;
        double t = 1000;
        for (int row = 0; row < 256; ++row) {
            for (int w = 0; w < 24; ++w) {
                dev.activate(t, 0, row);
                reads.push_back(dev.read(t + 9.5, 0, w));
                dev.precharge(t + 60.0, 0);
                t += 100.0;
            }
        }
        return reads;
    };
    EXPECT_EQ(run(1234), run(1234));
    EXPECT_NE(run(1234), run(5678));
}

TEST(Device, RetentionDecayWhenRefreshDisabled)
{
    auto cfg = smallConfig();
    cfg.conditions.temperature_c = 70.0; // Accelerate leakage.
    DramDevice dev(cfg);
    dev.setAutoRefresh(false);

    // Store the charged value everywhere (true rows: 1, anti rows: 0).
    for (int row = 0; row < 256; ++row) {
        const bool charged = CellModel::isTrueCell({0, row, 0});
        for (int w = 0; w < 16; ++w)
            dev.pokeWord(0, row, w, charged ? ~0ULL : 0ULL);
    }

    // Wait 200 simulated seconds, then activate each row.
    const double wait_ns = 200e9;
    std::uint64_t flipped = 0;
    for (int row = 0; row < 256; ++row) {
        const bool charged = CellModel::isTrueCell({0, row, 0});
        const std::uint64_t expected = charged ? ~0ULL : 0ULL;
        dev.activate(wait_ns + row * 100.0, 0, row);
        for (int w = 0; w < 16; ++w)
            flipped += std::popcount(
                dev.read(wait_ns + row * 100.0 + 18.0, 0, w) ^ expected);
        dev.precharge(wait_ns + row * 100.0 + 60.0, 0);
    }
    EXPECT_GT(flipped, 0u);
    // The decay scan covers whole rows while the test reads a word
    // window, so the counter is at least the flips we observed.
    EXPECT_GE(dev.counters().retention_failures, flipped);
}

TEST(Device, NoRetentionDecayWithAutoRefresh)
{
    DramDevice dev(smallConfig());
    for (int w = 0; w < 16; ++w)
        dev.pokeWord(0, 0, w, ~0ULL);
    dev.activate(400e9, 0, 0); // 400 s later, but auto-refresh is on.
    for (int w = 0; w < 16; ++w)
        EXPECT_EQ(dev.read(400e9 + 18.0, 0, w), ~0ULL);
    EXPECT_EQ(dev.counters().retention_failures, 0u);
}

TEST(Device, RefreshShortcutMatchesTheRowWalk)
{
    // Under auto-refresh a REF only stamps the device-wide refresh
    // time; without it, the REF walks every materialized row. Twin
    // devices take one path each through the same commands, with gaps
    // under the 10 ms decay floor so the walk only stamps. Then both
    // decay with auto-refresh off and must end up identical.
    auto cfg = smallConfig();
    cfg.conditions.temperature_c = 70.0; // Accelerate leakage.
    DramDevice shortcut(cfg);
    DramDevice walk(cfg);
    walk.setAutoRefresh(false);

    constexpr int kRows = 32;
    constexpr int kRefs = 800;
    constexpr double kRefGapNs = 5e6;
    const int words = cfg.geometry.words_per_row;
    for (DramDevice *dev : {&shortcut, &walk}) {
        for (int row = 0; row < kRows; ++row) {
            const bool charged = CellModel::isTrueCell({0, row, 0});
            for (int w = 0; w < words; ++w)
                dev->pokeWord(0, row, w, charged ? ~0ULL : 0ULL);
        }
        // Each row is activated once early on, then REFs alone run
        // for 4 simulated seconds: the rows' own stamps fall far
        // behind the last REF.
        for (int i = 1; i <= kRefs; ++i) {
            const double t = i * kRefGapNs;
            if (i <= kRows) {
                dev->activate(t, 0, i - 1);
                dev->precharge(t + 60.0, 0);
            }
            dev->refreshAll(t + 100.0);
        }
    }

    shortcut.setAutoRefresh(false);
    const double decay_ns = kRefs * kRefGapNs + 60e9;
    for (int row = 0; row < kRows; ++row) {
        const double t = decay_ns + row * 100.0;
        shortcut.activate(t, 0, row);
        walk.activate(t, 0, row);
        for (int w = 0; w < words; ++w)
            ASSERT_EQ(shortcut.peekWord(0, row, w), walk.peekWord(0, row, w))
                << "row " << row << " word " << w;
        shortcut.precharge(t + 60.0, 0);
        walk.precharge(t + 60.0, 0);
    }
    EXPECT_GT(walk.counters().retention_failures, 0u);
    EXPECT_EQ(shortcut.counters().retention_failures,
              walk.counters().retention_failures);
    EXPECT_EQ(shortcut.counters().refreshes, walk.counters().refreshes);
}

TEST(Device, PowerCycleRestoresStartupValues)
{
    DramDevice dev(smallConfig());
    const std::uint64_t startup = dev.peekWord(0, 50, 3);
    dev.pokeWord(0, 50, 3, ~startup);
    dev.powerCycle(1e9);
    // After a power cycle, mostly-stable startup values return; noisy
    // cells (5%) may differ.
    const std::uint64_t after = dev.peekWord(0, 50, 3);
    EXPECT_LE(std::popcount(after ^ startup), 20);
    EXPECT_NE(after, ~startup);
}

TEST(Device, StartupNoisyCellsFlipAcrossPowerCycles)
{
    DramDevice dev(smallConfig());
    std::uint64_t diff = 0;
    std::uint64_t prev[32];
    for (int w = 0; w < 32; ++w)
        prev[w] = dev.peekWord(0, 7, w);
    for (int cycle = 0; cycle < 8; ++cycle) {
        dev.powerCycle(cycle * 1e9);
        for (int w = 0; w < 32; ++w) {
            const std::uint64_t v = dev.peekWord(0, 7, w);
            diff += std::popcount(v ^ prev[w]);
            prev[w] = v;
        }
    }
    EXPECT_GT(diff, 0u);
}

TEST(Device, CountersTrackCommands)
{
    DramDevice dev(smallConfig());
    dev.activate(0, 0, 1);
    dev.write(18, 0, 0, 5);
    dev.precharge(60, 0);
    dev.refreshAll(100);
    EXPECT_EQ(dev.counters().activates, 1u);
    EXPECT_EQ(dev.counters().writes, 1u);
    EXPECT_EQ(dev.counters().precharges, 1u);
    EXPECT_EQ(dev.counters().refreshes, 1u);
}

TEST(Device, FailureProbabilityHelperConsistentWithSampling)
{
    DramDevice dev(smallConfig());
    // Find a cell with mid-range analytic Fprob, then sample it.
    for (int row = 0; row < 512; ++row) {
        for (int w = 0; w < 8; ++w)
            dev.pokeWord(0, row, w, 0);
    }
    int found_row = -1;
    long long found_col = -1;
    double analytic = 0;
    for (int row = 0; row < 512 && found_row < 0; ++row) {
        for (long long c = 0; c < 512; ++c) {
            const double p = dev.failureProbability(0, row, c, 10.0);
            if (p > 0.3 && p < 0.7) {
                found_row = row;
                found_col = c;
                analytic = p;
                break;
            }
        }
    }
    ASSERT_GE(found_row, 0) << "no mid-Fprob cell in the region";

    const int word = static_cast<int>(found_col / 64);
    int fails = 0;
    const int trials = 400;
    double t = 1e6;
    for (int i = 0; i < trials; ++i) {
        dev.activate(t, 0, found_row);
        const std::uint64_t v = dev.read(t + 10.0, 0, found_row >= 0
                                                          ? word
                                                          : 0);
        fails += (v >> (found_col % 64)) & 1;
        dev.precharge(t + 60.0, 0);
        dev.pokeWord(0, found_row, word, 0); // Restore.
        t += 100.0;
    }
    EXPECT_NEAR(static_cast<double>(fails) / trials, analytic, 0.12);
}

} // namespace
