/**
 * @file
 * Tests for the streaming TRNG pipeline: bit-identity of the streaming
 * drain with the batch generate() path (both harvest modes), the
 * conditioning stages, online validation, and the continuous mode.
 */

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/multichannel.hh"
#include "core/streaming.hh"

namespace {

using namespace drange;
using namespace drange::core;

dram::DeviceConfig
baseConfig(std::uint64_t seed = 7, std::uint64_t noise = 91)
{
    auto cfg = dram::DeviceConfig::make(dram::Manufacturer::A, seed,
                                        noise);
    cfg.geometry.rows_per_bank = 4096;
    return cfg;
}

DRangeConfig
quickConfig()
{
    DRangeConfig cfg;
    cfg.banks = 2;
    cfg.profile_rows = 192;
    cfg.profile_words = 16;
    cfg.identify.screen_iterations = 40;
    cfg.identify.samples = 400;
    cfg.identify.symbol_tolerance = 0.15;
    return cfg;
}

/** Fresh initialized multi-channel TRNG (same die for the same seed). */
MultiChannelTrng
makeTrng(int channels, HarvestMode mode, std::uint64_t seed = 19)
{
    MultiChannelTrng trng(baseConfig(seed), channels, quickConfig(),
                          mode);
    trng.initialize();
    return trng;
}

TEST(Streaming, SerialParallelAndStreamingDrainBitIdentical)
{
    // Regression for the tentpole invariant: the serial baseline, the
    // thread-parallel harvester, and a raw StreamingTrng drain must
    // emit the same bits for bit counts that divide neither the
    // channel count, the per-round harvest, nor the chunk size.
    for (const std::size_t num_bits : {std::size_t{4097},
                                       std::size_t{10001}}) {
        auto serial_trng = makeTrng(3, HarvestMode::Serial);
        const auto serial_bits = serial_trng.generate(num_bits);

        auto parallel_trng = makeTrng(3, HarvestMode::Parallel);
        const auto parallel_bits = parallel_trng.generate(num_bits);

        auto stream_trng = makeTrng(3, HarvestMode::Parallel);
        StreamingConfig cfg;
        cfg.chunk_bits = 1001; // Deliberately awkward chunking.
        StreamingTrng stream(stream_trng, cfg);
        auto stream_bits = stream.generate(num_bits);
        ASSERT_GE(stream_bits.size(), num_bits);
        stream_bits.truncate(num_bits);

        ASSERT_EQ(serial_bits.size(), num_bits);
        ASSERT_EQ(parallel_bits.size(), num_bits);
        EXPECT_EQ(serial_bits.toString(), parallel_bits.toString());
        EXPECT_EQ(serial_bits.toString(), stream_bits.toString());
    }
}

TEST(Streaming, ChunkSizeDoesNotChangeTheStream)
{
    auto reference_trng = makeTrng(2, HarvestMode::Serial, 23);
    const auto reference = reference_trng.generate(6000);

    for (const std::size_t chunk_bits : {std::size_t{1},
                                         std::size_t{512},
                                         std::size_t{100000}}) {
        auto trng = makeTrng(2, HarvestMode::Parallel, 23);
        StreamingConfig cfg;
        cfg.chunk_bits = chunk_bits;
        cfg.queue_capacity = 2;
        StreamingTrng stream(trng, cfg);
        auto bits = stream.generate(6000);
        ASSERT_GE(bits.size(), 6000u) << chunk_bits;
        bits.truncate(6000);
        EXPECT_EQ(bits.toString(), reference.toString())
            << "chunk_bits = " << chunk_bits;
    }

    // Chunk size is adjustable mid-session (adaptive sizing); for a
    // raw bounded session the stream must not change.
    auto trng = makeTrng(2, HarvestMode::Parallel, 23);
    StreamingConfig cfg;
    cfg.chunk_bits = 512;
    StreamingTrng stream(trng, cfg);
    EXPECT_EQ(stream.chunkBits(), 512u);
    stream.start(6000);
    util::BitStream bits;
    while (auto chunk = stream.nextChunk()) {
        if (bits.empty()) {
            stream.setChunkBits(2048);
            EXPECT_EQ(stream.chunkBits(), 2048u);
        }
        bits.append(*chunk);
    }
    EXPECT_LE(stream.queueDepth(), stream.queueCapacity());
    stream.stop();
    ASSERT_GE(bits.size(), 6000u);
    bits.truncate(6000);
    EXPECT_EQ(bits.toString(), reference.toString());
}

TEST(Streaming, DRangeGenerateIsAStreamingDrain)
{
    // The single-engine batch API drains the same pipeline: output is
    // round-aligned, at least the requested size, and stats stay
    // coherent.
    auto trng = makeTrng(1, HarvestMode::Serial, 29);
    DRangeTrng &engine = trng.channel(0);
    const int per_round = engine.bitsPerRound();
    ASSERT_GT(per_round, 0);

    const auto bits = engine.generate(1000);
    EXPECT_GE(bits.size(), 1000u);
    EXPECT_EQ(bits.size() % static_cast<std::size_t>(per_round), 0u);
    const auto &stats = engine.lastStats();
    EXPECT_EQ(stats.bits, bits.size());
    EXPECT_EQ(stats.rounds,
              bits.size() / static_cast<std::size_t>(per_round));
    EXPECT_GT(stats.reads, 0u);
    EXPECT_GT(stats.durationNs(), 0.0);
    EXPECT_GT(stats.throughputMbps(), 0.0);
}

TEST(Streaming, VonNeumannMatchesWholeStreamCorrection)
{
    // The streaming corrector carries the half-pair across chunk
    // boundaries, so any chunking must equal the batch correction of
    // the raw stream (odd chunk sizes included).
    auto trng = makeTrng(2, HarvestMode::Parallel, 31);
    StreamingConfig cfg;
    cfg.chunk_bits = 333;
    cfg.conditioning = {"vonneumann"};
    StreamingTrng stream(trng, cfg);
    const auto corrected = stream.generate(8000);

    // The raw session is round-aligned (>= 8000 bits), so compare
    // against the identical untruncated stream of a twin device.
    auto raw_full_trng = makeTrng(2, HarvestMode::Serial, 31);
    StreamingTrng raw_stream(raw_full_trng);
    const auto raw_full = raw_stream.generate(8000);
    ASSERT_GE(raw_full.size(), 8000u);

    const auto reference = vonNeumannCorrect(raw_full);
    EXPECT_EQ(corrected.toString(), reference.toString());
    EXPECT_EQ(stream.stats().raw_bits, raw_full.size());
    EXPECT_EQ(stream.stats().out_bits, reference.size());
}

TEST(Streaming, Sha256ConditioningIsDeterministicPerChunk)
{
    StreamingConfig cfg;
    cfg.chunk_bits = 2048;
    cfg.conditioning = {"sha256"};

    auto trng_a = makeTrng(2, HarvestMode::Parallel, 37);
    StreamingTrng stream_a(trng_a, cfg);
    const auto a = stream_a.generate(10000);

    auto trng_b = makeTrng(2, HarvestMode::Parallel, 37);
    StreamingTrng stream_b(trng_b, cfg);
    const auto b = stream_b.generate(10000);

    // One 256-bit digest per non-empty raw chunk, identical across
    // identical sessions.
    ASSERT_GT(a.size(), 0u);
    EXPECT_EQ(a.size() % 256, 0u);
    EXPECT_EQ(a.toString(), b.toString());
    EXPECT_EQ(a.size(), stream_a.stats().chunks * 256);
    EXPECT_LT(a.size(), stream_a.stats().raw_bits); // Compressing.
}

TEST(Streaming, OnlineValidationRunsPerChunk)
{
    // Every chunk goes through the parallel NIST suite. At a
    // vanishingly strict alpha no sound test rejects true random
    // chunks (the suite's chi-squared tails are inflated at this chunk
    // size, hence not the paper's 1e-4 -- see StreamingConfig docs)...
    {
        auto trng = makeTrng(2, HarvestMode::Parallel, 41);
        StreamingConfig cfg;
        cfg.chunk_bits = 4096;
        cfg.validate_threads = 2;
        cfg.validate_alpha = 1e-12;
        StreamingTrng stream(trng, cfg);
        const auto bits = stream.generate(16384);
        EXPECT_GE(bits.size(), 16384u);
        const auto &stats = stream.stats();
        EXPECT_EQ(stats.validated_chunks, stats.chunks);
        EXPECT_GT(stats.validated_chunks, 0u);
        EXPECT_EQ(stats.failed_chunks, 0u);
    }
    // ...while an absurdly high alpha deterministically rejects every
    // chunk, proving failures are detected and counted.
    {
        auto trng = makeTrng(2, HarvestMode::Parallel, 41);
        StreamingConfig cfg;
        cfg.chunk_bits = 4096;
        cfg.validate_threads = 2;
        cfg.validate_alpha = 0.999;
        StreamingTrng stream(trng, cfg);
        stream.generate(16384);
        const auto &stats = stream.stats();
        EXPECT_EQ(stats.failed_chunks, stats.validated_chunks);
        EXPECT_GT(stats.failed_chunks, 0u);
    }
}

TEST(Streaming, ContinuousSessionStops)
{
    auto trng = makeTrng(2, HarvestMode::Parallel, 43);
    StreamingConfig cfg;
    cfg.chunk_bits = 1024;
    cfg.queue_capacity = 4;
    StreamingTrng stream(trng, cfg);
    stream.startContinuous();

    std::size_t collected = 0;
    while (collected < 8192) {
        auto chunk = stream.nextChunk();
        ASSERT_TRUE(chunk.has_value());
        collected += chunk->size();
    }
    stream.stop();
    EXPECT_FALSE(stream.running());
    EXPECT_GE(stream.stats().raw_bits, 8192u);
    EXPECT_GT(stream.stats().host_ms, 0.0);

    // A stopped session yields no further chunks...
    EXPECT_FALSE(stream.nextChunk().has_value());

    // ...and the object is reusable for a fresh bounded session.
    const auto bits = stream.generate(2048);
    EXPECT_GE(bits.size(), 2048u);
}

/** Counts the commands a scheduler hands its plugins. */
class CommandCounter final : public ctrl::SchedulerPlugin
{
  public:
    std::string name() const override { return "command_counter"; }
    void onCommandIssued(const ctrl::TimedCommand &) override
    {
        ++commands;
    }

    std::uint64_t commands = 0;
};

TEST(Streaming, BoundedSessionAfterAContinuousOneTracesUnbounded)
{
    // A continuous session records no command trace, because nothing
    // reads it, yet every command is still counted and reaches the
    // plugins. A bounded session on the same engine afterwards must
    // record its whole trace again, because the energy model reads it.
    auto trng = makeTrng(1, HarvestMode::Parallel, 59);
    DRangeTrng &engine = trng.channel(0);
    ctrl::CommandScheduler &sched = engine.scheduler();
    const auto &counter = static_cast<const CommandCounter &>(
        sched.attach(std::make_unique<CommandCounter>()));
    const std::uint64_t logged_before = sched.trace().totalLogged();
    const std::uint64_t refs_before = sched.refsIssued();

    StreamingConfig cfg;
    cfg.chunk_bits = 1024;
    StreamingTrng stream(engine, cfg);
    stream.startContinuous();
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(stream.nextChunk().has_value());
    stream.stop();
    const std::uint64_t logged =
        sched.trace().totalLogged() - logged_before;
    EXPECT_EQ(sched.trace().size(), 0u);
    EXPECT_GT(logged, 0u);
    EXPECT_GT(sched.refsIssued(), refs_before);
    EXPECT_EQ(counter.commands, logged);

    const std::uint64_t logged_continuous = sched.trace().totalLogged();
    stream.generate(4096);
    EXPECT_GT(sched.trace().size(), 0u);
    EXPECT_EQ(sched.trace().size(),
              sched.trace().totalLogged() - logged_continuous);
    EXPECT_EQ(sched.trace().dropped(), 0u);
    EXPECT_EQ(counter.commands,
              sched.trace().totalLogged() - logged_before);
}

TEST(Streaming, RejectsUninitializedEngines)
{
    MultiChannelTrng trng(baseConfig(47), 2, quickConfig());
    EXPECT_THROW(StreamingTrng(trng, StreamingConfig{}),
                 std::logic_error);
}

TEST(Streaming, PlanRoundsCoversRequestWithoutWaste)
{
    auto trng = makeTrng(2, HarvestMode::Parallel, 53);
    StreamingTrng stream(trng);
    const int per_round = trng.channel(0).bitsPerRound() +
                          trng.channel(1).bitsPerRound();
    const auto rounds = stream.planRounds(
        static_cast<std::size_t>(3 * per_round + 1));
    ASSERT_EQ(rounds.size(), 2u);
    // Budgets are balanced round-robin and overshoot < one round.
    EXPECT_LE(std::abs(rounds[0] - rounds[1]), 1);
    long long planned = 0;
    planned += static_cast<long long>(rounds[0]) *
               trng.channel(0).bitsPerRound();
    planned += static_cast<long long>(rounds[1]) *
               trng.channel(1).bitsPerRound();
    EXPECT_GE(planned, 3LL * per_round + 1);
    EXPECT_LT(planned - (3LL * per_round + 1),
              std::max(trng.channel(0).bitsPerRound(),
                       trng.channel(1).bitsPerRound()));
}

} // namespace
