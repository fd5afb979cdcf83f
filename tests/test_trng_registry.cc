/**
 * @file
 * Tests for the unified trng::EntropySource interface and its
 * registry: error paths (unknown source names, unknown/invalid Params
 * keys), the uniform SourceStats view, the streaming contract, and
 * the tentpole regression -- output through the registry path is
 * bit-identical to the legacy class APIs. Also the acceptance
 * criterion for the SP 800-90B stage: it passes on conditioned
 * D-RaNGe output while flagging an injected stuck-at stream.
 */

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/multichannel.hh"
#include "core/streaming.hh"
#include "trng/health.hh"
#include "trng/registry.hh"

namespace {

using namespace drange;
using trng::Params;
using trng::Registry;

/** Engine configuration shared by the legacy and registry paths. */
constexpr std::uint64_t kSeed = 19;
constexpr std::uint64_t kNoise = 91;

dram::DeviceConfig
legacyDeviceConfig(std::uint64_t seed = kSeed)
{
    auto cfg =
        dram::DeviceConfig::make(dram::Manufacturer::A, seed, kNoise);
    cfg.geometry.rows_per_bank = 4096;
    return cfg;
}

core::DRangeConfig
legacyTrngConfig()
{
    core::DRangeConfig cfg;
    cfg.banks = 2;
    cfg.profile_rows = 192;
    cfg.profile_words = 16;
    cfg.identify.screen_iterations = 40;
    cfg.identify.samples = 400;
    cfg.identify.symbol_tolerance = 0.15;
    return cfg;
}

/** The same configuration as flat registry Params. */
Params
registryParams(std::uint64_t seed = kSeed)
{
    return Params{}
        .set("seed", static_cast<std::int64_t>(seed))
        .set("noise_seed", static_cast<std::int64_t>(kNoise))
        .set("rows_per_bank", 4096)
        .set("banks", 2)
        .set("profile_rows", 192)
        .set("profile_words", 16)
        .set("screen_iterations", 40)
        .set("samples", 400)
        .set("symbol_tolerance", 0.15);
}

// ------------------------------------------------------------ params

TEST(TrngParams, TypedGettersParseAndDefault)
{
    const Params params{{"banks", "4"},
                        {"alpha", "0.25"},
                        {"serial", "true"},
                        {"conditioning", "sha256,health"}};
    EXPECT_EQ(params.getInt("banks", 1), 4);
    EXPECT_EQ(params.getInt("absent", 7), 7);
    EXPECT_DOUBLE_EQ(params.getDouble("alpha", 0.0), 0.25);
    EXPECT_TRUE(params.getBool("serial", false));
    const auto list = params.getList("conditioning");
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0], "sha256");
    EXPECT_EQ(list[1], "health");
    EXPECT_TRUE(params.getList("absent").empty());
}

TEST(TrngParams, MalformedValuesThrow)
{
    const Params params{{"banks", "four"},
                        {"alpha", "fast"},
                        {"serial", "yes"},
                        {"trailing", "12x"}};
    EXPECT_THROW(params.getInt("banks", 0), std::invalid_argument);
    EXPECT_THROW(params.getDouble("alpha", 0.0), std::invalid_argument);
    EXPECT_THROW(params.getBool("serial", false),
                 std::invalid_argument);
    EXPECT_THROW(params.getInt("trailing", 0), std::invalid_argument);
}

TEST(TrngParams, DoubleSetterRoundTripsSmallValues)
{
    // std::to_string-style fixed formatting would truncate the
    // SP 800-90B alpha (2^-20) to 0.000001 -- or 2e-8 to zero.
    const double alpha = 9.5367431640625e-07;
    Params params;
    params.set("health_alpha", alpha).set("tiny", 2e-8);
    EXPECT_DOUBLE_EQ(params.getDouble("health_alpha", 0.0), alpha);
    EXPECT_DOUBLE_EQ(params.getDouble("tiny", 0.0), 2e-8);
}

TEST(TrngParams, RejectUnknownNamesUnconsumedKeys)
{
    const Params params{{"banks", "4"}, {"bankz", "8"}};
    (void)params.getInt("banks", 0);
    try {
        params.rejectUnknown("test");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("bankz"), std::string::npos);
        EXPECT_EQ(message.find("\"banks\""), std::string::npos);
    }
}

// ---------------------------------------------------------- registry

/** The built-in sources (src/trng/sources.cc). */
constexpr const char *kBuiltins[] = {"drange", "opportunistic", "cmdsched",
                                     "retention", "startup"};

TEST(TrngRegistry, ListsAllFiveSources)
{
    for (const char *name : kBuiltins) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(Registry::contains(name));
        EXPECT_FALSE(Registry::description(name).empty());
    }
    EXPECT_GE(Registry::names().size(), 5u);
}

TEST(TrngRegistry, UnknownSourceNameThrowsListingRegistered)
{
    // "multichannel" and "streaming" were folded into "drange": a
    // stale config naming them fails here and points at "drange".
    for (const char *name : {"sram", "multichannel", "streaming"}) {
        SCOPED_TRACE(name);
        try {
            Registry::make(name);
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument &e) {
            const std::string message = e.what();
            EXPECT_NE(message.find(name), std::string::npos);
            EXPECT_NE(message.find("drange"), std::string::npos);
            EXPECT_NE(message.find("retention"), std::string::npos);
        }
    }
}

TEST(TrngRegistry, UnknownParamsKeyThrowsFromEveryFactory)
{
    for (const char *name : kBuiltins) {
        SCOPED_TRACE(name);
        EXPECT_THROW(Registry::make(name, Params{{"bankz", "8"}}),
                     std::invalid_argument);
    }
    // Keys of the removed "multichannel"/"streaming" sources are
    // unknown to "drange" and fail naming the key.
    for (const char *key : {"channels", "serial", "queue_capacity",
                            "validate_threads", "validate_alpha"}) {
        SCOPED_TRACE(key);
        try {
            Registry::make("drange", Params{{key, "1"}});
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(key),
                      std::string::npos);
        }
    }
}

TEST(TrngRegistry, InvalidParamValuesThrow)
{
    EXPECT_THROW(Registry::make("drange", Params{{"banks", "four"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        Registry::make("drange", Params{{"manufacturer", "Z"}}),
        std::invalid_argument);
    EXPECT_THROW(Registry::make("drange",
                                Params{{"conditioning", "sha512"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        Registry::make("drange",
                       Params{{"conditioning", "health"},
                              {"health_min_entropy", "2.0"}}),
        std::invalid_argument);
    // Out-of-domain integers fail loudly instead of wrapping into
    // huge unsigned values (chunk_bits = -1 used to hang a session).
    EXPECT_THROW(
        Registry::make("drange", Params{{"chunk_bits", "-1"}}),
        std::invalid_argument);
    EXPECT_THROW(Registry::make("drange", Params{{"banks", "-2"}}),
                 std::invalid_argument);
    EXPECT_THROW(Registry::make("retention", Params{{"rows", "0"}}),
                 std::invalid_argument);
}

// ------------------------------------------------------ bit identity

TEST(TrngRegistry, DRangeGenerateIsBitIdenticalThroughTheInterface)
{
    // The tentpole invariant: the adapter wraps, never re-plumbs.
    dram::DramDevice device(legacyDeviceConfig());
    core::DRangeTrng legacy(device, legacyTrngConfig());
    legacy.initialize();
    const auto expected = legacy.generate(4097);

    auto source = Registry::make("drange", registryParams());
    const auto actual = source->generate(4097);
    EXPECT_EQ(actual.toString(), expected.toString());

    const auto stats = source->stats();
    EXPECT_EQ(stats.bits, actual.size());
    EXPECT_GT(stats.sim_ns, 0.0);
    EXPECT_GT(stats.throughputMbps(), 0.0);
    EXPECT_GT(stats.latency64_ns, 0.0);
    EXPECT_GT(stats.shannon_entropy, 0.9);
    EXPECT_GT(stats.min_entropy, 0.5);
    EXPECT_TRUE(std::isfinite(stats.energy_nj_per_bit));
    EXPECT_GT(stats.energy_nj_per_bit, 0.0);
}

TEST(TrngRegistry, DRangeContinuousSessionServesTheBoundedStream)
{
    // A continuous session is the same harvest as a bounded
    // generate(): one producer, rounds in order. Chunk boundaries,
    // including a mid-session resize, never change the stream.
    auto session = Registry::make(
        "drange", registryParams().set("chunk_bits", 1024));
    session->startContinuous();
    util::BitStream served;
    int chunks = 0;
    while (chunks < 5 || served.size() < 12000) {
        auto chunk = session->nextChunk();
        ASSERT_TRUE(chunk.has_value());
        served.append(*chunk);
        if (++chunks == 2)
            session->setChunkBits(3001);
    }
    session->stop();
    EXPECT_EQ(session->chunkBits(), 3001u);

    const std::size_t n = served.size();
    auto twin = Registry::make("drange", registryParams());
    auto expected = twin->generate(n);
    ASSERT_GE(expected.size(), n);
    expected.truncate(n);
    EXPECT_EQ(served.toString(), expected.toString());
}

// ------------------------------------------------ streaming contract

TEST(TrngRegistry, StartupSourceRefusesToStream)
{
    auto source = Registry::make(
        "startup",
        Params{{"rows", "16"}, {"noise_seed", "37"},
               {"rows_per_bank", "2048"}});
    EXPECT_FALSE(source->info().streaming);
    EXPECT_THROW(source->startContinuous(), std::logic_error);
    // Bounded generation still works (enrollment is implicit).
    const auto bits = source->generate(64);
    EXPECT_GE(bits.size(), 64u);
    EXPECT_GT(source->stats().sim_ns, 0.0);
}

TEST(TrngRegistry, BatchBackedSourcesPseudoStream)
{
    auto source = Registry::make(
        "cmdsched",
        Params{{"noise_seed", "37"}, {"rows_per_bank", "2048"},
               {"chunk_bits", "512"}});
    EXPECT_TRUE(source->info().streaming);
    // No chunks before a session; double-start is an error.
    EXPECT_FALSE(source->nextChunk().has_value());
    source->startContinuous();
    EXPECT_THROW(source->startContinuous(), std::logic_error);
    std::size_t collected = 0;
    for (int i = 0; i < 3; ++i) {
        auto chunk = source->nextChunk();
        ASSERT_TRUE(chunk.has_value());
        collected += chunk->size();
    }
    EXPECT_GE(collected, 3u * 512u);
    source->stop();
    EXPECT_FALSE(source->nextChunk().has_value());
}

TEST(TrngRegistry, DRangeSessionDeliversConditionedChunks)
{
    auto source = Registry::make(
        "drange", registryParams()
                      .set("chunk_bits", 2048)
                      .set("conditioning", "sha256"));
    source->startContinuous();
    std::size_t collected = 0;
    while (collected < 2048) {
        auto chunk = source->nextChunk();
        ASSERT_TRUE(chunk.has_value());
        EXPECT_EQ(chunk->size() % 256u, 0u); // Whole digests only.
        collected += chunk->size();
    }
    source->stop();
    const auto stats = source->stats();
    EXPECT_GE(stats.bits, collected);
    EXPECT_GT(stats.sim_ns, 0.0);
    ASSERT_EQ(stats.stages.size(), 1u);
    EXPECT_EQ(stats.stages[0].stage, "sha256");
    EXPECT_GT(stats.stages[0].in_bits, stats.stages[0].out_bits);
    EXPECT_GT(stats.shannon_entropy, 0.9);
}

// --------------------------- SP 800-90B acceptance on real output

TEST(TrngRegistry, HealthStagePassesOnConditionedDRangeOutput)
{
    // The 90B continuous tests run inside the pipeline, after SHA-256
    // conditioning, over a real harvested session: no alarms.
    auto source = Registry::make(
        "drange", registryParams()
                      .set("chunk_bits", 4096)
                      .set("conditioning", "sha256,health"));
    const auto bits = source->generate(30000);
    EXPECT_GT(bits.size(), 0u);
    const auto stats = source->stats();
    ASSERT_EQ(stats.stages.size(), 2u);
    EXPECT_EQ(stats.stages[1].stage, "health");
    EXPECT_EQ(stats.stages[1].health_failures, 0u);
    // The health stage is a passthrough: delivered == conditioned.
    EXPECT_EQ(stats.stages[1].in_bits, stats.stages[1].out_bits);
    EXPECT_GT(stats.stages[1].in_bits, 0u);
}

TEST(TrngRegistry, HealthStageFlagsAnInjectedStuckStream)
{
    // Same stage configuration as above, fed an injected stuck-at
    // failure: every health mechanism must notice.
    trng::HealthTestStage stage;
    util::BitStream stuck;
    for (int i = 0; i < 4096; ++i)
        stuck.append(true);
    stage.process(stuck);
    EXPECT_FALSE(stage.healthy());
    EXPECT_GT(stage.repetitionCount().failures(), 0u);
    EXPECT_GT(stage.adaptiveProportion().failures(), 0u);
}

TEST(TrngRegistry, StuckEngineStreamTripsThePipelineHealthFlag)
{
    // End-to-end failure path: run a raw->health pipeline over a
    // stuck stream injected through StreamingTrng's custom-pipeline
    // hook, mimicking an RNG cell that stopped failing activation.
    core::MultiChannelTrng trng(legacyDeviceConfig(29), 1,
                                legacyTrngConfig());
    trng.initialize();
    core::StreamingConfig cfg;
    cfg.conditioning = {"health"};
    core::StreamingTrng stream(trng, cfg);

    // First, real output: healthy.
    stream.generate(8192);
    EXPECT_TRUE(stream.stats().healthy);

    // Now replace the pipeline with one whose input is forced stuck
    // by a degenerate custom stage placed before the health stage.
    struct StuckAtOneStage final : trng::ConditioningStage
    {
        std::string name() const override { return "stuck_at_one"; }
        util::BitStream process(const util::BitStream &chunk) override
        {
            util::BitStream out;
            for (std::size_t i = 0; i < chunk.size(); ++i)
                out.append(true);
            return out;
        }
    };
    trng::ConditioningPipeline pipeline;
    pipeline.addStage(std::make_unique<StuckAtOneStage>());
    pipeline.addStage(std::make_unique<trng::HealthTestStage>());
    stream.setConditioning(std::move(pipeline));

    stream.generate(8192);
    const auto &stats = stream.stats();
    EXPECT_FALSE(stats.healthy);
    ASSERT_EQ(stats.stages.size(), 2u);
    EXPECT_GT(stats.stages[1].health_failures, 0u);
}

} // namespace
