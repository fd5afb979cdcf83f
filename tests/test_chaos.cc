/**
 * @file
 * Chaos tests: deterministic fault injection (sim::FaultPlan /
 * sim::FaultInjector), the service's quarantine -> probation ->
 * reinstate lifecycle, and the server's degraded-mode load shedding
 * (kStatusBusy) -- the detection/recovery half of the robustness
 * story, driven end to end with scripted faults.
 *
 * Like test_service.cc / test_net.cc this stays off the DRAM
 * simulation wherever it can: a registered scriptable source
 * ("chaosrand") backs every Service here except the D-RaNGe temp-ramp
 * scenario, whose drange member is a small simulated device, so the
 * ThreadSanitizer lane can run the whole binary.
 * The source emits either PRNG bits (so the FaultInjector's own
 * SP 800-90B monitor stays quiet until a fault corrupts the output) or
 * 64-bit counters (so delivered bits can be audited exactly -- which
 * is how the probation-discard property is proven: the counters
 * emitted during quarantine and probation never reach a client).
 */

#include <cerrno>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/frame.hh"
#include "net/listener.hh"
#include "net/server.hh"
#include "sim/fault.hh"
#include "trng/registry.hh"
#include "trng/service.hh"
#include "util/bitstream.hh"

namespace {

namespace net = drange::net;
namespace sim = drange::sim;
using drange::trng::Params;
using drange::trng::PoolMemberConfig;
using drange::trng::Registry;
using drange::trng::Service;
using drange::trng::ServiceConfig;
using drange::trng::ServiceStats;
using drange::trng::SessionConfig;
using drange::util::BitStream;
using net::FrameEncoder;
using sim::FaultInjector;
using sim::FaultKind;
using sim::FaultPlan;

/**
 * Scriptable source for chaos scenarios. Emits PRNG bits by default
 * (counters=true switches to auditable 64-bit counters); an optional
 * [fail_from_bits, fail_until_bits) window latches the health alarm on
 * any chunk overlapping it. startContinuous() clears the alarm (a
 * probation restart re-runs the gates) but the emission position
 * persists, so a member relapses deterministically until its stream
 * clears the window -- and then recovers. setTemperature() calls are
 * recorded for the FaultInjector forwarding tests.
 */
class ChaosSource final : public drange::trng::EntropySource
{
  public:
    explicit ChaosSource(const Params &params)
    {
        chunk_bits_ = static_cast<std::size_t>(
            params.getInt("chunk_bits", 2048));
        fail_from_ = static_cast<std::uint64_t>(
            params.getInt("fail_from_bits", 0));
        fail_until_ = static_cast<std::uint64_t>(
            params.getInt("fail_until_bits", 0));
        counters_ = params.getBool("counters", false);
        rng_.seed(
            static_cast<std::uint64_t>(params.getInt("seed", 1)));
        params.rejectUnknown("chaos test source");
        info_ = {"chaosrand", "scriptable source for chaos tests",
                 true};
    }

    const drange::trng::SourceInfo &info() const override
    {
        return info_;
    }

    BitStream generate(std::size_t num_bits) override
    {
        return makeChunk(num_bits);
    }

    void startContinuous() override
    {
        streaming_ = true;
        alarmed_ = false; // Fresh gates; emission position persists.
    }

    std::optional<BitStream> nextChunk() override
    {
        if (!streaming_)
            return std::nullopt;
        const std::uint64_t begin = emitted_;
        BitStream out = makeChunk(chunk_bits_);
        if (fail_from_ < fail_until_ && begin < fail_until_ &&
            emitted_ > fail_from_)
            alarmed_ = true;
        return out;
    }

    void stop() override { streaming_ = false; }

    drange::trng::SourceStats stats() const override
    {
        drange::trng::SourceStats st;
        st.bits = emitted_;
        return st;
    }

    std::size_t chunkBits() const override { return chunk_bits_; }
    void setChunkBits(std::size_t bits) override
    {
        chunk_bits_ = bits ? bits : 1;
    }

    bool healthy() const override { return !alarmed_; }

    void setTemperature(double celsius) override
    {
        last_temp_.store(celsius, std::memory_order_relaxed);
    }

    double lastTemperatureC() const
    {
        return last_temp_.load(std::memory_order_relaxed);
    }

  private:
    BitStream makeChunk(std::size_t num_bits)
    {
        BitStream out;
        while (out.size() < num_bits)
            out.appendBits(counters_ ? next_++ : rng_(), 64);
        emitted_ += out.size();
        return out;
    }

    drange::trng::SourceInfo info_;
    std::size_t chunk_bits_ = 2048;
    std::uint64_t fail_from_ = 0;
    std::uint64_t fail_until_ = 0;
    bool counters_ = false;
    std::mt19937_64 rng_;
    std::uint64_t next_ = 0;
    std::uint64_t emitted_ = 0;
    bool alarmed_ = false;
    bool streaming_ = false;
    std::atomic<double> last_temp_{
        std::numeric_limits<double>::quiet_NaN()};
};

const bool kRegistered = [] {
    Registry::add("chaosrand", "scriptable source for chaos tests",
                  [](const Params &params) {
                      return std::unique_ptr<
                          drange::trng::EntropySource>(
                          new ChaosSource(params));
                  });
    return true;
}();

/** Recover the counter at @p bit_offset of a delivered byte stream:
 * appendBits emits a value LSB first, toBytesMsbFirst packs stream
 * bit k into bit (7 - k%8) of byte k/8. */
std::uint64_t
decodeCounter(const std::vector<std::uint8_t> &bytes,
              std::size_t bit_offset)
{
    std::uint64_t value = 0;
    for (int bit = 0; bit < 64; ++bit) {
        const std::size_t k = bit_offset + static_cast<std::size_t>(bit);
        const int stream_bit = (bytes[k >> 3] >> (7 - (k & 7))) & 1;
        value |= static_cast<std::uint64_t>(stream_bit) << bit;
    }
    return value;
}

/** Wait until @p predicate(service.stats()) holds or @p seconds pass. */
template <typename Predicate>
bool
waitForStats(const Service &service, Predicate predicate,
             int seconds = 5)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate(service.stats()))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

// ---------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------

TEST(FaultPlan, FromParamsParsesAndSortsEvents)
{
    const FaultPlan plan = FaultPlan::fromParams(Params{
        {"seed", "7"},
        {"baseline_c", "40"},
        {"hot.kind", "temp_ramp"},
        {"hot.at_ms", "2000"},
        {"hot.duration_ms", "1500"},
        {"hot.temperature_c", "90"},
        {"hot.from_c", "50"},
        {"dead.kind", "crash"},
        {"dead.at_ms", "100"},
        {"jam.kind", "stuck"},
        {"jam.at_ms", "500"},
        {"jam.duration_ms", "250"},
        {"jam.value", "1"},
    });
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.baseline_c, 40.0);
    EXPECT_TRUE(plan.monitor);
    ASSERT_EQ(plan.events.size(), 3u);

    // Sorted by at_ms regardless of section name order.
    EXPECT_EQ(plan.events[0].label, "dead");
    EXPECT_EQ(plan.events[0].kind, FaultKind::Crash);
    EXPECT_DOUBLE_EQ(plan.events[0].at_ms, 100.0);

    EXPECT_EQ(plan.events[1].label, "jam");
    EXPECT_EQ(plan.events[1].kind, FaultKind::Stuck);
    EXPECT_DOUBLE_EQ(plan.events[1].duration_ms, 250.0);
    EXPECT_EQ(plan.events[1].value, 1);

    EXPECT_EQ(plan.events[2].label, "hot");
    EXPECT_EQ(plan.events[2].kind, FaultKind::TempRamp);
    EXPECT_DOUBLE_EQ(plan.events[2].temperature_c, 90.0);
    EXPECT_DOUBLE_EQ(plan.events[2].from_c, 50.0);

    EXPECT_EQ(FaultPlan::kindName(plan.events[2].kind), "temp_ramp");
}

TEST(FaultPlan, FromParamsRejectsMalformedEvents)
{
    // Unknown kind.
    EXPECT_THROW(FaultPlan::fromParams(
                     Params{{"x.kind", "melt"}, {"x.at_ms", "0"}}),
                 std::invalid_argument);
    // Missing kind.
    EXPECT_THROW(FaultPlan::fromParams(Params{{"x.at_ms", "5"}}),
                 std::invalid_argument);
    // Windowed kinds need a positive duration.
    EXPECT_THROW(FaultPlan::fromParams(Params{{"x.kind", "stuck"}}),
                 std::invalid_argument);
    // Bias probability outside [0, 1].
    EXPECT_THROW(FaultPlan::fromParams(Params{{"x.kind", "bias"},
                                              {"x.duration_ms", "10"},
                                              {"x.bias", "1.5"}}),
                 std::invalid_argument);
    // Stuck value must be a bit.
    EXPECT_THROW(FaultPlan::fromParams(Params{{"x.kind", "stuck"},
                                              {"x.duration_ms", "5"},
                                              {"x.value", "2"}}),
                 std::invalid_argument);
    // Negative schedule time.
    EXPECT_THROW(FaultPlan::fromParams(
                     Params{{"x.kind", "crash"}, {"x.at_ms", "-1"}}),
                 std::invalid_argument);
    // Unknown event key.
    EXPECT_THROW(FaultPlan::fromParams(
                     Params{{"x.kind", "crash"}, {"x.bogus", "1"}}),
                 std::invalid_argument);
}

TEST(FaultPlan, RegistryWrapsSourcesCarryingAFaultsSection)
{
    ASSERT_TRUE(kRegistered);
    auto faulted = Registry::make(
        "chaosrand", Params{{"chunk_bits", "1024"},
                            {"faults.hot.kind", "temp_step"},
                            {"faults.hot.at_ms", "5"},
                            {"faults.hot.temperature_c", "60"}});
    auto *injector = dynamic_cast<FaultInjector *>(faulted.get());
    ASSERT_NE(injector, nullptr);
    ASSERT_EQ(injector->plan().events.size(), 1u);
    EXPECT_EQ(injector->plan().events[0].kind, FaultKind::TempStep);
    EXPECT_EQ(injector->info().name, "chaosrand");

    // No faults section: the source comes back unwrapped.
    auto plain =
        Registry::make("chaosrand", Params{{"chunk_bits", "1024"}});
    EXPECT_EQ(dynamic_cast<FaultInjector *>(plain.get()), nullptr);
}

// ---------------------------------------------------------------------
// FaultInjector mechanics (scripted clock)
// ---------------------------------------------------------------------

TEST(FaultInjector, StuckWindowZeroesOutputAndTripsTheMonitor)
{
    auto inner =
        std::make_unique<ChaosSource>(Params{{"chunk_bits", "4096"}});
    FaultPlan plan;
    {
        sim::FaultEvent jam;
        jam.kind = FaultKind::Stuck;
        jam.label = "jam";
        jam.at_ms = 100.0;
        jam.duration_ms = 1000.0;
        jam.value = 0;
        plan.events.push_back(jam);
    }
    FaultInjector injector(std::move(inner), plan);
    double now_ms = 0.0;
    injector.setClock([&now_ms] { return now_ms; });
    injector.startContinuous();

    // Before the window: PRNG bits pass the monitor untouched.
    auto clean = injector.nextChunk();
    ASSERT_TRUE(clean.has_value());
    EXPECT_TRUE(injector.healthy());
    EXPECT_EQ(injector.corruptedChunks(), 0u);

    // Inside the window: all-zero output, monitor alarm latches.
    now_ms = 150.0;
    auto stuck = injector.nextChunk();
    ASSERT_TRUE(stuck.has_value());
    ASSERT_EQ(stuck->size(), 4096u);
    for (const std::uint64_t word : stuck->words())
        EXPECT_EQ(word, 0u);
    EXPECT_EQ(injector.corruptedChunks(), 1u);
    EXPECT_FALSE(injector.healthy());
}

TEST(FaultInjector, TemperatureEventsReachTheInnerSource)
{
    auto owned =
        std::make_unique<ChaosSource>(Params{{"chunk_bits", "256"}});
    ChaosSource *source = owned.get();
    FaultPlan plan;
    plan.baseline_c = 45.0;
    {
        sim::FaultEvent step;
        step.kind = FaultKind::TempStep;
        step.label = "step";
        step.at_ms = 100.0;
        step.temperature_c = 85.0;
        plan.events.push_back(step);
        sim::FaultEvent ramp;
        ramp.kind = FaultKind::TempRamp;
        ramp.label = "ramp";
        ramp.at_ms = 1000.0;
        ramp.duration_ms = 1000.0;
        ramp.temperature_c = 90.0; // from_c unset -> baseline 45.
        plan.events.push_back(ramp);
    }
    FaultInjector injector(std::move(owned), plan);
    double now_ms = 0.0;
    injector.setClock([&now_ms] { return now_ms; });
    injector.startContinuous();

    (void)injector.nextChunk(); // t=0: nothing due yet.
    EXPECT_TRUE(std::isnan(source->lastTemperatureC()));

    now_ms = 150.0; // Step fires once.
    (void)injector.nextChunk();
    EXPECT_DOUBLE_EQ(source->lastTemperatureC(), 85.0);
    EXPECT_DOUBLE_EQ(injector.appliedTemperatureC(), 85.0);

    now_ms = 1500.0; // Ramp midpoint: 45 + (90-45)/2.
    (void)injector.nextChunk();
    EXPECT_NEAR(source->lastTemperatureC(), 67.5, 1e-9);

    now_ms = 2500.0; // Past the ramp: clamped at the target.
    (void)injector.nextChunk();
    EXPECT_DOUBLE_EQ(source->lastTemperatureC(), 90.0);

    now_ms = 3000.0; // Finished events do not replay.
    (void)injector.nextChunk();
    EXPECT_DOUBLE_EQ(source->lastTemperatureC(), 90.0);
}

TEST(FaultInjector, CrashThrowsOnceAndNotAgainAfterRestart)
{
    auto inner =
        std::make_unique<ChaosSource>(Params{{"chunk_bits", "256"}});
    FaultPlan plan;
    {
        sim::FaultEvent dead;
        dead.kind = FaultKind::Crash;
        dead.label = "dead";
        dead.at_ms = 100.0;
        plan.events.push_back(dead);
    }
    FaultInjector injector(std::move(inner), plan);
    double now_ms = 0.0;
    injector.setClock([&now_ms] { return now_ms; });
    injector.startContinuous();

    ASSERT_TRUE(injector.nextChunk().has_value());
    now_ms = 150.0;
    EXPECT_THROW(injector.nextChunk(), std::runtime_error);

    // One-shot: the same boundary succeeds on retry, and a probation
    // restart does not replay the scenario.
    EXPECT_TRUE(injector.nextChunk().has_value());
    injector.stop();
    injector.startContinuous();
    EXPECT_TRUE(injector.nextChunk().has_value());
    EXPECT_TRUE(injector.healthy());
}

// ---------------------------------------------------------------------
// Service probation lifecycle
// ---------------------------------------------------------------------

TEST(ServiceConfigProbation, FromParamsParsesLifecycleKnobs)
{
    const ServiceConfig config = ServiceConfig::fromParams(Params{
        {"service.reinstate", "true"},
        {"service.probation_delay_ms", "50"},
        {"service.probation_windows", "4"},
        {"service.max_probation_attempts", "2"},
        {"pool.a.source", "chaosrand"},
        {"pool.a.chunk_bits", "1024"},
    });
    EXPECT_TRUE(config.reinstate);
    EXPECT_EQ(config.probation_delay_ms, 50);
    EXPECT_EQ(config.probation_windows, 4);
    EXPECT_EQ(config.max_probation_attempts, 2);

    EXPECT_THROW(ServiceConfig::fromParams(
                     Params{{"service.probation_delay_ms", "-1"},
                            {"pool.a.source", "chaosrand"}}),
                 std::invalid_argument);
    EXPECT_THROW(ServiceConfig::fromParams(
                     Params{{"service.probation_windows", "0"},
                            {"pool.a.source", "chaosrand"}}),
                 std::invalid_argument);
    EXPECT_THROW(ServiceConfig::fromParams(
                     Params{{"service.max_probation_attempts", "-2"},
                            {"pool.a.source", "chaosrand"}}),
                 std::invalid_argument);
}

/** 2048-bit chunks of 64-bit counters: 32 counters per chunk. The
 * fail window [16384, 40960) quarantines the member at its 9th chunk
 * and relapses every probation attempt until the stream clears bit
 * 40960 -- deterministically, because the emission position survives
 * restarts. */
ServiceConfig
lifecyclePool(std::uint64_t fail_from, std::uint64_t fail_until)
{
    PoolMemberConfig member;
    member.source = "chaosrand";
    member.label = "m0";
    member.params = Params{
        {"chunk_bits", "2048"},
        {"counters", "true"},
        {"fail_from_bits", std::to_string(fail_from)},
        {"fail_until_bits", std::to_string(fail_until)},
    };
    ServiceConfig config;
    config.pool.push_back(member);
    config.reservoir_bits = 4096;
    config.adaptive_chunking = false;
    config.reinstate = true;
    config.probation_delay_ms = 5;
    config.probation_windows = 2;
    return config;
}

TEST(ServiceProbation, QuarantinedMemberRelapsesThenRejoins)
{
    ASSERT_TRUE(kRegistered);
    Service service(lifecyclePool(16384, 40960));
    auto session = service.open();

    // Pre-fault supply: exactly counters 0..255 (bits 0..16384), in
    // order -- the alarming 9th chunk (counters 256..287) is dropped.
    BitStream reference;
    for (std::uint64_t counter = 0; counter < 256; ++counter)
        reference.appendBits(counter, 64);
    std::vector<std::uint8_t> delivered;
    for (int read = 0; read < 8; ++read) {
        const std::vector<std::uint8_t> bytes =
            session.read(2048).toBytesMsbFirst();
        delivered.insert(delivered.end(), bytes.begin(), bytes.end());
    }
    EXPECT_EQ(delivered, reference.toBytesMsbFirst());

    // This read spans the quarantine: it waits out the probation
    // lifecycle (relapse, relapse, ... clean, clean) instead of
    // failing, then resumes past the fault window. Every counter
    // emitted during quarantine and probation was discarded.
    const std::vector<std::uint8_t> after =
        session.read(2048).toBytesMsbFirst();
    ASSERT_EQ(after.size(), 256u);
    const std::uint64_t first = decodeCounter(after, 0);
    EXPECT_GE(first, 40960u / 64); // Nothing from the poisoned window.
    BitStream resumed;
    for (std::uint64_t counter = first; counter < first + 32;
         ++counter)
        resumed.appendBits(counter, 64);
    EXPECT_EQ(after, resumed.toBytesMsbFirst()); // Still in order.

    ASSERT_TRUE(waitForStats(service, [](const ServiceStats &st) {
        return st.reinstatements >= 1 && st.healthy_members == 1;
    }));
    const ServiceStats stats = service.stats();
    ASSERT_EQ(stats.members.size(), 1u);
    const auto &member = stats.members[0];
    EXPECT_TRUE(member.active);
    EXPECT_FALSE(member.quarantined);
    EXPECT_FALSE(member.probation);
    EXPECT_EQ(member.quarantines, 1u);
    EXPECT_EQ(member.reinstatements, 1u);
    EXPECT_GE(member.probation_attempts, 2u); // Relapsed at least once.
    EXPECT_GT(member.probation_bits, 0u);     // Pumped and discarded.
    EXPECT_EQ(stats.quarantined_members, 0);
    EXPECT_EQ(stats.probation_members, 0);
}

TEST(ServiceProbation, GivesUpAfterMaxProbationAttempts)
{
    ASSERT_TRUE(kRegistered);
    ServiceConfig config = lifecyclePool(1, 2000000000ULL);
    config.probation_windows = 1;
    config.max_probation_attempts = 2;
    Service service(config);
    auto session = service.open();

    // The member alarms on its first chunk and every probation
    // attempt relapses inside the (huge) fail window; after the
    // attempt budget the quarantine becomes permanent and reads fail.
    EXPECT_THROW(session.read(64), std::runtime_error);

    ASSERT_TRUE(waitForStats(service, [](const ServiceStats &st) {
        return !st.members[0].active;
    }));
    const ServiceStats stats = service.stats();
    const auto &member = stats.members[0];
    EXPECT_TRUE(member.quarantined);
    EXPECT_FALSE(member.probation);
    EXPECT_EQ(member.reinstatements, 0u);
    EXPECT_EQ(member.probation_attempts, 2u);
    EXPECT_EQ(stats.quarantined_members, 1);
    EXPECT_EQ(stats.healthy_members, 0);
}

// ---------------------------------------------------------------------
// D-RaNGe re-identification under a temperature ramp
// ---------------------------------------------------------------------

/** Temp-ramp chaos on a drange member, end to end: the ramp moves the
 * device far from the temperature its RNG cells were identified at,
 * the fault injector's SP 800-90B monitor alarms on the stale cells,
 * the service quarantines the member, and probation's
 * startContinuous() re-identifies the cells at the new temperature --
 * after which the member reinstates and keeps serving. A chaosrand
 * member keeps the pool serving throughout: two concurrent sessions'
 * reads all complete, and the probation output (bits harvested while
 * the re-identified cells were being judged) never reaches them. */
TEST(DRangeChaos, TempRampReidentifiesAndReinstatesWhileServing)
{
    ASSERT_TRUE(kRegistered);

    PoolMemberConfig good;
    good.source = "chaosrand";
    good.label = "good";
    good.params = Params{{"chunk_bits", "2048"}};

    PoolMemberConfig hot;
    hot.source = "drange";
    hot.label = "hot";
    hot.params = Params{
        {"banks", "2"},
        {"rows_per_bank", "256"},
        {"profile_rows", "32"},
        {"profile_words", "16"},
        {"noise_seed", "42"},
        {"chunk_bits", "2048"},
        {"faults.baseline_c", "45"},
        {"faults.ramp.kind", "temp_ramp"},
        {"faults.ramp.at_ms", "20"},
        {"faults.ramp.duration_ms", "50"},
        {"faults.ramp.temperature_c", "75"},
    };

    ServiceConfig config;
    config.pool.push_back(good);
    config.pool.push_back(hot);
    config.reservoir_bits = 8192;
    config.adaptive_chunking = false;
    config.reinstate = true;
    config.probation_delay_ms = 5;
    config.probation_windows = 2;

    Service service(config);

    // Two concurrent sessions read across the whole scenario; every
    // read must complete (the good member carries the pool while the
    // drange member cycles through quarantine). The readers run until
    // the reinstated member has served again -- a fixed read count
    // could drain before the ramp's stale chunks are ever pumped,
    // leaving the reservoir full and the alarm unfired.
    std::atomic<bool> stop{false};
    auto reader = [&service, &stop] {
        auto session = service.open();
        for (int i = 0; i < 4000 && !stop.load(); ++i) {
            const BitStream bits = session.read(1024);
            ASSERT_EQ(bits.size(), 1024u);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    };
    std::thread a(reader), b(reader);

    // The ramp ends 70 ms into serving; the stale cells alarm, the
    // member quarantines, probation re-identifies at the current
    // temperature, and -- the cells now matching the operating point
    // -- it reinstates.
    const bool recovered = waitForStats(
        service,
        [](const ServiceStats &st) {
            const auto &hot_member = st.members[1];
            return hot_member.quarantines >= 1 &&
                   hot_member.reinstatements >= 1;
        },
        /*seconds=*/20);

    // Reinstated on fresh cells, the member keeps serving. Count
    // chunks, not quarantines: the injector's monitor may false-alarm
    // now and then at its default alpha.
    bool served_again = false;
    if (recovered) {
        const std::uint64_t reinstated_at =
            service.stats().members[1].chunks;
        served_again = waitForStats(
            service,
            [reinstated_at](const ServiceStats &st) {
                return st.members[1].chunks >= reinstated_at + 100;
            },
            /*seconds=*/20);
    }
    stop.store(true);
    a.join();
    b.join();

    const ServiceStats stats = service.stats();
    const auto &hot_member = stats.members[1];
    EXPECT_TRUE(recovered) << hot_member.probation_attempts
                           << " probation attempts, "
                           << hot_member.probation_bits
                           << " probation bits discarded";
    EXPECT_TRUE(served_again);
    EXPECT_EQ(hot_member.label, "hot");
    EXPECT_GE(hot_member.quarantines, 1u);
    EXPECT_GE(hot_member.reinstatements, 1u);
    EXPECT_GE(hot_member.probation_attempts, 1u);
    EXPECT_GT(hot_member.probation_bits, 0u); // Pumped and discarded.
    EXPECT_EQ(stats.members[0].quarantines, 0u);
}

// ---------------------------------------------------------------------
// Degraded-mode load shedding (kStatusBusy)
// ---------------------------------------------------------------------

TEST(BusyFrame, PayloadRoundTripsRetryHint)
{
    unsigned char payload[net::kBusyPayloadBytes];
    net::encodeBusyPayload(payload, 123456u);
    EXPECT_EQ(net::decodeBusyRetryMs(std::vector<std::uint8_t>(
                  payload, payload + sizeof(payload))),
              123456u);
    EXPECT_EQ(net::decodeBusyRetryMs({}), 0u); // Short payload -> 0.
}

/** Service + Server on a background thread; stops and joins on
 * destruction. */
struct ServerFixture
{
    Service service;
    net::Server server;
    std::thread thread;

    ServerFixture(ServiceConfig pool, net::ServerConfig config)
        : service(std::move(pool)),
          server(service, std::move(config), SessionConfig{})
    {
        server.start();
        thread = std::thread([this] { server.run(); });
    }

    ~ServerFixture()
    {
        server.stop();
        if (thread.joinable())
            thread.join();
    }
};

/** Blocking protocol client (the daemon's original wire idiom). */
struct BlockingClient
{
    int fd = -1;

    explicit BlockingClient(std::uint16_t port)
    {
        std::string error;
        fd = net::connectTcp("127.0.0.1", port, error);
        EXPECT_GE(fd, 0) << error;
        struct timeval timeout = {20, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
    }

    ~BlockingClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool sendRequest(std::uint16_t priority,
                     std::uint32_t num_bytes) const
    {
        const std::vector<std::uint8_t> wire =
            FrameEncoder::request(priority, num_bytes);
        const std::uint8_t *data = wire.data();
        std::size_t count = wire.size();
        while (count > 0) {
            const ssize_t sent = ::send(fd, data, count, MSG_NOSIGNAL);
            if (sent <= 0)
                return false;
            data += sent;
            count -= static_cast<std::size_t>(sent);
        }
        return true;
    }

    bool readResponse(std::uint16_t &status,
                      std::vector<std::uint8_t> &payload) const
    {
        unsigned char header[net::kHeaderBytes];
        if (!readAll(header, sizeof(header)))
            return false;
        EXPECT_EQ(header[0], net::kResponseMagic0);
        EXPECT_EQ(header[1], net::kResponseMagic1);
        status = net::decode16(header + 2);
        payload.resize(net::decode32(header + 4));
        return payload.empty() ||
               readAll(payload.data(), payload.size());
    }

  private:
    bool readAll(void *data, std::size_t count) const
    {
        auto *out = static_cast<std::uint8_t *>(data);
        while (count > 0) {
            const ssize_t got = ::recv(fd, out, count, 0);
            if (got <= 0)
                return false;
            out += got;
            count -= static_cast<std::size_t>(got);
        }
        return true;
    }
};

/** A chaosrand pool member that quarantines on its first chunk and
 * (with reinstate off) never comes back. */
PoolMemberConfig
doomedMember(const std::string &label)
{
    PoolMemberConfig member;
    member.source = "chaosrand";
    member.label = label;
    member.params = Params{{"chunk_bits", "2048"},
                           {"counters", "true"},
                           {"fail_from_bits", "1"},
                           {"fail_until_bits", "2000000000"}};
    return member;
}

/** Spin until the server reports degraded (or ~5 s pass). */
bool
waitForDegraded(const net::Server &server)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
        if (server.stats().degraded)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

TEST(ServerDegraded, ShedsLowestPriorityAndKeepsServingTheHighest)
{
    ASSERT_TRUE(kRegistered);

    // Half the pool quarantined trips the degraded trigger, but one
    // member still serves: the shed band must stay at the bottom.
    PoolMemberConfig good;
    good.source = "chaosrand";
    good.label = "good";
    good.params = Params{{"chunk_bits", "2048"}, {"counters", "true"}};
    ServiceConfig pool;
    pool.pool.push_back(good);
    pool.pool.push_back(doomedMember("bad"));
    pool.reservoir_bits = 8192;
    pool.adaptive_chunking = false;

    net::ServerConfig config;
    config.tcp_port = 0;
    config.degraded_quarantine_fraction = 0.5;
    config.degraded_retry_ms = 25;
    config.degraded_escalation_ms = 50;

    ServerFixture fixture(std::move(pool), std::move(config));
    ASSERT_TRUE(waitForDegraded(fixture.server));

    // The high-priority client is served real entropy -- even while
    // the band escalates, a pool that is only half down spares the
    // highest priority seen.
    BlockingClient high(fixture.server.tcpPort());
    ASSERT_TRUE(high.sendRequest(3, 64));
    std::uint16_t status = 0;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(high.readResponse(status, payload));
    EXPECT_EQ(status, net::kStatusOk);
    EXPECT_EQ(payload.size(), 64u);

    // The low-priority client is turned away with a retry hint.
    BlockingClient low(fixture.server.tcpPort());
    ASSERT_TRUE(low.sendRequest(1, 64));
    ASSERT_TRUE(low.readResponse(status, payload));
    EXPECT_EQ(status, net::kStatusBusy);
    ASSERT_EQ(payload.size(), net::kBusyPayloadBytes);
    EXPECT_EQ(net::decodeBusyRetryMs(payload), 25u);

    // Busy frames keep the connection open for the retry.
    ASSERT_TRUE(low.sendRequest(1, 64));
    ASSERT_TRUE(low.readResponse(status, payload));
    EXPECT_EQ(status, net::kStatusBusy);

    // And the spared client keeps being served.
    ASSERT_TRUE(high.sendRequest(3, 64));
    ASSERT_TRUE(high.readResponse(status, payload));
    EXPECT_EQ(status, net::kStatusOk);

    const net::ServerStats stats = fixture.server.stats();
    EXPECT_TRUE(stats.degraded);
    EXPECT_GE(stats.busy_sheds, 2u);
}

TEST(ServerDegraded, EscalatesToEveryPriorityOnceThePoolCollapses)
{
    ASSERT_TRUE(kRegistered);

    ServiceConfig pool;
    pool.pool.push_back(doomedMember("bad"));
    pool.reservoir_bits = 4096;
    pool.adaptive_chunking = false;

    net::ServerConfig config;
    config.tcp_port = 0;
    config.degraded_quarantine_fraction = 0.5;
    config.degraded_retry_ms = 25;
    config.degraded_escalation_ms = 100;

    ServerFixture fixture(std::move(pool), std::move(config));
    ASSERT_TRUE(waitForDegraded(fixture.server));

    // The band starts at priority 1, so a fresh priority-2 request is
    // still admitted -- into a dead pool, which answers with a
    // service error and drops the connection (the pre-degraded
    // behavior for an unservable request).
    std::uint16_t status = 0;
    std::vector<std::uint8_t> payload;
    {
        BlockingClient first(fixture.server.tcpPort());
        ASSERT_TRUE(first.sendRequest(2, 64));
        ASSERT_TRUE(first.readResponse(status, payload));
        EXPECT_EQ(status, net::kStatusError);
    }

    // With no healthy member left the shed band widens past every
    // priority the server has seen; the same request is now turned
    // away with a busy frame instead of burning a dead session.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    BlockingClient second(fixture.server.tcpPort());
    ASSERT_TRUE(second.sendRequest(2, 64));
    ASSERT_TRUE(second.readResponse(status, payload));
    EXPECT_EQ(status, net::kStatusBusy);
    EXPECT_EQ(net::decodeBusyRetryMs(payload), 25u);

    // Priority 1 is shed regardless.
    BlockingClient low(fixture.server.tcpPort());
    ASSERT_TRUE(low.sendRequest(1, 64));
    ASSERT_TRUE(low.readResponse(status, payload));
    EXPECT_EQ(status, net::kStatusBusy);

    EXPECT_GE(fixture.server.stats().busy_sheds, 2u);
}

} // namespace
