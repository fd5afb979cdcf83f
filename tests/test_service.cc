/**
 * @file
 * Tests for the multi-client entropy service (trng::Service /
 * trng::Session): deficit-round-robin fairness weighted by priority,
 * concurrent read/readAsync bit accounting (no loss, no duplication),
 * SP 800-90B health-alarm quarantine with failover, adaptive chunk
 * sizing, per-session conditioning profiles, the lock discipline
 * (conditioning runs outside the service lock), and the config
 * plumbing (ServiceConfig::fromParams).
 *
 * Kept free of DRAM simulation so the ThreadSanitizer CI lane can run
 * the whole binary quickly: the pool members are two registered test
 * sources -- "testcounter" emits a deterministic sequence of 64-bit
 * counters (so delivered bits can be audited exactly), "testflaky" is
 * a counter whose health verdict trips after a configured number of
 * bits. Real-backend coverage comes from bench/service_scaling.cc and
 * the trngd smoke test in CI.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "trng/conditioning.hh"
#include "trng/registry.hh"
#include "trng/service.hh"
#include "util/bitstream.hh"

namespace {

using namespace std::chrono_literals;
using drange::trng::Params;
using drange::trng::PoolMemberConfig;
using drange::trng::Registry;
using drange::trng::Service;
using drange::trng::ServiceConfig;
using drange::trng::ServiceStats;
using drange::trng::Session;
using drange::trng::SessionConfig;
using drange::util::BitStream;

/**
 * Deterministic test source: streams 64-bit counters start, start+1,
 * ... as chunks of `chunk_bits` (rounded up to whole counters), up to
 * `total_bits` (0 = unbounded), pausing `delay_us` per chunk so tests
 * can model a slow producer. healthy() trips once more than
 * `trip_after_bits` bits (0 = never) have been emitted. With
 * `stuck = true` it emits all-zero chunks instead -- a stuck-at
 * failure any SP 800-90B repetition-count stage must catch.
 */
class CounterSource final : public drange::trng::EntropySource
{
  public:
    explicit CounterSource(const Params &params)
    {
        chunk_bits_ = static_cast<std::size_t>(
            params.getInt("chunk_bits", 8192));
        total_bits_ = static_cast<std::uint64_t>(
            params.getInt("total_bits", 0));
        next_ = static_cast<std::uint64_t>(params.getInt("start", 0));
        delay_us_ = params.getInt("delay_us", 0);
        trip_after_bits_ = static_cast<std::uint64_t>(
            params.getInt("trip_after_bits", 0));
        stuck_ = params.getBool("stuck", false);
        params.rejectUnknown("test source");
        info_ = {"testcounter", "deterministic counter test source",
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

    void startContinuous() override { streaming_ = true; }

    std::optional<BitStream> nextChunk() override
    {
        if (!streaming_)
            return std::nullopt;
        if (total_bits_ != 0 && emitted_ >= total_bits_)
            return std::nullopt; // Bounded stream exhausted.
        if (delay_us_ > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay_us_));
        std::size_t want = chunkBits();
        if (total_bits_ != 0)
            want = std::min<std::uint64_t>(want,
                                           total_bits_ - emitted_);
        return makeChunk(want);
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

    bool healthy() const override
    {
        return trip_after_bits_ == 0 || emitted_ <= trip_after_bits_;
    }

  private:
    BitStream makeChunk(std::size_t num_bits)
    {
        BitStream out;
        while (out.size() < num_bits)
            out.appendBits(stuck_ ? 0 : next_++, 64);
        emitted_ += out.size();
        return out;
    }

    drange::trng::SourceInfo info_;
    std::size_t chunk_bits_ = 8192;
    std::uint64_t total_bits_ = 0;
    std::uint64_t emitted_ = 0;
    std::uint64_t next_ = 0;
    std::int64_t delay_us_ = 0;
    std::uint64_t trip_after_bits_ = 0;
    bool stuck_ = false;
    bool streaming_ = false;
};

const bool kRegistered = [] {
    Registry::add("testcounter", "deterministic counter test source",
                  [](const Params &params) {
                      return std::unique_ptr<
                          drange::trng::EntropySource>(
                          new CounterSource(params));
                  });
    return true;
}();

/** Wait until @p predicate(stats) holds or ~5 s pass. */
template <typename Predicate>
ServiceStats
pollStats(Service &service, Predicate predicate)
{
    ServiceStats stats = service.stats();
    for (int i = 0; i < 500 && !predicate(stats); ++i) {
        std::this_thread::sleep_for(10ms);
        stats = service.stats();
    }
    return stats;
}

/** The 64-bit counter values of a stream (size must be 64-aligned). */
std::vector<std::uint64_t>
counterValues(const BitStream &bits)
{
    EXPECT_EQ(bits.size() % 64, 0u);
    std::vector<std::uint64_t> out;
    out.reserve(bits.size() / 64);
    for (std::size_t w = 0; w < bits.size() / 64; ++w)
        out.push_back(bits.words()[w]);
    return out;
}

/** State of the "testlatch" stage: process() parks until opened. */
struct Latch
{
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool open = false;
};

Latch &
latch()
{
    static Latch instance;
    return instance;
}

void
resetLatch()
{
    const std::lock_guard<std::mutex> lock(latch().mu);
    latch().entered = false;
    latch().open = false;
}

void
openLatch()
{
    const std::lock_guard<std::mutex> lock(latch().mu);
    latch().open = true;
    latch().cv.notify_all();
}

/** True once some thread is parked inside the latched stage. */
bool
waitForLatchEntry(std::chrono::seconds timeout)
{
    std::unique_lock<std::mutex> lock(latch().mu);
    return latch().cv.wait_for(lock, timeout,
                               [] { return latch().entered; });
}

/** Opens the latch when it goes out of scope, on every exit path. */
struct LatchOpener
{
    ~LatchOpener() { openLatch(); }
};

/** Pass-through stage that blocks in process() until openLatch(). */
class LatchStage final : public drange::trng::ConditioningStage
{
  public:
    std::string name() const override { return "testlatch"; }
    BitStream process(const BitStream &chunk) override
    {
        std::unique_lock<std::mutex> lock(latch().mu);
        latch().entered = true;
        latch().cv.notify_all();
        latch().cv.wait(lock, [] { return latch().open; });
        return chunk;
    }
};

const bool kLatchRegistered = drange::trng::registerStage(
    "testlatch",
    [](const Params &) -> std::unique_ptr<drange::trng::ConditioningStage> {
        return std::make_unique<LatchStage>();
    });

TEST(Service, PoolOfOneServesTheSingleConsumerPath)
{
    ASSERT_TRUE(kRegistered);
    Service service("testcounter", Params{{"chunk_bits", "4096"}});
    EXPECT_EQ(service.poolSize(), 1u);

    Session session = service.open();
    const BitStream first = session.read(1024);
    const BitStream second = session.read(2048);
    ASSERT_EQ(first.size(), 1024u);
    ASSERT_EQ(second.size(), 2048u);

    // A raw pool-of-one session sees exactly the source's stream, in
    // order, across consecutive reads: no loss, no reordering.
    BitStream all;
    all.append(first);
    all.append(second);
    const auto values = counterValues(all);
    for (std::size_t i = 0; i < values.size(); ++i)
        ASSERT_EQ(values[i], i);

    const auto sstats = session.stats();
    EXPECT_EQ(sstats.delivered_bits, 3072u);
    EXPECT_EQ(sstats.reads, 2u);
    EXPECT_EQ(sstats.reservoir_bits, 3072u); // Raw: input == output.
}

TEST(Service, ConcurrentReadsLoseNothingDuplicateNothing)
{
    // Supply exactly 2^21 bits of counters; four sessions together
    // demand exactly that, from a mix of blocking read() threads and
    // pre-posted readAsync() batches. Every request is a multiple of
    // 64 bits, so every delivered stream is a sequence of whole
    // counters: the union of all responses must be exactly the set
    // {0, ..., 2^21/64 - 1}, each exactly once.
    const std::uint64_t kTotalBits = 1u << 21;
    const std::size_t kPerSession = kTotalBits / 4;
    const std::size_t kRequestBits = 8192;

    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"total_bits", std::to_string(kTotalBits)},
               {"chunk_bits", "16384"}},
        "bounded"});
    config.reservoir_bits = 1u << 16;
    config.quantum_bits = 1024;
    Service service(config);

    std::vector<Session> sessions;
    for (int i = 0; i < 4; ++i)
        sessions.push_back(service.open());

    std::vector<BitStream> responses(4);

    // Sessions 0/1: blocking read() loops on their own threads.
    std::vector<std::thread> readers;
    for (int i = 0; i < 2; ++i) {
        readers.emplace_back([&, i] {
            for (std::size_t got = 0; got < kPerSession;
                 got += kRequestBits)
                responses[static_cast<std::size_t>(i)].append(
                    sessions[static_cast<std::size_t>(i)].read(
                        kRequestBits));
        });
    }
    // Sessions 2/3: a queue of async requests each, posted up front.
    std::vector<std::future<BitStream>> futures;
    for (int i = 2; i < 4; ++i)
        for (std::size_t got = 0; got < kPerSession;
             got += kRequestBits)
            futures.push_back(sessions[static_cast<std::size_t>(i)]
                                  .readAsync(kRequestBits));
    for (auto &reader : readers)
        reader.join();
    std::size_t fi = 0;
    for (int i = 2; i < 4; ++i)
        for (std::size_t got = 0; got < kPerSession;
             got += kRequestBits)
            responses[static_cast<std::size_t>(i)].append(
                futures[fi++].get());

    std::set<std::uint64_t> seen;
    std::uint64_t delivered = 0;
    for (const BitStream &response : responses) {
        delivered += response.size();
        for (const std::uint64_t value : counterValues(response)) {
            ASSERT_LT(value, kTotalBits / 64);
            ASSERT_TRUE(seen.insert(value).second)
                << "counter " << value << " delivered twice";
        }
    }
    EXPECT_EQ(delivered, kTotalBits);
    EXPECT_EQ(seen.size(), kTotalBits / 64);

    const auto stats = service.stats();
    EXPECT_EQ(stats.harvested_bits, kTotalBits);
    EXPECT_EQ(stats.distributed_bits, kTotalBits);
    EXPECT_EQ(stats.delivered_bits, kTotalBits);
}

TEST(Service, DeficitRoundRobinHonorsPriorityWeights)
{
    // A slow bounded producer (so requests queue up before most of the
    // supply exists) and two sessions demanding more than the whole
    // supply: the priority-3 session must end up with ~3x the bytes of
    // the priority-1 session.
    const std::uint64_t kTotalBits = 1u << 21;
    const std::size_t kRequestBits = 1u << 14;

    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"total_bits", std::to_string(kTotalBits)},
               {"chunk_bits", "16384"},
               {"delay_us", "200"}},
        "slow"});
    config.quantum_bits = 1024;
    config.adaptive_chunking = false; // Keep the trickle slow.
    Service service(config);

    SessionConfig low;
    low.priority = 1;
    SessionConfig high;
    high.priority = 3;
    Session session_low = service.open(low);
    Session session_high = service.open(high);

    // Both demand the entire supply; only ~1/4 resp. ~3/4 can be met.
    std::vector<std::future<BitStream>> low_futures, high_futures;
    for (std::uint64_t got = 0; got < kTotalBits; got += kRequestBits) {
        low_futures.push_back(session_low.readAsync(kRequestBits));
        high_futures.push_back(session_high.readAsync(kRequestBits));
    }

    const auto delivered = [](std::vector<std::future<BitStream>> &fs) {
        std::uint64_t bits = 0;
        for (auto &f : fs) {
            try {
                bits += f.get().size();
            } catch (const std::runtime_error &) {
                // Unmet tail of the demand: supply ran out.
            }
        }
        return bits;
    };
    const double low_bits =
        static_cast<double>(delivered(low_futures));
    const double high_bits =
        static_cast<double>(delivered(high_futures));

    // Shares within 20% of the 1:3 fair split.
    const double total = low_bits + high_bits;
    ASSERT_GT(total, 0.0);
    EXPECT_NEAR(low_bits / total, 0.25, 0.05)
        << "low " << low_bits << " high " << high_bits;
    EXPECT_NEAR(high_bits / total, 0.75, 0.05);
}

TEST(Service, EqualPrioritySessionsShareWithinTolerance)
{
    const std::uint64_t kTotalBits = 1u << 21;
    const std::size_t kRequestBits = 1u << 14;
    const int kSessions = 4;

    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"total_bits", std::to_string(kTotalBits)},
               {"chunk_bits", "16384"},
               {"delay_us", "200"}},
        "slow"});
    config.quantum_bits = 1024;
    config.adaptive_chunking = false;
    Service service(config);

    std::vector<Session> sessions;
    for (int i = 0; i < kSessions; ++i)
        sessions.push_back(service.open());
    std::vector<std::vector<std::future<BitStream>>> futures(
        static_cast<std::size_t>(kSessions));
    for (std::uint64_t got = 0; got < kTotalBits; got += kRequestBits)
        for (auto &session : sessions)
            futures[static_cast<std::size_t>(&session -
                                             sessions.data())]
                .push_back(session.readAsync(kRequestBits));

    double total = 0.0;
    std::vector<double> shares;
    for (auto &session_futures : futures) {
        std::uint64_t bits = 0;
        for (auto &f : session_futures) {
            try {
                bits += f.get().size();
            } catch (const std::runtime_error &) {
            }
        }
        shares.push_back(static_cast<double>(bits));
        total += static_cast<double>(bits);
    }
    ASSERT_GT(total, 0.0);
    const double fair = total / kSessions;
    for (const double share : shares)
        EXPECT_NEAR(share, fair, 0.2 * fair)
            << "shares not within 20% of fair";
}

TEST(Service, HealthAlarmQuarantinesMemberAndFailsOver)
{
    // Member "flaky" trips its health verdict after 2^17 bits; member
    // "steady" is unbounded. Reads keep succeeding (failover), the
    // flaky member ends up quarantined, and it contributed no more
    // than its trip point.
    const std::uint64_t kTrip = 1u << 17;
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"trip_after_bits", std::to_string(kTrip)},
               {"chunk_bits", "8192"}},
        "flaky"});
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"chunk_bits", "8192"}, {"start", "1000000"}},
        "steady"});
    config.reservoir_bits = 1u << 15; // Keep harvest demand-driven.
    Service service(config);

    Session session = service.open();
    std::uint64_t got = 0;
    for (int i = 0; i < 64; ++i)
        got += session.read(1u << 14).size();
    EXPECT_EQ(got, 64u << 14); // 2^20 bits served despite the alarm.

    const auto stats = pollStats(service, [](const ServiceStats &st) {
        return st.members[0].quarantined && st.healthy_members == 1;
    });
    ASSERT_EQ(stats.members.size(), 2u);
    EXPECT_TRUE(stats.members[0].quarantined);
    EXPECT_FALSE(stats.members[1].quarantined);
    EXPECT_TRUE(stats.members[1].active);
    EXPECT_EQ(stats.healthy_members, 1);
    EXPECT_LE(stats.members[0].bits, kTrip);
}

TEST(Service, AllMembersQuarantinedFailsOutstandingReads)
{
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"trip_after_bits", "65536"}, {"chunk_bits", "8192"}},
        "flaky"});
    Service service(config);

    Session session = service.open();
    // Far more than the member can deliver before its alarm.
    EXPECT_THROW(session.read(1u << 21), std::runtime_error);
    const auto stats = service.stats();
    EXPECT_TRUE(stats.members[0].quarantined);
    EXPECT_EQ(stats.healthy_members, 0);
}

TEST(Service, BoundedSupplyExhaustionFailsUnmetTail)
{
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"total_bits", "65536"}, {"chunk_bits", "8192"}},
        "bounded"});
    Service service(config);
    Session session = service.open();
    EXPECT_EQ(session.read(65536).size(), 65536u);
    EXPECT_THROW(session.read(64), std::runtime_error);
}

TEST(Service, AdaptiveChunkSizingGrowsWhenStarved)
{
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter", Params{{"chunk_bits", "1024"}}, "src"});
    config.min_chunk_bits = 1024;
    config.max_chunk_bits = 65536;
    config.adapt_interval_chunks = 1;
    // Fill fraction never reaches 2.0: every evaluation grows.
    config.low_watermark = 2.0;
    config.high_watermark = 3.0;
    Service service(config);

    const auto stats = pollStats(service, [](const ServiceStats &st) {
        return st.members[0].chunk_bits == 65536;
    });
    EXPECT_EQ(stats.members[0].chunk_bits, 65536u);
    EXPECT_GE(stats.chunk_grows, 6u); // 1024 -> 65536 is 6 doublings.
    EXPECT_EQ(stats.chunk_shrinks, 0u);
}

TEST(Service, AdaptiveChunkSizingShrinksWhenSaturated)
{
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter", Params{{"chunk_bits", "65536"}}, "src"});
    config.min_chunk_bits = 1024;
    config.max_chunk_bits = 65536;
    config.adapt_interval_chunks = 1;
    // Fill fraction is always above 0.0: every evaluation shrinks.
    config.low_watermark = -1.0;
    config.high_watermark = 0.0;
    Service service(config);

    const auto stats = pollStats(service, [](const ServiceStats &st) {
        return st.members[0].chunk_bits == 1024;
    });
    EXPECT_EQ(stats.members[0].chunk_bits, 1024u);
    EXPECT_GE(stats.chunk_shrinks, 6u);
}

TEST(Service, BackpressureBoundsTheReservoir)
{
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter", Params{{"chunk_bits", "4096"}}, "src"});
    config.reservoir_bits = 1u << 14;
    config.adaptive_chunking = false;
    Service service(config);

    // With no clients the pool must stall at the reservoir bound.
    const auto stats = pollStats(service, [](const ServiceStats &st) {
        return st.producer_waits > 0;
    });
    EXPECT_GT(stats.producer_waits, 0u);
    EXPECT_LE(stats.reservoir_high_watermark,
              (1u << 14) + 4096u); // Bound plus one in-flight chunk.
}

TEST(Service, LateMemberJoinsAPoolWhoseReservoirIsFull)
{
    // The early member fills the reservoir long before the late one's
    // first chunk is ready, and no session ever reads. The late member
    // must still come up: each member's first chunk is admitted past
    // the bound, so the reservoir holds at most the bound plus one
    // first chunk per member.
    constexpr std::size_t kReservoirBits = 1u << 14;
    constexpr std::size_t kChunkBits = 4096;
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter", Params{{"chunk_bits", "4096"}}, "early"});
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"chunk_bits", "4096"}, {"delay_us", "200000"}}, "late"});
    config.reservoir_bits = kReservoirBits;
    config.adaptive_chunking = false;
    Service service(config);

    const auto stats = pollStats(service, [](const ServiceStats &st) {
        return st.members[0].chunks > 0 && st.members[1].chunks > 0;
    });
    EXPECT_GT(stats.members[0].chunks, 0u);
    EXPECT_GT(stats.members[1].chunks, 0u);
    EXPECT_LE(stats.reservoir_high_watermark,
              kReservoirBits + 2 * kChunkBits);
}

TEST(Service, PerSessionConditioningProfiles)
{
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter", Params{{"chunk_bits", "8192"}}, "src"});
    Service service(config);

    SessionConfig hashed;
    hashed.conditioning = {"sha256"};
    Session session = service.open(hashed);
    const BitStream key = session.read(256);
    EXPECT_EQ(key.size(), 256u);
    // SHA-256 output is not the raw counter stream.
    const auto sstats = session.stats();
    EXPECT_EQ(sstats.delivered_bits, 256u);
    EXPECT_GT(sstats.reservoir_bits, 0u);

    SessionConfig bogus;
    bogus.conditioning = {"sha512"};
    EXPECT_THROW(service.open(bogus), std::invalid_argument);
}

TEST(Service, SessionHealthAlarmFailsItsReadsOnly)
{
    // A stuck-at source with a per-session "health" profile: the
    // session's own SP 800-90B repetition-count stage must latch, its
    // reads must fail (no suspect bits delivered), and the alarm must
    // be visible in SessionStats -- while a raw session on the same
    // pool keeps being served.
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter", Params{{"stuck", "true"}, {"chunk_bits", "8192"}},
        "stuck"});
    Service service(config);

    SessionConfig monitored;
    monitored.conditioning = {"health"};
    Session session = service.open(monitored);
    EXPECT_THROW(session.read(65536), std::runtime_error);
    const auto sstats = session.stats();
    EXPECT_FALSE(sstats.healthy);
    EXPECT_GT(sstats.health_failures, 0u);
    EXPECT_EQ(sstats.delivered_bits, 0u);
    // The alarm latches: later reads fail immediately.
    EXPECT_THROW(session.read(64), std::runtime_error);

    // The pool member itself is not quarantined (its own verdict is
    // clean -- the profile was this session's), so raw sessions keep
    // reading.
    Session raw = service.open();
    EXPECT_EQ(raw.read(4096).size(), 4096u);
    EXPECT_EQ(service.stats().healthy_members, 1);
}

TEST(Service, OpenAndSubmitValidation)
{
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter", Params{{"chunk_bits", "4096"}}, "src"});
    Service service(config);

    SessionConfig bad;
    bad.priority = 0;
    EXPECT_THROW(service.open(bad), std::invalid_argument);

    Session session = service.open();
    EXPECT_EQ(session.read(0).size(), 0u); // Trivially complete.

    Session closed = service.open();
    closed.close();
    EXPECT_FALSE(closed.isOpen());

    service.close();
    EXPECT_THROW(session.read(64), std::runtime_error);
    EXPECT_THROW(service.open(), std::logic_error);
}

TEST(Service, ClosingASessionFailsItsPendingReads)
{
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"chunk_bits", "8192"}, {"delay_us", "1000"}}, "slow"});
    Service service(config);

    Session session = service.open();
    auto future = session.readAsync(1u << 20);
    session.close();
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(Service, ConstructionRejectsBadPools)
{
    EXPECT_THROW(Service(ServiceConfig{}), std::invalid_argument);
    EXPECT_THROW(Service("no-such-source"), std::invalid_argument);

    ServiceConfig bad_watermarks;
    bad_watermarks.pool.push_back(
        PoolMemberConfig{"testcounter", Params{}, "src"});
    bad_watermarks.low_watermark = 0.9;
    bad_watermarks.high_watermark = 0.1;
    EXPECT_THROW(Service(std::move(bad_watermarks)),
                 std::invalid_argument);
}

TEST(ServiceConfig, FromParamsParsesServiceAndPoolSections)
{
    const Params params{{"service.reservoir_bits", "131072"},
                        {"service.quantum_bits", "2048"},
                        {"service.adaptive", "false"},
                        {"pool.fast.source", "testcounter"},
                        {"pool.fast.chunk_bits", "4096"},
                        {"pool.backup.source", "testcounter"},
                        {"pool.backup.start", "500"}};
    const ServiceConfig config = ServiceConfig::fromParams(params);
    EXPECT_EQ(config.reservoir_bits, 131072u);
    EXPECT_EQ(config.quantum_bits, 2048u);
    EXPECT_FALSE(config.adaptive_chunking);
    ASSERT_EQ(config.pool.size(), 2u);
    EXPECT_EQ(config.pool[0].label, "backup");
    EXPECT_EQ(config.pool[0].source, "testcounter");
    EXPECT_EQ(config.pool[0].params.getInt("start"), 500);
    EXPECT_EQ(config.pool[1].label, "fast");
    EXPECT_EQ(config.pool[1].params.getInt("chunk_bits"), 4096);

    // The parsed config actually serves.
    Service service(config);
    Session session = service.open();
    EXPECT_EQ(session.read(4096).size(), 4096u);
}

TEST(Service, SessionReadsPastABoundedMembersSupply)
{
    // Member "bounded" runs dry after 2^14 bits; "deep" is unbounded.
    // A session demanding far more than the bounded member can ever
    // supply is served in full by the rest of the pool.
    const std::uint64_t kBoundedSupply = 1u << 14;
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"total_bits", std::to_string(kBoundedSupply)},
               {"chunk_bits", "8192"}},
        "bounded"});
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"chunk_bits", "8192"}, {"start", "1000000"}},
        "deep"});
    Service service(config);

    Session session = service.open();
    EXPECT_EQ(session.read(1u << 20).size(), 1u << 20);

    const auto stats = pollStats(service, [](const ServiceStats &st) {
        return !st.members[0].active;
    });
    EXPECT_FALSE(stats.members[0].active); // Exhausted, not quarantined.
    EXPECT_FALSE(stats.members[0].quarantined);
    EXPECT_LE(stats.members[0].bits, kBoundedSupply);
    EXPECT_EQ(stats.healthy_members, 1);
}

TEST(Service, QuarantineFailsOverWithoutStallingEitherReader)
{
    // Two readers share a pool of a flaky and a steady member. After
    // the flaky member's alarm trips, both readers keep reading to
    // completion off the steady member.
    const std::uint64_t kTrip = 1u << 16;
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"trip_after_bits", std::to_string(kTrip)},
               {"chunk_bits", "8192"}},
        "flaky"});
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"chunk_bits", "8192"}, {"start", "1000000"}},
        "steady"});
    config.reservoir_bits = 1u << 16;
    Service service(config);

    Session first = service.open();
    Session second = service.open();
    std::uint64_t first_got = 0, second_got = 0;
    std::thread second_reader([&] {
        for (int i = 0; i < 32; ++i)
            second_got += second.read(1u << 14).size();
    });
    for (int i = 0; i < 32; ++i)
        first_got += first.read(1u << 14).size();
    second_reader.join();
    EXPECT_EQ(first_got, 32u << 14);
    EXPECT_EQ(second_got, 32u << 14);

    const auto stats = pollStats(service, [](const ServiceStats &st) {
        return st.members[0].quarantined;
    });
    EXPECT_TRUE(stats.members[0].quarantined);
    EXPECT_FALSE(stats.members[1].quarantined);
    EXPECT_EQ(stats.healthy_members, 1);
}

TEST(Service, SlowConditioningStallsOnlyTheDispatcher)
{
    // A session whose pipeline parks in process() holds the dispatcher
    // there. The service lock must stay free meanwhile: stats()
    // returns, another session's readAsync is accepted, and the member
    // keeps pushing chunks. Every wait is bounded and the latch opens
    // on every exit path, so a regression fails instead of hanging.
    ASSERT_TRUE(kLatchRegistered);
    resetLatch();
    ServiceConfig config;
    config.pool.push_back(PoolMemberConfig{
        "testcounter",
        Params{{"chunk_bits", "1024"}, {"delay_us", "500"}}, "slow"});
    config.reservoir_bits = 1u << 22; // Seconds of headroom to fill.
    config.adaptive_chunking = false;
    Service service(config);

    SessionConfig latched;
    latched.conditioning = {"testlatch"};
    Session parked = service.open(latched);
    Session other = service.open();

    std::future<BitStream> parked_read;
    std::future<ServiceStats> stats_call;
    std::future<std::future<BitStream>> submit_call;
    const LatchOpener opener; // Declared last: opens before any join.

    parked_read = parked.readAsync(64);
    ASSERT_TRUE(waitForLatchEntry(10s))
        << "the dispatcher never reached the latched stage";

    stats_call = std::async(std::launch::async,
                            [&] { return service.stats(); });
    ASSERT_EQ(stats_call.wait_for(5s), std::future_status::ready)
        << "stats() blocked behind a conditioning pipeline";
    const std::uint64_t chunks_then = stats_call.get().members[0].chunks;

    submit_call = std::async(std::launch::async,
                             [&] { return other.readAsync(4096); });
    ASSERT_EQ(submit_call.wait_for(5s), std::future_status::ready)
        << "readAsync() blocked behind a conditioning pipeline";
    std::future<BitStream> other_read = submit_call.get();

    const auto stats = pollStats(service, [&](const ServiceStats &st) {
        return st.members[0].chunks > chunks_then;
    });
    EXPECT_GT(stats.members[0].chunks, chunks_then)
        << "the member stopped pushing behind a conditioning pipeline";

    // Released, the dispatcher finishes both reads.
    openLatch();
    ASSERT_EQ(parked_read.wait_for(10s), std::future_status::ready);
    EXPECT_EQ(parked_read.get().size(), 64u);
    ASSERT_EQ(other_read.wait_for(10s), std::future_status::ready);
    EXPECT_EQ(other_read.get().size(), 4096u);
}

TEST(ServiceConfig, FromParamsRejectsMalformedConfigs)
{
    EXPECT_THROW(ServiceConfig::fromParams(Params{}),
                 std::invalid_argument); // No pool sections.
    EXPECT_THROW(
        ServiceConfig::fromParams(Params{{"pool.a.seed", "1"}}),
        std::invalid_argument); // Member without a source.
    EXPECT_THROW(ServiceConfig::fromParams(
                     Params{{"service.reservoir_bits", "0"},
                            {"pool.a.source", "testcounter"}}),
                 std::invalid_argument);
    EXPECT_THROW(ServiceConfig::fromParams(
                     Params{{"service.typo_knob", "1"},
                            {"pool.a.source", "testcounter"}}),
                 std::invalid_argument);
    // Removed knobs are unknown keys now: a stale config fails loudly
    // and names the key.
    for (const std::string key : {"shards", "conditioning_workers"}) {
        try {
            (void)ServiceConfig::fromParams(
                Params{{"service." + key, "1"},
                       {"pool.a.source", "testcounter"}});
            ADD_FAILURE() << "[service] " << key << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("\"" + key + "\""),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
