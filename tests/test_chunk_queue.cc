/**
 * @file
 * Unit tests for util::ChunkQueue and the thread-parallel NIST suite
 * runner. Kept fast (no DRAM simulation) so the sanitizer CI lane
 * covers the streaming pipeline's concurrency primitives.
 */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nist/nist.hh"
#include "util/bitstream.hh"
#include "util/chunk_queue.hh"
#include "util/rng.hh"

namespace {

using drange::util::BitStream;
using drange::util::ChunkQueue;

TEST(ChunkQueue, FifoOrder)
{
    ChunkQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop(), std::optional<int>(1));
    EXPECT_EQ(q.pop(), std::optional<int>(2));
    EXPECT_EQ(q.pop(), std::optional<int>(3));
    EXPECT_EQ(q.size(), 0u);
}

TEST(ChunkQueue, HighWatermarkTracksDeepestFill)
{
    ChunkQueue<int> q(8);
    EXPECT_EQ(q.highWatermark(), 0u);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.highWatermark(), 3u);
    // Draining does not lower the watermark...
    q.pop();
    q.pop();
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.highWatermark(), 3u);
    // ...and refilling below the old peak does not move it either.
    q.push(4);
    EXPECT_EQ(q.highWatermark(), 3u);
    q.push(5);
    q.push(6);
    EXPECT_EQ(q.highWatermark(), 4u);
}

TEST(ChunkQueue, HighWatermarkCapsAtCapacity)
{
    ChunkQueue<int> q(2);
    q.push(1);
    q.push(2);
    ASSERT_EQ(q.pop(), std::optional<int>(1));
    q.push(3);
    EXPECT_EQ(q.highWatermark(), 2u);
    EXPECT_LE(q.highWatermark(), q.capacity());
}

TEST(ChunkQueue, CloseDrainsThenEnds)
{
    ChunkQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.close();
    EXPECT_FALSE(q.push(3)); // Rejected after close.
    EXPECT_EQ(q.pop(), std::optional<int>(1));
    EXPECT_EQ(q.pop(), std::optional<int>(2));
    EXPECT_EQ(q.pop(), std::nullopt); // Closed and drained.
    EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(ChunkQueue, PopBlocksUntilPush)
{
    ChunkQueue<int> q(2);
    std::thread producer([&] { q.push(42); });
    const auto item = q.pop(); // May block until the producer runs.
    producer.join();
    EXPECT_EQ(item, std::optional<int>(42));
}

TEST(ChunkQueue, PushBlocksOnFullUntilPop)
{
    ChunkQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<bool> second_pushed{false};
    std::thread producer([&] {
        q.push(2); // Blocks: capacity 1.
        second_pushed = true;
    });
    // The producer cannot finish while the queue is full.
    while (q.popWaits() == 0 && q.pushWaits() == 0 && !second_pushed)
        std::this_thread::yield();
    EXPECT_EQ(q.pop(), std::optional<int>(1));
    producer.join();
    EXPECT_TRUE(second_pushed);
    EXPECT_EQ(q.pop(), std::optional<int>(2));
    EXPECT_GE(q.pushWaits(), 1u);
}

TEST(ChunkQueue, CloseUnblocksWaitingProducer)
{
    ChunkQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<bool> push_result{true};
    std::thread producer([&] { push_result = q.push(2); });
    while (q.pushWaits() == 0)
        std::this_thread::yield();
    q.close();
    producer.join();
    EXPECT_FALSE(push_result); // Gave up instead of deadlocking.
}

TEST(ChunkQueue, ManyProducersOneConsumer)
{
    ChunkQueue<int> q(3);
    const int kProducers = 4, kPerProducer = 50;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i)
                q.push(p * kPerProducer + i);
        });
    }
    std::vector<bool> seen(kProducers * kPerProducer, false);
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
        const auto item = q.pop();
        ASSERT_TRUE(item.has_value());
        ASSERT_FALSE(seen[static_cast<std::size_t>(*item)]);
        seen[static_cast<std::size_t>(*item)] = true;
    }
    for (auto &producer : producers)
        producer.join();
    EXPECT_EQ(q.pushes(), static_cast<std::uint64_t>(seen.size()));
    EXPECT_EQ(q.pops(), static_cast<std::uint64_t>(seen.size()));
}

// ---- nist::runAllParallel -------------------------------------------

BitStream
pseudoRandomStream(std::uint64_t seed, std::size_t bits)
{
    drange::util::Xoshiro256ss rng(seed);
    BitStream bs;
    bs.reserve(bits);
    for (std::size_t i = 0; i < bits; ++i)
        bs.append(rng.nextBernoulli(0.5));
    return bs;
}

TEST(RunAllParallel, MatchesSerialSuite)
{
    const BitStream bits = pseudoRandomStream(123, 1 << 15);
    const auto serial_results = drange::nist::runAll(bits);
    const auto parallel_results = drange::nist::runAllParallel(bits, 4);
    ASSERT_EQ(parallel_results.size(), serial_results.size());
    for (std::size_t i = 0; i < serial_results.size(); ++i) {
        EXPECT_EQ(parallel_results[i].name, serial_results[i].name);
        EXPECT_EQ(parallel_results[i].applicable,
                  serial_results[i].applicable);
        EXPECT_DOUBLE_EQ(parallel_results[i].p_value,
                         serial_results[i].p_value);
        ASSERT_EQ(parallel_results[i].sub_p_values.size(),
                  serial_results[i].sub_p_values.size());
        for (std::size_t j = 0;
             j < serial_results[i].sub_p_values.size(); ++j) {
            EXPECT_DOUBLE_EQ(parallel_results[i].sub_p_values[j],
                             serial_results[i].sub_p_values[j]);
        }
    }
}

TEST(RunAllParallel, SingleThreadFallback)
{
    const BitStream bits = pseudoRandomStream(7, 4096);
    const auto serial_results = drange::nist::runAll(bits);
    const auto one = drange::nist::runAllParallel(bits, 1);
    ASSERT_EQ(one.size(), serial_results.size());
    for (std::size_t i = 0; i < serial_results.size(); ++i)
        EXPECT_DOUBLE_EQ(one[i].p_value, serial_results[i].p_value);
}

} // namespace
