#include "layers.hh"

#include <memory>
#include <optional>
#include <utility>

#include "common.hh"
#include "trng/conditioning.hh"
#include "trng/registry.hh"

namespace servicebench {

namespace {

std::uint64_t
nsSince(Clock::time_point begin)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - begin)
            .count());
}

void
account(LayerCounter &counter, std::uint64_t bits, std::uint64_t ns)
{
    counter.calls.fetch_add(1, std::memory_order_relaxed);
    counter.bits.fetch_add(bits, std::memory_order_relaxed);
    counter.ns.fetch_add(ns, std::memory_order_relaxed);
}

/** Times the chunks the Service pulls from a real "drange" member. */
class TracedSource final : public trng::EntropySource
{
  public:
    explicit TracedSource(const trng::Params &params)
        : inner_(trng::Registry::make("drange", params)),
          info_{kTracedSource, inner_->info().description,
                inner_->info().streaming}
    {
    }

    const trng::SourceInfo &info() const override { return info_; }

    util::BitStream generate(std::size_t num_bits) override
    {
        return inner_->generate(num_bits);
    }

    void startContinuous() override { inner_->startContinuous(); }

    std::optional<util::BitStream> nextChunk() override
    {
        const auto begin = Clock::now();
        std::optional<util::BitStream> chunk = inner_->nextChunk();
        if (chunk)
            account(layers().source, chunk->size(), nsSince(begin));
        return chunk;
    }

    void stop() override { inner_->stop(); }
    trng::SourceStats stats() const override { return inner_->stats(); }
    std::size_t chunkBits() const override { return inner_->chunkBits(); }
    void setChunkBits(std::size_t bits) override
    {
        inner_->setChunkBits(bits);
    }
    bool healthy() const override { return inner_->healthy(); }
    trng::BackpressureStats backpressure() const override
    {
        return inner_->backpressure();
    }
    void setTemperature(double celsius) override
    {
        inner_->setTemperature(celsius);
    }

  private:
    std::unique_ptr<trng::EntropySource> inner_;
    trng::SourceInfo info_;
};

/** Times process() of a real conditioning stage. */
class TracedStage final : public trng::ConditioningStage
{
  public:
    TracedStage(std::unique_ptr<trng::ConditioningStage> inner,
                LayerCounter &counter)
        : inner_(std::move(inner)), counter_(counter)
    {
    }

    std::string name() const override { return inner_->name(); }

    util::BitStream process(const util::BitStream &chunk) override
    {
        const std::uint64_t alarms = inner_->failures();
        const auto begin = Clock::now();
        util::BitStream out = inner_->process(chunk);
        account(counter_, chunk.size(), nsSince(begin));
        counter_.alarms.fetch_add(inner_->failures() - alarms,
                                  std::memory_order_relaxed);
        return out;
    }

    util::BitStream processOwned(util::BitStream chunk) override
    {
        const std::uint64_t alarms = inner_->failures();
        const std::size_t bits = chunk.size();
        const auto begin = Clock::now();
        util::BitStream out = inner_->processOwned(std::move(chunk));
        account(counter_, bits, nsSince(begin));
        counter_.alarms.fetch_add(inner_->failures() - alarms,
                                  std::memory_order_relaxed);
        return out;
    }

    bool chunkLocal() const override { return inner_->chunkLocal(); }
    util::BitStream finish() override { return inner_->finish(); }
    void reset() override { inner_->reset(); }
    bool healthy() const override { return inner_->healthy(); }
    std::uint64_t failures() const override { return inner_->failures(); }

  private:
    std::unique_ptr<trng::ConditioningStage> inner_;
    LayerCounter &counter_;
};

} // namespace

LayerSnapshot
snapshot(const LayerCounter &counter)
{
    return {counter.calls.load(std::memory_order_relaxed),
            counter.bits.load(std::memory_order_relaxed),
            counter.ns.load(std::memory_order_relaxed),
            counter.alarms.load(std::memory_order_relaxed)};
}

Layers &
layers()
{
    static Layers instance;
    return instance;
}

void
registerTracedLayers()
{
    trng::Registry::add(
        kTracedSource, "drange with per-chunk timing (benchmark)",
        [](const trng::Params &params)
            -> std::unique_ptr<trng::EntropySource> {
            return std::make_unique<TracedSource>(params);
        });
    trng::registerStage(
        kTracedSha256,
        [](const trng::Params &params)
            -> std::unique_ptr<trng::ConditioningStage> {
            return std::make_unique<TracedStage>(
                trng::makeStage("sha256", params), layers().sha256);
        });
    trng::registerStage(
        kTracedHealth,
        [](const trng::Params &params)
            -> std::unique_ptr<trng::ConditioningStage> {
            return std::make_unique<TracedStage>(
                trng::makeStage("health", params), layers().health);
        });
}

} // namespace servicebench
