#include "trng/conditioning.hh"

#include <bit>
#include <map>
#include <stdexcept>
#include <utility>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "trng/health.hh"
#include "util/entropy.hh"
#include "util/sha256.hh"

namespace drange::trng {

namespace {

double
streamEntropy(std::uint64_t bits, std::uint64_t ones)
{
    if (bits == 0)
        return 0.0;
    return util::binaryShannonEntropy(static_cast<double>(ones) /
                                      static_cast<double>(bits));
}

} // anonymous namespace

double
StageAccounting::inEntropy() const
{
    return streamEntropy(in_bits, in_ones);
}

double
StageAccounting::outEntropy() const
{
    return streamEntropy(out_bits, out_ones);
}

ConditioningPipeline::ConditioningPipeline(
    std::vector<std::unique_ptr<ConditioningStage>> stages)
    : stages_(std::move(stages))
{
    for (const auto &stage : stages_) {
        if (!stage)
            throw std::invalid_argument(
                "ConditioningPipeline: null stage");
        accounting_.push_back(StageAccounting{stage->name()});
    }
}

void
ConditioningPipeline::addStage(std::unique_ptr<ConditioningStage> stage)
{
    if (!stage)
        throw std::invalid_argument("ConditioningPipeline: null stage");
    accounting_.push_back(StageAccounting{stage->name()});
    stages_.push_back(std::move(stage));
}

util::BitStream
ConditioningPipeline::run(std::size_t first_stage, util::BitStream bits)
{
    for (std::size_t i = first_stage; i < stages_.size(); ++i) {
        StageAccounting &acct = accounting_[i];
        acct.in_bits += bits.size();
        acct.in_ones += bits.popcount();
        bits = stages_[i]->processOwned(std::move(bits));
        acct.out_bits += bits.size();
        acct.out_ones += bits.popcount();
        acct.health_failures = stages_[i]->failures();
    }
    return bits;
}

util::BitStream
ConditioningPipeline::process(const util::BitStream &chunk)
{
    return run(0, chunk);
}

util::BitStream
ConditioningPipeline::process(util::BitStream &&chunk)
{
    return run(0, std::move(chunk));
}

util::BitStream
ConditioningPipeline::finish()
{
    // Flush front to back: bits a stage had buffered still have to
    // pass through every stage downstream of it.
    util::BitStream out;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        util::BitStream flushed = stages_[i]->finish();
        accounting_[i].out_bits += flushed.size();
        accounting_[i].out_ones += flushed.popcount();
        if (!flushed.empty())
            out.append(run(i + 1, std::move(flushed)));
    }
    return out;
}

void
ConditioningPipeline::reset()
{
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        stages_[i]->reset();
        accounting_[i] = StageAccounting{stages_[i]->name()};
    }
}

bool
ConditioningPipeline::healthy() const
{
    for (const auto &stage : stages_)
        if (!stage->healthy())
            return false;
    return true;
}

namespace {

/**
 * Compress the bits of @p value selected by @p mask toward the LSB,
 * preserving ascending bit order (PEXT semantics). One instruction
 * where BMI2 is available; a sparse mask walk otherwise -- the von
 * Neumann selector mask is usually sparse (half-entropy input keeps
 * only ~1/4 of the pairs), so the fallback loops over selected pairs,
 * not over all 64 bit positions.
 */
inline std::uint64_t
compress64(std::uint64_t value, std::uint64_t mask)
{
#if defined(__BMI2__)
    return _pext_u64(value, mask);
#else
    std::uint64_t out = 0;
    int out_pos = 0;
    while (mask != 0) {
        const std::uint64_t low = mask & (~mask + 1);
        if (value & low)
            out |= std::uint64_t{1} << out_pos;
        ++out_pos;
        mask &= mask - 1;
    }
    return out;
#endif
}

} // anonymous namespace

util::BitStream
VonNeumannStage::process(const util::BitStream &chunk)
{
    if (chunk.empty())
        return {};

    // Word-parallel pairwise extraction. The virtual stream is the
    // carried half-pair (if any) followed by the chunk, so pairs start
    // at even virtual offsets; virtual word k is the chunk's word k
    // shifted up one with the preceding bit (carry, or the top bit of
    // word k-1) filling bit 0. Per word: `first` holds the first bit
    // of each pair at the even positions, `second` the second bit
    // moved down onto them; a pair emits its first bit iff they
    // differ, so compressing `first` through the disagreement mask
    // yields the output bits already in pair order, LSB first --
    // exactly what appendBits() consumes.
    constexpr std::uint64_t kEven = 0x5555555555555555ULL;
    const std::vector<std::uint64_t> &w = chunk.words();
    const bool carry_in = have_half_;
    const std::uint64_t carry_bit = (have_half_ && half_) ? 1 : 0;
    const std::size_t n = chunk.size() + (carry_in ? 1 : 0);
    const std::size_t vwords = (n + 63) / 64;

    util::BitStream out;
    for (std::size_t k = 0; k < vwords; ++k) {
        std::uint64_t v;
        if (carry_in) {
            const std::uint64_t wk = k < w.size() ? w[k] : 0;
            const std::uint64_t in_bit =
                k == 0 ? carry_bit : w[k - 1] >> 63;
            v = (wk << 1) | in_bit;
        } else {
            v = w[k];
        }
        const std::size_t remaining = n - k * 64;
        const std::size_t pairs =
            (remaining < 64 ? remaining : 64) / 2;
        std::uint64_t pair_mask = kEven;
        if (pairs < 32)
            pair_mask &= (std::uint64_t{1} << (2 * pairs)) - 1;
        const std::uint64_t first = v & kEven;
        const std::uint64_t second = (v >> 1) & kEven;
        const std::uint64_t sel = (first ^ second) & pair_mask;
        out.appendBits(compress64(first, sel), std::popcount(sel));
    }

    // A lone trailing virtual bit -- always the chunk's last bit,
    // since the carry sits at the front -- becomes the new half-pair.
    if (n % 2 == 1) {
        have_half_ = true;
        half_ = chunk.at(chunk.size() - 1);
    } else {
        have_half_ = false;
    }
    return out;
}

util::BitStream
Sha256Stage::process(const util::BitStream &chunk)
{
    if (chunk.empty())
        return {};
    const auto digest = util::Sha256::hash(chunk.toBytesMsbFirst());
    util::BitStream out;
    for (std::uint8_t byte : digest)
        for (int b = 7; b >= 0; --b)
            out.append((byte >> b) & 1);
    return out;
}

// ------------------------------------------------------- stage factory

namespace {

using StageFactory =
    std::unique_ptr<ConditioningStage> (*)(const Params &);

std::map<std::string, StageFactory> &
stageRegistry()
{
    static std::map<std::string, StageFactory> registry;
    return registry;
}

const bool builtin_stages_registered = [] {
    registerStage("raw", [](const Params &)
                  -> std::unique_ptr<ConditioningStage> {
                      return std::make_unique<RawStage>();
                  });
    registerStage("vonneumann", [](const Params &)
                  -> std::unique_ptr<ConditioningStage> {
                      return std::make_unique<VonNeumannStage>();
                  });
    registerStage("sha256", [](const Params &)
                  -> std::unique_ptr<ConditioningStage> {
                      return std::make_unique<Sha256Stage>();
                  });
    registerStage("health", [](const Params &params)
                  -> std::unique_ptr<ConditioningStage> {
                      return std::make_unique<HealthTestStage>(
                          HealthTestConfig::fromParams(params));
                  });
    return true;
}();

} // anonymous namespace

bool
registerStage(const std::string &name, StageFactory factory)
{
    return stageRegistry().emplace(name, factory).second;
}

std::unique_ptr<ConditioningStage>
makeStage(const std::string &name, const Params &params)
{
    const auto &registry = stageRegistry();
    const auto it = registry.find(name);
    if (it == registry.end()) {
        std::string known;
        for (const auto &[stage_name, factory] : registry) {
            if (!known.empty())
                known += ", ";
            known += "\"" + stage_name + "\"";
        }
        throw std::invalid_argument(
            "makeStage: unknown conditioning stage \"" + name +
            "\" (known stages: " + known + ")");
    }
    return it->second(params);
}

std::vector<std::string>
stageNames()
{
    std::vector<std::string> out;
    for (const auto &[name, factory] : stageRegistry())
        out.push_back(name);
    return out;
}

ConditioningPipeline
makePipeline(const std::vector<std::string> &names, const Params &params)
{
    ConditioningPipeline pipeline;
    for (const auto &name : names)
        pipeline.addStage(makeStage(name, params));
    return pipeline;
}

} // namespace drange::trng
