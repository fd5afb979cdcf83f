/**
 * @file
 * Pluggable post-processing stages for TRNG output.
 *
 * The former core::Conditioning enum closed the set of post-processing
 * options at three compile-time cases; ConditioningStage opens it: a
 * stage consumes the previous stage's chunks and emits conditioned
 * chunks, stages compose in order into a ConditioningPipeline (run by
 * core::StreamingTrng on the consumer side of the harvest pipeline,
 * and per client session by trng::Service's dispatcher), and new
 * stages register by name next to the built-ins
 * ("raw", "vonneumann", "sha256", "health" -- see registerStage()).
 *
 * Stages may hold state across chunks (the von Neumann corrector
 * carries its half-pair; the SP 800-90B health stage carries test
 * windows), so a pipeline is reset() at session start and finish()ed at
 * session end. The pipeline keeps per-stage entropy accounting --
 * bits in/out and the Shannon entropy of each stage's input and output
 * streams -- surfaced through core::StreamingStats.
 *
 * A pipeline runs on one thread at a time, and conditioning is a small
 * share of harvest cost: chunks are handed between stages by move, and
 * the von Neumann corrector is word-parallel (32 bit-pairs per 64-bit
 * word).
 */

#ifndef DRANGE_TRNG_CONDITIONING_HH
#define DRANGE_TRNG_CONDITIONING_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trng/params.hh"
#include "util/bitstream.hh"

namespace drange::trng {

/** Per-stage entropy accounting over one session. */
struct StageAccounting
{
    std::string stage;           //!< Stage name().
    std::uint64_t in_bits = 0;   //!< Bits fed into the stage.
    std::uint64_t out_bits = 0;  //!< Bits the stage emitted.
    std::uint64_t in_ones = 0;   //!< Population count of the input.
    std::uint64_t out_ones = 0;  //!< Population count of the output.
    std::uint64_t health_failures = 0; //!< Health-test alarms raised.

    /** Shannon entropy (bits/bit) of the stage's input stream. */
    double inEntropy() const;
    /** Shannon entropy (bits/bit) of the stage's output stream. */
    double outEntropy() const;
};

/**
 * One conditioning step. Implementations must be deterministic
 * functions of the bits they have consumed since the last reset().
 */
class ConditioningStage
{
  public:
    virtual ~ConditioningStage() = default;

    /** Registry name of the stage ("vonneumann", "sha256", ...). */
    virtual std::string name() const = 0;

    /** Condition one chunk; may emit fewer/more bits than consumed,
     * including none (state accumulates until a later chunk). */
    virtual util::BitStream process(const util::BitStream &chunk) = 0;

    /**
     * Move-aware variant of process() for the zero-copy hand-off path:
     * the caller cedes ownership of @p chunk. The default forwards to
     * process(); pass-through stages (Raw) override it to move the
     * chunk instead of copying it.
     */
    virtual util::BitStream processOwned(util::BitStream chunk)
    {
        return process(chunk);
    }

    /**
     * True promises process() is a pure function of its chunk, with no
     * state carried across calls (SHA-256, Raw). Nothing in the library
     * schedules on it; it stays part of the interface because stage
     * wrappers built against it (servicebench's timing stages) forward
     * it to the stage they wrap.
     */
    virtual bool chunkLocal() const { return false; }

    /** Flush bits still buffered at session end (default: none). */
    virtual util::BitStream finish() { return {}; }

    /** Drop all carried state; called at session start. */
    virtual void reset() {}

    /** False once the stage has raised a permanent alarm (health
     * tests); healthy stages always return true. */
    virtual bool healthy() const { return true; }

    /** Alarms raised since reset() (health tests; 0 otherwise). */
    virtual std::uint64_t failures() const { return 0; }
};

/**
 * An ordered list of stages. Chunks flow through the stages in
 * composition order; accounting() reports bits/entropy at every
 * stage boundary.
 */
class ConditioningPipeline
{
  public:
    ConditioningPipeline() = default;
    explicit ConditioningPipeline(
        std::vector<std::unique_ptr<ConditioningStage>> stages);

    ConditioningPipeline(ConditioningPipeline &&) = default;
    ConditioningPipeline &operator=(ConditioningPipeline &&) = default;

    /** Append @p stage to the end of the pipeline. */
    void addStage(std::unique_ptr<ConditioningStage> stage);

    bool empty() const { return stages_.empty(); }
    std::size_t size() const { return stages_.size(); }

    /** Run @p chunk through every stage in order. */
    util::BitStream process(const util::BitStream &chunk);

    /** Move-aware overload: no copy on the pass-through (Raw) path. */
    util::BitStream process(util::BitStream &&chunk);

    /** Flush every stage in order, feeding flushed bits downstream. */
    util::BitStream finish();

    /** Reset every stage and zero the accounting. */
    void reset();

    /** True while every stage is healthy. */
    bool healthy() const;

    /** Per-stage accounting since the last reset(). */
    const std::vector<StageAccounting> &accounting() const
    {
        return accounting_;
    }

    const ConditioningStage &stage(std::size_t idx) const
    {
        return *stages_.at(idx);
    }

  private:
    util::BitStream run(std::size_t first_stage, util::BitStream bits);

    std::vector<std::unique_ptr<ConditioningStage>> stages_;
    std::vector<StageAccounting> accounting_;
};

/** Identity stage: passes chunks through unchanged. */
class RawStage final : public ConditioningStage
{
  public:
    std::string name() const override { return "raw"; }
    util::BitStream process(const util::BitStream &chunk) override
    {
        return chunk;
    }
    util::BitStream processOwned(util::BitStream chunk) override
    {
        return chunk; // Pass-through: keep the caller's buffer.
    }
    bool chunkLocal() const override { return true; }
};

/**
 * Von Neumann corrector as a stage: consumes bit pairs, emits 0 for
 * 01 and 1 for 10, nothing for 00/11; the half-pair carries across
 * chunk boundaries so output is chunking-invariant.
 */
class VonNeumannStage final : public ConditioningStage
{
  public:
    std::string name() const override { return "vonneumann"; }
    util::BitStream process(const util::BitStream &chunk) override;
    void reset() override { have_half_ = false; }

  private:
    bool have_half_ = false;
    bool half_ = false;
};

/** SHA-256 stage: each input chunk conditions independently to one
 * 256-bit digest (chunk-local). */
class Sha256Stage final : public ConditioningStage
{
  public:
    std::string name() const override { return "sha256"; }
    util::BitStream process(const util::BitStream &chunk) override;
    bool chunkLocal() const override { return true; }
};

/**
 * Register a stage factory under @p name so makeStage() (and therefore
 * StreamingConfig::conditioning / the "drange" source's "conditioning"
 * key) can build it from flat configuration. Returns false (without
 * replacing) when the name is taken. The built-ins self-register.
 */
bool registerStage(
    const std::string &name,
    std::unique_ptr<ConditioningStage> (*factory)(const Params &));

/**
 * Build the stage registered under @p name.
 * @throws std::invalid_argument (naming the known stages) when
 *         @p name is not registered.
 */
std::unique_ptr<ConditioningStage> makeStage(const std::string &name,
                                             const Params &params = {});

/** Names of every registered stage, sorted. */
std::vector<std::string> stageNames();

/**
 * Build a pipeline from a list of stage names (see makeStage());
 * @p params is handed to every stage factory.
 */
ConditioningPipeline makePipeline(const std::vector<std::string> &names,
                                  const Params &params = {});

} // namespace drange::trng

#endif // DRANGE_TRNG_CONDITIONING_HH
