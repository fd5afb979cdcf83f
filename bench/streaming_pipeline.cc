/**
 * @file
 * Streaming pipeline: overlapped harvest + conditioning + validation
 * versus the sequential generate-then-postprocess baseline.
 *
 * The baseline harvests the full buffer with the batch generate()
 * API, then runs per-chunk NIST validation and SHA-256 conditioning
 * serially afterwards -- nothing overlaps. The streaming run drives
 * the same engines through core::StreamingTrng: producer threads
 * harvest while this thread validates and conditions each chunk as it
 * arrives, so post-processing hides inside the harvest time (and vice
 * versa). Both paths execute the identical deterministic round plan
 * and post-process the identical chunk boundaries (the streaming
 * run's round-aligned chunks), so the raw streams are bit-identical
 * and the per-chunk work is equal -- the comparison isolates the host
 * wall-clock benefit of overlap.
 *
 * Overlap needs at least two host cores; on a single-core host the
 * bench still verifies bit-identity but reports the pipeline as
 * serialized instead of failing.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/multichannel.hh"
#include "core/streaming.hh"
#include "nist/nist.hh"
#include "trng/conditioning.hh"
#include "util/sha256.hh"
#include "util/table.hh"

using namespace drange;

namespace {

constexpr int kChannels = 4;
constexpr std::size_t kBits = 400000;
constexpr std::size_t kChunkBits = 65536;

int
validateThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 2 ? 2 : 1;
}

core::MultiChannelTrng
makeTrng()
{
    // Non-zero noise seed: replay the same dies in both runs.
    core::MultiChannelTrng trng(
        bench::benchDevice(dram::Manufacturer::A, 500, 91), kChannels,
        bench::benchTrngConfig(8));
    trng.initialize();
    trng.generate(kBits / 8); // Warm the lazy cell caches.
    return trng;
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-chunk post-processing shared by both paths. */
std::size_t
validateAndCondition(const util::BitStream &chunk, std::size_t &failures)
{
    const auto results = nist::runAllParallel(chunk, validateThreads());
    for (const auto &result : results)
        if (!result.pass())
            ++failures;
    const auto digest = util::Sha256::hash(chunk.toBytesMsbFirst());
    return digest.size() * 8;
}

struct PathResult
{
    double harvest_ms = 0.0; //!< Pure harvest time (baseline only).
    double total_ms = 0.0;
    std::size_t raw_bits = 0;
    std::size_t out_bits = 0;
    std::size_t chunks = 0;
    std::size_t failures = 0;
    util::BitStream raw;
    std::vector<std::size_t> chunk_sizes;
};

PathResult
runStreaming(core::MultiChannelTrng &trng)
{
    core::StreamingConfig cfg;
    cfg.chunk_bits = kChunkBits;
    cfg.queue_capacity = 8;

    core::StreamingTrng stream(trng, cfg);
    PathResult r;
    const double t0 = nowMs();
    stream.start(kBits);
    while (auto chunk = stream.nextChunk()) {
        r.out_bits += validateAndCondition(*chunk, r.failures);
        ++r.chunks;
        r.raw_bits += chunk->size();
        r.chunk_sizes.push_back(chunk->size());
        r.raw.append(*chunk);
    }
    stream.stop();
    r.total_ms = nowMs() - t0;
    return r;
}

/** Sequential reference: batch-generate, then post-process the same
 * chunk boundaries the streaming run produced. */
PathResult
runBaseline(core::MultiChannelTrng &trng,
            const std::vector<std::size_t> &chunk_sizes)
{
    PathResult r;
    const double t0 = nowMs();
    std::size_t total = 0;
    for (std::size_t size : chunk_sizes)
        total += size;
    r.raw = trng.generate(total); // Exact-size drain of the same plan.
    r.harvest_ms = nowMs() - t0;

    std::size_t off = 0;
    for (std::size_t size : chunk_sizes) {
        const auto chunk = r.raw.slice(off, size);
        off += size;
        r.out_bits += validateAndCondition(chunk, r.failures);
        ++r.chunks;
        r.raw_bits += size;
    }
    r.total_ms = nowMs() - t0;
    return r;
}

/** Cut @p raw back into the streaming run's chunk boundaries. */
std::vector<util::BitStream>
rechunk(const util::BitStream &raw,
        const std::vector<std::size_t> &chunk_sizes)
{
    std::vector<util::BitStream> chunks;
    std::size_t off = 0;
    for (std::size_t size : chunk_sizes) {
        chunks.push_back(raw.slice(off, size));
        off += size;
    }
    return chunks;
}

/** One serial pass of @p chunks through a fresh stage, timed. */
struct StageTiming
{
    double ms = 0.0;
    std::size_t out_bits = 0;
    util::BitStream out;
};

StageTiming
timeStage(const std::string &name,
          const std::vector<util::BitStream> &chunks)
{
    auto stage = trng::makeStage(name);
    StageTiming t;
    const double t0 = nowMs();
    for (const auto &chunk : chunks)
        t.out.append(stage->process(chunk));
    t.out.append(stage->finish());
    t.ms = nowMs() - t0;
    t.out_bits = t.out.size();
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned cores = std::thread::hardware_concurrency();
    bench::BenchReport report("streaming_pipeline", argc, argv);
    bench::banner("Streaming generation pipeline",
                  "Sequential generate-then-postprocess vs. overlapped "
                  "harvest/conditioning");

    std::printf("channels: %d, request: %zu bits, chunk: %zu bits, "
                "host threads: %u\n\n",
                kChannels, kBits, kChunkBits, cores);

    auto streaming_trng = makeTrng();
    const PathResult streaming = runStreaming(streaming_trng);

    auto baseline_trng = makeTrng();
    const PathResult baseline =
        runBaseline(baseline_trng, streaming.chunk_sizes);

    util::Table table({"path", "harvest ms", "post ms", "total ms",
                       "chunks", "NIST fails"});
    table.addRow({"sequential (generate, then condition)",
                  util::Table::num(baseline.harvest_ms, 1),
                  util::Table::num(
                      baseline.total_ms - baseline.harvest_ms, 1),
                  util::Table::num(baseline.total_ms, 1),
                  std::to_string(baseline.chunks),
                  std::to_string(baseline.failures)});
    table.addRow({"streaming (overlapped)", "-", "-",
                  util::Table::num(streaming.total_ms, 1),
                  std::to_string(streaming.chunks),
                  std::to_string(streaming.failures)});
    std::printf("%s", table.toString().c_str());

    // Both paths drain the identical round plan; the baseline's total
    // equals the streaming session's raw size, so the streams must
    // match bit for bit.
    const bool identical =
        streaming.raw.size() == baseline.raw.size() &&
        streaming.raw.words() == baseline.raw.words();

    const double speedup = streaming.total_ms > 0.0
                               ? baseline.total_ms / streaming.total_ms
                               : 0.0;
    std::printf("\nraw streams bit-identical: %s\n",
                identical ? "yes" : "NO (BUG)");
    std::printf("overlap speedup (total wall-clock): %.2fx "
                "(upper bound (H+P)/max(H,P) = %.2fx)\n",
                speedup,
                (baseline.total_ms) /
                    std::max(baseline.harvest_ms,
                             baseline.total_ms - baseline.harvest_ms));

    // ----------------------------------------------------------------
    // Conditioning plane: the same raw chunks through each stage alone
    // and through the vonneumann+sha256 pipeline, all serial.
    const auto chunks = rechunk(streaming.raw, streaming.chunk_sizes);
    const std::vector<std::string> stage_names = {"vonneumann",
                                                  "sha256"};

    const StageTiming vn = timeStage("vonneumann", chunks);
    const StageTiming sha = timeStage("sha256", chunks);
    const double vn_mbps =
        vn.ms > 0.0 ? streaming.raw.size() / (vn.ms * 1e3) : 0.0;

    auto serial_pipeline = trng::makePipeline(stage_names);
    serial_pipeline.reset();
    StageTiming serial;
    {
        const double t0 = nowMs();
        for (const auto &chunk : chunks)
            serial.out.append(serial_pipeline.process(chunk));
        serial.out.append(serial_pipeline.finish());
        serial.ms = nowMs() - t0;
    }

    std::printf("\nconditioning plane (%zu chunks, %zu raw bits):\n",
                chunks.size(), streaming.raw.size());
    util::Table stage_table(
        {"stage", "ms", "in Mb/s", "out bits"});
    stage_table.addRow({"vonneumann (word-parallel)",
                        util::Table::num(vn.ms, 2),
                        util::Table::num(vn_mbps, 1),
                        std::to_string(vn.out_bits)});
    stage_table.addRow(
        {"sha256", util::Table::num(sha.ms, 2),
         util::Table::num(sha.ms > 0.0 ? streaming.raw.size() /
                                             (sha.ms * 1e3)
                                       : 0.0,
                          1),
         std::to_string(sha.out_bits)});
    std::printf("%s", stage_table.toString().c_str());

    std::printf("vonneumann+sha256 pipeline: %.2f ms\n", serial.ms);

    // Both totals depend on how many producer/validation threads the
    // host can actually run in parallel, which the single-threaded
    // calibration loop cannot normalize: report, don't gate.
    report.add("baseline_total_ms", baseline.total_ms, "ms",
               bench::BenchReport::Better::Lower, /*host=*/true,
               /*enforced=*/false);
    report.add("streaming_total_ms", streaming.total_ms, "ms",
               bench::BenchReport::Better::Lower, /*host=*/true,
               /*enforced=*/false);
    report.add("overlap_speedup", speedup, "x",
               bench::BenchReport::Better::Higher);
    report.add("raw_streams_identical", identical ? 1.0 : 0.0, "bool",
               bench::BenchReport::Better::Higher);
    // Conditioning-plane metrics: host wall-clock of the word-parallel
    // von Neumann kernel and of the serial pipeline.
    report.add("vonneumann_mbps", vn_mbps, "Mb/s",
               bench::BenchReport::Better::Higher, /*host=*/true,
               /*enforced=*/false);
    report.add("conditioning_serial_ms", serial.ms, "ms",
               bench::BenchReport::Better::Lower, /*host=*/true,
               /*enforced=*/false);
    report.write();

    const bool overlap_wins = streaming.total_ms < baseline.total_ms;
    if (cores < 2) {
        std::printf("\nsingle host core: producer and consumer serialize, "
                    "so no overlap win is possible here; on a multi-core "
                    "host the streaming path approaches max(H, P).\n");
        return identical ? 0 : 1;
    }
    std::printf("overlap beats sequential baseline: %s\n",
                overlap_wins ? "yes" : "NO");
    return identical && overlap_wins ? 0 : 1;
}
