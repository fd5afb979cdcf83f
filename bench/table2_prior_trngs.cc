/**
 * @file
 * Regenerates paper Table 2: comparison of D-RaNGe with the prior
 * DRAM-based TRNG proposals, all measured on the same simulated DRAM
 * substrate — command-schedule jitter (Pyo+), retention failures
 * (Keller+ / Sutar+), and startup values (Tehranipoor+) — in terms of
 * true-randomness, streaming capability, 64-bit latency, energy, and
 * peak throughput.
 *
 * Every proposal is driven through the unified trng::EntropySource
 * interface: one registry-driven loop replaces the former per-baseline
 * blocks, with the mechanism differences reduced to a name, a Params
 * bag, and per-row presentation notes. Latency, energy, and
 * throughput all come from the uniform SourceStats view.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "nist/nist.hh"
#include "trng/registry.hh"
#include "util/table.hh"

using namespace drange;

namespace {

/** Quick true-randomness verdict: a core NIST subset at alpha 0.01. */
bool
looksTrulyRandom(const util::BitStream &bits)
{
    return nist::monobit(bits).pass(0.01) &&
           nist::runs(bits).pass(0.01) &&
           nist::serial(bits, 8).pass(0.01) &&
           nist::approximateEntropy(bits, 6).pass(0.01);
}

/** Table 2 presentation for one registry source: citation columns,
 * measurement Params, and projection notes. The bench iterates
 * trng::Registry::names() and looks each name up here, so a newly
 * registered backend shows up (as unpresented) instead of being
 * silently skipped by a hard-coded list. */
struct Row
{
    std::string proposal;      //!< Paper citation column.
    std::string entropy_source; //!< Mechanism column.
    trng::Params params;
    std::size_t request_bits;  //!< Bits asked of generate().
    double throughput_scale = 1.0; //!< System-level projection factor.
    std::string throughput_note;   //!< Suffix for the scaled column.
    std::string energy_note;   //!< Overrides energy when stats lack it.
    std::string paper_tput;    //!< Paper-reported reference value.
};

std::string
formatLatency(double ns)
{
    if (ns >= 1e7)
        return util::Table::num(ns / 1e9, ns >= 1e9 ? 0 : 1) + " s";
    if (ns >= 1e3)
        return util::Table::num(ns / 1e3, 1) + " us";
    return util::Table::num(ns, 0) + " ns";
}

std::string
formatEnergy(double nj_per_bit, const std::string &fallback)
{
    if (!std::isfinite(nj_per_bit))
        return fallback.empty() ? "N/A" : fallback;
    if (nj_per_bit >= 1e5)
        return util::Table::num(nj_per_bit * 1e-6, 1) + " mJ/b";
    return util::Table::num(nj_per_bit, 1) + " nJ/b";
}

trng::Params
benchParams(std::uint64_t seed)
{
    // The shared simulated substrate: manufacturer-A dies with the
    // bench geometry (bench::benchDevice) and fresh noise per run.
    return trng::Params{}
        .set("manufacturer", "A")
        .set("seed", static_cast<std::int64_t>(seed))
        .set("rows_per_bank", 8192);
}

trng::Params
drangeBenchParams(std::uint64_t seed)
{
    // bench::benchTrngConfig(8) as flat params.
    return benchParams(seed)
        .set("banks", 8)
        .set("profile_rows", 256)
        .set("profile_words", 24)
        .set("screen_iterations", 60)
        .set("samples", 600)
        .set("symbol_tolerance", 0.15);
}

} // namespace

int
main()
{
    bench::banner("Table 2",
                  "Comparison with prior DRAM-based TRNGs (all "
                  "measured on the same simulated substrate, via the "
                  "unified trng::EntropySource registry)");

    // Scale the retention per-block rate to a 32 GiB system hashing
    // 4 MiB blocks in parallel, as the paper's estimate does.
    const double retention_blocks = 32.0 * 1024.0 / 4.0;

    // Presentation per registry name.
    const std::map<std::string, Row> presentation = {
        {"cmdsched",
         {"Pyo+ [116]", "Command Schedule", benchParams(41), 65536,
          1.0, "", "", "3.40 Mb/s"}},
        // 2048 bits (8 hashed waits): enough for a stable NIST
        // verdict; the per-block throughput is wait-bound either way.
        {"retention",
         {"Keller+/Sutar+", "Data Retention",
          benchParams(43).set("temperature_c", 70.0).set("rows", 128),
          2048, retention_blocks, " (32GiB)", "", "0.05 Mb/s"}},
        {"startup",
         {"Tehranipoor+ [144]", "Startup Values",
          benchParams(47).set("rows", 32), 2048, 1.0, "",
          "~0.25 nJ/b*", "N/A (not streaming)"}},
        {"drange",
         {"D-RaNGe", "Activation Failures", drangeBenchParams(53),
          100000, 1.0, "", "", "717.4 Mb/s (4ch)"}},
    };

    util::Table table({"Proposal", "Entropy Source", "TrueRandom",
                       "Streaming", "64b Latency", "Energy",
                       "Peak Throughput", "Paper Tput"});

    std::vector<std::string> unpresented;
    for (const std::string &name : trng::Registry::names()) {
        const auto it = presentation.find(name);
        if (it == presentation.end()) {
            unpresented.push_back(
                name + " (" + trng::Registry::description(name) + ")");
            continue;
        }
        const Row &row = it->second;
        auto source = trng::Registry::make(name, row.params);
        const auto bits = source->generate(row.request_bits);
        const auto stats = source->stats();

        table.addRow(
            {row.proposal, row.entropy_source,
             looksTrulyRandom(bits) ? "yes" : "NO",
             source->info().streaming ? "yes" : "NO (reboot per batch)",
             formatLatency(stats.latency64_ns),
             formatEnergy(stats.energy_nj_per_bit, row.energy_note),
             util::Table::num(stats.throughputMbps() *
                                  row.throughput_scale,
                              row.throughput_scale > 1.0 ? 3 : 2) +
                 " Mb/s" + row.throughput_note,
             row.paper_tput});
    }

    std::printf("%s", table.toString().c_str());
    for (const std::string &name : unpresented)
        std::printf("(registered source without a Table 2 row: %s)\n",
                    name.c_str());
    std::printf("\n* startup-value energy excludes the DRAM "
                "initialization the reboot itself costs (paper makes "
                "the same optimistic assumption).\n");
    std::printf("\nPaper reference (Table 2): D-RaNGe outperforms the "
                "best prior DRAM TRNG by >2 orders of magnitude in "
                "throughput; command-schedule TRNGs are not fully "
                "non-deterministic; retention TRNGs cost ~40 s and "
                "~mJ/bit; startup-value TRNGs cannot stream.\n");
    return 0;
}
