#include "core/drange.hh"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/streaming.hh"
#include "dram/direct_host.hh"

namespace drange::core {

DRangeTrng::DRangeTrng(dram::DramDevice &device, const DRangeConfig &config)
    : device_(device), config_(config),
      pattern_(config.pattern.value_or(
          DataPattern::bestFor(device.config().manufacturer)))
{
    regs_ = std::make_unique<ctrl::TimingRegisterFile>(
        device.config().timing);
    scheduler_ = std::make_unique<ctrl::CommandScheduler>(device, *regs_);
}

void
DRangeTrng::initialize()
{
    selection_.clear();
    const auto &geom = device_.config().geometry;
    const int banks = std::min(config_.banks, geom.banks);

    dram::DirectHost host(device_);
    RngCellIdentifier identifier(host);

    // Identify at the exact timing generation will use: a cell's
    // failure probability depends on the sampled tRCD.
    IdentifyParams params = config_.identify;
    params.trcd_ns = config_.reduced_trcd_ns;

    for (int bank = 0; bank < banks; ++bank) {
        // Expand the profiled region until two suitable rows are found
        // (every bank has RNG-cell words, paper Figure 7, but a small
        // region may miss them).
        std::vector<RngCell> cells;
        int rows = config_.profile_rows;
        for (int attempt = 0; attempt < 4; ++attempt) {
            dram::Region region;
            region.bank = bank;
            region.row_begin = config_.profile_row_offset;
            region.row_end = std::min(geom.rows_per_bank,
                                      region.row_begin + rows);
            region.word_begin = 0;
            region.word_end = std::min(geom.words_per_row,
                                       config_.profile_words);
            cells = identifier.identify(region, pattern_, params);

            // Need RNG cells in at least two distinct rows.
            std::map<int, int> rows_seen;
            for (const auto &c : cells)
                ++rows_seen[c.word.row];
            if (rows_seen.size() >= 2)
                break;
            rows *= 2;
        }

        // Group by word, then pick the two densest words in distinct
        // rows (Algorithm 2 line 3).
        std::map<std::pair<int, int>, std::vector<int>> by_word;
        for (const auto &c : cells)
            by_word[{c.word.row, c.word.word}].push_back(c.bit);

        std::vector<std::pair<std::pair<int, int>, std::vector<int>>>
            ranked(by_word.begin(), by_word.end());
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      return a.second.size() > b.second.size();
                  });

        if (ranked.empty())
            continue; // Bank contributes nothing.

        BankSelection sel;
        sel.bank = bank;
        sel.words[0] = {bank, ranked[0].first.first,
                        ranked[0].first.second};
        sel.bits[0] = ranked[0].second;

        bool found_second = false;
        for (std::size_t i = 1; i < ranked.size(); ++i) {
            if (ranked[i].first.first != sel.words[0].row) {
                sel.words[1] = {bank, ranked[i].first.first,
                                ranked[i].first.second};
                sel.bits[1] = ranked[i].second;
                found_second = true;
                break;
            }
        }
        if (!found_second)
            continue; // Cannot alternate rows in this bank; skip it.

        for (int d = 0; d < 2; ++d) {
            sel.pattern_word[d] =
                pattern_.wordAt(sel.words[d].row, sel.words[d].word);
        }
        selection_.push_back(std::move(sel));
    }

    if (selection_.empty()) {
        throw std::runtime_error(
            "D-RaNGe: no RNG-cell words found in the profiled regions");
    }
}

std::size_t
DRangeTrng::activeCount() const
{
    if (active_banks_ <= 0)
        return selection_.size();
    return std::min<std::size_t>(active_banks_, selection_.size());
}

int
DRangeTrng::bitsPerRound() const
{
    int bits = 0;
    for (std::size_t i = 0; i < activeCount(); ++i)
        bits += selection_[i].cellsTotal();
    return bits;
}

void
DRangeTrng::setActiveBanks(int n)
{
    active_banks_ = n;
}

int
DRangeTrng::activeBanks() const
{
    return static_cast<int>(activeCount());
}

void
DRangeTrng::writePatternRows(int bank, int row)
{
    const auto &geom = device_.config().geometry;
    const int lo = std::max(0, row - 1);
    const int hi = std::min(geom.rows_per_bank - 1, row + 1);
    for (int r = lo; r <= hi; ++r) {
        scheduler_->activate(bank, r);
        for (int w = 0; w < geom.words_per_row; ++w)
            scheduler_->write(bank, w, pattern_.wordAt(r, w));
        scheduler_->precharge(bank);
    }
}

void
DRangeTrng::enterSamplingMode()
{
    // Algorithm 2 lines 2-6: write the pattern to the chosen words and
    // their neighbours at default timing, then reduce tRCD. The writes
    // span many tREFI, so they run as a maintenance window: the
    // refresh backstop stays out until the first post-round tick.
    const bool auto_refresh = scheduler_->autoRefresh();
    scheduler_->setAutoRefresh(false);
    regs_->restoreDefaultTrcd();
    for (std::size_t i = 0; i < activeCount(); ++i)
        for (int d = 0; d < 2; ++d)
            writePatternRows(selection_[i].bank,
                             selection_[i].words[d].row);
    regs_->setReducedTrcd(config_.reduced_trcd_ns);
    scheduler_->setAutoRefresh(auto_refresh);
}

void
DRangeTrng::exitSamplingMode()
{
    regs_->restoreDefaultTrcd();
}

void
DRangeTrng::setReducedTiming(bool on)
{
    if (on)
        regs_->setReducedTrcd(config_.reduced_trcd_ns);
    else
        regs_->restoreDefaultTrcd();
}

int
DRangeTrng::runRound(util::BitStream &out)
{
    int harvested = 0;
    const std::size_t n = activeCount();
    // Issue each bank's READ immediately after its ACT so the reduced
    // tRCD is hit exactly (the READ is the timing-critical command);
    // the ACT/RD pairs of different banks still pipeline at tRRD / tCCD
    // spacing, and the WRITE/PRE tails are batched per phase.
    for (int d = 0; d < 2; ++d) {
        for (std::size_t i = 0; i < n; ++i) {
            const auto &sel = selection_[i];
            scheduler_->activate(sel.bank, sel.words[d].row);
            std::uint64_t value = 0;
            scheduler_->read(sel.bank, sel.words[d].word, value);
            ++stats_.reads;
            // Gather the word's RNG-cell bits locally and append them
            // in one word-level operation (a word holds at most ~4
            // cells, paper Figure 7, so one gather always suffices).
            std::uint64_t gathered = 0;
            int count = 0;
            for (int bit : sel.bits[d]) {
                gathered |= ((value >> bit) & 1) << count;
                ++count;
            }
            out.appendBits(gathered, count);
            harvested += count;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const auto &sel = selection_[i];
            // Restore the pattern; the memory barrier of Algorithm 2
            // line 11 is implicit in write-recovery timing.
            scheduler_->write(sel.bank, sel.words[d].word,
                              sel.pattern_word[d]);
        }
        for (std::size_t i = 0; i < n; ++i)
            scheduler_->precharge(selection_[i].bank);
    }
    scheduler_->refreshTick();
    return harvested;
}

util::BitStream
DRangeTrng::generate(std::size_t num_bits)
{
    if (selection_.empty())
        throw std::logic_error("D-RaNGe: initialize() before generate()");
    // Guard the harvest loop against zero progress: with no RNG-cell
    // bits per round it would never reach num_bits.
    if (bitsPerRound() <= 0) {
        throw std::logic_error(
            "D-RaNGe: active banks harvest zero RNG-cell bits per "
            "round; generate() would loop forever");
    }

    // Thin drain of the streaming pipeline: one producer thread runs
    // the same rounds the old harvest loop ran (so the output is
    // bit-identical), and this thread consumes the raw chunks.
    stats_ = GenerationStats{};

    StreamingTrng stream(*this);
    util::BitStream out = stream.generate(num_bits);

    const ProducerStats &ps = stream.producerStats(0);
    stats_.bits = ps.bits;
    stats_.rounds = ps.rounds;
    stats_.start_ns = ps.start_ns;
    stats_.end_ns = ps.end_ns;
    stats_.first_word_ns = ps.first_word_ns;
    // stats_.reads was incremented by runRound on the producer thread.
    return out;
}

util::BitStream
vonNeumannCorrect(const util::BitStream &in)
{
    util::BitStream out;
    for (std::size_t i = 0; i + 1 < in.size(); i += 2) {
        const bool a = in.at(i);
        const bool b = in.at(i + 1);
        if (a != b)
            out.append(b ? false : true); // 01 -> 0, 10 -> 1.
    }
    return out;
}

} // namespace drange::core
