#include "dram/device.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace drange::dram {

namespace {

/** Below this probability, per-bit evaluation is skipped entirely. */
const double kNegligibleFailureProb = 1e-9;

/** Per-bit failure probabilities below this consume no noise draw
 * (matches the cell model's fixed-point fill). */
const double kNegligibleDrawProb = 1e-12;

/** Retention decay is only evaluated for gaps longer than this. */
const double kMinDecayGapNs = 1e7; // 10 ms

/**
 * Quantized anti-neighbour bucket index by (neighbour count, count of
 * anti-coupled neighbours): lround(4 * anti / n), n in 0..4.
 */
constexpr int kAntiIdx[5][5] = {
    {0, 0, 0, 0, 0}, // n = 0 (degenerate single-cell geometry)
    {0, 4, 0, 0, 0}, // n = 1
    {0, 2, 4, 0, 0}, // n = 2
    {0, 1, 3, 4, 0}, // n = 3 (lround(4/3) = 1, lround(8/3) = 3)
    {0, 1, 2, 3, 4}, // n = 4
};

} // anonymous namespace

DramDevice::DramDevice(const DeviceConfig &config)
    : config_(config), model_(config),
      noise_(config.noise_seed != 0 ? util::Xoshiro256ss(config.noise_seed)
                                    : util::Xoshiro256ss()),
      banks_(config.geometry.banks),
      temperature_c_(config.conditions.temperature_c)
{
    // The word-granular hot path stores one bitmask lane per word; the
    // pre-existing bit addressing (peekBit, columns) already assumes
    // 64-bit words, so the invariant is simply made explicit here.
    assert(config.geometry.bits_per_word == 64 &&
           "DramDevice requires 64-bit words");
    for (auto &bank : banks_)
        bank.rows.resize(config.geometry.rows_per_bank);
    startup_epoch_ = noise_.next();
}

bool
DramDevice::isOpen(int bank) const
{
    return banks_.at(bank).open_row >= 0;
}

int
DramDevice::openRow(int bank) const
{
    return banks_.at(bank).open_row;
}

DramDevice::RowData &
DramDevice::materialize(int bank, int row, double now_ns)
{
    auto &slot = banks_.at(bank).rows.at(row);
    if (slot)
        return *slot;

    auto data = std::make_unique<RowData>();
    data->words.resize(config_.geometry.words_per_row);
    data->last_refresh_ns = now_ns;
    const CellModel::StartupRow &sr = model_.startupRow(bank, row);
    for (int w = 0; w < config_.geometry.words_per_row; ++w) {
        const std::uint64_t value =
            model_.startupWord(sr, bank, row, w, startup_epoch_);
        data->words[w] = value;
        data->ones += std::popcount(value);
    }
    slot = std::move(data);
    return *slot;
}

void
DramDevice::applyRetention(int bank, int row, RowData &data, double now_ns)
{
    const double last = std::max(data.last_refresh_ns, global_refresh_ns_);
    const double gap_ns = now_ns - last;
    if (auto_refresh_ || gap_ns < kMinDecayGapNs) {
        data.last_refresh_ns = now_ns;
        return;
    }

    const double elapsed_s = gap_ns * 1e-9;
    // Whole-row early-out: if even the leakiest cell of the row (with a
    // generous VRT allowance) outlives the gap, nothing can have
    // decayed and the per-bit scan (and its noise draws) is skipped.
    if (elapsed_s <
        model_.rowRetentionFloorSeconds(bank, row, temperature())) {
        data.last_refresh_ns = now_ns;
        return;
    }

    const double vrt = model_.profile().retention_vrt_sigma;
    const bool true_cell = CellModel::isTrueCell({bank, row, 0});
    for (int w = 0; w < config_.geometry.words_per_row; ++w) {
        // Only charged cells leak: true rows store charge for 1s, anti
        // rows for 0s, so the eligible bits of a word are one mask op.
        std::uint64_t charged =
            true_cell ? data.words[w] : ~data.words[w];
        while (charged != 0) {
            const int b = std::countr_zero(charged);
            charged &= charged - 1;
            const long long col = static_cast<long long>(w) * 64 + b;
            const CellAddress addr{bank, row, col};
            double t_ret = model_.retentionSeconds(addr, temperature());
            // Variable retention time: per-trial lognormal jitter.
            t_ret *= std::pow(10.0, vrt * noise_.nextGaussian());
            if (elapsed_s > t_ret) {
                const bool stored = (data.words[w] >> b) & 1;
                data.words[w] ^= (std::uint64_t{1} << b);
                data.ones += stored ? -1 : 1;
                ++counters_.retention_failures;
            }
        }
    }
    data.last_refresh_ns = now_ns;
}

void
DramDevice::activate(double now_ns, int bank, int row)
{
    assert(row >= 0 && row < config_.geometry.rows_per_bank);
    BankState &bs = banks_.at(bank);
    assert(bs.open_row < 0 && "ACT to a bank with an open row");

    RowData &data = materialize(bank, row, now_ns);
    applyRetention(bank, row, data, now_ns);

    bs.open_row = row;
    bs.act_time_ns = now_ns;
    bs.first_read_done = false;
    ++counters_.activates;
}

void
DramDevice::precharge(double now_ns, int bank)
{
    (void)now_ns;
    BankState &bs = banks_.at(bank);
    bs.open_row = -1;
    ++counters_.precharges;
}

void
DramDevice::prechargeAll(double now_ns)
{
    for (int b = 0; b < config_.geometry.banks; ++b)
        precharge(now_ns, b);
}

SenseContext
DramDevice::buildContext(int bank, int row, long long column, bool stored,
                         const RowData &data, double now_ns)
{
    SenseContext ctx;
    ctx.stored = stored;
    ctx.temperature_c = temperature();

    // Physical neighbours: same-row adjacent bitlines and adjacent rows
    // on the same bitline. Rows are pre-materialized by the caller.
    int neighbors = 0, anti = 0;
    const long long row_bits = config_.geometry.rowBits();
    auto check = [&](bool value) {
        ++neighbors;
        if (value != stored)
            ++anti;
    };
    if (column > 0) {
        const int w = static_cast<int>((column - 1) / 64);
        check((data.words[w] >> ((column - 1) % 64)) & 1);
    }
    if (column + 1 < row_bits) {
        const int w = static_cast<int>((column + 1) / 64);
        check((data.words[w] >> ((column + 1) % 64)) & 1);
    }
    if (row > 0)
        check(peekBit(bank, row - 1, column));
    if (row + 1 < config_.geometry.rows_per_bank)
        check(peekBit(bank, row + 1, column));
    ctx.anti_neighbor_frac =
        neighbors > 0 ? static_cast<double>(anti) / neighbors : 0.0;

    const double ones_frac = static_cast<double>(data.ones) /
                             static_cast<double>(row_bits);
    ctx.same_direction_frac = stored ? ones_frac : 1.0 - ones_frac;
    (void)now_ns;
    return ctx;
}

bool
DramDevice::weakOnly(double elapsed_ns)
{
    const double temp_c = temperature();
    if (elapsed_ns != screen_elapsed_ns_ || temp_c != screen_temp_c_) {
        screen_elapsed_ns_ = elapsed_ns;
        screen_temp_c_ = temp_c;
        screen_weak_only_ =
            model_.strongColumnCeiling(elapsed_ns, temp_c) <
            kNegligibleFailureProb;
    }
    return screen_weak_only_;
}

void
DramDevice::evaluateBitScalar(double now_ns, int bank, int row, int word,
                              int bit, double elapsed_ns, RowData &data,
                              std::uint64_t &value)
{
    const long long col = static_cast<long long>(word) * 64 + bit;
    const CellAddress addr{bank, row, col};
    const bool stored = (value >> bit) & 1;
    const SenseContext ctx =
        buildContext(bank, row, col, stored, data, now_ns);
    const double m = model_.margin(addr, elapsed_ns, ctx);
    const double scale = model_.windowScale(addr, ctx);
    const double p = model_.failureFromMargin(m, scale);
    if (p < kNegligibleDrawProb)
        return;
    // One uniform draw decides both the failure and, via the nested
    // deeper tail, whether the amplifier latched the wrong value.
    const double u = noise_.nextDouble();
    if (u < p) {
        value ^= (std::uint64_t{1} << bit);
        ++counters_.read_bit_failures;
        // Metastable (noise-dominated) resolutions restore the cell
        // correctly after the READ sampled garbage; only strongly
        // wrong resolutions latch into the array.
        if (u < model_.deepFailureProbability(m, scale)) {
            // Sense amplifier latched the wrong value: the cell
            // itself is now corrupted until rewritten.
            data.words[word] ^= (std::uint64_t{1} << bit);
            data.ones += stored ? -1 : 1;
            ++counters_.corrupted_bits;
        }
    }
}

std::uint64_t
DramDevice::read(double now_ns, int bank, int word)
{
    BankState &bs = banks_.at(bank);
    assert(bs.open_row >= 0 && "READ to a precharged bank");
    assert(word >= 0 && word < config_.geometry.words_per_row);
    const int row = bs.open_row;
    ++counters_.reads;

    RowData &data = materialize(bank, row, now_ns);
    std::uint64_t value = data.words[word];

    if (bs.first_read_done)
        return value; // Open-row reads never fail (Section 5.1).
    bs.first_read_done = true;

    const double elapsed_ns = now_ns - bs.act_time_ns;
    const int subarray = row / config_.profile.subarray_rows;
    const CellModel::SubarrayStatics &sa = model_.subarray(bank, subarray);

    // When strong columns cannot plausibly fail at this delay, only
    // weak bits need evaluation; the common case is a word with none at
    // all, answered by one bitmask test.
    const bool weak_only = weakOnly(elapsed_ns);
    if (weak_only && sa.weak_mask[word] == 0)
        return value;

    // RowData blocks are heap-allocated, so `data` stays valid across
    // these neighbour materializations.
    const RowData *up =
        row > 0 ? &materialize(bank, row - 1, now_ns) : nullptr;
    const RowData *down = row + 1 < config_.geometry.rows_per_bank
                              ? &materialize(bank, row + 1, now_ns)
                              : nullptr;

    if (config_.scalar_read_path) {
        // Reference physics: the pre-threshold scalar evaluation, kept
        // selectable so tests can A/B the fast path against it.
        for (int b = 0; b < 64; ++b) {
            if (weak_only && !((sa.weak_mask[word] >> b) & 1))
                continue;
            evaluateBitScalar(now_ns, bank, row, word, b, elapsed_ns,
                              data, value);
        }
        return value;
    }

    auto &op = model_.operatingPoint(bank, subarray, elapsed_ns,
                                     temperature());
    const int row_in = row % config_.profile.subarray_rows;
    const long long base = static_cast<long long>(word) * 64;

    // Neighbour-difference bitmasks: bit b of dl/dr/du/dd says whether
    // the left/right/up/down neighbour of column base+b stores the
    // opposite value; lvalid/rvalid clear lanes without a neighbour.
    const std::uint64_t v = value;
    std::uint64_t left = v << 1;
    std::uint64_t lvalid = ~std::uint64_t{1};
    if (word > 0) {
        left |= data.words[word - 1] >> 63;
        lvalid = ~std::uint64_t{0};
    }
    std::uint64_t right = v >> 1;
    std::uint64_t rvalid = ~(std::uint64_t{1} << 63);
    if (word + 1 < config_.geometry.words_per_row) {
        right |= data.words[word + 1] << 63;
        rvalid = ~std::uint64_t{0};
    }
    const std::uint64_t dl = (v ^ left) & lvalid;
    const std::uint64_t dr = (v ^ right) & rvalid;
    const std::uint64_t du = up ? v ^ up->words[word] : 0;
    const std::uint64_t dd = down ? v ^ down->words[word] : 0;
    const int vert = (up ? 1 : 0) + (down ? 1 : 0);

    // Quantized supply-droop bucket, one variant per stored value.
    const double ones_frac =
        static_cast<double>(data.ones) /
        static_cast<double>(config_.geometry.rowBits());
    const int droop1 = static_cast<int>(
        std::lround(ones_frac * (CellModel::kDroopLevels - 1)));
    const int droop0 = static_cast<int>(
        std::lround((1.0 - ones_frac) * (CellModel::kDroopLevels - 1)));

    std::uint64_t pending =
        weak_only ? sa.weak_mask[word] : ~std::uint64_t{0};
    while (pending != 0) {
        const int b = std::countr_zero(pending);
        pending &= pending - 1;
        const long long col = base + b;
        if (sa.weak_slot[col] < 0) {
            // Strong column under very aggressive timing: rare enough
            // that the scalar double-math path is fine.
            evaluateBitScalar(now_ns, bank, row, word, b, elapsed_ns,
                              data, value);
            continue;
        }

        CellModel::CellThresholds &ct =
            model_.cellThresholds(op, col, row_in);
        const bool stored = (v >> b) & 1;
        const int anti =
            static_cast<int>(((dl >> b) & 1) + ((dr >> b) & 1) +
                             ((du >> b) & 1) + ((dd >> b) & 1));
        const int n =
            static_cast<int>(((lvalid >> b) & 1) + ((rvalid >> b) & 1)) +
            vert;
        const int bucket =
            (((stored == ct.sensitive) ? CellModel::kAntiLevels : 0) +
             kAntiIdx[n][anti]) *
                CellModel::kDroopLevels +
            (stored ? droop1 : droop0);
        if (!(ct.valid[bucket >> 6] &
              (std::uint64_t{1} << (bucket & 63))))
            model_.fillBucket(op, ct, col, row_in, bucket);

        const CellModel::ThresholdPair t = ct.t[bucket];
        if (t.fail == 0)
            continue; // Negligible: consume no draw.
        // One draw decides both the failure and, via the nested deeper
        // tail, whether the amplifier latched the wrong value (the top
        // 53 bits are exactly the uniform the scalar path compares).
        const std::uint64_t draw = noise_.next() >> 11;
        if (draw < t.fail) {
            value ^= (std::uint64_t{1} << b);
            ++counters_.read_bit_failures;
            if (draw < t.deep) {
                // Sense amplifier latched the wrong value: the cell
                // itself is now corrupted until rewritten.
                data.words[word] ^= (std::uint64_t{1} << b);
                data.ones += stored ? -1 : 1;
                ++counters_.corrupted_bits;
            }
        }
    }
    return value;
}

void
DramDevice::write(double now_ns, int bank, int word, std::uint64_t value)
{
    BankState &bs = banks_.at(bank);
    assert(bs.open_row >= 0 && "WRITE to a precharged bank");
    assert(word >= 0 && word < config_.geometry.words_per_row);

    RowData &data = materialize(bank, bs.open_row, now_ns);
    data.ones -= std::popcount(data.words[word]);
    data.words[word] = value;
    data.ones += std::popcount(value);
    ++counters_.writes;
}

void
DramDevice::refreshAll(double now_ns)
{
    for (int b = 0; b < config_.geometry.banks; ++b) {
        assert(banks_[b].open_row < 0 && "REF with an open row");
        // Under auto-refresh a row's stamp never matters: nothing
        // decays, and applyRetention takes the later of the row's stamp
        // and global_refresh_ns_, which this REF sets. Only without
        // auto-refresh can the walk flip bits.
        if (auto_refresh_)
            continue;
        for (int row = 0; row < config_.geometry.rows_per_bank; ++row) {
            if (auto &data = banks_[b].rows[row])
                applyRetention(b, row, *data, now_ns);
        }
    }
    global_refresh_ns_ = now_ns;
    ++counters_.refreshes;
}

void
DramDevice::powerCycle(double now_ns)
{
    for (auto &bank : banks_) {
        for (auto &row : bank.rows)
            row.reset();
        bank.open_row = -1;
        bank.first_read_done = false;
    }
    startup_epoch_ = noise_.next();
    global_refresh_ns_ = now_ns;
}

std::uint64_t
DramDevice::peekWord(int bank, int row, int word)
{
    return materialize(bank, row, 0.0).words.at(word);
}

void
DramDevice::pokeWord(int bank, int row, int word, std::uint64_t value)
{
    RowData &data = materialize(bank, row, 0.0);
    data.ones -= std::popcount(data.words.at(word));
    data.words[word] = value;
    data.ones += std::popcount(value);
}

bool
DramDevice::peekBit(int bank, int row, long long column)
{
    const int word = static_cast<int>(column / 64);
    return (peekWord(bank, row, word) >> (column % 64)) & 1;
}

void
DramDevice::pokeBit(int bank, int row, long long column, bool value)
{
    const int word = static_cast<int>(column / 64);
    std::uint64_t w = peekWord(bank, row, word);
    const std::uint64_t mask = std::uint64_t{1} << (column % 64);
    if (value)
        w |= mask;
    else
        w &= ~mask;
    pokeWord(bank, row, word, w);
}

double
DramDevice::failureProbability(int bank, int row, long long column,
                               double elapsed_ns)
{
    if (row > 0)
        materialize(bank, row - 1, 0.0);
    if (row + 1 < config_.geometry.rows_per_bank)
        materialize(bank, row + 1, 0.0);
    RowData &data = materialize(bank, row, 0.0);
    const bool stored = (data.words[column / 64] >> (column % 64)) & 1;
    const SenseContext ctx =
        buildContext(bank, row, column, stored, data, 0.0);
    const CellAddress addr{bank, row, column};
    return model_.failureProbability(addr, elapsed_ns, ctx);
}

} // namespace drange::dram
