#include "common.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "layers.hh"

namespace servicebench {

void
Samples::append(const Samples &other)
{
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
    times_.insert(times_.end(), other.times_.begin(), other.times_.end());
    sorted_.clear();
}

namespace {

double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/** Ten samples beyond the q-quantile of @p n samples. */
bool
enoughBeyond(std::size_t n, double q)
{
    return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

} // namespace

double
Samples::quantile(double q) const
{
    if (sorted_.size() != values_.size()) {
        sorted_ = values_;
        std::sort(sorted_.begin(), sorted_.end());
    }
    return sortedQuantile(sorted_, q);
}

double
Samples::claimable(double q) const
{
    const double n = static_cast<double>(values_.size());
    if (n < 10)
        return 0.0;
    return std::min(100.0 * q, 100.0 * (1.0 - 10.0 / n));
}

double
Samples::sliced(double q, Clock::time_point opened, double window_s) const
{
    // As many equal time slices as leave ten samples beyond q in each.
    const auto count = static_cast<long>(
        static_cast<double>(values_.size()) * (1.0 - q) / 10.0);
    const long n_slices = std::min<long>(count, kMaxSlices);
    if (n_slices < 3 || window_s <= 0)
        return quantile(claimable(q) / 100);
    std::vector<std::vector<double>> slices(
        static_cast<std::size_t>(n_slices));
    const double slice_s = window_s / static_cast<double>(n_slices);
    for (std::size_t i = 0; i < values_.size(); ++i) {
        const auto k = static_cast<long>(
            secondsBetween(opened, times_[i]) / slice_s);
        slices[static_cast<std::size_t>(std::clamp<long>(k, 0, n_slices - 1))]
            .push_back(values_[i]);
    }
    std::vector<double> per_slice;
    for (std::vector<double> &slice : slices) {
        if (!enoughBeyond(slice.size(), q))
            continue;
        std::sort(slice.begin(), slice.end());
        per_slice.push_back(sortedQuantile(slice, q));
    }
    if (per_slice.size() < 3)
        return quantile(claimable(q) / 100);
    std::sort(per_slice.begin(), per_slice.end());
    return sortedQuantile(per_slice, 0.25);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void
Tally::merge(const Tally &other)
{
    window_bits += other.window_bits;
    window_reads += other.window_reads;
    latency_ms.append(other.latency_ms);
    completions.insert(completions.end(), other.completions.begin(),
                       other.completions.end());
}

namespace {

/** Median over Tally::kSlices slices of per-second totals of @p weight,
 * each completion's weight spread over its issue-to-completion span. */
template <typename Weight>
double
sliceMedian(const Tally &t, Weight weight)
{
    if (t.window_s <= 0)
        return 0.0;
    const double slice_s = t.window_s / Tally::kSlices;
    std::vector<double> totals(Tally::kSlices, 0.0);
    for (const Tally::Completion &c : t.completions) {
        const double w = weight(c.bits);
        const double end = std::clamp(secondsBetween(t.opened, c.at), 0.0,
                                      t.window_s);
        const double since = std::min(secondsBetween(t.opened, c.since), end);
        const auto last = std::min<long>(static_cast<long>(end / slice_s),
                                         Tally::kSlices - 1);
        if (end - since <= 0) {
            totals[static_cast<std::size_t>(last)] += w;
            continue;
        }
        // The share spent before the window opened is not counted.
        const double rate = w / (end - since);
        const double begin = std::max(since, 0.0);
        for (long i = static_cast<long>(begin / slice_s); i <= last; ++i) {
            const double lo = std::max(begin, static_cast<double>(i) * slice_s);
            const double hi =
                std::min(end, static_cast<double>(i + 1) * slice_s);
            if (hi > lo)
                totals[static_cast<std::size_t>(i)] += rate * (hi - lo);
        }
    }
    std::sort(totals.begin(), totals.end());
    return (totals[Tally::kSlices / 2 - 1] + totals[Tally::kSlices / 2]) /
           2 / slice_s;
}

} // namespace

double
Tally::mbps() const
{
    return sliceMedian(*this, [](std::uint64_t bits) {
               return static_cast<double>(bits);
           }) /
           1e6;
}

double
Tally::reqPerS() const
{
    return sliceMedian(*this, [](std::uint64_t) { return 1.0; });
}

void
Checks::require(bool ok, const std::string &what)
{
    if (!ok)
        ++failures_[what];
}

void
Checks::print() const
{
    for (const auto &[what, times] : failures_)
        std::printf("  CHECK FAILED (%llux): %s\n",
                    static_cast<unsigned long long>(times), what.c_str());
}

double
shannonOfOnes(std::uint64_t ones, std::uint64_t bits)
{
    if (bits == 0)
        return 0.0;
    const double p = static_cast<double>(ones) / static_cast<double>(bits);
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

void
EntropySample::add(const util::BitStream &stream)
{
    if (full() || stream.empty())
        return;
    bits += stream.size();
    ones += stream.popcount();
}

void
EntropySample::addBytes(const std::uint8_t *data, std::size_t count)
{
    if (full())
        return;
    for (std::size_t i = 0; i < count; ++i)
        ones += static_cast<std::uint64_t>(std::popcount(data[i]));
    bits += 8 * count;
}

void
EntropySample::check(Checks &checks, const std::string &what) const
{
    const double h = shannonOfOnes(ones, bits);
    checks.require(bits > 0 && h >= kMinShannon,
                   what + ": Shannon entropy " + std::to_string(h) +
                       " over " + std::to_string(bits) +
                       " delivered bits (need >= 0.99)");
}

// ------------------------------------------------------------ the pool

trng::Params
memberParams(int member)
{
    // tools/trngd.example.conf, [pool.ch0] / [pool.ch1].
    return trng::Params{}
        .set("seed", static_cast<std::int64_t>(member + 1))
        .set("noise_seed", static_cast<std::int64_t>(member + 1))
        .set("banks", 4)
        .set("rows_per_bank", 8192)
        .set("profile_rows", 192)
        .set("profile_words", 16)
        .set("screen_iterations", 40)
        .set("samples", 400);
}

trng::ServiceConfig
poolConfig(PoolKind kind)
{
    trng::ServiceConfig config;
    const std::string source =
        kind == PoolKind::Traced ? kTracedSource : "drange";
    for (int m = 0; m < 2; ++m)
        config.pool.push_back(trng::PoolMemberConfig{
            source, memberParams(m), "ch" + std::to_string(m)});
    return config;
}

Pool
startPool(PoolKind kind)
{
    Pool pool;
    const auto begin = Clock::now();
    pool.service =
        std::make_unique<trng::Service>(poolConfig(kind));
    for (;;) {
        const trng::ServiceStats stats = pool.service->stats();
        const bool all = std::all_of(
            stats.members.begin(), stats.members.end(),
            [](const trng::MemberStats &m) { return m.chunks > 0; });
        if (all)
            break;
        if (secondsBetween(begin, Clock::now()) > 120.0)
            throw std::runtime_error("pool did not come up in 120 s");
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    pool.setup_s = secondsBetween(begin, Clock::now());
    return pool;
}

std::vector<std::string>
sha256Profile(PoolKind kind)
{
    return {kind == PoolKind::Traced ? kTracedSha256 : "sha256"};
}

std::vector<std::string>
keysProfile(PoolKind kind)
{
    if (kind == PoolKind::Traced)
        return {kTracedSha256, kTracedHealth};
    return {"sha256", "health"};
}

} // namespace servicebench
