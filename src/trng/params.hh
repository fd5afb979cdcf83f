/**
 * @file
 * String key/value parameter bag driving the runtime-selectable TRNG
 * registry (trng::Registry) and the conditioning-stage factory.
 *
 * Params is deliberately tiny: every value is stored as a string and
 * parsed on access, so sources are selectable from flat configuration
 * (command line, config file, service request) without per-backend
 * plumbing. Typed getters throw std::invalid_argument on malformed
 * values; rejectUnknown() throws on keys no getter ever consumed,
 * which turns configuration typos into hard errors instead of
 * silently-ignored settings.
 */

#ifndef DRANGE_TRNG_PARAMS_HH
#define DRANGE_TRNG_PARAMS_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace drange::trng {

/**
 * Immutable-ish string map with typed, default-carrying getters.
 *
 * Access is tracked (mutable bookkeeping): after a factory has read
 * every key it understands, rejectUnknown() reports the leftovers.
 */
class Params
{
  public:
    Params() = default;
    Params(std::initializer_list<std::pair<std::string, std::string>>
               entries);

    /**
     * Parse an INI-style config file into a flat Params bag:
     *
     *     # comment (';' also starts one)
     *     key = value          -> {"key", "value"}
     *     [pool.fast]          -> keys below prefixed "pool.fast."
     *     source = drange      -> {"pool.fast.source", "drange"}
     *
     * Values run to end of line (commas fine: "conditioning =
     * sha256,health"). Malformed input -- an unreadable file, a line
     * with no '=', an empty key, an unterminated or empty [section],
     * a key set twice -- throws std::invalid_argument naming the line.
     * Used by tools/trngd.cc; see Params::section() for unpacking.
     */
    static Params fromFile(const std::string &path);

    /** Set (or overwrite) a key. Returns *this for chaining. */
    Params &set(const std::string &key, const std::string &value);
    Params &set(const std::string &key, const char *value);
    Params &set(const std::string &key, std::int64_t value);
    Params &set(const std::string &key, int value);
    Params &set(const std::string &key, double value);
    Params &set(const std::string &key, bool value);

    bool has(const std::string &key) const;

    /** Value of @p key, or @p fallback when absent. */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;

    /**
     * Integer value of @p key, or @p fallback when absent.
     * @throws std::invalid_argument if present but not an integer.
     */
    std::int64_t getInt(const std::string &key,
                        std::int64_t fallback = 0) const;

    /**
     * Floating-point value of @p key, or @p fallback when absent.
     * @throws std::invalid_argument if present but not a number.
     */
    double getDouble(const std::string &key, double fallback = 0.0) const;

    /**
     * Boolean value of @p key ("true"/"false"/"1"/"0", case-sensitive),
     * or @p fallback when absent.
     * @throws std::invalid_argument if present but none of the above.
     */
    bool getBool(const std::string &key, bool fallback = false) const;

    /** Comma-separated list value of @p key; empty when absent. Empty
     * elements are dropped ("a,,b" -> {"a", "b"}). */
    std::vector<std::string> getList(const std::string &key) const;

    /** All keys, sorted. */
    std::vector<std::string> keys() const;

    /**
     * Sub-bag holding every "@p prefix.key" with the prefix stripped
     * (empty when none). The prefixed keys count as consumed in this
     * bag, so a factory can hand whole sections on and still call
     * rejectUnknown() on the rest.
     */
    Params section(const std::string &prefix) const;

    /**
     * Distinct one-level section names under @p prefix, sorted: with
     * keys "pool.a.source" and "pool.b.seed", sections("pool") is
     * {"pool.a", "pool.b"}. Does not consume anything.
     */
    std::vector<std::string> sections(const std::string &prefix) const;

    /**
     * @throws std::invalid_argument naming every key that no getter has
     * consumed so far, prefixed with @p context. Factories call this
     * last so misspelled configuration fails loudly.
     */
    void rejectUnknown(const std::string &context) const;

  private:
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> consumed_;
};

} // namespace drange::trng

#endif // DRANGE_TRNG_PARAMS_HH
