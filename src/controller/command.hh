/**
 * @file
 * DRAM command types and the timed command trace consumed by the power
 * model.
 */

#ifndef DRANGE_CONTROLLER_COMMAND_HH
#define DRANGE_CONTROLLER_COMMAND_HH

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <string>

namespace drange::ctrl {

/** DRAM bus commands. */
enum class CommandType { ACT, PRE, RD, WR, REF };

/** @return mnemonic string for a command type. */
std::string toString(CommandType type);

/** One issued command with its bus timestamp. */
struct TimedCommand
{
    CommandType type;
    int bank;
    double issue_ns;
};

/**
 * Command trace with an optional ring-buffer capacity.
 *
 * Capacity 0 (the default) keeps every command, matching the historic
 * append-only std::vector behaviour that the energy model's
 * per-generate() traces rely on. A positive capacity bounds the trace
 * to the most recent commands, so a long-lived co-simulation cannot
 * grow it without limit; evictions are counted in dropped(). With
 * recording off, push_back() only counts: continuous harvest sessions,
 * whose trace nothing reads, keep no records at all.
 */
class CommandTrace
{
  public:
    CommandTrace() = default;

    explicit CommandTrace(std::size_t capacity) : capacity_(capacity) {}

    /** Unbounded trace from a literal command list (tests, fixtures). */
    CommandTrace(std::initializer_list<TimedCommand> cmds)
    {
        for (const auto &cmd : cmds)
            push_back(cmd);
    }

    void push_back(const TimedCommand &cmd)
    {
        ++total_;
        if (!recording_)
            return;
        cmds_.push_back(cmd);
        if (capacity_ > 0)
            while (cmds_.size() > capacity_) {
                cmds_.pop_front();
                ++dropped_;
            }
    }

    /** Retained commands, oldest first. */
    const TimedCommand &operator[](std::size_t i) const
    {
        return cmds_[i];
    }

    std::size_t size() const { return cmds_.size(); }
    bool empty() const { return cmds_.empty(); }
    void clear() { cmds_.clear(); }

    /** Ring capacity; 0 = unbounded. */
    std::size_t capacity() const { return capacity_; }

    /** Change the capacity; trims immediately when shrinking. */
    void setCapacity(std::size_t capacity)
    {
        capacity_ = capacity;
        if (capacity_ > 0)
            while (cmds_.size() > capacity_) {
                cmds_.pop_front();
                ++dropped_;
            }
    }

    /** Keep records of logged commands (default) or only count them.
     * Records already kept stay until clear(). */
    void setRecording(bool on) { recording_ = on; }

    /** Commands ever logged, including evicted and unrecorded ones. */
    std::uint64_t totalLogged() const { return total_; }

    /** Commands evicted by the ring bound (clear() is not eviction). */
    std::uint64_t dropped() const { return dropped_; }

    auto begin() const { return cmds_.begin(); }
    auto end() const { return cmds_.end(); }

  private:
    std::deque<TimedCommand> cmds_;
    std::size_t capacity_ = 0;
    bool recording_ = true;
    std::uint64_t total_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace drange::ctrl

#endif // DRANGE_CONTROLLER_COMMAND_HH
