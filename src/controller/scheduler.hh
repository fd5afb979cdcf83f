/**
 * @file
 * Cycle-level DRAM command scheduler.
 *
 * Tracks every JEDEC inter-command constraint (tRCD, tRP, tRAS, tRC,
 * tRRD, tFAW, tCCD, tRTP, tWR, tWTR, data-bus occupancy, tREFI/tRFC) and
 * issues each command at the earliest legal bus slot. Commands to
 * different banks pipeline naturally, which is what gives D-RaNGe its
 * bank-parallel throughput scaling (paper Figure 8).
 *
 * The tRCD constraint is read from the TimingRegisterFile at READ issue
 * time, so programming a reduced tRCD immediately shortens the ACT->RD
 * distance of subsequent accesses; the device model then sees the short
 * elapsed time and produces activation failures.
 *
 * Controller behaviours beyond raw command legality -- refresh policy,
 * interference shaping, opportunistic harvesting -- live in
 * SchedulerPlugins (plugin.hh). The scheduler dispatches to the
 * attached plugins: every logged command (onCommandIssued), solicited
 * and opportunistic refresh ticks (onRefreshTick), and detected idle
 * windows (onIdleSlot, a filter chain in attach order). A RefreshPlugin
 * is attached by default, so the tREFI obligation holds even for
 * callers that never tick it explicitly.
 */

#ifndef DRANGE_CONTROLLER_SCHEDULER_HH
#define DRANGE_CONTROLLER_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "controller/command.hh"
#include "controller/plugin.hh"
#include "controller/timing_regs.hh"
#include "dram/device.hh"

namespace drange::ctrl {

/**
 * Issues DRAM commands against a device at the earliest legal times.
 */
class CommandScheduler
{
  public:
    CommandScheduler(dram::DramDevice &device, TimingRegisterFile &regs);

    /** Current bus time (time of the last issued command). */
    double now() const { return now_ns_; }

    /** Move the clock forward without issuing anything. */
    void advanceTo(double ns);

    // --- Earliest legal issue times (do not issue) ---
    double earliestActivate(int bank) const;
    double earliestRead(int bank) const;
    double earliestWrite(int bank) const;
    double earliestPrecharge(int bank) const;

    // --- Issue commands; each returns the command's issue time ---
    double activate(int bank, int row);
    double precharge(int bank);

    /**
     * Issue a READ. @p data_out receives the (possibly failing) word.
     * @return the time the last data beat leaves the bus.
     */
    double read(int bank, int word, std::uint64_t &data_out);

    /** Issue a WRITE. @return the time write recovery completes. */
    double write(int bank, int word, std::uint64_t value);

    /** Precharge all banks and issue a REF. @return completion time. */
    double refresh();

    /**
     * Solicited refresh tick: dispatches onRefreshTick to the attached
     * plugins, letting the refresh policy issue a REF if its obligation
     * is due. Transaction boundaries (end of a sampling round, one
     * serviced request) call this; between ticks the scheduler's own
     * opportunistic backstop covers callers that never do.
     *
     * @return true if the tick issued at least one REF.
     */
    bool refreshTick();

    /** Historic name for refreshTick(), kept for callers and tests. */
    bool maybeRefresh() { return refreshTick(); }

    /**
     * Enable/disable the periodic-refresh obligation. Disabling also
     * opens a maintenance window: the opportunistic backstop stays
     * disarmed after re-enable until the next solicited tick or REF, so
     * a long maintenance operation (pattern writes) is not punished
     * with a mid-transaction catch-up REF.
     */
    void setAutoRefresh(bool enabled);
    bool autoRefresh() const { return auto_refresh_; }

    // --- Plugins ---

    /**
     * Attach @p plugin and run its onInit. Plugins dispatch in attach
     * order; the constructor pre-attaches a default "refresh" plugin.
     * @return the attached plugin.
     */
    SchedulerPlugin &attach(std::unique_ptr<SchedulerPlugin> plugin);

    /** Attached plugin by name; nullptr when absent. */
    SchedulerPlugin *plugin(const std::string &name);

    /** Detach by name. @return the plugin, or nullptr when absent. */
    std::unique_ptr<SchedulerPlugin> detach(const std::string &name);

    /** Names of the attached plugins, in dispatch order. */
    std::vector<std::string> pluginNames() const;

    /**
     * Offer an idle window to the plugin chain (bank < 0: rank-wide).
     * Each plugin may issue commands in the window and/or clamp what
     * the next plugin sees. @return the residual window.
     */
    double offerIdleSlot(double window_ns, int bank = -1);

    /** REF commands issued so far (by any path). */
    std::uint64_t refsIssued() const { return refs_issued_; }

    const CommandTrace &trace() const { return trace_; }
    void clearTrace() { trace_.clear(); }

    /** Bound the command trace (0 = unbounded; see CommandTrace). */
    void setTraceCapacity(std::size_t capacity)
    {
        trace_.setCapacity(capacity);
    }
    std::size_t traceCapacity() const { return trace_.capacity(); }

    /**
     * Record issued commands into trace() (the default), or only count
     * them. Either way every command still reaches the plugins,
     * refsIssued() and trace().totalLogged().
     */
    void setTraceRecording(bool on) { trace_.setRecording(on); }

    /** Rank-level busy/active statistics for the power model. */
    double activeTime() const { return active_time_ns_; }

    dram::DramDevice &device() { return device_; }
    const TimingRegisterFile &registers() const { return regs_; }

  private:
    struct BankTiming
    {
        double act_allowed = 0.0;
        double pre_allowed = 0.0;
        double col_allowed = 0.0; //!< Earliest column command (bank).
        double act_time = -1.0;   //!< Time of the last ACT (-1: closed).
        int open_row = -1;
    };

    void recordActiveInterval(double begin_ns, double end_ns);
    void log(CommandType type, int bank, double t);
    void backstopTick();

    dram::DramDevice &device_;
    TimingRegisterFile &regs_;
    std::vector<BankTiming> banks_;

    double now_ns_ = 0.0;
    double cmd_bus_free_ = 0.0;
    double data_bus_free_ = 0.0;
    double rank_act_allowed_ = 0.0;  //!< tRRD.
    double col_cmd_allowed_ = 0.0;   //!< tCCD / tWTR across the rank.
    std::deque<double> faw_window_;  //!< Last ACT times for tFAW.
    bool auto_refresh_ = true;
    bool backstop_armed_ = true;
    bool in_backstop_ = false;
    std::uint64_t refs_issued_ = 0;

    double active_time_ns_ = 0.0;
    int open_banks_ = 0;
    double active_since_ = 0.0;

    std::vector<std::unique_ptr<SchedulerPlugin>> plugins_;
    CommandTrace trace_;
};

} // namespace drange::ctrl

#endif // DRANGE_CONTROLLER_SCHEDULER_HH
