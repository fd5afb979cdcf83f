/**
 * @file
 * Multi-client entropy service: a request broker over a pool of
 * registry-built EntropySource workers.
 *
 * The single-consumer API couples one caller to one source object:
 * generate() blocks its caller and startContinuous() allows exactly
 * one session. trng::Service turns that into a serving pipeline. It
 * owns a pool of sources (any mix of backends/channels, each built via
 * Registry::make from a PoolMemberConfig), pumps every member's
 * streaming session on its own worker thread into one shared bounded
 * reservoir, and serves any number of concurrent client sessions
 * (Service::open -> trng::Session) from that reservoir with
 * deficit-round-robin fairness weighted by session priority.
 *
 * One mutex guards the reservoir, the session queues, and the member
 * and lifecycle counters, and it is only ever held for bookkeeping.
 * The one dispatcher thread pops a DRR round's takes under it, runs
 * the sessions' conditioning pipelines with it released (only the
 * dispatcher touches a pipeline), and re-locks to deliver. A slow
 * conditioning stage therefore stalls no producer, submit() or
 * stats(), and a session closed mid-conditioning just drops its take.
 *
 * Three serving-pipeline behaviors live here:
 *
 *  - Adaptive chunk sizing: each worker grows its source's producer
 *    chunk when the reservoir runs dry (throughput-bound: fewer,
 *    larger hand-offs) and shrinks it when the reservoir or the
 *    source's internal ChunkQueue saturates (latency-bound: finer
 *    grain), between ServiceConfig::{min,max}_chunk_bits. Fill is
 *    measured against the member's share of the reservoir
 *    (reservoir_bits / pool size).
 *  - Health failover: a pool member whose SP 800-90B health stage
 *    alarms (EntropySource::healthy() turning false) is quarantined --
 *    its alarming chunk is dropped and its worker stops feeding the
 *    reservoir -- while the healthy members keep serving. Only when
 *    every member is quarantined/exhausted do outstanding reads fail.
 *    With ServiceConfig::reinstate enabled, quarantine is a lifecycle
 *    instead of a verdict: the member's worker periodically restarts
 *    the source (its health gates start over, and a "drange" member
 *    re-identifies its RNG cells at the current temperature -- see
 *    EntropySource::startContinuous()) and pumps a *probation* stream
 *    whose bits are counted but discarded -- never served -- until
 *    probation_windows consecutive clean chunks pass the gates, at
 *    which point the member rejoins the pool. A relapse during
 *    probation re-quarantines and retries.
 *  - Backpressure: the reservoir is bounded, so harvesting never runs
 *    ahead of client demand by more than ServiceConfig::reservoir_bits
 *    plus one first chunk per member (workers block, which in turn
 *    blocks the sources' own producer threads through their internal
 *    queues). Blocked workers are admitted in arrival order, so a fast
 *    member cannot keep retaking the freed space while a slower one
 *    waits. A member's first chunk is admitted at once, without a
 *    ticket or a space check: a member that finishes starting up after
 *    the others have filled the reservoir still joins the pool before
 *    any client reads.
 *
 * A Service with a one-member pool is the old single-consumer path
 * behind the new API (see Service's convenience constructor). The
 * whole stack is configurable from a flat file via
 * ServiceConfig::fromParams + Params::fromFile -- that is what the
 * tools/trngd.cc daemon front-end does.
 */

#ifndef DRANGE_TRNG_SERVICE_HH
#define DRANGE_TRNG_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trng/conditioning.hh"
#include "trng/entropy_source.hh"
#include "trng/params.hh"
#include "trng/session.hh"
#include "util/bitstream.hh"

namespace drange::trng {

/** One pool member: a registry source name plus its Params. */
struct PoolMemberConfig
{
    std::string source; //!< trng::Registry name ("drange", ...).
    Params params;      //!< Factory parameters for that source.
    std::string label;  //!< Stats display name; defaults to source[i].
};

struct ServiceConfig
{
    std::vector<PoolMemberConfig> pool;

    /** Reservoir bound: harvesting blocks once this many conditioned
     * bits are buffered ahead of client demand. Each member's first
     * chunk is admitted regardless, so the reservoir holds at most
     * this plus one first chunk per member. */
    std::size_t reservoir_bits = 1u << 20;

    /** Deficit-round-robin quantum: reservoir bits credited to a
     * priority-1 session per dispatch round (priority-w sessions get
     * w quanta). Smaller quanta interleave finer; larger amortize. */
    std::size_t quantum_bits = 4096;

    // ----------------------------------------- adaptive chunk sizing
    bool adaptive_chunking = true;
    std::size_t min_chunk_bits = 1024;
    std::size_t max_chunk_bits = 1u << 18;
    /** Reservoir fill fraction below which producer chunks grow. */
    double low_watermark = 0.25;
    /** Reservoir fill fraction above which producer chunks shrink. */
    double high_watermark = 0.75;
    /** Re-evaluate a member's chunk size every this many chunks. */
    int adapt_interval_chunks = 4;

    // ------------------------------------------ probation lifecycle
    /**
     * Quarantined members restart and rejoin after clean probation
     * (see the file comment). Disabled by default: quarantine is
     * permanent, the pre-lifecycle behavior.
     */
    bool reinstate = false;
    /** Cool-off before each probation attempt, milliseconds. */
    int probation_delay_ms = 200;
    /** Consecutive clean probation chunks required to rejoin. */
    int probation_windows = 3;
    /** Failed probation attempts before giving up (0 = keep trying
     * until the service closes). */
    int max_probation_attempts = 0;

    /**
     * Build from a flat Params bag (typically Params::fromFile):
     * service-level knobs from the [service] section, one pool member
     * per [pool.<label>] section, whose "source" key names the
     * registry backend and whose remaining keys become the source's
     * Params. Sections other than [service]/[pool.*] are left for the
     * caller (e.g. trngd's [trngd] and [session]).
     * @throws std::invalid_argument on unknown [service] keys, a
     *         missing source key, out-of-domain values, or an empty
     *         pool.
     */
    static ServiceConfig fromParams(const Params &params);
};

/** Snapshot of one pool member inside ServiceStats. */
struct MemberStats
{
    std::string label;
    std::string source;          //!< Registry name.
    std::uint64_t chunks = 0;    //!< Chunks pushed to the reservoir.
    std::uint64_t bits = 0;      //!< Bits pushed to the reservoir.
    std::size_t chunk_bits = 0;  //!< Current (adapted) chunk size.
    bool quarantined = false;    //!< Health alarm tripped; not serving.
    bool probation = false;      //!< Probation stream running now.
    bool active = false;         //!< Worker thread still alive.

    std::uint64_t quarantines = 0;    //!< Times quarantined.
    std::uint64_t reinstatements = 0; //!< Times rejoined the pool.
    std::uint64_t probation_attempts = 0;
    std::uint64_t probation_chunks = 0; //!< Probation chunks pumped.
    std::uint64_t probation_bits = 0;   //!< Discarded, never served.
};

/** Aggregate service measurements (all totals since construction). */
struct ServiceStats
{
    std::vector<MemberStats> members;
    int healthy_members = 0;      //!< Members feeding the reservoir.
    int quarantined_members = 0;  //!< Quarantined (incl. probation).
    int probation_members = 0;    //!< Pumping a probation stream.
    std::uint64_t reinstatements = 0; //!< Members rejoined, total.
    std::size_t open_sessions = 0;
    std::size_t pending_requests = 0;

    std::uint64_t reservoir_bits = 0;     //!< Buffered right now.
    std::uint64_t reservoir_capacity = 0;
    std::uint64_t reservoir_high_watermark = 0;

    std::uint64_t harvested_bits = 0;   //!< Pushed by workers.
    std::uint64_t distributed_bits = 0; //!< Popped for sessions.
    std::uint64_t delivered_bits = 0;   //!< Returned by reads.
    std::uint64_t producer_waits = 0;   //!< Worker blocks on a full
                                        //!< reservoir (backpressure).
    std::uint64_t chunk_grows = 0;      //!< Adaptive grow steps.
    std::uint64_t chunk_shrinks = 0;    //!< Adaptive shrink steps.

    /** Always 0: there is one reservoir, so no bits move between
     * reservoirs. Kept so readers that report them (servicebench's
     * service.stolen_frac and service.steals_per_mbit) still build and
     * read a defined value. */
    std::uint64_t steals = 0;
    std::uint64_t stolen_bits = 0;
};

namespace detail {

/** FIFO of bits stored as whole chunks with a front cursor, so pushes
 * are moves and pops only copy the bits they take. */
class BitFifo
{
  public:
    std::size_t size() const { return bits_; }
    bool empty() const { return bits_ == 0; }

    void push(util::BitStream bits);

    /** Remove and return the first @p count bits (count <= size()). */
    util::BitStream pop(std::size_t count);

    void clear();

  private:
    std::deque<util::BitStream> chunks_;
    std::size_t front_offset_ = 0;
    std::size_t bits_ = 0;
};

/** One queued read(); the promise resolves when `want` conditioned
 * bits are available in the session's buffer. */
struct ReadRequest
{
    std::size_t want = 0;
    std::promise<util::BitStream> promise;
};

/** Service-side state of one session; shared with the Session handle.
 * Everything here is guarded by the service mutex except `pipeline`,
 * which only the dispatcher touches (with the mutex released). */
struct SessionState
{
    int id = 0;
    int weight = 1;
    bool open = true;
    bool has_pipeline = false;
    bool flushed = false; //!< Pipeline tail emitted at supply end.
    bool healthy = true;  //!< False once the session's own pipeline
                          //!< (e.g. a "health" stage) latched an alarm.
    std::uint64_t health_failures = 0; //!< Pipeline alarms, copied from
                                       //!< the pipeline at delivery.
    ConditioningPipeline pipeline;

    BitFifo buffer; //!< Conditioned bits awaiting requests.
    std::deque<std::unique_ptr<ReadRequest>> requests;
    std::size_t demand_bits = 0; //!< Sum of pending requests' want.
    std::size_t deficit = 0;     //!< DRR deficit counter, input bits.

    std::uint64_t consumed_bits = 0;  //!< Reservoir bits taken.
    std::uint64_t delivered_bits = 0; //!< Bits handed to the client.
    std::uint64_t reads = 0;
};

} // namespace detail

class Service
{
  public:
    /**
     * Build every pool member via Registry::make, then start one
     * worker thread per member plus the dispatcher.
     * @throws std::invalid_argument for an empty pool, an unknown
     *         source name, bad source Params, or a non-streaming
     *         member (e.g. "startup", which needs a power cycle per
     *         batch and cannot feed a continuous reservoir).
     */
    explicit Service(ServiceConfig config);

    /** The old single-consumer path as a pool-of-one service. */
    explicit Service(const std::string &source,
                     const Params &params = {});

    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /** Open a client session. @throws std::invalid_argument for a
     * priority < 1 or an unknown conditioning stage name;
     * std::logic_error once the service is closed. */
    Session open(SessionConfig config = {});

    ServiceStats stats() const;

    std::size_t poolSize() const { return members_.size(); }

    /** Stop harvesting and fail outstanding requests. Idempotent; the
     * destructor calls it. Open Session handles remain safe to close
     * but every read on them fails. */
    void close();

  private:
    friend class Session;

    struct Member
    {
        std::string label;
        std::string source_name;
        std::unique_ptr<EntropySource> source;
        std::thread worker;

        // Guarded by mu_.
        std::uint64_t chunks = 0;
        std::uint64_t bits = 0;
        std::size_t chunk_bits = 0;
        bool quarantined = false;
        bool probation = false;
        bool done = false;
        std::uint64_t quarantines = 0;
        std::uint64_t reinstatements = 0;
        std::uint64_t probation_attempts = 0;
        std::uint64_t probation_chunks = 0;
        std::uint64_t probation_bits = 0;
    };

    /** Reservoir bits popped for one session in one DRR round, carried
     * through the session's pipeline with mu_ released. */
    struct Take
    {
        std::shared_ptr<detail::SessionState> session;
        util::BitStream bits;
        bool alarmed = false; //!< The pipeline latched a health alarm.
        std::uint64_t health_failures = 0;
    };

    void workerLoop(std::size_t member_idx);

    /** Serving loop of one member: pump chunks into the reservoir
     * until the source ends (true) or its health gate trips (false --
     * the alarming chunk is dropped). The streaming session must
     * already be open. */
    bool pumpMember(Member &m);

    /**
     * Quarantine recovery: repeatedly cool off, restart the source
     * (fresh health gates; "drange" re-identifies its cells), and
     * pump a discarded probation stream until probation_windows
     * consecutive chunks come back clean. True: the member may rejoin (its session is
     * open and healthy). False: closing, or attempts exhausted.
     */
    bool runProbation(Member &m);

    void dispatcherLoop();

    /** Pop one DRR round's takes from the reservoir (mu_ held). */
    std::vector<Take> popRound();

    /** Run a take through its session's pipeline (mu_ released). */
    static void condition(Take &take);

    /** Buffer a conditioned take and complete the requests it covers
     * (mu_ held). */
    void deliver(Take &take);

    /** Pick the member's next chunk size (mu_ held); 0 = keep. */
    std::size_t adaptedChunkBits(Member &member);

    /** Complete every head request the buffer now covers (mu_ held). */
    void completeReady(detail::SessionState &state);

    /** Fail a session's queued requests with @p why (mu_ held). */
    void failRequests(detail::SessionState &state, const std::string &why);

    // Session-handle API (via friend Session).
    std::future<util::BitStream>
    submit(const std::shared_ptr<detail::SessionState> &state,
           std::size_t num_bits);
    SessionStats
    sessionStats(const std::shared_ptr<detail::SessionState> &state)
        const;
    void
    closeSession(const std::shared_ptr<detail::SessionState> &state);

    ServiceConfig config_;
    std::vector<std::unique_ptr<Member>> members_;
    std::atomic<bool> closing_{false};

    mutable std::mutex mu_;
    std::condition_variable work_cv_;  //!< Wakes the dispatcher.
    std::condition_variable space_cv_; //!< Wakes blocked workers and
                                       //!< probation cool-offs.

    // Guarded by mu_.
    detail::BitFifo reservoir_;
    /** Producer admission tickets: a push takes next_ticket_ and
     * waits until admit_ticket_ reaches it. */
    std::uint64_t next_ticket_ = 0;
    std::uint64_t admit_ticket_ = 0;
    int live_workers_ = 0; //!< Members feeding the reservoir.
    /** Members inside the quarantine->probation lifecycle that may
     * still rejoin. While nonzero, pending reads wait for a
     * reinstatement instead of failing terminally. */
    int recovering_workers_ = 0;
    int next_session_id_ = 1;
    int drr_cursor_ = 0; //!< Last session id served; rounds resume
                         //!< after it so a drained reservoir does not
                         //!< starve high ids.
    std::map<int, std::shared_ptr<detail::SessionState>> sessions_;
    std::size_t pending_requests_ = 0;
    std::size_t high_watermark_ = 0;
    std::uint64_t harvested_bits_ = 0;
    std::uint64_t distributed_bits_ = 0;
    std::uint64_t delivered_bits_ = 0;
    std::uint64_t producer_waits_ = 0;
    std::uint64_t chunk_grows_ = 0;
    std::uint64_t chunk_shrinks_ = 0;

    std::thread dispatcher_; //!< Last: it uses every member above.
};

} // namespace drange::trng

#endif // DRANGE_TRNG_SERVICE_HH
