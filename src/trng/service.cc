#include "trng/service.hh"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "trng/registry.hh"

namespace drange::trng {

namespace detail {

void
BitFifo::push(util::BitStream bits)
{
    if (bits.empty())
        return;
    bits_ += bits.size();
    chunks_.push_back(std::move(bits));
}

util::BitStream
BitFifo::pop(std::size_t count)
{
    util::BitStream out;
    if (count == 0)
        return out;
    out.reserve(count);
    while (count > 0) {
        util::BitStream &front = chunks_.front();
        const std::size_t avail = front.size() - front_offset_;
        if (out.empty() && front_offset_ == 0 && count >= avail) {
            // Whole-chunk fast path: move instead of copying.
            out = std::move(front);
            chunks_.pop_front();
            bits_ -= avail;
            count -= avail;
            continue;
        }
        const std::size_t take = std::min(count, avail);
        out.append(front.slice(front_offset_, take));
        front_offset_ += take;
        bits_ -= take;
        count -= take;
        if (front_offset_ == front.size()) {
            chunks_.pop_front();
            front_offset_ = 0;
        }
    }
    return out;
}

void
BitFifo::clear()
{
    chunks_.clear();
    front_offset_ = 0;
    bits_ = 0;
}

} // namespace detail

namespace {

[[noreturn]] void
badConfig(const std::string &why)
{
    throw std::invalid_argument("trng::Service: " + why);
}

std::size_t
positiveSize(const Params &params, const std::string &key,
             std::size_t fallback)
{
    const std::int64_t value =
        params.getInt(key, static_cast<std::int64_t>(fallback));
    if (value < 1)
        badConfig("[service] " + key + " must be >= 1 (got " +
                  std::to_string(value) + ")");
    return static_cast<std::size_t>(value);
}

ServiceConfig
singleMemberConfig(const std::string &source, const Params &params)
{
    ServiceConfig cfg;
    cfg.pool.push_back(PoolMemberConfig{source, params, ""});
    return cfg;
}

} // anonymous namespace

ServiceConfig
ServiceConfig::fromParams(const Params &params)
{
    ServiceConfig cfg;
    const Params service = params.section("service");
    cfg.reservoir_bits =
        positiveSize(service, "reservoir_bits", cfg.reservoir_bits);
    cfg.quantum_bits =
        positiveSize(service, "quantum_bits", cfg.quantum_bits);
    cfg.adaptive_chunking =
        service.getBool("adaptive", cfg.adaptive_chunking);
    cfg.min_chunk_bits =
        positiveSize(service, "min_chunk_bits", cfg.min_chunk_bits);
    cfg.max_chunk_bits =
        positiveSize(service, "max_chunk_bits", cfg.max_chunk_bits);
    cfg.low_watermark =
        service.getDouble("low_watermark", cfg.low_watermark);
    cfg.high_watermark =
        service.getDouble("high_watermark", cfg.high_watermark);
    cfg.adapt_interval_chunks = static_cast<int>(positiveSize(
        service, "adapt_interval_chunks",
        static_cast<std::size_t>(cfg.adapt_interval_chunks)));
    cfg.reinstate = service.getBool("reinstate", cfg.reinstate);
    const std::int64_t delay = service.getInt(
        "probation_delay_ms",
        static_cast<std::int64_t>(cfg.probation_delay_ms));
    if (delay < 0)
        badConfig("[service] probation_delay_ms must be >= 0 (got " +
                  std::to_string(delay) + ")");
    cfg.probation_delay_ms = static_cast<int>(delay);
    cfg.probation_windows = static_cast<int>(positiveSize(
        service, "probation_windows",
        static_cast<std::size_t>(cfg.probation_windows)));
    const std::int64_t max_attempts = service.getInt(
        "max_probation_attempts",
        static_cast<std::int64_t>(cfg.max_probation_attempts));
    if (max_attempts < 0)
        badConfig("[service] max_probation_attempts must be >= 0 "
                  "(got " + std::to_string(max_attempts) + ")");
    cfg.max_probation_attempts = static_cast<int>(max_attempts);
    service.rejectUnknown("trng::Service config [service]");

    for (const std::string &name : params.sections("pool")) {
        const Params member = params.section(name);
        PoolMemberConfig pm;
        pm.label = name.substr(std::string("pool.").size());
        pm.source = member.getString("source");
        if (pm.source.empty())
            badConfig("[" + name + "] must set \"source\" to a "
                      "registry name");
        for (const std::string &key : member.keys())
            if (key != "source")
                pm.params.set(key, member.getString(key));
        cfg.pool.push_back(std::move(pm));
    }
    if (cfg.pool.empty())
        badConfig("config defines no [pool.<label>] sections");
    return cfg;
}

Service::Service(ServiceConfig config) : config_(std::move(config))
{
    if (config_.pool.empty())
        badConfig("pool is empty");
    if (config_.reservoir_bits == 0 || config_.quantum_bits == 0 ||
        config_.min_chunk_bits == 0)
        badConfig("reservoir_bits, quantum_bits, and min_chunk_bits "
                  "must all be >= 1");
    if (config_.min_chunk_bits > config_.max_chunk_bits)
        badConfig("min_chunk_bits > max_chunk_bits");
    if (config_.low_watermark > config_.high_watermark)
        badConfig("low_watermark > high_watermark");
    if (config_.adapt_interval_chunks < 1)
        badConfig("adapt_interval_chunks must be >= 1");

    members_.reserve(config_.pool.size());
    for (std::size_t i = 0; i < config_.pool.size(); ++i) {
        const PoolMemberConfig &pm = config_.pool[i];
        auto member = std::make_unique<Member>();
        member->label = pm.label.empty()
                            ? pm.source + "[" + std::to_string(i) + "]"
                            : pm.label;
        member->source_name = pm.source;
        member->source = Registry::make(pm.source, pm.params);
        if (!member->source->info().streaming)
            badConfig("pool member \"" + member->label + "\" (" +
                      pm.source +
                      ") cannot stream and cannot feed a continuous "
                      "reservoir; use bounded generate() directly");
        member->chunk_bits =
            std::clamp(member->source->chunkBits(),
                       config_.min_chunk_bits, config_.max_chunk_bits);
        member->source->setChunkBits(member->chunk_bits);
        members_.push_back(std::move(member));
    }

    live_workers_ = static_cast<int>(members_.size());
    dispatcher_ = std::thread(&Service::dispatcherLoop, this);
    for (std::size_t i = 0; i < members_.size(); ++i)
        members_[i]->worker =
            std::thread(&Service::workerLoop, this, i);
}

Service::Service(const std::string &source, const Params &params)
    : Service(singleMemberConfig(source, params))
{
}

Service::~Service()
{
    close();
}

void
Service::workerLoop(std::size_t member_idx)
{
    Member &m = *members_[member_idx];

    // Every lifecycle edge below updates the worker counts under mu_
    // and wakes the dispatcher: it fails pending reads once no member
    // can serve any more, and resumes serving on a reinstatement.
    bool need_start = true;
    for (;;) {
        bool quarantine = false;
        try {
            if (need_start) {
                m.source->startContinuous();
                need_start = false;
            }
            quarantine = !pumpMember(m);
        } catch (...) {
            // A source that dies mid-session is handled like a
            // tripped one: quarantine it and fail over to the
            // remaining members.
            quarantine = true;
        }

        if (!quarantine || closing_.load(std::memory_order_acquire)) {
            // Clean end: exhausted/stopped.
            const std::lock_guard<std::mutex> lock(mu_);
            m.done = true;
            --live_workers_;
            work_cv_.notify_one();
            return;
        }

        // SP 800-90B alarm (or source death): the bits that tripped
        // it are suspect, so the alarming chunk was dropped with the
        // member. With the lifecycle enabled the member moves from
        // live to recovering in one step, so the dispatcher never sees
        // both counts at zero and fails reads that a reinstatement
        // would have served.
        {
            const std::lock_guard<std::mutex> lock(mu_);
            m.quarantined = true;
            ++m.quarantines;
            --live_workers_;
            if (config_.reinstate)
                ++recovering_workers_;
            work_cv_.notify_one();
        }

        if (!config_.reinstate || !runProbation(m)) {
            // Permanent quarantine (lifecycle disabled, attempts
            // exhausted, or the service is closing).
            const std::lock_guard<std::mutex> lock(mu_);
            m.probation = false;
            m.done = true;
            if (config_.reinstate)
                --recovering_workers_;
            work_cv_.notify_one();
            return;
        }

        // Clean probation: rejoin the pool and keep pumping the
        // probation attempt's (still open, still clean) session.
        const std::lock_guard<std::mutex> lock(mu_);
        m.quarantined = false;
        m.probation = false;
        ++m.reinstatements;
        ++live_workers_;
        --recovering_workers_;
        work_cv_.notify_one();
    }
}

bool
Service::pumpMember(Member &m)
{
    int since_adapt = 0;
    for (;;) {
        if (closing_.load(std::memory_order_acquire))
            return true;
        std::optional<util::BitStream> chunk = m.source->nextChunk();
        if (!chunk)
            return true; // Source exhausted or stopped.
        if (!m.source->healthy())
            return false; // Alarm: drop the chunk, quarantine.
        if (chunk->empty())
            continue;

        std::size_t new_chunk_bits = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            // Backpressure, admitted in arrival order: every push takes
            // a ticket and waits until all earlier tickets have pushed
            // and its chunk fits (a chunk larger than the reservoir is
            // admitted alone). Without the order, a fast member retakes
            // each freed slot and a slow one can wait out the run.
            // A member's first chunk skips both: a member that comes up
            // after the others have filled the reservoir would
            // otherwise wait for a reader that may only come once every
            // member serves.
            if (m.chunks > 0) {
                const std::uint64_t ticket = next_ticket_++;
                const auto admitted = [&] {
                    return ticket == admit_ticket_ &&
                           (reservoir_.empty() ||
                            reservoir_.size() + chunk->size() <=
                                config_.reservoir_bits);
                };
                if (!admitted()) {
                    ++producer_waits_;
                    space_cv_.wait(lock, [&] {
                        return closing_.load(std::memory_order_acquire) ||
                               admitted();
                    });
                }
                if (closing_.load(std::memory_order_acquire))
                    return true;
                ++admit_ticket_;
                if (next_ticket_ != admit_ticket_)
                    space_cv_.notify_all(); // The next may fit too.
            }

            const std::size_t pushed = chunk->size();
            reservoir_.push(std::move(*chunk));
            high_watermark_ = std::max(high_watermark_, reservoir_.size());
            harvested_bits_ += pushed;
            ++m.chunks;
            m.bits += pushed;
            if (config_.adaptive_chunking &&
                ++since_adapt >= config_.adapt_interval_chunks) {
                since_adapt = 0;
                new_chunk_bits = adaptedChunkBits(m);
            }
            work_cv_.notify_one();
        }
        // Applied outside the lock: only this worker touches its
        // source.
        if (new_chunk_bits != 0)
            m.source->setChunkBits(new_chunk_bits);
    }
}

bool
Service::runProbation(Member &m)
{
    int attempts = 0;
    while (!closing_.load(std::memory_order_acquire)) {
        // Drop the alarmed session, cool off, then restart: for a
        // streaming source startContinuous() relaunches the producers
        // and resets every conditioning/health stage, so the gates
        // judge the post-restart stream from scratch ("drange" also
        // re-identifies its RNG cells at the current temperature).
        try {
            m.source->stop();
        } catch (...) {
            // The session being torn down owns its producer errors.
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (space_cv_.wait_for(
                    lock,
                    std::chrono::milliseconds(config_.probation_delay_ms),
                    [this] {
                        return closing_.load(std::memory_order_acquire);
                    }))
                return false;
            m.probation = true;
            ++m.probation_attempts;
        }
        ++attempts;
        bool clean = true;
        int windows = 0;
        try {
            m.source->startContinuous();
            while (windows < config_.probation_windows) {
                if (closing_.load(std::memory_order_acquire))
                    return false;
                std::optional<util::BitStream> chunk =
                    m.source->nextChunk();
                if (!chunk) {
                    clean = false; // Died mid-probation.
                    break;
                }
                // Probation output is counted but *discarded*: none
                // of it ever reaches the reservoir.
                {
                    const std::lock_guard<std::mutex> lock(mu_);
                    ++m.probation_chunks;
                    m.probation_bits += chunk->size();
                }
                if (!m.source->healthy()) {
                    clean = false; // Relapse: re-quarantine.
                    break;
                }
                ++windows;
            }
        } catch (...) {
            clean = false;
        }
        if (closing_.load(std::memory_order_acquire))
            return false;
        if (clean)
            return true;
        {
            const std::lock_guard<std::mutex> lock(mu_);
            m.probation = false;
        }
        if (config_.max_probation_attempts > 0 &&
            attempts >= config_.max_probation_attempts)
            return false;
    }
    return false;
}

std::size_t
Service::adaptedChunkBits(Member &member)
{
    // Two pressure signals pick the direction: the reservoir's fill
    // fraction (clients vs. pool) and the source's own hand-off queue
    // (harvest threads vs. this worker). A starved reservoir wants
    // throughput, so chunks grow to amortize per-chunk hand-off cost;
    // a saturated reservoir or source queue means production is ahead,
    // so chunks shrink back toward low-latency fine grain. Fill is
    // measured against the member's share of the reservoir: against
    // the whole of it, members of a multi-member pool see it emptier
    // than it is for them and grow chunks past what read latency and
    // per-chunk command-trace memory can afford.
    const std::size_t share = std::max<std::size_t>(
        1, config_.reservoir_bits / members_.size());
    const double fill = static_cast<double>(reservoir_.size()) /
                        static_cast<double>(share);
    const BackpressureStats bp = member.source->backpressure();
    const bool source_saturated =
        bp.queue_capacity > 0 && bp.queue_depth >= bp.queue_capacity;

    std::size_t next = member.chunk_bits;
    if (fill < config_.low_watermark)
        next = std::min(member.chunk_bits * 2, config_.max_chunk_bits);
    else if (fill > config_.high_watermark || source_saturated)
        next = std::max(member.chunk_bits / 2, config_.min_chunk_bits);
    if (next == member.chunk_bits)
        return 0;
    if (next > member.chunk_bits)
        ++chunk_grows_;
    else
        ++chunk_shrinks_;
    member.chunk_bits = next;
    return next;
}

void
Service::dispatcherLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!closing_.load(std::memory_order_acquire)) {
        std::vector<Take> takes = popRound();
        if (!takes.empty()) {
            lock.unlock();
            for (Take &take : takes)
                condition(take);
            lock.lock();
            for (Take &take : takes)
                deliver(take);
            // Wake producers only after delivery, and only once the
            // freed space could take a chunk: a woken producer takes
            // the lock that submit() and deliveries need, so early or
            // futile wake-ups land on read latency.
            if (reservoir_.empty() ||
                reservoir_.size() + config_.min_chunk_bits <=
                    config_.reservoir_bits)
                space_cv_.notify_all();
            continue;
        }

        const bool supply_gone = live_workers_ == 0 &&
                                 recovering_workers_ == 0 &&
                                 reservoir_.empty();
        if (pending_requests_ > 0 && supply_gone) {
            // Flush session pipelines (a stateful stage may still hold
            // a tail), then fail whatever cannot complete.
            for (auto &[id, state] : sessions_) {
                if (state->has_pipeline && !state->flushed) {
                    state->flushed = true;
                    state->buffer.push(state->pipeline.finish());
                    completeReady(*state);
                }
            }
            for (auto &[id, state] : sessions_)
                failRequests(*state, "entropy service: every pool member "
                                     "is quarantined or exhausted");
            continue;
        }

        work_cv_.wait(lock, [&] {
            return closing_.load(std::memory_order_acquire) ||
                   (pending_requests_ > 0 &&
                    (!reservoir_.empty() ||
                     (live_workers_ == 0 && recovering_workers_ == 0)));
        });
    }
    for (auto &[id, state] : sessions_)
        failRequests(*state, "entropy service closed");
}

std::vector<Service::Take>
Service::popRound()
{
    std::vector<Take> takes;
    const auto visit = [&](const std::shared_ptr<detail::SessionState> &sp) {
        detail::SessionState &s = *sp;
        if (!s.healthy)
            return; // Alarmed: its reads already failed.
        if (s.requests.empty()) {
            s.deficit = 0; // Standard DRR: idle queues bank nothing.
            return;
        }
        const std::size_t buffered = s.buffer.size();
        const std::size_t outstanding =
            s.demand_bits > buffered ? s.demand_bits - buffered : 0;
        if (outstanding == 0)
            return;
        s.deficit +=
            config_.quantum_bits * static_cast<std::size_t>(s.weight);
        // Conditioning may need more input than `outstanding` output
        // bits (von Neumann eats ~4x); later rounds provide it.
        const std::size_t take =
            std::min({s.deficit, reservoir_.size(), outstanding});
        s.deficit -= take;
        s.consumed_bits += take;
        distributed_bits_ += take;
        drr_cursor_ = s.id;
        takes.push_back(Take{sp, reservoir_.pop(take)});
    };

    // One visit per session, resuming after the session served last so
    // a reservoir that drains mid-round does not starve high ids.
    const int cursor = drr_cursor_;
    for (auto it = sessions_.upper_bound(cursor);
         it != sessions_.end() && !reservoir_.empty(); ++it)
        visit(it->second);
    for (auto it = sessions_.begin(); it != sessions_.end() &&
                                      it->first <= cursor &&
                                      !reservoir_.empty();
         ++it)
        visit(it->second);
    return takes;
}

void
Service::condition(Take &take)
{
    detail::SessionState &s = *take.session;
    if (!s.has_pipeline)
        return;
    take.bits = s.pipeline.process(std::move(take.bits));
    take.alarmed = !s.pipeline.healthy();
    for (const auto &stage : s.pipeline.accounting())
        take.health_failures += stage.health_failures;
}

void
Service::deliver(Take &take)
{
    detail::SessionState &s = *take.session;
    if (!s.open)
        return; // Closed while conditioning: drop the take.
    s.health_failures = take.health_failures;
    if (take.alarmed) {
        // The session's own health stage latched an alarm: the stream
        // serving this client is suspect, so drop the alarming output
        // and everything buffered, fail its reads, and refuse new ones
        // (submit checks healthy). Pool members keep serving the other
        // sessions.
        s.healthy = false;
        s.buffer.clear();
        failRequests(s, "entropy service session: SP 800-90B health "
                        "alarm in the session's conditioning pipeline");
        return;
    }
    s.buffer.push(std::move(take.bits));
    completeReady(s);
}

void
Service::completeReady(detail::SessionState &state)
{
    while (!state.requests.empty() &&
           state.buffer.size() >= state.requests.front()->want) {
        std::unique_ptr<detail::ReadRequest> req =
            std::move(state.requests.front());
        state.requests.pop_front();
        --pending_requests_;
        state.demand_bits -= req->want;
        util::BitStream bits = state.buffer.pop(req->want);
        state.delivered_bits += bits.size();
        delivered_bits_ += bits.size();
        ++state.reads;
        req->promise.set_value(std::move(bits));
    }
}

void
Service::failRequests(detail::SessionState &state, const std::string &why)
{
    while (!state.requests.empty()) {
        std::unique_ptr<detail::ReadRequest> req =
            std::move(state.requests.front());
        state.requests.pop_front();
        --pending_requests_;
        state.demand_bits -= req->want;
        req->promise.set_exception(
            std::make_exception_ptr(std::runtime_error(why)));
    }
}

Session
Service::open(SessionConfig config)
{
    if (config.priority < 1)
        throw std::invalid_argument(
            "Service::open: priority must be >= 1 (got " +
            std::to_string(config.priority) + ")");
    auto state = std::make_shared<detail::SessionState>();
    state->weight = config.priority;
    state->has_pipeline = !config.conditioning.empty();
    state->pipeline =
        makePipeline(config.conditioning, config.stage_params);
    state->pipeline.reset();

    const std::lock_guard<std::mutex> lock(mu_);
    if (closing_.load(std::memory_order_acquire))
        throw std::logic_error("Service::open: service is closed");
    state->id = next_session_id_++;
    sessions_.emplace(state->id, state);
    return Session(this, std::move(state));
}

std::future<util::BitStream>
Service::submit(const std::shared_ptr<detail::SessionState> &state,
                std::size_t num_bits)
{
    auto req = std::make_unique<detail::ReadRequest>();
    req->want = num_bits;
    std::future<util::BitStream> future = req->promise.get_future();

    const std::lock_guard<std::mutex> lock(mu_);
    if (closing_.load(std::memory_order_acquire) || !state->open) {
        req->promise.set_exception(std::make_exception_ptr(
            std::runtime_error("entropy service session is closed")));
        return future;
    }
    if (!state->healthy) {
        req->promise.set_exception(
            std::make_exception_ptr(std::runtime_error(
                "entropy service session: SP 800-90B health alarm in "
                "the session's conditioning pipeline")));
        return future;
    }
    state->requests.push_back(std::move(req));
    state->demand_bits += num_bits;
    ++pending_requests_;
    // Leftover conditioned bits from an earlier round may already
    // cover the request (and num_bits == 0 always completes here).
    completeReady(*state);
    if (pending_requests_ > 0)
        work_cv_.notify_one();
    return future;
}

SessionStats
Service::sessionStats(
    const std::shared_ptr<detail::SessionState> &state) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    SessionStats out;
    out.id = state->id;
    out.priority = state->weight;
    out.reservoir_bits = state->consumed_bits;
    out.delivered_bits = state->delivered_bits;
    out.reads = state->reads;
    out.buffered_bits = state->buffer.size();
    out.healthy = state->healthy;
    out.health_failures = state->health_failures;
    return out;
}

void
Service::closeSession(
    const std::shared_ptr<detail::SessionState> &state)
{
    const std::lock_guard<std::mutex> lock(mu_);
    if (!state->open)
        return;
    state->open = false;
    failRequests(*state, "entropy service session closed");
    state->buffer.clear();
    sessions_.erase(state->id);
}

ServiceStats
Service::stats() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    ServiceStats out;
    out.members.reserve(members_.size());
    for (const auto &member : members_) {
        MemberStats ms;
        ms.label = member->label;
        ms.source = member->source_name;
        ms.chunks = member->chunks;
        ms.bits = member->bits;
        ms.chunk_bits = member->chunk_bits;
        ms.quarantined = member->quarantined;
        ms.probation = member->probation;
        ms.active = !member->done;
        ms.quarantines = member->quarantines;
        ms.reinstatements = member->reinstatements;
        ms.probation_attempts = member->probation_attempts;
        ms.probation_chunks = member->probation_chunks;
        ms.probation_bits = member->probation_bits;
        if (ms.quarantined)
            ++out.quarantined_members;
        if (ms.probation)
            ++out.probation_members;
        out.reinstatements += ms.reinstatements;
        out.members.push_back(std::move(ms));
    }
    out.healthy_members = live_workers_;
    out.open_sessions = sessions_.size();
    out.pending_requests = pending_requests_;
    out.reservoir_bits = reservoir_.size();
    out.reservoir_capacity = config_.reservoir_bits;
    out.reservoir_high_watermark = high_watermark_;
    out.harvested_bits = harvested_bits_;
    out.distributed_bits = distributed_bits_;
    out.delivered_bits = delivered_bits_;
    out.producer_waits = producer_waits_;
    out.chunk_grows = chunk_grows_;
    out.chunk_shrinks = chunk_shrinks_;
    return out;
}

void
Service::close()
{
    {
        const std::lock_guard<std::mutex> lock(mu_);
        closing_.store(true, std::memory_order_release);
        work_cv_.notify_all();
        space_cv_.notify_all();
    }
    for (auto &member : members_)
        if (member->worker.joinable())
            member->worker.join();
    if (dispatcher_.joinable())
        dispatcher_.join();
    for (auto &member : members_) {
        try {
            member->source->stop();
        } catch (...) {
            // Producer errors belong to the session being torn down.
        }
    }
}

} // namespace drange::trng
