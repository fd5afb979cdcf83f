/**
 * @file
 * Bounded thread-safe FIFO used to hand harvested bit chunks from
 * producer (harvesting) threads to consumer (conditioning/validation)
 * threads.
 *
 * The queue blocks producers while full (backpressure: harvesting may
 * not outrun conditioning by more than the queue depth) and blocks
 * consumers while empty. close() ends the stream: blocked producers
 * give up (push returns false), and consumers drain the remaining
 * items before pop() returns nullopt. Wait counters tell a caller
 * that a producer or consumer is parked on the queue.
 */

#ifndef DRANGE_UTIL_CHUNK_QUEUE_HH
#define DRANGE_UTIL_CHUNK_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace drange::util {

template <typename T>
class ChunkQueue
{
  public:
    explicit ChunkQueue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    ChunkQueue(const ChunkQueue &) = delete;
    ChunkQueue &operator=(const ChunkQueue &) = delete;

    /**
     * Enqueue @p item, blocking while the queue is full.
     * @return false if the queue was closed (item is dropped).
     */
    bool push(T item)
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (items_.size() >= capacity_ && !closed_) {
            ++push_waits_;
            not_full_.wait(lock, [&] {
                return items_.size() < capacity_ || closed_;
            });
        }
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        not_empty_.notify_one();
        return true;
    }

    /**
     * Dequeue the oldest item, blocking while the queue is empty.
     * @return nullopt once the queue is closed and fully drained.
     */
    std::optional<T> pop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (items_.empty() && !closed_) {
            ++pop_waits_;
            not_empty_.wait(lock,
                            [&] { return !items_.empty() || closed_; });
        }
        if (items_.empty())
            return std::nullopt;
        T item = std::move(items_.front());
        items_.pop_front();
        not_full_.notify_one();
        return item;
    }

    /** End the stream: wake all waiters; push() fails from now on. */
    void close()
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
        not_full_.notify_all();
        not_empty_.notify_all();
    }

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

    /** Times push() blocked on a full queue (consumer-bound pipeline). */
    std::uint64_t pushWaits() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return push_waits_;
    }

    /** Times pop() blocked on an empty queue (producer-bound pipeline). */
    std::uint64_t popWaits() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return pop_waits_;
    }

  private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::deque<T> items_;
    bool closed_ = false;
    std::uint64_t push_waits_ = 0;
    std::uint64_t pop_waits_ = 0;
};

} // namespace drange::util

#endif // DRANGE_UTIL_CHUNK_QUEUE_HH
