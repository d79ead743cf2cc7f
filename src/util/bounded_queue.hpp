#pragma once
// Bounded MPMC work queue used by serve::SweepService for admission control:
// the queue's fixed capacity IS the serving layer's compute backlog bound.
// try_push_all either enqueues a whole batch atomically or rejects it
// without enqueuing anything — that all-or-nothing property is what turns
// "queue full" into a clean typed RETRY_LATER response instead of a
// half-admitted request.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace armstice::util {

template <class T>
class BoundedQueue {
public:
    explicit BoundedQueue(std::size_t capacity)
        : capacity_(capacity < 1 ? 1 : capacity) {}

    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    [[nodiscard]] std::size_t size() const {
        std::lock_guard<std::mutex> lock(mu_);
        return q_.size();
    }

    /// Enqueue every item or none: false (nothing enqueued) when the batch
    /// does not fit in the remaining capacity or the queue is closed.
    bool try_push_all(std::vector<T> items) {
        if (items.empty()) return true;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (closed_ || q_.size() + items.size() > capacity_) return false;
            for (auto& item : items) q_.push_back(std::move(item));
        }
        cv_.notify_all();
        return true;
    }

    /// Block until an item is available or the queue is closed and drained;
    /// nullopt only in the latter case (workers exit on it).
    std::optional<T> pop() {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !q_.empty(); });
        if (q_.empty()) return std::nullopt;
        T item = std::move(q_.front());
        q_.pop_front();
        return item;
    }

    /// Reject future pushes and wake every blocked pop. Queued items still
    /// drain; call drain() instead to discard them.
    void close() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        cv_.notify_all();
    }

    /// Close and discard everything still queued; returns the discards so
    /// the caller can fail them (serve fulfills their promises with errors).
    std::vector<T> drain() {
        std::vector<T> out;
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
            out.assign(std::make_move_iterator(q_.begin()),
                       std::make_move_iterator(q_.end()));
            q_.clear();
        }
        cv_.notify_all();
        return out;
    }

private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<T> q_;
    bool closed_ = false;
};

} // namespace armstice::util
