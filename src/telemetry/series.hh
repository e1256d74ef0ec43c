/**
 * @file
 * Bounded time-series storage for telemetry: a fixed-capacity ring
 * buffer with O(1) append, O(log n) trim (binary search + one head
 * advance, no element moves), and an incrementally maintained
 * span/peak digest. Queries hand out a lightweight view over the at
 * most two contiguous chunks of a (possibly wrapped) ring, so
 * consumers keep simple indexed/iterator access without copying.
 *
 * Memory model: a ring grows geometrically like a vector until it
 * reaches its capacity, then holds steady — appending to a full ring
 * evicts the oldest sample. Capacity is chosen by the owner (the
 * cluster simulator sizes it to its telemetry retention window), so
 * week-long thousand-server runs hold a bounded, predictable
 * footprint instead of ever-growing per-server vectors.
 */

#ifndef TAPAS_TELEMETRY_SERIES_HH
#define TAPAS_TELEMETRY_SERIES_HH

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace tapas {

/**
 * Read-only view over a ring's contents: at most two contiguous
 * chunks, iterable and indexable like the vector it replaced.
 */
template <typename T>
class SeriesView
{
  public:
    /** One contiguous run of samples. */
    struct Chunk
    {
        const T *data = nullptr;
        std::size_t size = 0;
    };

    SeriesView() = default;

    SeriesView(Chunk first, Chunk second)
        : parts{first, second}
    {}

    std::size_t size() const { return parts[0].size + parts[1].size; }
    bool empty() const { return size() == 0; }

    const T &
    operator[](std::size_t i) const
    {
        return i < parts[0].size
            ? parts[0].data[i]
            : parts[1].data[i - parts[0].size];
    }

    const T &front() const { return (*this)[0]; }
    const T &back() const { return (*this)[size() - 1]; }

    /** The (up to two) contiguous chunks, oldest first. */
    const Chunk &firstChunk() const { return parts[0]; }
    const Chunk &secondChunk() const { return parts[1]; }

    /** Forward iterator across both chunks. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;

        const_iterator(const SeriesView *view, std::size_t index)
            : view(view), index(index)
        {}

        reference operator*() const { return (*view)[index]; }
        pointer operator->() const { return &(*view)[index]; }

        const_iterator &
        operator++()
        {
            ++index;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator out = *this;
            ++index;
            return out;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return index == o.index;
        }

        bool
        operator!=(const const_iterator &o) const
        {
            return index != o.index;
        }

      private:
        const SeriesView *view = nullptr;
        std::size_t index = 0;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const
    { return const_iterator(this, size()); }

  private:
    Chunk parts[2];
};

/**
 * Fixed-capacity ring of time-ordered samples. @p TimeOf extracts
 * the sample timestamp, @p ValueOf the digested scalar (peak).
 */
template <typename T, typename Traits>
class SampleRing
{
  public:
    explicit SampleRing(std::size_t capacity_ = 0)
        : cap(std::max<std::size_t>(1, capacity_))
    {}

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return cap; }

    /**
     * Append a sample (timestamps must be non-decreasing). Evicts
     * the oldest sample once the ring is full.
     */
    void
    push(const T &sample)
    {
        tapas_assert(count == 0 ||
                         Traits::timeOf(sample) >=
                             Traits::timeOf(back()),
                     "ring samples must arrive in time order");
        if (count > 0) {
            const SimTime gap =
                Traits::timeOf(sample) - Traits::timeOf(back());
            lastGapS = gap;
            if (gap > maxGapS)
                maxGapS = gap;
        }
        if (data.size() < cap) {
            // Growth phase: the logical run always ends at the
            // physical end (trim preserves head + count ==
            // data.size()), so a plain append extends it.
            data.push_back(sample);
            ++count;
        } else if (count < cap) {
            // Partially trimmed full-size ring: wrap by comparison
            // (head < cap and count < cap, so one subtraction
            // suffices; the telemetry recorder pushes every sensor
            // tick, so this path avoids the division).
            std::size_t pos = head + count;
            if (pos >= cap)
                pos -= cap;
            data[pos] = sample;
            ++count;
        } else {
            // Full: overwrite the oldest slot.
            digestEvict(data[head]);
            data[head] = sample;
            ++head;
            if (head == cap)
                head = 0;
        }
        digestAppend(sample);
    }

    /**
     * Drop samples with time < cutoff: search + one head advance.
     *
     * Edge cases (audited, pinned in test_series_ring.cc): a cutoff
     * at exactly the head sample's timestamp removes nothing
     * (samples are dropped strictly below the cutoff); a cutoff past
     * the last sample empties the ring and resets it to a fresh
     * growth phase, so the next push lands at the physical start and
     * the growth-path invariant (head + count == data.size()) holds
     * for every later regrow/wrap sequence — the PR-2 regrow bug was
     * a reset that skipped this step.
     */
    void
    trimBefore(SimTime cutoff)
    {
        // Binary search over the logically ordered ring.
        std::size_t lo = 0;
        std::size_t hi = count;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (Traits::timeOf(at(mid)) < cutoff) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if (lo == 0)
            return;
        if (peakValid) {
            for (std::size_t i = 0; i < lo; ++i)
                digestEvict(at(i));
        }
        // count > 0 here (lo > 0), so data is non-empty; head and lo
        // are both bounded by data.size(), so one subtraction wraps.
        head += lo;
        if (head >= data.size())
            head -= data.size();
        count -= lo;
        if (count == 0) {
            // Reset to a fresh growth phase (capacity retained):
            // the growth-path push appends at the physical end, so
            // an empty ring must also end there.
            data.clear();
            head = 0;
        }
    }

    const T &
    at(std::size_t i) const
    {
        tapas_assert(i < count, "ring index %zu out of %zu", i,
                     count);
        // head < data.size() and i < count <= data.size(): a single
        // comparison wraps (no modulo on the per-sample read path).
        std::size_t pos = head + i;
        if (pos >= data.size())
            pos -= data.size();
        return data[pos];
    }

    const T &front() const { return at(0); }
    const T &back() const { return at(count - 1); }

    SeriesView<T>
    view() const
    {
        if (count == 0)
            return SeriesView<T>();
        const std::size_t first_len =
            std::min(count, data.size() - head);
        typename SeriesView<T>::Chunk a{&data[head], first_len};
        typename SeriesView<T>::Chunk b{data.data(),
                                        count - first_len};
        return SeriesView<T>(a, b);
    }

    /** Peak digested value over the current contents. */
    double
    peakValue() const
    {
        if (!peakValid)
            recomputePeak();
        return count == 0 ? 0.0 : peak;
    }

    /** Time span covered by the current contents. */
    SimTime
    span() const
    {
        return count == 0
            ? 0
            : Traits::timeOf(back()) - Traits::timeOf(front());
    }

    /** Timestamp of the newest sample; -1 when empty. */
    SimTime
    lastTime() const
    {
        return count == 0 ? -1 : Traits::timeOf(back());
    }

    /**
     * Gap between the two newest pushes (0 until a second sample
     * arrives). A faulty feed that stops pushing shows up through
     * lastTime() age; one that resumes shows the hole here.
     */
    SimTime lastGap() const { return lastGapS; }

    /**
     * Largest inter-push gap observed over the series' lifetime
     * (maintained incrementally on push; trims do not rescan).
     */
    SimTime maxGap() const { return maxGapS; }

    /**
     * Serialize/restore the ring. Samples travel in logical
     * (oldest-first) order; a restored ring is rebuilt in canonical
     * form — head 0, physically contiguous — which push/trim handle
     * identically to the original layout, and the peak digest is
     * recomputed on the next query. A sample count read back is
     * checked against the capacity and against the bytes left
     * (Traits::kWireBytes per sample) before anything is allocated;
     * a count that fails either latches fail() and leaves the ring
     * empty.
     *
     * When Traits::kWireImage says a sample's memory image is its
     * wire image, the ring's (at most two) contiguous chunks travel
     * as one Archive::stableBytes() run each: a checkpoint writer
     * reads them in place (the ring must not change until its
     * write() returns), a digest hashes them in place, any other
     * archive copies them once. That is
     * a layout promise the sample's header guards with static_asserts
     * on sizeof, every field's offsetof, trivial copyability and a
     * little-endian host, so a new field (or padding, which would
     * leak uninitialized bytes into digests) breaks the build instead
     * of silently changing the format. Other samples go field-wise
     * through Traits::fields(ar, sample).
     */
    template <typename Ar>
    void
    checkpointState(Ar &ar)
    {
        std::size_t n = count;
        ar.count(cap);
        ar.count(n);
        ar.value(lastGapS);
        ar.value(maxGapS);
        if (!ar.writing()) {
            if (cap == 0 || n > cap ||
                !ar.checkCount(n, Traits::kWireBytes)) {
                ar.fail();
                cap = std::max<std::size_t>(1, cap);
                n = 0;
            }
            data.clear();
            data.resize(n);
            head = 0;
            count = n;
            peak = 0.0;
            peakValid = false;
        }
        if constexpr (Traits::kWireImage) {
            static_assert(Traits::kWireBytes == sizeof(T) &&
                          std::is_trivially_copyable_v<T>);
            const std::size_t first_len =
                std::min(count, data.size() - head);
            ar.stableBytes(data.data() + head, first_len * sizeof(T));
            ar.stableBytes(data.data(), (count - first_len) * sizeof(T));
        } else {
            for (std::size_t i = 0; i < count; ++i)
                Traits::fields(ar, const_cast<T &>(at(i)));
        }
    }

  private:
    std::vector<T> data;
    std::size_t cap = 1;
    std::size_t head = 0;
    std::size_t count = 0;
    SimTime lastGapS = 0;
    SimTime maxGapS = 0;

    /** Digest: peak is exact while valid; evicting the peak sample
     *  defers an O(n) rescan until the next query. */
    mutable double peak = 0.0;
    mutable bool peakValid = true;

    void
    digestAppend(const T &sample)
    {
        if (!peakValid)
            return;
        const double v = Traits::valueOf(sample);
        if (count == 1 || v > peak)
            peak = v;
    }

    void
    digestEvict(const T &sample)
    {
        if (peakValid && Traits::valueOf(sample) >= peak)
            peakValid = false;
    }

    void
    recomputePeak() const
    {
        peak = 0.0;
        for (std::size_t i = 0; i < count; ++i) {
            const double v = Traits::valueOf(at(i));
            if (i == 0 || v > peak)
                peak = v;
        }
        peakValid = true;
    }
};

} // namespace tapas

#endif // TAPAS_TELEMETRY_SERIES_HH
