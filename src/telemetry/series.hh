/**
 * @file
 * Bounded time-series storage for telemetry: a fixed-capacity ring
 * buffer with O(1) append. Queries hand out a lightweight view over
 * the at most two contiguous chunks of a (possibly wrapped) ring, so
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
 * Fixed-capacity ring of time-ordered samples. @p Traits::timeOf
 * extracts the sample timestamp.
 */
template <typename T, typename Traits>
class SampleRing
{
  public:
    /** Capacity, count, lastGap and maxGap: the wire bytes of an
     *  empty ring, the fewest one takes. */
    static constexpr std::size_t kHeaderWireBytes = 4 * 8;

    explicit SampleRing(std::size_t capacity_ = 0)
        : cap(std::max<std::size_t>(1, capacity_))
    {}

    std::size_t size() const { return data.size(); }
    bool empty() const { return data.empty(); }
    std::size_t capacity() const { return cap; }

    /**
     * Append a sample (timestamps must be non-decreasing). Evicts
     * the oldest sample once the ring is full.
     */
    void
    push(const T &sample)
    {
        tapas_assert(empty() ||
                         Traits::timeOf(sample) >=
                             Traits::timeOf(back()),
                     "ring samples must arrive in time order");
        if (!empty()) {
            const SimTime gap =
                Traits::timeOf(sample) - Traits::timeOf(back());
            lastGapS = gap;
            if (gap > maxGapS)
                maxGapS = gap;
        }
        if (data.size() < cap) {
            // Growth phase: head is 0 (a restored ring is rebuilt
            // at head 0), so the logical run ends at the physical
            // end and a plain append extends it.
            data.push_back(sample);
        } else {
            // Full: overwrite the oldest slot.
            data[head] = sample;
            ++head;
            if (head == cap)
                head = 0;
        }
    }

    const T &
    at(std::size_t i) const
    {
        tapas_assert(i < data.size(), "ring index %zu out of %zu", i,
                     data.size());
        // head < data.size() and i < data.size(): a single
        // comparison wraps (no modulo on the per-sample read path).
        std::size_t pos = head + i;
        if (pos >= data.size())
            pos -= data.size();
        return data[pos];
    }

    const T &front() const { return at(0); }
    const T &back() const { return at(data.size() - 1); }

    SeriesView<T>
    view() const
    {
        if (empty())
            return SeriesView<T>();
        typename SeriesView<T>::Chunk a{&data[head],
                                        data.size() - head};
        typename SeriesView<T>::Chunk b{data.data(), head};
        return SeriesView<T>(a, b);
    }

    /** Timestamp of the newest sample; -1 when empty. */
    SimTime
    lastTime() const
    {
        return empty() ? -1 : Traits::timeOf(back());
    }

    /**
     * Gap between the two newest pushes (0 until a second sample
     * arrives). A faulty feed that stops pushing shows up through
     * lastTime() age; one that resumes shows the hole here.
     */
    SimTime lastGap() const { return lastGapS; }

    /**
     * Largest inter-push gap observed over the series' lifetime
     * (maintained incrementally on push).
     */
    SimTime maxGap() const { return maxGapS; }

    /**
     * Serialize/restore the ring. Samples travel in logical
     * (oldest-first) order; a restored ring is rebuilt in canonical
     * form — head 0, physically contiguous — which push handles
     * identically to the original layout. A sample count read back
     * is checked against the capacity and against the bytes left
     * (Traits::kWireBytes per sample) before anything is allocated;
     * a count that fails either latches fail() and leaves the ring
     * empty.
     *
     * When Traits::kWireImage says a sample's memory image is its
     * wire image, the ring's (at most two) contiguous chunks travel
     * as one Archive::stableBytes() run each: a checkpoint writer
     * CRCs and writes them in place (the ring must not change until
     * the writer's section walk returns), a digest hashes them in
     * place, any other archive copies them once. That is
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
        std::size_t n = data.size();
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
        }
        if constexpr (Traits::kWireImage) {
            static_assert(Traits::kWireBytes == sizeof(T) &&
                          std::is_trivially_copyable_v<T>);
            ar.stableBytes(data.data() + head,
                           (data.size() - head) * sizeof(T));
            ar.stableBytes(data.data(), head * sizeof(T));
        } else {
            for (std::size_t i = 0; i < data.size(); ++i)
                Traits::fields(ar, const_cast<T &>(at(i)));
        }
    }

  private:
    /** Samples; once full (size == cap), the oldest is at head. */
    std::vector<T> data;
    std::size_t cap = 1;
    std::size_t head = 0;
    SimTime lastGapS = 0;
    SimTime maxGapS = 0;
};

} // namespace tapas

#endif // TAPAS_TELEMETRY_SERIES_HH
