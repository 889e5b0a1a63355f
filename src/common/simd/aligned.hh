/**
 * @file
 * Cache-line / vector-register aligned allocation for the SoA hot
 * arrays. The SIMD kernels use unaligned loads (so any pointer is
 * *correct*), but 64-byte alignment keeps every 256-bit access inside
 * one cache line and lets the hardware prefetcher see clean streams;
 * threading AlignedVector through the bank's row scratch makes that
 * the default for every kernel operand.
 */

#ifndef FRACDRAM_COMMON_SIMD_ALIGNED_HH
#define FRACDRAM_COMMON_SIMD_ALIGNED_HH

#include <cstddef>
#include <new>
#include <vector>

namespace fracdram::simd
{

/** Minimal std::allocator drop-in with a fixed alignment. */
template <typename T, std::size_t Align = 64>
struct AlignedAllocator
{
    static_assert((Align & (Align - 1)) == 0, "Align must be a power "
                                              "of two");
    static_assert(Align >= alignof(T), "Align below the type's own "
                                       "requirement");

    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{Align}));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{Align});
    }

    friend bool operator==(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return true;
    }
};

/** std::vector whose data() is 64-byte aligned. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

} // namespace fracdram::simd

#endif // FRACDRAM_COMMON_SIMD_ALIGNED_HH
