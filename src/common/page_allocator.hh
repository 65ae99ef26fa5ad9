/**
 * @file
 * An allocator that gives every allocation its own anonymous memory
 * mapping and unmaps it on release.
 *
 * For large arrays that live for one run, such as the LLC's line
 * array. From the general heap, a block that size stays resident
 * after it is freed, and whether the next run's block fits in the
 * same place depends on how small allocations fell around it; when it
 * does not, the heap grows and the peak RSS of a process that runs
 * many experiments jumps by the block's size. A mapping of its own
 * is returned to the system on release and never fragments the heap.
 */

#ifndef MITHRIL_COMMON_PAGE_ALLOCATOR_HH
#define MITHRIL_COMMON_PAGE_ALLOCATOR_HH

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace mithril
{

template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        void *p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        ::munmap(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
    template <typename U>
    bool operator!=(const PageAllocator<U> &) const noexcept
    {
        return false;
    }
};

} // namespace mithril

#endif // MITHRIL_COMMON_PAGE_ALLOCATOR_HH
