#ifndef MWSJ_TESTS_TESTING_COUNTING_NEW_H_
#define MWSJ_TESTS_TESTING_COUNTING_NEW_H_

#include <cstdint>

namespace mwsj::testing {

/// Heap blocks handed out by the global allocation functions since the
/// process started. Linking the `mwsj_counting_new` object library into a
/// binary replaces every replaceable global `operator new` / `operator
/// delete` form — plain, array, nothrow, sized and aligned — with counting
/// wrappers over malloc/free, so allocation-free contracts can be pinned by
/// taking deltas of this count. Every new form is paired with a delete
/// form that frees through the same allocator (the nothrow forms matter:
/// `std::stable_sort`'s temporary buffer uses them).
int64_t HeapAllocs();

}  // namespace mwsj::testing

#endif  // MWSJ_TESTS_TESTING_COUNTING_NEW_H_
