/**
 * @file
 * A file-size limit for tests of failed writes: while it lives, a
 * write past @p bytes into a regular file fails with EFBIG instead of
 * raising SIGXFSZ, which it ignores.
 */

#ifndef TAPAS_TESTS_COMMON_FILE_SIZE_LIMIT_HH
#define TAPAS_TESTS_COMMON_FILE_SIZE_LIMIT_HH

#include <csignal>

#include <sys/resource.h>

namespace tapas {

/** Lowers RLIMIT_FSIZE's soft limit and ignores SIGXFSZ; restores
 *  both on every return. */
struct FileSizeLimit
{
    rlimit saved{};
    struct sigaction savedAction{};

    explicit FileSizeLimit(rlim_t bytes)
    {
        getrlimit(RLIMIT_FSIZE, &saved);
        struct sigaction ignore{};
        ignore.sa_handler = SIG_IGN;
        sigaction(SIGXFSZ, &ignore, &savedAction);
        rlimit low = saved;
        low.rlim_cur = bytes;
        setrlimit(RLIMIT_FSIZE, &low);
    }
    ~FileSizeLimit()
    {
        setrlimit(RLIMIT_FSIZE, &saved);
        sigaction(SIGXFSZ, &savedAction, nullptr);
    }

    FileSizeLimit(const FileSizeLimit &) = delete;
    FileSizeLimit &operator=(const FileSizeLimit &) = delete;
};

} // namespace tapas

#endif // TAPAS_TESTS_COMMON_FILE_SIZE_LIMIT_HH
