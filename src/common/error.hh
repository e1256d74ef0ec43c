/**
 * @file
 * Structured recoverable errors.
 *
 * The library draws a hard line between invariant violations and
 * recoverable failures. Invariants (a corrupted server map, an
 * out-of-range id) stay on tapas_assert/panic: they mean the program
 * itself is wrong and must die loudly. Recoverable failures — a
 * missing file, a truncated or bit-flipped checkpoint, a malformed
 * scenario spec — are *inputs* being wrong, and callers need to
 * branch on them: report, retry, fall back to a fresh start. Those
 * paths return tapas::Error (or Result<T>) instead of aborting.
 */

#ifndef TAPAS_COMMON_ERROR_HH
#define TAPAS_COMMON_ERROR_HH

#include <string>
#include <utility>

#include "common/logging.hh"

namespace tapas {

/** Category of a recoverable failure. */
enum class ErrorCode
{
    /** No error (the Error is "ok"). */
    None = 0,
    /** The operating system refused an I/O operation. */
    Io,
    /** Data failed a structural check (CRC, length, magic). */
    Corrupt,
    /** Data was written by an incompatible format version. */
    Version,
    /** Data is valid but belongs to a different configuration. */
    Mismatch,
    /** Malformed input (bad scenario spec, unknown key/value). */
    Invalid,
};

/** A recoverable failure: a category plus a human-readable message. */
class Error
{
  public:
    /** Success value. */
    Error() = default;

    Error(ErrorCode code, std::string message)
        : codeValue(code), messageText(std::move(message))
    {}

    static Error okValue() { return Error(); }

    static Error
    io(std::string message)
    {
        return Error(ErrorCode::Io, std::move(message));
    }

    static Error
    corrupt(std::string message)
    {
        return Error(ErrorCode::Corrupt, std::move(message));
    }

    static Error
    version(std::string message)
    {
        return Error(ErrorCode::Version, std::move(message));
    }

    static Error
    mismatch(std::string message)
    {
        return Error(ErrorCode::Mismatch, std::move(message));
    }

    static Error
    invalid(std::string message)
    {
        return Error(ErrorCode::Invalid, std::move(message));
    }

    bool ok() const { return codeValue == ErrorCode::None; }
    ErrorCode code() const { return codeValue; }
    const std::string &message() const { return messageText; }

    /** Short category name ("io", "corrupt", ...) for reports. */
    const char *
    codeName() const
    {
        switch (codeValue) {
        case ErrorCode::None:
            return "ok";
        case ErrorCode::Io:
            return "io";
        case ErrorCode::Corrupt:
            return "corrupt";
        case ErrorCode::Version:
            return "version";
        case ErrorCode::Mismatch:
            return "mismatch";
        case ErrorCode::Invalid:
            return "invalid";
        }
        return "unknown";
    }

  private:
    ErrorCode codeValue = ErrorCode::None;
    std::string messageText;
};

/**
 * A value or an Error. Accessing the value of a failed Result is an
 * invariant violation (the caller must branch on ok() first).
 */
template <typename T>
class Result
{
  public:
    Result(T value) // NOLINT(google-explicit-constructor)
        : val(std::move(value))
    {}

    Result(Error error) // NOLINT(google-explicit-constructor)
        : err(std::move(error))
    {
        tapas_assert(!err.ok(),
                     "Result constructed from an ok Error; return "
                     "the value instead");
    }

    bool ok() const { return err.ok(); }
    const Error &error() const { return err; }

    T &
    value()
    {
        tapas_assert(err.ok(), "Result::value() on error: %s",
                     err.message().c_str());
        return val;
    }

    const T &
    value() const
    {
        tapas_assert(err.ok(), "Result::value() on error: %s",
                     err.message().c_str());
        return val;
    }

  private:
    T val{};
    Error err;
};

} // namespace tapas

#endif // TAPAS_COMMON_ERROR_HH
