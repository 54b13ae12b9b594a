/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * The distinction mirrors gem5's logging conventions:
 *   - panic():  an internal invariant was violated (a bug in LiMiT++
 *               itself). Aborts so a debugger/core dump can be taken.
 *   - fatal():  the simulation cannot continue because of a user error
 *               (bad configuration, invalid argument). Exits with 1.
 *   - warn():   something is modelled approximately; results nearby may
 *               deserve scrutiny. Always printed, to stderr.
 */

#ifndef LIMIT_BASE_LOGGING_HH
#define LIMIT_BASE_LOGGING_HH

#include <sstream>
#include <string>

namespace limit {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);

/** Concatenate a mixed argument pack into a string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    if constexpr (sizeof...(Args) > 0)
        (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Abort with a message; use for internal invariant violations only. */
#define panic(...) \
    ::limit::detail::panicImpl(__FILE__, __LINE__, \
                               ::limit::detail::concat(__VA_ARGS__))

/** Exit(1) with a message; use for unrecoverable user/config errors. */
#define fatal(...) \
    ::limit::detail::fatalImpl(__FILE__, __LINE__, \
                               ::limit::detail::concat(__VA_ARGS__))

/** panic() unless the condition holds. */
#define panic_if(cond, ...)                                          \
    do {                                                             \
        if (cond) {                                                  \
            ::limit::detail::panicImpl(                              \
                __FILE__, __LINE__,                                  \
                ::limit::detail::concat("condition '" #cond "': ",   \
                                        __VA_ARGS__));               \
        }                                                            \
    } while (0)

/** fatal() unless the condition holds. */
#define fatal_if(cond, ...)                                          \
    do {                                                             \
        if (cond) {                                                  \
            ::limit::detail::fatalImpl(                              \
                __FILE__, __LINE__,                                  \
                ::limit::detail::concat("condition '" #cond "': ",   \
                                        __VA_ARGS__));               \
        }                                                            \
    } while (0)

/** Non-fatal advisory message. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace limit

#endif // LIMIT_BASE_LOGGING_HH
