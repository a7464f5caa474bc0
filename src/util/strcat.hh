/**
 * @file
 * strCat: build a short string (typically a signal name such as
 * "n3_4_rx") from string pieces and integers in one pass. Design
 * generators and tests name thousands of signals this way. The obvious
 * `"r" + std::to_string(i)` builds the same string, but GCC 12 reports
 * a false -Wrestrict overlap inside the libstdc++ insert it inlines,
 * and the CI build treats warnings as errors.
 */

#ifndef PARENDI_UTIL_STRCAT_HH
#define PARENDI_UTIL_STRCAT_HH

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

namespace parendi {

namespace detail {

inline void
strCatAppend(std::string &out, std::string_view s)
{
    out.append(s);
}

inline void
strCatAppend(std::string &out, char c)
{
    out.push_back(c);
}

template <typename Int,
          std::enable_if_t<std::is_integral_v<Int> &&
                               !std::is_same_v<Int, char> &&
                               !std::is_same_v<Int, bool>,
                           int> = 0>
void
strCatAppend(std::string &out, Int v)
{
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    out.append(buf, end);
}

} // namespace detail

/** Concatenate @p parts (strings, string literals, characters and
 *  integers, the integers in decimal). */
template <typename... Parts>
std::string
strCat(const Parts &...parts)
{
    std::string out;
    (detail::strCatAppend(out, parts), ...);
    return out;
}

} // namespace parendi

#endif // PARENDI_UTIL_STRCAT_HH
