/**
 * @file
 * Input symbol streams and segment views over them.
 */

#ifndef PAP_ENG_TRACE_H
#define PAP_ENG_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace pap {

/** An input stream of 8-bit symbols. */
class InputTrace
{
  public:
    InputTrace() = default;

    /** Wrap an existing symbol vector. */
    explicit InputTrace(std::vector<Symbol> symbols)
        : data(std::move(symbols))
    {}

    /** Build from a text string. */
    static InputTrace fromString(const std::string &text);

    /** Load raw bytes from a file; fatal if it cannot be opened. */
    static InputTrace fromFile(const std::string &path);

    std::size_t size() const { return data.size(); }
    bool empty() const { return data.empty(); }
    const Symbol *begin() const { return data.data(); }
    const Symbol *ptr(std::size_t offset) const
    {
        return data.data() + offset;
    }
    Symbol operator[](std::size_t i) const { return data[i]; }
    const std::vector<Symbol> &symbols() const { return data; }
    std::vector<Symbol> &symbols() { return data; }

  private:
    std::vector<Symbol> data;
};

/**
 * A half-open [begin, end) slice of the input assigned to one
 * half-core. Segments are produced by the range-guided partitioner.
 */
struct Segment
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    std::uint64_t length() const { return end - begin; }
};

} // namespace pap

#endif // PAP_ENG_TRACE_H
