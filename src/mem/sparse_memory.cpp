#include "mem/sparse_memory.hpp"

#include <algorithm>
#include <string>

#include "common/log.hpp"

namespace reno
{

const SparseMemory::Page *
SparseMemory::findPage(Addr addr) const
{
    auto it = pages_.find(addr >> PageBits);
    return it == pages_.end() ? nullptr : &it->second;
}

SparseMemory::Page &
SparseMemory::getPage(Addr addr)
{
    auto [it, inserted] = pages_.try_emplace(addr >> PageBits);
    if (inserted)
        it->second.assign(PageSize, 0);
    return it->second;
}

std::uint8_t
SparseMemory::readByte(Addr addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr & (PageSize - 1)] : 0;
}

void
SparseMemory::writeByte(Addr addr, std::uint8_t value)
{
    getPage(addr)[addr & (PageSize - 1)] = value;
}

// The decoded emulator calls read() and write() on every load and
// store, and their speed depends on where they fall within a 64-byte
// line: an unrelated change elsewhere in the link that moved them by
// 16 bytes cost about 10% of the functional-run time. Starting each on
// a line keeps their speed independent of the code around them.
[[gnu::aligned(64)]] std::uint64_t
SparseMemory::read(Addr addr, unsigned size) const
{
    // Fast path: the access lies within one page (one map lookup).
    const Addr off = addr & (PageSize - 1);
    if (off + size <= PageSize) {
        const Page *page = findPage(addr);
        if (!page)
            return 0;
        std::uint64_t value = 0;
        for (unsigned i = 0; i < size; ++i)
            value |= std::uint64_t{(*page)[off + i]} << (8 * i);
        return value;
    }
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i)
        value |= std::uint64_t{readByte(addr + i)} << (8 * i);
    return value;
}

[[gnu::aligned(64)]] void
SparseMemory::write(Addr addr, std::uint64_t value, unsigned size)
{
    // Fast path: the access lies within one page (one map lookup).
    const Addr off = addr & (PageSize - 1);
    if (off + size <= PageSize) {
        Page &page = getPage(addr);
        for (unsigned i = 0; i < size; ++i)
            page[off + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        writeByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

void
SparseMemory::load(Addr base, const std::uint8_t *data, size_t len)
{
    // Page-chunked: one map lookup per page, not per byte.
    size_t i = 0;
    while (i < len) {
        const Addr addr = base + i;
        const Addr off = addr & (PageSize - 1);
        const size_t chunk =
            std::min<size_t>(len - i, PageSize - off);
        Page &page = getPage(addr);
        std::copy(data + i, data + i + chunk, page.begin() + off);
        i += chunk;
    }
}

std::string
SparseMemory::readString(Addr addr) const
{
    std::string out;
    for (Addr a = addr; a < addr + 65536; ++a) {
        const char c = static_cast<char>(readByte(a));
        if (c == '\0')
            return out;
        out += c;
    }
    panic("readString: unterminated string at 0x%llx",
          static_cast<unsigned long long>(addr));
}

std::uint64_t
SparseMemory::digest() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 0x100000001b3ULL;
    };
    for (const auto &[page_num, page] : pages_) {
        for (unsigned i = 0; i < 8; ++i)
            mix(static_cast<std::uint8_t>(page_num >> (8 * i)));
        for (std::uint8_t b : page)
            mix(b);
    }
    return h;
}

} // namespace reno
