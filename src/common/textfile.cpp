#include "common/textfile.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/digest.hpp"
#include "common/log.hpp"

namespace reno
{

bool
readTextFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::string text;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    if (ok)
        *out = std::move(text);
    return ok;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    int err = f ? 0 : errno;
    if (f) {
        if (std::fwrite(text.data(), 1, text.size(), f) != text.size())
            err = errno;
        if (std::fclose(f) != 0 && !err)
            err = errno;
    }
    if (err)
        warn("cannot write '%s': %s", path.c_str(), std::strerror(err));
    return !err;
}

TextFileStore::TextFileStore(std::string dir, const char *what)
    : dir_(std::move(dir)), what_(what)
{
}

std::string
TextFileStore::path(std::uint64_t key, const char *ext) const
{
    return dir_ + "/" + digestHex(key) + ext;
}

void
TextFileStore::store(std::uint64_t key, const char *ext,
                     const std::string &text) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("%s: cannot create '%s': %s", what_, dir_.c_str(),
             ec.message().c_str());
        return;
    }
    static std::atomic<std::uint64_t> serial{0};
    const std::string target = path(key, ext);
    const std::string tmp =
        strprintf("%s.tmp.%ld.%llu", target.c_str(),
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(++serial));
    if (writeTextFile(tmp, text))
        std::filesystem::rename(tmp, target, ec);
    if (ec)
        warn("%s: cannot rename '%s' into place: %s", what_, tmp.c_str(),
             ec.message().c_str());
    // Left behind only by a failed write or rename.
    std::filesystem::remove(tmp, ec);
}

bool
LineReader::takeLine(std::string_view *line)
{
    ++lineNo_;
    const std::size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos)
        return false;
    *line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return true;
}

bool
LineReader::fail(std::string_view expected)
{
    if (error_.empty())
        error_ = strprintf("line %u: expected '%.*s'", lineNo_,
                           int(expected.size()), expected.data());
    return false;
}

bool
LineReader::expectLine(std::string_view line)
{
    std::string_view got;
    return (takeLine(&got) && got == line) || fail(line);
}

bool
LineReader::finish()
{
    if (pos_ == text_.size())
        return true;
    if (error_.empty())
        error_ = strprintf("line %u: unexpected data", lineNo_ + 1);
    return false;
}

} // namespace reno
