#include "common/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/log.hpp"

namespace reno
{

namespace
{

/** --help layout: help text starts in HelpColumn and wraps at Width. */
constexpr std::size_t HelpColumn = 27;
constexpr std::size_t Width = 72;

} // namespace

void
FlagTable::flag(std::string name, std::string help,
                std::function<void()> set)
{
    add({std::move(name), Arity::None, "", std::move(help), section_,
         [set = std::move(set)](const OptionalValue &) { set(); }});
}

void
FlagTable::flag(std::string name, std::string help, bool *on)
{
    flag(std::move(name), std::move(help), [on] { *on = true; });
}

void
FlagTable::value(std::string name, std::string metavar, std::string help,
                 std::function<void(const std::string &)> set)
{
    add({std::move(name), Arity::Value, std::move(metavar),
         std::move(help), section_,
         [set = std::move(set)](const OptionalValue &v) { set(*v); }});
}

void
FlagTable::value(std::string name, std::string metavar, std::string help,
                 std::string *out)
{
    value(std::move(name), std::move(metavar), std::move(help),
          [out](const std::string &v) { *out = v; });
}

void
FlagTable::file(std::string name, std::string help, std::string *out)
{
    const std::string flag = name;
    value(std::move(name), "FILE", std::move(help),
          [flag, out](const std::string &v) {
              if (v.empty())
                  fatal("%s expects a file path", flag.c_str());
              *out = v;
          });
}

void
FlagTable::optionalValue(std::string name, std::string metavar,
                         std::string help,
                         std::function<void(const OptionalValue &)> set)
{
    add({std::move(name), Arity::Optional, std::move(metavar),
         std::move(help), section_, std::move(set)});
}

void
FlagTable::positional(std::string metavar, std::string help,
                      std::function<void(const std::string &)> set)
{
    add({"", Arity::Value, std::move(metavar), std::move(help), section_,
         [set = std::move(set)](const OptionalValue &v) { set(*v); }});
}

void
FlagTable::add(Flag flag)
{
    if (find(flag.name) || flag.name == "--help" || flag.name == "-h")
        panic("flag '%s' registered twice", flag.name.c_str());
    flags_.push_back(std::move(flag));
}

const FlagTable::Flag *
FlagTable::find(const std::string &name) const
{
    for (const Flag &f : flags_) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

void
FlagTable::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage(argv[0]).c_str(), stdout);
            std::exit(0);
        }
        const bool dashed = !arg.empty() && arg[0] == '-';
        const std::size_t eq = dashed ? arg.find('=') : std::string::npos;
        const Flag *f = find(dashed ? arg.substr(0, eq) : "");
        if (!f || (eq != std::string::npos && f->arity == Arity::None))
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        if (!dashed)
            f->set(arg);
        else if (eq != std::string::npos)
            f->set(arg.substr(eq + 1));
        else if (f->arity != Arity::Value)
            f->set(std::nullopt);
        else if (i + 1 < argc)
            f->set(std::string(argv[++i]));
        else
            fatal("%s expects a value", arg.c_str());
    }
}

std::string
FlagTable::usage(const std::string &program) const
{
    const Flag *operand = find("");
    std::string out = "usage: " + program + " [options]" +
                      (operand ? " " + operand->metavar : "") + "\n";
    for (std::size_t i = 0; i < flags_.size(); ++i) {
        const Flag &f = flags_[i];
        if (i == 0 || f.section != flags_[i - 1].section)
            out += "\n" + (f.section.empty() ? "options" : f.section) +
                   ":\n";
        std::string line = "  " + (f.name.empty() ? f.metavar : f.name);
        if (f.arity == Arity::Value && !f.name.empty())
            line += " " + f.metavar;
        else if (f.arity == Arity::Optional)
            line += "[=" + f.metavar + "]";
        // Word-wrap the help into its column; a label too wide for the
        // column gets a line of its own.
        if (line.size() >= HelpColumn) {
            out += line + "\n";
            line.clear();
        }
        line.resize(HelpColumn, ' ');
        std::istringstream words(f.help);
        for (std::string word; words >> word;) {
            if (line.size() > HelpColumn &&
                line.size() + 1 + word.size() > Width) {
                out += line + "\n";
                line.assign(HelpColumn, ' ');
            }
            line += (line.size() > HelpColumn ? " " : "") + word;
        }
        out += line + "\n";
    }
    return out;
}

} // namespace reno
