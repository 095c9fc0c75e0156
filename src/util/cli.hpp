// Command-line option tokenization for the madpipe CLI: every value-taking
// flag accepts both `--opt value` and `--opt=value`, with one splitting
// rule.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace madpipe::cli {

/// A tokenized argv entry: the flag name (including leading dashes) and the
/// inline `=value` part, when present.
struct OptionArg {
  std::string name;
  std::optional<std::string> inline_value;
};

/// Split one argv token at the first '=' — only for `--`-prefixed tokens
/// with a non-empty flag name, so positionals and values containing '=' are
/// never mangled. "--out=a=b" → {"--out", "a=b"}; "--json" → {"--json", ∅}.
OptionArg split_option(std::string_view token);

/// The value of a value-taking option: the inline part if present, else the
/// next argv entry (advancing *index past it). std::nullopt when the value
/// is missing — the caller owns the error message and exit path.
std::optional<std::string> take_value(const OptionArg& option, int argc,
                                      char** argv, int* index);

}  // namespace madpipe::cli
