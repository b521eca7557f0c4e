// Whole-file text persistence shared by the plan and wisdom stores.
//
// save_text_file is crash-safe: the text goes to a sibling `path.tmp`, which
// is then renamed over `path`. The plan-load fault point (common/fault.h)
// sits in the crash window between the two, so a failure or injected fault
// mid-save leaves any previous file byte-identical and removes the temp
// file; a reader never observes a torn file.
#pragma once

#include <optional>
#include <string>

namespace lowino {

/// Writes `text` to `path` through `path.tmp` + rename. False on an I/O
/// failure; an injected plan-load fault propagates. Either way no temp file
/// is left behind.
bool save_text_file(const std::string& path, const std::string& text);

/// The whole file at `path`; nullopt when it cannot be opened. Crosses the
/// plan-load fault point first.
std::optional<std::string> load_text_file(const std::string& path);

}  // namespace lowino
