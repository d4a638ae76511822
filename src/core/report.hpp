// Markdown summary report — the human-readable artefact of a pipeline run
// (what an operator or researcher would archive per analysis window).
#pragma once

#include <string>

#include "core/pipeline.hpp"

namespace cosmicdance::core {

/// Render the full markdown report: the dataset, the solar activity with
/// the 10 strongest storms, the happens-closely-after impact and the drag
/// table.
[[nodiscard]] std::string markdown_report(const CosmicDance& pipeline);

/// Render and write to a file.  Throws IoError on filesystem problems.
void write_markdown_report(const CosmicDance& pipeline, const std::string& path);

}  // namespace cosmicdance::core
