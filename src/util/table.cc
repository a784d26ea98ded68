#include "util/table.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)), aligns_(headers_.size(), Align::Right)
{
    if (headers_.empty())
        panic("Table requires at least one column");
}

void
Table::setAlign(size_t col, Align align)
{
    if (col >= aligns_.size())
        panic("Table::setAlign: column %zu out of range", col);
    aligns_[col] = align;
}

void
Table::setTitle(std::string title)
{
    title_ = std::move(title);
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size()) {
        panic("Table::addRow: got %zu cells, expected %zu", cells.size(),
              headers_.size());
    }
    rows_.push_back(std::move(cells));
    ++numDataRows_;
}

void
Table::addSeparator()
{
    rows_.emplace_back();
}

std::string
Table::render() const
{
    // One displayWidth per cell, kept for the padding pass.
    std::vector<size_t> widths(headers_.size());
    std::vector<size_t> header_widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = header_widths[c] = displayWidth(headers_[c]);
    std::vector<size_t> cell_widths;
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c) {
            size_t w = displayWidth(row[c]);
            cell_widths.push_back(w);
            widths[c] = std::max(widths[c], w);
        }
    }

    std::string rule = "+";
    for (size_t width : widths) {
        rule.append(width + 2, '-');
        rule += '+';
    }
    rule += '\n';

    std::string out;
    // Every line is about as long as a rule (more for multi-byte glyphs).
    out.reserve(title_.size() + (rows_.size() + 5) * rule.size());
    // " " + cell padded to its column's width + " |".
    auto append_cell = [&](const std::string &s, size_t w, size_t c) {
        const size_t total = widths[c] - w;
        size_t left = 0;
        switch (aligns_[c]) {
          case Align::Left:
            break;
          case Align::Center:
            left = total / 2;
            break;
          case Align::Right:
          default:
            left = total;
            break;
        }
        out += ' ';
        out.append(left, ' ');
        out += s;
        out.append(total - left, ' ');
        out += " |";
    };

    if (!title_.empty()) {
        out += title_;
        out += '\n';
    }
    out += rule;
    out += '|';
    for (size_t c = 0; c < headers_.size(); ++c)
        append_cell(headers_[c], header_widths[c], c);
    out += '\n';
    out += rule;
    size_t k = 0;
    for (const auto &row : rows_) {
        if (row.empty()) {
            out += rule;
            continue;
        }
        out += '|';
        for (size_t c = 0; c < row.size(); ++c)
            append_cell(row[c], cell_widths[k++], c);
        out += '\n';
    }
    out += rule;
    return out;
}

std::string
Table::renderCsv() const
{
    std::string out = join(headers_, ",") + "\n";
    for (const auto &row : rows_) {
        if (row.empty())
            continue;
        out += join(row, ",") + "\n";
    }
    return out;
}

} // namespace snoop
