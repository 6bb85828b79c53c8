package eval

import (
	"encoding/csv"
	"strings"
)

// RenderCSV converts any experiment's Render output into CSV. Every
// renderer in this package emits a one-line title followed by a column-
// aligned table: table.String pads each cell to its column's width and
// joins cells with two spaces, so each cell starts at its header's
// offset, and no header cell contains two consecutive spaces. A data
// row is therefore cut at its header's column starts, which keeps an
// empty cell in its own column, and the conversion is lossless. A title
// becomes a "# "-prefixed comment line and starts a new table.
func RenderCSV(rendered string) (string, error) {
	lines := strings.Split(strings.TrimRight(rendered, "\n"), "\n")
	var b strings.Builder
	w := csv.NewWriter(&b)
	var starts []int // column starts of the current table's header
	for _, line := range lines {
		if line == "" {
			continue
		}
		cells := splitAligned(line)
		switch {
		case len(cells) <= 1:
			// Title or section line: keep as a comment.
			b.WriteString("# " + line + "\n")
			starts = nil
			continue
		case starts == nil:
			starts = cellStarts([]rune(line))
		default:
			cells = cutAt([]rune(line), starts)
		}
		if err := w.Write(cells); err != nil {
			return "", err
		}
		w.Flush()
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return "", err
	}
	return b.String(), nil
}

// splitAligned splits a column-aligned row on runs of 2+ spaces.
func splitAligned(line string) []string {
	r := []rune(line)
	return cutAt(r, cellStarts(r))
}

// cellStarts returns the rune offsets at which line's cells begin: the
// first non-space rune, and every non-space rune after two or more
// spaces.
func cellStarts(line []rune) []int {
	var starts []int
	spaces := 2
	for i, r := range line {
		if r == ' ' {
			spaces++
			continue
		}
		if spaces >= 2 {
			starts = append(starts, i)
		}
		spaces = 0
	}
	return starts
}

// cutAt cuts line at the rune offsets starts into one trimmed cell per
// start; a start past the end of line gives an empty cell.
func cutAt(line []rune, starts []int) []string {
	cells := make([]string, len(starts))
	for i, s := range starts {
		end := len(line)
		if i+1 < len(starts) {
			end = min(starts[i+1], end)
		}
		if s < end {
			cells[i] = strings.TrimSpace(string(line[s:end]))
		}
	}
	return cells
}
