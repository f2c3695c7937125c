package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/vqmc-scale/parvqmc/internal/core"
)

// table is a column-aligned text table with a title: the shape the paper
// prints, and the unit every experiment emits.
type table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// newTable creates a table with the given title and column headers.
func newTable(title string, header ...string) *table {
	return &table{Title: title, Header: header}
}

// AddRow appends a row; floats go through formatFloat, the rest through %v.
func (t *table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// formatFloat renders a float compactly: integers without decimals, small
// magnitudes with enough precision to read.
func formatFloat(v float64) string {
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case v == float64(int64(v)) && a < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// meanStd formats "mean +- std" the way the paper's tables do.
func meanStd(mean, std float64) string {
	return fmt.Sprintf("%s +- %s", formatFloat(mean), formatFloat(std))
}

// Render writes the aligned table to w.
func (t *table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the table as CSV (header + rows) to path, creating parent
// directories as needed. An error closing the file is returned like any
// other.
func (t *table) WriteCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	if err := csv.NewWriter(&b).WriteAll(append([][]string{t.Header}, t.Rows...)); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// emit is how every experiment publishes a table: rendered to out, then
// saved as csvDir/name.
func emit(out io.Writer, csvDir, name string, t *table) error {
	if err := t.Render(out); err != nil {
		return err
	}
	return saveCSV(csvDir, name, t)
}

// saveCSV writes t to csvDir/name; an empty csvDir skips it.
func saveCSV(csvDir, name string, t *table) error {
	if csvDir == "" {
		return nil
	}
	return t.WriteCSV(filepath.Join(csvDir, name))
}

// curveTable lays out a training curve (the series behind the paper's
// Figure 2) in a fixed column order: iter, energy, std.
func curveTable(curve []core.IterStats) *table {
	t := newTable("", "iter", "energy", "std")
	for _, s := range curve {
		t.AddRow(s.Iter, s.Energy, s.Std)
	}
	return t
}
