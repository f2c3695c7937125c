package experiments

import (
	"fmt"
	"io"
)

// eq14 is a supplementary artifact (not a numbered paper table): it
// tabulates the paper's Equation 14, the parallel efficiency of MCMC
// sampling with burn-in k and thinning j across L computing units. As k
// grows, the efficiency slope decays from 1 (perfect scaling) toward 1/L —
// the analytic statement of why MCMC cannot weak-scale and AUTO can.
func eq14(p Preset, out io.Writer, csvDir string) error {
	samplesPerUnit := 512
	burnIns := []int{0, 100, 1000, 10000, 100000}
	units := []int{2, 4, 8, 16, 24}

	header := []string{"burn-in k"}
	for _, L := range units {
		header = append(header, fmt.Sprintf("L=%d", L))
	}
	tbl := newTable(
		fmt.Sprintf("Eq. 14: MCMC parallel efficiency (j=1, n=%d samples/unit)", samplesPerUnit),
		header...)
	for _, k := range burnIns {
		row := []any{k}
		for _, L := range units {
			row = append(row, fmt.Sprintf("%.4f", mcmcParallelEfficiency(k, 1, samplesPerUnit, L)))
		}
		tbl.AddRow(row...)
	}
	return emit(out, csvDir, "eq14.csv", tbl)
}
