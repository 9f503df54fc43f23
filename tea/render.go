package tea

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Format selects a report rendering for Report.Write.
type Format int

// Formats.
const (
	// FormatText renders the aligned human-readable table.
	FormatText Format = iota
	// FormatJSON renders a {"title","columns","rows","summary"} envelope
	// whose rows are the structured experiment rows, not formatted cells.
	FormatJSON
	// FormatCSV renders the header, formatted rows, and summary rows as CSV
	// (no title line).
	FormatCSV
)

// String returns the format's flag name.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatJSON:
		return "json"
	case FormatCSV:
		return "csv"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// ParseFormat parses a format flag name.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	case "csv":
		return FormatCSV, nil
	}
	return 0, fmt.Errorf("tea: unknown format %q (want text, json, or csv)", s)
}

// Report is a render-ready experiment outcome: the uniform shape every
// registered experiment returns (see RunExperiment). It carries a title, a
// header, formatted row and summary cells, and the structured rows for
// JSON; all three formats derive from it, so they can never drift apart.
type Report struct {
	title   string
	header  []string
	rows    [][]string
	footers [][]string
	data    any
}

// jsonReport is the FormatJSON envelope.
type jsonReport struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    any        `json:"rows"`
	Summary [][]string `json:"summary,omitempty"`
}

// Title returns the report's title line.
func (r *Report) Title() string { return r.title }

// Columns returns the report's column headers.
func (r *Report) Columns() []string { return append([]string(nil), r.header...) }

// Rows returns the structured experiment rows ([]SpeedupRow, []Result,
// []Fig8Row, ... depending on the experiment).
func (r *Report) Rows() any { return r.data }

// ErrorRows counts quarantined ERROR rows (errRow output, under
// ExpOptions.Partial): cells that failed and were excluded from the
// report's aggregates. Callers that need a degraded run to be
// machine-detectable (teaexp -partial's exit status, the serve daemon's
// response headers) key off this count.
func (r *Report) ErrorRows() int {
	n := 0
	for _, row := range r.rows {
		for _, cell := range row {
			if strings.HasPrefix(cell, "ERROR: ") {
				n++
				break
			}
		}
	}
	return n
}

// Write renders the report in the requested format.
func (r *Report) Write(w io.Writer, f Format) error {
	switch f {
	case FormatText:
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\n", r.title)
		fmt.Fprintf(tw, "%s\n", strings.Join(r.header, "\t"))
		for _, row := range r.rows {
			fmt.Fprintf(tw, "%s\n", strings.Join(row, "\t"))
		}
		for _, row := range r.footers {
			fmt.Fprintf(tw, "%s\n", strings.Join(row, "\t"))
		}
		return tw.Flush()
	case FormatJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonReport{Title: r.title, Columns: r.header, Rows: r.data, Summary: r.footers})
	case FormatCSV:
		cw := csv.NewWriter(w)
		if err := cw.Write(r.header); err != nil {
			return err
		}
		for _, row := range r.rows {
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		for _, row := range r.footers {
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	return fmt.Errorf("tea: unknown format %d", int(f))
}

// pct formats a signed percentage delta from a ratio (1.0 -> "+0.0%").
func pct(ratio float64) string { return fmt.Sprintf("%+.1f%%", 100*(ratio-1)) }

// errRow formats a quarantined row (ExpOptions.Partial): the leading
// identity cells, then an ERROR annotation in place of the metrics, padded
// to the report width. Reports exclude such rows from their aggregate
// footers — a geomean over quarantined zeros would be meaningless.
func errRow(lead []string, errMsg string, width int) []string {
	const maxErr = 60
	if len(errMsg) > maxErr {
		errMsg = errMsg[:maxErr-3] + "..."
	}
	row := append(lead, "ERROR: "+errMsg)
	for len(row) < width {
		row = append(row, "")
	}
	return row
}

func speedupsReport(title string, rows []SpeedupRow) *Report {
	r := &Report{
		title:  title,
		header: []string{"workload", "base cyc", "with cyc", "speedup", "coverage", "accuracy"},
		data:   rows,
	}
	var sp []float64
	for _, row := range rows {
		if row.Err != "" {
			r.rows = append(r.rows, errRow([]string{row.Workload}, row.Err, len(r.header)))
			continue
		}
		r.rows = append(r.rows, []string{
			row.Workload,
			fmt.Sprintf("%d", row.Base.Cycles),
			fmt.Sprintf("%d", row.With.Cycles),
			pct(row.Speedup),
			fmt.Sprintf("%.0f%%", 100*row.With.Coverage),
			fmt.Sprintf("%.1f%%", 100*row.With.Accuracy),
		})
		sp = append(sp, row.Speedup)
	}
	r.footers = [][]string{{"geomean", "", "", pct(Geomean(sp)), "", ""}}
	return r
}

func fig6Report(rows []Result) *Report {
	r := &Report{
		title:  "Fig 6: branch MPKI (baseline)",
		header: []string{"workload", "MPKI", "cond misp", "target misp", "IPC"},
		data:   rows,
	}
	for _, row := range rows {
		if row.Err != "" {
			r.rows = append(r.rows, errRow([]string{row.Workload}, row.Err, len(r.header)))
			continue
		}
		r.rows = append(r.rows, []string{
			row.Workload,
			fmt.Sprintf("%.1f", row.MPKI),
			fmt.Sprintf("%d", row.CondMispredicts),
			fmt.Sprintf("%d", row.IndMispredicts),
			fmt.Sprintf("%.2f", row.IPC),
		})
	}
	return r
}

func fig7Report(rows []Result) *Report {
	r := &Report{
		title: "Fig 7: misprediction breakdown under TEA",
		header: []string{"workload", "covered", "late", "incorrect", "uncovered",
			"coverage", "accuracy"},
		data: rows,
	}
	var cov, acc []float64
	for _, row := range rows {
		if row.Err != "" {
			r.rows = append(r.rows, errRow([]string{row.Workload}, row.Err, len(r.header)))
			continue
		}
		r.rows = append(r.rows, []string{
			row.Workload,
			fmt.Sprintf("%d", row.Covered),
			fmt.Sprintf("%d", row.Late),
			fmt.Sprintf("%d", row.Incorrect),
			fmt.Sprintf("%d", row.Uncovered),
			fmt.Sprintf("%.0f%%", 100*row.Coverage),
			fmt.Sprintf("%.1f%%", 100*row.Accuracy),
		})
		cov = append(cov, row.Coverage)
		acc = append(acc, row.Accuracy)
	}
	r.footers = [][]string{{"mean", "", "", "", "",
		fmt.Sprintf("%.0f%%", 100*mean(cov)), fmt.Sprintf("%.1f%%", 100*mean(acc))}}
	return r
}

func fig8Report(rows []Fig8Row) *Report {
	grouped := append([]Fig8Row(nil), rows...)
	sort.SliceStable(grouped, func(i, j int) bool {
		return grouped[i].SimpleFlow && !grouped[j].SimpleFlow
	})
	r := &Report{
		title:  "Fig 8: TEA vs Branch Runahead",
		header: []string{"workload", "flow", "TEA", "Runahead"},
		data:   grouped,
	}
	var teaAll, brAll, teaS, brS, teaC, brC []float64
	for _, row := range grouped {
		flow := "complex"
		if row.SimpleFlow {
			flow = "simple"
		}
		if row.Err != "" {
			r.rows = append(r.rows, errRow([]string{row.Workload, flow}, row.Err, len(r.header)))
			continue
		}
		r.rows = append(r.rows, []string{row.Workload, flow, pct(row.TEA), pct(row.Runahead)})
		teaAll = append(teaAll, row.TEA)
		brAll = append(brAll, row.Runahead)
		if row.SimpleFlow {
			teaS, brS = append(teaS, row.TEA), append(brS, row.Runahead)
		} else {
			teaC, brC = append(teaC, row.TEA), append(brC, row.Runahead)
		}
	}
	r.footers = [][]string{
		{"geomean simple", "", pct(Geomean(teaS)), pct(Geomean(brS))},
		{"geomean complex", "", pct(Geomean(teaC)), pct(Geomean(brC))},
		{"geomean all", "", pct(Geomean(teaAll)), pct(Geomean(brAll))},
	}
	return r
}

func fig10Report(rows []Fig10Row) *Report {
	r := &Report{
		title:  "Fig 10: thread-construction ablations",
		header: []string{"config", "workload", "accuracy", "coverage", "saved/branch"},
		data:   rows,
	}
	agg := map[string][]Fig10Row{}
	var order []string
	for _, row := range rows {
		if _, seen := agg[row.Config]; !seen {
			order = append(order, row.Config)
		}
		if row.Err != "" {
			r.rows = append(r.rows, errRow([]string{row.Config, row.Workload}, row.Err, len(r.header)))
			continue
		}
		agg[row.Config] = append(agg[row.Config], row)
		r.rows = append(r.rows, []string{
			row.Config, row.Workload,
			fmt.Sprintf("%.1f%%", 100*row.Accuracy),
			fmt.Sprintf("%.0f%%", 100*row.Coverage),
			fmt.Sprintf("%.1f", row.Saved),
		})
	}
	for _, cfg := range order {
		var acc, cov, saved []float64
		for _, row := range agg[cfg] {
			acc = append(acc, row.Accuracy)
			cov = append(cov, row.Coverage)
			saved = append(saved, row.Saved)
		}
		r.footers = append(r.footers, []string{"mean " + cfg, "",
			fmt.Sprintf("%.1f%%", 100*mean(acc)),
			fmt.Sprintf("%.0f%%", 100*mean(cov)),
			fmt.Sprintf("%.1f", mean(saved))})
	}
	return r
}

func table3Report(rows []Result) *Report {
	r := &Report{
		title:  "Table III: extra dynamic uops fetched by the TEA thread",
		header: []string{"workload", "overhead"},
		data:   rows,
	}
	var ov []float64
	for _, row := range rows {
		if row.Err != "" {
			r.rows = append(r.rows, errRow([]string{row.Workload}, row.Err, len(r.header)))
			continue
		}
		r.rows = append(r.rows, []string{row.Workload, fmt.Sprintf("+%.1f%%", row.UopOverheadPct)})
		ov = append(ov, row.UopOverheadPct)
	}
	r.footers = [][]string{{"mean", fmt.Sprintf("+%.1f%%", mean(ov))}}
	return r
}

func sensitivityReport(p SensParam, rows []SensRow) *Report {
	r := &Report{
		title:  fmt.Sprintf("Sensitivity: %s", p),
		header: []string{"workload", "value", "speedup", "coverage", "accuracy"},
		data:   rows,
	}
	byValue := map[int][]float64{}
	var order []int
	for _, row := range rows {
		if _, seen := byValue[row.Value]; !seen {
			order = append(order, row.Value)
			byValue[row.Value] = nil
		}
		if row.Err != "" {
			r.rows = append(r.rows, errRow(
				[]string{row.Workload, fmt.Sprintf("%d", row.Value)}, row.Err, len(r.header)))
			continue
		}
		r.rows = append(r.rows, []string{
			row.Workload,
			fmt.Sprintf("%d", row.Value),
			pct(row.Speedup),
			fmt.Sprintf("%.0f%%", 100*row.Coverage),
			fmt.Sprintf("%.1f%%", 100*row.Accuracy),
		})
		byValue[row.Value] = append(byValue[row.Value], row.Speedup)
	}
	for _, v := range order {
		r.footers = append(r.footers, []string{
			fmt.Sprintf("geomean @%d", v), "", pct(Geomean(byValue[v])), "", ""})
	}
	return r
}
