package tea

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden report files")

// Hand-built rows: the golden files pin the rendering, not the simulator,
// so the values are small fixed numbers.

func sampleSpeedupRows() []SpeedupRow {
	return []SpeedupRow{
		{
			Workload: "bfs",
			Base:     Result{Workload: "bfs", Mode: ModeBaseline, Cycles: 200000, Instructions: 100000, IPC: 0.5, Accuracy: 1},
			With:     Result{Workload: "bfs", Mode: ModeTEA, Cycles: 160000, Instructions: 100000, IPC: 0.625, Coverage: 0.92, Accuracy: 0.998},
			Speedup:  1.25,
		},
		{
			Workload: "mcf",
			Base:     Result{Workload: "mcf", Mode: ModeBaseline, Cycles: 300000, Instructions: 100000, IPC: 0.334, Accuracy: 1},
			With:     Result{Workload: "mcf", Mode: ModeTEA, Cycles: 250000, Instructions: 100000, IPC: 0.4, Coverage: 0.68, Accuracy: 0.941},
			Speedup:  1.2,
		},
	}
}

func sampleFig8Rows() []Fig8Row {
	return []Fig8Row{
		{Workload: "mcf", SimpleFlow: false, TEA: 1.2, Runahead: 1.05},
		{Workload: "bfs", SimpleFlow: true, TEA: 1.25, Runahead: 1.0},
		{Workload: "xz", SimpleFlow: true, TEA: 0.97, Runahead: 0.9},
	}
}

func sampleFig10Rows() []Fig10Row {
	return []Fig10Row{
		{Workload: "bfs", Config: "tea", Accuracy: 0.998, Coverage: 0.92, Saved: 31.5},
		{Workload: "mcf", Config: "tea", Accuracy: 0.941, Coverage: 0.68, Saved: 18.2},
		{Workload: "bfs", Config: "nomem", Accuracy: 0.85, Coverage: 0.4, Saved: 12.0},
		{Workload: "mcf", Config: "nomem", Accuracy: 0.8, Coverage: 0.3, Saved: 9.1},
	}
}

func TestGoldenReports(t *testing.T) {
	cases := []struct {
		name  string
		write func(w io.Writer, f Format) error
	}{
		{"speedups", func(w io.Writer, f Format) error {
			return speedupsReport("Fig 5: sample speedups", sampleSpeedupRows()).Write(w, f)
		}},
		{"fig8", func(w io.Writer, f Format) error {
			return fig8Report(sampleFig8Rows()).Write(w, f)
		}},
		{"fig10", func(w io.Writer, f Format) error {
			return fig10Report(sampleFig10Rows()).Write(w, f)
		}},
	}
	formats := []struct {
		ext string
		f   Format
	}{
		{"txt", FormatText},
		{"json", FormatJSON},
		{"csv", FormatCSV},
	}
	for _, c := range cases {
		for _, ff := range formats {
			t.Run(c.name+"."+ff.ext, func(t *testing.T) {
				var buf bytes.Buffer
				if err := c.write(&buf, ff.f); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", c.name+"."+ff.ext)
				if *update {
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test ./tea -run TestGoldenReports -update` to create)", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("rendering changed; got:\n%s\nwant:\n%s", buf.Bytes(), want)
				}
			})
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

func TestModeJSONRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeBaseline, ModeTEA, ModeTEADedicated,
		ModeBranchRunahead, ModeTEABigEngine, ModeWide16} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("warp-drive"); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}
