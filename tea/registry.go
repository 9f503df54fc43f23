package tea

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Experiment is one named entry of the experiment catalog: a runner plus the
// metadata clients use to pick it. Every experiment takes the same inputs
// (ExpOptions) and produces the same output shape (*Report), so callers —
// teaexp, the serve daemon, tests — dispatch purely by name, and new
// experiments (companion shootouts, generated-workload sweeps) become
// catalog entries rather than new CLI switch arms.
type Experiment struct {
	// Name is the dispatch key ("fig5", "sens-blockcache", ...).
	Name string
	// Title is the rendered report's title line.
	Title string
	// Description is a one-line human summary for catalog listings.
	Description string
	// Run executes the experiment. It must honor ctx for cooperative
	// cancellation and return a Report built from the options' rows.
	Run func(ctx context.Context, o ExpOptions) (*Report, error)
}

// registry holds the experiment catalog. Registration happens at package
// init (the built-in figures) and from extension packages; the lock exists
// for the latter.
var registry = struct {
	sync.Mutex
	byName map[string]Experiment
	order  []string
}{byName: map[string]Experiment{}}

// RegisterExperiment adds an experiment to the catalog. Registering a name
// twice panics: silently replacing a figure would redefine what every client
// of that name gets.
func RegisterExperiment(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("tea: RegisterExperiment needs a name and a runner")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[e.Name]; dup {
		panic("tea: experiment " + e.Name + " registered twice")
	}
	registry.byName[e.Name] = e
	registry.order = append(registry.order, e.Name)
}

// Experiments returns the catalog in registration order (the built-in
// figures first, in paper order).
func Experiments() []Experiment {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Experiment, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[name])
	}
	return out
}

// ExperimentNames returns the sorted dispatch keys, for error messages and
// flag docs.
func ExperimentNames() []string {
	registry.Lock()
	defer registry.Unlock()
	names := append([]string(nil), registry.order...)
	sort.Strings(names)
	return names
}

// LookupExperiment finds a catalog entry by name.
func LookupExperiment(name string) (Experiment, bool) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.byName[name]
	return e, ok
}

// RunExperiment dispatches one experiment by name, the one way to run an
// experiment. ctx cancels it cooperatively (nil = context.Background()):
// completed cells keep their results, in-flight cells finish, and the
// experiment returns the context's error. Report.Write renders the outcome
// and Report.Rows exposes its structured rows.
func RunExperiment(ctx context.Context, name string, o ExpOptions) (*Report, error) {
	e, ok := LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("tea: unknown experiment %q (see tea.Experiments)", name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return e.Run(ctx, o)
}

// Report titles for the speedup-style experiments (shared by the runners and
// their catalog entries).
const (
	titleFig5         = "Fig 5: TEA thread speedup over baseline (paper geomean +10.1%)"
	titleFig9         = "Fig 9: TEA on a dedicated execution engine (paper geomean +12.3%)"
	titleFig9Big      = "§V-D: TEA on a main-core-sized engine (paper geomean +12.8%)"
	titleWide16       = "§IV-H: 16-wide frontend, no precomputation (paper ~+2.8%)"
	titlePrefetchOnly = "§V-B aside: early resolution disabled (prefetch effect only; paper +1.2%)"
	titleCustom       = "Custom machine point vs baseline"
)

func init() {
	for _, e := range []Experiment{
		{
			Name: "fig5", Title: titleFig5,
			Description: "per-benchmark TEA-thread speedup over the baseline core",
			Run:         fig5,
		},
		{
			Name: "fig6", Title: "Fig 6: branch MPKI (baseline)",
			Description: "total branch MPKI per benchmark on the baseline",
			Run:         fig6,
		},
		{
			Name: "fig7", Title: "Fig 7: misprediction breakdown under TEA",
			Description: "retired mispredictions split into covered/late/incorrect/uncovered",
			Run:         fig7,
		},
		{
			Name: "fig8", Title: "Fig 8: TEA vs Branch Runahead",
			Description: "TEA vs Branch Runahead with the simple/complex control-flow split",
			Run:         fig8,
		},
		{
			Name: "fig9", Title: titleFig9,
			Description: "TEA thread on a dedicated 16-unit execution engine",
			Run:         fig9,
		},
		{
			Name: "fig9big", Title: titleFig9Big,
			Description: "TEA thread on an engine as large as the main core's backend",
			Run:         fig9Big,
		},
		{
			Name: "wide16", Title: titleWide16,
			Description: "16-wide frontend baseline without precomputation",
			Run:         wide16,
		},
		{
			Name: "fig10", Title: "Fig 10: thread-construction ablations",
			Description: "accuracy/coverage/timeliness across thread-construction ablations",
			Run:         fig10,
		},
		{
			Name: "table3", Title: "Table III: extra dynamic uops fetched by the TEA thread",
			Description: "extra dynamic uop footprint of the TEA thread per benchmark",
			Run:         table3,
		},
		{
			Name: "prefetchonly", Title: titlePrefetchOnly,
			Description: "TEA with early resolution disabled (data-prefetch effect only)",
			Run:         prefetchOnly,
		},
		{
			Name: "custom", Title: titleCustom,
			Description: "a user-supplied machine point (ExpOptions.Spec + Set patches) vs the baseline",
			Run:         custom,
		},
	} {
		RegisterExperiment(e)
	}
	for _, p := range []SensParam{SensBlockCache, SensFillBuffer, SensH2PDecay, SensLead, SensFetchQueue} {
		RegisterExperiment(Experiment{
			Name:        "sens-" + string(p),
			Title:       fmt.Sprintf("Sensitivity: %s", p),
			Description: fmt.Sprintf("structure-size sensitivity sweep over %s", p),
			Run: func(ctx context.Context, o ExpOptions) (*Report, error) {
				return sensitivity(ctx, p, nil, o)
			},
		})
	}
}
