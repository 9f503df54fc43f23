// ablation: reproduces the Fig. 10 feature study on one workload — what
// each TEA construction feature (mask combining, memory dependencies,
// cross-loop chains) contributes to accuracy, coverage, and timeliness.
//
//	go run ./examples/ablation [workload]
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"teasim/tea"
)

func main() {
	name := "mcf"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	const budget = 250_000

	base, err := tea.Run(name, tea.Config{Mode: tea.ModeBaseline, MaxInstructions: budget, Scale: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== Fig 10-style ablation on %s ==\n\n", name)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tspeedup\taccuracy\tcoverage\tsaved/branch")
	for _, fc := range tea.Fig10Configs() {
		res, err := tea.Run(name, tea.Config{Mode: fc.Mode, Set: fc.Set, MaxInstructions: budget, Scale: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%+.1f%%\t%.1f%%\t%.0f%%\t%.1f\n",
			fc.Name, 100*(float64(base.Cycles)/float64(res.Cycles)-1),
			100*res.Accuracy, 100*res.Coverage, res.AvgCyclesSaved)
	}
	tw.Flush()

	fmt.Println("\nconfigs: tea = all features; onlyloops = chains confined between")
	fmt.Println("consecutive branch instances; nomasks = no combining across control")
	fmt.Println("flows; nomem = no memory dependencies; runahead = Branch Runahead.")
}
