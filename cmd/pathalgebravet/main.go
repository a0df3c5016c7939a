// Command pathalgebravet is pathalgebra's invariant checker: a
// multichecker over the internal/lint analyzer suite (budgetcharge,
// detorder, errsentinel, hotpathalloc, recoverguard, spanend).
//
//	pathalgebravet ./...              # load, check, report
//
// Arguments are package patterns for the loader (default ./...).
// `pathalgebravet help` describes every analyzer.
//
// Exit status: 0 clean, 1 failure to load or analyze, 2 findings.
package main

import (
	"fmt"
	"os"

	"pathalgebra/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	analyzers := lint.All()
	if len(args) == 1 && (args[0] == "help" || args[0] == "-h" || args[0] == "--help") {
		fmt.Println("pathalgebravet checks pathalgebra's engine invariants.")
		fmt.Println()
		for _, a := range analyzers {
			fmt.Printf("%s:\n    %s\n", a.Name, a.Doc)
		}
		fmt.Println("\nusage: pathalgebravet [packages]")
		return 0
	}
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathalgebravet:", err)
		return 1
	}
	findings := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathalgebravet:", err)
			return 1
		}
		for _, d := range diags {
			fmt.Println(d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "pathalgebravet: %d finding(s)\n", findings)
		return 2
	}
	return 0
}
